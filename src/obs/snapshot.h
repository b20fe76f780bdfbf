#pragma once
// Live metrics exposition: the counter/histogram/phase registries rendered as
// Prometheus text format, published atomically (tmp + rename) on a period by
// MetricsPublisher — the `--metrics-snapshot=path:period` mode on ObsSession
// and the scrape hook for the future serving binary.
//
// Derived gauges reuse the PR 7 calibration formulas (tune/calibrate.cpp):
// achieved GEMM GFLOPS = blas.gemm.flops / blas.gemm phase seconds, and
// combine bandwidth = core.combine.bytes / core.combine_* phase seconds —
// computed here directly from the obs registries so obs keeps zero dependency
// on tune. Format details: docs/OBSERVABILITY.md §Metrics snapshot.

#include <string>

namespace apa::obs {

/// The registries as one Prometheus text-format document.
[[nodiscard]] std::string prometheus_text();

/// Splits "path:period_seconds" on the *last* ':' (paths may contain colons).
/// A missing or unparsable period defaults to 1s; returns false only for an
/// empty path.
bool parse_snapshot_spec(const std::string& spec, std::string* path,
                         double* period_s);

/// Background publisher: rewrites `path` with prometheus_text() every
/// `period_s` seconds (and once at stop), via write-to-tmp + rename so a
/// scraper never reads a torn file. The thread starts on construction.
class MetricsPublisher {
 public:
  MetricsPublisher(std::string path, double period_s);
  ~MetricsPublisher();  ///< stops the thread after one final publish
  MetricsPublisher(const MetricsPublisher&) = delete;
  MetricsPublisher& operator=(const MetricsPublisher&) = delete;

  /// Synchronous publish; returns false when the file cannot be written.
  bool publish_now();
  [[nodiscard]] const std::string& path() const;

 private:
  struct Impl;
  Impl* impl_;
};

}  // namespace apa::obs
