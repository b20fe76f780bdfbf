#pragma once
// Numerical-health monitor: per-shape EWMA drift tracking of guard residuals.
//
// The guard layer (nn::GuardedBackend) verifies every checked APA product with
// Freivalds and reports worst_ratio = residual / tolerance, where tolerance is
// the σ/φ-derived λ-error bound from the rule catalog times the guard
// multiplier. The trip decision is binary (ratio > 1); this monitor turns the
// stream of ratios into a trend instrument: a per-⟨algo, M, K, N⟩ EWMA with
// slope estimation that flags *drift* — sustained growth toward the bound —
// long before a trip. Consumers:
//   * GuardedBackend feeds record() after every verification;
//   * the tune router / derisk ladder can poll drifting() to derate a shape
//     proactively;
//   * `health` telemetry JSONL records (attach() a sink) feed
//     tools/obs/health_report, which renders the drift table against the
//     catalog bounds exported by rule_lint --bounds-json.
//
// Thread-safe; record() is a no-op while obs::set_enabled(false).

#include <cstdint>
#include <string>
#include <vector>

namespace apa::obs {

class TelemetrySink;

struct HealthOptions {
  double decay = 0.85;       ///< EWMA retention per sample
  double warn_ratio = 0.5;   ///< flag when EWMA crosses this (guard trips at 1)
  double slope_warn = 0.04;  ///< or when the EWMA slope per sample exceeds this
  double slope_floor = 0.05; ///< ... once the EWMA itself is above this floor
  int min_samples = 4;       ///< no flag before the EWMA has warmed up
  int emit_every = 16;       ///< telemetry cadence per shape; 0 = flips only
};

/// Snapshot of one tracked ⟨algo, M, K, N⟩ stream.
struct ShapeHealth {
  std::string algo;
  long long m = 0;
  long long k = 0;
  long long n = 0;
  std::uint64_t samples = 0;
  double last_ratio = 0.0;
  double ewma_ratio = 0.0;
  double slope = 0.0;       ///< EWMA of per-sample EWMA deltas
  double peak_ratio = 0.0;
  double bound = 0.0;       ///< latest σ/φ-derived absolute error bound seen
  bool drifting = false;
  std::uint64_t flagged_at = 0;  ///< sample index of the first flag, 0 = never
};

class HealthMonitor {
 public:
  explicit HealthMonitor(HealthOptions options = {});
  ~HealthMonitor();
  HealthMonitor(const HealthMonitor&) = delete;
  HealthMonitor& operator=(const HealthMonitor&) = delete;

  /// Feeds one guard verification: `ratio` is GuardReport::worst_ratio,
  /// `bound` the λ-error bound the tolerance was derived from. Emits a
  /// `health` telemetry record on drift flips and every emit_every samples.
  /// Dropped while obs::enabled() is false.
  void record(const char* algo, long long m, long long k, long long n,
              double ratio, double bound);

  /// True when any algorithm stream for this shape is currently flagged.
  [[nodiscard]] bool drifting(long long m, long long k, long long n) const;
  /// Number of streams currently flagged.
  [[nodiscard]] std::uint64_t drifting_count() const;

  /// All tracked streams, sorted by (algo, m, k, n).
  [[nodiscard]] std::vector<ShapeHealth> snapshot() const;

  /// Emits one record per tracked stream to the attached sink (event
  /// `"final"` by default). ObsSession::flush calls this so short runs whose
  /// streams never reached the emit_every cadence still land in the JSONL
  /// for health_report.
  void emit_all(const char* event = "final");

  /// Telemetry sink for `health` records (nullptr detaches). Not owned.
  void attach(TelemetrySink* sink);
  void reset();

 private:
  struct Impl;
  Impl* impl_;
};

/// The process-global monitor every GuardedBackend feeds.
HealthMonitor& health();

}  // namespace apa::obs
