#pragma once
// One-call observability wiring for example/bench binaries: construct an
// ObsSession from the --trace-out / --metrics-out / --flight-dir /
// --metrics-snapshot flag values and the outputs are produced at scope exit.
// Enables ring recording only when a trace path was given, so binaries run
// without flags pay only the dormant span cost.
//
// Distributed mode (ranks > 1): --trace-out and --metrics-out paths are
// suffixed per rank ("trace.json" -> "trace.rank0.json", ...) so N workers
// never race on one file; flush() writes one rank-filtered Chrome trace per
// rank sharing a common time base for tools/obs/trace_merge.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "obs/telemetry.h"

namespace apa::obs {

class MetricsPublisher;

/// "path" -> "path.rank<k>" inserted before the extension
/// ("trace.json", 2 -> "trace.rank2.json"). rank < 0 returns `path` unchanged.
[[nodiscard]] std::string rank_suffixed_path(const std::string& path, int rank);

struct ObsSessionOptions {
  std::string trace_path;    ///< Chrome-trace output; enables ring recording
  std::string metrics_path;  ///< telemetry JSONL output
  std::uint64_t trace_cap_events = 0;  ///< --trace-cap; 0 keeps current bound
  std::string flight_dir;    ///< arms flight-recorder dumps into this dir
  std::string snapshot_spec; ///< "path:period_s" live Prometheus exposition
  int ranks = 1;             ///< > 1: per-rank trace/metrics files
};

class ObsSession {
 public:
  /// Empty paths disable the corresponding output. A non-empty `trace_path`
  /// turns on ring recording (obs::set_tracing) for the session's lifetime.
  /// `trace_cap_events` bounds each ring sized while tracing (--trace-cap);
  /// 0 keeps the current capacity (64Ki entries/thread by default). The
  /// flight view reads the newest 4096 entries of the same rings.
  ObsSession(std::string trace_path, std::string metrics_path,
             std::uint64_t trace_cap_events = 0);
  explicit ObsSession(ObsSessionOptions options);
  /// Calls flush().
  ~ObsSession();
  ObsSession(const ObsSession&) = delete;
  ObsSession& operator=(const ObsSession&) = delete;

  /// The JSONL sink for --metrics-out, or nullptr when the flag was absent.
  /// Feed it per-epoch records (nn::append_epoch_record) or pass it to
  /// TrainGuardOptions::telemetry for per-step records. With ranks > 1 this
  /// is rank 0's sink (coordinator records land there).
  [[nodiscard]] TelemetrySink* telemetry() const {
    return sinks_.empty() ? nullptr : sinks_.front().get();
  }
  /// Rank `rank`'s sink in dist mode (clamped into range); same as
  /// telemetry() for single-rank sessions. nullptr without --metrics-out.
  [[nodiscard]] TelemetrySink* rank_telemetry(int rank) const;

  /// Appends the final counters record to the metrics stream and writes the
  /// Chrome trace(s) — one rank-filtered file per rank when ranks > 1.
  /// Idempotent; called by the destructor.
  void flush();

 private:
  ObsSessionOptions options_;
  std::vector<std::unique_ptr<TelemetrySink>> sinks_;  // index = rank
  std::unique_ptr<MetricsPublisher> publisher_;
  bool tracing_started_ = false;
  bool flushed_ = false;
};

}  // namespace apa::obs
