#include "obs/session.h"

#include <algorithm>
#include <cstdio>

#include "obs/flight.h"
#include "obs/health.h"
#include "obs/snapshot.h"
#include "obs/trace.h"
#include "obs/trace_export.h"

namespace apa::obs {

std::string rank_suffixed_path(const std::string& path, int rank) {
  if (rank < 0 || path.empty()) return path;
  const std::size_t slash = path.find_last_of('/');
  const std::size_t dot = path.find_last_of('.');
  const std::string suffix = ".rank" + std::to_string(rank);
  if (dot == std::string::npos ||
      (slash != std::string::npos && dot < slash)) {
    return path + suffix;  // no extension: append
  }
  return path.substr(0, dot) + suffix + path.substr(dot);
}

ObsSession::ObsSession(std::string trace_path, std::string metrics_path,
                       std::uint64_t trace_cap_events)
    : ObsSession(ObsSessionOptions{std::move(trace_path),
                                   std::move(metrics_path), trace_cap_events,
                                   /*flight_dir=*/"", /*snapshot_spec=*/"",
                                   /*ranks=*/1}) {}

ObsSession::ObsSession(ObsSessionOptions options)
    : options_(std::move(options)) {
  options_.ranks = std::max(options_.ranks, 1);
  if (!options_.trace_path.empty()) {
    // Resize before recording starts so no pre-session events are discarded
    // (set_trace_capacity itself is safe against concurrent recorders).
    if (options_.trace_cap_events > 0) {
      set_trace_capacity(options_.trace_cap_events);
    }
    reset_trace();
    reset_clock_marks();
    set_tracing(true);
    tracing_started_ = true;
  }
  if (!options_.metrics_path.empty()) {
    for (int rank = 0; rank < options_.ranks; ++rank) {
      sinks_.push_back(std::make_unique<TelemetrySink>(
          options_.ranks > 1
              ? rank_suffixed_path(options_.metrics_path, rank)
              : options_.metrics_path));
    }
    // A killed run (SIGTERM/SIGINT mid-epoch) must keep every completed
    // guard/rollback record: fsync all sinks from the signal path.
    install_telemetry_crash_flush();
    // Drift records stream into the coordinator's sink.
    health().attach(telemetry());
  }
  if (!options_.flight_dir.empty()) {
    set_flight_dir(options_.flight_dir);
    install_flight_triggers();
  }
  if (!options_.snapshot_spec.empty()) {
    std::string path;
    double period_s = 1.0;
    if (parse_snapshot_spec(options_.snapshot_spec, &path, &period_s)) {
      publisher_ = std::make_unique<MetricsPublisher>(path, period_s);
    }
  }
}

ObsSession::~ObsSession() { flush(); }

TelemetrySink* ObsSession::rank_telemetry(int rank) const {
  if (sinks_.empty()) return nullptr;
  const int idx =
      std::clamp(rank, 0, static_cast<int>(sinks_.size()) - 1);
  return sinks_[static_cast<std::size_t>(idx)].get();
}

void ObsSession::flush() {
  if (flushed_) return;
  flushed_ = true;
  if (tracing_started_) set_tracing(false);
  if (!sinks_.empty()) {
    // Final drift snapshot: streams too short for the emit_every cadence
    // still reach health_report.
    health().emit_all();
    health().attach(nullptr);
  }
  publisher_.reset();  // final Prometheus snapshot before the sinks close
  if (telemetry() != nullptr && telemetry()->ok()) {
    telemetry()->write(counters_record());
    std::printf("wrote %s\n", telemetry()->path().c_str());
  }
  if (options_.trace_path.empty()) return;
  if (options_.ranks <= 1) {
    if (write_chrome_trace(options_.trace_path)) {
      std::printf("wrote %s (%llu spans%s)\n", options_.trace_path.c_str(),
                  static_cast<unsigned long long>(trace_events().size()),
                  trace_dropped() > 0
                      ? ", ring overflowed — oldest dropped"
                      : "");
    }
    return;
  }
  for (int rank = 0; rank < options_.ranks; ++rank) {
    TraceExportOptions export_options;
    export_options.rank = rank;
    const std::string path = rank_suffixed_path(options_.trace_path, rank);
    if (write_chrome_trace(path, export_options)) {
      std::printf("wrote %s\n", path.c_str());
    }
  }
}

}  // namespace apa::obs
