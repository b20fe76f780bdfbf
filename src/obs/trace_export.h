#pragma once
// Chrome-trace (chrome://tracing / Perfetto "Trace Event Format") export of
// the per-thread span rings recorded by obs/trace.h. Timestamps are rebased to
// the earliest recorded span and emitted in microseconds, as the format
// expects. See docs/OBSERVABILITY.md for how to open the output.
//
// Distributed runs export one file per worker rank (rank filter below); each
// carries a top-level "clockSync" object with the rank's barrier clock mark
// (obs::clock_mark) so tools/obs/trace_merge can align N files onto one
// timeline, and cross-worker ring sends appear as "s"/"f" flow events.

#include <cstdint>
#include <string>

namespace apa::obs {

struct TraceExportOptions {
  /// -1 exports every thread into one file; >= 0 exports only threads
  /// declared for this rank (rank-less threads — main, OMP pool — fold into
  /// rank 0's file).
  int rank = -1;
  /// Common rebase origin in steady-clock ns; 0 derives it from the earliest
  /// event across *all* ranks, so per-rank files written by one process share
  /// a base automatically.
  std::uint64_t t0_ns = 0;
};

/// The recorded spans as a complete Chrome-trace JSON document ("X" duration
/// events plus "s"/"f" flow events, one pid, one tid per ring slot). Always
/// valid JSON — an empty recording yields an empty event list.
[[nodiscard]] std::string chrome_trace_json();
[[nodiscard]] std::string chrome_trace_json(const TraceExportOptions& options);

/// Writes chrome_trace_json() to `path`; returns false (after logging to
/// stderr) when the file cannot be written. Empty path is a no-op success.
bool write_chrome_trace(const std::string& path);
bool write_chrome_trace(const std::string& path,
                        const TraceExportOptions& options);

}  // namespace apa::obs
