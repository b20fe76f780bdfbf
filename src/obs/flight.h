#pragma once
// Flight recorder: an always-on, bounded, lock-free black box per worker.
//
// The flight recorder is a view of the per-thread event rings that also back
// the Chrome trace (obs/trace.h): every finished span and every explicit
// flight_note() lands in the calling thread's ring, and the flight view reads
// the newest 4096 span and note entries of each. On a trigger — guard trip,
// trainer rollback, dist rewind, ApaError throw, or a fatal signal —
// flight_dump() writes one `flight_<rank>.json` per worker rank into the
// configured directory so the moments leading up to the failure are always
// recoverable, even from a crashed process. Each entry carries the rank of
// the thread that recorded it, and a ring is handed to the next new thread
// when its owner exits without being emptied, so an exited worker's last
// events stay readable until newer ones overwrite them.
//
// The dump path is async-signal-safe: ring storage is allocated by its owning
// thread (never inside a handler), iteration is lock-free over atomic slots
// and release-published counts, a ring whose storage is being swapped or
// drained is skipped rather than waited for, and the writer uses only
// write(2) with hand-rolled formatting. Dumps are no-ops until
// set_flight_dir() names an output directory, so the trigger call sites cost
// one relaxed atomic load in the default build.
//
// Schema and trigger list: docs/OBSERVABILITY.md §Flight recorder.

#include <cstdint>
#include <string>
#include <vector>

namespace apa::obs {

/// One flight-view entry, flattened for tests. Spans carry (id, dur_ns) in
/// (a, b); notes carry their two free-form payload integers.
struct FlightEventView {
  std::string tag;
  std::int64_t a = 0;
  std::int64_t b = 0;
  int tid = 0;    ///< ring slot, as in TraceEventView
  int rank = -1;  ///< rank the recording thread had declared, -1 = none
  std::uint64_t t_ns = 0;
  bool is_span = false;
};

/// Names the dump directory and arms the triggers (empty string disarms).
/// The directory must already exist; paths longer than the internal fixed
/// buffer (512 bytes, for signal safety) are rejected and leave dumps
/// disarmed.
void set_flight_dir(const std::string& dir);
[[nodiscard]] std::string flight_dir();

/// Appends a breadcrumb with two payload integers (step, ratio-in-ppm, ...)
/// to the calling thread's ring; dropped while obs::enabled() is false. `tag`
/// must be a string literal or otherwise outlive the process.
void flight_note(const char* tag, std::int64_t a = 0, std::int64_t b = 0);

/// Writes flight_<rank>.json for every rank with recorded events into the
/// configured directory, grouping entries by the rank each was recorded
/// under. Returns the number of files written (0 when no dir is configured). Async-signal-safe; `reason` must be a string literal.
/// Concurrent dumps coalesce: the loser returns 0.
int flight_dump(const char* reason);

/// Installs SIGSEGV/SIGBUS/SIGILL/SIGFPE/SIGABRT handlers that dump the
/// flight rings, then restore the previous handler and re-raise. Also hooks
/// ApaError construction (support/check.h) to dump on structured throws.
/// Idempotent.
void install_flight_triggers();

/// The flight view of every ring, oldest first per ring. Test and
/// postmortem-REPL helper; not signal safe.
[[nodiscard]] std::vector<FlightEventView> flight_events();
/// Empties every ring — the trace view's too (producers must be quiescent).
void reset_flight();

}  // namespace apa::obs
