#pragma once
// Scoped tracing spans over one per-thread event ring.
//
// Two collection levels, both runtime-switchable:
//   * phase accumulation (set_enabled, default on): every APA_TRACE_SCOPE adds
//     its duration to a named atomic accumulator — the per-phase time
//     breakdowns in EpochStats and the telemetry JSONL come from these;
//   * ring recording: every finished span also lands in the calling thread's
//     event ring (obs/flight.cpp), the one ring behind two views. The flight
//     recorder (obs/flight.h) always reads the newest 4096 spans and notes;
//     with tracing on (set_tracing, default off) the ring grows to
//     trace_capacity() and trace_events() exports the traced spans and flows
//     as a Chrome trace (obs/trace_export.h). Rings are single-producer (the
//     owning thread), drained at export time, and recycled when their thread
//     exits, so recording takes no lock and memory is bounded by live threads.
//
// Distributed correlation (docs/OBSERVABILITY.md §Trace context): a thread can
// declare the worker rank it acts for (set_thread_rank; each recorded event
// carries it), ring sends/receives record paired flow events
// (APA_TRACE_FLOW_OUT/IN) keyed by a span id carried in the dist::Message
// trace context, and clock_mark() publishes a per-rank barrier timestamp that
// tools/obs/trace_merge uses to align N per-rank trace files onto one
// timeline.
//
// Configuring with -DAPAMM_OBS=OFF compiles every macro to a no-op with zero
// runtime cost; the query functions below remain callable and return empty.

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#if defined(APAMM_OBS_ENABLED)
#include <atomic>
#include <chrono>
#endif

namespace apa::obs {

#if defined(APAMM_OBS_ENABLED)
inline constexpr bool kCompiledIn = true;
#else
inline constexpr bool kCompiledIn = false;
#endif

/// Merged totals for one span name — the unit of the per-phase breakdown.
struct PhaseTotal {
  std::string name;
  std::uint64_t total_ns = 0;
  std::uint64_t count = 0;
};

/// What a recorded event represents: a duration slice, one side of a
/// cross-worker flow arrow (ring send -> ring receive), or a flight_note
/// breadcrumb (flight view only; never in trace_events()).
enum class TraceEventKind : std::uint8_t { kSpan, kFlowOut, kFlowIn, kNote };

/// One recorded span, flattened for export and tests.
struct TraceEventView {
  std::string name;
  std::int64_t id = -1;  ///< APA_TRACE_SCOPE_ID payload / flow id; -1 when absent
  int tid = 0;           ///< ring slot; sequential threads may share one
  int rank = -1;         ///< worker rank declared via set_thread_rank, -1 = none
  TraceEventKind kind = TraceEventKind::kSpan;
  std::uint64_t start_ns = 0;
  std::uint64_t dur_ns = 0;
};

/// Per-rank clock-alignment mark captured at a dist barrier (clock_mark).
struct ClockMark {
  int rank = -1;
  std::uint64_t mark_ns = 0;
};

// Runtime controls. All are no-ops (and the getters constant) when compiled out.
void set_enabled(bool on);
[[nodiscard]] bool enabled();
void set_tracing(bool on);
[[nodiscard]] bool tracing();

/// Declares the dist worker rank the calling thread acts for; events the thread
/// records from now on carry the rank so per-rank trace files can be split out.
/// Threads that never call this stay at rank -1 (exported with rank 0's file).
void set_thread_rank(int rank);
/// The calling thread's declared rank, or -1.
[[nodiscard]] int thread_rank();

/// Publishes "rank's steady clock read `now` while all live workers sat at the
/// same barrier". trace_merge subtracts the pairwise mark deltas to place N
/// per-rank trace files on one aligned timeline. Last call per rank wins.
void clock_mark(int rank);
/// All published marks, sorted by rank. Empty when compiled out.
[[nodiscard]] std::vector<ClockMark> clock_marks();
void reset_clock_marks();

/// Bounds a ring (re)sized while tracing is on to `events_per_thread` events
/// (default 64Ki; clamped to >= 1); a ring sized while tracing is off holds
/// the flight view's 4096. Safe to call while other threads are actively
/// recording: the resize only bumps a global generation — each producer
/// lazily swaps its own ring to the new bound on its next record, and trace
/// drains treat rings from an older generation as empty. Events recorded
/// before the resize are discarded. Turning tracing on bumps the generation
/// the same way; turning it off does not, so what was traced stays
/// exportable.
void set_trace_capacity(std::uint64_t events_per_thread);
/// Current traced-ring bound, or 0 when compiled out.
[[nodiscard]] std::uint64_t trace_capacity();

/// Phase accumulator snapshot: merged by name, sorted by name.
[[nodiscard]] std::vector<PhaseTotal> phase_totals();
/// Entry-wise `after - before` (matched by name), zero entries dropped.
[[nodiscard]] std::vector<PhaseTotal> phase_delta(
    const std::vector<PhaseTotal>& after, const std::vector<PhaseTotal>& before);
void reset_phases();

/// The traced spans and flows of every ring, ordered by (tid, start). Call
/// while span producers are quiescent — rings are drained without stopping
/// writers.
[[nodiscard]] std::vector<TraceEventView> trace_events();
/// Entries lost to ring wrap-around since the last reset or resize.
[[nodiscard]] std::uint64_t trace_dropped();
/// Empties every ring — the flight view's too (producers must be quiescent).
void reset_trace();

#if defined(APAMM_OBS_ENABLED)

namespace detail {
extern std::atomic<bool> g_enabled;
extern std::atomic<bool> g_tracing;

inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Appends one entry to the calling thread's ring. Spans carry (id, dur_ns)
/// in (a, b) and their start in t_ns; flows carry their id in a; notes carry
/// their two payloads.
void record_event(const char* name, std::int64_t a, std::int64_t b,
                  std::uint64_t t_ns, TraceEventKind kind);
}  // namespace detail

/// Named span accumulator. Interned once per name (APA_TRACE_SCOPE caches the
/// pointer in a function-local static), so the hot path is two atomic adds.
class Phase {
 public:
  static Phase* intern(const char* name);

  void record(std::uint64_t dur_ns) {
    total_ns_.fetch_add(dur_ns, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
  }
  [[nodiscard]] const char* name() const { return name_.c_str(); }

 private:
  friend std::vector<PhaseTotal> phase_totals();
  friend void reset_phases();
  explicit Phase(std::string name) : name_(std::move(name)) {}
  std::string name_;
  std::atomic<std::uint64_t> total_ns_{0};
  std::atomic<std::uint64_t> count_{0};
};

/// RAII span: times the enclosing scope into `phase` and into the thread's
/// event ring. Dormant cost (collection disabled) is one relaxed
/// atomic load.
class Span {
 public:
  explicit Span(Phase* phase, std::int64_t id = -1) {
    if (detail::g_enabled.load(std::memory_order_relaxed)) {
      phase_ = phase;
      id_ = id;
      start_ = detail::now_ns();
    }
  }
  ~Span() {
    if (phase_ != nullptr) finish();
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  void finish();
  Phase* phase_ = nullptr;
  std::int64_t id_ = -1;
  std::uint64_t start_ = 0;
};

/// Records one side of a cross-worker flow arrow (zero-duration event bound to
/// the enclosing slice in Perfetto). `id` must match on both sides — dist uses
/// the Message trace-context span id.
inline void record_flow(Phase* phase, std::uint64_t id, bool out) {
  if (!detail::g_tracing.load(std::memory_order_relaxed)) return;
  detail::record_event(phase->name(), static_cast<std::int64_t>(id), 0,
                       detail::now_ns(),
                       out ? TraceEventKind::kFlowOut : TraceEventKind::kFlowIn);
}

#define APA_OBS_CONCAT_INNER(a, b) a##b
#define APA_OBS_CONCAT(a, b) APA_OBS_CONCAT_INNER(a, b)

/// Times the rest of the enclosing scope under `name` (a string literal).
#define APA_TRACE_SCOPE(name)                                        \
  static ::apa::obs::Phase* const APA_OBS_CONCAT(apa_obs_phase_,     \
                                                 __LINE__) =         \
      ::apa::obs::Phase::intern(name);                               \
  const ::apa::obs::Span APA_OBS_CONCAT(apa_obs_span_, __LINE__)(    \
      APA_OBS_CONCAT(apa_obs_phase_, __LINE__))

/// Like APA_TRACE_SCOPE, tagging the recorded event with an integer id (e.g.
/// the APA term index); accumulation still merges under `name`.
#define APA_TRACE_SCOPE_ID(name, id)                                 \
  static ::apa::obs::Phase* const APA_OBS_CONCAT(apa_obs_phase_,     \
                                                 __LINE__) =         \
      ::apa::obs::Phase::intern(name);                               \
  const ::apa::obs::Span APA_OBS_CONCAT(apa_obs_span_, __LINE__)(    \
      APA_OBS_CONCAT(apa_obs_phase_, __LINE__),                      \
      static_cast<std::int64_t>(id))

/// Emitting half of a send->receive flow arrow under `name` (string literal).
#define APA_TRACE_FLOW_OUT(name, flow_id)                            \
  do {                                                               \
    static ::apa::obs::Phase* const apa_obs_flow_phase =             \
        ::apa::obs::Phase::intern(name);                             \
    ::apa::obs::record_flow(apa_obs_flow_phase,                      \
                            static_cast<std::uint64_t>(flow_id), true); \
  } while (false)

/// Receiving half of a send->receive flow arrow; `flow_id` must match the
/// sender's.
#define APA_TRACE_FLOW_IN(name, flow_id)                             \
  do {                                                               \
    static ::apa::obs::Phase* const apa_obs_flow_phase =             \
        ::apa::obs::Phase::intern(name);                             \
    ::apa::obs::record_flow(apa_obs_flow_phase,                      \
                            static_cast<std::uint64_t>(flow_id), false); \
  } while (false)

#else  // !APAMM_OBS_ENABLED

#define APA_TRACE_SCOPE(name) \
  do {                        \
  } while (false)
#define APA_TRACE_SCOPE_ID(name, id) \
  do {                               \
    (void)sizeof((id));              \
  } while (false)
#define APA_TRACE_FLOW_OUT(name, flow_id) \
  do {                                    \
    (void)sizeof((flow_id));              \
  } while (false)
#define APA_TRACE_FLOW_IN(name, flow_id) \
  do {                                   \
    (void)sizeof((flow_id));             \
  } while (false)

#endif  // APAMM_OBS_ENABLED

}  // namespace apa::obs
