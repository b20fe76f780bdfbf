// The one per-thread event ring behind both obs views, and the flight
// recorder's signal-safe dump of it: trace_events() (obs/trace.h) reads the
// traced spans and flows, flight_events() and flight_dump() the newest
// kFlightView spans and notes. The ring, its registry and the dump's reader
// share this file so apamm_check R2 sees the dump's whole call tree.
#include "obs/flight.h"

#include "obs/trace.h"

#if defined(APAMM_OBS_ENABLED)

#include <fcntl.h>
#include <signal.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstring>
#include <thread>
#include <tuple>
#include <vector>

#include "support/check.h"

#endif

namespace apa::obs {

#if defined(APAMM_OBS_ENABLED)

namespace detail {

std::atomic<bool> g_tracing{false};

namespace {

/// Entries the flight view reads from the newest end of each ring, and the
/// size of a ring (re)sized while tracing is off.
constexpr std::uint64_t kFlightView = 4096;
/// Ring size while tracing: 64Ki entries x 40 bytes = 2.5 MiB per thread. On
/// overflow the oldest entries are overwritten and counted as dropped;
/// set_trace_capacity (--trace-cap) rebounds the retention for long runs.
constexpr std::uint64_t kDefaultTraceCapacity = 1u << 16;
constexpr int kMaxRings = 256;  ///< further concurrent threads record nothing
constexpr int kMaxDumpRanks = 64;
constexpr std::size_t kDirCapacity = 512;

struct Entry {
  const char* name = nullptr;  ///< interned phase name or string literal
  std::int64_t a = 0;          ///< span/flow id, or the note's first payload
  std::int64_t b = 0;          ///< span duration, or the note's second payload
  std::uint64_t t_ns = 0;      ///< span start, or when the flow/note happened
  /// Rank the recording thread had declared. Per entry, not per ring, so a
  /// recycled ring still attributes its previous owner's events correctly.
  std::int32_t rank = -1;
  TraceEventKind kind = TraceEventKind::kSpan;
  bool traced = false;  ///< tracing was on when the entry was recorded
};
static_assert(sizeof(Entry) == 40, "the capacity docs assume 40 B entries");

/// Ring state bits. kOwned: a live thread records into the ring; cleared at
/// thread exit, so the next new thread adopts the ring as it stands. kHeld: a
/// drain or the owner's storage swap holds the ring, so no reader sees
/// storage mid-swap and no swap frees storage under a reader.
constexpr std::uint32_t kOwned = 1;
constexpr std::uint32_t kHeld = 2;

/// Single-producer ring: only the owning thread writes entries, publishing
/// each with a release store of count. Never freed, so an exited thread's
/// events stay readable until a later owner overwrites them.
struct Ring {
  std::vector<Entry> entries;  ///< swapped only by the owner, under kHeld
  std::atomic<std::uint64_t> count{0};  ///< pushed since (re)size or reset
  /// Generation the storage was sized for; born stale, so the owner sizes it.
  std::atomic<std::uint64_t> generation{~std::uint64_t{0}};
  std::atomic<std::uint32_t> state{0};
  int slot = 0;
};

// Fixed array of atomic slots, so the dump can walk it without a lock.
std::atomic<Ring*> g_rings[kMaxRings] = {};
std::atomic<int> g_nrings{0};

/// Traced-ring bound paired with a generation counter. A resize only bumps
/// the generation; each producer swaps its own storage lazily (next record),
/// so set_trace_capacity never touches storage another thread is writing.
std::atomic<std::uint64_t> g_trace_capacity{kDefaultTraceCapacity};
std::atomic<std::uint64_t> g_generation{0};

// Dump directory in a fixed buffer so the signal path never allocates.
// g_dir_len is the arm switch: 0 = disarmed; release-published after memcpy.
char g_dir[kDirCapacity] = {};
std::atomic<int> g_dir_len{0};

thread_local Ring* tls_ring = nullptr;
thread_local bool tls_ringless = false;  ///< no free slot, or thread exiting
thread_local int tls_rank = -1;

int ring_count() {
  return std::min(g_nrings.load(std::memory_order_acquire), kMaxRings);
}

/// Sets `bit` in the ring's state if it is clear; false when already set.
bool try_claim(Ring& ring, std::uint32_t bit) {
  std::uint32_t s = ring.state.load(std::memory_order_relaxed);
  while ((s & bit) == 0) {
    if (ring.state.compare_exchange_weak(s, s | bit, std::memory_order_acquire,
                                         std::memory_order_relaxed)) {
      return true;
    }
  }
  return false;
}

void unclaim(Ring& ring, std::uint32_t bit) {
  ring.state.fetch_and(~bit, std::memory_order_release);
}

/// Calls f(ring, count) on every registered ring while holding it. Drains
/// wait for a busy ring (an owner's swap or another drain is brief); the dump
/// passes wait = false and skips it, so the signal path never waits.
template <class F>
void visit_rings(bool wait, F&& f) {
  for (int i = 0; i < ring_count(); ++i) {
    Ring* ring = g_rings[i].load(std::memory_order_acquire);
    if (ring == nullptr) continue;
    bool held = try_claim(*ring, kHeld);
    for (; !held && wait; held = try_claim(*ring, kHeld)) {
      std::this_thread::yield();
    }
    if (!held) continue;
    f(*ring, ring->count.load(std::memory_order_acquire));
    unclaim(*ring, kHeld);
  }
}

/// Releases the thread's ring at thread exit, for the next new thread.
struct RingLease {
  ~RingLease() {
    tls_ringless = true;  // spans ending later in TLS teardown record nothing
    if (tls_ring != nullptr) unclaim(*tls_ring, kOwned);
    tls_ring = nullptr;
  }
};

/// First record on a thread: adopt a ring an exited thread released, else
/// register a new one. nullptr (remembered) once kMaxRings threads hold one.
Ring* adopt_ring() {
  if (tls_ringless) return nullptr;
  Ring* ring = nullptr;
  for (int i = 0; i < ring_count() && ring == nullptr; ++i) {
    Ring* candidate = g_rings[i].load(std::memory_order_acquire);
    if (candidate != nullptr && try_claim(*candidate, kOwned)) ring = candidate;
  }
  if (ring == nullptr) {
    const int slot = g_nrings.fetch_add(1, std::memory_order_relaxed);
    if (slot >= kMaxRings) {
      tls_ringless = true;
      return nullptr;
    }
    ring = new Ring();  // never freed: see Ring
    ring->slot = slot;
    ring->state.store(kOwned, std::memory_order_relaxed);
    g_rings[slot].store(ring, std::memory_order_release);
  }
  static thread_local RingLease lease;  // first use registers the release
  (void)lease;
  tls_ring = ring;
  return ring;
}

/// The owner's lazy resize to generation `gen`: the trace capacity while
/// tracing, the flight view's size otherwise. Postponed (false) while a drain
/// holds the ring; the owner keeps recording into its old storage meanwhile.
bool resize(Ring& ring, std::uint64_t gen) {
  if (!try_claim(ring, kHeld)) return false;
  const std::uint64_t cap =
      g_tracing.load(std::memory_order_relaxed)
          ? g_trace_capacity.load(std::memory_order_relaxed)
          : kFlightView;
  if (ring.entries.size() != cap) {
    ring.entries = std::vector<Entry>(static_cast<std::size_t>(cap));
  }
  ring.count.store(0, std::memory_order_relaxed);
  ring.generation.store(gen, std::memory_order_relaxed);
  unclaim(ring, kHeld);
  return true;
}

bool in_flight_view(const Entry& e) {
  return e.name != nullptr &&  // null: unwritten, or torn by a racing producer
         (e.kind == TraceEventKind::kSpan || e.kind == TraceEventKind::kNote);
}

/// Calls f(entry) on the flight view of a ring holding `n` entries: its
/// newest kFlightView spans and notes, oldest first (flows are trace-only).
template <class F>
void visit_flight_view(const Ring& ring, std::uint64_t n, F&& f) {
  const auto cap = static_cast<std::uint64_t>(ring.entries.size());
  const std::uint64_t oldest = n - std::min(n, cap);
  std::uint64_t i = n;
  for (std::uint64_t kept = 0; i > oldest && kept < kFlightView; --i) {
    if (in_flight_view(ring.entries[(i - 1) % cap])) ++kept;
  }
  for (; i < n; ++i) {
    if (in_flight_view(ring.entries[i % cap])) f(ring.entries[i % cap]);
  }
}

int dump_rank(const Entry& e) { return std::max(e.rank, 0); }

/// Buffered write(2) formatter — every method is async-signal-safe.
struct RawWriter {
  explicit RawWriter(int fd_) : fd(fd_) {}
  void flush() {
    std::size_t off = 0;
    while (off < len) {
      const ssize_t w = ::write(fd, buf + off, len - off);
      if (w <= 0) break;
      off += static_cast<std::size_t>(w);
    }
    len = 0;
  }
  void ch(char c) {
    if (len == sizeof(buf)) flush();
    buf[len++] = c;
  }
  void raw(const char* s) {
    for (; *s != '\0'; ++s) ch(*s);
  }
  void str(const char* s) {
    ch('"');
    for (; *s != '\0'; ++s) {
      const char c = *s;
      if (c == '"' || c == '\\') {
        ch('\\');
        ch(c);
      } else if (static_cast<unsigned char>(c) < 0x20) {
        ch(' ');  // control chars never appear in our tags; keep JSON valid
      } else {
        ch(c);
      }
    }
    ch('"');
  }
  void num_u(std::uint64_t v) {
    char tmp[24];
    int i = 0;
    if (v == 0) tmp[i++] = '0';
    while (v != 0) {
      tmp[i++] = static_cast<char>('0' + v % 10);
      v /= 10;
    }
    while (i > 0) ch(tmp[--i]);
  }
  void num_i(std::int64_t v) {
    if (v < 0) {
      ch('-');
      num_u(static_cast<std::uint64_t>(-(v + 1)) + 1);
    } else {
      num_u(static_cast<std::uint64_t>(v));
    }
  }
  int fd = -1;
  char buf[4096];
  std::size_t len = 0;
};

/// Writes the ring's flight-view entries recorded under `rank` as one
/// {"tid","events"} thread object; nothing when it holds none.
void write_ring_events(RawWriter& w, const Ring& ring, std::uint64_t n,
                       int rank, bool* first_thread) {
  bool first = true;
  visit_flight_view(ring, n, [&](const Entry& e) {
    if (dump_rank(e) != rank) return;
    if (first) {
      if (!*first_thread) w.ch(',');
      *first_thread = false;
      w.raw("{\"tid\":");
      w.num_i(ring.slot);
      w.raw(",\"events\":[");
    } else {
      w.ch(',');
    }
    first = false;
    w.raw("{\"tag\":");
    w.str(e.name);
    w.raw(",\"t_ns\":");
    w.num_u(e.t_ns);
    if (e.kind == TraceEventKind::kSpan) {
      w.raw(",\"kind\":\"span\",\"id\":");
      w.num_i(e.a);
      w.raw(",\"dur_ns\":");
    } else {
      w.raw(",\"kind\":\"note\",\"a\":");
      w.num_i(e.a);
      w.raw(",\"b\":");
    }
    w.num_i(e.b);
    w.ch('}');
  });
  if (!first) w.raw("]}");
}

int dump_rank_file(const char* reason, int rank, const char* dir,
                   int dir_len) {
  char path[kDirCapacity + 32];
  std::size_t p = 0;
  std::memcpy(path, dir, static_cast<std::size_t>(dir_len));
  p = static_cast<std::size_t>(dir_len);
  path[p++] = '/';
  const char* stem = "flight_";
  for (; *stem != '\0'; ++stem) path[p++] = *stem;
  char digits[12];
  int d = 0;
  int v = rank;
  if (v == 0) digits[d++] = '0';
  while (v > 0) {
    digits[d++] = static_cast<char>('0' + v % 10);
    v /= 10;
  }
  while (d > 0) path[p++] = digits[--d];
  const char* ext = ".json";
  for (; *ext != '\0'; ++ext) path[p++] = *ext;
  path[p] = '\0';

  const int fd = ::open(path, O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) return 0;
  RawWriter w(fd);
  w.raw("{\"reason\":");
  w.str(reason);
  w.raw(",\"rank\":");
  w.num_i(rank);
  w.raw(",\"threads\":[");
  bool first_thread = true;
  visit_rings(false, [&](const Ring& ring, std::uint64_t n) {
    write_ring_events(w, ring, n, rank, &first_thread);
  });
  w.raw("]}\n");
  w.flush();
  ::close(fd);
  return 1;
}

struct sigaction g_prev_actions[5];
const int kFatalSignals[5] = {SIGSEGV, SIGBUS, SIGILL, SIGFPE, SIGABRT};

// apamm-check: signal-path
void on_fatal_signal(int sig) {
  flight_dump("fatal_signal");
  for (int i = 0; i < 5; ++i) {
    if (kFatalSignals[i] == sig) {
      ::sigaction(sig, &g_prev_actions[i], nullptr);
      break;
    }
  }
  ::raise(sig);
}

void on_apa_error(ErrorCode code, const char* /*what*/) {
  flight_note("obs.apa_error", static_cast<std::int64_t>(code));
  flight_dump("apa_error");
}


}  // namespace

void record_event(const char* name, std::int64_t a, std::int64_t b,
                  std::uint64_t t_ns, TraceEventKind kind) {
  Ring* ring = tls_ring;
  if (ring == nullptr && (ring = adopt_ring()) == nullptr) return;
  const std::uint64_t gen = g_generation.load(std::memory_order_acquire);
  if (ring->generation.load(std::memory_order_relaxed) != gen &&
      !resize(*ring, gen) && ring->entries.empty()) {
    return;  // a fresh ring whose first sizing a drain postponed
  }
  // Memory-order audit (single-producer ring): the relaxed self-load is safe
  // because only the owner stores count outside a reset; the release store
  // publishes the filled entry to drains, whose acquire load of count
  // synchronizes-with it, so every entry inside the window a drain computes
  // from its loaded count is fully written. Once the ring has wrapped, the
  // producer overwrites entries inside a concurrent drain's window — that is
  // why drains require quiescent producers (the crash dump tolerates torn
  // entries) rather than adding per-entry sequence locks.
  const std::uint64_t n = ring->count.load(std::memory_order_relaxed);
  ring->entries[n % ring->entries.size()] = {
      name, a, b, t_ns, tls_rank, kind,
      g_tracing.load(std::memory_order_relaxed)};
  ring->count.store(n + 1, std::memory_order_release);
}

}  // namespace detail

void set_tracing(bool on) {
  // Turning tracing on regrows every ring to the trace capacity; turning it
  // off keeps the rings, so what they traced stays exportable.
  if (!detail::g_tracing.exchange(on, std::memory_order_relaxed) && on) {
    detail::g_generation.fetch_add(1, std::memory_order_release);
  }
}

bool tracing() { return detail::g_tracing.load(std::memory_order_relaxed); }

void set_trace_capacity(std::uint64_t events_per_thread) {
  detail::g_trace_capacity.store(std::max<std::uint64_t>(events_per_thread, 1),
                                 std::memory_order_relaxed);
  // Publishing the new generation is the whole resize: producers observe the
  // bump on their next record and swap their own storage.
  detail::g_generation.fetch_add(1, std::memory_order_release);
}

std::uint64_t trace_capacity() {
  return detail::g_trace_capacity.load(std::memory_order_relaxed);
}

void set_thread_rank(int rank) { detail::tls_rank = rank; }

int thread_rank() { return detail::tls_rank; }

std::vector<TraceEventView> trace_events() {
  const std::uint64_t gen =
      detail::g_generation.load(std::memory_order_acquire);
  std::vector<TraceEventView> out;
  detail::visit_rings(true, [&](const detail::Ring& ring, std::uint64_t n) {
    // A ring its owner has not yet migrated to the current generation holds
    // pre-resize events, which set_trace_capacity documents as discarded.
    if (ring.generation.load(std::memory_order_relaxed) != gen) return;
    const auto cap = static_cast<std::uint64_t>(ring.entries.size());
    for (std::uint64_t i = n - std::min(n, cap); i < n; ++i) {
      const detail::Entry& e = ring.entries[i % cap];
      if (!e.traced || e.kind == TraceEventKind::kNote) continue;
      const bool span = e.kind == TraceEventKind::kSpan;
      out.push_back({e.name, e.a, ring.slot, e.rank, e.kind, e.t_ns,
                     span ? static_cast<std::uint64_t>(e.b) : 0});
    }
  });
  std::sort(out.begin(), out.end(), [](const auto& a, const auto& b) {
    return std::tie(a.tid, a.start_ns) < std::tie(b.tid, b.start_ns);
  });
  return out;
}

std::uint64_t trace_dropped() {
  const std::uint64_t gen =
      detail::g_generation.load(std::memory_order_acquire);
  std::uint64_t dropped = 0;
  detail::visit_rings(true, [&](const detail::Ring& ring, std::uint64_t n) {
    const auto cap = static_cast<std::uint64_t>(ring.entries.size());
    if (ring.generation.load(std::memory_order_relaxed) == gen && n > cap) {
      dropped += n - cap;
    }
  });
  return dropped;
}

void reset_trace() {
  detail::visit_rings(true, [](detail::Ring& ring, std::uint64_t) {
    ring.count.store(0, std::memory_order_relaxed);
  });
}

void reset_flight() { reset_trace(); }

void set_flight_dir(const std::string& dir) {
  if (dir.empty() || dir.size() >= detail::kDirCapacity) {
    detail::g_dir_len.store(0, std::memory_order_release);
    return;
  }
  detail::g_dir_len.store(0, std::memory_order_release);
  std::memcpy(detail::g_dir, dir.data(), dir.size());
  detail::g_dir_len.store(static_cast<int>(dir.size()),
                          std::memory_order_release);
}

std::string flight_dir() {
  const int len = detail::g_dir_len.load(std::memory_order_acquire);
  return std::string(detail::g_dir, static_cast<std::size_t>(len));
}

void flight_note(const char* tag, std::int64_t a, std::int64_t b) {
  detail::record_event(tag, a, b, detail::now_ns(), TraceEventKind::kNote);
}

int flight_dump(const char* reason) {
  const int dir_len = detail::g_dir_len.load(std::memory_order_acquire);
  if (dir_len == 0) return 0;
  // Coalesce concurrent dumps (e.g. every worker hitting the same rewind):
  // the first caller writes every rank's file; losers return immediately.
  static std::atomic_flag dumping = ATOMIC_FLAG_INIT;
  if (dumping.test_and_set(std::memory_order_acquire)) return 0;
  bool rank_present[detail::kMaxDumpRanks] = {};
  detail::visit_rings(false, [&](const detail::Ring& ring, std::uint64_t n) {
    detail::visit_flight_view(ring, n, [&](const detail::Entry& e) {
      const int rank = detail::dump_rank(e);
      if (rank < detail::kMaxDumpRanks) rank_present[rank] = true;
    });
  });
  int files = 0;
  for (int rank = 0; rank < detail::kMaxDumpRanks; ++rank) {
    if (!rank_present[rank]) continue;
    files += detail::dump_rank_file(reason, rank, detail::g_dir, dir_len);
  }
  dumping.clear(std::memory_order_release);
  return files;
}

void install_flight_triggers() {
  static std::atomic<bool> installed{false};
  if (installed.exchange(true, std::memory_order_acq_rel)) return;
  struct sigaction action {};
  action.sa_handler = detail::on_fatal_signal;
  sigemptyset(&action.sa_mask);
  action.sa_flags = 0;
  for (int i = 0; i < 5; ++i) {
    ::sigaction(detail::kFatalSignals[i], &action, &detail::g_prev_actions[i]);
  }
  apa_error_hook().store(&detail::on_apa_error, std::memory_order_release);
}

std::vector<FlightEventView> flight_events() {
  std::vector<FlightEventView> out;
  detail::visit_rings(true, [&](const detail::Ring& ring, std::uint64_t n) {
    detail::visit_flight_view(ring, n, [&](const detail::Entry& e) {
      out.push_back({e.name, e.a, e.b, ring.slot, e.rank, e.t_ns,
                     e.kind == TraceEventKind::kSpan});
    });
  });
  return out;
}

#else  // !APAMM_OBS_ENABLED

void set_tracing(bool) {}
bool tracing() { return false; }
void set_trace_capacity(std::uint64_t) {}
std::uint64_t trace_capacity() { return 0; }
void set_thread_rank(int) {}
int thread_rank() { return -1; }
std::vector<TraceEventView> trace_events() { return {}; }
std::uint64_t trace_dropped() { return 0; }
void reset_trace() {}
void reset_flight() {}
void set_flight_dir(const std::string&) {}
std::string flight_dir() { return {}; }
void flight_note(const char*, std::int64_t, std::int64_t) {}
int flight_dump(const char*) { return 0; }
void install_flight_triggers() {}
std::vector<FlightEventView> flight_events() { return {}; }

#endif  // APAMM_OBS_ENABLED

}  // namespace apa::obs
