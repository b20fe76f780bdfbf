#include "obs/trace.h"

#include <map>
#include <memory>

#include "support/thread_annotations.h"

namespace apa::obs {

namespace detail {

std::atomic<bool> g_enabled{true};

namespace {

struct PhaseRegistry {
  Mutex mu;
  std::map<std::string, std::unique_ptr<Phase>, std::less<>> phases
      APAMM_GUARDED_BY(mu);
};

PhaseRegistry& phase_registry() {
  static PhaseRegistry* r = new PhaseRegistry();
  return *r;
}

/// Per-rank barrier clock marks for trace_merge alignment. Fixed-size atomic
/// table so publication from worker threads takes no lock.
constexpr int kMaxClockRanks = 64;
std::atomic<std::uint64_t> g_clock_marks[kMaxClockRanks] = {};

}  // namespace

}  // namespace detail

Phase* Phase::intern(const char* name) {
  detail::PhaseRegistry& reg = detail::phase_registry();
  MutexLock lock(reg.mu);
  auto it = reg.phases.find(std::string_view(name));
  if (it == reg.phases.end()) {
    it = reg.phases
             .emplace(std::string(name),
                      std::unique_ptr<Phase>(new Phase(std::string(name))))
             .first;
  }
  return it->second.get();
}

void Span::finish() {
  const std::uint64_t dur = detail::now_ns() - start_;
  phase_->record(dur);
  detail::record_event(phase_->name(), id_, static_cast<std::int64_t>(dur),
                       start_, TraceEventKind::kSpan);
}

void clock_mark(int rank) {
  if (rank < 0 || rank >= detail::kMaxClockRanks) return;
  detail::g_clock_marks[rank].store(detail::now_ns(),
                                    std::memory_order_relaxed);
}

std::vector<ClockMark> clock_marks() {
  std::vector<ClockMark> out;
  for (int r = 0; r < detail::kMaxClockRanks; ++r) {
    const std::uint64_t mark =
        detail::g_clock_marks[r].load(std::memory_order_relaxed);
    if (mark != 0) out.push_back({r, mark});
  }
  return out;
}

void reset_clock_marks() {
  for (auto& mark : detail::g_clock_marks) {
    mark.store(0, std::memory_order_relaxed);
  }
}

void set_enabled(bool on) { detail::g_enabled.store(on, std::memory_order_relaxed); }
bool enabled() { return detail::g_enabled.load(std::memory_order_relaxed); }

std::vector<PhaseTotal> phase_totals() {
  detail::PhaseRegistry& reg = detail::phase_registry();
  MutexLock lock(reg.mu);
  std::vector<PhaseTotal> out;
  out.reserve(reg.phases.size());
  for (const auto& [name, phase] : reg.phases) {
    out.push_back({name, phase->total_ns_.load(std::memory_order_relaxed),
                   phase->count_.load(std::memory_order_relaxed)});
  }
  return out;  // map iteration order is already sorted by name
}

std::vector<PhaseTotal> phase_delta(const std::vector<PhaseTotal>& after,
                                    const std::vector<PhaseTotal>& before) {
  std::map<std::string, PhaseTotal> base;
  for (const PhaseTotal& p : before) base[p.name] = p;
  std::vector<PhaseTotal> out;
  for (const PhaseTotal& p : after) {
    PhaseTotal d = p;
    const auto it = base.find(p.name);
    if (it != base.end()) {
      d.total_ns -= it->second.total_ns;
      d.count -= it->second.count;
    }
    if (d.count > 0 || d.total_ns > 0) out.push_back(std::move(d));
  }
  return out;
}

void reset_phases() {
  detail::PhaseRegistry& reg = detail::phase_registry();
  MutexLock lock(reg.mu);
  for (const auto& [name, phase] : reg.phases) {
    phase->total_ns_.store(0, std::memory_order_relaxed);
    phase->count_.store(0, std::memory_order_relaxed);
  }
}

}  // namespace apa::obs
