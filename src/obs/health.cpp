#include "obs/health.h"

#include <algorithm>
#include <map>
#include <tuple>

#include "obs/metrics.h"
#include "obs/telemetry.h"
#include "support/thread_annotations.h"

namespace apa::obs {

struct HealthMonitor::Impl {
  using Key = std::tuple<std::string, long long, long long, long long>;

  explicit Impl(const HealthOptions& opts) : options(opts) {}

  const HealthOptions options;  // fixed at construction: read without mu
  mutable Mutex mu;
  TelemetrySink* sink APAMM_GUARDED_BY(mu) = nullptr;
  std::map<Key, ShapeHealth> streams APAMM_GUARDED_BY(mu);
  std::uint64_t flagged APAMM_GUARDED_BY(mu) = 0;

  // Lock order: mu is held across emit(), which writes to the sink — the
  // sink's own mu_ nests strictly inside this monitor's mu.
  void emit(const ShapeHealth& s, const char* event) APAMM_REQUIRES(mu) {
    if (sink == nullptr) return;
    JsonRecord record;
    record.set("type", "health")
        .set("event", event)
        .set("algo", s.algo)
        .set("m", s.m)
        .set("k", s.k)
        .set("n", s.n)
        .set("samples", s.samples)
        .set("ratio", s.last_ratio)
        .set("ewma", s.ewma_ratio)
        .set("slope", s.slope)
        .set("peak", s.peak_ratio)
        .set("bound", s.bound)
        .set("drifting", s.drifting);
    sink->write(record);
  }
};

HealthMonitor::HealthMonitor(HealthOptions options) : impl_(new Impl(options)) {}

HealthMonitor::~HealthMonitor() { delete impl_; }

void HealthMonitor::record(const char* algo, long long m, long long k,
                           long long n, double ratio, double bound) {
  if (!enabled()) return;
  APA_COUNTER_INC("health.samples");
  MutexLock lock(impl_->mu);
  const HealthOptions& opt = impl_->options;
  ShapeHealth& s = impl_->streams[{std::string(algo), m, k, n}];
  if (s.samples == 0) {
    s.algo = algo;
    s.m = m;
    s.k = k;
    s.n = n;
    s.ewma_ratio = ratio;
  } else {
    const double prev = s.ewma_ratio;
    s.ewma_ratio = opt.decay * s.ewma_ratio + (1.0 - opt.decay) * ratio;
    s.slope = opt.decay * s.slope + (1.0 - opt.decay) * (s.ewma_ratio - prev);
  }
  ++s.samples;
  s.last_ratio = ratio;
  s.peak_ratio = std::max(s.peak_ratio, ratio);
  s.bound = bound;

  const bool flag =
      s.samples >= static_cast<std::uint64_t>(opt.min_samples) &&
      (s.ewma_ratio >= opt.warn_ratio ||
       (s.slope >= opt.slope_warn && s.ewma_ratio >= opt.slope_floor));
  if (flag != s.drifting) {
    s.drifting = flag;
    if (flag) {
      if (s.flagged_at == 0) s.flagged_at = s.samples;
      ++impl_->flagged;
      APA_COUNTER_INC("health.drift_flags");
    } else {
      --impl_->flagged;
    }
    impl_->emit(s, flag ? "drift" : "clear");
  } else if (opt.emit_every > 0 &&
             s.samples % static_cast<std::uint64_t>(opt.emit_every) == 0) {
    impl_->emit(s, "sample");
  }
}

bool HealthMonitor::drifting(long long m, long long k, long long n) const {
  MutexLock lock(impl_->mu);
  if (impl_->flagged == 0) return false;
  for (const auto& [key, s] : impl_->streams) {
    if (s.m == m && s.k == k && s.n == n && s.drifting) return true;
  }
  return false;
}

std::uint64_t HealthMonitor::drifting_count() const {
  MutexLock lock(impl_->mu);
  return impl_->flagged;
}

std::vector<ShapeHealth> HealthMonitor::snapshot() const {
  MutexLock lock(impl_->mu);
  std::vector<ShapeHealth> out;
  out.reserve(impl_->streams.size());
  for (const auto& [key, s] : impl_->streams) out.push_back(s);
  return out;  // map key order == (algo, m, k, n)
}

void HealthMonitor::emit_all(const char* event) {
  MutexLock lock(impl_->mu);
  for (const auto& [key, s] : impl_->streams) impl_->emit(s, event);
}

void HealthMonitor::attach(TelemetrySink* sink) {
  MutexLock lock(impl_->mu);
  impl_->sink = sink;
}

void HealthMonitor::reset() {
  MutexLock lock(impl_->mu);
  impl_->streams.clear();
  impl_->flagged = 0;
}

HealthMonitor& health() {
  static HealthMonitor* monitor = new HealthMonitor();  // leaked: process-global
  return *monitor;
}

}  // namespace apa::obs
