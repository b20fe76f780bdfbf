#include "obs/metrics.h"

#include <bit>
#include <map>
#include <memory>

#include "support/thread_annotations.h"

namespace apa::obs {

namespace {

// Memory-order audit (interning + accumulators): intern() publishes new
// entries under the mutex, and the call-site function-local static that
// caches the returned pointer is itself a release/acquire publication (magic
// statics), so every thread that uses a cached pointer observed the fully
// constructed object. Entries are never erased (the registry leaks), which
// keeps those pointers valid for the process lifetime. The relaxed
// fetch_adds/loads on the accumulators are deliberate: counts are monotone
// and carry no ordering relationship to any other data, and snapshots are
// advisory — they may trail in-flight adds by design.
template <class T>
struct Registry {
  Mutex mu;
  std::map<std::string, std::unique_ptr<T>, std::less<>> entries
      APAMM_GUARDED_BY(mu);

  T* intern(const char* name) APAMM_EXCLUDES(mu) {
    MutexLock lock(mu);
    auto it = entries.find(std::string_view(name));
    if (it == entries.end()) {
      it = entries
               .emplace(std::string(name),
                        std::unique_ptr<T>(new T(std::string(name))))
               .first;
    }
    return it->second.get();
  }
};

Registry<Counter>& counter_registry() {
  static Registry<Counter>* r = new Registry<Counter>();  // leaked: outlives threads
  return *r;
}

Registry<Histogram>& histogram_registry() {
  static Registry<Histogram>* r = new Registry<Histogram>();
  return *r;
}

}  // namespace

Counter* Counter::intern(const char* name) { return counter_registry().intern(name); }

Histogram* Histogram::intern(const char* name) {
  return histogram_registry().intern(name);
}

void Histogram::record(std::uint64_t v) {
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(v, std::memory_order_relaxed);
  buckets_[std::bit_width(v)].fetch_add(1, std::memory_order_relaxed);
}

std::vector<CounterSample> counter_samples() {
  Registry<Counter>& reg = counter_registry();
  MutexLock lock(reg.mu);
  std::vector<CounterSample> out;
  out.reserve(reg.entries.size());
  for (const auto& [name, counter] : reg.entries) {
    out.push_back({name, counter->value()});
  }
  return out;
}

std::uint64_t counter_value(std::string_view name) {
  Registry<Counter>& reg = counter_registry();
  MutexLock lock(reg.mu);
  const auto it = reg.entries.find(name);
  return it == reg.entries.end() ? 0 : it->second->value();
}

std::vector<HistogramSample> histogram_samples() {
  Registry<Histogram>& reg = histogram_registry();
  MutexLock lock(reg.mu);
  std::vector<HistogramSample> out;
  out.reserve(reg.entries.size());
  for (const auto& [name, hist] : reg.entries) {
    HistogramSample s;
    s.name = name;
    s.count = hist->count_.load(std::memory_order_relaxed);
    s.sum = hist->sum_.load(std::memory_order_relaxed);
    s.buckets.resize(Histogram::kBuckets);
    for (int i = 0; i < Histogram::kBuckets; ++i) {
      s.buckets[static_cast<std::size_t>(i)] =
          hist->buckets_[i].load(std::memory_order_relaxed);
    }
    out.push_back(std::move(s));
  }
  return out;
}

void reset_counters() {
  {
    Registry<Counter>& reg = counter_registry();
    MutexLock lock(reg.mu);
    for (const auto& [name, counter] : reg.entries) {
      counter->value_.store(0, std::memory_order_relaxed);
    }
  }
  Registry<Histogram>& reg = histogram_registry();
  MutexLock lock(reg.mu);
  for (const auto& [name, hist] : reg.entries) {
    hist->count_.store(0, std::memory_order_relaxed);
    hist->sum_.store(0, std::memory_order_relaxed);
    for (auto& b : hist->buckets_) b.store(0, std::memory_order_relaxed);
  }
}

}  // namespace apa::obs
