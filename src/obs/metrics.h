#pragma once
// Named atomic counters and log2-bucketed histograms with a global registry.
//
// Call sites use APA_COUNTER_INC / APA_COUNTER_ADD / APA_HISTOGRAM_RECORD: the
// registry lookup happens once per call site (function-local static), so the
// hot path is one relaxed atomic add gated on obs::enabled(). Snapshots merge
// by name across call sites.

#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "obs/trace.h"  // enabled()

namespace apa::obs {

struct CounterSample {
  std::string name;
  std::uint64_t value = 0;
};

struct HistogramSample {
  std::string name;
  std::uint64_t count = 0;
  std::uint64_t sum = 0;
  /// buckets[i] counts values whose bit width is i (bucket 0 holds zeros);
  /// i.e. value v lands in bucket bit_width(v), covering [2^(i-1), 2^i - 1].
  std::vector<std::uint64_t> buckets;
};

/// All interned counters, sorted by name (zero-valued ones included).
[[nodiscard]] std::vector<CounterSample> counter_samples();
/// Value of one counter by name; 0 when it has never been interned.
[[nodiscard]] std::uint64_t counter_value(std::string_view name);
[[nodiscard]] std::vector<HistogramSample> histogram_samples();
/// Zeroes every counter and histogram (names stay interned).
void reset_counters();

class Counter {
 public:
  static Counter* intern(const char* name);
  void add(std::uint64_t n) { value_.fetch_add(n, std::memory_order_relaxed); }
  [[nodiscard]] std::uint64_t value() const {
    return value_.load(std::memory_order_relaxed);
  }

  /// Use intern() — public only for the registry's emplacement.
  explicit Counter(std::string name) : name_(std::move(name)) {}

 private:
  friend std::vector<CounterSample> counter_samples();
  friend std::uint64_t counter_value(std::string_view);
  friend void reset_counters();
  std::string name_;
  std::atomic<std::uint64_t> value_{0};
};

class Histogram {
 public:
  /// Bucket i = values of bit width i; 64-bit values need at most 65 buckets.
  static constexpr int kBuckets = 65;

  static Histogram* intern(const char* name);
  void record(std::uint64_t v);

  /// Use intern() — public only for the registry's emplacement.
  explicit Histogram(std::string name) : name_(std::move(name)) {}

 private:
  friend std::vector<HistogramSample> histogram_samples();
  friend void reset_counters();
  std::string name_;
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> sum_{0};
  std::atomic<std::uint64_t> buckets_[kBuckets] = {};
};

#define APA_COUNTER_ADD(name, n)                                              \
  do {                                                                        \
    static ::apa::obs::Counter* const apa_obs_ctr =                           \
        ::apa::obs::Counter::intern(name);                                    \
    if (::apa::obs::enabled())                                                \
      apa_obs_ctr->add(static_cast<std::uint64_t>(n));                        \
  } while (false)

#define APA_COUNTER_INC(name) APA_COUNTER_ADD(name, 1)

#define APA_HISTOGRAM_RECORD(name, value)                                     \
  do {                                                                        \
    static ::apa::obs::Histogram* const apa_obs_hist =                        \
        ::apa::obs::Histogram::intern(name);                                  \
    if (::apa::obs::enabled())                                                \
      apa_obs_hist->record(static_cast<std::uint64_t>(value));                \
  } while (false)

}  // namespace apa::obs
