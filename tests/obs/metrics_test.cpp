// Counter/histogram registry: interning, concurrent increments from OpenMP
// threads, reset semantics, the runtime off-switch, and snapshot ordering.

#include <gtest/gtest.h>
#include <omp.h>

#include <algorithm>
#include <cstdint>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace {

using namespace apa;

class MetricsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::set_enabled(true);
    obs::reset_counters();
  }
  void TearDown() override { obs::reset_counters(); }
};

TEST_F(MetricsTest, CounterAddAndSnapshot) {
  APA_COUNTER_INC("test.metrics.basic");
  APA_COUNTER_ADD("test.metrics.basic", 41);
  EXPECT_EQ(obs::counter_value("test.metrics.basic"), 42u);

  const auto samples = obs::counter_samples();
  const auto it = std::find_if(samples.begin(), samples.end(), [](const auto& s) {
    return s.name == "test.metrics.basic";
  });
  ASSERT_NE(it, samples.end());
  EXPECT_EQ(it->value, 42u);
  EXPECT_TRUE(std::is_sorted(samples.begin(), samples.end(),
                             [](const auto& a, const auto& b) {
                               return a.name < b.name;
                             }));
}

TEST_F(MetricsTest, UnknownCounterReadsZero) {
  EXPECT_EQ(obs::counter_value("test.metrics.never_interned"), 0u);
}

TEST_F(MetricsTest, ConcurrentIncrementsSurviveExactly) {
  constexpr int kThreads = 4;
  constexpr int kPerThread = 20000;
  omp_set_dynamic(0);
#pragma omp parallel num_threads(kThreads)
  {
    for (int i = 0; i < kPerThread; ++i) {
      APA_COUNTER_INC("test.metrics.concurrent");
    }
  }
  EXPECT_EQ(obs::counter_value("test.metrics.concurrent"),
            static_cast<std::uint64_t>(kThreads) * kPerThread);
}

TEST_F(MetricsTest, ResetZeroesValuesButKeepsNames) {
  APA_COUNTER_ADD("test.metrics.resettable", 7);
  ASSERT_EQ(obs::counter_value("test.metrics.resettable"), 7u);
  obs::reset_counters();
  EXPECT_EQ(obs::counter_value("test.metrics.resettable"), 0u);
  // The name stays interned: it must still appear in the snapshot at zero.
  const auto samples = obs::counter_samples();
  const bool present = std::any_of(samples.begin(), samples.end(), [](const auto& s) {
    return s.name == "test.metrics.resettable";
  });
  EXPECT_TRUE(present);
}

TEST_F(MetricsTest, DisabledCountersDoNotAdvance) {
  obs::set_enabled(false);
  APA_COUNTER_INC("test.metrics.gated");
  obs::set_enabled(true);
  EXPECT_EQ(obs::counter_value("test.metrics.gated"), 0u);
}

TEST_F(MetricsTest, HistogramBucketsByBitWidth) {
  APA_HISTOGRAM_RECORD("test.metrics.hist", 0);    // bucket 0
  APA_HISTOGRAM_RECORD("test.metrics.hist", 1);    // bucket 1
  APA_HISTOGRAM_RECORD("test.metrics.hist", 5);    // bucket 3: [4, 7]
  APA_HISTOGRAM_RECORD("test.metrics.hist", 255);  // bucket 8: [128, 255]
  const auto hists = obs::histogram_samples();
  const auto it = std::find_if(hists.begin(), hists.end(), [](const auto& h) {
    return h.name == "test.metrics.hist";
  });
  ASSERT_NE(it, hists.end());
  EXPECT_EQ(it->count, 4u);
  EXPECT_EQ(it->sum, 261u);
  ASSERT_GE(it->buckets.size(), 9u);
  EXPECT_EQ(it->buckets[0], 1u);
  EXPECT_EQ(it->buckets[1], 1u);
  EXPECT_EQ(it->buckets[3], 1u);
  EXPECT_EQ(it->buckets[8], 1u);
}

TEST_F(MetricsTest, ConcurrentHistogramRecordsAreLossless) {
  constexpr int kThreads = 4;
  constexpr int kPerThread = 5000;
  omp_set_dynamic(0);
#pragma omp parallel num_threads(kThreads)
  {
    for (int i = 0; i < kPerThread; ++i) {
      APA_HISTOGRAM_RECORD("test.metrics.hist_mt", 3);
    }
  }
  const auto hists = obs::histogram_samples();
  const auto it = std::find_if(hists.begin(), hists.end(), [](const auto& h) {
    return h.name == "test.metrics.hist_mt";
  });
  ASSERT_NE(it, hists.end());
  const auto expected = static_cast<std::uint64_t>(kThreads) * kPerThread;
  EXPECT_EQ(it->count, expected);
  EXPECT_EQ(it->sum, expected * 3);
  ASSERT_GE(it->buckets.size(), 3u);
  EXPECT_EQ(it->buckets[2], expected);  // 3 has bit width 2
}

}  // namespace
