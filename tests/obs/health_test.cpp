// Numerical-health monitor: the EWMA/slope drift detector over guard residual
// ratios. The paper-level property under test: a λ-error stream that grows
// toward the σ/φ-derived bound is flagged while every individual ratio is
// still strictly below 1 — i.e. the monitor warns BEFORE the guard would trip
// (docs/OBSERVABILITY.md §Numerical health).

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "obs/health.h"
#include "obs/telemetry.h"
#include "obs/trace.h"

namespace {

using namespace apa;
namespace fs = std::filesystem;

constexpr double kBound = 3.45e-4;  // bini322's 1-step catalog bound, roughly

/// Feeds a geometric residual ramp (the signature of accumulating λ-error),
/// saturating at `cap` < 1, until the monitor flags. Returns the fed ratios so
/// the test can assert every one stayed below the trip point.
std::vector<double> feed_ramp(obs::HealthMonitor& mon, double start,
                              double growth, double cap) {
  std::vector<double> fed;
  double ratio = start;
  for (int i = 0; i < 200; ++i) {
    mon.record("bini322", 300, 784, 300, ratio, kBound);
    fed.push_back(ratio);
    if (mon.drifting(300, 784, 300)) break;
    ratio = std::min(ratio * growth, cap);
  }
  return fed;
}

TEST(HealthTest, FlagsInjectedDriftBeforeAnyRatioReachesTheTripPoint) {
  obs::HealthMonitor mon;
  const std::vector<double> fed = feed_ramp(mon, 0.05, 1.2, 0.95);
  EXPECT_TRUE(mon.drifting(300, 784, 300))
      << "ramp to " << fed.back() << " never flagged";
  // The guard trips at ratio > 1; every sample the monitor saw was below it.
  EXPECT_LT(*std::max_element(fed.begin(), fed.end()), 1.0);

  const auto streams = mon.snapshot();
  ASSERT_EQ(streams.size(), 1u);
  EXPECT_EQ(streams[0].algo, "bini322");
  EXPECT_TRUE(streams[0].drifting);
  EXPECT_GT(streams[0].flagged_at, 0u);
  EXPECT_LE(streams[0].flagged_at, streams[0].samples);
  EXPECT_LT(streams[0].ewma_ratio, 1.0);
  EXPECT_DOUBLE_EQ(streams[0].bound, kBound);
  EXPECT_EQ(mon.drifting_count(), 1u);
}

TEST(HealthTest, SlopeAloneFlagsASlowRampBelowTheLevelThreshold) {
  // Disable the level trigger: only sustained growth can flag. A linear creep
  // from 0.05 upward has a positive EWMA slope well before it nears 0.5.
  obs::HealthOptions options;
  options.warn_ratio = 10.0;  // unreachable
  options.slope_warn = 0.005;
  options.slope_floor = 0.06;
  obs::HealthMonitor mon(options);
  double ratio = 0.05;
  bool flagged = false;
  for (int i = 0; i < 100 && !flagged; ++i) {
    mon.record("apa422", 64, 64, 64, ratio, kBound);
    flagged = mon.drifting(64, 64, 64);
    ratio += 0.01;
  }
  EXPECT_TRUE(flagged);
  EXPECT_LT(ratio, 0.5) << "slope trigger should fire long before the level";
}

TEST(HealthTest, StableStreamNeverFlags) {
  obs::HealthMonitor mon;
  for (int i = 0; i < 100; ++i) {
    mon.record("bini322", 128, 128, 128, 0.3, kBound);
  }
  EXPECT_FALSE(mon.drifting(128, 128, 128));
  EXPECT_EQ(mon.drifting_count(), 0u);
  const auto streams = mon.snapshot();
  ASSERT_EQ(streams.size(), 1u);
  EXPECT_EQ(streams[0].flagged_at, 0u);
  EXPECT_NEAR(streams[0].ewma_ratio, 0.3, 1e-9);
}

TEST(HealthTest, RecoveryClearsTheFlagButKeepsTheHistory) {
  obs::HealthMonitor mon;
  feed_ramp(mon, 0.05, 1.2, 0.95);
  ASSERT_TRUE(mon.drifting(300, 784, 300));
  for (int i = 0; i < 60; ++i) {
    mon.record("bini322", 300, 784, 300, 0.01, kBound);
  }
  EXPECT_FALSE(mon.drifting(300, 784, 300));
  EXPECT_EQ(mon.drifting_count(), 0u);
  const auto streams = mon.snapshot();
  ASSERT_EQ(streams.size(), 1u);
  EXPECT_GT(streams[0].flagged_at, 0u);  // the episode stays on record
  EXPECT_GT(streams[0].peak_ratio, 0.5);
}

TEST(HealthTest, StreamsAreIsolatedByAlgoAndShape) {
  obs::HealthMonitor mon;
  feed_ramp(mon, 0.05, 1.2, 0.95);  // drifts ⟨bini322, 300, 784, 300⟩
  for (int i = 0; i < 20; ++i) {
    mon.record("bini322", 64, 64, 64, 0.1, kBound);
  }
  EXPECT_TRUE(mon.drifting(300, 784, 300));
  EXPECT_FALSE(mon.drifting(64, 64, 64));
  EXPECT_FALSE(mon.drifting(1, 2, 3));  // never-seen shape
  // Snapshot is sorted by (algo, m, k, n).
  const auto streams = mon.snapshot();
  ASSERT_EQ(streams.size(), 2u);
  EXPECT_EQ(streams[0].m, 64);
  EXPECT_EQ(streams[1].m, 300);
}

TEST(HealthTest, EmitsTelemetryOnFlipsAndOnTheSampleCadence) {
  const fs::path path =
      fs::temp_directory_path() /
      ("apamm_health_test_" + std::to_string(::getpid()) + ".jsonl");
  {
    obs::TelemetrySink sink(path.string());
    ASSERT_TRUE(sink.ok());
    obs::HealthOptions options;
    options.emit_every = 4;
    obs::HealthMonitor mon(options);
    mon.attach(&sink);
    feed_ramp(mon, 0.05, 1.2, 0.95);
    for (int i = 0; i < 60; ++i) {
      mon.record("bini322", 300, 784, 300, 0.01, kBound);
    }
    mon.attach(nullptr);
  }
  std::ifstream in(path);
  std::string line;
  int health_lines = 0, drift_lines = 0, clear_lines = 0, sample_lines = 0;
  while (std::getline(in, line)) {
    if (line.find("\"type\": \"health\"") == std::string::npos) continue;
    ++health_lines;
    EXPECT_NE(line.find("\"algo\": \"bini322\""), std::string::npos);
    EXPECT_NE(line.find("\"ewma\""), std::string::npos);
    EXPECT_NE(line.find("\"bound\""), std::string::npos);
    if (line.find("\"event\": \"drift\"") != std::string::npos) ++drift_lines;
    if (line.find("\"event\": \"clear\"") != std::string::npos) ++clear_lines;
    if (line.find("\"event\": \"sample\"") != std::string::npos)
      ++sample_lines;
  }
  EXPECT_EQ(drift_lines, 1);
  EXPECT_EQ(clear_lines, 1);
  EXPECT_GE(sample_lines, 10);  // 60 recovery samples / emit_every=4, minus flips
  EXPECT_EQ(health_lines, drift_lines + clear_lines + sample_lines);
  fs::remove(path);
}

TEST(HealthTest, ResetForgetsEverything) {
  obs::HealthMonitor mon;
  feed_ramp(mon, 0.05, 1.2, 0.95);
  ASSERT_TRUE(mon.drifting(300, 784, 300));
  mon.reset();
  EXPECT_FALSE(mon.drifting(300, 784, 300));
  EXPECT_EQ(mon.drifting_count(), 0u);
  EXPECT_TRUE(mon.snapshot().empty());
}

TEST(HealthTest, GlobalMonitorIsAStableSingleton) {
  EXPECT_EQ(&obs::health(), &obs::health());
}

}  // namespace
