// Live metrics exposition: Prometheus text rendering of the counter/
// histogram/phase registries, snapshot-spec parsing, and the MetricsPublisher
// (atomic tmp+rename publish, periodic republish, final publish on stop).

#include <gtest/gtest.h>
#include <unistd.h>

#include <chrono>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>

#include "obs/metrics.h"
#include "obs/snapshot.h"
#include "obs/trace.h"

namespace {

using namespace apa;
namespace fs = std::filesystem;

std::string slurp(const fs::path& path) {
  std::ifstream in(path);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

fs::path temp_file(const char* stem) {
  return fs::temp_directory_path() /
         (std::string(stem) + std::to_string(::getpid()) + ".prom");
}

TEST(SnapshotSpec, SplitsOnTheLastColon) {
  std::string path;
  double period = 0.0;
  ASSERT_TRUE(obs::parse_snapshot_spec("metrics.prom:2.5", &path, &period));
  EXPECT_EQ(path, "metrics.prom");
  EXPECT_DOUBLE_EQ(period, 2.5);

  // Paths may contain colons; only the last one can carry the period.
  ASSERT_TRUE(obs::parse_snapshot_spec("dir:v2/metrics.prom:3", &path, &period));
  EXPECT_EQ(path, "dir:v2/metrics.prom");
  EXPECT_DOUBLE_EQ(period, 3.0);
}

TEST(SnapshotSpec, MissingOrUnparsablePeriodDefaultsToOneSecond) {
  std::string path;
  double period = 0.0;
  ASSERT_TRUE(obs::parse_snapshot_spec("metrics.prom", &path, &period));
  EXPECT_EQ(path, "metrics.prom");
  EXPECT_DOUBLE_EQ(period, 1.0);

  // A non-numeric tail is part of the path, not a period.
  ASSERT_TRUE(obs::parse_snapshot_spec("metrics:prom", &path, &period));
  EXPECT_EQ(path, "metrics:prom");
  EXPECT_DOUBLE_EQ(period, 1.0);

  // Zero/negative periods are rejected the same way.
  ASSERT_TRUE(obs::parse_snapshot_spec("metrics.prom:0", &path, &period));
  EXPECT_EQ(path, "metrics.prom:0");
  EXPECT_DOUBLE_EQ(period, 1.0);
}

TEST(SnapshotSpec, EmptyPathFails) {
  std::string path;
  double period = 0.0;
  EXPECT_FALSE(obs::parse_snapshot_spec("", &path, &period));
}

TEST(PrometheusText, RendersCountersHistogramsAndPhases) {
  obs::set_enabled(true);
  obs::reset_counters();
  obs::reset_phases();
  APA_COUNTER_INC("test.prom_counter");
  APA_COUNTER_INC("test.prom_counter");
  APA_HISTOGRAM_RECORD("test.prom_hist", 5);
  {
    APA_TRACE_SCOPE("test.prom_phase");
  }
  const std::string text = obs::prometheus_text();
  EXPECT_NE(text.find("# HELP apamm_counter_total"), std::string::npos);
  EXPECT_NE(text.find("# TYPE apamm_counter_total counter"),
            std::string::npos);
  EXPECT_NE(text.find("apamm_counter_total{name=\"test.prom_counter\"} 2"),
            std::string::npos);
  EXPECT_NE(text.find("apamm_histogram_count{name=\"test.prom_hist\"} 1"),
            std::string::npos);
  EXPECT_NE(text.find("apamm_phase_count_total{phase=\"test.prom_phase\"} 1"),
            std::string::npos);
  EXPECT_NE(text.find("apamm_phase_seconds_total{phase=\"test.prom_phase\"}"),
            std::string::npos);
  // Every line is a comment or `metric[{labels}] value` — no blank torso.
  std::istringstream lines(text);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.empty()) continue;
    EXPECT_TRUE(line[0] == '#' || line.find(' ') != std::string::npos) << line;
  }
  obs::reset_counters();
  obs::reset_phases();
}

TEST(MetricsPublisher, PublishNowWritesTheFileAtomically) {
  const fs::path path = temp_file("apamm_snapshot_test_");
  fs::remove(path);
  {
    obs::MetricsPublisher publisher(path.string(), 3600.0);
    EXPECT_EQ(publisher.path(), path.string());
    EXPECT_TRUE(publisher.publish_now());
    ASSERT_TRUE(fs::exists(path));
    const std::string text = slurp(path);
    EXPECT_NE(text.find("# HELP apamm_counter_total"), std::string::npos);
    // The tmp staging file must not linger after a successful rename.
    EXPECT_FALSE(fs::exists(path.string() + ".tmp"));
  }
  // Destructor publishes once more; the file survives the publisher.
  EXPECT_TRUE(fs::exists(path));
  fs::remove(path);
}

TEST(MetricsPublisher, PublishNowFailsIntoAMissingDirectory) {
  obs::MetricsPublisher publisher(
      "/nonexistent_apamm_dir/metrics.prom", 3600.0);
  EXPECT_FALSE(publisher.publish_now());
}

TEST(MetricsPublisher, PeriodicThreadRepublishes) {
  obs::set_enabled(true);
  const fs::path path = temp_file("apamm_snapshot_periodic_");
  fs::remove(path);
  {
    obs::MetricsPublisher publisher(path.string(), 0.05);
    APA_COUNTER_INC("test.prom_periodic");
    // The background thread must pick the counter up without publish_now().
    bool seen = false;
    for (int i = 0; i < 100 && !seen; ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      seen = fs::exists(path) &&
             slurp(path).find("test.prom_periodic") != std::string::npos;
    }
    EXPECT_TRUE(seen);
  }
  fs::remove(path);
}

}  // namespace
