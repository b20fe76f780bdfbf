// Telemetry JSONL sink and JsonRecord builder: round-trip through a real file,
// escaping, non-finite handling, counters_record shape.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/telemetry.h"
#include "obs/trace.h"

namespace {

using namespace apa;

std::vector<std::string> read_lines(const std::string& path) {
  std::ifstream in(path);
  std::vector<std::string> lines;
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  return lines;
}

/// Extracts the raw JSON value following `"key":` on one JSONL line, up to the
/// next comma-or-brace at the line's top nesting level.
std::string field(const std::string& line, const std::string& key) {
  const std::string needle = "\"" + key + "\":";
  const auto pos = line.find(needle);
  if (pos == std::string::npos) return "";
  std::size_t start = pos + needle.size();
  while (start < line.size() && line[start] == ' ') ++start;
  int depth = 0;
  bool in_string = false;
  std::size_t end = start;
  for (; end < line.size(); ++end) {
    const char c = line[end];
    if (in_string) {
      if (c == '\\') ++end;
      else if (c == '"') in_string = false;
      continue;
    }
    if (c == '"') in_string = true;
    else if (c == '{' || c == '[') ++depth;
    else if (c == '}' || c == ']') {
      if (depth == 0) break;
      --depth;
    } else if (c == ',' && depth == 0) {
      break;
    }
  }
  return line.substr(start, end - start);
}

class TelemetryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Per-test file: ctest runs each test as its own process, so a shared
    // name would let concurrent tests stomp each other's stream.
    path_ = (std::filesystem::temp_directory_path() /
             ("apamm_telemetry_test_" +
              std::string(::testing::UnitTest::GetInstance()
                              ->current_test_info()
                              ->name()) +
              ".jsonl"))
                .string();
    std::filesystem::remove(path_);
  }
  void TearDown() override { std::filesystem::remove(path_); }
  std::string path_;
};

TEST_F(TelemetryTest, RecordsRoundTripThroughJsonl) {
  {
    obs::TelemetrySink sink(path_);
    ASSERT_TRUE(sink.ok());
    EXPECT_EQ(sink.path(), path_);

    obs::JsonRecord first;
    first.set("type", "epoch").set("epoch", 1).set("loss", 0.25).set("guarded", true);
    sink.write(first);

    obs::JsonRecord second;
    second.set("type", "step")
        .set("step", 17L)
        .set("note", std::string_view("quote\" and \\ and\nnewline"))
        .set_raw("nested", "{\"a\":1,\"b\":2}");
    sink.write(second);
  }

  const auto lines = read_lines(path_);
  ASSERT_EQ(lines.size(), 2u);

  EXPECT_EQ(lines[0],
            "{\"type\": \"epoch\", \"epoch\": 1, \"loss\": 0.25, \"guarded\": true}");
  EXPECT_EQ(field(lines[1], "type"), "\"step\"");
  EXPECT_EQ(field(lines[1], "step"), "17");
  EXPECT_EQ(field(lines[1], "note"), "\"quote\\\" and \\\\ and\\nnewline\"");
  EXPECT_EQ(field(lines[1], "nested"), "{\"a\":1,\"b\":2}");
}

TEST_F(TelemetryTest, FlushPerLineSurvivesEarlyReads) {
  obs::TelemetrySink sink(path_);
  ASSERT_TRUE(sink.ok());
  obs::JsonRecord rec;
  rec.set("type", "step").set("step", 0);
  sink.write(rec);
  // The sink flushes per write, so the line is on disk before destruction.
  const auto lines = read_lines(path_);
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_EQ(field(lines[0], "step"), "0");
}

TEST_F(TelemetryTest, FailedSinkDropsWritesSilently) {
  obs::TelemetrySink sink("/nonexistent-dir/apamm/telemetry.jsonl");
  EXPECT_FALSE(sink.ok());
  obs::JsonRecord rec;
  rec.set("type", "step");
  sink.write(rec);  // must not crash
}

TEST_F(TelemetryTest, NonFiniteDoublesRenderAsNull) {
  obs::JsonRecord rec;
  rec.set("nan", std::nan(""))
      .set("inf", HUGE_VAL)
      .set("neg_inf", -HUGE_VAL)
      .set("finite", 1.5);
  EXPECT_EQ(rec.to_json(),
            "{\"nan\": null, \"inf\": null, \"neg_inf\": null, \"finite\": 1.5}");
}

TEST(JsonDouble, OnlyNonFiniteValuesRenderAsNull) {
  constexpr double kMax = std::numeric_limits<double>::max();
  for (const double v : {1.75e308, -1.75e308, kMax, -kMax}) {  // "null" parses as 0
    const std::string text = obs::json_double(v);
    EXPECT_NEAR(std::strtod(text.c_str(), nullptr) / v, 1.0, 1e-11) << text;
  }
  EXPECT_EQ(obs::json_double(std::nan("")), "null");
  EXPECT_EQ(obs::json_double(std::numeric_limits<double>::infinity()), "null");
  EXPECT_EQ(obs::json_double(-std::numeric_limits<double>::infinity()), "null");
}

TEST_F(TelemetryTest, SyncKeepsSinkWritable) {
  obs::TelemetrySink sink(path_);
  ASSERT_TRUE(sink.ok());
  obs::JsonRecord rec;
  rec.set("type", "step").set("step", 0);
  sink.write(rec);
  sink.sync();  // explicit durability point mid-run
  ASSERT_EQ(read_lines(path_).size(), 1u);
  rec.set("step", 1);
  sink.write(rec);
  sink.sync();
  EXPECT_EQ(read_lines(path_).size(), 2u);
}

TEST_F(TelemetryTest, CrashFlushTracksOpenSinks) {
  obs::install_telemetry_crash_flush();  // idempotent; first call wins
  const int before = obs::telemetry_crash_flush_registered();
  {
    obs::TelemetrySink sink(path_);
    ASSERT_TRUE(sink.ok());
    EXPECT_EQ(obs::telemetry_crash_flush_registered(), before + 1);
    obs::JsonRecord rec;
    rec.set("type", "step");
    sink.write(rec);
  }
  // Closed sinks leave the fd table so the signal handler never touches a
  // dead descriptor.
  EXPECT_EQ(obs::telemetry_crash_flush_registered(), before);
}

TEST_F(TelemetryTest, CrashFlushIgnoresFailedSinks) {
  obs::install_telemetry_crash_flush();
  const int before = obs::telemetry_crash_flush_registered();
  obs::TelemetrySink sink("/nonexistent-dir/apamm/telemetry.jsonl");
  EXPECT_FALSE(sink.ok());
  EXPECT_EQ(obs::telemetry_crash_flush_registered(), before);
}

// Regression for the destructor race found while annotating the sink for
// thread-safety analysis: ~TelemetrySink used to flush and fclose the stream
// without taking the mutex write()/sync() hold, so a write racing the final
// flush could touch a closed FILE*. The whole lifecycle is now serialized on
// one lock; this hammer asserts the observable contract — every line written
// by any thread lands on disk exactly once, complete, with the final flush
// covering all of them. Meaningful under TSan, still a real check without it.
TEST_F(TelemetryTest, ConcurrentWritersSyncAndDestructionKeepEveryLine) {
  constexpr int kThreads = 4;
  constexpr int kWritesPerThread = 64;
  {
    obs::TelemetrySink sink(path_);
    ASSERT_TRUE(sink.ok());
    std::vector<std::thread> writers;
    writers.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
      writers.emplace_back([&sink, t] {
        for (int i = 0; i < kWritesPerThread; ++i) {
          obs::JsonRecord rec;
          rec.set("type", "stress").set("thread", t).set("seq", i);
          sink.write(rec);
          if (i % 16 == 0) sink.sync();
        }
      });
    }
    for (std::thread& w : writers) w.join();
  }  // destruction is the final durability point

  const auto lines = read_lines(path_);
  ASSERT_EQ(lines.size(),
            static_cast<std::size_t>(kThreads) * kWritesPerThread);
  std::vector<std::vector<bool>> seen(kThreads,
                                      std::vector<bool>(kWritesPerThread));
  for (const std::string& line : lines) {
    ASSERT_FALSE(line.empty());
    EXPECT_EQ(line.front(), '{');  // no torn/interleaved records
    EXPECT_EQ(line.back(), '}');
    const int t = std::stoi(field(line, "thread"));
    const int i = std::stoi(field(line, "seq"));
    ASSERT_GE(t, 0);
    ASSERT_LT(t, kThreads);
    ASSERT_GE(i, 0);
    ASSERT_LT(i, kWritesPerThread);
    EXPECT_FALSE(seen[t][i]) << "duplicate line t=" << t << " seq=" << i;
    seen[t][i] = true;
  }
}

TEST_F(TelemetryTest, EmptyRecordIsEmptyObject) {
  EXPECT_EQ(obs::JsonRecord().to_json(), "{}");
}

TEST_F(TelemetryTest, CountersRecordEmbedsRegistry) {
  obs::set_enabled(true);
  obs::reset_counters();
  const obs::JsonRecord empty_free = obs::counters_record();
  const std::string base = empty_free.to_json();
  EXPECT_NE(base.find("\"type\": \"counters\""), std::string::npos);
  EXPECT_NE(base.find("\"counters\""), std::string::npos);

  APA_COUNTER_ADD("test.telemetry.counter", 9);
  const std::string with = obs::counters_record().to_json();
  EXPECT_NE(with.find("\"test.telemetry.counter\": 9"), std::string::npos);
  obs::reset_counters();
}

}  // namespace
