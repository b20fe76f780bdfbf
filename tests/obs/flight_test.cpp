// Flight recorder: the flight view of the per-thread event rings, ring
// bounds, ring recycling across thread exits, per-entry ranks, and the
// postmortem dump files (schema, arming, coalescing). The dump path
// itself is async-signal-safe by construction; here we drive it from normal
// code and validate what lands on disk. Skips (but still compiles) under
// APAMM_OBS=OFF, where every entry point is a no-op.

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cstddef>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/flight.h"
#include "obs/trace.h"

namespace {

using namespace apa;
namespace fs = std::filesystem;

/// Structural JSON check (braces/brackets/quotes pair up) — the dump writer is
/// hand-rolled for signal safety, so malformed output is a real failure mode.
bool balanced_json(const std::string& text) {
  std::vector<char> stack;
  bool in_string = false;
  for (std::size_t i = 0; i < text.size(); ++i) {
    const char c = text[i];
    if (in_string) {
      if (c == '\\') {
        ++i;
      } else if (c == '"') {
        in_string = false;
      }
      continue;
    }
    switch (c) {
      case '"': in_string = true; break;
      case '{': stack.push_back('}'); break;
      case '[': stack.push_back(']'); break;
      case '}':
      case ']':
        if (stack.empty() || stack.back() != c) return false;
        stack.pop_back();
        break;
      default: break;
    }
  }
  return !in_string && stack.empty();
}

std::string slurp(const fs::path& path) {
  std::ifstream in(path);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

fs::path make_temp_dir(const char* stem) {
  const fs::path dir =
      fs::temp_directory_path() /
      (std::string(stem) + std::to_string(::getpid()));
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

class FlightTest : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::set_enabled(true);
    obs::set_flight_dir("");  // disarm: no test dumps unless it opts in
    obs::reset_flight();
  }
  void TearDown() override {
    obs::set_flight_dir("");
    obs::reset_flight();
  }
};

int count_tag(const std::vector<obs::FlightEventView>& events,
              const std::string& tag) {
  int n = 0;
  for (const auto& e : events) {
    if (e.tag == tag) ++n;
  }
  return n;
}

TEST_F(FlightTest, NoteRecordsTagAndPayload) {
  if (!obs::kCompiledIn) GTEST_SKIP() << "APAMM_OBS=OFF";
  obs::flight_note("test.note", 7, -9);
  const auto events = obs::flight_events();
  bool found = false;
  for (const auto& e : events) {
    if (e.tag != "test.note") continue;
    found = true;
    EXPECT_FALSE(e.is_span);
    EXPECT_EQ(e.a, 7);
    EXPECT_EQ(e.b, -9);
    EXPECT_GT(e.t_ns, 0u);
  }
  EXPECT_TRUE(found);
}

TEST_F(FlightTest, FinishedSpansMirrorIntoTheRing) {
  if (!obs::kCompiledIn) GTEST_SKIP() << "APAMM_OBS=OFF";
  {
    APA_TRACE_SCOPE_ID("test.flight_mirror", 3);
  }
  bool found = false;
  for (const auto& e : obs::flight_events()) {
    if (e.tag != "test.flight_mirror") continue;
    found = true;
    EXPECT_TRUE(e.is_span);
    EXPECT_EQ(e.a, 3);     // span id
    EXPECT_GE(e.b, 0);     // duration
  }
  EXPECT_TRUE(found) << "span did not mirror into the flight ring";
}

TEST_F(FlightTest, RingBoundKeepsOnlyTheNewestEvents) {
  if (!obs::kCompiledIn) GTEST_SKIP() << "APAMM_OBS=OFF";
  // The trace capacity bounds a ring sized while tracing is on; the bump
  // makes the recorder size its ring on its first note.
  const std::uint64_t original = obs::trace_capacity();
  obs::set_tracing(true);
  obs::set_trace_capacity(8);
  std::thread recorder([] {
    for (int i = 0; i < 20; ++i) {
      obs::flight_note("test.flight_cap", i);
    }
  });
  recorder.join();
  std::vector<std::int64_t> seen;
  for (const auto& e : obs::flight_events()) {
    if (e.tag == "test.flight_cap") seen.push_back(e.a);
  }
  ASSERT_EQ(seen.size(), 8u);
  // Oldest-first overwrite: only notes 12..19 survive, in order.
  for (std::size_t i = 0; i < seen.size(); ++i) {
    EXPECT_EQ(seen[i], static_cast<std::int64_t>(12 + i));
  }
  obs::set_trace_capacity(original);
  obs::set_tracing(false);
}

TEST_F(FlightTest, RingsOfExitedThreadsAreRecycledNotLeaked) {
  if (!obs::kCompiledIn) GTEST_SKIP() << "APAMM_OBS=OFF";
  // More sequential threads than there are ring slots: each exiting thread
  // hands its ring to the next, so the late threads still record and the
  // churn reuses a lane instead of claiming a new ring per thread.
  constexpr int kChurn = 300;
  for (int i = 0; i < kChurn; ++i) {
    std::thread worker([i] {
      { APA_TRACE_SCOPE("test.churn_span"); }
      obs::flight_note("test.churn_note", i);
    });
    worker.join();
  }
  std::vector<int> tids;
  bool saw_last = false;
  for (const auto& e : obs::flight_events()) {
    if (e.tag != "test.churn_note") continue;
    saw_last = saw_last || e.a == kChurn - 1;
    if (std::find(tids.begin(), tids.end(), e.tid) == tids.end()) {
      tids.push_back(e.tid);
    }
  }
  EXPECT_TRUE(saw_last) << "note from the last churned thread was lost";
  EXPECT_LE(tids.size(), 2u);
}

TEST_F(FlightTest, RecycledRingKeepsEachEntrysRank) {
  if (!obs::kCompiledIn) GTEST_SKIP() << "APAMM_OBS=OFF";
  const fs::path dir = make_temp_dir("apamm_flight_rank_test_");
  obs::set_tracing(true);
  obs::reset_trace();
  // Two sequential threads share one recycled ring; each entry must keep the
  // rank its own thread declared.
  for (const int rank : {1, 0}) {
    std::thread worker([rank] {
      obs::set_thread_rank(rank);
      APA_TRACE_SCOPE_ID("test.rank_span", rank);
      obs::flight_note(rank == 1 ? "test.rank1_note" : "test.rank0_note");
    });
    worker.join();
  }
  obs::set_tracing(false);
  std::vector<int> tids;
  for (const auto& e : obs::trace_events()) {
    if (e.name != "test.rank_span") continue;
    EXPECT_EQ(e.rank, e.id) << "span attributed to the wrong rank";
    tids.push_back(e.tid);
  }
  ASSERT_EQ(tids.size(), 2u);
  EXPECT_EQ(tids[0], tids[1]) << "the second thread did not adopt the ring";

  obs::set_flight_dir(dir.string());
  EXPECT_EQ(obs::flight_dump("rank_test"), 2);
  obs::set_flight_dir("");
  const std::string rank0 = slurp(dir / "flight_0.json");
  const std::string rank1 = slurp(dir / "flight_1.json");
  EXPECT_TRUE(balanced_json(rank0));
  EXPECT_TRUE(balanced_json(rank1));
  EXPECT_NE(rank1.find("\"tag\":\"test.rank1_note\""), std::string::npos);
  EXPECT_EQ(rank1.find("\"tag\":\"test.rank0_note\""), std::string::npos);
  EXPECT_NE(rank0.find("\"tag\":\"test.rank0_note\""), std::string::npos);
  EXPECT_EQ(rank0.find("\"tag\":\"test.rank1_note\""), std::string::npos);
  EXPECT_NE(rank1.find("\"kind\":\"span\",\"id\":1,"), std::string::npos);
  EXPECT_NE(rank0.find("\"kind\":\"span\",\"id\":0,"), std::string::npos);
  EXPECT_EQ(rank0.find("\"kind\":\"span\",\"id\":1,"), std::string::npos);
  fs::remove_all(dir);
}

TEST_F(FlightTest, DumpIsDisarmedUntilADirectoryIsNamed) {
  if (!obs::kCompiledIn) GTEST_SKIP() << "APAMM_OBS=OFF";
  obs::flight_note("test.flight_disarmed", 1);
  EXPECT_EQ(obs::flight_dump("never"), 0);
  EXPECT_EQ(obs::flight_dir(), "");
}

TEST_F(FlightTest, OverlongDirectoryLeavesDumpsDisarmed) {
  if (!obs::kCompiledIn) GTEST_SKIP() << "APAMM_OBS=OFF";
  obs::set_flight_dir(std::string(600, 'x'));  // exceeds the signal-safe buffer
  EXPECT_EQ(obs::flight_dir(), "");
  EXPECT_EQ(obs::flight_dump("overlong"), 0);
}

TEST_F(FlightTest, DumpWritesBalancedPerRankJsonWithReasonAndEvents) {
  if (!obs::kCompiledIn) GTEST_SKIP() << "APAMM_OBS=OFF";
  const fs::path dir = make_temp_dir("apamm_flight_test_");
  obs::set_flight_dir(dir.string());
  EXPECT_EQ(obs::flight_dir(), dir.string());
  obs::flight_note("test.flight_dump", 42, 99);
  const int files = obs::flight_dump("unit_test");
  EXPECT_GE(files, 1);

  // The main thread never declared a rank, so it dumps as rank 0.
  const fs::path dump = dir / "flight_0.json";
  ASSERT_TRUE(fs::exists(dump));
  const std::string text = slurp(dump);
  EXPECT_TRUE(balanced_json(text)) << text.substr(0, 400);
  EXPECT_NE(text.find("\"reason\":\"unit_test\""), std::string::npos);
  EXPECT_NE(text.find("\"rank\":0"), std::string::npos);
  EXPECT_NE(text.find("\"tag\":\"test.flight_dump\""), std::string::npos);
  EXPECT_NE(text.find("\"kind\":\"note\",\"a\":42,\"b\":99"),
            std::string::npos);

  // Disarming stops further dumps.
  obs::set_flight_dir("");
  EXPECT_EQ(obs::flight_dump("after_disarm"), 0);
  fs::remove_all(dir);
}

TEST_F(FlightTest, ResetEmptiesEveryRing) {
  if (!obs::kCompiledIn) GTEST_SKIP() << "APAMM_OBS=OFF";
  obs::flight_note("test.flight_reset", 1);
  ASSERT_GE(count_tag(obs::flight_events(), "test.flight_reset"), 1);
  obs::reset_flight();
  EXPECT_EQ(count_tag(obs::flight_events(), "test.flight_reset"), 0);
}

TEST_F(FlightTest, CompiledOutBuildStaysCallable) {
  // The OFF stubs must accept every call without effect; in ON builds this
  // just exercises the getters.
  if (obs::kCompiledIn) return;
  obs::flight_note("test.off", 1, 2);
  EXPECT_EQ(obs::flight_dump("off"), 0);
  EXPECT_TRUE(obs::flight_events().empty());
}

}  // namespace
