// ObsSession wiring: rank-suffixed output paths and the S1 regression — a
// multi-rank session must give every rank its own trace and metrics file so
// N workers never interleave on one JSONL stream or clobber one trace.

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstddef>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "obs/session.h"
#include "obs/telemetry.h"
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

fs::path make_temp_dir(const char* stem) {
  const fs::path dir =
      fs::temp_directory_path() /
      (std::string(stem) + std::to_string(::getpid()));
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

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

TEST(RankSuffixedPath, InsertsBeforeTheExtension) {
  EXPECT_EQ(obs::rank_suffixed_path("trace.json", 2), "trace.rank2.json");
  EXPECT_EQ(obs::rank_suffixed_path("out/metrics.jsonl", 0),
            "out/metrics.rank0.jsonl");
  EXPECT_EQ(obs::rank_suffixed_path("archive.tar.gz", 1),
            "archive.tar.rank1.gz");
}

TEST(RankSuffixedPath, AppendsWhenThereIsNoExtension) {
  EXPECT_EQ(obs::rank_suffixed_path("trace", 3), "trace.rank3");
  // The dot in a directory component is not an extension.
  EXPECT_EQ(obs::rank_suffixed_path("run.v2/trace", 1), "run.v2/trace.rank1");
}

TEST(RankSuffixedPath, NegativeRankAndEmptyPathPassThrough) {
  EXPECT_EQ(obs::rank_suffixed_path("trace.json", -1), "trace.json");
  EXPECT_EQ(obs::rank_suffixed_path("", 2), "");
}

TEST(ObsSession, EmptyOptionsProduceNoSinksAndFlushIsIdempotent) {
  obs::ObsSession session(obs::ObsSessionOptions{});
  EXPECT_EQ(session.telemetry(), nullptr);
  EXPECT_EQ(session.rank_telemetry(0), nullptr);
  session.flush();
  session.flush();
}

TEST(ObsSession, SingleRankSessionKeepsPlainPaths) {
  const fs::path dir = make_temp_dir("apamm_session_single_");
  obs::ObsSessionOptions options;
  options.metrics_path = (dir / "metrics.jsonl").string();
  {
    obs::ObsSession session(options);
    ASSERT_NE(session.telemetry(), nullptr);
    EXPECT_EQ(session.telemetry(), session.rank_telemetry(0));
    obs::JsonRecord record;
    record.set("marker", "single-rank");
    session.telemetry()->write(record);
  }
  EXPECT_TRUE(fs::exists(dir / "metrics.jsonl"));
  EXPECT_FALSE(fs::exists(dir / "metrics.rank0.jsonl"));
  EXPECT_NE(slurp(dir / "metrics.jsonl").find("single-rank"),
            std::string::npos);
  fs::remove_all(dir);
}

// S1 regression: with ranks > 1 every rank writes its own suffixed metrics
// file and flush() emits one rank-filtered trace per rank — nothing lands on
// the un-suffixed paths, and records never cross streams.
TEST(ObsSession, MultiRankSessionWritesDisjointPerRankFiles) {
  const fs::path dir = make_temp_dir("apamm_session_multi_");
  obs::ObsSessionOptions options;
  options.trace_path = (dir / "trace.json").string();
  options.metrics_path = (dir / "metrics.jsonl").string();
  options.ranks = 2;
  {
    obs::ObsSession session(options);
    ASSERT_NE(session.rank_telemetry(0), nullptr);
    ASSERT_NE(session.rank_telemetry(1), nullptr);
    EXPECT_NE(session.rank_telemetry(0), session.rank_telemetry(1));
    // telemetry() is the coordinator's sink; out-of-range ranks clamp.
    EXPECT_EQ(session.telemetry(), session.rank_telemetry(0));
    EXPECT_EQ(session.rank_telemetry(7), session.rank_telemetry(1));
    EXPECT_EQ(session.rank_telemetry(-3), session.rank_telemetry(0));
    obs::JsonRecord r0, r1;
    r0.set("marker", "from-rank-zero");
    r1.set("marker", "from-rank-one");
    session.rank_telemetry(0)->write(r0);
    session.rank_telemetry(1)->write(r1);
    {
      APA_TRACE_SCOPE("test.session_span");
    }
  }
  EXPECT_FALSE(fs::exists(dir / "metrics.jsonl"));
  EXPECT_FALSE(fs::exists(dir / "trace.json"));
  const std::string rank0 = slurp(dir / "metrics.rank0.jsonl");
  const std::string rank1 = slurp(dir / "metrics.rank1.jsonl");
  EXPECT_NE(rank0.find("from-rank-zero"), std::string::npos);
  EXPECT_EQ(rank0.find("from-rank-one"), std::string::npos);
  EXPECT_NE(rank1.find("from-rank-one"), std::string::npos);
  EXPECT_EQ(rank1.find("from-rank-zero"), std::string::npos);
  // The final counters record lands on the coordinator's stream only.
  EXPECT_NE(rank0.find("\"counters\""), std::string::npos);
  EXPECT_EQ(rank1.find("\"counters\""), std::string::npos);

  for (int rank = 0; rank < 2; ++rank) {
    const fs::path trace =
        dir / ("trace.rank" + std::to_string(rank) + ".json");
    ASSERT_TRUE(fs::exists(trace)) << trace;
    const std::string text = slurp(trace);
    EXPECT_TRUE(balanced_json(text)) << text.substr(0, 400);
    EXPECT_NE(text.find("\"clockSync\""), std::string::npos);
    EXPECT_NE(text.find("apamm rank " + std::to_string(rank)),
              std::string::npos);
  }
  // Unranked threads (this test's main thread) export with rank 0.
  EXPECT_NE(slurp(dir / "trace.rank0.json").find("test.session_span"),
            std::string::npos);
  EXPECT_EQ(slurp(dir / "trace.rank1.json").find("test.session_span"),
            std::string::npos);
  fs::remove_all(dir);
}

}  // namespace
