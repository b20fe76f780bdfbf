// Tracing layer: span accumulation, per-thread ring recording under OpenMP,
// nesting discipline of the recorded events, phase deltas, and Chrome-trace
// export shape, and the runtime off-switch.

#include <gtest/gtest.h>
#include <omp.h>

#include <algorithm>
#include <cstddef>
#include <string>
#include <vector>

#include "obs/trace.h"
#include "obs/trace_export.h"

namespace {

using namespace apa;

/// Minimal structural JSON check: every brace/bracket closes in order and
/// quotes pair up (with \" escapes honored). Catches the classes of export
/// bugs a renderer would hit — trailing commas excepted, which the shape
/// checks below cover by parsing event fields directly.
bool balanced_json(const std::string& text) {
  std::vector<char> stack;
  bool in_string = false;
  for (std::size_t i = 0; i < text.size(); ++i) {
    const char c = text[i];
    if (in_string) {
      if (c == '\\') {
        ++i;  // skip the escaped character
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

class TraceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::set_enabled(true);
    obs::set_tracing(true);
    obs::reset_trace();
    obs::reset_phases();
  }
  void TearDown() override {
    obs::set_tracing(false);
    obs::reset_trace();
    obs::reset_phases();
  }
};

std::uint64_t total_for(const std::vector<obs::PhaseTotal>& totals,
                        const std::string& name) {
  for (const auto& t : totals) {
    if (t.name == name) return t.count;
  }
  return 0;
}

TEST_F(TraceTest, SpansAccumulatePhaseTotals) {
  for (int i = 0; i < 5; ++i) {
    APA_TRACE_SCOPE("test.outer");
    APA_TRACE_SCOPE("test.inner");
  }
  const auto totals = obs::phase_totals();
  EXPECT_EQ(total_for(totals, "test.outer"), 5u);
  EXPECT_EQ(total_for(totals, "test.inner"), 5u);
  // Sorted by name, as documented.
  EXPECT_TRUE(std::is_sorted(totals.begin(), totals.end(),
                             [](const auto& a, const auto& b) {
                               return a.name < b.name;
                             }));
}

TEST_F(TraceTest, PhaseDeltaSubtractsAndDropsZeroEntries) {
  { APA_TRACE_SCOPE("test.delta_base"); }
  const auto before = obs::phase_totals();
  for (int i = 0; i < 3; ++i) {
    APA_TRACE_SCOPE("test.delta_hot");
  }
  const auto delta = obs::phase_delta(obs::phase_totals(), before);
  EXPECT_EQ(total_for(delta, "test.delta_hot"), 3u);
  // test.delta_base did not advance, so the delta must not mention it.
  for (const auto& t : delta) EXPECT_NE(t.name, "test.delta_base");
}

TEST_F(TraceTest, DisabledSpansRecordNothing) {
  obs::set_enabled(false);
  { APA_TRACE_SCOPE("test.dormant"); }
  obs::set_enabled(true);
  EXPECT_EQ(total_for(obs::phase_totals(), "test.dormant"), 0u);
  EXPECT_TRUE(obs::trace_events().empty());
}

TEST_F(TraceTest, RecordsNestedSpansAcrossFourOmpThreads) {
  constexpr int kThreads = 4;
  constexpr int kRepsPerThread = 8;
  omp_set_dynamic(0);
#pragma omp parallel num_threads(kThreads)
  {
    for (int r = 0; r < kRepsPerThread; ++r) {
      APA_TRACE_SCOPE("test.mt_outer");
      {
        APA_TRACE_SCOPE_ID("test.mt_inner", r);
      }
    }
  }
  const auto events = obs::trace_events();
  ASSERT_EQ(obs::trace_dropped(), 0u);

  // Every thread contributed its full complement of both span names.
  std::vector<int> tids;
  for (const auto& e : events) {
    if (std::find(tids.begin(), tids.end(), e.tid) == tids.end())
      tids.push_back(e.tid);
  }
  EXPECT_GE(tids.size(), static_cast<std::size_t>(kThreads));
  std::size_t outer = 0, inner = 0;
  for (const auto& e : events) {
    if (e.name == "test.mt_outer") ++outer;
    if (e.name == "test.mt_inner") {
      ++inner;
      EXPECT_GE(e.id, 0);
      EXPECT_LT(e.id, kRepsPerThread);
    }
  }
  EXPECT_EQ(outer, static_cast<std::size_t>(kThreads * kRepsPerThread));
  EXPECT_EQ(inner, static_cast<std::size_t>(kThreads * kRepsPerThread));

  // Nesting discipline per thread: events arrive ordered by (tid, start); a
  // stack replay must find every span either disjoint from or fully inside
  // the enclosing one — partial overlap means the ring interleaved scopes.
  for (const int tid : tids) {
    std::vector<const obs::TraceEventView*> stack;
    for (const auto& e : events) {
      if (e.tid != tid) continue;
      while (!stack.empty() &&
             stack.back()->start_ns + stack.back()->dur_ns <= e.start_ns) {
        stack.pop_back();
      }
      if (!stack.empty()) {
        EXPECT_LE(e.start_ns + e.dur_ns,
                  stack.back()->start_ns + stack.back()->dur_ns)
            << "span " << e.name << " partially overlaps " << stack.back()->name;
      }
      stack.push_back(&e);
    }
  }
}

TEST_F(TraceTest, ChromeTraceExportIsBalancedJsonWithAllEvents) {
  omp_set_dynamic(0);
#pragma omp parallel num_threads(4)
  {
    for (int r = 0; r < 4; ++r) {
      APA_TRACE_SCOPE("test.export_outer");
      APA_TRACE_SCOPE("test.export_inner");
    }
  }
  const std::string json = obs::chrome_trace_json();
  EXPECT_TRUE(balanced_json(json)) << json.substr(0, 400);
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"test.export_outer\""), std::string::npos);
  EXPECT_NE(json.find("\"test.export_inner\""), std::string::npos);
  // One "X" duration event per recorded span (metadata events are "M").
  std::size_t duration_events = 0;
  for (std::size_t pos = json.find("\"ph\": \"X\""); pos != std::string::npos;
       pos = json.find("\"ph\": \"X\"", pos + 1)) {
    ++duration_events;
  }
  EXPECT_EQ(duration_events, obs::trace_events().size());
}

TEST_F(TraceTest, EmptyRecordingStillExportsValidDocument) {
  obs::reset_trace();
  const std::string json = obs::chrome_trace_json();
  EXPECT_TRUE(balanced_json(json));
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
}

TEST_F(TraceTest, TraceCapBoundsRingRetention) {
  const std::uint64_t original = obs::trace_capacity();
  obs::set_trace_capacity(16);
  EXPECT_EQ(obs::trace_capacity(), 16u);
  for (int i = 0; i < 50; ++i) {
    APA_TRACE_SCOPE_ID("test.capped", i);
  }
  const auto events = obs::trace_events();
  ASSERT_EQ(events.size(), 16u);
  EXPECT_EQ(obs::trace_dropped(), 34u);
  // Oldest-first drop: only the newest 16 spans survive, in order.
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].name, "test.capped");
    EXPECT_EQ(events[i].id, static_cast<std::int64_t>(34 + i));
  }
  obs::set_trace_capacity(original);
}

TEST_F(TraceTest, TraceCapClampsToOneAndResizeEmptiesRings) {
  const std::uint64_t original = obs::trace_capacity();
  { APA_TRACE_SCOPE("test.pre_resize"); }
  ASSERT_FALSE(obs::trace_events().empty());
  obs::set_trace_capacity(0);  // clamps to 1
  EXPECT_EQ(obs::trace_capacity(), 1u);
  // The resize empties every ring (quiescent contract), so nothing survives.
  EXPECT_TRUE(obs::trace_events().empty());
  { APA_TRACE_SCOPE("test.post_resize"); }
  EXPECT_EQ(obs::trace_events().size(), 1u);
  obs::set_trace_capacity(original);
}

TEST_F(TraceTest, ResetTraceDiscardsEvents) {
  { APA_TRACE_SCOPE("test.resettable"); }
  ASSERT_FALSE(obs::trace_events().empty());
  obs::reset_trace();
  EXPECT_TRUE(obs::trace_events().empty());
  EXPECT_EQ(obs::trace_dropped(), 0u);
}

}  // namespace
