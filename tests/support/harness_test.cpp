#include "benchutil/harness.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace apa::bench {
namespace {

TEST(RunRounds, WarmupForwardThenRoundsAlternateForwardAndReversed) {
  std::vector<int> calls;
  std::vector<Variant> variants;
  for (int i = 0; i < 3; ++i) {
    variants.push_back({"v" + std::to_string(i), [&calls, i] { calls.push_back(i); }});
  }
  const Rounds rounds = run_rounds(variants, /*rounds=*/3, /*warmup=*/1);
  EXPECT_EQ(calls, (std::vector<int>{0, 1, 2,     // warmup
                                     0, 1, 2,     // round 0
                                     2, 1, 0,     // round 1
                                     0, 1, 2}));  // round 2
  EXPECT_EQ(rounds.names, (std::vector<std::string>{"v0", "v1", "v2"}));
  ASSERT_EQ(rounds.seconds.size(), 3u);
  for (const auto& series : rounds.seconds) EXPECT_EQ(series.size(), 3u);
}

TEST(RunRounds, WithTwoVariantsTheFirstSideAlternates) {
  std::vector<char> calls;
  const Rounds rounds = run_rounds({{"a", [&] { calls.push_back('a'); }},
                                    {"b", [&] { calls.push_back('b'); }}},
                                   /*rounds=*/4, /*warmup=*/0);
  EXPECT_EQ(std::string(calls.begin(), calls.end()), "abbaabba");
}

TEST(Quartiles, LinearInterpolationOnFixedSamples) {
  // Sorted {1, 2, 3, 4}: positions 0.75, 1.5, 2.25.
  const Quartiles even = quartiles({4, 1, 3, 2});
  EXPECT_DOUBLE_EQ(even.q1, 1.75);
  EXPECT_DOUBLE_EQ(even.median, 2.5);
  EXPECT_DOUBLE_EQ(even.q3, 3.25);
  const Quartiles odd = quartiles({10, 50, 20, 40, 30});
  EXPECT_DOUBLE_EQ(odd.q1, 20);
  EXPECT_DOUBLE_EQ(odd.median, 30);
  EXPECT_DOUBLE_EQ(odd.q3, 40);
  const Quartiles one = quartiles({7});
  EXPECT_DOUBLE_EQ(one.q1, 7);
  EXPECT_DOUBLE_EQ(one.q3, 7);
}

TEST(Rounds, RatiosArePerRoundAgainstTheBaseline) {
  Rounds rounds;
  rounds.names = {"base", "fast"};
  // A slow round hits both variants alike: per-round ratios stay 0.5, while
  // the ratio of the medians (2.5 / 4) would read 0.625.
  rounds.seconds = {{2, 4, 8}, {1, 2, 4}};
  const PairedRatio r = rounds.against(1, 0);
  EXPECT_DOUBLE_EQ(r.ratio.q1, 0.5);
  EXPECT_DOUBLE_EQ(r.ratio.median, 0.5);
  EXPECT_DOUBLE_EQ(r.ratio.q3, 0.5);
  EXPECT_EQ(r.wins, 3);
  EXPECT_DOUBLE_EQ(rounds.time(0).median, 4);
  EXPECT_EQ(rounds.against(0, 1).wins, 0);
}

TEST(PairedRatio, TiesCountAsNeitherWinNorLoss) {
  const PairedRatio r = paired_ratio({1, 2, 3, 5}, {2, 2, 3, 4});
  EXPECT_EQ(r.wins, 1);  // round 0 only; rounds 1 and 2 tie, round 3 loses
  EXPECT_EQ(paired_ratio({2, 3, 4}, {1, 3, 5}).wins, 1);
  EXPECT_DOUBLE_EQ(r.ratio.median, 1.0);
}

TEST(Report, BaselineRowHasNoRatioCells) {
  Rounds rounds;
  rounds.names = {"base", "fast"};
  rounds.seconds = {{2, 2}, {1, 3}};
  const auto columns = report_columns({"name"});
  const auto base = report_cells({"base"}, rounds, 0, 0);
  const auto fast = report_cells({"fast"}, rounds, 1, 0);
  ASSERT_EQ(base.size(), columns.size());
  ASSERT_EQ(fast.size(), columns.size());
  EXPECT_EQ(base.back(), "-");
  EXPECT_EQ(fast.back(), "1/2");
  EXPECT_EQ(fast[1], "2.000e+00");  // median seconds of {1, 3}
}

}  // namespace
}  // namespace apa::bench
