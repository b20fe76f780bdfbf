// Ablation A4: APA versus exact fast algorithms (the paper's premise, after
// Benson & Ballard [4], is that APA rules outperform exact fast rules of the
// same dimensions because degeneration buys lower rank). For each Table 1
// shape this prints the DP designer's best exact and best APA construction,
// and times both against classical at a representative dimension.
//
// Usage: ablation_exact_vs_apa [--dim=1536] [--csv=out.csv]

#include <cstdio>
#include <string>
#include <tuple>
#include <vector>

#include "benchutil/harness.h"
#include "core/designer.h"
#include "core/fastmm.h"
#include "support/cli.h"
#include "support/rng.h"
#include "support/table.h"

constexpr int kRounds = 5;  // interleaved rounds per comparison

int main(int argc, char** argv) {
  using namespace apa;
  const CliArgs args(argc, argv);
  const auto dim = args.get_int("dim", 1536);

  std::printf("Ablation: best APA vs best exact construction per shape\n\n");
  TablePrinter ranks({"dims", "classical", "exact-rank", "apa-rank", "apa-advantage%"});
  const std::vector<std::tuple<index_t, index_t, index_t>> shapes = {
      {2, 2, 2}, {3, 2, 2}, {4, 2, 2}, {3, 3, 2}, {5, 2, 2}, {3, 3, 3},
      {4, 4, 2}, {4, 3, 3}, {5, 5, 2}, {4, 4, 4}, {5, 5, 5}};
  for (const auto& [m, k, n] : shapes) {
    const auto apa = core::design_summary(m, k, n);
    const auto exact = core::design_summary(m, k, n, {.allow_apa = false});
    ranks.add_row({"<" + std::to_string(m) + "," + std::to_string(k) + "," +
                       std::to_string(n) + ">",
                   std::to_string(m * k * n), std::to_string(exact.rank),
                   std::to_string(apa.rank),
                   format_double(100.0 * (static_cast<double>(exact.rank) /
                                              static_cast<double>(apa.rank) -
                                          1.0),
                                 1)});
  }
  ranks.print();
  ranks.write_csv(args.get("csv", ""));

  // Head-to-head timing at one representative shape: <3,3,3>.
  std::printf("\nTiming at dim=%ld with <3,3,3> constructions, %d interleaved rounds,\n"
              "ratio = seconds / classical seconds:\n\n",
              static_cast<long>(dim), kRounds);
  Rng rng(9);
  Matrix<float> a(dim, dim), b(dim, dim), c(dim, dim);
  fill_random_uniform<float>(a.view(), rng);
  fill_random_uniform<float>(b.view(), rng);

  const std::vector<core::FastMatmul> mms = {
      core::FastMatmul("classical"), core::FastMatmul(core::design(3, 3, 3, {.allow_apa = false})),
      core::FastMatmul(core::design(3, 3, 3, {.allow_apa = true}))};
  const std::vector<std::string> names = {"classical", "best exact <3,3,3>",
                                          "best APA <3,3,3>"};
  std::vector<bench::Variant> variants;
  for (std::size_t i = 0; i < mms.size(); ++i) {
    variants.push_back({names[i], [&, mm = mms[i]] {
                          mm.multiply(a.view().as_const(), b.view().as_const(), c.view());
                        }});
  }
  const bench::Rounds timed = bench::run_rounds(variants, kRounds);
  TablePrinter timing(bench::report_columns({"construction", "rank"}));
  for (std::size_t i = 0; i < mms.size(); ++i) {
    const index_t rank = mms[i].is_classical() ? 27 : mms[i].rule().rank;
    timing.add_row(bench::report_cells({names[i], std::to_string(rank)}, timed, i, 0));
  }
  timing.print();
  std::printf(
      "\nExpected: APA rank < exact rank at every shape (degeneration buys\n"
      "rank), which translates into the timing edge the paper builds on.\n");
  return 0;
}
