// Ablation A6: write-once vs streaming linear combinations (paper section 3.2
// adopts the write-once strategy Benson & Ballard found fastest). Streaming
// re-reads and re-writes the output once per term, so its traffic grows as
// 3t+... versus write-once's t+1 streams for t terms; the gap widens with
// arity — exactly the combination arities large APA rules produce.
//
// Usage: ablation_writeonce [--dim=1024] [--arities=2,3,4,6,8] [--csv=out.csv]

#include <cstdio>
#include <vector>

#include "benchutil/harness.h"
#include "blas/combine.h"
#include "support/cli.h"
#include "support/rng.h"
#include "support/table.h"

constexpr int kRounds = 9;  // interleaved rounds per comparison

int main(int argc, char** argv) {
  using namespace apa;
  const CliArgs args(argc, argv);
  const auto dim = args.get_int("dim", 1024);
  const auto arities = args.get_int_list("arities", {2, 3, 4, 6, 8});

  std::printf("Ablation: write-once vs streaming additions, %ldx%ld blocks\n"
              "%d interleaved rounds per arity, ratio = seconds / write-once seconds\n\n",
              static_cast<long>(dim), static_cast<long>(dim), kRounds);
  TablePrinter table(bench::report_columns({"arity", "method"}, {"GB/s"}));

  Rng rng(1);
  std::vector<Matrix<float>> inputs;
  for (int i = 0; i < 8; ++i) {
    inputs.emplace_back(dim, dim);
    fill_random_uniform<float>(inputs.back().view(), rng);
  }
  Matrix<float> y(dim, dim);

  for (const auto arity : arities) {
    std::vector<blas::Scaled<float>> terms;
    for (index_t t = 0; t < arity; ++t) {
      terms.push_back({1.0f + static_cast<float>(t), inputs[t % inputs.size()].view()});
    }
    const double bytes =
        static_cast<double>(arity + 1) * static_cast<double>(dim) * dim * sizeof(float);
    const bench::Rounds timed = bench::run_rounds(
        {{"write-once", [&] { blas::linear_combination<float>(terms, y.view()); }},
         {"streaming",
          [&] { blas::linear_combination_streaming<float>(terms, y.view()); }}},
        kRounds);
    for (std::size_t i = 0; i < timed.names.size(); ++i) {
      table.add_row(bench::report_cells({std::to_string(arity), timed.names[i]}, timed, i, 0,
                                        {format_double(bytes / timed.time(i).median * 1e-9, 1)}));
    }
  }

  table.print();
  table.write_csv(args.get("csv", ""));
  std::printf(
      "\nExpected: write-once wins at every arity, increasingly so as arity\n"
      "grows (streaming's extra output traffic), vindicating section 3.2.\n");
  return 0;
}
