// Reproduces Fig 3 (a/b/c): standalone square matrix-multiplication
// performance of every algorithm versus the classical baseline, in effective
// GFLOPS (2n^3 / time — the paper's metric, which compares *time* at equal
// problem size, not hardware flop rate).
//
// The paper runs 1, 6, and 12 threads on a dual-socket Xeon; thread counts
// here default to {1, hw} where hw is the detected core count. Parallel runs
// use the paper's hybrid strategy. Every algorithm runs in the same
// interleaved rounds as classical (added when --algos leaves it out), and
// the ratio column is the per-round time ratio to classical.
//
// Usage: fig3_gemm_perf [--dims=256,...] [--threads=1,6,12] [--algos=...]
//                       [--reps=3] [--csv=out.csv]

#include <omp.h>

#include <algorithm>
#include <cstdio>

#include "benchutil/algos.h"
#include "benchutil/harness.h"
#include "core/fastmm.h"
#include "support/cli.h"
#include "support/rng.h"
#include "support/table.h"
#include "support/timer.h"

int main(int argc, char** argv) {
  using namespace apa;
  const CliArgs args(argc, argv);
  const auto dims = args.get_int_list(
      "dims", args.get_bool("full") ? std::vector<std::int64_t>{512, 1024, 2048, 4096, 8192}
                                    : std::vector<std::int64_t>{256, 512, 768, 1024, 1536});
  const auto algos = bench::with_classical_first(bench::resolve_algorithms(args.get_list(
      "algos", {"classical", "bini322", "apa422", "apa332", "fast442", "apa333",
                "fast444", "apa644", "apa664"})));
  std::vector<std::int64_t> threads =
      args.get_int_list("threads", {1, omp_get_num_procs()});
  threads.erase(std::unique(threads.begin(), threads.end()), threads.end());
  const int rounds = static_cast<int>(args.get_int("reps", 3));

  std::printf("Fig 3: square matmul performance, effective GFLOPS = 2n^3/time\n");
  std::printf("(hybrid strategy for multithreaded runs; %d hardware threads;\n"
              "%d interleaved rounds, ratio = seconds / classical seconds)\n\n",
              omp_get_num_procs(), rounds);
  TablePrinter table(bench::report_columns({"threads", "algorithm", "dim"}, {"eff-GFLOPS"}));

  for (const auto thread_count : threads) {
    for (const auto dim : dims) {
      Rng rng(static_cast<std::uint64_t>(dim));
      Matrix<float> a(dim, dim), b(dim, dim), c(dim, dim);
      fill_random_uniform<float>(a.view(), rng);
      fill_random_uniform<float>(b.view(), rng);
      core::FastMatmulOptions options;
      options.num_threads = static_cast<int>(thread_count);
      options.strategy =
          thread_count > 1 ? core::Strategy::kHybrid : core::Strategy::kSequential;
      std::vector<bench::Variant> variants;
      for (const auto& name : algos) {
        variants.push_back({name, [&, mm = core::FastMatmul(name, options)] {
                              mm.multiply(a.view().as_const(), b.view().as_const(), c.view());
                            }});
      }
      const bench::Rounds timed = bench::run_rounds(variants, rounds);
      for (std::size_t i = 0; i < algos.size(); ++i) {
        table.add_row(bench::report_cells(
            {std::to_string(thread_count), algos[i], std::to_string(dim)}, timed, i, 0,
            {format_double(effective_gflops(dim, dim, dim, timed.time(i).median), 1)}));
      }
    }
  }

  table.print();
  table.write_csv(args.get("csv", ""));
  std::printf(
      "\nExpected shape (paper Fig 3): classical wins at small dims; fast/APA\n"
      "algorithms overtake beyond a crossover (paper: ~2000, here lower because\n"
      "our gemm ramps faster than MKL), with <4,4,4>-shaped rules on top.\n");
  return 0;
}
