// Reproduces Fig 6 (a/b/c): training time of the ParaDnn-style 6-layer MLP
// (4 hidden layers) versus hidden-layer width, with batch size matched to the
// width so the hidden-layer multiplications are square (the paper's setup).
// APA algorithms run the hidden layers; input and output layers stay
// classical. Reported as time per training step relative to the classical
// baseline (the paper plots relative training time).
//
// Each APA rule is timed in interleaved rounds against a classical twin held
// beside it (one round = one train_step of each), so at most two models are
// alive at once: at --full's width 8192 one model's weights take ~1 GB.
//
// Usage: fig6_mlp_training [--dims=256,512,1024,1536] [--threads=1,...]
//                          [--algos=...] [--steps=2] [--csv=out.csv] [--full]

#include <omp.h>

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "benchutil/algos.h"
#include "benchutil/harness.h"
#include "nn/mlp.h"
#include "support/cli.h"
#include "support/table.h"

int main(int argc, char** argv) {
  using namespace apa;
  const CliArgs args(argc, argv);
  const auto widths = args.get_int_list(
      "dims", args.get_bool("full") ? std::vector<std::int64_t>{512, 1024, 2048, 4096, 8192}
                                    : std::vector<std::int64_t>{256, 512, 1024, 1536});
  const auto algos = bench::with_classical_first(bench::resolve_algorithms(args.get_list(
      "algos", {"classical", "bini322", "fast442", "fast444", "apa644"})));
  std::vector<std::int64_t> threads =
      args.get_int_list("threads", {1, omp_get_num_procs()});
  threads.erase(std::unique(threads.begin(), threads.end()), threads.end());
  const int rounds = static_cast<int>(args.get_int("steps", 2));

  std::printf("Fig 6: 6-layer MLP (784-h-h-h-h-10), batch = h, APA on hidden layers\n");
  std::printf("%d interleaved rounds per rule, ratio = sec/step / classical twin's\n\n",
              rounds);
  TablePrinter table(bench::report_columns({"threads", "algorithm", "hidden"}));

  Rng data_rng(21);
  for (const auto thread_count : threads) {
    for (const auto width : widths) {
      // Random batch; contents do not affect timing.
      Matrix<float> x(width, 784);
      fill_random_uniform<float>(x.view(), data_rng, 0.0f, 1.0f);
      std::vector<int> labels(static_cast<std::size_t>(width));
      for (auto& label : labels) label = static_cast<int>(data_rng.next_below(10));

      core::FastMatmulOptions options;
      options.num_threads = static_cast<int>(thread_count);
      options.strategy =
          thread_count > 1 ? core::Strategy::kHybrid : core::Strategy::kSequential;
      const auto make_mlp = [&](const std::string& name) {
        nn::MlpConfig config;
        config.layer_sizes = {784, width, width, width, width, 10};
        config.learning_rate = 0.05f;
        config.seed = 3;
        return nn::Mlp(config, nn::MatmulBackend(name, options),
                       nn::MatmulBackend("classical", options));
      };
      for (std::size_t i = 1; i < algos.size(); ++i) {
        nn::Mlp classical = make_mlp("classical");
        nn::Mlp fast = make_mlp(algos[i]);
        const bench::Rounds timed = bench::run_rounds(
            {{"classical", [&] { classical.train_step(x.view().as_const(), labels); }},
             {algos[i], [&] { fast.train_step(x.view().as_const(), labels); }}},
            rounds);
        for (std::size_t v = 0; v < 2; ++v) {
          table.add_row(bench::report_cells({std::to_string(thread_count), timed.names[v],
                                             std::to_string(width)},
                                            timed, v, 0));
        }
      }
      std::printf("finished hidden=%ld threads=%ld\n", static_cast<long>(width),
                  static_cast<long>(thread_count));
    }
  }

  std::printf("\n");
  table.print();
  table.write_csv(args.get("csv", ""));
  std::printf(
      "\nExpected shape (paper Fig 6): ratio < 1 for APA algorithms once the\n"
      "hidden width passes the crossover (paper: >= 1024 sequential), with\n"
      "<4,4,4>/<4,4,2>-shaped rules the strongest.\n");
  return 0;
}
