// Reproduces Fig 7: per-batch training time of the VGG-19 fully connected
// layers (25088-4096-4096-1000) across batch sizes, comparing the <4,4,2>
// algorithm (our fast442 construction) against classical — the paper's
// section 5 experiment.
//
// Each fast algorithm's head is timed in interleaved rounds against a
// classical twin head held beside it (one round = one train_step of each);
// a head's weights take 411 MB, so only the two heads of one pair are alive.
//
// Usage: fig7_vgg_fc [--batches=16,32,64,128] [--algos=classical,fast442]
//                    [--threads=1] [--reps=2] [--csv=out.csv] [--full]

#include <cstdio>
#include <vector>

#include "benchutil/algos.h"
#include "benchutil/harness.h"
#include "nn/vgg.h"
#include "support/cli.h"
#include "support/table.h"

int main(int argc, char** argv) {
  using namespace apa;
  const CliArgs args(argc, argv);
  const auto batches = args.get_int_list(
      "batches", args.get_bool("full")
                     ? std::vector<std::int64_t>{64, 128, 256, 512, 1024}
                     : std::vector<std::int64_t>{64, 128, 256, 512});
  const auto algos = bench::with_classical_first(
      bench::resolve_algorithms(args.get_list("algos", {"classical", "fast442"})));
  const int thread_count = static_cast<int>(args.get_int("threads", 1));
  const int rounds = static_cast<int>(args.get_int("reps", 2));

  std::printf("Fig 7: VGG-19 FC head (25088-4096-4096-1000), time per batch\n");
  std::printf("%d interleaved rounds per algorithm, ratio = sec/batch / classical twin's\n\n",
              rounds);
  TablePrinter table(bench::report_columns({"algorithm", "batch"}));

  core::FastMatmulOptions options;
  options.num_threads = thread_count;
  options.strategy =
      thread_count > 1 ? core::Strategy::kHybrid : core::Strategy::kSequential;
  for (std::size_t i = 1; i < algos.size(); ++i) {
    nn::Mlp classical = nn::make_vgg_fc_head(nn::VggFcConfig{},
                                             nn::MatmulBackend("classical", options),
                                             nn::MatmulBackend("classical", options));
    nn::Mlp fast = nn::make_vgg_fc_head(nn::VggFcConfig{}, nn::MatmulBackend(algos[i], options),
                                        nn::MatmulBackend("classical", options));
    for (const auto batch : batches) {
      Rng rng(5);
      Matrix<float> x(batch, fast.input_size());
      fill_random_uniform<float>(x.view(), rng, 0.0f, 1.0f);
      std::vector<int> labels(static_cast<std::size_t>(batch));
      for (auto& label : labels) {
        label = static_cast<int>(
            rng.next_below(static_cast<std::uint64_t>(fast.output_size())));
      }
      const bench::Rounds timed = bench::run_rounds(
          {{"classical", [&] { classical.train_step(x.view().as_const(), labels); }},
           {algos[i], [&] { fast.train_step(x.view().as_const(), labels); }}},
          rounds);
      for (std::size_t v = 0; v < 2; ++v) {
        table.add_row(bench::report_cells({timed.names[v], std::to_string(batch)}, timed, v, 0));
      }
      std::printf("finished %s batch=%ld\n", algos[i].c_str(), static_cast<long>(batch));
    }
  }

  std::printf("\n");
  table.print();
  table.write_csv(args.get("csv", ""));
  std::printf(
      "\nExpected shape (paper Fig 7): <4,4,2> beats classical per batch, growing\n"
      "with batch size toward the paper's 15%% sequential improvement.\n");
  return 0;
}
