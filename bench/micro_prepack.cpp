// Microbenchmark for the fused-epilogue layer: forward-layer matmul (batch x
// dim times dim x dim weights, the MLP training shape) evaluated two ways per
// backend:
//
//   plain - the product, then the old two-pass epilogue (separate bias-add
//           and ReLU sweeps over the output);
//   fused - the bias+ReLU epilogue fused into the macro-kernel (what
//           DenseLayer::forward issues).
//
// Both variants pack W inside every call, as the layers do: in training each
// weight orientation is read by one product per optimizer step, and the
// blocked gemm already reuses each packed block across the whole call. On the
// APA backend the fused epilogue runs as one pass after the combine stage.
//
// The fusion saves a few percent at most, less than a shared host drifts over
// a run, so each --reps round of benchutil's interleaved protocol times both
// back to back, alternating which goes first. A JSON row holds each variant's
// median seconds plus the median and quartiles of the per-round plain/fused
// ratios (speedup_fused*).
//
// Emits BENCH_prepack.json so future PRs can track the perf trajectory.
//
// Usage: micro_prepack [--batches=128,512,2048,4096] [--dim=4096]
//                      [--algos=classical,bini322] [--reps=9]
//                      [--json=BENCH_prepack.json]
//                      [--trace-out=trace.json] [--metrics-out=metrics.jsonl] [--trace-cap=N]

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "benchutil/harness.h"
#include "benchutil/json_writer.h"
#include "blas/plan.h"
#include "nn/backend.h"
#include "obs/session.h"
#include "support/cli.h"
#include "support/rng.h"
#include "support/table.h"
#include "support/timer.h"

int main(int argc, char** argv) {
  using namespace apa;
  const CliArgs args(argc, argv);
  obs::ObsSession obs_session(
      args.get("trace-out", ""), args.get("metrics-out", ""),
      static_cast<std::uint64_t>(args.get_int("trace-cap", 0)));
  const auto batches = args.get_int_list("batches", {128, 512, 2048, 4096});
  const long dim = static_cast<long>(args.get_int("dim", 4096));
  const auto algos = args.get_list("algos", {"classical", "bini322"});
  const int reps = std::max(1, static_cast<int>(args.get_int("reps", 9)));

  std::printf("micro_prepack: y = relu(x*W + b), W %ld x %ld\n", dim, dim);
  std::printf("plain = separate bias and ReLU passes; fused = one epilogue\n");
  std::printf("%d interleaved rounds, ratio = seconds / plain seconds\n\n", reps);
  TablePrinter table(bench::report_columns({"backend", "batch", "variant"}, {"eff-GFLOPS"}));

  bench::BenchJsonWriter writer("micro_prepack");
  for (const auto& algo : algos) {
    nn::BackendOptions options;
    const nn::MatmulBackend backend(algo, options);
    Rng rng(static_cast<std::uint64_t>(dim));
    Matrix<float> w(dim, dim), bias(1, dim);
    fill_random_uniform<float>(w.view(), rng);
    fill_random_uniform<float>(bias.view(), rng);

    for (const auto batch_i : batches) {
      const long batch = static_cast<long>(batch_i);
      Matrix<float> x(batch, dim), y(batch, dim);
      fill_random_uniform<float>(x.view(), rng);

      blas::Epilogue<float> epilogue;
      epilogue.kind = blas::EpilogueKind::kBiasAddRelu;
      epilogue.bias = bias.data();
      blas::Epilogue<float> bias_only{blas::EpilogueKind::kBiasAdd, bias.data(), {}};
      blas::Epilogue<float> relu_only{blas::EpilogueKind::kRelu, nullptr, {}};

      // Old pipeline: matmul, then two full sweeps.
      const auto plain = [&] {
        backend.matmul(x.view().as_const(), w.view().as_const(), y.view());
        blas::apply_epilogue<float>(bias_only, y.view());
        blas::apply_epilogue<float>(relu_only, y.view());
      };
      // What DenseLayer::forward issues: the epilogue fused into the product.
      nn::MatmulFusion fused_fusion;
      fused_fusion.epilogue = epilogue;
      const auto fused = [&] {
        backend.matmul_ex(x.view().as_const(), w.view().as_const(), y.view(), false,
                          false, fused_fusion);
      };
      // The warmup round fills pool buffers and first-touch pages.
      const bench::Rounds timed = bench::run_rounds({{"plain", plain}, {"fused", fused}}, reps);
      const bench::PairedRatio speedup =  // per-round plain/fused
          bench::paired_ratio(timed.seconds[0], timed.seconds[1]);

      obs::JsonRecord row;
      row.set("backend", algo)
          .set("batch", batch)
          .set("dim", dim)
          .set("reps", reps)
          .set("plain_seconds", timed.time(0).median)
          .set("fused_seconds", timed.time(1).median)
          .set("speedup_fused", speedup.ratio.median)
          .set("speedup_fused_q1", speedup.ratio.q1)
          .set("speedup_fused_q3", speedup.ratio.q3);
      writer.add_row(std::move(row));
      for (std::size_t i = 0; i < 2; ++i) {
        table.add_row(bench::report_cells(
            {algo, std::to_string(batch), timed.names[i]}, timed, i, 0,
            {format_double(effective_gflops(batch, dim, dim, timed.time(i).median), 1)}));
      }
    }
  }

  table.print();
  writer.write(args.get("json", "BENCH_prepack.json"));
  return 0;
}
