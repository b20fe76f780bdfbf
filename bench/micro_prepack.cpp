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
// a run, so the variants are paired: every rep times both back to back,
// alternating which goes first, and the row reports each variant's median
// seconds plus the median and quartiles of the per-rep plain/fused ratios.
//
// Emits BENCH_prepack.json so future PRs can track the perf trajectory.
//
// Usage: micro_prepack [--batches=128,512,2048,4096] [--dim=4096]
//                      [--algos=classical,bini322] [--reps=9]
//                      [--json=BENCH_prepack.json]
//                      [--trace-out=trace.json] [--metrics-out=metrics.jsonl] [--trace-cap=N]

#include <algorithm>
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "benchutil/json_writer.h"
#include "blas/plan.h"
#include "nn/backend.h"
#include "obs/session.h"
#include "support/cli.h"
#include "support/rng.h"
#include "support/table.h"
#include "support/timer.h"

namespace {

/// Linear-interpolated quantile q in [0, 1] of `values`.
double quantile(std::vector<double> values, double q) {
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (pos - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

double seconds_of(const std::function<void()>& fn) {
  const apa::WallTimer timer;
  fn();
  return timer.seconds();
}

}  // namespace

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
  std::printf("%d paired reps: median seconds, per-rep plain/fused ratio\n\n", reps);
  TablePrinter table({"backend", "batch", "plain-s", "fused-s", "x-fused", "x-q1",
                      "x-q3", "fused-GFLOPS"});

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
      const std::function<void()> plain = [&] {
        backend.matmul(x.view().as_const(), w.view().as_const(), y.view());
        blas::apply_epilogue<float>(bias_only, y.view());
        blas::apply_epilogue<float>(relu_only, y.view());
      };
      // What DenseLayer::forward issues: the epilogue fused into the product.
      nn::MatmulFusion fused_fusion;
      fused_fusion.epilogue = epilogue;
      const std::function<void()> fused = [&] {
        backend.matmul_ex(x.view().as_const(), w.view().as_const(), y.view(), false,
                          false, fused_fusion);
      };

      plain();  // warmup: pool buffers and first-touch pages
      fused();
      std::vector<double> plain_s, fused_s, ratio;
      for (int rep = 0; rep < reps; ++rep) {
        const bool plain_first = rep % 2 == 0;
        const double first = seconds_of(plain_first ? plain : fused);
        const double second = seconds_of(plain_first ? fused : plain);
        plain_s.push_back(plain_first ? first : second);
        fused_s.push_back(plain_first ? second : first);
        ratio.push_back(plain_s.back() / fused_s.back());
      }
      const double plain_med = quantile(plain_s, 0.5);
      const double fused_med = quantile(fused_s, 0.5);
      const double ratio_med = quantile(ratio, 0.5);
      const double ratio_q1 = quantile(ratio, 0.25);
      const double ratio_q3 = quantile(ratio, 0.75);

      obs::JsonRecord row;
      row.set("backend", algo)
          .set("batch", batch)
          .set("dim", dim)
          .set("reps", reps)
          .set("plain_seconds", plain_med)
          .set("fused_seconds", fused_med)
          .set("speedup_fused", ratio_med)
          .set("speedup_fused_q1", ratio_q1)
          .set("speedup_fused_q3", ratio_q3);
      writer.add_row(std::move(row));
      table.add_row({algo, std::to_string(batch), format_double(plain_med, 4),
                     format_double(fused_med, 4), format_double(ratio_med, 3),
                     format_double(ratio_q1, 3), format_double(ratio_q3, 3),
                     format_double(effective_gflops(batch, dim, dim, fused_med), 1)});
    }
  }

  table.print();
  writer.write(args.get("json", "BENCH_prepack.json"));
  return 0;
}
