// Microbenchmark for the conv-as-gemm plan layer: one conv training step's
// matmul work (forward product, dW, dx) at VGG-19 layer shapes, evaluated two
// ways per layer:
//
//   seed    - the seed two-pass pipeline preserved as conv_forward_reference /
//             conv_backward_reference: im2col re-run in backward, plain
//             matmuls, separate ReLU / bias / mask sweeps over the outputs;
//   planned - what ConvLayer now issues: bias+ReLU fused into the im2col
//             gemm's epilogue, the ReLU-backward mask fused into the dx
//             product in patch space, and backward reusing the forward pass's
//             patch matrix instead of re-running im2col. Both pipelines pack
//             the filters inside every product.
//
// Each of --reps rounds of benchutil's interleaved protocol times both
// pipelines back to back, alternating which runs first. A JSON row holds each
// pipeline's median seconds and the median and quartiles of the per-round
// seed/planned ratio (speedup_planned*); the "total" row sums each round over
// the layers.
//
// Emits BENCH_conv.json so future PRs can track the perf trajectory.
//
// Usage: micro_conv [--batch=4] [--reps=3] [--scale=1] [--algo=classical]
//                   [--threads=N] [--layers=conv1_1,conv3_1,...]
//                   [--json=BENCH_conv.json]
//                   [--trace-out=trace.json] [--metrics-out=metrics.jsonl] [--trace-cap=N]
//
// --scale divides the spatial side of every layer (min 4) for quick smoke
// runs; published numbers use scale 1.

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "benchutil/harness.h"
#include "benchutil/json_writer.h"
#include "nn/conv.h"
#include "nn/layers.h"
#include "nn/vgg.h"
#include "obs/session.h"
#include "support/cli.h"
#include "support/rng.h"
#include "support/table.h"

int main(int argc, char** argv) {
  using namespace apa;
  const CliArgs args(argc, argv);
  obs::ObsSession obs_session(
      args.get("trace-out", ""), args.get("metrics-out", ""),
      static_cast<std::uint64_t>(args.get_int("trace-cap", 0)));
  const long batch = static_cast<long>(args.get_int("batch", 4));
  const long scale = static_cast<long>(args.get_int("scale", 1));
  const int threads = static_cast<int>(args.get_int("threads", 1));
  const std::string algo = args.get("algo", "classical");
  const int reps = std::max(1, static_cast<int>(args.get_int("reps", 3)));

  std::vector<nn::NamedConvShape> all = nn::vgg19_conv_shapes();
  std::vector<std::string> defaults;
  defaults.reserve(all.size());
  for (const auto& named : all) defaults.emplace_back(named.name);
  const auto layers = args.get_list("layers", defaults);

  std::printf("micro_conv: conv train-step matmuls at VGG-19 shapes, batch %ld"
              " (spatial /%ld), backend %s, %d thread(s)\n",
              batch, scale, algo.c_str(), threads);
  std::printf("seed = im2col re-run + separate bias/ReLU/mask passes; planned = "
              "ConvLayer's fused path\n%d interleaved rounds, ratio = seconds / seed "
              "seconds\n\n",
              reps);
  TablePrinter table(bench::report_columns({"layer", "m", "k", "n", "pipeline"}));
  bench::BenchJsonWriter writer("micro_conv");

  nn::BackendOptions options;
  options.matmul.num_threads = threads;
  const nn::MatmulBackend backend(algo, options);

  // One table row per pipeline and one JSON row: median seconds per pipeline,
  // quartiles of the per-round seed/planned ratio, rounds the planned path won.
  const auto report = [&](const std::vector<std::string>& leading,
                          const bench::Rounds& timed, obs::JsonRecord row) {
    for (std::size_t i = 0; i < 2; ++i) {
      auto cells = leading;
      cells.push_back(timed.names[i]);
      table.add_row(bench::report_cells(std::move(cells), timed, i, 0));
    }
    const auto speedup = bench::paired_ratio(timed.seconds[0], timed.seconds[1]);
    writer.add_row(row.set("seed_seconds", timed.time(0).median)
                       .set("planned_seconds", timed.time(1).median)
                       .set("speedup_planned", speedup.ratio.median)
                       .set("speedup_planned_q1", speedup.ratio.q1)
                       .set("speedup_planned_q3", speedup.ratio.q3)
                       .set("planned_wins", timed.against(1, 0).wins));
  };
  // Per-round sums over the layers, for the whole-stack "total" row.
  bench::Rounds total{{"seed", "planned"},
                      {std::vector<double>(reps, 0.0), std::vector<double>(reps, 0.0)}};
  for (const auto& name : layers) {
    const auto it = std::find_if(all.begin(), all.end(), [&](const auto& named) {
      return name == named.name;
    });
    if (it == all.end()) {
      std::fprintf(stderr, "micro_conv: unknown layer %s\n", name.c_str());
      return 1;
    }
    nn::ConvShape shape = it->shape;
    shape.in_height = std::max<index_t>(4, shape.in_height / scale);
    shape.in_width = std::max<index_t>(4, shape.in_width / scale);

    Rng rng(static_cast<std::uint64_t>(shape.out_channels));
    nn::ConvLayer layer(shape, rng);
    Matrix<float> x(batch, shape.in_size());
    Matrix<float> y(batch, shape.out_size());
    Matrix<float> dy(batch, shape.out_size());
    Matrix<float> dx(batch, shape.in_size());
    // Zero-mean input so the ReLU masks are non-trivial on both paths.
    fill_random_uniform<float>(x.view(), rng, -1.0f, 1.0f);
    fill_random_uniform<float>(dy.view(), rng, -1.0f, 1.0f);
    MatrixView<float> dx_view = dx.view();

    // Seed pipeline: two-pass forward (separate ReLU), backward re-running
    // im2col with the ReLU-backward mask applied to dx as its own sweep.
    Matrix<float> dfilters(shape.patch_size(), shape.out_channels);
    Matrix<float> dbias(1, shape.out_channels);
    Matrix<float> dx_raw(batch, shape.in_size());
    MatrixView<float> dx_raw_view = dx_raw.view();
    const auto seed = [&] {
      nn::conv_forward_reference(shape, x.view().as_const(),
                                 layer.filters().view().as_const(),
                                 layer.bias().view().as_const(), y.view(), backend);
      nn::ReluLayer::forward(y.view().as_const(), y.view());
      nn::conv_backward_reference(shape, x.view().as_const(),
                                  layer.filters().view().as_const(), dy.view().as_const(),
                                  dfilters.view(), dbias.view(), &dx_raw_view, backend);
      nn::ReluLayer::backward(x.view().as_const(), dx_raw.view().as_const(), dx.view());
    };
    // Planned pipeline: fused epilogues, patch reuse.
    const auto planned = [&] {
      layer.forward(x.view().as_const(), y.view(), backend, /*fuse_relu=*/true);
      layer.backward(x.view().as_const(), dy.view().as_const(), &dx_view, backend,
                     x.view().as_const());
    };
    const bench::Rounds timed = bench::run_rounds({{"seed", seed}, {"planned", planned}}, reps);

    const long m = static_cast<long>(batch * shape.out_height() * shape.out_width());
    const long k = static_cast<long>(shape.patch_size());
    const long n = static_cast<long>(shape.out_channels);
    report({name, std::to_string(m), std::to_string(k), std::to_string(n)}, timed,
           obs::JsonRecord().set("layer", name).set("batch", batch).set("m", m).set("k", k)
               .set("n", n).set("reps", reps));
    for (std::size_t i = 0; i < 2; ++i) {
      for (int r = 0; r < reps; ++r) total.seconds[i][r] += timed.seconds[i][r];
    }
  }

  // Aggregate row: one training step's conv-stack matmul work across all
  // swept layers — the headline planned-vs-seed number.
  if (layers.size() > 1) {
    report({"total", "-", "-", "-"}, total,
           obs::JsonRecord().set("layer", "total").set("batch", batch).set("reps", reps));
  }

  table.print();
  writer.write(args.get("json", "BENCH_conv.json"));
  return 0;
}
