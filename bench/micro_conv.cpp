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

namespace {

/// Per-layer result kept for the aggregate "total" row.
struct Row {
  std::string layer;
  long batch = 0;
  long m = 0, k = 0, n = 0;  // im2col gemm geometry of the forward product
  double seed_s = 0;
  double planned_s = 0;
};

apa::obs::JsonRecord to_record(const Row& r) {
  apa::obs::JsonRecord rec;
  rec.set("layer", r.layer)
      .set("batch", r.batch)
      .set("m", r.m)
      .set("k", r.k)
      .set("n", r.n)
      .set("seed_seconds", r.seed_s)
      .set("planned_seconds", r.planned_s)
      .set("speedup_planned", r.seed_s / r.planned_s);
  return rec;
}

}  // namespace

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
  bench::TimingOptions timing;
  timing.reps = static_cast<int>(args.get_int("reps", 3));

  std::vector<nn::NamedConvShape> all = nn::vgg19_conv_shapes();
  std::vector<std::string> defaults;
  defaults.reserve(all.size());
  for (const auto& named : all) defaults.emplace_back(named.name);
  const auto layers = args.get_list("layers", defaults);

  std::printf("micro_conv: conv train-step matmuls at VGG-19 shapes, batch %ld"
              " (spatial /%ld), backend %s, %d thread(s)\n",
              batch, scale, algo.c_str(), threads);
  std::printf("seed = im2col re-run + separate bias/ReLU/mask passes; planned = "
              "ConvLayer's fused path\n\n");
  TablePrinter table({"layer", "m", "k", "n", "seed-s", "planned-s", "x-planned"});

  nn::BackendOptions options;
  options.matmul.num_threads = threads;
  const nn::MatmulBackend backend(algo, options);

  std::vector<Row> rows;
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
    const auto seed_run = bench::time_workload(
        [&] {
          nn::conv_forward_reference(shape, x.view().as_const(),
                                     layer.filters().view().as_const(),
                                     layer.bias().view().as_const(), y.view(),
                                     backend);
          nn::ReluLayer::forward(y.view().as_const(), y.view());
          nn::conv_backward_reference(shape, x.view().as_const(),
                                      layer.filters().view().as_const(),
                                      dy.view().as_const(), dfilters.view(),
                                      dbias.view(), &dx_raw_view, backend);
          nn::ReluLayer::backward(x.view().as_const(), dx_raw.view().as_const(),
                                  dx.view());
        },
        timing);

    // Planned pipeline: fused epilogues, patch reuse.
    const auto planned = bench::time_workload(
        [&] {
          layer.forward(x.view().as_const(), y.view(), backend,
                        /*fuse_relu=*/true);
          layer.backward(x.view().as_const(), dy.view().as_const(), &dx_view,
                         backend, x.view().as_const());
        },
        timing);

    Row row;
    row.layer = name;
    row.batch = batch;
    row.m = static_cast<long>(batch * shape.out_height() * shape.out_width());
    row.k = static_cast<long>(shape.patch_size());
    row.n = static_cast<long>(shape.out_channels);
    row.seed_s = seed_run.min_seconds;
    row.planned_s = planned.min_seconds;
    rows.push_back(row);
    table.add_row({name, std::to_string(row.m), std::to_string(row.k),
                   std::to_string(row.n), format_double(row.seed_s, 4),
                   format_double(row.planned_s, 4),
                   format_double(row.seed_s / row.planned_s, 3)});
  }

  // Aggregate row: one training step's conv-stack matmul work across all
  // swept layers — the headline planned-vs-seed number.
  if (rows.size() > 1) {
    Row total;
    total.layer = "total";
    total.batch = batch;
    for (const Row& r : rows) {
      total.seed_s += r.seed_s;
      total.planned_s += r.planned_s;
    }
    table.add_row({total.layer, "-", "-", "-", format_double(total.seed_s, 4),
                   format_double(total.planned_s, 4),
                   format_double(total.seed_s / total.planned_s, 3)});
    rows.push_back(total);
  }

  table.print();
  bench::BenchJsonWriter writer("micro_conv");
  for (const Row& r : rows) writer.add_row(to_record(r));
  writer.write(args.get("json", "BENCH_conv.json"));
  return 0;
}
