// Reproduces Fig 7: per-batch training time of the VGG-19 fully connected
// layers (25088-4096-4096-1000) across batch sizes, comparing the <4,4,2>
// algorithm (our fast442 construction) against classical — the paper's
// section 5 experiment.
//
// Each fast algorithm's head is timed in interleaved rounds against a
// classical twin head held beside it (one round = one train_step of each);
// a head's weights take 411 MB, so only the two heads of one pair are alive.
//
// --products times the head's 8 products one at a time instead (fwd of every
// layer, dx of the two layers whose input gradient is used, dW of every
// layer), each against classical in the same interleaved rounds, with the
// operands the dense layers pass (forward x*W, dx = dy*W^T, dW = x^T*dy). Per
// product it also reports the B side's thread-seconds per call: the
// blas.pack_b, blas.prepack_b and core.combine_b phase deltas, i.e. forming
// and packing the W-side operand across all threads. One layer's operands
// are alive at a time (W and dW of layer 1 take 411 MB each). Writes
// BENCH_fig7.json.
//
// Usage: fig7_vgg_fc [--batches=16,32,64,128] [--algos=classical,fast442]
//                    [--threads=1] [--reps=2] [--csv=out.csv] [--full]
//        fig7_vgg_fc --products [--batches=256] [--algos=classical,fast442]
//                    [--threads=1] [--reps=2] [--json=BENCH_fig7.json]

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "benchutil/algos.h"
#include "benchutil/harness.h"
#include "benchutil/json_writer.h"
#include "nn/vgg.h"
#include "obs/trace.h"
#include "support/cli.h"
#include "support/table.h"

namespace {

using namespace apa;

/// Thread-nanoseconds spent so far forming and packing B operands.
std::uint64_t b_side_ns() {
  std::uint64_t ns = 0;
  for (const obs::PhaseTotal& phase : obs::phase_totals()) {
    if (phase.name == "blas.pack_b" || phase.name == "blas.prepack_b" ||
        phase.name == "core.combine_b") {
      ns += phase.total_ns;
    }
  }
  return ns;
}

/// One product of a dense layer: c = op(a) * op(b), as the layer issues it.
struct Product {
  std::string name;
  MatrixView<const float> a, b;
  MatrixView<float> c;
  bool ta = false, tb = false;
};

/// Times every product of the head's three layers, classical against each fast
/// algorithm, and writes one JSON row per product and algorithm.
int run_products(const CliArgs& args, const std::vector<std::string>& algos,
                 const core::FastMatmulOptions& options, int rounds) {
  const auto batches = args.get_int_list("batches", {256});
  const nn::VggFcConfig config;
  const std::vector<index_t> widths = {config.conv_features, config.fc_width,
                                       config.fc_width, config.num_classes};
  std::printf("Fig 7 products: VGG-19 FC head, one product per row\n");
  std::printf("%d interleaved rounds, ratio = sec / classical's; b-side = thread-s per\n"
              "call in blas.pack_b + blas.prepack_b + core.combine_b\n\n",
              rounds);
  TablePrinter table(bench::report_columns({"product", "algorithm", "batch"}, {"b-side"}));
  bench::BenchJsonWriter writer("fig7_vgg_fc");
  writer.meta().set("threads", options.num_threads).set("reps", rounds);
  const nn::MatmulBackend classical("classical", options);
  for (const auto batch : batches) {
    for (std::size_t layer = 0; layer + 1 < widths.size(); ++layer) {
      const index_t in = widths[layer], out = widths[layer + 1];
      Rng rng(static_cast<std::uint64_t>(batch) * 7 + layer);
      Matrix<float> w(in, out), x(batch, in), dy(batch, out);
      fill_random_uniform<float>(w.view(), rng);
      fill_random_uniform<float>(x.view(), rng, 0.0f, 1.0f);
      fill_random_uniform<float>(dy.view(), rng);
      Matrix<float> y(batch, out), dx(batch, in), dw(in, out);
      const std::string n = std::to_string(layer + 1);
      std::vector<Product> products = {
          {"fwd" + n, x.view().as_const(), w.view().as_const(), y.view()}};
      // The first layer's input gradient is never used, so it has no dx.
      if (layer > 0) {
        products.push_back(
            {"dx" + n, dy.view().as_const(), w.view().as_const(), dx.view(), false, true});
      }
      products.push_back(
          {"dW" + n, x.view().as_const(), dy.view().as_const(), dw.view(), true, false});
      for (std::size_t i = 1; i < algos.size(); ++i) {
        const nn::MatmulBackend fast(algos[i], options);
        for (const Product& p : products) {
          // B-side thread-seconds of every call, warm-up round included.
          std::vector<std::vector<double>> b_side(2);
          const auto variant = [&](const std::string& name, const nn::MatmulBackend& backend,
                                   std::vector<double>& sink) {
            return bench::Variant{name, [&p, &backend, &sink] {
                                    const std::uint64_t before = b_side_ns();
                                    backend.matmul(p.a, p.b, p.c, p.ta, p.tb);
                                    sink.push_back(1e-9 *
                                                   static_cast<double>(b_side_ns() - before));
                                  }};
          };
          const bench::Rounds timed = bench::run_rounds(
              {variant("classical", classical, b_side[0]), variant(algos[i], fast, b_side[1])},
              rounds);
          std::vector<double> b_med(2);
          for (std::size_t v = 0; v < 2; ++v) {
            b_side[v].erase(b_side[v].begin());  // the warm-up call
            b_med[v] = bench::quartiles(b_side[v]).median;
            table.add_row(bench::report_cells({p.name, timed.names[v], std::to_string(batch)},
                                              timed, v, 0, {format_double(b_med[v], 3)}));
          }
          const bench::PairedRatio ratio = timed.against(1, 0);
          const index_t m = p.ta ? p.a.cols : p.a.rows, k = p.ta ? p.a.rows : p.a.cols;
          const index_t cols = p.tb ? p.b.rows : p.b.cols;
          obs::JsonRecord row;
          row.set("product", p.name)
              .set("algorithm", algos[i])
              .set("batch", static_cast<long>(batch))
              .set("m", static_cast<long>(m))
              .set("k", static_cast<long>(k))
              .set("n", static_cast<long>(cols))
              .set("classical_seconds", timed.time(0).median)
              .set("fast_seconds", timed.time(1).median)
              .set("ratio", ratio.ratio.median)
              .set("ratio_q1", ratio.ratio.q1)
              .set("ratio_q3", ratio.ratio.q3)
              .set("wins", ratio.wins)
              .set("classical_b_side_thread_s", b_med[0])
              .set("fast_b_side_thread_s", b_med[1]);
          writer.add_row(std::move(row));
          std::printf("finished %s %s batch=%ld\n", algos[i].c_str(), p.name.c_str(),
                      static_cast<long>(batch));
        }
      }
    }
  }
  std::printf("\n");
  table.print();
  writer.write(args.get("json", "BENCH_fig7.json"));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const CliArgs args(argc, argv);
  const auto batches = args.get_int_list(
      "batches", args.get_bool("full")
                     ? std::vector<std::int64_t>{64, 128, 256, 512, 1024}
                     : std::vector<std::int64_t>{64, 128, 256, 512});
  const auto algos = bench::with_classical_first(
      bench::resolve_algorithms(args.get_list("algos", {"classical", "fast442"})));
  const int thread_count = static_cast<int>(args.get_int("threads", 1));
  const int rounds = static_cast<int>(args.get_int("reps", 2));

  core::FastMatmulOptions options;
  options.num_threads = thread_count;
  options.strategy =
      thread_count > 1 ? core::Strategy::kHybrid : core::Strategy::kSequential;
  if (args.get_bool("products")) return run_products(args, algos, options, rounds);

  std::printf("Fig 7: VGG-19 FC head (25088-4096-4096-1000), time per batch\n");
  std::printf("%d interleaved rounds per algorithm, ratio = sec/batch / classical twin's\n\n",
              rounds);
  TablePrinter table(bench::report_columns({"algorithm", "batch"}));

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
