// Ablation A5: analytic cost model versus measured time (paper section 2.4).
// The model composes (rank x sub-gemm time) + (addition traffic / bandwidth);
// its accuracy shows the ideal-speedup erosion is fully explained by
// small-gemm efficiency plus memory-bound additions.
//
// The machine constants come from the tuning layer's calibration
// (src/tune/calibrate.h) instead of per-bench hard-coded measurements:
//   --calibrate=obs      seed gemm GFLOPS and add bandwidth from the obs
//                        counter/histogram registry (probing it when cold) —
//                        the same constants the self-tuning router uses;
//   --calibrate=measure  legacy dedicated timing passes (one sub-gemm timing
//                        per rule plus core::measure_add_bandwidth).
//
// Usage: ablation_cost_model [--dims=768,1536] [--algos=...] [--csv=out.csv]
//                            [--calibrate=obs|measure]

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "benchutil/algos.h"
#include "benchutil/harness.h"
#include "blas/gemm.h"
#include "core/cost_model.h"
#include "core/fastmm.h"
#include "core/registry.h"
#include "support/cli.h"
#include "support/rng.h"
#include "support/table.h"
#include "tune/calibrate.h"

constexpr int kRounds = 5;  // interleaved rounds per comparison

int main(int argc, char** argv) {
  using namespace apa;
  const CliArgs args(argc, argv);
  const auto dims = args.get_int_list("dims", {768, 1536});
  const auto algos = bench::resolve_algorithms(args.get_list(
      "algos", {"strassen", "bini322", "fast442", "fast444", "apa644"}));
  const std::string mode = args.get("calibrate", "obs");
  if (mode != "obs" && mode != "measure") {
    std::fprintf(stderr, "unknown --calibrate mode '%s' (obs|measure)\n",
                 mode.c_str());
    return EXIT_FAILURE;
  }

  tune::CostCalibration calibration;
  double bandwidth = 0.0;
  if (mode == "obs") {
    calibration = tune::calibrate();
    bandwidth = calibration.add_bandwidth;
    std::printf(
        "Ablation: cost model vs measurement (calibrated %s: %.1f gemm "
        "GFLOPS, %.1f GB/s add bandwidth)\n",
        calibration.from_obs ? "from obs registry" : "from wall-clock probes",
        calibration.gemm_gflops, bandwidth * 1e-9);
  } else {
    bandwidth = core::measure_add_bandwidth();
    std::printf(
        "Ablation: cost model vs measurement (measured add bandwidth %.1f "
        "GB/s)\n",
        bandwidth * 1e-9);
  }
  std::printf("%d interleaved rounds per dim, ratio = seconds / classical seconds, "
              "model = seconds / pred-total\n\n",
              kRounds);
  TablePrinter table(bench::report_columns({"algorithm", "dim"},
                                           {"pred-mul", "pred-add", "pred-total", "model"}));

  for (const auto dim : dims) {
    Rng rng(static_cast<std::uint64_t>(dim));
    Matrix<float> a(dim, dim), b(dim, dim), c(dim, dim);
    fill_random_uniform<float>(a.view(), rng);
    fill_random_uniform<float>(b.view(), rng);

    const auto multiply = [&](const std::string& name) {
      return bench::Variant{name, [&, mm = core::FastMatmul(name)] {
                              mm.multiply(a.view().as_const(), b.view().as_const(), c.view());
                            }};
    };
    std::vector<bench::Variant> variants = {multiply("classical")};
    std::vector<core::CostBreakdown> predictions(1);  // none for classical
    for (const auto& name : algos) {
      if (name == "classical") continue;
      const core::Rule& rule = core::rule_by_name(name);
      if (dim % rule.m != 0 || dim % rule.k != 0 || dim % rule.n != 0) continue;

      core::CostInputs inputs;
      if (mode == "obs") {
        inputs = calibration.cost_inputs(rule, dim, dim, dim);
      } else {
        // Measure the sub-gemm the executor will actually issue.
        Matrix<float> sa(dim / rule.m, dim / rule.k),
            sb(dim / rule.k, dim / rule.n), sc(dim / rule.m, dim / rule.n);
        fill_random_uniform<float>(sa.view(), rng);
        fill_random_uniform<float>(sb.view(), rng);
        inputs.sub_gemm_seconds =
            bench::run_rounds({{"sub-gemm", [&] {
                                  blas::gemm<float>(sa.view(), sb.view(), sc.view());
                                }}},
                              kRounds)
                .time(0)
                .median;
        inputs.add_bandwidth = bandwidth;
      }
      variants.push_back(multiply(name));
      predictions.push_back(core::predict_one_step(rule, dim, dim, dim, inputs));
    }
    const bench::Rounds timed = bench::run_rounds(variants, kRounds);
    for (std::size_t i = 0; i < variants.size(); ++i) {
      const auto& p = predictions[i];
      const std::vector<std::string> model =
          i == 0 ? std::vector<std::string>(4, "-")
                 : std::vector<std::string>{format_double(p.multiply_seconds, 4),
                                            format_double(p.addition_seconds, 4),
                                            format_double(p.total(), 4),
                                            format_double(timed.time(i).median / p.total(), 3)};
      table.add_row(
          bench::report_cells({timed.names[i], std::to_string(dim)}, timed, i, 0, model));
    }
  }

  table.print();
  table.write_csv(args.get("csv", ""));
  std::printf(
      "\nExpected: model near 1 (it captures the two erosion terms); the\n"
      "addition share grows with nnz, explaining why sparse rules win (2.4).\n");
  return 0;
}
