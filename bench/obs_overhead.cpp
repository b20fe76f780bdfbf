// Observability overhead gate (BENCH_obs_overhead.json): default-on obs
// against obs::set_enabled(false), paired inside one process in benchutil's
// interleaved rounds. Every round times one train_step of a guarded bini322
// MLP and of the planned-conv Cnn with obs on and one with obs off, back to
// back, alternating which side runs first; exits nonzero when the median
// total on/off ratio passes the budget. Protocol and its noise:
// docs/OBSERVABILITY.md §Overhead.
//
// Usage: obs_overhead [--json=BENCH_obs_overhead.json]

#include <cstdio>
#include <cstdlib>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "benchutil/harness.h"
#include "benchutil/json_writer.h"
#include "nn/cnn.h"
#include "nn/guarded_backend.h"
#include "nn/mlp.h"
#include "obs/trace.h"
#include "support/cli.h"
#include "support/rng.h"

namespace {

using namespace apa;

constexpr double kBudget = 1.02;
constexpr int kRounds = 200;
constexpr int kThreads = 2;

}  // namespace

int main(int argc, char** argv) {
  const CliArgs args(argc, argv);
  nn::BackendOptions options;
  options.matmul.num_threads = kThreads;
  options.matmul.strategy = core::Strategy::kHybrid;
  const auto classical = std::make_shared<nn::MatmulBackend>("classical", options);
  const auto guarded = std::make_shared<nn::GuardedBackend>("bini322", options);

  Rng rng(22);
  Matrix<float> mlp_x(512, 784), cnn_x(256, 784);
  fill_random_uniform<float>(mlp_x.view(), rng, 0.0f, 1.0f);
  fill_random_uniform<float>(cnn_x.view(), rng, 0.0f, 1.0f);
  std::vector<int> mlp_y(512), cnn_y(256);
  for (auto& y : mlp_y) y = static_cast<int>(rng.next_below(10));
  for (auto& y : cnn_y) y = static_cast<int>(rng.next_below(10));
  nn::MlpConfig mlp_config;
  mlp_config.layer_sizes = {784, 768, 768, 768, 10};
  mlp_config.learning_rate = 0.01f;
  nn::Mlp mlp(mlp_config, guarded, classical);
  nn::Cnn cnn(nn::CnnConfig{}, guarded, classical);

  // Workload w is variants 2w (obs on) and 2w+1 (obs off), next to each other
  // in every round; the reversed odd rounds alternate which side runs first.
  const auto step = [](bool on, std::function<void()> train_step) {
    return [on, train_step] {
      obs::set_enabled(on);
      train_step();
    };
  };
  const auto mlp_step = [&] { mlp.train_step(mlp_x.view().as_const(), mlp_y); };
  const auto cnn_step = [&] { cnn.train_step(cnn_x.view().as_const(), cnn_y); };
  // Two warmup rounds warm pools, plans and phase interns.
  const bench::Rounds timed = bench::run_rounds(
      {{"mlp_bini322_guarded", step(true, mlp_step)},
       {"mlp_bini322_guarded", step(false, mlp_step)},
       {"cnn_planned_guarded", step(true, cnn_step)},
       {"cnn_planned_guarded", step(false, cnn_step)}},
      kRounds, /*warmup=*/2);
  obs::set_enabled(true);

  bench::BenchJsonWriter json("obs_overhead");
  json.meta().set("budget_ratio", kBudget).set("rounds", kRounds).set("threads", kThreads);
  std::printf("obs_overhead: %d rounds, %d threads; median step seconds and "
              "on/off ratio quartiles\n\n%-20s %8s %8s %8s %8s %8s\n",
              kRounds, kThreads, "workload", "on-s", "off-s", "q1", "median",
              "q3");
  const auto report = [&](const std::string& name, const std::vector<double>& on_s,
                          const std::vector<double>& off_s) {
    const double on = bench::quartiles(on_s).median;
    const double off = bench::quartiles(off_s).median;
    const bench::Quartiles q = bench::paired_ratio(on_s, off_s).ratio;
    std::printf("%-20s %8.4f %8.4f %8.4f %8.4f %8.4f\n", name.c_str(), on, off, q.q1,
                q.median, q.q3);
    json.add_row(obs::JsonRecord()
                     .set("workload", name)
                     .set("on_seconds_median", on)
                     .set("off_seconds_median", off)
                     .set("ratio_q1", q.q1)
                     .set("ratio_median", q.median)
                     .set("ratio_q3", q.q3));
    return q.median;
  };
  std::vector<double> total_on(kRounds, 0.0), total_off(kRounds, 0.0);
  for (std::size_t w = 0; w < 2; ++w) {
    const auto& on_s = timed.seconds[2 * w];
    const auto& off_s = timed.seconds[2 * w + 1];
    report(timed.names[2 * w], on_s, off_s);
    for (int r = 0; r < kRounds; ++r) {
      total_on[r] += on_s[r];
      total_off[r] += off_s[r];
    }
  }
  const double ratio = report("total", total_on, total_off);  // gates
  const bool pass = ratio <= kBudget;
  json.meta().set("pass", pass);
  json.write(args.get("json", "BENCH_obs_overhead.json"));
  std::printf("total median on/off ratio %.4f (budget %.2f): %s\n", ratio,
              kBudget, pass ? "PASS" : "FAIL");
  return pass ? EXIT_SUCCESS : EXIT_FAILURE;
}
