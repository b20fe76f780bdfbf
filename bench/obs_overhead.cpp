// Observability overhead gate (BENCH_obs_overhead.json): default-on obs
// against obs::set_enabled(false), paired inside one process. Every round
// times one train_step of a guarded bini322 MLP and of the planned-conv Cnn
// with obs on and one with obs off, back to back, alternating which side
// runs first; exits nonzero when the median total on/off ratio passes the
// budget. Protocol and its noise: docs/OBSERVABILITY.md §Overhead.
//
// Usage: obs_overhead [--json=BENCH_obs_overhead.json]

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "benchutil/json_writer.h"
#include "nn/cnn.h"
#include "nn/guarded_backend.h"
#include "nn/mlp.h"
#include "obs/trace.h"
#include "support/cli.h"
#include "support/rng.h"
#include "support/timer.h"

namespace {

using namespace apa;

constexpr double kBudget = 1.02;
constexpr int kRounds = 200;
constexpr int kThreads = 2;

double quantile(std::vector<double> v, double q) {
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

struct Workload {
  std::string name;
  std::function<void()> step;       ///< one train_step
  std::vector<double> on_s, off_s;  ///< seconds per round

  double timed_step(bool obs_on) {
    obs::set_enabled(obs_on);
    const WallTimer timer;
    step();
    return timer.seconds();
  }
};

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

  std::vector<Workload> workloads = {
      {"mlp_bini322_guarded",
       [&] { mlp.train_step(mlp_x.view().as_const(), mlp_y); }, {}, {}},
      {"cnn_planned_guarded",
       [&] { cnn.train_step(cnn_x.view().as_const(), cnn_y); }, {}, {}}};
  for (auto& w : workloads) {  // warm pools, plans and phase interns
    for (int i = 0; i < 4; ++i) w.timed_step(i % 2 == 0);
  }
  Workload total{"total", {}, {}, {}};
  for (int round = 0; round < kRounds; ++round) {
    total.on_s.push_back(0.0);
    total.off_s.push_back(0.0);
    for (std::size_t i = 0; i < workloads.size(); ++i) {
      Workload& w = workloads[i];
      const bool on_first = (round + static_cast<int>(i)) % 2 == 0;
      const double first = w.timed_step(on_first);
      const double second = w.timed_step(!on_first);
      w.on_s.push_back(on_first ? first : second);
      w.off_s.push_back(on_first ? second : first);
      total.on_s.back() += w.on_s.back();
      total.off_s.back() += w.off_s.back();
    }
  }
  obs::set_enabled(true);
  workloads.push_back(std::move(total));

  bench::BenchJsonWriter json("obs_overhead");
  json.meta().set("budget_ratio", kBudget).set("rounds", kRounds).set("threads", kThreads);
  std::printf("obs_overhead: %d rounds, %d threads; median step seconds and "
              "on/off ratio quartiles\n\n%-20s %8s %8s %8s %8s %8s\n",
              kRounds, kThreads, "workload", "on-s", "off-s", "q1", "median",
              "q3");
  double ratio = 0.0;
  for (const Workload& w : workloads) {
    std::vector<double> ratios(w.on_s.size());
    for (std::size_t r = 0; r < ratios.size(); ++r) ratios[r] = w.on_s[r] / w.off_s[r];
    const double on = quantile(w.on_s, 0.5), off = quantile(w.off_s, 0.5);
    const double q1 = quantile(ratios, 0.25), q3 = quantile(ratios, 0.75);
    ratio = quantile(ratios, 0.5);  // the last row, "total", gates
    std::printf("%-20s %8.4f %8.4f %8.4f %8.4f %8.4f\n", w.name.c_str(), on,
                off, q1, ratio, q3);
    json.add_row(obs::JsonRecord()
                     .set("workload", w.name)
                     .set("on_seconds_median", on)
                     .set("off_seconds_median", off)
                     .set("ratio_q1", q1)
                     .set("ratio_median", ratio)
                     .set("ratio_q3", q3));
  }
  const bool pass = ratio <= kBudget;
  json.meta().set("pass", pass);
  json.write(args.get("json", "BENCH_obs_overhead.json"));
  std::printf("total median on/off ratio %.4f (budget %.2f): %s\n", ratio,
              kBudget, pass ? "PASS" : "FAIL");
  return pass ? EXIT_SUCCESS : EXIT_FAILURE;
}
