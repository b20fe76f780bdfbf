#include "tune/router.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "nn/mlp.h"
#include "obs/json_min.h"
#include "obs/telemetry.h"
#include "support/rng.h"

namespace apa::tune {
namespace {

constexpr index_t kDim = 96;
constexpr char kTestCpu[] = "router-test-cpu x8";

/// Deterministic cost function: bini322 one-step is always the cheapest,
/// classical-plain the most expensive. Replaces the wall clock so explore
/// outcomes are reproducible bit-for-bit.
double fixed_cost(const RouterCandidate& c, index_t /*m*/, index_t /*k*/,
                  index_t /*n*/) {
  if (c.algorithm == "bini322") return c.steps == 1 ? 1.0 : 2.0;
  return c.plan == PlanVariant::kPlain ? 8.0 : 4.0;
}

RouterOptions test_options() {
  RouterOptions options;
  options.algorithms = {"bini322"};
  options.backend.min_dim_for_fast = 32;
  options.cpu = kTestCpu;
  options.measure_override = fixed_cost;
  return options;
}

struct Problem {
  Matrix<float> a{kDim, kDim}, b{kDim, kDim}, c{kDim, kDim};
  Problem() {
    Rng rng(7);
    fill_random_uniform<float>(a.view(), rng);
    fill_random_uniform<float>(b.view(), rng);
  }
  void run(const nn::MatmulBackend& backend) {
    backend.matmul(a.view().as_const(), b.view().as_const(), c.view());
  }
};

/// Drives one shape until the router commits (bounded, so a regression cannot
/// hang the suite). Returns the number of calls it took.
int drive_to_decision(const TunedBackend& backend, Problem& problem) {
  for (int call = 1; call <= 64; ++call) {
    problem.run(backend);
    if (backend.is_decided(kDim, kDim, kDim)) return call;
  }
  ADD_FAILURE() << "router never committed a decision";
  return -1;
}

/// The one route_decision record a sink received, parsed back.
obstools::JsonValue route_decision(const std::string& path) {
  std::vector<obstools::JsonValue> decisions;
  std::ifstream in(path);
  for (std::string line; std::getline(in, line);) {
    obstools::JsonValue value;
    std::string error;
    EXPECT_TRUE(obstools::parse_json(line, &value, &error)) << error;
    if (value.get_str("type", "") == "route_decision") {
      decisions.push_back(std::move(value));
    }
  }
  EXPECT_EQ(decisions.size(), 1u);
  return decisions.empty() ? obstools::JsonValue{} : decisions.front();
}

std::string label(const std::string& algorithm, long long steps,
                  const std::string& plan) {
  return algorithm + "/s" + std::to_string(steps) + "/" + plan;
}

/// label() of each entry of a record's `key` array, in order.
std::vector<std::string> ladder(const obstools::JsonValue& record,
                                std::string_view key) {
  std::vector<std::string> out;
  const obstools::JsonValue* entries = record.find(key);
  if (entries == nullptr) return out;
  for (const obstools::JsonValue& c : entries->array) {
    out.push_back(label(c.get_str("algorithm", ""), c.get_int("steps", 0),
                        c.get_str("plan", "")));
  }
  return out;
}

class TunedRouterTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = (std::filesystem::temp_directory_path() /
             ("apamm_tune_router_" +
              std::string(::testing::UnitTest::GetInstance()
                              ->current_test_info()
                              ->name()) +
              ".bin"))
                .string();
  }
  void TearDown() override {
    std::remove(path_.c_str());
    std::remove((path_ + ".tmp").c_str());
    std::remove(telemetry_path().c_str());
  }
  [[nodiscard]] std::string telemetry_path() const { return path_ + ".jsonl"; }

  /// Drives a fresh router over `options` to its decision at kDim^3 and
  /// returns the route_decision record it wrote.
  obstools::JsonValue decide(RouterOptions options) {
    obs::TelemetrySink sink(telemetry_path());
    options.telemetry = &sink;
    const TunedBackend backend(options);
    Problem problem;
    drive_to_decision(backend, problem);
    route_ = backend.route_for(kDim, kDim, kDim);
    return route_decision(telemetry_path());
  }

  std::string path_;
  std::optional<TunedChoice> route_;
};

// The default ladder at 96^3 with the 32 cutoff: both classical plan variants,
// then bini322 at one and two steps.
const std::vector<std::string> kFullLadder = {
    "classical/s1/prepack", "classical/s1/plain", "bini322/s1/prepack",
    "bini322/s2/prepack"};

TEST_F(TunedRouterTest, ExploresThenCommitsTheCheapestCandidate) {
  const TunedBackend backend(test_options());
  Problem problem;
  drive_to_decision(backend, problem);

  const RouterStats stats = backend.stats();
  EXPECT_EQ(stats.decisions, 1u);
  EXPECT_GT(stats.explore_samples, 0u);
  EXPECT_EQ(stats.static_calls, 0u);

  const auto route = backend.route_for(kDim, kDim, kDim);
  ASSERT_TRUE(route.has_value());
  EXPECT_EQ(route->algorithm, "bini322");
  EXPECT_EQ(route->steps, 1);
  EXPECT_EQ(route->expected_seconds, 1.0);  // the override's value, verbatim
  EXPECT_GT(route->lambda, 0.0);  // persisted effective lambda, not the 0 sentinel

  // Post-decision calls are exploit-only.
  const std::uint64_t explored = stats.explore_samples;
  problem.run(backend);
  EXPECT_EQ(backend.stats().explore_samples, explored);
  EXPECT_GT(backend.stats().decided_calls, 0u);
}

TEST_F(TunedRouterTest, EveryPhaseServesACorrectProduct) {
  const TunedBackend backend(test_options());
  const nn::MatmulBackend exact("classical");
  Problem problem;
  Matrix<float> reference(kDim, kDim);
  exact.matmul(problem.a.view().as_const(), problem.b.view().as_const(),
               reference.view());
  float ref_scale = 0.0f;
  for (index_t i = 0; i < kDim; ++i) {
    for (index_t j = 0; j < kDim; ++j) {
      ref_scale = std::max(ref_scale, std::abs(reference.view()(i, j)));
    }
  }
  double worst = 0.0;
  for (int call = 0; call < 16; ++call) {  // spans explore and exploit
    problem.run(backend);
    worst = std::max(worst,
                     max_abs_diff(problem.c.view(), reference.view()));
  }
  // The worst explored candidate (two-step bini322) sits near 1% relative
  // error; a routing bug (wrong operand, skipped product) is O(ref_scale).
  EXPECT_LT(worst, 0.02 * ref_scale);
}

TEST_F(TunedRouterTest, BelowMinDimIsStaticAndUntracked) {
  const TunedBackend backend(test_options());
  Matrix<float> a(16, 16), b(16, 16), c(16, 16);
  Rng rng(3);
  fill_random_uniform<float>(a.view(), rng);
  fill_random_uniform<float>(b.view(), rng);
  backend.matmul(a.view().as_const(), b.view().as_const(), c.view());
  EXPECT_EQ(backend.stats().static_calls, 1u);
  EXPECT_EQ(backend.stats().explore_samples, 0u);
  EXPECT_TRUE(backend.choice_table().empty());
}

TEST_F(TunedRouterTest, DisabledRouterBehavesStatically) {
  RouterOptions options = test_options();
  options.enabled = false;
  const TunedBackend backend(options);
  Problem problem;
  for (int i = 0; i < 4; ++i) problem.run(backend);
  EXPECT_EQ(backend.stats().static_calls, 4u);
  EXPECT_TRUE(backend.choice_table().empty());
  EXPECT_FALSE(backend.save());  // no cache path configured
}

TEST_F(TunedRouterTest, RouteDecisionListsEveryExploredCandidate) {
  struct Explored {
    int calls = 0;
    double seconds = 0.0;
  };
  std::map<std::string, Explored> explored;  // by ladder label
  RouterOptions options = test_options();
  options.measure_override = [&explored](const RouterCandidate& c, index_t m,
                                         index_t k, index_t n) {
    Explored& e = explored[label(c.algorithm, c.steps, to_string(c.plan))];
    ++e.calls;
    e.seconds = fixed_cost(c, m, k, n);
    return e.seconds;
  };
  const obstools::JsonValue record = decide(options);

  const std::vector<std::string> names = ladder(record, "candidates");
  EXPECT_EQ(names, kFullLadder);
  EXPECT_EQ(record.find("pruned"), nullptr);  // no calibration, no prior
  ASSERT_EQ(explored.size(), names.size());
  const std::vector<obstools::JsonValue>& entries = record.find("candidates")->array;
  for (std::size_t i = 0; i < names.size(); ++i) {
    const Explored& e = explored[names[i]];
    EXPECT_EQ(e.calls, 2 * (options.measure_reps + options.warmup_reps)) << names[i];
    // Warm-up calls run but are never recorded.
    EXPECT_EQ(entries[i].get_int("samples", -1), 2 * options.measure_reps) << names[i];
    EXPECT_EQ(entries[i].get_num("best_seconds", -1.0), e.seconds) << names[i];
    EXPECT_EQ(entries[i].get_str("strategy", ""), "sequential") << names[i];
  }
}

TEST_F(TunedRouterTest, CostPriorKeepsCandidatesItPredictsProfitable) {
  RouterOptions options = test_options();
  options.cost.gemm_gflops = 45.0;
  options.cost.add_bandwidth = 1e15;  // additions ~free: every step pays
  const obstools::JsonValue record = decide(options);
  EXPECT_EQ(ladder(record, "candidates"), kFullLadder);
  EXPECT_TRUE(ladder(record, "pruned").empty());
  ASSERT_TRUE(route_.has_value());
  EXPECT_EQ(route_->algorithm, "bini322");
}

TEST_F(TunedRouterTest, CostPriorPrunesCandidatesItPredictsUnprofitable) {
  RouterOptions options = test_options();
  bool measured_apa = false;
  options.measure_override = [&measured_apa](const RouterCandidate& c,
                                             index_t m, index_t k, index_t n) {
    measured_apa = measured_apa || c.algorithm != "classical";
    return fixed_cost(c, m, k, n);
  };
  options.cost.gemm_gflops = 45.0;
  options.cost.add_bandwidth = 1.0;  // additions ~infinitely slow: none pays
  const obstools::JsonValue record = decide(options);

  EXPECT_FALSE(measured_apa);  // bini322 is cheapest, yet never explored
  EXPECT_EQ(ladder(record, "candidates"),
            (std::vector<std::string>{"classical/s1/prepack", "classical/s1/plain"}));
  EXPECT_EQ(ladder(record, "pruned"),
            (std::vector<std::string>{"bini322/s1/prepack", "bini322/s2/prepack"}));
  for (const obstools::JsonValue& c : record.find("pruned")->array) {
    EXPECT_GT(c.get_num("predicted_seconds", 0.0),
              options.cost.predict_classical_seconds(kDim, kDim, kDim));
  }
  ASSERT_TRUE(route_.has_value());
  EXPECT_EQ(route_->algorithm, "classical");
}

TEST_F(TunedRouterTest, InvalidCostCalibrationLeavesLadderUnchanged) {
  EXPECT_EQ(ladder(decide(test_options()), "candidates"), kFullLadder);

  RouterOptions half_measured = test_options();
  half_measured.cost.add_bandwidth = 1.0;  // no gemm rate: not valid()
  ASSERT_FALSE(half_measured.cost.valid());
  const obstools::JsonValue record = decide(half_measured);
  EXPECT_EQ(ladder(record, "candidates"), kFullLadder);
  EXPECT_EQ(record.find("pruned"), nullptr);
  ASSERT_TRUE(route_.has_value());
  EXPECT_EQ(route_->algorithm, "bini322");
}

TEST_F(TunedRouterTest, IdenticalProcessesProduceIdenticalTables) {
  // Two fresh "processes": same options, same override, same call sequence.
  const TunedBackend first(test_options());
  const TunedBackend second(test_options());
  Problem problem;
  drive_to_decision(first, problem);
  drive_to_decision(second, problem);
  EXPECT_EQ(first.choice_table(), second.choice_table());
}

TEST_F(TunedRouterTest, ColdAndWarmConvergeToTheSameTable) {
  RouterOptions options = test_options();
  options.cache_path = path_;
  const TunedBackend cold(options);
  Problem problem;
  drive_to_decision(cold, problem);
  EXPECT_GT(cold.stats().cache_saves, 0u);

  const TunedBackend warm(options);
  EXPECT_EQ(warm.stats().cache_status, CacheStatus::kLoaded);
  EXPECT_EQ(warm.stats().warm_entries, 1u);
  for (int i = 0; i < 4; ++i) problem.run(warm);
  EXPECT_EQ(warm.stats().explore_samples, 0u);  // warm-start: no exploration
  EXPECT_EQ(warm.choice_table(), cold.choice_table());
}

// Regression for a thread-safety-analysis finding: the constructor used to
// populate state_->entries / stats from the warm cache with no lock held,
// even though State is shared (via the state_ shared_ptr) and every other
// access is mutex-guarded. The load now happens under the state lock; this
// test pins the behavioral contract around that path — a warm router serves
// its loaded decisions immediately and consistently when many threads hit it
// straight out of the constructor (run under TSan in CI for the race itself).
TEST_F(TunedRouterTest, WarmLoadIsVisibleToImmediateConcurrentReaders) {
  RouterOptions options = test_options();
  options.cache_path = path_;
  {
    const TunedBackend cold(options);
    Problem problem;
    drive_to_decision(cold, problem);
  }

  const TunedBackend warm(options);
  constexpr int kThreads = 8;
  std::atomic<int> routed{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&warm, &routed] {
      Problem problem;
      for (int i = 0; i < 8; ++i) {
        ASSERT_TRUE(warm.is_decided(kDim, kDim, kDim));
        const auto route = warm.route_for(kDim, kDim, kDim);
        ASSERT_TRUE(route.has_value());
        EXPECT_EQ(route->algorithm, "bini322");
        problem.run(warm);
        ++routed;
      }
    });
  }
  for (std::thread& th : threads) th.join();

  EXPECT_EQ(routed.load(), kThreads * 8);
  const RouterStats stats = warm.stats();
  EXPECT_EQ(stats.cache_status, CacheStatus::kLoaded);
  EXPECT_EQ(stats.warm_entries, 1u);
  EXPECT_EQ(stats.explore_samples, 0u);  // every call exploited the warm entry
  EXPECT_EQ(stats.decided_calls, static_cast<std::uint64_t>(kThreads) * 8);
}

TEST_F(TunedRouterTest, WarmRoutersTrainBitIdentically) {
  // The determinism contract of docs/TUNING.md: same cache file + same seed
  // => bit-identical routing and bit-identical training loss across fresh
  // router instances (stand-ins for fresh processes).
  RouterOptions options = test_options();
  options.cache_path = path_;
  {
    const TunedBackend cold(options);
    Problem problem;
    drive_to_decision(cold, problem);
  }

  nn::MlpConfig config;
  config.layer_sizes = {32, kDim, kDim, 10};
  config.seed = 11;
  Matrix<float> x(kDim, 32);
  Rng rng(5);
  fill_random_uniform<float>(x.view(), rng);
  std::vector<int> labels(kDim);
  for (index_t i = 0; i < kDim; ++i) labels[i] = static_cast<int>(i % 10);

  const auto run_process = [&] {
    auto tuned = std::make_shared<const TunedBackend>(options);
    EXPECT_EQ(tuned->stats().warm_entries, 1u);
    nn::Mlp model(config, tuned,
                  std::make_shared<const nn::MatmulBackend>("classical"));
    std::vector<double> losses;
    for (int step = 0; step < 5; ++step) {
      losses.push_back(model.train_step(x.view().as_const(), labels));
    }
    EXPECT_EQ(tuned->stats().explore_samples, 0u);
    return losses;
  };

  const std::vector<double> first = run_process();
  const std::vector<double> second = run_process();
  ASSERT_EQ(first.size(), second.size());
  for (std::size_t i = 0; i < first.size(); ++i) {
    EXPECT_EQ(first[i], second[i]) << "loss diverged at step " << i;
  }
}

TEST_F(TunedRouterTest, CorruptCacheFallsBackColdThenHeals) {
  {
    std::ofstream out(path_, std::ios::binary);
    out << "APAMM_TUN1 but then complete garbage follows here";
  }
  RouterOptions options = test_options();
  options.cache_path = path_;
  const TunedBackend backend(options);
  EXPECT_EQ(backend.stats().cache_status, CacheStatus::kCorrupt);
  EXPECT_EQ(backend.stats().warm_entries, 0u);

  // Cold tuning proceeds normally and the next autosave replaces the
  // corrupt file with a valid one.
  Problem problem;
  drive_to_decision(backend, problem);
  const CacheLoad healed = load_tuning_cache(path_, kTestCpu);
  EXPECT_EQ(healed.status, CacheStatus::kLoaded) << healed.detail;
  EXPECT_EQ(healed.entries.size(), 1u);
}

// Quarantine tripped *after* the tuner decided on an APA route: the guard
// overrides the tuner call-by-call (the decision table keeps the APA entry),
// and clearing the quarantine restores the tuned route.
TEST_F(TunedRouterTest, QuarantineOverridesDecisionUntilCleared) {
  auto inject = std::make_shared<std::atomic<bool>>(false);
  RouterOptions options = test_options();
  options.guard.quarantine_after = 1;
  options.guard.inject_fault = [inject](index_t, index_t, index_t,
                                        MatrixView<float> c) {
    if (inject->load()) c(0, 0) += 1e6f;
  };
  const TunedBackend backend(options);
  Problem problem;
  drive_to_decision(backend, problem);
  ASSERT_EQ(backend.route_for(kDim, kDim, kDim)->algorithm, "bini322");

  // Fault the routed product: the guard catches it, reruns with exact gemm
  // (the caller still gets a sound C), and quarantines the shape.
  inject->store(true);
  problem.run(backend);
  EXPECT_TRUE(backend.is_quarantined(kDim, kDim, kDim));
  const nn::GuardStats guard = backend.guard_stats();
  EXPECT_GE(guard.total_trips(), 1u);
  EXPECT_GE(guard.fallback_reruns, 1u);
  EXPECT_EQ(guard.shapes_quarantined, 1u);

  // While quarantined the route is overridden to classical...
  EXPECT_EQ(backend.route_for(kDim, kDim, kDim)->algorithm, "classical");
  const std::uint64_t overrides_before = backend.stats().quarantine_overrides;
  problem.run(backend);
  EXPECT_GT(backend.stats().quarantine_overrides, overrides_before);
  // ...but the committed decision is preserved, so lifting the quarantine
  // resumes the tuned APA route without re-exploring.
  inject->store(false);
  backend.clear_quarantine(kDim, kDim, kDim);
  EXPECT_FALSE(backend.is_quarantined(kDim, kDim, kDim));
  EXPECT_EQ(backend.route_for(kDim, kDim, kDim)->algorithm, "bini322");
  const std::uint64_t explored = backend.stats().explore_samples;
  problem.run(backend);
  EXPECT_EQ(backend.stats().explore_samples, explored);
}

// Quarantine tripped *during* exploration: the guard outranks the stopwatch,
// so the committed decision itself must avoid the APA rule even though the
// deterministic cost function scores it cheapest.
TEST_F(TunedRouterTest, QuarantineDuringExploreCommitsClassical) {
  RouterOptions options = test_options();
  options.guard.quarantine_after = 1;
  options.guard.inject_fault = [](index_t, index_t, index_t,
                                  MatrixView<float> c) {
    c(0, 0) += 1e6f;
  };
  const TunedBackend backend(options);
  Problem problem;
  drive_to_decision(backend, problem);

  const auto route = backend.route_for(kDim, kDim, kDim);
  ASSERT_TRUE(route.has_value());
  EXPECT_EQ(route->algorithm, "classical");
  EXPECT_GE(backend.stats().quarantine_overrides, 1u);
  EXPECT_TRUE(backend.is_quarantined(kDim, kDim, kDim));
}

// Shared-cache concurrency (the TSan job runs this under -L tune): 8 threads
// hammer one router at the same shape plus a private shape each. Every call
// must be served, the shared shape must settle on the deterministic winner,
// and the counters must reconcile exactly.
TEST_F(TunedRouterTest, EightThreadsShareOneRouterSafely) {
  RouterOptions options = test_options();
  options.cache_path = path_;
  const TunedBackend backend(options);
  constexpr int kThreads = 8;
  constexpr int kCallsPerThread = 24;

  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&backend, t] {
      Problem shared;
      // Distinct per-thread shape: (kDim + 32*t) x kDim x kDim.
      const index_t rows = kDim + 32 * t;
      Matrix<float> a(rows, kDim), b(kDim, kDim), c(rows, kDim);
      Rng rng(static_cast<std::uint64_t>(t) + 1);
      fill_random_uniform<float>(a.view(), rng);
      fill_random_uniform<float>(b.view(), rng);
      for (int i = 0; i < kCallsPerThread; ++i) {
        shared.run(backend);
        backend.matmul(a.view().as_const(), b.view().as_const(), c.view());
      }
    });
  }
  for (auto& thread : threads) thread.join();

  EXPECT_TRUE(backend.is_decided(kDim, kDim, kDim));
  const auto route = backend.route_for(kDim, kDim, kDim);
  ASSERT_TRUE(route.has_value());
  EXPECT_EQ(route->algorithm, "bini322");  // deterministic despite the races
  const RouterStats stats = backend.stats();
  EXPECT_EQ(stats.decided_calls + stats.explore_samples,
            static_cast<std::uint64_t>(2 * kThreads * kCallsPerThread));
  EXPECT_EQ(stats.static_calls, 0u);
  // Autosaves from racing deciders must serialize into a loadable file.
  const CacheLoad saved = load_tuning_cache(path_, kTestCpu);
  EXPECT_EQ(saved.status, CacheStatus::kLoaded) << saved.detail;
  EXPECT_EQ(saved.entries.size(), backend.choice_table().size());
}

}  // namespace
}  // namespace apa::tune
