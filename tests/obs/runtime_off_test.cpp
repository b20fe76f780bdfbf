// The runtime off-switch: with obs::set_enabled(false), guarded training,
// routing and cost calibration keep working on their own stats, while the
// phase and counter registries, the health monitor and the flight view record
// nothing.

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <vector>

#include "nn/guarded_backend.h"
#include "nn/mlp.h"
#include "obs/flight.h"
#include "obs/health.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "support/rng.h"
#include "tune/calibrate.h"
#include "tune/router.h"

namespace {

using namespace apa;

TEST(RuntimeOff, TrainingRoutingAndCalibrationRunWhileObsRecordsNothing) {
  struct EnableOnExit {
    ~EnableOnExit() { obs::set_enabled(true); }
  } restore;
  // A cold registry, so calibrate() cannot reuse earlier tests' traffic.
  obs::reset_counters();
  obs::reset_phases();
  obs::health().reset();
  obs::reset_flight();
  obs::set_enabled(false);

  nn::BackendOptions options;
  options.min_dim_for_fast = 32;
  Rng rng(5);
  Matrix<float> x(96, 96), w(96, 96), y(96, 96);
  fill_random_uniform<float>(x.view(), rng, 0.0f, 1.0f);
  fill_random_uniform<float>(w.view(), rng);
  std::vector<int> labels(96);
  for (auto& l : labels) l = static_cast<int>(rng.next_below(10));

  const auto guarded = std::make_shared<nn::GuardedBackend>("bini322", options);
  nn::MlpConfig config;
  config.layer_sizes = {96, 96, 96, 10};
  nn::Mlp mlp(config, guarded,
              std::make_shared<nn::MatmulBackend>("classical", options));
  EXPECT_TRUE(std::isfinite(mlp.train_step(x.view().as_const(), labels)));
  EXPECT_GT(guarded->stats().checks_run, 0u);

  tune::RouterOptions routing;
  routing.backend = options;
  routing.cpu = "runtime-off-test";
  routing.measure_override = [](const tune::RouterCandidate& c, index_t,
                                index_t, index_t) {
    return c.algorithm == "bini322" ? 1.0 : 2.0;
  };
  const tune::TunedBackend router(routing);
  for (int call = 0; call < 64 && !router.is_decided(96, 96, 96); ++call) {
    router.matmul(x.view().as_const(), w.view().as_const(), y.view());
  }
  router.matmul(x.view().as_const(), w.view().as_const(), y.view());
  EXPECT_GT(router.stats().decided_calls, 0u);

  const tune::CostCalibration cal = tune::calibrate(96);
  EXPECT_TRUE(cal.valid());
  EXPECT_FALSE(cal.from_obs);  // the registry stayed dark: wall-clock fallback

  obs::flight_note("test.runtime_off", 1, 2);
  EXPECT_TRUE(obs::phase_delta(obs::phase_totals(), {}).empty());
  for (const auto& c : obs::counter_samples()) EXPECT_EQ(c.value, 0u) << c.name;
  EXPECT_TRUE(obs::health().snapshot().empty());
  EXPECT_TRUE(obs::flight_events().empty());
}

}  // namespace
