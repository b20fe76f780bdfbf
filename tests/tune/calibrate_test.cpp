#include "tune/calibrate.h"

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>

#include "blas/plan.h"
#include "core/fastmm.h"
#include "core/registry.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "support/rng.h"

namespace apa::tune {
namespace {

/// Pulls `field` out of the BENCH_prepack.json row matching (backend, batch);
/// the committed bench artifact is the ground truth the calibrated model must
/// rank consistently with.
double bench_seconds(const std::string& json, const std::string& backend,
                     int batch) {
  const std::string row_key =
      "\"backend\": \"" + backend + "\", \"batch\": " + std::to_string(batch);
  const std::size_t row = json.find(row_key);
  EXPECT_NE(row, std::string::npos) << "no row for " << row_key;
  const std::string field_key = "\"plain_seconds\": ";
  const std::size_t field = json.find(field_key, row);
  EXPECT_NE(field, std::string::npos);
  return std::stod(json.substr(field + field_key.size()));
}

TEST(CalibrateTest, CalibrateAlwaysProducesUsableConstants) {
  const CostCalibration cal = calibrate(96);
  ASSERT_TRUE(cal.valid());
  EXPECT_GT(cal.gemm_gflops, 0.0);
  EXPECT_GT(cal.add_bandwidth, 0.0);
  // With obs enabled the probe traffic itself seeds the registry.
  EXPECT_TRUE(cal.from_obs);
}

TEST(CalibrateTest, FromObsIsInvalidOnAColdRegistry) {
  obs::reset_counters();
  const CostCalibration cal = calibrate_from_obs();
  EXPECT_FALSE(cal.valid());
  EXPECT_FALSE(cal.from_obs);
}

TEST(CalibrateTest, OrdinaryTrafficSeedsTheRegistryCalibration) {
  obs::reset_counters();
  constexpr index_t kDim = 160;
  Rng rng(9);
  Matrix<float> a(kDim, kDim), b(kDim, kDim), c(kDim, kDim);
  fill_random_uniform<float>(a.view(), rng);
  fill_random_uniform<float>(b.view(), rng);
  blas::gemm_fused<float>(blas::Trans::kNo, blas::Trans::kNo,
                          a.view().as_const(), b.view().as_const(), c.view());
  const core::FastMatmul apa("bini322");
  apa.multiply(a.view().as_const(), b.view().as_const(), c.view());

  const CostCalibration cal = calibrate_from_obs();
  ASSERT_TRUE(cal.valid()) << "instrumented traffic did not calibrate";
  EXPECT_TRUE(cal.from_obs);
  // The flop counter must cover at least the one explicit gemm above (the APA
  // multiply adds its sub-gemms on top).
  EXPECT_GE(cal.gemm_flops, 2ull * kDim * kDim * kDim);
  EXPECT_GT(cal.gemm_ns, 0u);
  EXPECT_GT(cal.combine_bytes, 0u);
  EXPECT_GT(cal.combine_ns, 0u);
}

TEST(CalibrateTest, PredictionsScaleWithProblemSize) {
  CostCalibration cal;
  cal.gemm_gflops = 40.0;
  cal.add_bandwidth = 8e9;
  EXPECT_GT(cal.predict_classical_seconds(512, 512, 512),
            cal.predict_classical_seconds(256, 256, 256));
  const core::Rule& rule = core::rule_by_name("bini322");
  EXPECT_GT(cal.predict_apa_seconds(rule, 512, 512, 512),
            cal.predict_apa_seconds(rule, 256, 256, 256));
  EXPECT_GT(cal.cost_inputs(rule, 512, 512, 512).sub_gemm_seconds, 0.0);
}

// Regression for the PR-4 leftover: the cost-model bench used hard-coded
// machine constants; now a calibrated model must rank the recorded
// BENCH_prepack.json regimes the way the hardware did — classical wins the
// small-batch regime, bini322 closes the gap as the batch grows (the shared
// operand combines amortize). The assertion is on the *relative ordering*, a
// machine-independent structural property, so the test holds on any host.
TEST(CalibrateTest, CalibratedModelRanksBenchRegimesCorrectly) {
  std::ifstream in(APAMM_REPO_DIR "/BENCH_prepack.json");
  ASSERT_TRUE(in.good()) << "missing BENCH_prepack.json";
  std::stringstream buffer;
  buffer << in.rdbuf();
  const std::string json = buffer.str();

  const double measured_small_ratio = bench_seconds(json, "bini322", 128) /
                                      bench_seconds(json, "classical", 128);
  const double measured_large_ratio = bench_seconds(json, "bini322", 4096) /
                                      bench_seconds(json, "classical", 4096);
  // The recorded hardware direction the model must reproduce.
  ASSERT_LT(measured_large_ratio, measured_small_ratio);

  const CostCalibration cal = calibrate(96);
  ASSERT_TRUE(cal.valid());
  const core::Rule& rule = core::rule_by_name("bini322");
  const auto predicted_ratio = [&](index_t batch) {
    return cal.predict_apa_seconds(rule, batch, 4096, 4096) /
           cal.predict_classical_seconds(batch, 4096, 4096);
  };
  EXPECT_LT(predicted_ratio(4096), predicted_ratio(128))
      << "calibrated model does not rank the batch regimes like the bench";
}

}  // namespace
}  // namespace apa::tune
