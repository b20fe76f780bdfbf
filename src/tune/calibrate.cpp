#include "tune/calibrate.h"

#include <algorithm>
#include <string_view>

#include "blas/plan.h"
#include "core/fastmm.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "support/rng.h"
#include "support/timer.h"

namespace apa::tune {
namespace {

double flops_for(index_t m, index_t k, index_t n) {
  return 2.0 * static_cast<double>(m) * static_cast<double>(k) *
         static_cast<double>(n);
}

/// One planned gemm plus one APA multiply at the probe size: together they
/// exercise the "blas.gemm" and "core.combine_*" phases (and the matching
/// flop/byte counters) that calibration reads back. Returns the wall seconds
/// of each so the obs-off fallback reuses the same workloads.
struct ProbeTimes {
  double gemm_seconds = 0;
  index_t dim = 0;
};

ProbeTimes run_probes(index_t probe_dim) {
  // Counted so warm-start tests can assert the probe pass was skipped.
  APA_COUNTER_INC("tune.calibrate.probe_runs");
  Rng rng(0x7a11b0a7u);
  Matrix<float> a(probe_dim, probe_dim), b(probe_dim, probe_dim),
      c(probe_dim, probe_dim);
  fill_random_uniform<float>(a.view(), rng);
  fill_random_uniform<float>(b.view(), rng);

  ProbeTimes times;
  times.dim = probe_dim;
  double best = 0;
  for (int rep = 0; rep < 3; ++rep) {
    WallTimer timer;
    blas::gemm_fused<float>(blas::Trans::kNo, blas::Trans::kNo,
                            a.view().as_const(), b.view().as_const(), c.view());
    const double s = timer.seconds();
    best = (rep == 0) ? s : std::min(best, s);
  }
  times.gemm_seconds = best;

  // The APA probe records combine traffic; bini322 has multi-term input and
  // output combinations on every step, so the counter always moves.
  const core::FastMatmul apa("bini322");
  apa.multiply(a.view().as_const(), b.view().as_const(), c.view());
  return times;
}

}  // namespace

double CostCalibration::predict_classical_seconds(index_t m, index_t k,
                                                  index_t n) const {
  return flops_for(m, k, n) / (gemm_gflops * 1e9);
}

namespace {

/// The executor runs the rule on the block-divisible core and peels the
/// remainder with thin classical gemms; predictions round each dimension up
/// to the rule's block grid, which prices core plus fringe as one grid.
index_t pad_to(index_t dim, int block) {
  return (dim + block - 1) / block * block;
}

}  // namespace

core::CostInputs CostCalibration::cost_inputs(const core::Rule& rule, index_t m,
                                              index_t k, index_t n) const {
  core::CostInputs inputs;
  inputs.sub_gemm_seconds =
      flops_for(pad_to(m, rule.m) / rule.m, pad_to(k, rule.k) / rule.k,
                pad_to(n, rule.n) / rule.n) /
      (gemm_gflops * 1e9);
  inputs.add_bandwidth = add_bandwidth;
  return inputs;
}

double CostCalibration::predict_apa_seconds(const core::Rule& rule, index_t m,
                                            index_t k, index_t n) const {
  return core::predict_one_step(rule, pad_to(m, rule.m), pad_to(k, rule.k),
                                pad_to(n, rule.n), cost_inputs(rule, m, k, n))
      .total();
}

CostCalibration calibrate_from_obs() {
  CostCalibration c;
  c.gemm_flops = obs::counter_value("blas.gemm.flops");
  c.combine_bytes = obs::counter_value("core.combine.bytes");
  for (const auto& phase : obs::phase_totals()) {
    const std::string_view name = phase.name;
    if (name == "blas.gemm") {
      c.gemm_ns += phase.total_ns;
    } else if (name == "core.combine_a" || name == "core.combine_b" ||
               name == "core.combine_c") {
      c.combine_ns += phase.total_ns;
    }
  }
  // flops/ns == GFLOPS; bytes/ns * 1e9 == bytes/second.
  if (c.gemm_flops > 0 && c.gemm_ns > 0) {
    c.gemm_gflops =
        static_cast<double>(c.gemm_flops) / static_cast<double>(c.gemm_ns);
  }
  if (c.combine_bytes > 0 && c.combine_ns > 0) {
    c.add_bandwidth = 1e9 * static_cast<double>(c.combine_bytes) /
                      static_cast<double>(c.combine_ns);
  }
  c.from_obs = c.valid();
  return c;
}

CostCalibration calibrate(index_t probe_dim) {
  CostCalibration c = calibrate_from_obs();
  if (c.valid()) return c;

  const ProbeTimes probes = run_probes(probe_dim);
  c = calibrate_from_obs();
  if (c.valid()) return c;

  // Registry is dark (obs disabled): fall back to the wall clock for the
  // gemm rate and the dedicated streaming-bandwidth measurement.
  c.gemm_gflops = 1e-9 * flops_for(probes.dim, probes.dim, probes.dim) /
                  probes.gemm_seconds;
  c.add_bandwidth = core::measure_add_bandwidth();
  c.from_obs = false;
  return c;
}

}  // namespace apa::tune
