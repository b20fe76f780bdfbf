#pragma once
// Per-machine cost-model calibration from the obs counter/histogram registry.
//
// The analytic cost model (core/cost_model.h, paper section 2.4) predicts an
// APA step's time from two machine constants: the achieved gemm throughput of
// the sub-products and the streaming bandwidth of the write-once linear
// combinations. This module derives them from counters the instrumented
// kernels already emit on ordinary traffic:
//
//   gemm_gflops   = "blas.gemm.flops"  counter / "blas.gemm"     phase time
//   add_bandwidth = "core.combine.bytes" counter / "core.combine_*" phase time
//
// so any process that has run real work (a training epoch, a warmup batch)
// can calibrate for free. When the registry is empty — obs compiled out, or
// a cold process — calibrate() falls back to short wall-clock probe
// workloads, keeping every caller functional under -DAPAMM_OBS=OFF.

#include <cstdint>

#include "core/cost_model.h"
#include "core/rule.h"
#include "support/matrix.h"

namespace apa::tune {

struct CostCalibration {
  double gemm_gflops = 0.0;    ///< achieved classical-gemm rate, incl. packing
  double add_bandwidth = 0.0;  ///< achieved combine bandwidth, bytes/second
  /// Raw observations backing the constants (zero when wall-clock probed).
  std::uint64_t gemm_flops = 0;
  std::uint64_t gemm_ns = 0;
  std::uint64_t combine_bytes = 0;
  std::uint64_t combine_ns = 0;
  /// True when both constants came from the obs registry; false when the
  /// wall-clock fallback produced them.
  bool from_obs = false;

  [[nodiscard]] bool valid() const {
    return gemm_gflops > 0.0 && add_bandwidth > 0.0;
  }

  /// Predicted seconds for one classical gemm of the given logical shape.
  [[nodiscard]] double predict_classical_seconds(index_t m, index_t k,
                                                 index_t n) const;

  /// CostInputs for predict_one_step at (m, k, n): the sub-gemm time is the
  /// calibrated throughput applied to the (m/rule.m, k/rule.k, n/rule.n)
  /// sub-problem, the bandwidth is the calibrated combine bandwidth.
  [[nodiscard]] core::CostInputs cost_inputs(const core::Rule& rule, index_t m,
                                             index_t k, index_t n) const;

  /// Predicted seconds for one APA step of `rule` at (m, k, n).
  [[nodiscard]] double predict_apa_seconds(const core::Rule& rule, index_t m,
                                           index_t k, index_t n) const;
};

/// Builds a calibration from whatever the obs registry currently holds.
/// Returns an invalid (all-zero) calibration when either signal is missing —
/// callers decide whether to probe (calibrate) or keep defaults.
[[nodiscard]] CostCalibration calibrate_from_obs();

/// Calibration with guaranteed validity: uses the registry when it already
/// holds enough traffic; otherwise runs short probe workloads (one planned
/// gemm and one APA multiply at `probe_dim`) to populate it and re-reads. If
/// the registry still reports nothing (APAMM_OBS=OFF), measures the same
/// probes by wall clock. Probe cost is a few milliseconds at the default dim.
[[nodiscard]] CostCalibration calibrate(index_t probe_dim = 384);

}  // namespace apa::tune
