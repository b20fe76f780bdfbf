#include "nn/guarded_backend.h"

#include <algorithm>

#include "obs/flight.h"
#include "obs/health.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "support/check.h"

namespace apa::nn {

GuardStats guard_stats_delta(const GuardStats& before, const GuardStats& after) {
  GuardStats d;
  d.fast_calls = after.fast_calls - before.fast_calls;
  d.checks_run = after.checks_run - before.checks_run;
  d.trips_tolerance = after.trips_tolerance - before.trips_tolerance;
  d.trips_nonfinite = after.trips_nonfinite - before.trips_nonfinite;
  d.fallback_reruns = after.fallback_reruns - before.fallback_reruns;
  d.quarantined_calls = after.quarantined_calls - before.quarantined_calls;
  d.shapes_quarantined = after.shapes_quarantined - before.shapes_quarantined;
  d.worst_ratio = after.worst_ratio;
  return d;
}

GuardStats& operator+=(GuardStats& total, const GuardStats& other) {
  total.fast_calls += other.fast_calls;
  total.checks_run += other.checks_run;
  total.trips_tolerance += other.trips_tolerance;
  total.trips_nonfinite += other.trips_nonfinite;
  total.fallback_reruns += other.fallback_reruns;
  total.quarantined_calls += other.quarantined_calls;
  total.shapes_quarantined += other.shapes_quarantined;
  total.worst_ratio = std::max(total.worst_ratio, other.worst_ratio);
  return total;
}

GuardedBackend::GuardedBackend(const std::string& algorithm, BackendOptions options,
                               GuardPolicy policy)
    : MatmulBackend(algorithm, options),
      policy_(policy),
      classical_("classical", options),
      state_(std::make_shared<State>(policy.seed)) {
  APA_CHECK_MSG(policy_.quarantine_after >= 1, "quarantine threshold must be >= 1");
  APA_CHECK_MSG(policy_.check_period >= 1, "check period must be >= 1");
}

GuardStats GuardedBackend::stats() const {
  MutexLock lock(state_->mu);
  return state_->stats;
}

void GuardedBackend::reset_stats() {
  MutexLock lock(state_->mu);
  state_->stats = GuardStats{};
}

bool GuardedBackend::is_quarantined(index_t m, index_t k, index_t n) const {
  MutexLock lock(state_->mu);
  const auto it = state_->trips_by_shape.find(ShapeKey{m, k, n});
  return it != state_->trips_by_shape.end() && it->second >= policy_.quarantine_after;
}

void GuardedBackend::clear_quarantine(index_t m, index_t k, index_t n) const {
  MutexLock lock(state_->mu);
  state_->trips_by_shape.erase(ShapeKey{m, k, n});
}

int GuardedBackend::trips_for(index_t m, index_t k, index_t n) const {
  MutexLock lock(state_->mu);
  const auto it = state_->trips_by_shape.find(ShapeKey{m, k, n});
  return it != state_->trips_by_shape.end() ? it->second : 0;
}

void GuardedBackend::matmul_ex(MatrixView<const float> a, MatrixView<const float> b,
                               MatrixView<float> c, bool transpose_a, bool transpose_b,
                               const MatmulFusion& fusion) const {
  const index_t m = transpose_a ? a.cols : a.rows;
  const index_t k = transpose_a ? a.rows : a.cols;
  const index_t n = transpose_b ? b.rows : b.cols;

  // Classical dispatches are exact; nothing to certify (the epilogue fuses
  // into the gemm there).
  const core::FastMatmul* fast = dispatch_for(m, k, n);
  if (fast == nullptr) {
    MatmulBackend::matmul_ex(a, b, c, transpose_a, transpose_b, fusion);
    return;
  }

  const ShapeKey key{m, k, n};
  bool quarantined = false;
  bool check_this_call = false;
  {
    MutexLock lock(state_->mu);
    const auto it = state_->trips_by_shape.find(key);
    quarantined = it != state_->trips_by_shape.end() &&
                  it->second >= policy_.quarantine_after;
    if (quarantined) {
      ++state_->stats.quarantined_calls;
    } else {
      ++state_->stats.fast_calls;
      check_this_call =
          (state_->fast_call_count++ %
           static_cast<std::uint64_t>(policy_.check_period)) == 0;
    }
  }
  if (quarantined) {
    APA_COUNTER_INC("guard.quarantined_calls");
    classical_.matmul_ex(a, b, c, transpose_a, transpose_b, fusion);
    return;
  }
  APA_COUNTER_INC("guard.fast_calls");

  // The probe must certify op(A)*op(B) itself, so run the product with the
  // epilogue held back (prepacked panels still apply) and fold it in at the
  // end, after verification settles which product the caller receives.
  const MatmulFusion bare{.epilogue = {}, .plan = fusion.plan};
  MatmulBackend::matmul_ex(a, b, c, transpose_a, transpose_b, bare);
  if (policy_.inject_fault) policy_.inject_fault(m, k, n, c);

  bool rerun = false;
  if (check_this_call) {
    APA_TRACE_SCOPE("guard.verify");
    APA_COUNTER_INC("guard.checks_run");
    const double bound = core::ProductGuard::model_error_bound(
        fast->params(), fast->options().precision_bits, fast->options().steps);
    const core::ProductGuard guard(bound, policy_.guard);
    core::GuardReport report;
    {
      MutexLock lock(state_->mu);
      report = guard.verify(a, b, c.as_const(), state_->rng, transpose_a, transpose_b);
      ++state_->stats.checks_run;
      state_->stats.worst_ratio =
          std::max(state_->stats.worst_ratio, report.worst_ratio);
      if (!report.ok) {
        if (report.nonfinite_output) {
          ++state_->stats.trips_nonfinite;
        } else {
          ++state_->stats.trips_tolerance;
        }
        ++state_->stats.fallback_reruns;
        const int trips = ++state_->trips_by_shape[key];
        if (trips == policy_.quarantine_after) {
          ++state_->stats.shapes_quarantined;
          APA_COUNTER_INC("guard.shapes_quarantined");
        }
        rerun = true;
      }
    }
    // Feed the numerical-health monitor: the EWMA of residual/tolerance
    // ratios flags drift toward the bound long before a single check trips.
    obs::health().record(algorithm().c_str(), m, k, n, report.worst_ratio,
                         bound);
    if (!report.ok) {
      if (report.nonfinite_output) {
        APA_COUNTER_INC("guard.trips_nonfinite");
      } else {
        APA_COUNTER_INC("guard.trips_tolerance");
      }
      // Black-box breadcrumb + dump: the ratio in ppm (b < 0 marks a
      // non-finite output, where the ratio is meaningless).
      obs::flight_note("guard.trip", static_cast<std::int64_t>(m * n),
                       report.nonfinite_output
                           ? -1
                           : static_cast<std::int64_t>(report.worst_ratio *
                                                       1e6));
      obs::flight_dump("guard_trip");
    }
  }
  if (rerun) {
    // Rerun with exact gemm so the caller always receives a sound product. If
    // the *inputs* carried the non-finite values this reproduces them — that
    // is the correct answer, and the trip counter still records the event.
    APA_TRACE_SCOPE("guard.fallback");
    APA_COUNTER_INC("guard.fallback_reruns");
    classical_.matmul_ex(a, b, c, transpose_a, transpose_b, bare);
  }
  blas::apply_epilogue<float>(fusion.epilogue, c);
}

}  // namespace apa::nn
