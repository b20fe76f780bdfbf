#pragma once
// Numerical-health policy wrapper around MatmulBackend.
//
// Every product that dispatches to an APA fast path is verified with a
// core::ProductGuard (Freivalds probe + non-finite scan, O(mn + kn + mk) —
// under 10% of the O(mkn) multiply for the shapes the fast path accepts). On
// a trip the product is recomputed with classical gemm, so callers always
// receive a sound C; the trip is tallied per logical shape, and after
// `quarantine_after` trips that shape permanently bypasses the APA rule —
// a rule that keeps failing outside its validated regime stops being asked.
//
// All counters are aggregated in GuardStats for tests, benchmarks, and
// monitoring. State is shared across copies (backends are copied into models
// by value semantics elsewhere, but guarded state must stay global to the
// wrapper), and access is mutex-serialized: the NN layers call matmul from a
// single thread and fan out *inside* gemm, so the lock is uncontended.

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <tuple>

#include "core/guard.h"
#include "nn/backend.h"
#include "support/thread_annotations.h"

namespace apa::nn {

struct GuardPolicy {
  core::GuardOptions guard;
  /// Trips of one logical (m, k, n) shape before it is quarantined to
  /// classical gemm permanently.
  int quarantine_after = 3;
  /// Verify every Nth fast-path call (1 = every call). Sampling trades
  /// detection latency for overhead on trusted workloads.
  int check_period = 1;
  /// Probe-sign stream seed; fixed for reproducible experiments.
  std::uint64_t seed = 0x9d5fca11u;
  /// Test-only fault injection: called on the raw APA output (before the
  /// Freivalds check and before the epilogue), with the call's logical shape.
  /// Lets tests corrupt one product of a full training step in place and
  /// assert the guard catches, falls back, and quarantines. Never set in
  /// production policies.
  std::function<void(index_t m, index_t k, index_t n, MatrixView<float> c)>
      inject_fault;
};

struct GuardStats {
  std::uint64_t fast_calls = 0;        ///< calls that dispatched to an APA rule
  std::uint64_t checks_run = 0;        ///< Freivalds verifications performed
  std::uint64_t trips_tolerance = 0;   ///< residual above tolerance
  std::uint64_t trips_nonfinite = 0;   ///< NaN/Inf in the APA output
  std::uint64_t fallback_reruns = 0;   ///< products recomputed with gemm
  std::uint64_t quarantined_calls = 0; ///< calls served by gemm due to quarantine
  std::uint64_t shapes_quarantined = 0;
  double worst_ratio = 0.0;            ///< max residual/tolerance ever observed

  [[nodiscard]] std::uint64_t total_trips() const {
    return trips_tolerance + trips_nonfinite;
  }
};

/// Per-interval guard activity: counter fields are after - before,
/// worst_ratio is the running max as of `after` (it is monotone, not
/// resettable per interval). Used to fold per-epoch guard stats into
/// EpochStats and the telemetry stream.
[[nodiscard]] GuardStats guard_stats_delta(const GuardStats& before,
                                           const GuardStats& after);

/// Accumulates `other` into `total`: counter fields add, worst_ratio keeps
/// the max. Folds intervals (guard_stats_delta) or several backends' stats.
GuardStats& operator+=(GuardStats& total, const GuardStats& other);

class GuardedBackend : public MatmulBackend {
 public:
  GuardedBackend(const std::string& algorithm, BackendOptions options = {},
                 GuardPolicy policy = {});

  /// Fused calls run the raw product first, so the Freivalds probe certifies
  /// op(A)*op(B) itself; the epilogue is applied after verification (and
  /// after any classical rerun).
  void matmul_ex(MatrixView<const float> a, MatrixView<const float> b,
                 MatrixView<float> c, bool transpose_a, bool transpose_b,
                 const MatmulFusion& fusion) const override;

  [[nodiscard]] GuardStats stats() const;
  void reset_stats();
  [[nodiscard]] const GuardPolicy& policy() const { return policy_; }
  /// True when shape (m, k, n) has been quarantined to classical gemm.
  [[nodiscard]] bool is_quarantined(index_t m, index_t k, index_t n) const;
  /// Trip count recorded against shape (m, k, n) — quarantine is per-shape,
  /// and tests assert a corrupted product charges only its own shape.
  [[nodiscard]] int trips_for(index_t m, index_t k, index_t n) const;
  /// Forgets the trips recorded against shape (m, k, n), lifting its
  /// quarantine — operator action once the root cause (bad inputs, an
  /// out-of-regime rule) is fixed. The shapes_quarantined counter is history,
  /// not live state, so it is deliberately left untouched.
  void clear_quarantine(index_t m, index_t k, index_t n) const;

 private:
  using ShapeKey = std::tuple<index_t, index_t, index_t>;
  struct State {
    Mutex mu;
    Rng rng APAMM_GUARDED_BY(mu);
    std::uint64_t fast_call_count APAMM_GUARDED_BY(mu) = 0;
    /// Quarantined once >= threshold.
    std::map<ShapeKey, int> trips_by_shape APAMM_GUARDED_BY(mu);
    GuardStats stats APAMM_GUARDED_BY(mu);
    explicit State(std::uint64_t seed) : rng(seed) {}
  };

  GuardPolicy policy_;
  MatmulBackend classical_;  ///< exact fallback with matching thread policy
  std::shared_ptr<State> state_;
};

}  // namespace apa::nn
