#pragma once
// The divergence rule both trainers share — the single-process guarded loop
// (nn/trainer.cpp) and the data-parallel worker (dist/trainer.cpp): which
// step counts as diverged, how many rollbacks a run may spend, and how the
// fast backend is de-risked after each one.
//
// A step diverges when its loss is non-finite, when its loss exceeds
// kLossSpikeFactor x the running loss EWMA + kLossSpikeSlack once
// `warmup_steps` steps have been accepted, or (when the caller passes one)
// when its gradient holds a non-finite value or one above kGradAbsLimit — a
// corrupted contribution stays finite after averaging. The EWMA and its
// warm-up restart on every rollback, since the restored weights re-live an
// earlier loss regime.
//
// The de-risk ladder is deterministic given the backend state, which is what
// lets every distributed worker de-risk independently after a coordinated
// rollback and still end up with bit-identical backends.

#include <algorithm>
#include <cmath>
#include <memory>
#include <span>
#include <string>

#include "core/params.h"
#include "core/registry.h"
#include "nn/guarded_backend.h"
#include "obs/metrics.h"
#include "support/check.h"

namespace apa::nn {

inline constexpr double kLossSpikeFactor = 4.0;
/// Absolute slack on the spike test, so losses near 0 never trip it.
inline constexpr double kLossSpikeSlack = 1e-3;
inline constexpr double kLossEwmaDecay = 0.9;
inline constexpr float kGradAbsLimit = 1e6f;
/// De-risk step: lambda above the rule's optimum is multiplied by this.
inline constexpr double kLambdaShrink = 0.25;

enum class Divergence { kNone, kNonfiniteLoss, kLossSpike, kBadGradient };

/// The verdict as telemetry names it ("cause" of a rollback record).
inline const char* divergence_name(Divergence d) {
  switch (d) {
    case Divergence::kNone: return "none";
    case Divergence::kNonfiniteLoss: return "nonfinite_loss";
    case Divergence::kLossSpike: return "loss_spike";
    case Divergence::kBadGradient: return "bad_gradient";
  }
  return "none";
}

enum class DeriskAction {
  kNone,              ///< backend already classical — nothing left to de-risk
  kLambdaShrunk,      ///< lambda moved toward the rule's optimum
  kClassicalFallback  ///< lambda exhausted; backend replaced by exact gemm
};

/// One rung of the de-risk ladder applied to `model`'s fast backend: move
/// lambda toward the rule's optimal value — shrink by kLambdaShrink from
/// above (approximation error too large, clamped at the optimum), snap up
/// from below (roundoff amplification too large) — and once lambda is
/// already at the optimum (or the rule is lambda-free) retreat to classical
/// gemm. A GuardedBackend wrapper (and its policy) is preserved.
template <class Model>
DeriskAction derisk_fast_backend(Model& model) {
  const MatmulBackend& fast = model.fast_backend();
  if (fast.is_classical()) return DeriskAction::kNone;

  BackendOptions options = fast.options();
  const double current = fast.effective_lambda();
  const double optimal = core::analyze(core::rule_by_name(fast.algorithm()))
                             .optimal_lambda(options.matmul.precision_bits,
                                             std::max(1, options.matmul.steps));
  const double target =
      current > optimal ? std::max(current * kLambdaShrink, optimal) : optimal;
  const bool shrink = std::abs(target - current) > 1e-3 * current;
  if (shrink) options.matmul.lambda = target;
  const std::string algorithm = shrink ? fast.algorithm() : "classical";
  const auto* guarded = dynamic_cast<const GuardedBackend*>(&fast);
  model.set_fast_backend(
      guarded != nullptr
          ? std::make_shared<const GuardedBackend>(algorithm, options, guarded->policy())
          : std::make_shared<const MatmulBackend>(algorithm, options));
  return shrink ? DeriskAction::kLambdaShrunk : DeriskAction::kClassicalFallback;
}

/// Per-run divergence state: the loss EWMA, the rollback budget, and the
/// de-risk outcomes. A trainer calls check() on every step, accept() on the
/// steps it applies, recover() where it detects a divergence, and rewound()
/// after every restore (including, in dist, rewinds another worker started).
class DivergenceGuard {
 public:
  /// A spike needs at least one accepted loss to compare against, so a
  /// warm-up below 1 acts as 1.
  DivergenceGuard(index_t warmup_steps, int max_rollbacks)
      : warmup_steps_(std::max<index_t>(warmup_steps, 1)),
        max_rollbacks_(max_rollbacks) {}

  [[nodiscard]] Divergence check(double loss, std::span<const float> grad = {}) const {
    if (!std::isfinite(loss)) return Divergence::kNonfiniteLoss;
    if (accepted_ >= warmup_steps_ && loss > kLossSpikeFactor * ewma_ + kLossSpikeSlack) {
      return Divergence::kLossSpike;
    }
    for (const float g : grad) {
      if (!(std::abs(g) <= kGradAbsLimit)) return Divergence::kBadGradient;
    }
    return Divergence::kNone;
  }

  void accept(double loss) {
    ewma_ = accepted_ == 0 ? loss : kLossEwmaDecay * ewma_ + (1.0 - kLossEwmaDecay) * loss;
    ++accepted_;
  }

  /// A divergence this worker detected at `step`: throws ApaError{kDiverged}
  /// once `max_rollbacks` rollbacks are spent, else de-risks `model` one rung.
  template <class Model>
  void recover(Model& model, Divergence cause, index_t step, double loss) {
    APA_CHECK_CODE(rollbacks_ < max_rollbacks_, ErrorCode::kDiverged,
                   "training diverged (" << divergence_name(cause) << ") at step "
                       << step << ", loss " << loss << ", running mean " << ewma_
                       << ": rollback budget of " << max_rollbacks_ << " spent");
    switch (derisk_fast_backend(model)) {
      case DeriskAction::kLambdaShrunk:
        ++lambda_shrinks_;
        APA_COUNTER_INC("train.lambda_shrinks");
        break;
      case DeriskAction::kClassicalFallback:
        fell_back_to_classical_ = true;
        APA_COUNTER_INC("train.classical_fallbacks");
        break;
      case DeriskAction::kNone: break;
    }
  }

  /// Counts one restore against the budget and restarts the EWMA warm-up.
  void rewound() {
    ++rollbacks_;
    ewma_ = 0;
    accepted_ = 0;
  }

  [[nodiscard]] int rollbacks() const { return rollbacks_; }
  [[nodiscard]] int lambda_shrinks() const { return lambda_shrinks_; }
  [[nodiscard]] bool fell_back_to_classical() const { return fell_back_to_classical_; }
  [[nodiscard]] double running_mean() const { return ewma_; }

 private:
  index_t warmup_steps_;
  int max_rollbacks_;
  double ewma_ = 0;
  index_t accepted_ = 0;
  int rollbacks_ = 0;
  int lambda_shrinks_ = 0;
  bool fell_back_to_classical_ = false;
};

}  // namespace apa::nn
