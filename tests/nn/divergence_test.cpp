#include "nn/divergence.h"

#include <gtest/gtest.h>

#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/params.h"
#include "core/registry.h"
#include "support/check.h"

namespace apa::nn {
namespace {

constexpr double kNan = std::numeric_limits<double>::quiet_NaN();

/// The two members the guard touches on a model.
struct BackendHolder {
  std::shared_ptr<const MatmulBackend> fast;
  [[nodiscard]] const MatmulBackend& fast_backend() const { return *fast; }
  void set_fast_backend(std::shared_ptr<const MatmulBackend> next) { fast = std::move(next); }
};

struct Step {
  double loss;
  std::vector<float> grad;
  Divergence expected;
};

struct Case {
  std::string name;
  index_t warmup_steps;
  int max_rollbacks;
  std::vector<Step> steps;
  /// Index of the divergence whose recover() must throw kDiverged; -1: none.
  int throws_at = -1;
};

TEST(DivergenceGuard, VerdictsOverLossAndGradientSequences) {
  using enum Divergence;
  const std::vector<Case> cases = {
      {"nan_loss_trips", 5, 3, {{1.0, {}, kNone}, {kNan, {}, kNonfiniteLoss}}},
      {"no_spike_during_warmup", 3, 3,
       {{1.0, {}, kNone}, {100.0, {}, kNone}, {1.0, {}, kNone}, {1000.0, {}, kLossSpike}}},
      // After a zero loss the EWMA is 0: only the absolute slack keeps a
      // tiny loss from counting as a spike.
      {"slack_holds_near_zero", 1, 3,
       {{0.0, {}, kNone}, {0.0009, {}, kNone}, {0.002, {}, kLossSpike}}},
      {"huge_gradient", 5, 3, {{1.0, {0.5f, 1e30f}, kBadGradient}}},
      {"nan_gradient", 5, 3,
       {{1.0, {0.5f, std::numeric_limits<float>::quiet_NaN()}, kBadGradient}}},
      {"gradient_at_limit_passes", 5, 3, {{1.0, {-kGradAbsLimit, kGradAbsLimit}, kNone}}},
      {"budget_zero_throws_on_first", 5, 0, {{kNan, {}, kNonfiniteLoss}}, 0},
      {"budget_two_throws_on_third", 5, 2,
       {{kNan, {}, kNonfiniteLoss}, {kNan, {}, kNonfiniteLoss}, {kNan, {}, kNonfiniteLoss}},
       2},
      // Without the restart the 2.0 after the rollback would spike against
      // the pre-rollback mean of 0.1; with it the warm-up begins again.
      {"ewma_restarts_after_rollback", 2, 3,
       {{0.1, {}, kNone}, {0.1, {}, kNone}, {0.5, {}, kLossSpike}, {2.0, {}, kNone},
        {2.0, {}, kNone}, {9.0, {}, kLossSpike}}},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    DivergenceGuard guard(c.warmup_steps, c.max_rollbacks);
    BackendHolder model{std::make_shared<const MatmulBackend>("classical")};
    int divergences = 0;
    for (const Step& s : c.steps) {
      const Divergence verdict = guard.check(s.loss, s.grad);
      EXPECT_EQ(verdict, s.expected) << "loss " << s.loss;
      if (verdict == kNone) {
        guard.accept(s.loss);
        continue;
      }
      if (divergences++ == c.throws_at) {
        try {
          guard.recover(model, verdict, 0, s.loss);
          ADD_FAILURE() << "divergence " << c.throws_at << " should exhaust the budget";
        } catch (const ApaError& e) {
          EXPECT_EQ(e.code(), ErrorCode::kDiverged);
        }
        break;
      }
      guard.recover(model, verdict, 0, s.loss);
      guard.rewound();
    }
    if (c.throws_at >= 0) {
      EXPECT_EQ(divergences, c.throws_at + 1);
    }
    EXPECT_EQ(guard.rollbacks(), c.throws_at >= 0 ? c.throws_at : divergences);
  }
}

TEST(DivergenceGuard, DeriskLadderShrinksToTheOptimumThenFallsBack) {
  BackendOptions options;
  const double optimal = core::analyze(core::rule_by_name("bini322"))
                             .optimal_lambda(options.matmul.precision_bits, options.matmul.steps);
  options.matmul.lambda = 4.5 * optimal;
  BackendHolder model{std::make_shared<const MatmulBackend>("bini322", options)};

  EXPECT_EQ(derisk_fast_backend(model), DeriskAction::kLambdaShrunk);  // x0.25
  EXPECT_NEAR(model.fast_backend().effective_lambda(), 4.5 * kLambdaShrink * optimal,
              optimal * 1e-9);
  EXPECT_EQ(derisk_fast_backend(model), DeriskAction::kLambdaShrunk);  // clamped
  EXPECT_NEAR(model.fast_backend().effective_lambda(), optimal, optimal * 1e-9);
  EXPECT_EQ(derisk_fast_backend(model), DeriskAction::kClassicalFallback);
  EXPECT_TRUE(model.fast_backend().is_classical());
  EXPECT_EQ(derisk_fast_backend(model), DeriskAction::kNone);

  // The guard folds the same outcomes into its counts.
  options.matmul.lambda = 4.5 * optimal;
  model.fast = std::make_shared<const MatmulBackend>("bini322", options);
  DivergenceGuard guard(1, 4);
  for (int i = 0; i < 3; ++i) guard.recover(model, Divergence::kNonfiniteLoss, i, kNan);
  EXPECT_EQ(guard.lambda_shrinks(), 2);
  EXPECT_TRUE(guard.fell_back_to_classical());
}

}  // namespace
}  // namespace apa::nn
