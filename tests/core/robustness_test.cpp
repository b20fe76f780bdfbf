// Failure-injection and adversarial-input tests across the core stack, plus
// the numerical-health guard layer: Freivalds verification, exact-gemm
// fallback/quarantine, and trainer-level divergence rollback.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <limits>
#include <memory>
#include <string>

#include "blas/gemm.h"
#include "core/catalog.h"
#include "core/designer.h"
#include "core/executor.h"
#include "core/fastmm.h"
#include "core/guard.h"
#include "core/registry.h"
#include "data/synthetic_mnist.h"
#include "nn/checkpoint.h"
#include "nn/guarded_backend.h"
#include "nn/trainer.h"
#include "support/check.h"
#include "support/rng.h"
#include "support/timer.h"

namespace apa::core {
namespace {

TEST(Robustness, NanInputsPropagateNotCrash) {
  const Rule& rule = rule_by_name("strassen");
  Matrix<float> a(8, 8), b(8, 8), c(8, 8);
  a.set_zero();
  b.set_zero();
  a(0, 0) = std::numeric_limits<float>::quiet_NaN();
  b(0, 0) = 1.0f;
  multiply<float>(rule, a.view().as_const(), b.view().as_const(), c.view(), {});
  EXPECT_TRUE(std::isnan(c(0, 0)));
  // Blocks untouched by the NaN stay finite.
  EXPECT_TRUE(std::isfinite(c(7, 7)));
}

TEST(Robustness, InfInputsStayInf) {
  const Rule& rule = rule_by_name("bini322");
  Matrix<float> a(6, 6), b(6, 6), c(6, 6);
  a.set_zero();
  b.set_zero();
  a(0, 0) = std::numeric_limits<float>::infinity();
  b(0, 0) = 2.0f;
  ExecOptions opts;
  opts.lambda = 0.001;
  multiply<float>(rule, a.view().as_const(), b.view().as_const(), c.view(), opts);
  EXPECT_FALSE(std::isfinite(c(0, 0)));
}

TEST(Robustness, ExtremeMagnitudesDoNotOverflowForExactRules) {
  const Rule& rule = rule_by_name("fast444");
  Matrix<double> a(8, 8), b(8, 8), c(8, 8);
  for (auto& x : a.span()) x = 1e150;
  for (auto& x : b.span()) x = 1e-150;
  multiply<double>(rule, a.view().as_const(), b.view().as_const(), c.view(), {});
  for (auto x : c.span()) {
    EXPECT_NEAR(x, 8.0, 1e-10);  // sum of 8 unit products
  }
}

TEST(Robustness, DegenerateShapes) {
  // 1 x k times k x 1 down to scalars; every registry algorithm must fall
  // back gracefully.
  Rng rng(1);
  for (const auto& name : algorithm_names()) {
    const Rule& rule = rule_by_name(name);
    Matrix<float> a(1, 17), b(17, 1), c(1, 1), ref(1, 1);
    fill_random_uniform<float>(a.view(), rng);
    fill_random_uniform<float>(b.view(), rng);
    blas::gemm_reference<float>(blas::Trans::kNo, blas::Trans::kNo, 1, 1, 17, 1.0f,
                                a.data(), a.ld(), b.data(), b.ld(), 0.0f, ref.data(),
                                ref.ld());
    multiply<float>(rule, a.view().as_const(), b.view().as_const(), c.view(), {});
    EXPECT_NEAR(c(0, 0), ref(0, 0), 1e-3) << name;
  }
}

TEST(Robustness, LambdaExtremesStayFiniteInDouble) {
  const Rule& rule = rule_by_name("bini322");
  Rng rng(2);
  Matrix<double> a(12, 12), b(12, 12), c(12, 12);
  fill_random_uniform<double>(a.view(), rng);
  fill_random_uniform<double>(b.view(), rng);
  for (double lambda_value : {1.0, 1e-8, 1e-14}) {
    ExecOptions opts;
    opts.lambda = lambda_value;
    multiply<double>(rule, a.view().as_const(), b.view().as_const(), c.view(), opts);
    for (auto x : c.span()) EXPECT_TRUE(std::isfinite(x)) << "lambda=" << lambda_value;
  }
}

TEST(Robustness, ValidateSurvivesLargeCoefficients) {
  // Coefficients near the int64 overflow edge must either validate cleanly or
  // throw std::overflow_error — never silently corrupt.
  Rule rule = classical(1, 1, 1);
  rule.U(0, 0, 0) = LaurentPoly(Rational(std::int64_t{1} << 40));
  rule.V(0, 0, 0) = LaurentPoly(Rational(1, std::int64_t{1} << 40));
  EXPECT_NO_THROW({
    const Validation v = validate(rule);
    EXPECT_TRUE(v.valid);  // (2^40) * (2^-40) * 1 = 1
  });

  Rule overflow_rule = classical(1, 1, 1);
  overflow_rule.U(0, 0, 0) = LaurentPoly(Rational(std::int64_t{1} << 62));
  overflow_rule.V(0, 0, 0) = LaurentPoly(Rational(std::int64_t{1} << 62));
  EXPECT_THROW((void)validate(overflow_rule), std::overflow_error);
}

TEST(Robustness, DesignerRejectsNonPositiveDims) {
  EXPECT_THROW((void)design(0, 2, 2), std::logic_error);
  EXPECT_THROW((void)design(2, -1, 2), std::logic_error);
}

TEST(Robustness, ExecutorZeroSizedProblem) {
  const Rule& rule = rule_by_name("strassen");
  Matrix<float> a(0, 0), b(0, 0), c(0, 0);
  EXPECT_NO_THROW(multiply<float>(rule, a.view().as_const(), b.view().as_const(),
                                  c.view(), {}));
}

TEST(Robustness, RepeatedFastMatmulCallsAreDeterministic) {
  FastMatmul mm("apa664");
  Rng rng(5);
  Matrix<float> a(48, 48), b(48, 48), c1(48, 48), c2(48, 48);
  fill_random_uniform<float>(a.view(), rng);
  fill_random_uniform<float>(b.view(), rng);
  mm.multiply(a.view().as_const(), b.view().as_const(), c1.view());
  for (int i = 0; i < 5; ++i) {
    mm.multiply(a.view().as_const(), b.view().as_const(), c2.view());
    ASSERT_EQ(max_abs_diff(c1.view(), c2.view()), 0.0) << "iteration " << i;
  }
}

// ---------------------------------------------------------------------------
// Structured error taxonomy

TEST(Robustness, ApaErrorTaxonomyDistinguishesRecoverableFailures) {
  const ApaError guard_trip(ErrorCode::kGuardTripped, "apa output rejected");
  EXPECT_EQ(guard_trip.code(), ErrorCode::kGuardTripped);
  EXPECT_TRUE(guard_trip.recoverable());
  EXPECT_NE(std::string(guard_trip.what()).find("kGuardTripped"), std::string::npos);

  const ApaError shape(ErrorCode::kShapeMismatch, "bad dims");
  EXPECT_FALSE(shape.recoverable());

  // APA_CHECK failures surface as ApaError{kPrecondition} and stay catchable
  // as std::logic_error for legacy call sites.
  try {
    APA_CHECK_MSG(false, "forced");
    FAIL() << "check must throw";
  } catch (const ApaError& e) {
    EXPECT_EQ(e.code(), ErrorCode::kPrecondition);
    EXPECT_FALSE(e.recoverable());
  }
  EXPECT_THROW((void)FastMatmul("no_such_rule"), std::logic_error);
}

// ---------------------------------------------------------------------------
// ProductGuard: Freivalds verification of APA outputs

TEST(Robustness, GuardPassesHonestApaMultiply) {
  FastMatmul mm("bini322");  // optimal lambda
  Rng rng(11);
  Matrix<float> a(72, 72), b(72, 72), c(72, 72);
  fill_random_uniform<float>(a.view(), rng);
  fill_random_uniform<float>(b.view(), rng);
  mm.multiply(a.view().as_const(), b.view().as_const(), c.view());

  const double bound = ProductGuard::model_error_bound(mm.params(), 23, 1);
  const ProductGuard guard(bound);
  const GuardReport report =
      guard.verify(a.view().as_const(), b.view().as_const(), c.view().as_const(), rng);
  EXPECT_TRUE(report.ok) << "worst ratio " << report.worst_ratio;
  EXPECT_FALSE(report.nonfinite_output);
}

TEST(Robustness, GuardPassesHonestProductWithZeroRows) {
  // Dead-ReLU regime: whole rows of A are zero. Block APA rules leak
  // O(lambda^sigma) of neighboring block rows into those output rows, so a
  // per-row tolerance would flag every honest sparse row; the matrix-level
  // scale must not.
  FastMatmul mm("bini322");  // optimal lambda
  Rng rng(26);
  Matrix<float> a(72, 72), b(72, 72), c(72, 72);
  fill_random_uniform<float>(a.view(), rng);
  fill_random_uniform<float>(b.view(), rng);
  for (index_t i = 0; i < 72; i += 3) {
    for (index_t t = 0; t < 72; ++t) a(i, t) = 0.0f;
  }
  mm.multiply(a.view().as_const(), b.view().as_const(), c.view());

  const ProductGuard guard(ProductGuard::model_error_bound(mm.params(), 23, 1));
  const GuardReport report =
      guard.verify(a.view().as_const(), b.view().as_const(), c.view().as_const(), rng);
  EXPECT_TRUE(report.ok) << "worst ratio " << report.worst_ratio;
}

TEST(Robustness, GuardTripsOnMistunedLambda) {
  // lambda = 0.5 puts ~50% relative error on the product — far outside the
  // sigma/phi regime the tolerance is derived from.
  FastMatmul mm("bini322", {.lambda = 0.5});
  Rng rng(12);
  Matrix<float> a(72, 72), b(72, 72), c(72, 72);
  fill_random_uniform<float>(a.view(), rng);
  fill_random_uniform<float>(b.view(), rng);
  mm.multiply(a.view().as_const(), b.view().as_const(), c.view());

  // The tolerance must come from the rule's *validated* error model, never
  // from the lambda actually in use — a corrupt lambda cannot loosen its own
  // tolerance.
  const double bound = ProductGuard::model_error_bound(mm.params(), 23, 1);
  const ProductGuard guard(bound);
  const GuardReport report =
      guard.verify(a.view().as_const(), b.view().as_const(), c.view().as_const(), rng);
  EXPECT_FALSE(report.ok);
  EXPECT_GT(report.worst_ratio, 1.0);
  EXPECT_FALSE(report.nonfinite_output);
}

TEST(Robustness, GuardFlagsNonfiniteOutput) {
  Rng rng(13);
  Matrix<float> a(16, 16), b(16, 16), c(16, 16);
  fill_random_uniform<float>(a.view(), rng);
  fill_random_uniform<float>(b.view(), rng);
  blas::gemm<float>(a.view().as_const(), b.view().as_const(), c.view());
  c(3, 5) = std::numeric_limits<float>::quiet_NaN();

  const ProductGuard guard(1e-6);
  const GuardReport report =
      guard.verify(a.view().as_const(), b.view().as_const(), c.view().as_const(), rng);
  EXPECT_FALSE(report.ok);
  EXPECT_TRUE(report.nonfinite_output);
}

TEST(Robustness, GuardVerifiesTransposedOperands) {
  Rng rng(14);
  Matrix<float> a(48, 40), b(48, 56), c(40, 56);  // C = A^T * B
  fill_random_uniform<float>(a.view(), rng);
  fill_random_uniform<float>(b.view(), rng);
  blas::gemm<float>(blas::Trans::kYes, blas::Trans::kNo, 40, 56, 48, 1.0f, a.data(),
                    a.ld(), b.data(), b.ld(), 0.0f, c.data(), c.ld());
  const ProductGuard guard(std::exp2(-23));
  EXPECT_TRUE(guard
                  .verify(a.view().as_const(), b.view().as_const(),
                          c.view().as_const(), rng, /*transpose_a=*/true)
                  .ok);

  c(7, 9) += 25.0f;  // corruption well above the row tolerance
  EXPECT_FALSE(guard
                   .verify(a.view().as_const(), b.view().as_const(),
                           c.view().as_const(), rng, /*transpose_a=*/true)
                   .ok);
}

TEST(Robustness, GuardShapeMismatchIsStructured) {
  Matrix<float> a(8, 8), b(8, 8), c(8, 7);
  Rng rng(15);
  const ProductGuard guard(1e-6);
  try {
    (void)guard.verify(a.view().as_const(), b.view().as_const(), c.view().as_const(),
                       rng);
    FAIL() << "mismatched C must throw";
  } catch (const ApaError& e) {
    EXPECT_EQ(e.code(), ErrorCode::kShapeMismatch);
  }
}

TEST(Robustness, GuardFalsePositiveRateOnHonestMultiplies) {
  // Statistical check: honest products at optimal lambda must essentially
  // never trip. 60 products across the error classes in the catalog
  // (phi = 0 exact, phi = 1, phi = 2), fresh operands and probes each time.
  Rng rng(16);
  int trips = 0;
  int checked = 0;
  for (const std::string name : {"strassen", "bini322", "apa664"}) {
    FastMatmul mm(name);
    const double bound = ProductGuard::model_error_bound(mm.params(), 23, 1);
    const ProductGuard guard(bound);
    for (int rep = 0; rep < 20; ++rep) {
      Matrix<float> a(60, 60), b(60, 60), c(60, 60);
      fill_random_uniform<float>(a.view(), rng);
      fill_random_uniform<float>(b.view(), rng);
      mm.multiply(a.view().as_const(), b.view().as_const(), c.view());
      const GuardReport report = guard.verify(a.view().as_const(), b.view().as_const(),
                                              c.view().as_const(), rng);
      trips += report.ok ? 0 : 1;
      ++checked;
    }
  }
  EXPECT_EQ(checked, 60);
  EXPECT_EQ(trips, 0) << "false positives on honest multiplies";
}

TEST(Robustness, GuardOverheadSmallFractionOfMultiplyTime) {
  // Acceptance bound: Freivalds is O(mn + kn + mk) against the O(mkn)
  // product — under 10% of backend matmul time at fast-path sizes. The
  // transposed cases are the layer backward products (dX = dY W^T,
  // dW = X^T dY) at a power-of-two leading dimension, where a column walk
  // would stride across the whole operand.
  struct Case {
    index_t n;
    bool ta, tb;
  };
  FastMatmul mm("bini322");
  const ProductGuard guard(ProductGuard::model_error_bound(mm.params(), 23, 1));
  Rng rng(17);
  for (const Case cs : {Case{768, false, false}, Case{1024, false, true},
                        Case{1024, true, false}}) {
    const index_t n = cs.n;
    Matrix<float> a(n, n), b(n, n), c(n, n);
    fill_random_uniform<float>(a.view(), rng);
    fill_random_uniform<float>(b.view(), rng);
    const auto run = [&] {
      mm.multiply(a.view().as_const(), b.view().as_const(), c.view(), cs.ta, cs.tb);
    };
    run();  // warm-up

    double multiply_seconds = std::numeric_limits<double>::infinity();
    for (int rep = 0; rep < 5; ++rep) {
      WallTimer timer;
      run();
      multiply_seconds = std::min(multiply_seconds, timer.seconds());
    }

    double verify_seconds = std::numeric_limits<double>::infinity();
    for (int rep = 0; rep < 5; ++rep) {
      WallTimer timer;
      const GuardReport report = guard.verify(a.view().as_const(), b.view().as_const(),
                                              c.view().as_const(), rng, cs.ta, cs.tb);
      ASSERT_TRUE(report.ok);
      verify_seconds = std::min(verify_seconds, timer.seconds());
    }
    EXPECT_LT(verify_seconds, 0.10 * multiply_seconds)
        << "n=" << n << " ta=" << cs.ta << " tb=" << cs.tb << ": verify "
        << verify_seconds << "s vs multiply " << multiply_seconds << "s";
  }
}

/// Logical op(A) (m x k), op(B) (k x n) and an honest bini322 C, plus copies
/// of A and B stored with a power-of-two leading dimension — transposed where
/// asked — so the guard reads the same logical operands through either layout.
struct GuardLayouts {
  Matrix<float> op_a, op_b, c;
  Matrix<float> a_store, b_store;  // 128-wide storage
  MatrixView<const float> a_view, b_view;

  GuardLayouts(bool ta, bool tb, std::uint64_t seed)
      : op_a(72, 96), op_b(96, 80), c(72, 80), a_store(96, 128), b_store(96, 128) {
    Rng rng(seed);
    fill_random_uniform<float>(op_a.view(), rng);
    fill_random_uniform<float>(op_b.view(), rng);
    FastMatmul("bini322").multiply(op_a.view().as_const(), op_b.view().as_const(),
                                   c.view());
    a_view = store(op_a, ta, a_store);
    b_view = store(op_b, tb, b_store);
  }

  static MatrixView<const float> store(const Matrix<float>& m, bool trans,
                                       Matrix<float>& storage) {
    const index_t rows = trans ? m.cols() : m.rows();
    const index_t cols = trans ? m.rows() : m.cols();
    const auto v = storage.view().block(0, 0, rows, cols);
    for (index_t i = 0; i < m.rows(); ++i)
      for (index_t j = 0; j < m.cols(); ++j) (trans ? v(j, i) : v(i, j)) = m(i, j);
    return v.as_const();
  }
};

TEST(Robustness, GuardTransposedStorageMatchesMaterializedCopies) {
  // Row-streamed transposed operands must certify exactly what the plain
  // walk over materialized copies certifies: same probes, same tolerance,
  // worst ratios equal up to double reassociation.
  for (const bool ta : {false, true}) {
    for (const bool tb : {false, true}) {
      const GuardLayouts g(ta, tb, 70 + ta * 2 + tb);
      for (const int probes : {1, 3}) {
        const ProductGuard guard(
            ProductGuard::model_error_bound(analyze(rule_by_name("bini322")), 23, 1),
            {.num_probes = probes});
        Rng plain_rng(5), stored_rng(5);
        const GuardReport plain = guard.verify(g.op_a.view().as_const(),
                                               g.op_b.view().as_const(),
                                               g.c.view().as_const(), plain_rng);
        const GuardReport stored =
            guard.verify(g.a_view, g.b_view, g.c.view().as_const(), stored_rng, ta, tb);
        EXPECT_TRUE(plain.ok);
        EXPECT_EQ(stored.ok, plain.ok);
        EXPECT_GT(plain.worst_ratio, 0.0);
        EXPECT_NEAR(stored.worst_ratio, plain.worst_ratio, 1e-9 * plain.worst_ratio)
            << "ta=" << ta << " tb=" << tb << " probes=" << probes;
      }
    }
  }
}

TEST(Robustness, GuardTripsOnSingleCorruptedEntryInEveryTransposePair) {
  for (const bool ta : {false, true}) {
    for (const bool tb : {false, true}) {
      GuardLayouts g(ta, tb, 80 + ta * 2 + tb);
      const ProductGuard guard(
          ProductGuard::model_error_bound(analyze(rule_by_name("bini322")), 23, 1));
      Rng rng(6);
      ASSERT_TRUE(guard.verify(g.a_view, g.b_view, g.c.view().as_const(), rng, ta, tb).ok);
      g.c(41, 17) += 100.0f;  // one entry, well above the matrix-level tolerance
      const GuardReport report =
          guard.verify(g.a_view, g.b_view, g.c.view().as_const(), rng, ta, tb);
      EXPECT_FALSE(report.ok) << "ta=" << ta << " tb=" << tb;
      EXPECT_GT(report.worst_ratio, 1.0);
    }
  }
}

// ---------------------------------------------------------------------------
// GuardedBackend: fallback + quarantine policy

nn::BackendOptions corrupt_lambda_options(double lambda) {
  nn::BackendOptions options;
  options.matmul.lambda = lambda;
  options.min_dim_for_fast = 32;
  return options;
}

TEST(Robustness, GuardedBackendFallsBackToExactGemmOnBadLambda) {
  const nn::GuardedBackend guarded("bini322", corrupt_lambda_options(0.5));
  Rng rng(18);
  Matrix<float> a(64, 64), b(64, 64), c(64, 64), ref(64, 64);
  fill_random_uniform<float>(a.view(), rng);
  fill_random_uniform<float>(b.view(), rng);
  guarded.matmul(a.view().as_const(), b.view().as_const(), c.view());
  blas::gemm<float>(a.view().as_const(), b.view().as_const(), ref.view());

  // The guard must have rejected the APA product and re-run with gemm, so the
  // caller sees the exact result.
  EXPECT_LT(relative_frobenius_error(c.view(), ref.view()), 1e-5);
  const nn::GuardStats stats = guarded.stats();
  EXPECT_EQ(stats.fast_calls, 1u);
  EXPECT_EQ(stats.checks_run, 1u);
  EXPECT_EQ(stats.trips_tolerance, 1u);
  EXPECT_EQ(stats.fallback_reruns, 1u);
}

TEST(Robustness, GuardedBackendQuarantinesShapeAfterRepeatedTrips) {
  nn::GuardPolicy policy;
  policy.quarantine_after = 2;
  const nn::GuardedBackend guarded("bini322", corrupt_lambda_options(0.5), policy);
  Rng rng(19);
  Matrix<float> a(64, 64), b(64, 64), c(64, 64);
  fill_random_uniform<float>(a.view(), rng);
  fill_random_uniform<float>(b.view(), rng);
  for (int call = 0; call < 5; ++call) {
    guarded.matmul(a.view().as_const(), b.view().as_const(), c.view());
  }
  const nn::GuardStats stats = guarded.stats();
  EXPECT_EQ(stats.trips_tolerance, 2u);      // third call onward never re-tries APA
  EXPECT_EQ(stats.checks_run, 2u);
  EXPECT_EQ(stats.shapes_quarantined, 1u);
  EXPECT_EQ(stats.quarantined_calls, 3u);
  EXPECT_TRUE(guarded.is_quarantined(64, 64, 64));
  EXPECT_FALSE(guarded.is_quarantined(96, 96, 96));
}

TEST(Robustness, GuardedBackendNanInjectionTriggersFallback) {
  const nn::GuardedBackend guarded("bini322", corrupt_lambda_options(1.0));
  Rng rng(20);
  Matrix<float> a(64, 64), b(64, 64), c(64, 64);
  fill_random_uniform<float>(a.view(), rng);
  fill_random_uniform<float>(b.view(), rng);
  a(0, 0) = std::numeric_limits<float>::quiet_NaN();
  guarded.matmul(a.view().as_const(), b.view().as_const(), c.view());
  const nn::GuardStats stats = guarded.stats();
  EXPECT_EQ(stats.trips_nonfinite, 1u);
  EXPECT_EQ(stats.fallback_reruns, 1u);
  // The inputs carried the NaN, so the exact rerun rightly reproduces it.
  EXPECT_TRUE(std::isnan(c(0, 0)));
}

TEST(Robustness, GuardedBackendHonestRunNeverTrips) {
  nn::BackendOptions options;
  options.min_dim_for_fast = 32;
  const nn::GuardedBackend guarded("bini322", options);
  Rng rng(21);
  for (int call = 0; call < 10; ++call) {
    Matrix<float> a(48, 48), b(48, 48), c(48, 48);
    fill_random_uniform<float>(a.view(), rng);
    fill_random_uniform<float>(b.view(), rng);
    guarded.matmul(a.view().as_const(), b.view().as_const(), c.view());
  }
  const nn::GuardStats stats = guarded.stats();
  EXPECT_EQ(stats.fast_calls, 10u);
  EXPECT_EQ(stats.total_trips(), 0u);
  EXPECT_EQ(stats.fallback_reruns, 0u);
}

// ---------------------------------------------------------------------------
// Trainer-level divergence rollback

data::Dataset guard_dataset(index_t count, std::uint64_t seed = 3) {
  data::SyntheticMnistOptions opts;
  opts.train_size = count;
  opts.test_size = 1;
  opts.seed = seed;
  return std::move(data::make_synthetic_mnist(opts).train);
}

TEST(Robustness, TrainerRollbackRecoversFromRoundoffExplosion) {
  // lambda = 1e-12 amplifies roundoff by lambda^-phi = 1e12: activations
  // explode and the loss goes non-finite almost immediately. The guard must
  // roll back to the auto-checkpoint, snap lambda to the rule's optimum, and
  // finish the epoch with healthy numbers.
  auto data = guard_dataset(600);
  nn::MlpConfig config;
  config.layer_sizes = {784, 64, 64, 10};
  config.learning_rate = 0.05f;
  nn::Mlp mlp(config, nn::MatmulBackend("bini322", corrupt_lambda_options(1e-12)),
              nn::MatmulBackend("classical"));

  nn::TrainGuardOptions guard;
  guard.enabled = true;
  guard.checkpoint_every = 3;
  guard.warmup_steps = 1;  // corrupt from step 0: spike-detect against step 1
  nn::TrainGuardReport report;
  Rng rng(22);
  const nn::EpochStats stats = nn::train_epoch(mlp, data, 64, &rng, guard, &report);

  EXPECT_GE(report.recoveries, 1);
  EXPECT_GE(report.lambda_shrinks, 1);
  EXPECT_TRUE(std::isfinite(stats.mean_loss));
  EXPECT_GT(stats.steps, 0);
  // lambda snapped to the optimum, not shrunk below it.
  const double optimal =
      core::analyze(core::rule_by_name("bini322")).optimal_lambda(23, 1);
  EXPECT_NEAR(report.final_lambda, optimal, optimal * 1e-6);
  // Post-recovery weights are sane: predictions are finite.
  Matrix<float> logits(4, 10);
  mlp.predict(data.batch_images(0, 4), logits.view());
  for (const float x : logits.span()) EXPECT_TRUE(std::isfinite(x));
}

TEST(Robustness, TrainerThrowsStructuredErrorWhenRecoveryBudgetExhausted) {
  // A divergence the backend cannot fix (exploding learning rate on the
  // classical backend) must surface as ApaError{kDiverged} after the bounded
  // rollback attempts, never loop forever or return garbage.
  auto data = guard_dataset(600);
  nn::MlpConfig config;
  config.layer_sizes = {784, 32, 10};
  config.learning_rate = 1e8f;
  nn::Mlp mlp(config, nn::MatmulBackend("classical"), nn::MatmulBackend("classical"));

  nn::TrainGuardOptions guard;
  guard.enabled = true;
  guard.max_recoveries = 2;
  guard.warmup_steps = 1;  // the explosion keeps the loss finite; catch the spike
  nn::TrainGuardReport report;
  try {
    (void)nn::train_epoch(mlp, data, 64, nullptr, guard, &report);
    FAIL() << "unrecoverable divergence must throw";
  } catch (const ApaError& e) {
    EXPECT_EQ(e.code(), ErrorCode::kDiverged);
    EXPECT_TRUE(e.recoverable());
  }
  EXPECT_EQ(report.recoveries, 2);
}

TEST(Robustness, RollbackMechanismRestoresPreDivergenceWeights) {
  // The exact mechanism the trainer uses on divergence: checkpoint, corrupt
  // (as a diverging step would), restore — predictions must match bit-exactly.
  auto data = guard_dataset(200);
  nn::MlpConfig config;
  config.layer_sizes = {784, 32, 10};
  nn::Mlp mlp(config, nn::MatmulBackend("classical"), nn::MatmulBackend("classical"));
  Rng rng(23);
  (void)nn::train_epoch(mlp, data, 50, &rng);

  Matrix<float> before(8, 10);
  mlp.predict(data.batch_images(0, 8), before.view());

  const std::string path =
      (std::filesystem::temp_directory_path() / "apamm_rollback_test.ckpt").string();
  nn::save_checkpoint(path, mlp);
  for (auto& w : mlp.layer(0).weights().span()) {
    w = std::numeric_limits<float>::quiet_NaN();
  }
  nn::load_checkpoint(path, mlp);
  std::remove(path.c_str());

  Matrix<float> after(8, 10);
  mlp.predict(data.batch_images(0, 8), after.view());
  EXPECT_EQ(max_abs_diff(before.view(), after.view()), 0.0);
}

// ---------------------------------------------------------------------------
// End-to-end acceptance: guarded APA training under a corrupted lambda

TEST(Robustness, GuardedTrainingSurvivesCorruptLambdaEndToEnd) {
  data::SyntheticMnistOptions gen;
  gen.train_size = 2000;
  gen.test_size = 500;

  nn::MlpConfig config;
  config.layer_sizes = {784, 128, 128, 10};
  config.learning_rate = 0.1f;
  const index_t batch = 100;
  const int epochs = 3;
  constexpr double kCorruptLambda = 0.5;

  const auto train = [&](std::shared_ptr<const nn::MatmulBackend> fast,
                         bool guarded_loop) {
    auto splits = data::make_synthetic_mnist(gen);
    nn::Mlp mlp(config, std::move(fast),
                std::make_shared<const nn::MatmulBackend>("classical"));
    Rng rng(24);
    nn::TrainGuardOptions guard;
    guard.enabled = guarded_loop;
    for (int epoch = 0; epoch < epochs; ++epoch) {
      try {
        (void)nn::train_epoch(mlp, splits.train, batch, &rng, guard);
      } catch (const ApaError& e) {
        // Unguarded divergence can reach non-finite losses; for this
        // comparison that counts as zero accuracy.
        if (e.code() != ErrorCode::kDiverged) throw;
        return 0.0;
      }
    }
    return nn::evaluate_accuracy(mlp, splits.test);
  };

  const double acc_classical = train(
      std::make_shared<const nn::MatmulBackend>("classical"), false);
  const double acc_corrupt_unguarded = train(
      std::make_shared<const nn::MatmulBackend>("bini322",
                                                corrupt_lambda_options(kCorruptLambda)),
      false);
  const double acc_corrupt_guarded = train(
      std::make_shared<const nn::GuardedBackend>("bini322",
                                                 corrupt_lambda_options(kCorruptLambda)),
      true);

  // Guard enabled: every corrupted product is caught, re-run exactly, and the
  // shape quarantined — accuracy within 1% of the classical baseline.
  EXPECT_GT(acc_corrupt_guarded, acc_classical - 0.01)
      << "classical=" << acc_classical << " guarded=" << acc_corrupt_guarded;
  // Guard disabled: the same corruption diverges or costs >= 5% accuracy.
  EXPECT_LT(acc_corrupt_unguarded, acc_classical - 0.05)
      << "classical=" << acc_classical << " unguarded=" << acc_corrupt_unguarded;
}

}  // namespace
}  // namespace apa::core
