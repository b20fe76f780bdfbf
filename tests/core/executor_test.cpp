#include "core/executor.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>
#include <tuple>
#include <vector>

#include "blas/gemm.h"
#include "core/catalog.h"
#include "core/params.h"
#include "core/registry.h"
#include "support/rng.h"

namespace apa::core {
namespace {

/// Double-precision classical reference for error measurement.
template <class T>
Matrix<double> reference_product(const Matrix<T>& a, const Matrix<T>& b) {
  Matrix<double> ad(a.rows(), a.cols()), bd(b.rows(), b.cols()),
      cd(a.rows(), b.cols());
  for (index_t i = 0; i < a.size(); ++i) ad.data()[i] = static_cast<double>(a.data()[i]);
  for (index_t i = 0; i < b.size(); ++i) bd.data()[i] = static_cast<double>(b.data()[i]);
  blas::gemm<double>(ad.view(), bd.view(), cd.view());
  return cd;
}

struct AlgoDims {
  std::string algo;
  index_t dim;  // square problem size
};

void PrintTo(const AlgoDims& p, std::ostream* os) {
  *os << p.algo << "@" << p.dim;
}

class ExecutorAccuracy : public ::testing::TestWithParam<AlgoDims> {};

TEST_P(ExecutorAccuracy, FloatErrorWithinPredictedBound) {
  const auto& [algo, dim] = GetParam();
  const Rule& rule = rule_by_name(algo);
  const AlgorithmParams params = analyze(rule);

  Rng rng(dim * 7 + 1);
  Matrix<float> a(dim, dim), b(dim, dim), c(dim, dim);
  fill_random_uniform<float>(a.view(), rng, -1.0f, 1.0f);
  fill_random_uniform<float>(b.view(), rng, -1.0f, 1.0f);
  const Matrix<double> ref = reference_product(a, b);

  multiply<float>(rule, a.view().as_const(), b.view().as_const(), c.view(), {});
  const double err = relative_frobenius_error(c.view(), ref.view());
  // Paper Fig 1: the theoretical bound dominates the empirical error; allow a
  // small constant slack for the norm-wise aggregation.
  const double bound = 4.0 * params.predicted_error(kPrecisionBitsSingle, 1);
  EXPECT_LT(err, std::max(bound, 1e-5)) << "algo=" << algo << " dim=" << dim;
}

TEST_P(ExecutorAccuracy, DoublePrecisionExactRulesHitMachinePrecision) {
  const auto& [algo, dim] = GetParam();
  const Rule& rule = rule_by_name(algo);
  const AlgorithmParams params = analyze(rule);
  if (!params.exact) GTEST_SKIP() << "APA rule";

  Rng rng(dim * 13 + 3);
  Matrix<double> a(dim, dim), b(dim, dim), c(dim, dim), ref(dim, dim);
  fill_random_uniform<double>(a.view(), rng);
  fill_random_uniform<double>(b.view(), rng);
  blas::gemm<double>(a.view(), b.view(), ref.view());
  multiply<double>(rule, a.view().as_const(), b.view().as_const(), c.view(), {});
  EXPECT_LT(relative_frobenius_error(c.view(), ref.view()), 1e-12);
}

INSTANTIATE_TEST_SUITE_P(
    RegistrySweep, ExecutorAccuracy,
    ::testing::Values(AlgoDims{"strassen", 64}, AlgoDims{"winograd", 64},
                      AlgoDims{"bini322", 60}, AlgoDims{"apa422", 64},
                      AlgoDims{"apa332", 66}, AlgoDims{"apa522", 80},
                      AlgoDims{"apa722", 56}, AlgoDims{"apa333", 81},
                      AlgoDims{"fast442", 64}, AlgoDims{"apa433", 72},
                      AlgoDims{"apa552", 100}, AlgoDims{"fast444", 64},
                      AlgoDims{"apa644", 96}, AlgoDims{"apa664", 72},
                      AlgoDims{"apa555", 100}));

class ExecutorStrategies : public ::testing::TestWithParam<std::string> {};

TEST_P(ExecutorStrategies, AllStrategiesProduceSameResult) {
  const Rule& rule = rule_by_name(GetParam());
  const index_t dim = 48;
  Rng rng(99);
  Matrix<float> a(dim, dim), b(dim, dim);
  fill_random_uniform<float>(a.view(), rng);
  fill_random_uniform<float>(b.view(), rng);

  Matrix<float> c_seq(dim, dim);
  ExecOptions opts;
  opts.strategy = Strategy::kSequential;
  multiply<float>(rule, a.view().as_const(), b.view().as_const(), c_seq.view(), opts);

  for (Strategy s : {Strategy::kDfs, Strategy::kBfs, Strategy::kHybrid}) {
    Matrix<float> c(dim, dim);
    ExecOptions par = opts;
    par.strategy = s;
    par.num_threads = 4;
    multiply<float>(rule, a.view().as_const(), b.view().as_const(), c.view(), par);
    EXPECT_LT(max_abs_diff(c.view(), c_seq.view()), 1e-5)
        << "strategy=" << to_string(s);
  }
}

INSTANTIATE_TEST_SUITE_P(Strategies, ExecutorStrategies,
                         ::testing::Values("strassen", "bini322", "fast442", "apa333",
                                           "apa555"));

TEST(Executor, PaddingHandlesAwkwardDimensions) {
  // 97 x 103 x 89 is divisible by nothing relevant: the rule runs on the
  // 96 x 102 x 88 core and classical gemms peel the fringe; the result must
  // still be right.
  const Rule& rule = rule_by_name("bini322");
  Rng rng(7);
  Matrix<float> a(97, 103), b(103, 89), c(97, 89);
  fill_random_uniform<float>(a.view(), rng);
  fill_random_uniform<float>(b.view(), rng);
  const Matrix<double> ref = reference_product(a, b);
  multiply<float>(rule, a.view().as_const(), b.view().as_const(), c.view(), {});
  EXPECT_LT(relative_frobenius_error(c.view(), ref.view()), 4 * 3.5e-4);
}

TEST(Executor, RectangularOperands) {
  // Tall-skinny times small: exercises distinct bm/bk/bn.
  const Rule& rule = rule_by_name("fast442");  // <4,4,2>
  Rng rng(17);
  Matrix<float> a(128, 64), b(64, 32), c(128, 32);
  fill_random_uniform<float>(a.view(), rng);
  fill_random_uniform<float>(b.view(), rng);
  const Matrix<double> ref = reference_product(a, b);
  multiply<float>(rule, a.view().as_const(), b.view().as_const(), c.view(), {});
  EXPECT_LT(relative_frobenius_error(c.view(), ref.view()), 1e-5);
}

TEST(Executor, TwoRecursiveStepsExact) {
  const Rule& rule = rule_by_name("strassen");
  const index_t dim = 64;  // divisible by 2^2
  Rng rng(23);
  Matrix<float> a(dim, dim), b(dim, dim), c(dim, dim);
  fill_random_uniform<float>(a.view(), rng);
  fill_random_uniform<float>(b.view(), rng);
  const Matrix<double> ref = reference_product(a, b);
  ExecOptions opts;
  opts.steps = 2;
  multiply<float>(rule, a.view().as_const(), b.view().as_const(), c.view(), opts);
  EXPECT_LT(relative_frobenius_error(c.view(), ref.view()), 1e-5);
}

TEST(Executor, TwoRecursiveStepsApaUsesWeakerBound) {
  const Rule& rule = rule_by_name("bini322");
  const AlgorithmParams params = analyze(rule);
  const index_t dim = 90;  // divisible by 3^2 and 2^2
  Rng rng(29);
  Matrix<float> a(dim, dim), b(dim, dim), c(dim, dim);
  fill_random_uniform<float>(a.view(), rng);
  fill_random_uniform<float>(b.view(), rng);
  const Matrix<double> ref = reference_product(a, b);
  ExecOptions opts;
  opts.steps = 2;
  multiply<float>(rule, a.view().as_const(), b.view().as_const(), c.view(), opts);
  const double err = relative_frobenius_error(c.view(), ref.view());
  EXPECT_LT(err, 4.0 * params.predicted_error(kPrecisionBitsSingle, 2));
}

TEST(Executor, SmallMatrixFallsBackToGemm) {
  // dims below the rule's block shape: straight gemm, exact result.
  const Rule& rule = rule_by_name("apa555");
  Rng rng(31);
  Matrix<float> a(3, 3), b(3, 3), c(3, 3);
  fill_random_uniform<float>(a.view(), rng);
  fill_random_uniform<float>(b.view(), rng);
  const Matrix<double> ref = reference_product(a, b);
  multiply<float>(rule, a.view().as_const(), b.view().as_const(), c.view(), {});
  EXPECT_LT(relative_frobenius_error(c.view(), ref.view()), 1e-6);
}

TEST(Executor, ApaErrorScalesLinearlyWithLambdaInDouble) {
  // In double precision roundoff is negligible at moderate lambda, so the
  // O(lambda) approximation term dominates: halving lambda halves the error.
  const Rule& rule = rule_by_name("bini322");
  const index_t dim = 48;
  Rng rng(37);
  Matrix<double> a(dim, dim), b(dim, dim), ref(dim, dim);
  fill_random_uniform<double>(a.view(), rng);
  fill_random_uniform<double>(b.view(), rng);
  blas::gemm<double>(a.view(), b.view(), ref.view());

  auto error_at = [&](double lambda_value) {
    Matrix<double> c(dim, dim);
    ExecOptions opts;
    opts.lambda = lambda_value;
    multiply<double>(rule, a.view().as_const(), b.view().as_const(), c.view(), opts);
    return relative_frobenius_error(c.view(), ref.view());
  };
  const double e1 = error_at(1e-3);
  const double e2 = error_at(5e-4);
  EXPECT_NEAR(e1 / e2, 2.0, 0.2);
}

TEST(Executor, EvaluatedRuleBiniCoefficients) {
  const double lambda_value = 0.25;
  const EvaluatedRule ev = EvaluatedRule::from(bini322(), lambda_value);
  ASSERT_EQ(ev.u_terms.size(), 10u);
  // M1 = (A11 + A22)(lambda*B11 + B22): U row has entries 0 (A11) and 3 (A22).
  ASSERT_EQ(ev.u_terms[0].size(), 2u);
  EXPECT_EQ(ev.u_terms[0][0].first, 0);
  EXPECT_DOUBLE_EQ(ev.u_terms[0][0].second, 1.0);
  EXPECT_DOUBLE_EQ(ev.v_terms[0][0].second, lambda_value);  // lambda * B11
  // C11 = lambda^-1(M1 + M2 - M3 + M4): first W entry coeff 1/lambda.
  ASSERT_EQ(ev.w_terms[0].size(), 4u);
  EXPECT_DOUBLE_EQ(ev.w_terms[0][0].second, 4.0);
  EXPECT_DOUBLE_EQ(ev.w_terms[0][2].second, -4.0);  // -M3 / lambda
}

TEST(Executor, StridedViewsEmbeddedInLargerStorage) {
  // Operands and output living as blocks of bigger matrices: the executor's
  // block arithmetic must honor leading dimensions throughout.
  const Rule& rule = rule_by_name("strassen");
  Rng rng(41);
  Matrix<float> big_a(100, 100), big_b(100, 100), big_c(100, 100);
  fill_random_uniform<float>(big_a.view(), rng);
  fill_random_uniform<float>(big_b.view(), rng);
  big_c.set_zero();
  auto a_blk = big_a.view().block(3, 5, 64, 64);
  auto b_blk = big_b.view().block(7, 2, 64, 64);
  auto c_blk = big_c.view().block(11, 13, 64, 64);
  multiply<float>(rule, a_blk.as_const(), b_blk.as_const(), c_blk, {});

  Matrix<float> ref(64, 64);
  blas::gemm_reference<float>(blas::Trans::kNo, blas::Trans::kNo, 64, 64, 64, 1.0f,
                              a_blk.data, a_blk.ld, b_blk.data, b_blk.ld, 0.0f,
                              ref.data(), ref.ld());
  EXPECT_LT(relative_frobenius_error(c_blk, ref.view()), 1e-4);
  // Storage outside the C block is untouched.
  EXPECT_EQ(big_c(0, 0), 0.0f);
  EXPECT_EQ(big_c(99, 99), 0.0f);
}

TEST(Rule, DescribeListsProductsAndOutputs) {
  const std::string text = describe(rule_by_name("bini322"));
  EXPECT_NE(text.find("M10 = "), std::string::npos);
  EXPECT_NE(text.find("C32 = "), std::string::npos);
  EXPECT_NE(text.find("(L)*B11"), std::string::npos);      // lambda*B11 in M1
  EXPECT_NE(text.find("(L^-1)*M1"), std::string::npos);    // lambda^-1 in C11
}

TEST(Executor, MismatchedShapesThrow) {
  const Rule& rule = rule_by_name("strassen");
  Matrix<float> a(4, 4), b(6, 4), c(4, 4);
  EXPECT_THROW(multiply<float>(rule, a.view().as_const(), b.view().as_const(), c.view(),
                               {}),
               std::logic_error);
}

/// Materializes the explicit transpose so the zero-copy path can be checked
/// against the plain no-transpose executor on identical logical operands.
Matrix<float> transposed(const Matrix<float>& m) {
  Matrix<float> t(m.cols(), m.rows());
  for (index_t i = 0; i < m.rows(); ++i)
    for (index_t j = 0; j < m.cols(); ++j) t(j, i) = m(i, j);
  return t;
}

class ExecutorTransposes
    : public ::testing::TestWithParam<std::tuple<std::string, bool, bool>> {};

TEST_P(ExecutorTransposes, ZeroCopyTransposeMatchesMaterialized) {
  const auto& [algo, ta, tb] = GetParam();
  const Rule& rule = rule_by_name(algo);
  // 64^3 peels a fringe row for bini322; 66 x 64 x 64 is block-divisible for
  // every rule here, so the core runs the transposed combine directly.
  for (const index_t m : {index_t{64}, index_t{66}}) {
    const index_t k = 64, n = 64;
    Rng rng(static_cast<std::uint64_t>(41 + ta * 2 + tb));
    Matrix<float> op_a(m, k), op_b(k, n), c_plain(m, n), c_trans(m, n);
    fill_random_uniform<float>(op_a.view(), rng);
    fill_random_uniform<float>(op_b.view(), rng);
    multiply<float>(rule, op_a.view().as_const(), op_b.view().as_const(),
                    c_plain.view(), {});

    // Same logical product with transposed storage: both runs alias / combine
    // / pack the same values, so the results must agree to rounding noise.
    const Matrix<float> a_stored = ta ? transposed(op_a) : Matrix<float>();
    const Matrix<float> b_stored = tb ? transposed(op_b) : Matrix<float>();
    multiply<float>(rule, (ta ? a_stored : op_a).view().as_const(),
                    (tb ? b_stored : op_b).view().as_const(), c_trans.view(), {}, ta,
                    tb);
    EXPECT_LT(max_abs_diff(c_trans.view(), c_plain.view()), 1e-5)
        << "algo=" << algo << " m=" << m << " ta=" << ta << " tb=" << tb;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Combos, ExecutorTransposes,
    ::testing::Combine(::testing::Values(std::string("strassen"),
                                         std::string("bini322")),
                       ::testing::Bool(), ::testing::Bool()));

/// One peeling case: a rule, which dimensions carry a fringe, transposes,
/// recursion depth and strategy.
struct PeelCase {
  std::string algo;
  bool fringe_m, fringe_k, fringe_n;
  bool ta, tb;
  int steps;
  Strategy strategy;
};

void PrintTo(const PeelCase& p, std::ostream* os) {
  *os << p.algo << "_" << (p.fringe_m ? "m" : "") << (p.fringe_k ? "k" : "")
      << (p.fringe_n ? "n" : "") << "_" << (p.ta ? "T" : "N") << (p.tb ? "T" : "N")
      << "_steps" << p.steps << "_" << to_string(p.strategy);
}

std::vector<PeelCase> peel_cases() {
  std::vector<PeelCase> cases;
  const bool fringes[4][3] = {
      {true, false, false}, {false, true, false}, {false, false, true}, {true, true, true}};
  for (const char* algo : {"strassen", "bini322", "fast442"}) {
    for (const auto& f : fringes) {
      for (const bool ta : {false, true}) {
        for (const bool tb : {false, true}) {
          for (const int steps : {1, 2}) {
            for (const Strategy s : {Strategy::kSequential, Strategy::kHybrid}) {
              cases.push_back({algo, f[0], f[1], f[2], ta, tb, steps, s});
            }
          }
        }
      }
    }
  }
  return cases;
}

class ExecutorPeeling : public ::testing::TestWithParam<PeelCase> {};

TEST_P(ExecutorPeeling, FringeMatchesClassicalAndCoreWithinRuleBound) {
  const PeelCase& p = GetParam();
  const Rule& rule = rule_by_name(p.algo);
  const AlgorithmParams params = analyze(rule);
  // Core dimensions divisible by the rule's block at both levels (3 blocks of
  // rule-dim^2); a fringe adds the widest remainder, rule-dim - 1 (at least 1).
  const auto dim = [&](index_t block, bool fringe) {
    return 3 * block * block + (fringe ? std::max<index_t>(1, block - 1) : 0);
  };
  const index_t m = dim(rule.m, p.fringe_m);
  const index_t k = dim(rule.k, p.fringe_k);
  const index_t n = dim(rule.n, p.fringe_n);
  const index_t m0 = 3 * rule.m * rule.m;
  const index_t n0 = 3 * rule.n * rule.n;

  Rng rng(static_cast<std::uint64_t>(m * 131 + k * 17 + n));
  Matrix<float> op_a(m, k), op_b(k, n), c(m, n);
  fill_random_uniform<float>(op_a.view(), rng);
  fill_random_uniform<float>(op_b.view(), rng);
  for (auto& v : c.span()) v = std::numeric_limits<float>::quiet_NaN();
  const Matrix<double> ref = reference_product(op_a, op_b);

  const Matrix<float> a_stored = p.ta ? transposed(op_a) : Matrix<float>();
  const Matrix<float> b_stored = p.tb ? transposed(op_b) : Matrix<float>();
  const auto a_view = (p.ta ? a_stored : op_a).view().as_const();
  const auto b_view = (p.tb ? b_stored : op_b).view().as_const();
  ExecOptions opts;
  opts.steps = p.steps;
  opts.strategy = p.strategy;
  opts.num_threads = p.strategy == Strategy::kHybrid ? 3 : 1;
  multiply<float>(rule, a_view, b_view, c.view(), opts, p.ta, p.tb);

  // The whole product, the same tolerance form as the registry sweep.
  const double bound =
      std::max(4.0 * params.predicted_error(kPrecisionBitsSingle, p.steps), 1e-5);
  EXPECT_LT(relative_frobenius_error(c.view(), ref.view()), bound);

  // Fringe rows and columns come from classical gemms over the full k, so
  // they match the reference gemm to float roundoff.
  Matrix<float> exact(m, n);
  blas::gemm_reference<float>(p.ta ? blas::Trans::kYes : blas::Trans::kNo,
                              p.tb ? blas::Trans::kYes : blas::Trans::kNo, m, n, k, 1.0f,
                              a_view.data, a_view.ld, b_view.data, b_view.ld, 0.0f,
                              exact.data(), exact.ld());
  double fringe_diff = 0;
  for (index_t i = 0; i < m; ++i) {
    for (index_t j = 0; j < n; ++j) {
      if (i < m0 && j < n0) continue;
      fringe_diff = std::max(fringe_diff, static_cast<double>(std::abs(c(i, j) - exact(i, j))));
    }
  }
  EXPECT_LT(fringe_diff, 1e-4);
}

INSTANTIATE_TEST_SUITE_P(Peeling, ExecutorPeeling, ::testing::ValuesIn(peel_cases()));

TEST(Executor, TransposedOperandsThroughPadding) {
  // Awkward dims force a peeled fringe on every dimension: the core and the
  // fringe gemms all read the transposed storage as zero-copy views.
  const Rule& rule = rule_by_name("bini322");
  Rng rng(53);
  Matrix<float> op_a(97, 103), op_b(103, 89), c(97, 89);
  fill_random_uniform<float>(op_a.view(), rng);
  fill_random_uniform<float>(op_b.view(), rng);
  const Matrix<double> ref = reference_product(op_a, op_b);
  const Matrix<float> a_stored = transposed(op_a);
  const Matrix<float> b_stored = transposed(op_b);
  multiply<float>(rule, a_stored.view().as_const(), b_stored.view().as_const(),
                  c.view(), {}, true, true);
  EXPECT_LT(relative_frobenius_error(c.view(), ref.view()), 4 * 3.5e-4);
}

TEST(Executor, TransposedStridedViews) {
  // Transposed sub-blocks embedded in larger storage: ld != cols on both
  // operands while the logical operand is the transpose of the view.
  const Rule& rule = rule_by_name("strassen");
  Rng rng(61);
  Matrix<float> big_a(100, 100), big_b(100, 100), c(64, 64), c_ref(64, 64);
  fill_random_uniform<float>(big_a.view(), rng);
  fill_random_uniform<float>(big_b.view(), rng);
  const auto a_blk = big_a.view().block(3, 5, 64, 64);   // stores op(A)^T
  const auto b_blk = big_b.view().block(11, 2, 64, 64);  // stores op(B)^T
  multiply<float>(rule, a_blk.as_const(), b_blk.as_const(), c.view(), {}, true, true);
  blas::gemm_reference<float>(blas::Trans::kYes, blas::Trans::kYes, 64, 64, 64, 1.0f,
                              a_blk.data, a_blk.ld, b_blk.data, b_blk.ld, 0.0f,
                              c_ref.data(), c_ref.ld());
  EXPECT_LT(relative_frobenius_error(c.view(), c_ref.view()), 1e-4);
}

}  // namespace
}  // namespace apa::core
