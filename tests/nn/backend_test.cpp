#include "nn/backend.h"

#include <string>

#include <gtest/gtest.h>

#include "blas/gemm.h"
#include "core/registry.h"
#include "core/transforms.h"
#include "support/rng.h"

namespace apa::nn {
namespace {

Matrix<float> random_matrix(index_t r, index_t c, std::uint64_t seed) {
  Matrix<float> m(r, c);
  Rng rng(seed);
  fill_random_uniform<float>(m.view(), rng);
  return m;
}

Matrix<float> reference(MatrixView<const float> a, MatrixView<const float> b, bool ta,
                        bool tb) {
  const index_t m = ta ? a.cols : a.rows;
  const index_t k = ta ? a.rows : a.cols;
  const index_t n = tb ? b.rows : b.cols;
  Matrix<float> c(m, n);
  blas::gemm_reference<float>(ta ? blas::Trans::kYes : blas::Trans::kNo,
                              tb ? blas::Trans::kYes : blas::Trans::kNo, m, n, k, 1.0f,
                              a.data, a.ld, b.data, b.ld, 0.0f, c.data(), c.ld());
  return c;
}

class BackendTransposes : public ::testing::TestWithParam<std::pair<bool, bool>> {};

TEST_P(BackendTransposes, ClassicalMatchesReference) {
  const auto [ta, tb] = GetParam();
  const auto a = ta ? random_matrix(20, 30, 1) : random_matrix(30, 20, 1);
  const auto b = tb ? random_matrix(40, 20, 2) : random_matrix(20, 40, 2);
  MatmulBackend backend("classical");
  Matrix<float> c(30, 40);
  backend.matmul(a.view().as_const(), b.view().as_const(), c.view(), ta, tb);
  const auto ref = reference(a.view().as_const(), b.view().as_const(), ta, tb);
  EXPECT_LT(max_abs_diff(c.view(), ref.view()), 1e-4);
}

TEST_P(BackendTransposes, ApaMatchesReferenceWithinBound) {
  const auto [ta, tb] = GetParam();
  // Square-ish dims divisible by the rule blocks; cutoff lowered so the APA
  // path actually runs at this size.
  const auto a = random_matrix(48, 48, 3);
  const auto b = random_matrix(48, 48, 4);
  BackendOptions options;
  options.min_dim_for_fast = 1;
  MatmulBackend backend("bini322", options);
  ASSERT_NE(backend.dispatch_for(48, 48, 48), nullptr);
  Matrix<float> c(48, 48);
  backend.matmul(a.view().as_const(), b.view().as_const(), c.view(), ta, tb);
  const auto ref = reference(a.view().as_const(), b.view().as_const(), ta, tb);
  EXPECT_LT(relative_frobenius_error(c.view(), ref.view()), 2e-3);
}

TEST(Backend, CutoffFallsBackToClassical) {
  MatmulBackend backend("fast442");  // default cutoff 128
  EXPECT_EQ(backend.dispatch_for(64, 25088, 4096), nullptr);   // batch too small
  EXPECT_NE(backend.dispatch_for(256, 25088, 4096), nullptr);  // all dims large
}

TEST(Backend, OrientationMatchesProblemAspect) {
  BackendOptions options;
  options.min_dim_for_fast = 1;
  MatmulBackend backend("fast442", options);  // base <4,4,2>
  // dW-like shape: large m, tiny k, large n -> the 2 must land on k.
  const auto* mm = backend.dispatch_for(25088, 256, 4096);
  ASSERT_NE(mm, nullptr);
  EXPECT_EQ(mm->params().k, 2);
  // Forward-like shape: small m, huge k, large n -> the 2 lands on m.
  const auto* fwd = backend.dispatch_for(256, 25088, 4096);
  ASSERT_NE(fwd, nullptr);
  EXPECT_EQ(fwd->params().m, 2);
  EXPECT_EQ(fwd->params().k, 4);
}

TEST(Backend, DispatchOrientsLikeOrientRule) {
  // dispatch_for and core::orient_rule share one predicate; pin that they pick
  // the same orientation for every registry rule on every rank order of the
  // problem dims, ties included. The sizes are VGG-19's batch, hidden width
  // and flattened input, so the grid holds the head's fwd, dx and dW shapes.
  BackendOptions options;
  options.min_dim_for_fast = 1;
  const index_t sizes[] = {64, 256, 4096, 25088};
  for (const std::string& name : core::algorithm_names()) {
    const MatmulBackend backend(name, options);
    const core::Rule& rule = core::rule_by_name(name);
    for (const index_t m : sizes) {
      for (const index_t k : sizes) {
        for (const index_t n : sizes) {
          SCOPED_TRACE(name + " " + std::to_string(m) + "x" + std::to_string(k) +
                       "x" + std::to_string(n));
          const core::FastMatmul* mm = backend.dispatch_for(m, k, n);
          ASSERT_NE(mm, nullptr);
          const core::Rule oriented = core::orient_rule(rule, m, k, n);
          EXPECT_EQ(mm->params().m, oriented.m);
          EXPECT_EQ(mm->params().k, oriented.k);
          EXPECT_EQ(mm->params().n, oriented.n);
        }
      }
    }
  }
}

TEST(Backend, OrientedResultStaysAccurate) {
  // Rectangular problem where orientation changes the applied rule.
  Rng rng(11);
  Matrix<float> a(32, 256), b(256, 128), c(32, 128);
  fill_random_uniform<float>(a.view(), rng);
  fill_random_uniform<float>(b.view(), rng);
  BackendOptions options;
  options.min_dim_for_fast = 1;
  MatmulBackend backend("fast442", options);
  backend.matmul(a.view().as_const(), b.view().as_const(), c.view());
  const auto ref = reference(a.view().as_const(), b.view().as_const(), false, false);
  EXPECT_LT(relative_frobenius_error(c.view(), ref.view()), 1e-4);
}

INSTANTIATE_TEST_SUITE_P(Combos, BackendTransposes,
                         ::testing::Values(std::pair{false, false}, std::pair{true, false},
                                           std::pair{false, true}, std::pair{true, true}));

TEST(Backend, ExposesAlgorithmName) {
  EXPECT_EQ(MatmulBackend("classical").algorithm(), "classical");
  EXPECT_TRUE(MatmulBackend("classical").is_classical());
  EXPECT_EQ(MatmulBackend("fast442").algorithm(), "fast442");
  EXPECT_FALSE(MatmulBackend("fast442").is_classical());
}

TEST(Backend, ShapeMismatchThrows) {
  MatmulBackend backend("classical");
  Matrix<float> a(4, 5), b(6, 3), c(4, 3);
  EXPECT_THROW(backend.matmul(a.view().as_const(), b.view().as_const(), c.view()),
               std::logic_error);
}

TEST(Backend, SwappedTransposeEvaluationIsAccurate) {
  // dx-like shape: small-m times a huge transposed operand; the backend should
  // take the swapped path (C^T = B A^T) and still be correct.
  Rng rng(13);
  Matrix<float> dy(8, 64), w(512, 64), dx(8, 512);
  fill_random_uniform<float>(dy.view(), rng);
  fill_random_uniform<float>(w.view(), rng);
  BackendOptions options;
  options.min_dim_for_fast = 1;
  MatmulBackend backend("strassen", options);
  backend.matmul(dy.view().as_const(), w.view().as_const(), dx.view(), false, true);
  const auto ref =
      reference(dy.view().as_const(), w.view().as_const(), false, true);
  EXPECT_LT(relative_frobenius_error(dx.view(), ref.view()), 1e-4);
}

TEST(Backend, CopyIsCheapHandle) {
  MatmulBackend a("bini322");
  MatmulBackend b = a;  // NOLINT(performance-unnecessary-copy-initialization)
  EXPECT_EQ(b.algorithm(), "bini322");
}

TEST(Backend, FusedEpilogueMatchesSeparatePassOnClassical) {
  const auto x = random_matrix(24, 32, 5);
  const auto w = random_matrix(32, 16, 6);
  auto bias = random_matrix(1, 16, 7);
  MatmulBackend backend("classical");
  Matrix<float> fused(24, 16), two_pass(24, 16);

  MatmulFusion fusion;
  fusion.epilogue.kind = blas::EpilogueKind::kBiasAddRelu;
  fusion.epilogue.bias = bias.data();
  backend.matmul_ex(x.view().as_const(), w.view().as_const(), fused.view(), false,
                    false, fusion);

  backend.matmul(x.view().as_const(), w.view().as_const(), two_pass.view());
  blas::apply_epilogue<float>(fusion.epilogue, two_pass.view());
  EXPECT_EQ(max_abs_diff(fused.view(), two_pass.view()), 0.0);
}

TEST(Backend, FusedEpilogueMatchesSeparatePassOnApaPath) {
  // On APA dispatches the epilogue runs as a separate pass after the combine
  // stage, so it must agree exactly with the manual two-pass evaluation.
  const auto x = random_matrix(48, 48, 8);
  const auto w = random_matrix(48, 48, 9);
  auto bias = random_matrix(1, 48, 10);
  BackendOptions options;
  options.min_dim_for_fast = 32;
  MatmulBackend backend("bini322", options);
  ASSERT_NE(backend.dispatch_for(48, 48, 48), nullptr);
  Matrix<float> fused(48, 48), two_pass(48, 48);

  MatmulFusion fusion;
  fusion.epilogue.kind = blas::EpilogueKind::kBiasAdd;
  fusion.epilogue.bias = bias.data();
  backend.matmul_ex(x.view().as_const(), w.view().as_const(), fused.view(), false,
                    false, fusion);

  backend.matmul(x.view().as_const(), w.view().as_const(), two_pass.view());
  blas::apply_epilogue<float>(fusion.epilogue, two_pass.view());
  EXPECT_EQ(max_abs_diff(fused.view(), two_pass.view()), 0.0);
}

}  // namespace
}  // namespace apa::nn
