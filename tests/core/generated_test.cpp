// Validates codegen output end-to-end: the kernels examples/codegen_tool emits
// into the build tree must compile (enforced by the build) and agree with the
// runtime executor evaluating the same rule at the same lambda.

#include <gtest/gtest.h>

#include <cmath>

#include "blas/gemm.h"
#include "core/executor.h"
#include "core/registry.h"
#include "support/matrix.h"
#include "support/rng.h"

namespace apa {

// Emitted by codegen_tool with its default lambda policy: exact rules at
// lambda = 1, APA rules at the single-precision optimum. Each performs ONE
// recursive step; operand dims must be block multiples.
namespace generated {
void strassen_multiply(MatrixView<const float> a, MatrixView<const float> b,
                       MatrixView<float> c, int num_threads);
void bini322_multiply(MatrixView<const float> a, MatrixView<const float> b,
                      MatrixView<float> c, int num_threads);
void fast442_multiply(MatrixView<const float> a, MatrixView<const float> b,
                      MatrixView<float> c, int num_threads);
}  // namespace generated

namespace {

using GeneratedFn = void (*)(MatrixView<const float>, MatrixView<const float>,
                             MatrixView<float>, int);

void check_against_executor(const char* algo, GeneratedFn fn, double lambda_value,
                            index_t dim) {
  Rng rng(static_cast<std::uint64_t>(dim));
  Matrix<float> a(dim, dim), b(dim, dim), c_gen(dim, dim), c_exec(dim, dim);
  fill_random_uniform<float>(a.view(), rng);
  fill_random_uniform<float>(b.view(), rng);

  fn(a.view().as_const(), b.view().as_const(), c_gen.view(), 1);

  const auto evaluated =
      core::EvaluatedRule::from(core::rule_by_name(algo), lambda_value);
  core::multiply<float>(evaluated, a.view().as_const(), b.view().as_const(),
                        c_exec.view(), 1, core::Strategy::kSequential, 1);
  // Same arithmetic in the same order: results must agree to the last ulp of
  // the combination coefficients' rounding (coefficients pass through a
  // double -> float cast in both paths).
  EXPECT_LT(max_abs_diff(c_gen.view(), c_exec.view()), 1e-5) << algo << " @ " << dim;
}

TEST(Generated, StrassenMatchesExecutor) {
  check_against_executor("strassen", generated::strassen_multiply, 1.0, 64);
  check_against_executor("strassen", generated::strassen_multiply, 1.0, 130);
}

TEST(Generated, Bini322MatchesExecutor) {
  check_against_executor("bini322", generated::bini322_multiply,
                         std::exp2(-11.5), 60);
}

TEST(Generated, Fast442MatchesExecutor) {
  check_against_executor("fast442", generated::fast442_multiply, 1.0, 64);
}

TEST(Generated, StrassenIsAccurate) {
  const index_t dim = 64;
  Rng rng(3);
  Matrix<float> a(dim, dim), b(dim, dim), c(dim, dim), ref(dim, dim);
  fill_random_uniform<float>(a.view(), rng);
  fill_random_uniform<float>(b.view(), rng);
  generated::strassen_multiply(a.view().as_const(), b.view().as_const(), c.view(), 1);
  blas::gemm<float>(a.view(), b.view(), ref.view());
  EXPECT_LT(relative_frobenius_error(c.view(), ref.view()), 1e-5);
}

TEST(Generated, IndivisibleDimsRejected) {
  Matrix<float> a(3, 3), b(3, 3), c(3, 3);
  a.set_zero();
  b.set_zero();
  EXPECT_THROW(generated::strassen_multiply(a.view().as_const(), b.view().as_const(),
                                            c.view(), 1),
               std::logic_error);
}

}  // namespace
}  // namespace apa
