#include "blas/combine.h"

#include <gtest/gtest.h>

#include <vector>

#include "support/matrix.h"
#include "support/rng.h"

namespace apa::blas {
namespace {

template <class T>
Matrix<T> random_matrix(index_t r, index_t c, Rng& rng) {
  Matrix<T> m(r, c);
  fill_random_uniform<T>(m.view(), rng);
  return m;
}

template <class T>
void check_combination(std::size_t arity, int threads) {
  Rng rng(arity * 31 + threads);
  const index_t rows = 37, cols = 53;
  std::vector<Matrix<T>> inputs;
  std::vector<Scaled<T>> terms;
  std::vector<T> coeffs;
  inputs.reserve(arity);
  for (std::size_t i = 0; i < arity; ++i) {
    inputs.push_back(random_matrix<T>(rows, cols, rng));
    coeffs.push_back(static_cast<T>(rng.uniform(-2, 2)));
  }
  for (std::size_t i = 0; i < arity; ++i) {
    terms.push_back({coeffs[i], inputs[i].view()});
  }
  Matrix<T> y(rows, cols);
  fill_random_uniform<T>(y.view(), rng);  // must be fully overwritten
  linear_combination<T>(terms, y.view(), threads);

  for (index_t i = 0; i < rows; ++i) {
    for (index_t j = 0; j < cols; ++j) {
      double expect = 0;
      for (std::size_t t = 0; t < arity; ++t) {
        expect += static_cast<double>(coeffs[t]) * static_cast<double>(inputs[t](i, j));
      }
      EXPECT_NEAR(static_cast<double>(y(i, j)), expect, 1e-5)
          << "arity=" << arity << " (" << i << "," << j << ")";
    }
  }
}

class CombineArity : public ::testing::TestWithParam<int> {};

TEST_P(CombineArity, FloatSingleThread) { check_combination<float>(GetParam(), 1); }
TEST_P(CombineArity, FloatMultiThread) { check_combination<float>(GetParam(), 4); }
TEST_P(CombineArity, Double) { check_combination<double>(GetParam(), 1); }

INSTANTIATE_TEST_SUITE_P(Arities, CombineArity, ::testing::Values(1, 2, 3, 4, 5, 7, 10));

TEST(Combine, StreamingMatchesWriteOnce) {
  Rng rng(12);
  const index_t rows = 45, cols = 67;
  std::vector<Matrix<float>> inputs;
  std::vector<Scaled<float>> terms;
  for (int i = 0; i < 5; ++i) {
    inputs.push_back(random_matrix<float>(rows, cols, rng));
  }
  for (int i = 0; i < 5; ++i) {
    terms.push_back({0.5f * static_cast<float>(i + 1), inputs[i].view()});
  }
  Matrix<float> y_wo(rows, cols), y_st(rows, cols);
  linear_combination<float>(terms, y_wo.view());
  linear_combination_streaming<float>(terms, y_st.view());
  EXPECT_LT(max_abs_diff(y_wo.view(), y_st.view()), 1e-5);
  // Multithreaded streaming agrees too.
  Matrix<float> y_mt(rows, cols);
  linear_combination_streaming<float>(terms, y_mt.view(), 4);
  EXPECT_LT(max_abs_diff(y_st.view(), y_mt.view()), 1e-6);
}

TEST(Combine, TransposedIsBitIdenticalToPlainForEveryArity) {
  // The APA executor combines transposed operand blocks with the transposed
  // kernel and plain ones with the write-once kernel; lambda^-1 coefficients
  // amplify any 1-ulp difference between the two, so they must round
  // identically, term for term.
  Rng rng(21);
  const index_t rows = 45, cols = 70;  // neither a multiple of the 32 tile
  for (std::size_t arity = 1; arity <= 5; ++arity) {
    std::vector<Matrix<float>> plain, stored;
    for (std::size_t t = 0; t < arity; ++t) {
      plain.push_back(random_matrix<float>(rows, cols, rng));
      Matrix<float> tr(cols, rows);
      for (index_t i = 0; i < rows; ++i)
        for (index_t j = 0; j < cols; ++j) tr(j, i) = plain.back()(i, j);
      stored.push_back(std::move(tr));
    }
    std::vector<Scaled<float>> plain_terms, stored_terms;
    for (std::size_t t = 0; t < arity; ++t) {
      // lambda^-1-sized and lambda-sized coefficients, as bini322 uses.
      const float coeff = static_cast<float>(rng.uniform(-2, 2)) * (t % 2 ? 512.0f : 1.0f);
      plain_terms.push_back({coeff, plain[t].view().as_const()});
      stored_terms.push_back({coeff, stored[t].view().as_const()});
    }
    for (const int threads : {1, 4}) {
      Matrix<float> y_plain(rows, cols), y_trans(rows, cols);
      linear_combination<float>(plain_terms, y_plain.view(), threads);
      linear_combination_transposed<float>(stored_terms, y_trans.view(), threads);
      for (index_t i = 0; i < rows; ++i) {
        for (index_t j = 0; j < cols; ++j) {
          ASSERT_EQ(y_trans(i, j), y_plain(i, j))
              << "arity=" << arity << " threads=" << threads << " (" << i << "," << j
              << ")";
        }
      }
    }
  }
}

TEST(Combine, StreamingEmptyTermsZeroes) {
  Matrix<float> y(3, 3);
  for (auto& v : y.span()) v = 5.0f;
  linear_combination_streaming<float>(std::span<const Scaled<float>>{}, y.view());
  for (auto v : y.span()) EXPECT_EQ(v, 0.0f);
}

TEST(Combine, EmptyTermsZeroesOutput) {
  Matrix<float> y(4, 4);
  for (auto& x : y.span()) x = 9.0f;
  linear_combination<float>(std::vector<Scaled<float>>{}, y.view());
  for (auto x : y.span()) EXPECT_EQ(x, 0.0f);
}

TEST(Combine, StridedViews) {
  Rng rng(3);
  Matrix<float> big(20, 20);
  fill_random_uniform<float>(big.view(), rng);
  auto x0 = big.view().block(0, 0, 8, 8);
  auto x1 = big.view().block(10, 10, 8, 8);
  Matrix<float> y(8, 8);
  std::vector<Scaled<float>> terms = {{2.0f, x0.as_const()}, {-1.0f, x1.as_const()}};
  linear_combination<float>(terms, y.view());
  for (index_t i = 0; i < 8; ++i) {
    for (index_t j = 0; j < 8; ++j) {
      EXPECT_FLOAT_EQ(y(i, j), 2.0f * big(i, j) - big(10 + i, 10 + j));
    }
  }
}

TEST(Combine, ShapeMismatchThrows) {
  Matrix<float> x(3, 3), y(4, 4);
  std::vector<Scaled<float>> terms = {{1.0f, x.view().as_const()}};
  EXPECT_THROW(linear_combination<float>(terms, y.view()), std::logic_error);
}

TEST(Combine, WriteOnceOverwritesAliasedAccumulation) {
  // Output initially holds garbage including NaN; write-once must not read it.
  Matrix<float> x(4, 4);
  x.set_zero();
  Matrix<float> y(4, 4);
  for (auto& v : y.span()) v = std::numeric_limits<float>::quiet_NaN();
  std::vector<Scaled<float>> terms = {{1.0f, x.view().as_const()}};
  linear_combination<float>(terms, y.view());
  for (auto v : y.span()) EXPECT_EQ(v, 0.0f);
}

TEST(Combine, SingleRowManyThreadsFallsBackSafely) {
  Matrix<float> x(1, 100), y(1, 100);
  Rng rng(8);
  fill_random_uniform<float>(x.view(), rng);
  std::vector<Scaled<float>> terms = {{3.0f, x.view().as_const()}};
  linear_combination<float>(terms, y.view(), 8);
  for (index_t j = 0; j < 100; ++j) EXPECT_FLOAT_EQ(y(0, j), 3.0f * x(0, j));
}

}  // namespace
}  // namespace apa::blas
