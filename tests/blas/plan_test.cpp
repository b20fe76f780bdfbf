#include "blas/plan.h"

#include <gtest/gtest.h>

#include <cstring>
#include <tuple>
#include <vector>

#include "blas/combine.h"
#include "blas/microkernel.h"
#include "blas/packing.h"
#include "support/check.h"
#include "support/matrix.h"
#include "support/rng.h"

namespace apa::blas {
namespace {

constexpr index_t kMr = detail::MicroShape<float>::kMr;
constexpr index_t kNr = detail::MicroShape<float>::kNr;

/// Builds op(A)/op(B) storage for the given transpose flags, runs gemm_planned
/// with the requested prepack combination, and compares against gemm_reference.
template <class T>
void run_planned_case(Trans ta, Trans tb, index_t m, index_t n, index_t k,
                      bool prepack_a, bool prepack_b, int threads, double tol) {
  Rng rng(static_cast<std::uint64_t>(m * 733 + n * 37 + k * 5 + threads));
  const index_t a_rows = (ta == Trans::kYes) ? k : m;
  const index_t a_cols = (ta == Trans::kYes) ? m : k;
  const index_t b_rows = (tb == Trans::kYes) ? n : k;
  const index_t b_cols = (tb == Trans::kYes) ? k : n;
  Matrix<T> a(a_rows, a_cols), b(b_rows, b_cols), c(m, n), c_ref(m, n);
  fill_random_uniform<T>(a.view(), rng);
  fill_random_uniform<T>(b.view(), rng);
  c.set_zero();
  c_ref.set_zero();

  PackedPanel<T> pa, pb;
  if (prepack_a) pa = PackedPanel<T>::pack_a(ta == Trans::kYes, a.view().as_const());
  if (prepack_b) pb = PackedPanel<T>::pack_b(tb == Trans::kYes, b.view().as_const());
  gemm_planned<T>(ta, a.view().as_const(), prepack_a ? &pa : nullptr, tb,
                  b.view().as_const(), prepack_b ? &pb : nullptr, c.view(), T{1}, T{0},
                  {}, threads);
  gemm_reference<T>(ta, tb, m, n, k, T{1}, a.data(), a.ld(), b.data(), b.ld(), T{0},
                    c_ref.data(), c_ref.ld());
  EXPECT_LT(relative_frobenius_error(c.view().as_const(), c_ref.view().as_const()), tol)
      << "m=" << m << " n=" << n << " k=" << k << " ta=" << (ta == Trans::kYes)
      << " tb=" << (tb == Trans::kYes) << " pa=" << prepack_a << " pb=" << prepack_b;
}

// Edge dimensions around the register-tile shapes plus odd primes: a packed
// panel must reproduce exactly what on-the-fly packing produces at every
// micropanel boundary.
const std::vector<index_t> kEdgeDims = {1,       kMr - 1, kMr + 1, kNr - 1,
                                        kNr + 1, 37,      131};

using TransCase = std::tuple<int, int>;

class PlannedGemmTransposes : public ::testing::TestWithParam<TransCase> {};

TEST_P(PlannedGemmTransposes, PrepackedMatchesReferenceAtEdgeShapes) {
  const auto [ta_i, tb_i] = GetParam();
  const Trans ta = ta_i ? Trans::kYes : Trans::kNo;
  const Trans tb = tb_i ? Trans::kYes : Trans::kNo;
  for (const index_t m : kEdgeDims) {
    for (const index_t n : kEdgeDims) {
      for (const index_t k : kEdgeDims) {
        run_planned_case<float>(ta, tb, m, n, k, true, true, 1, 2e-5);
      }
    }
  }
}

TEST_P(PlannedGemmTransposes, SingleSidePrepackMatchesReference) {
  const auto [ta_i, tb_i] = GetParam();
  const Trans ta = ta_i ? Trans::kYes : Trans::kNo;
  const Trans tb = tb_i ? Trans::kYes : Trans::kNo;
  run_planned_case<float>(ta, tb, 67, 43, 29, true, false, 1, 2e-5);
  run_planned_case<float>(ta, tb, 67, 43, 29, false, true, 1, 2e-5);
  run_planned_case<double>(ta, tb, 31, 53, 17, true, false, 1, 1e-13);
  run_planned_case<double>(ta, tb, 31, 53, 17, false, true, 1, 1e-13);
}

TEST_P(PlannedGemmTransposes, PrepackedCrossesCacheBlockBoundaries) {
  const auto [ta_i, tb_i] = GetParam();
  const Trans ta = ta_i ? Trans::kYes : Trans::kNo;
  const Trans tb = tb_i ? Trans::kYes : Trans::kNo;
  // k > KC forces multiple packed k-blocks; m > MC multiple A blocks.
  run_planned_case<float>(ta, tb, 131, 47, 300, true, true, 1, 5e-5);
  run_planned_case<double>(ta, tb, 130, 33, 270, true, true, 1, 1e-12);
}

INSTANTIATE_TEST_SUITE_P(AllCombos, PlannedGemmTransposes,
                         ::testing::Values(TransCase{0, 0}, TransCase{0, 1},
                                           TransCase{1, 0}, TransCase{1, 1}));

/// Unfused reference: plain product into a copy, then a separate full-matrix
/// epilogue pass. Fusion must be bit-identical (same per-element op order).
void expect_fusion_bit_exact(EpilogueKind kind, index_t m, index_t n, index_t k,
                             float alpha, float beta, int threads) {
  Rng rng(static_cast<std::uint64_t>(m * 19 + n * 7 + k + static_cast<int>(kind)));
  Matrix<float> a(m, k), b(k, n), c_fused(m, n), c_two_pass(m, n), bias(1, n);
  Matrix<float> gate(m, n);
  fill_random_uniform<float>(a.view(), rng);
  fill_random_uniform<float>(b.view(), rng);
  fill_random_uniform<float>(bias.view(), rng);
  // Mixed-sign inputs so ReLU and the gate actually cut.
  fill_random_uniform<float>(gate.view(), rng);
  for (auto& g : gate.span()) g -= 0.5f;
  fill_random_uniform<float>(c_fused.view(), rng);
  copy(c_fused.view().as_const(), c_two_pass.view());

  Epilogue<float> ep{kind, bias.data(), gate.view().as_const()};
  gemm_fused<float>(Trans::kNo, Trans::kNo, a.view(), b.view(), c_fused.view(), alpha,
                    beta, ep, threads);
  gemm_fused<float>(Trans::kNo, Trans::kNo, a.view(), b.view(), c_two_pass.view(),
                    alpha, beta, {}, threads);
  apply_epilogue<float>(ep, c_two_pass.view());
  EXPECT_EQ(max_abs_diff(c_fused.view(), c_two_pass.view()), 0.0)
      << "kind=" << static_cast<int>(kind) << " m=" << m << " n=" << n << " k=" << k;
}

TEST(EpilogueFusion, BitExactAgainstTwoPassAllKinds) {
  for (const EpilogueKind kind :
       {EpilogueKind::kBiasAdd, EpilogueKind::kRelu, EpilogueKind::kBiasAddRelu,
        EpilogueKind::kReluGrad}) {
    expect_fusion_bit_exact(kind, 33, 47, 29, 1.0f, 0.0f, 1);
    // Edge tiles in both directions and multiple k-blocks.
    expect_fusion_bit_exact(kind, kMr + 1, kNr + 1, 300, 1.0f, 0.0f, 1);
    // alpha/beta interact with the epilogue only through the product value.
    expect_fusion_bit_exact(kind, 40, 24, 16, -1.5f, 0.5f, 1);
  }
}

TEST(EpilogueFusion, BitExactUnderThreading) {
  for (const EpilogueKind kind : {EpilogueKind::kBiasAddRelu, EpilogueKind::kReluGrad}) {
    expect_fusion_bit_exact(kind, 64, 96, 130, 1.0f, 0.0f, 4);
  }
}

TEST(EpilogueFusion, DegenerateKStillAppliesEpilogue) {
  // k == 0 short-circuits the engine; the epilogue must still run.
  Matrix<float> c(2, 3), bias(1, 3);
  for (auto& v : c.span()) v = -1.0f;
  bias(0, 0) = 0.5f;
  bias(0, 1) = 2.0f;
  bias(0, 2) = -3.0f;
  Epilogue<float> ep{EpilogueKind::kBiasAddRelu, bias.data(), {}};
  const MatrixView<const float> empty_a{nullptr, 2, 0, 0};
  const MatrixView<const float> empty_b{nullptr, 0, 3, 3};
  gemm_planned<float>(Trans::kNo, empty_a, nullptr, Trans::kNo, empty_b, nullptr,
                      c.view(), 1.0f, 1.0f, ep);
  // c = relu(beta * (-1) + bias).
  EXPECT_EQ(c(0, 0), 0.0f);
  EXPECT_EQ(c(1, 1), 1.0f);
  EXPECT_EQ(c(1, 2), 0.0f);
}

TEST(PlannedGemm, ParallelBitIdenticalToSerial) {
  Rng rng(99);
  const index_t m = 70, n = 150, k = 280;
  Matrix<float> a(m, k), b(k, n), c1(m, n), c4(m, n);
  fill_random_uniform<float>(a.view(), rng);
  fill_random_uniform<float>(b.view(), rng);
  gemm_fused<float>(Trans::kNo, Trans::kNo, a.view(), b.view(), c1.view(), 1.0f, 0.0f,
                    {}, 1);
  gemm_fused<float>(Trans::kNo, Trans::kNo, a.view(), b.view(), c4.view(), 1.0f, 0.0f,
                    {}, 4);
  EXPECT_EQ(max_abs_diff(c1.view(), c4.view()), 0.0);
}

TEST(PlannedGemm, PrepackedBitIdenticalToOnTheFly) {
  // A prepacked panel holds exactly the bytes on-the-fly packing would
  // produce, so results must match bit for bit, not just to tolerance.
  Rng rng(7);
  const index_t m = 61, n = 77, k = 131;
  Matrix<float> a(k, m), b(k, n), c_packed(m, n), c_plain(m, n);  // A stored as A^T
  fill_random_uniform<float>(a.view(), rng);
  fill_random_uniform<float>(b.view(), rng);
  const PackedPanel<float> pa = PackedPanel<float>::pack_a(true, a.view().as_const());
  const PackedPanel<float> pb = PackedPanel<float>::pack_b(false, b.view().as_const());
  gemm_planned<float>(Trans::kYes, a.view().as_const(), &pa, Trans::kNo,
                      b.view().as_const(), &pb, c_packed.view());
  gemm_planned<float>(Trans::kYes, a.view().as_const(), nullptr, Trans::kNo,
                      b.view().as_const(), nullptr, c_plain.view());
  EXPECT_EQ(max_abs_diff(c_packed.view(), c_plain.view()), 0.0);
}

TEST(PlannedGemm, MismatchedPanelIsRejected) {
  Matrix<float> a(8, 8), b(8, 8), c(8, 8);
  a.set_zero();
  b.set_zero();
  const PackedPanel<float> pa = PackedPanel<float>::pack_a(false, a.view().as_const());
  Matrix<float> a_small(4, 8), c_small(4, 8);
  a_small.set_zero();
  // Panel packed for 8x8 op(A) passed with a 4x8 view: hard error, never a
  // silent wrong answer.
  EXPECT_THROW(gemm_planned<float>(Trans::kNo, a_small.view().as_const(), &pa,
                                   Trans::kNo, b.view().as_const(), nullptr,
                                   c_small.view()),
               ApaError);
}

/// Stored matrices and coefficients of one multi-term operand; `logical()`
/// materializes Σ cᵢ·op(Xᵢ) as the executor used to, with
/// linear_combination (or its transposed form for transposed terms).
template <class T>
struct TermOperand {
  std::vector<Matrix<T>> stored;
  std::vector<Scaled<T>> terms;
  bool trans = false;

  TermOperand(int count, bool transposed, index_t rows, index_t cols, bool unit,
              Rng& rng)
      : trans(transposed) {
    for (int t = 0; t < count; ++t) {
      stored.emplace_back(trans ? cols : rows, trans ? rows : cols);
      fill_random_uniform<T>(stored.back().view(), rng);
    }
    // ±1 as in exact rules; λ-scaled (λ, -1/λ, λ², ...) as in APA rules.
    const T lambda = static_cast<T>(0.0173);
    for (int t = 0; t < count; ++t) {
      const T sign = (t % 2 == 0) ? T{1} : T{-1};
      T coeff = sign;
      if (!unit) coeff = (t % 2 == 0) ? sign * lambda * static_cast<T>(t + 1) : sign / lambda;
      terms.push_back({coeff, stored[static_cast<std::size_t>(t)].view().as_const()});
    }
  }

  [[nodiscard]] Matrix<T> logical() const {
    const MatrixView<const T>& first = terms[0].view;
    Matrix<T> out(trans ? first.cols : first.rows, trans ? first.rows : first.cols);
    if (trans) {
      linear_combination_transposed<T>(terms, out.view());
    } else {
      linear_combination<T>(terms, out.view());
    }
    return out;
  }
  [[nodiscard]] Trans flag() const { return trans ? Trans::kYes : Trans::kNo; }
};

/// gemm over multi-term operands (combined inside the packs, and with op(B)
/// prepacked from its terms) must equal materializing both combinations and
/// multiplying the plain results, bit for bit.
template <class T>
void expect_terms_bit_identical(int count, bool ta, bool tb, index_t m, index_t n,
                                index_t k, bool unit, int threads) {
  Rng rng(static_cast<std::uint64_t>(count * 1009 + m * 31 + n * 7 + k + 2 * ta + tb));
  const TermOperand<T> a(count, ta, m, k, unit, rng);
  const TermOperand<T> b(count, tb, k, n, unit, rng);
  const Matrix<T> a_plain = a.logical(), b_plain = b.logical();
  Matrix<T> expected(m, n), fused(m, n), prepacked(m, n);
  gemm_planned<T>(Trans::kNo, a_plain.view(), nullptr, Trans::kNo, b_plain.view(), nullptr,
                  expected.view(), T{1}, T{0}, {}, threads);
  gemm_planned<T>(a.flag(), a.terms, nullptr, b.flag(), b.terms, nullptr, fused.view(),
                  T{1}, T{0}, {}, threads);
  const PackedPanel<T> pb = PackedPanel<T>::pack_b(tb, b.terms, threads);
  gemm_planned<T>(a.flag(), a.terms, nullptr, b.flag(), b.terms, &pb, prepacked.view(),
                  T{1}, T{0}, {}, threads);
  const std::size_t bytes = static_cast<std::size_t>(m * n) * sizeof(T);
  const auto where = [&] {
    return ::testing::Message() << count << " terms, unit=" << unit << " ta=" << ta
                                << " tb=" << tb << " " << m << "x" << n << "x" << k
                                << " threads=" << threads;
  };
  EXPECT_EQ(std::memcmp(fused.data(), expected.data(), bytes), 0) << where();
  EXPECT_EQ(std::memcmp(prepacked.data(), expected.data(), bytes), 0) << where();
}

TEST(MultiTermGemm, BitIdenticalToMaterializedCombination) {
  using Block = detail::BlockShape<float>;
  struct Shape {
    index_t m, n, k;
  };
  // mr/nr tails with a k tail past one kc block; then an mc tail (two A
  // blocks) with an nc tail (two B blocks along n).
  for (const Shape shape : {Shape{kMr + 1, kNr + 3, Block::kKc + 5},
                            Shape{Block::kMc + 7, Block::kNc + kNr + 5, 37}}) {
    for (const int count : {1, 2, 3, 4, 6}) {
      for (const bool unit : {true, false}) {
        for (const bool ta : {false, true}) {
          for (const bool tb : {false, true}) {
            for (const int threads : {1, 2}) {
              expect_terms_bit_identical<float>(count, ta, tb, shape.m, shape.n, shape.k,
                                                unit, threads);
            }
          }
        }
      }
    }
  }
  expect_terms_bit_identical<double>(3, true, false, 31, 53, 270, false, 2);
}

TEST(MultiTermGemm, TermsOfDifferentShapesAreRejected) {
  Matrix<float> x(8, 8), y(8, 4), b(8, 8), c(8, 8);
  x.set_zero();
  y.set_zero();
  b.set_zero();
  const std::vector<Scaled<float>> a_terms = {{1.0f, x.view().as_const()},
                                              {-1.0f, y.view().as_const()}};
  const std::vector<Scaled<float>> b_terms = {{1.0f, b.view().as_const()}};
  EXPECT_THROW(gemm_planned<float>(Trans::kNo, a_terms, nullptr, Trans::kNo, b_terms,
                                   nullptr, c.view()),
               ApaError);
  EXPECT_THROW((void)PackedPanel<float>::pack_b(false, a_terms), ApaError);
}

}  // namespace
}  // namespace apa::blas
