#pragma once
// Generic executor for fast/APA bilinear rules (paper section 3).
//
// One recursive step splits A into m x k blocks, B into k x n blocks, forms the
// rank-r products M_l = (sum U_l A_blocks)(sum V_l B_blocks) by calls to gemm
// (or recursion), then combines C_blocks = sum W M_l with write-once fused
// additions. Four scheduling strategies are provided:
//
//   kSequential — everything single-threaded;
//   kDfs        — each of the r products uses multithreaded gemm in turn;
//   kBfs        — the r products run concurrently, one thread each
//                 (static schedule; trailing wave leaves threads idle);
//   kHybrid     — the paper's strategy (Fig 2): with r = q*p + rem, each of the
//                 p threads computes q products with single-threaded gemm,
//                 then the rem remainder products run with all-thread gemm.
//
// Non-divisible dimensions are handled by dynamic peeling at each level: the
// rule runs on the largest block-divisible core (zero-copy views), and thin
// classical gemms finish the fringe rows, columns and k-slices.
//
// Workspace: a level stacks its r products (bm x bn blocks) before combining
// them into C. At the bottom level, where every product is one gemm, a tall
// level instead walks C in row bands of h = kMc rows (the gemm's A block
// height): it packs each product's B once per call, then per band forms the
// A combinations of those rows, computes the r band products into an
// r x h x bn stack under the same strategy, and combines them into C's rows.
// It bands when r*bk*bn + r*h*bn < r*bm*bn, i.e. bk + h < bm; the result is
// bit-identical either way, since no element's arithmetic changes.
//
// Combinations: a bare single-unit term aliases its input block. At a short
// bottom level (bm <= 2*kMc, so each packed B block serves at most two A
// blocks) every other A and B combination is handed to the gemm as its list
// of (coefficient, block) terms, and the gemm combines them inside its packs
// (blas/plan.h) instead of reading a materialized temporary back; a banded
// level packs its combined B panels from terms the same way. Taller levels
// still materialize A and B combinations with the write-once combine. Either
// way every element rounds identically.

#include <span>

#include "core/evaluated_rule.h"
#include "core/rule.h"
#include "support/matrix.h"

namespace apa::core {

enum class Strategy { kSequential, kDfs, kBfs, kHybrid };

[[nodiscard]] const char* to_string(Strategy s);

struct ExecOptions {
  double lambda = 0.0;  ///< 0 selects the theoretical optimum for float, 1 step
  int steps = 1;        ///< recursive levels before falling back to gemm
  Strategy strategy = Strategy::kSequential;
  int num_threads = 1;
};

/// c = op(a) * op(b) using `rule` (approximately, for APA rules).
/// `transpose_a` / `transpose_b` take the logical transpose of the stored
/// row-major view with zero copies: blocks flow through the recursion as
/// transposed views and the transpose is resolved inside the gemm packing
/// gather (multi-term combinations use a tile-blocked transposed combine).
template <class T>
void multiply(const Rule& rule, MatrixView<const T> a, MatrixView<const T> b,
              MatrixView<T> c, const ExecOptions& options = {},
              bool transpose_a = false, bool transpose_b = false);

/// Same, with a pre-evaluated rule (lambda already fixed); cheaper when the
/// same rule is applied repeatedly, e.g. inside a training loop.
template <class T>
void multiply(const EvaluatedRule& rule, MatrixView<const T> a, MatrixView<const T> b,
              MatrixView<T> c, int steps, Strategy strategy, int num_threads,
              bool transpose_a = false, bool transpose_b = false);

/// Non-stationary (uniform) recursion, paper section 6: level i of the
/// recursion applies levels[i]; sub-multiplications below the last level fall
/// back to gemm. Rules may have different dimensions — e.g. one <4,4,4> step
/// followed by one <3,2,2> step handles 12*2^a x 8*2^b shapes without peeling.
/// phi accumulates additively across levels, so lambda for each rule should be
/// chosen with the full chain length in mind (analyze + optimal_lambda).
template <class T>
void multiply_nonstationary(std::span<const EvaluatedRule* const> levels,
                            MatrixView<const T> a, MatrixView<const T> b,
                            MatrixView<T> c, Strategy strategy, int num_threads,
                            bool transpose_a = false, bool transpose_b = false);

extern template void multiply<float>(const Rule&, MatrixView<const float>,
                                     MatrixView<const float>, MatrixView<float>,
                                     const ExecOptions&, bool, bool);
extern template void multiply<double>(const Rule&, MatrixView<const double>,
                                      MatrixView<const double>, MatrixView<double>,
                                      const ExecOptions&, bool, bool);
extern template void multiply<float>(const EvaluatedRule&, MatrixView<const float>,
                                     MatrixView<const float>, MatrixView<float>, int,
                                     Strategy, int, bool, bool);
extern template void multiply<double>(const EvaluatedRule&, MatrixView<const double>,
                                      MatrixView<const double>, MatrixView<double>, int,
                                      Strategy, int, bool, bool);
extern template void multiply_nonstationary<float>(std::span<const EvaluatedRule* const>,
                                                   MatrixView<const float>,
                                                   MatrixView<const float>,
                                                   MatrixView<float>, Strategy, int,
                                                   bool, bool);
extern template void multiply_nonstationary<double>(
    std::span<const EvaluatedRule* const>, MatrixView<const double>,
    MatrixView<const double>, MatrixView<double>, Strategy, int, bool, bool);

}  // namespace apa::core
