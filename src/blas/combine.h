#pragma once
// Fused multi-operand linear combinations:
//
//   Y = sum_i coeff[i] * X_i        (write-once)
//
// These implement the matrix additions of fast/APA algorithms. They are memory
// bandwidth bound; the "write-once" strategy (each output written exactly once,
// all inputs streamed in a single fused pass) is the one Benson & Ballard found
// fastest and the paper adopts (section 3.2).

#include <span>
#include <vector>

#include "support/matrix.h"

namespace apa::blas {

/// One addend of a linear combination: coeff * view.
template <class T>
struct Scaled {
  T coeff;
  MatrixView<const T> view;
};

/// Y = sum of terms (write-once). All views must have Y's shape.
/// num_threads > 1 splits rows across an OpenMP team; num_threads == 1 makes
/// no OpenMP calls (safe under an enclosing parallel region).
template <class T>
void linear_combination(std::span<const Scaled<T>> terms, MatrixView<T> y,
                        int num_threads = 1);

/// The naive alternative the write-once strategy replaced: one full pass over
/// Y per term (Y = c0*X0; then Y += ci*Xi for each i), re-reading and
/// re-writing Y every pass. Provided for the strategy ablation
/// (bench/ablation_writeonce); produces identical results.
template <class T>
void linear_combination_streaming(std::span<const Scaled<T>> terms, MatrixView<T> y,
                                  int num_threads = 1);

/// Y = sum of terms where every term's view is stored TRANSPOSED:
/// y(i, j) = sum_t coeff[t] * view_t(j, i). All views must have Y's shape
/// transposed. Used by the APA executor's combine stage when the operand
/// blocks flow through the recursion as zero-copy transposed views. Each tile
/// is combined in the stored orientation by the same kernel as
/// linear_combination, so the result is bit-identical to linear_combination
/// over materialized transposes.
template <class T>
void linear_combination_transposed(std::span<const Scaled<T>> terms, MatrixView<T> y,
                                   int num_threads = 1);

namespace detail {

/// Rows [row0, row1) of Y = sum of terms: the row kernel of every combine
/// above. Exposed so the gemm packs can combine operands in place with the
/// same rounding as a materialized combination.
template <class T>
void combine_rows(std::span<const Scaled<T>> terms, MatrixView<T> y, index_t row0,
                  index_t row1);

extern template void combine_rows<float>(std::span<const Scaled<float>>,
                                         MatrixView<float>, index_t, index_t);
extern template void combine_rows<double>(std::span<const Scaled<double>>,
                                          MatrixView<double>, index_t, index_t);

}  // namespace detail

/// Convenience overload.
template <class T>
void linear_combination(const std::vector<Scaled<T>>& terms, MatrixView<T> y,
                        int num_threads = 1) {
  linear_combination(std::span<const Scaled<T>>(terms.data(), terms.size()), y,
                     num_threads);
}

extern template void linear_combination<float>(std::span<const Scaled<float>>,
                                               MatrixView<float>, int);
extern template void linear_combination<double>(std::span<const Scaled<double>>,
                                                MatrixView<double>, int);
extern template void linear_combination_streaming<float>(std::span<const Scaled<float>>,
                                                         MatrixView<float>, int);
extern template void linear_combination_streaming<double>(
    std::span<const Scaled<double>>, MatrixView<double>, int);
extern template void linear_combination_transposed<float>(
    std::span<const Scaled<float>>, MatrixView<float>, int);
extern template void linear_combination_transposed<double>(
    std::span<const Scaled<double>>, MatrixView<double>, int);

}  // namespace apa::blas
