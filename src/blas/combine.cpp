#include "blas/combine.h"

#include <omp.h>

namespace apa::blas {
namespace {

/// Row-range worker. The inner loops are written so the compiler can vectorize
/// each fixed-arity case; the hot arities for practical rules are 1-4 addends.
template <class T>
void combine_rows(std::span<const Scaled<T>> terms, MatrixView<T> y, index_t row0,
                  index_t row1) {
  const index_t cols = y.cols;
  switch (terms.size()) {
    case 0:
      for (index_t i = row0; i < row1; ++i) {
        T* out = &y(i, 0);
        for (index_t j = 0; j < cols; ++j) out[j] = T{0};
      }
      return;
    case 1: {
      const T c0 = terms[0].coeff;
      for (index_t i = row0; i < row1; ++i) {
        const T* x0 = &terms[0].view(i, 0);
        T* out = &y(i, 0);
        for (index_t j = 0; j < cols; ++j) out[j] = c0 * x0[j];
      }
      return;
    }
    case 2: {
      const T c0 = terms[0].coeff, c1 = terms[1].coeff;
      for (index_t i = row0; i < row1; ++i) {
        const T* x0 = &terms[0].view(i, 0);
        const T* x1 = &terms[1].view(i, 0);
        T* out = &y(i, 0);
        for (index_t j = 0; j < cols; ++j) out[j] = c0 * x0[j] + c1 * x1[j];
      }
      return;
    }
    case 3: {
      const T c0 = terms[0].coeff, c1 = terms[1].coeff, c2 = terms[2].coeff;
      for (index_t i = row0; i < row1; ++i) {
        const T* x0 = &terms[0].view(i, 0);
        const T* x1 = &terms[1].view(i, 0);
        const T* x2 = &terms[2].view(i, 0);
        T* out = &y(i, 0);
        for (index_t j = 0; j < cols; ++j) out[j] = c0 * x0[j] + c1 * x1[j] + c2 * x2[j];
      }
      return;
    }
    case 4: {
      const T c0 = terms[0].coeff, c1 = terms[1].coeff, c2 = terms[2].coeff,
              c3 = terms[3].coeff;
      for (index_t i = row0; i < row1; ++i) {
        const T* x0 = &terms[0].view(i, 0);
        const T* x1 = &terms[1].view(i, 0);
        const T* x2 = &terms[2].view(i, 0);
        const T* x3 = &terms[3].view(i, 0);
        T* out = &y(i, 0);
        for (index_t j = 0; j < cols; ++j) {
          out[j] = c0 * x0[j] + c1 * x1[j] + c2 * x2[j] + c3 * x3[j];
        }
      }
      return;
    }
    default: {
      // Generic arity: first two terms write, the rest accumulate; the output
      // row stays in cache so this remains a single streaming pass per input.
      const T c0 = terms[0].coeff, c1 = terms[1].coeff;
      for (index_t i = row0; i < row1; ++i) {
        const T* x0 = &terms[0].view(i, 0);
        const T* x1 = &terms[1].view(i, 0);
        T* out = &y(i, 0);
        for (index_t j = 0; j < cols; ++j) out[j] = c0 * x0[j] + c1 * x1[j];
        for (std::size_t t = 2; t < terms.size(); ++t) {
          const T ct = terms[t].coeff;
          const T* xt = &terms[t].view(i, 0);
          for (index_t j = 0; j < cols; ++j) out[j] += ct * xt[j];
        }
      }
      return;
    }
  }
}

}  // namespace

template <class T>
void linear_combination(std::span<const Scaled<T>> terms, MatrixView<T> y,
                        int num_threads) {
  for (const auto& t : terms) {
    APA_CHECK(t.view.rows == y.rows && t.view.cols == y.cols);
  }
  if (num_threads <= 1 || y.rows < 2 * num_threads) {
    combine_rows(terms, y, 0, y.rows);
    return;
  }
#pragma omp parallel num_threads(num_threads)
  {
    const int tid = omp_get_thread_num();
    const int nth = omp_get_num_threads();
    const index_t chunk = (y.rows + nth - 1) / nth;
    const index_t row0 = std::min<index_t>(tid * chunk, y.rows);
    const index_t row1 = std::min<index_t>(row0 + chunk, y.rows);
    combine_rows(terms, y, row0, row1);
  }
}

namespace {

template <class T>
void streaming_rows(std::span<const Scaled<T>> terms, MatrixView<T> y, index_t row0,
                    index_t row1) {
  const index_t cols = y.cols;
  for (index_t i = row0; i < row1; ++i) {
    T* out = &y(i, 0);
    for (index_t j = 0; j < cols; ++j) out[j] = T{0};
  }
  for (const auto& term : terms) {
    const T c = term.coeff;
    for (index_t i = row0; i < row1; ++i) {
      const T* x = &term.view(i, 0);
      T* out = &y(i, 0);
      for (index_t j = 0; j < cols; ++j) out[j] += c * x[j];
    }
  }
}

}  // namespace

template <class T>
void linear_combination_streaming(std::span<const Scaled<T>> terms, MatrixView<T> y,
                                  int num_threads) {
  for (const auto& t : terms) {
    APA_CHECK(t.view.rows == y.rows && t.view.cols == y.cols);
  }
  if (num_threads <= 1 || y.rows < 2 * num_threads) {
    streaming_rows(terms, y, 0, y.rows);
    return;
  }
#pragma omp parallel num_threads(num_threads)
  {
    const int tid = omp_get_thread_num();
    const int nth = omp_get_num_threads();
    const index_t chunk = (y.rows + nth - 1) / nth;
    const index_t row0 = std::min<index_t>(tid * chunk, y.rows);
    const index_t row1 = std::min<index_t>(row0 + chunk, y.rows);
    streaming_rows(terms, y, row0, row1);
  }
}

namespace {

/// Tile-blocked transposed combine: each kTile x kTile tile of Y is combined
/// in the inputs' stored orientation by the plain row kernel (stored rows
/// stream at unit stride, and every element rounds exactly as the plain
/// combine rounds it), then written to Y transposed from the L1-resident tile.
template <class T>
void transposed_rows(std::span<const Scaled<T>> terms, MatrixView<T> y, index_t row0,
                     index_t row1) {
  constexpr index_t kTile = 32;
  alignas(64) T tile[kTile * kTile];
  std::vector<Scaled<T>> blocks(terms.begin(), terms.end());
  for (index_t i0 = row0; i0 < row1; i0 += kTile) {
    const index_t ni = std::min(kTile, row1 - i0);
    for (index_t j0 = 0; j0 < y.cols; j0 += kTile) {
      const index_t nj = std::min(kTile, y.cols - j0);
      for (std::size_t t = 0; t < terms.size(); ++t) {
        blocks[t].view = terms[t].view.block(j0, i0, nj, ni);
      }
      combine_rows<T>(blocks, MatrixView<T>(tile, nj, ni, kTile), 0, nj);
      for (index_t i = 0; i < ni; ++i) {
        T* out = &y(i0 + i, j0);
        for (index_t j = 0; j < nj; ++j) out[j] = tile[j * kTile + i];
      }
    }
  }
}

}  // namespace

template <class T>
void linear_combination_transposed(std::span<const Scaled<T>> terms, MatrixView<T> y,
                                   int num_threads) {
  for (const auto& t : terms) {
    APA_CHECK(t.view.rows == y.cols && t.view.cols == y.rows);
  }
  if (num_threads <= 1 || y.rows < 2 * num_threads) {
    transposed_rows(terms, y, 0, y.rows);
    return;
  }
#pragma omp parallel num_threads(num_threads)
  {
    const int tid = omp_get_thread_num();
    const int nth = omp_get_num_threads();
    const index_t chunk = (y.rows + nth - 1) / nth;
    const index_t row0 = std::min<index_t>(tid * chunk, y.rows);
    const index_t row1 = std::min<index_t>(row0 + chunk, y.rows);
    transposed_rows(terms, y, row0, row1);
  }
}

template void linear_combination<float>(std::span<const Scaled<float>>, MatrixView<float>,
                                        int);
template void linear_combination<double>(std::span<const Scaled<double>>,
                                         MatrixView<double>, int);
template void linear_combination_streaming<float>(std::span<const Scaled<float>>,
                                                  MatrixView<float>, int);
template void linear_combination_streaming<double>(std::span<const Scaled<double>>,
                                                   MatrixView<double>, int);
template void linear_combination_transposed<float>(std::span<const Scaled<float>>,
                                                   MatrixView<float>, int);
template void linear_combination_transposed<double>(std::span<const Scaled<double>>,
                                                    MatrixView<double>, int);

}  // namespace apa::blas
