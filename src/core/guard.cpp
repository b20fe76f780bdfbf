#include "core/guard.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "support/check.h"

namespace apa::core {
namespace {

// The verify kernels read only stored rows, at unit stride. An untransposed
// operand is walked row by row as dot products; a transposed one as
// row-scaled accumulations (stored row t of M is column t of op(M), so
// op(M)·w = sum_t w_t * row_t), so neither layout strides down columns. The
// `omp simd` reductions give the compiler license to reassociate (and so
// vectorize) the accumulations without -ffast-math. Any reassociation error
// is O(k u) per row, far inside the guard's accumulation-floor tolerance.

inline double dot(const float* x, const double* w, index_t n) {
  double acc = 0;
#pragma omp simd reduction(+ : acc)
  for (index_t j = 0; j < n; ++j) acc += static_cast<double>(x[j]) * w[j];
  return acc;
}

// One pass over a row producing both sum_j |x_j| and sum_j x_j w_j.
inline void abs_and_dot(const float* x, const double* w, index_t n, double& abs_out,
                        double& dot_out) {
  double abs_acc = 0, dot_acc = 0;
#pragma omp simd reduction(+ : abs_acc, dot_acc)
  for (index_t j = 0; j < n; ++j) {
    const double v = static_cast<double>(x[j]);
    abs_acc += std::abs(v);
    dot_acc += v * w[j];
  }
  abs_out = abs_acc;
  dot_out = dot_acc;
}

// One pass producing both sum_j |x_j| wa_j and sum_j x_j wd_j.
inline void weighted_abs_and_dot(const float* x, const double* w_abs,
                                 const double* w_dot, index_t n, double& abs_out,
                                 double& dot_out) {
  double abs_acc = 0, dot_acc = 0;
#pragma omp simd reduction(+ : abs_acc, dot_acc)
  for (index_t j = 0; j < n; ++j) {
    const double v = static_cast<double>(x[j]);
    abs_acc += std::abs(v) * w_abs[j];
    dot_acc += v * w_dot[j];
  }
  abs_out = abs_acc;
  dot_out = dot_acc;
}

// y_dot += s_dot * x, and y_abs += s_abs * |x| when y_abs is given.
inline void scaled_accumulate(const float* x, double s_dot, double* y_dot,
                              double s_abs, double* y_abs, index_t n) {
  if (y_abs == nullptr) {
#pragma omp simd
    for (index_t j = 0; j < n; ++j) y_dot[j] += s_dot * static_cast<double>(x[j]);
    return;
  }
#pragma omp simd
  for (index_t j = 0; j < n; ++j) {
    const double v = static_cast<double>(x[j]);
    y_dot[j] += s_dot * v;
    y_abs[j] += s_abs * std::abs(v);
  }
}

/// out = op(M)·w for a stored row-major M and, when out_abs is given,
/// out_abs = |op(M)|·w_abs (w_abs == nullptr weighs every |entry| by 1).
void apply_op(MatrixView<const float> mat, bool trans, const double* w,
              const double* w_abs, double* out, double* out_abs) {
  if (!trans) {
    for (index_t i = 0; i < mat.rows; ++i) {
      const float* row = mat.data + i * mat.ld;
      if (out_abs == nullptr) {
        out[i] = dot(row, w, mat.cols);
      } else if (w_abs == nullptr) {
        abs_and_dot(row, w, mat.cols, out_abs[i], out[i]);
      } else {
        weighted_abs_and_dot(row, w_abs, w, mat.cols, out_abs[i], out[i]);
      }
    }
    return;
  }
  std::fill(out, out + mat.cols, 0.0);
  if (out_abs != nullptr) std::fill(out_abs, out_abs + mat.cols, 0.0);
  for (index_t t = 0; t < mat.rows; ++t) {
    scaled_accumulate(mat.data + t * mat.ld, w[t], out,
                      w_abs != nullptr ? w_abs[t] : 1.0, out_abs, mat.cols);
  }
}

}  // namespace

ProductGuard::ProductGuard(double relative_error_bound, GuardOptions options)
    : relative_error_bound_(relative_error_bound), options_(options) {
  APA_CHECK_MSG(relative_error_bound_ >= 0.0, "error bound must be non-negative");
  APA_CHECK_MSG(options_.num_probes >= 1, "need at least one probe");
}

double ProductGuard::model_error_bound(const AlgorithmParams& params,
                                       int precision_bits, int steps) {
  if (params.exact || params.sigma == 0) {
    // Exact rules only accumulate roundoff; k * 2^-d with modest k.
    return std::exp2(-precision_bits);
  }
  return params.predicted_error(precision_bits, std::max(1, steps));
}

double ProductGuard::error_bound_for_lambda(const AlgorithmParams& params,
                                            double lambda, int precision_bits,
                                            int steps) {
  APA_CHECK_MSG(lambda > 0.0, "lambda must be positive");
  if (params.exact || params.sigma == 0) return std::exp2(-precision_bits);
  const double approx = std::pow(lambda, params.sigma);
  const double roundoff =
      std::exp2(-precision_bits) *
      std::pow(lambda, -static_cast<double>(std::max(1, steps)) * params.phi);
  return approx + roundoff;
}

bool ProductGuard::all_finite(MatrixView<const float> c) {
  for (index_t i = 0; i < c.rows; ++i) {
    const float* row = c.data + i * c.ld;
    // Branch-free accumulation lets the compiler vectorize the scan.
    bool row_finite = true;
    for (index_t j = 0; j < c.cols; ++j) row_finite &= std::isfinite(row[j]);
    if (!row_finite) return false;
  }
  return true;
}

GuardReport ProductGuard::verify(MatrixView<const float> a,
                                 MatrixView<const float> b,
                                 MatrixView<const float> c, Rng& rng,
                                 bool transpose_a, bool transpose_b) const {
  const index_t m = transpose_a ? a.cols : a.rows;
  const index_t k = transpose_a ? a.rows : a.cols;
  const index_t kb = transpose_b ? b.cols : b.rows;
  const index_t n = transpose_b ? b.rows : b.cols;
  APA_CHECK_CODE(k == kb && c.rows == m && c.cols == n, ErrorCode::kShapeMismatch,
                 "guard operands disagree: op(A) " << m << "x" << k << ", op(B) "
                                                   << kb << "x" << n << ", C "
                                                   << c.rows << "x" << c.cols);

  GuardReport report;
  if (m == 0 || n == 0) return report;

  if (!all_finite(c)) {
    report.ok = false;
    report.nonfinite_output = true;
    return report;
  }

  std::vector<double> r(static_cast<std::size_t>(n));
  std::vector<double> br(static_cast<std::size_t>(k));
  std::vector<double> abs_br(static_cast<std::size_t>(k));
  std::vector<double> scale(static_cast<std::size_t>(m));
  // Every product — exact rules included — bottoms out in length-k float
  // accumulations, so O(k)*u roundoff rides on top of the sigma/phi bound.
  const double accumulation_floor = static_cast<double>(k) * std::exp2(-24);
  const double rel =
      (relative_error_bound_ + accumulation_floor) * options_.tolerance_multiplier;

  // The first probe's passes over op(B) and op(A) also build the row scales
  // S_i = sum_j (|op(A)| |op(B)|)_ij, reduced to S = max_i S_i — the product
  // magnitude against which the sigma/phi model's *relative* error is
  // measured. The tolerance is matrix-level (S, not S_i) on purpose: block
  // APA rules leak O(lambda^sigma) of *neighboring* block rows into each
  // output row, so an all-zero input row (dead ReLU unit, blank pixel) still
  // carries residual proportional to the rest of the matrix — a per-row
  // scale would flag every honest sparse row. Probe-independent, so later
  // probes run dot-only passes against the cached tolerance.
  std::vector<double> abr(static_cast<std::size_t>(m));
  std::vector<double> residual(static_cast<std::size_t>(m));
  double tolerance = 0;
  bool scale_ready = false;
  for (int probe = 0; probe < options_.num_probes; ++probe) {
    // Rademacher probe: +-1 keeps every column's contribution at full
    // magnitude, so no error entry is attenuated out of the residual.
    for (auto& x : r) x = (rng.next_u64() & 1) ? 1.0 : -1.0;

    // br = op(B)·r and abr = op(A)·br; the first probe also builds
    // abs_br = |op(B)|·1 and scale = |op(A)|·abs_br.
    apply_op(b, transpose_b, r.data(), nullptr, br.data(),
             scale_ready ? nullptr : abs_br.data());
    apply_op(a, transpose_a, br.data(), abs_br.data(), abr.data(),
             scale_ready ? nullptr : scale.data());
    for (index_t i = 0; i < m; ++i) {
      const auto ii = static_cast<std::size_t>(i);
      residual[ii] = std::abs(dot(c.data + i * c.ld, r.data(), n) - abr[ii]);
    }
    if (!scale_ready) {
      double scale_max = 0;
      for (const double s : scale) scale_max = std::max(scale_max, s);
      tolerance = rel * scale_max + options_.min_absolute_tolerance;
      scale_ready = true;
    }
    for (const double res : residual) {
      const double ratio = res / tolerance;
      if (ratio > report.worst_ratio) report.worst_ratio = ratio;
    }
  }
  report.ok = report.worst_ratio <= 1.0;
  return report;
}

}  // namespace apa::core
