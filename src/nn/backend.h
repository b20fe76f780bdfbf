#pragma once
// Pluggable matrix-multiplication backend for the NN layers — the analog of
// the paper's custom TensorFlow operators: a "classical" backend that calls
// gemm directly (their fair baseline, which beat TF's built-in op) and APA
// backends wrapping any registry rule.
//
// Two practical behaviours the paper's framework relies on are built in:
//   * orientation matching (paper section 6): the rule is permuted per call so
//     its largest dimension splits the problem's largest dimension — without
//     this, backward-pass multiplications like dW = x^T dy (inner dim = batch)
//     get their smallest dimension shattered and run far slower than gemm;
//   * a minimum-dimension cutoff: problems with any dimension below the
//     cutoff fall back to classical gemm, where one recursive step cannot pay.
//
// Transposed operands are zero-copy on every path: the classical backend uses
// gemm's native pack-with-transpose, and the APA executor threads transposed
// views through its recursion (core/executor.h). Callers can additionally pass
// a MatmulFusion — a fused epilogue (bias add / ReLU / ReLU-backward mask)
// plus an optional prepacked-operand GemmPlan — via matmul_ex; the classical
// path fuses the epilogue into the gemm tile loop, the APA path applies it as
// one pass after the combine stage.

#include <array>
#include <memory>
#include <string>
#include <vector>

#include "blas/plan.h"
#include "core/fastmm.h"

namespace apa::nn {

struct BackendOptions {
  core::FastMatmulOptions matmul;
  /// Fall back to classical gemm when min(m, k, n) is below this. The one
  /// cutoff: tune::TunedBackend bypasses tuning below it too.
  index_t min_dim_for_fast = 128;
  /// Nominal machine constants for an uncalibrated cost-model estimate
  /// (tune::CostCalibration measures the real ones).
  static constexpr double assumed_gemm_gflops = 45.0;
  static constexpr double assumed_add_bandwidth = 8e9;  // bytes/second
};

/// Optional extras for one matmul call: an elementwise epilogue applied to C
/// after the product, and prepacked operand panels reused across calls (only
/// panels whose shape matches the call's op-operands are consumed; the plan is
/// ignored on APA dispatches, which pack per sub-block).
struct MatmulFusion {
  blas::Epilogue<float> epilogue;
  const blas::GemmPlan<float>* plan = nullptr;
};

class MatmulBackend {
 public:
  /// `algorithm`: "classical" or a registry name.
  explicit MatmulBackend(const std::string& algorithm, BackendOptions options = {});
  /// Convenience: wrap existing FastMatmul options with default backend policy.
  MatmulBackend(const std::string& algorithm, core::FastMatmulOptions matmul_options);
  virtual ~MatmulBackend() = default;
  MatmulBackend(const MatmulBackend&) = default;
  MatmulBackend(MatmulBackend&&) = default;
  MatmulBackend& operator=(const MatmulBackend&) = default;
  MatmulBackend& operator=(MatmulBackend&&) = default;

  /// c = op(a) * op(b), where op transposes the stored row-major matrix.
  void matmul(MatrixView<const float> a, MatrixView<const float> b,
              MatrixView<float> c, bool transpose_a = false,
              bool transpose_b = false) const {
    matmul_ex(a, b, c, transpose_a, transpose_b, MatmulFusion{});
  }

  /// matmul with a fused epilogue and/or prepacked operands. Virtual so policy
  /// wrappers (e.g. GuardedBackend) can interpose; note the NN models that
  /// store backends by value slice wrappers away — pass wrappers through the
  /// shared_ptr constructors instead.
  virtual void matmul_ex(MatrixView<const float> a, MatrixView<const float> b,
                         MatrixView<float> c, bool transpose_a, bool transpose_b,
                         const MatmulFusion& fusion) const;

  [[nodiscard]] const std::string& algorithm() const { return name_; }
  [[nodiscard]] bool is_classical() const { return orientations_.empty(); }
  [[nodiscard]] int num_threads() const { return options_.matmul.num_threads; }
  [[nodiscard]] const BackendOptions& options() const { return options_; }
  /// Lambda the fast path actually runs at (1.0 for classical) — the value the
  /// trainer's divergence recovery shrinks.
  [[nodiscard]] double effective_lambda() const {
    return orientations_.empty() ? 1.0 : orientations_.front()->lambda();
  }

  /// The FastMatmul instance that a problem of logical shape (m, k, n) would
  /// dispatch to; nullptr when it would use classical gemm. Exposed for tests
  /// and instrumentation.
  [[nodiscard]] const core::FastMatmul* dispatch_for(index_t m, index_t k,
                                                     index_t n) const;

 private:
  std::string name_;
  BackendOptions options_;
  /// Distinct orientations of the rule (deduplicated by dims), shared across
  /// copies of the backend. Empty for the classical backend.
  std::shared_ptr<const std::vector<core::FastMatmul>> shared_orientations_;
  std::vector<const core::FastMatmul*> orientations_;  // raw view for dispatch
};

}  // namespace apa::nn
