#include "nn/backend.h"

#include <algorithm>

#include "blas/plan.h"
#include "core/registry.h"
#include "core/transforms.h"
#include "support/check.h"

namespace apa::nn {
namespace {

std::shared_ptr<const std::vector<core::FastMatmul>> build_orientations(
    const std::string& algorithm, const BackendOptions& options) {
  if (algorithm == "classical") return nullptr;
  const core::Rule& base = core::rule_by_name(algorithm);
  auto out = std::make_shared<std::vector<core::FastMatmul>>();
  for (int perm = 0; perm < 6; ++perm) {
    core::Rule candidate = core::permute_rule(base, perm);
    const bool seen = std::any_of(
        out->begin(), out->end(), [&](const core::FastMatmul& mm) {
          return mm.params().m == candidate.m && mm.params().k == candidate.k &&
                 mm.params().n == candidate.n;
        });
    if (!seen) out->emplace_back(std::move(candidate), options.matmul);
  }
  return out;
}

}  // namespace

MatmulBackend::MatmulBackend(const std::string& algorithm, BackendOptions options)
    : name_(algorithm),
      options_(options),
      shared_orientations_(build_orientations(algorithm, options)) {
  if (shared_orientations_) {
    orientations_.reserve(shared_orientations_->size());
    for (const auto& mm : *shared_orientations_) orientations_.push_back(&mm);
  }
}

MatmulBackend::MatmulBackend(const std::string& algorithm,
                             core::FastMatmulOptions matmul_options)
    : MatmulBackend(algorithm, BackendOptions{.matmul = matmul_options}) {}

const core::FastMatmul* MatmulBackend::dispatch_for(index_t m, index_t k,
                                                    index_t n) const {
  if (orientations_.empty()) return nullptr;
  if (std::min({m, k, n}) < options_.min_dim_for_fast) return nullptr;

  for (const core::FastMatmul* mm : orientations_) {
    const core::AlgorithmParams& p = mm->params();
    if (core::orientation_fits(p.m, p.k, p.n, m, k, n)) return mm;
  }
  return orientations_.front();
}

void MatmulBackend::matmul_ex(MatrixView<const float> a, MatrixView<const float> b,
                              MatrixView<float> c, bool transpose_a, bool transpose_b,
                              const MatmulFusion& fusion) const {
  const index_t m = transpose_a ? a.cols : a.rows;
  const index_t k = transpose_a ? a.rows : a.cols;
  const index_t kb = transpose_b ? b.cols : b.rows;
  const index_t n = transpose_b ? b.rows : b.cols;
  APA_CHECK_CODE(k == kb && c.rows == m && c.cols == n, ErrorCode::kShapeMismatch,
                 "matmul shape mismatch: op(A) " << m << "x" << k << ", op(B) "
                                                 << kb << "x" << n << ", C "
                                                 << c.rows << "x" << c.cols);

  const core::FastMatmul* fast = dispatch_for(m, k, n);
  if (fast == nullptr) {
    // Classical: transposes resolve inside the packing gather and the
    // epilogue fuses into the tile loop.
    blas::gemm_fused<float>(transpose_a ? blas::Trans::kYes : blas::Trans::kNo,
                            transpose_b ? blas::Trans::kYes : blas::Trans::kNo, a, b, c,
                            1.0f, 0.0f, fusion.epilogue, options_.matmul.num_threads);
    return;
  }

  // APA: the executor threads transposed views through its recursion — no
  // operand is ever materialized. The epilogue runs as one pass after the
  // combine stage (the executor writes C blockwise, so it cannot fuse).
  fast->multiply(a, b, c, transpose_a, transpose_b);
  blas::apply_epilogue<float>(fusion.epilogue, c);
}

}  // namespace apa::nn
