#include "nn/conv.h"

#include <algorithm>
#include <cmath>

#include "blas/transpose.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "support/check.h"

namespace apa::nn {
namespace {

/// Stacks every sample's im2col patch matrix into `patches`; samples are
/// independent, so the expansion threads across the batch.
void im2col_batch(const ConvShape& shape, MatrixView<const float> x,
                  MatrixView<float> patches, int num_threads) {
  APA_TRACE_SCOPE("conv.im2col");
  const index_t batch = x.rows;
  const index_t positions = shape.out_height() * shape.out_width();
  const int team = static_cast<int>(
      std::min<index_t>(std::max(num_threads, 1), std::max<index_t>(batch, 1)));
#pragma omp parallel for schedule(static) num_threads(team) if (team > 1)
  for (index_t s = 0; s < batch; ++s) {
    im2col(shape, x.block(s, 0, 1, x.cols),
           patches.block(s * positions, 0, positions, shape.patch_size()));
  }
}

}  // namespace

void im2col(const ConvShape& shape, MatrixView<const float> sample,
            MatrixView<float> patches) {
  APA_CHECK(sample.rows == 1 && sample.cols == shape.in_size());
  const index_t out_h = shape.out_height();
  const index_t out_w = shape.out_width();
  APA_CHECK(patches.rows == out_h * out_w && patches.cols == shape.patch_size());

  const float* input = sample.data;
  for (index_t oy = 0; oy < out_h; ++oy) {
    for (index_t ox = 0; ox < out_w; ++ox) {
      float* row = &patches(oy * out_w + ox, 0);
      index_t col = 0;
      for (index_t c = 0; c < shape.in_channels; ++c) {
        const float* plane = input + c * shape.in_height * shape.in_width;
        for (index_t ky = 0; ky < shape.kernel; ++ky) {
          const index_t iy = oy * shape.stride + ky - shape.padding;
          for (index_t kx = 0; kx < shape.kernel; ++kx) {
            const index_t ix = ox * shape.stride + kx - shape.padding;
            const bool inside = iy >= 0 && iy < shape.in_height && ix >= 0 &&
                                ix < shape.in_width;
            row[col++] = inside ? plane[iy * shape.in_width + ix] : 0.0f;
          }
        }
      }
    }
  }
}

void col2im(const ConvShape& shape, MatrixView<const float> patches,
            MatrixView<float> dinput) {
  APA_CHECK(dinput.rows == 1 && dinput.cols == shape.in_size());
  const index_t out_h = shape.out_height();
  const index_t out_w = shape.out_width();
  APA_CHECK(patches.rows == out_h * out_w && patches.cols == shape.patch_size());

  float* input = dinput.data;
  for (index_t oy = 0; oy < out_h; ++oy) {
    for (index_t ox = 0; ox < out_w; ++ox) {
      const float* row = &patches(oy * out_w + ox, 0);
      index_t col = 0;
      for (index_t c = 0; c < shape.in_channels; ++c) {
        float* plane = input + c * shape.in_height * shape.in_width;
        for (index_t ky = 0; ky < shape.kernel; ++ky) {
          const index_t iy = oy * shape.stride + ky - shape.padding;
          for (index_t kx = 0; kx < shape.kernel; ++kx) {
            const index_t ix = ox * shape.stride + kx - shape.padding;
            if (iy >= 0 && iy < shape.in_height && ix >= 0 && ix < shape.in_width) {
              plane[iy * shape.in_width + ix] += row[col];
            }
            ++col;
          }
        }
      }
    }
  }
}

void conv_forward_reference(const ConvShape& shape, MatrixView<const float> x,
                            MatrixView<const float> filters,
                            MatrixView<const float> bias, MatrixView<float> y,
                            const MatmulBackend& backend) {
  const index_t batch = x.rows;
  APA_CHECK(x.cols == shape.in_size() && y.rows == batch && y.cols == shape.out_size());
  APA_CHECK(filters.rows == shape.patch_size() && filters.cols == shape.out_channels);
  APA_CHECK(bias.rows == 1 && bias.cols == shape.out_channels);
  const index_t positions = shape.out_height() * shape.out_width();

  // Monolithic lowering: stack every sample's patch matrix, one big gemm.
  Matrix<float> patches(batch * positions, shape.patch_size());
  for (index_t s = 0; s < batch; ++s) {
    im2col(shape, x.block(s, 0, 1, x.cols),
           patches.view().block(s * positions, 0, positions, shape.patch_size()));
  }
  Matrix<float> product(batch * positions, shape.out_channels);
  backend.matmul(patches.view().as_const(), filters, product.view());

  // (positions, channels) -> NCHW per sample, adding the channel bias.
  for (index_t s = 0; s < batch; ++s) {
    auto sample =
        product.view().block(s * positions, 0, positions, shape.out_channels);
    MatrixView<float> out(&y(s, 0), shape.out_channels, positions, positions);
    blas::transpose<float>(sample.as_const(), out);
    for (index_t c = 0; c < shape.out_channels; ++c) {
      float* row = &out(c, 0);
      const float b = bias(0, c);
      for (index_t p = 0; p < positions; ++p) row[p] += b;
    }
  }
}

void conv_backward_reference(const ConvShape& shape, MatrixView<const float> x,
                             MatrixView<const float> filters,
                             MatrixView<const float> dy, MatrixView<float> dfilters,
                             MatrixView<float> dbias, MatrixView<float>* dx,
                             const MatmulBackend& backend) {
  const index_t batch = x.rows;
  APA_CHECK(x.cols == shape.in_size() && dy.rows == batch &&
            dy.cols == shape.out_size());
  APA_CHECK(dfilters.rows == shape.patch_size() &&
            dfilters.cols == shape.out_channels);
  APA_CHECK(dbias.rows == 1 && dbias.cols == shape.out_channels);
  const index_t positions = shape.out_height() * shape.out_width();

  // Recompute the stacked patch matrix (standard im2col backward) and restack
  // dy from NCHW to (positions, channels).
  Matrix<float> patches(batch * positions, shape.patch_size());
  Matrix<float> dy_mat(batch * positions, shape.out_channels);
  for (index_t s = 0; s < batch; ++s) {
    im2col(shape, x.block(s, 0, 1, x.cols),
           patches.view().block(s * positions, 0, positions, shape.patch_size()));
    MatrixView<const float> grad(&dy(s, 0), shape.out_channels, positions, positions);
    blas::transpose<float>(
        grad, dy_mat.view().block(s * positions, 0, positions, shape.out_channels));
  }

  // dW = patches^T dy_mat; dbias = column sums of dy_mat.
  backend.matmul(patches.view().as_const(), dy_mat.view().as_const(), dfilters,
                 /*transpose_a=*/true);
  for (index_t c = 0; c < shape.out_channels; ++c) dbias(0, c) = 0.0f;
  for (index_t r = 0; r < dy_mat.rows(); ++r) {
    const float* row = &dy_mat(r, 0);
    float* acc = dbias.data;
    for (index_t c = 0; c < shape.out_channels; ++c) acc[c] += row[c];
  }

  if (dx != nullptr) {
    APA_CHECK(dx->rows == batch && dx->cols == shape.in_size());
    Matrix<float> dpatches(batch * positions, shape.patch_size());
    backend.matmul(dy_mat.view().as_const(), filters, dpatches.view(),
                   /*transpose_a=*/false, /*transpose_b=*/true);
    for (index_t s = 0; s < batch; ++s) {
      auto drow = dx->block(s, 0, 1, dx->cols);
      for (index_t j = 0; j < dx->cols; ++j) drow(0, j) = 0.0f;
      col2im(shape,
             dpatches.view()
                 .block(s * positions, 0, positions, shape.patch_size())
                 .as_const(),
             drow);
    }
  }
}

ConvLayer::ConvLayer(const ConvShape& shape, Rng& rng)
    : shape_(shape),
      filters_(shape.patch_size(), shape.out_channels),
      bias_(1, shape.out_channels),
      dfilters_(shape.patch_size(), shape.out_channels),
      dbias_(1, shape.out_channels) {
  const float stddev = std::sqrt(2.0f / static_cast<float>(shape.patch_size()));
  rng.fill_normal<float>(filters_.span(), 0.0f, stddev);
  bias_.set_zero();
  dfilters_.set_zero();
  dbias_.set_zero();
}

void ConvLayer::forward(MatrixView<const float> x, MatrixView<float> y,
                        const MatmulBackend& backend, bool fuse_relu) const {
  const index_t batch = x.rows;
  APA_CHECK(x.cols == shape_.in_size() && y.rows == batch &&
            y.cols == shape_.out_size());
  const index_t positions = shape_.out_height() * shape_.out_width();
  const index_t rows = batch * positions;
  const int threads = backend.num_threads();

  // Monolithic lowering into the cached patch matrix (the matching backward
  // reuses it for dW and the ReLU-backward gate instead of re-running im2col).
  if (patches_.rows() != rows || patches_.cols() != shape_.patch_size()) {
    patches_ = Matrix<float>(rows, shape_.patch_size());
  }
  im2col_batch(shape_, x, patches_.view(), threads);
  patches_input_ = x.data;
  patches_batch_ = batch;

  // One gemm with the bias (and optionally ReLU) fused into its epilogue. Both
  // commute with the transpose below, so fusing them before the restack is
  // bit-identical to the seed's separate bias pass.
  Matrix<float> product(rows, shape_.out_channels);
  MatmulFusion fusion;
  fusion.epilogue.kind =
      fuse_relu ? blas::EpilogueKind::kBiasAddRelu : blas::EpilogueKind::kBiasAdd;
  fusion.epilogue.bias = bias_.data();
  backend.matmul_ex(patches_.view().as_const(), filters_.view(), product.view(),
                    false, false, fusion);

  // (positions, channels) -> NCHW per sample; samples are independent.
  APA_TRACE_SCOPE("conv.restack");
  const int team = static_cast<int>(
      std::min<index_t>(std::max(threads, 1), std::max<index_t>(batch, 1)));
#pragma omp parallel for schedule(static) num_threads(team) if (team > 1)
  for (index_t s = 0; s < batch; ++s) {
    auto sample =
        product.view().block(s * positions, 0, positions, shape_.out_channels);
    MatrixView<float> out(&y(s, 0), shape_.out_channels, positions, positions);
    blas::transpose<float>(sample.as_const(), out);
  }
}

void ConvLayer::backward(MatrixView<const float> x, MatrixView<const float> dy,
                         MatrixView<float>* dx, const MatmulBackend& backend,
                         MatrixView<const float> relu_gate) {
  const index_t batch = x.rows;
  APA_CHECK(x.cols == shape_.in_size() && dy.rows == batch &&
            dy.cols == shape_.out_size());
  const index_t positions = shape_.out_height() * shape_.out_width();
  const index_t rows = batch * positions;
  const int threads = backend.num_threads();

  // Reuse the forward pass's patch matrix when backward sees the same input
  // view; rebuild otherwise (e.g. a standalone gradient check). The cache is
  // consumed either way, so a reused batch buffer refilled with new data can
  // never alias a stale expansion.
  const bool cache_hit = patches_input_ == x.data && patches_batch_ == batch &&
                         patches_.rows() == rows &&
                         patches_.cols() == shape_.patch_size();
  if (cache_hit) {
    APA_COUNTER_INC("conv.patch_cache.hits");
  } else {
    APA_COUNTER_INC("conv.patch_cache.misses");
    if (patches_.rows() != rows || patches_.cols() != shape_.patch_size()) {
      patches_ = Matrix<float>(rows, shape_.patch_size());
    }
    im2col_batch(shape_, x, patches_.view(), threads);
  }
  patches_input_ = nullptr;
  patches_batch_ = 0;

  // Restack dy from NCHW to (positions, channels), threaded across the batch.
  Matrix<float> dy_mat(rows, shape_.out_channels);
  const int team = static_cast<int>(
      std::min<index_t>(std::max(threads, 1), std::max<index_t>(batch, 1)));
  {
    APA_TRACE_SCOPE("conv.restack");
#pragma omp parallel for schedule(static) num_threads(team) if (team > 1)
    for (index_t s = 0; s < batch; ++s) {
      MatrixView<const float> grad(&dy(s, 0), shape_.out_channels, positions,
                                   positions);
      blas::transpose<float>(
          grad, dy_mat.view().block(s * positions, 0, positions, shape_.out_channels));
    }
  }

  // dW = patches^T dy_mat; dbias = column sums of dy_mat. The patch matrix is
  // the one forward built, reused above.
  backend.matmul(patches_.view().as_const(), dy_mat.view().as_const(),
                 dfilters_.view(), /*transpose_a=*/true);
  dbias_.set_zero();
  for (index_t r = 0; r < dy_mat.rows(); ++r) {
    const float* row = &dy_mat(r, 0);
    float* acc = dbias_.data();
    for (index_t c = 0; c < shape_.out_channels; ++c) acc[c] += row[c];
  }

  if (dx != nullptr) {
    APA_CHECK(dx->rows == batch && dx->cols == shape_.in_size());
    Matrix<float> dpatches(rows, shape_.patch_size());
    MatmulFusion fusion;
    Matrix<float> gate_scratch;
    if (relu_gate.data != nullptr) {
      APA_CHECK(relu_gate.rows == batch && relu_gate.cols == shape_.in_size());
      // Mask in patch space: every patch entry that col2im scatters onto input
      // pixel p carries p's gate value, and padding entries never scatter, so
      // masking dpatches by im2col(gate) > 0 is bit-identical to masking dx
      // after col2im. When the gate is the layer input itself (the common
      // fused-ReLU stack), the cached expansion above already is im2col(gate).
      if (relu_gate.data == x.data) {
        fusion.epilogue.gate = patches_.view().as_const();
      } else {
        gate_scratch = Matrix<float>(rows, shape_.patch_size());
        im2col_batch(shape_, relu_gate, gate_scratch.view(), threads);
        fusion.epilogue.gate = gate_scratch.view().as_const();
      }
      fusion.epilogue.kind = blas::EpilogueKind::kReluGrad;
    }
    backend.matmul_ex(dy_mat.view().as_const(), filters_.view(), dpatches.view(),
                      false, /*transpose_b=*/true, fusion);
    APA_TRACE_SCOPE("conv.col2im");
#pragma omp parallel for schedule(static) num_threads(team) if (team > 1)
    for (index_t s = 0; s < batch; ++s) {
      auto drow = dx->block(s, 0, 1, dx->cols);
      for (index_t j = 0; j < dx->cols; ++j) drow(0, j) = 0.0f;
      col2im(shape_,
             dpatches.view()
                 .block(s * positions, 0, positions, shape_.patch_size())
                 .as_const(),
             drow);
    }
  }
}

void ConvLayer::apply_sgd(const SgdOptions& options) {
  filter_state_.update(filters_.view(), dfilters_.view().as_const(), options);
  SgdOptions bias_options = options;
  bias_options.weight_decay = 0.0f;
  bias_state_.update(bias_.view(), dbias_.view().as_const(), bias_options);
}

}  // namespace apa::nn
