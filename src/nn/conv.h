#pragma once
// Convolution lowered to matrix multiplication (im2col/col2im), the standard
// reduction the paper cites ([9] cuDNN, [11]) when noting that convolutional
// layers are also bottlenecked by matmul. This lets the APA backends
// accelerate conv layers exactly as they do fully connected ones: the batch's
// im2col matrix times the filter matrix is one monolithic gemm.
//
// Layout: activations are NCHW flattened row-major per sample, i.e. a batch is
// a (batch, channels*height*width) Matrix. Filters are stored as a
// (channels*kernel_h*kernel_w, out_channels) matrix.
//
// All three conv products (forward, dW, dx) route through MatmulFusion: the
// channel bias (and optionally ReLU) is fused into the im2col gemm's
// epilogue, and the ReLU-backward mask is fused into the dx product in patch
// space. Each product packs the filter matrix itself (filters for the forward
// product, filters^T for dx), so a step reads each orientation once. Backward
// reuses the forward pass's stacked patch matrix instead of re-running
// im2col, under the standard autograd contract that the input tensor is not
// mutated between forward and backward.
//
// Every fusion is bit-identical to the seed two-pass path, preserved below as
// conv_forward_reference / conv_backward_reference:
//   * the bias add commutes with the (positions, channels) -> NCHW transpose —
//     each output element sees the same single FP addition either way;
//   * ReLU is elementwise, so it commutes with the transpose too;
//   * masking dpatches by (im2col(gate) > 0) before col2im equals masking dx
//     after col2im: every patch entry that scatters onto pixel p carries the
//     gate value of p, and padding entries are never scattered at all.

#include "nn/backend.h"
#include "nn/optimizer.h"
#include "support/matrix.h"
#include "support/rng.h"

namespace apa::nn {

struct ConvShape {
  index_t in_channels = 0;
  index_t in_height = 0;
  index_t in_width = 0;
  index_t out_channels = 0;
  index_t kernel = 3;   ///< square kernels (VGG-style)
  index_t stride = 1;
  index_t padding = 1;  ///< zero padding on each border

  [[nodiscard]] index_t out_height() const {
    return (in_height + 2 * padding - kernel) / stride + 1;
  }
  [[nodiscard]] index_t out_width() const {
    return (in_width + 2 * padding - kernel) / stride + 1;
  }
  [[nodiscard]] index_t patch_size() const { return in_channels * kernel * kernel; }
  [[nodiscard]] index_t in_size() const { return in_channels * in_height * in_width; }
  [[nodiscard]] index_t out_size() const {
    return out_channels * out_height() * out_width();
  }
};

/// Expands one sample (in_channels x H x W, flattened) into the patch matrix:
/// row (oy * out_w + ox) holds the receptive field of output pixel (oy, ox),
/// ordered channel-major then kernel-row then kernel-column. Out-of-image
/// positions contribute zeros.
void im2col(const ConvShape& shape, MatrixView<const float> sample,
            MatrixView<float> patches);

/// Adjoint of im2col: scatters patch-matrix gradients back into an input
/// gradient (accumulating overlaps). `dinput` must be pre-zeroed by the caller
/// if accumulation across calls is not intended.
void col2im(const ConvShape& shape, MatrixView<const float> patches,
            MatrixView<float> dinput);

/// The seed two-pass forward path: monolithic im2col gemm, then a separate
/// transpose-and-bias pass per sample. Preserved verbatim as the bit-exactness
/// oracle for ConvLayer::forward and as the bench baseline.
void conv_forward_reference(const ConvShape& shape, MatrixView<const float> x,
                            MatrixView<const float> filters,
                            MatrixView<const float> bias, MatrixView<float> y,
                            const MatmulBackend& backend);

/// The seed backward path: re-runs im2col, plain (unfused, unplanned) matmuls
/// for dW and dpatches, col2im for dx. Oracle for ConvLayer::backward.
void conv_backward_reference(const ConvShape& shape, MatrixView<const float> x,
                             MatrixView<const float> filters,
                             MatrixView<const float> dy, MatrixView<float> dfilters,
                             MatrixView<float> dbias, MatrixView<float>* dx,
                             const MatmulBackend& backend);

/// Convolutional layer with pluggable matmul backend; gradients are batch
/// sums scaled by whatever scale dy carries (the loss provides 1/batch).
class ConvLayer {
 public:
  ConvLayer(const ConvShape& shape, Rng& rng);

  /// x: (batch, in_size), y: (batch, out_size). With `fuse_relu`,
  /// y = relu(conv(x) + b) in the same pass (the ReLU rides the gemm
  /// epilogue). The stacked patch matrix is cached for the matching backward.
  void forward(MatrixView<const float> x, MatrixView<float> y,
               const MatmulBackend& backend, bool fuse_relu = false) const;
  /// Computes filter/bias gradients; when dx is non-null also the input grad.
  /// A non-empty `relu_gate` (the forward input when this layer's input is a
  /// post-ReLU activation; same shape as x) fuses the ReLU-backward mask into
  /// the dx product in patch space: dx = gate > 0 ? dy * W^T : 0.
  void backward(MatrixView<const float> x, MatrixView<const float> dy,
                MatrixView<float>* dx, const MatmulBackend& backend,
                MatrixView<const float> relu_gate = {});
  void apply_sgd(float learning_rate) { apply_sgd({.learning_rate = learning_rate}); }
  void apply_sgd(const SgdOptions& options);

  [[nodiscard]] const ConvShape& shape() const { return shape_; }
  [[nodiscard]] Matrix<float>& filters() { return filters_; }
  [[nodiscard]] const Matrix<float>& filters() const { return filters_; }
  [[nodiscard]] const Matrix<float>& filter_grad() const { return dfilters_; }
  [[nodiscard]] const Matrix<float>& bias() const { return bias_; }
  [[nodiscard]] Matrix<float>& mutable_bias() { return bias_; }
  [[nodiscard]] const Matrix<float>& bias_grad() const { return dbias_; }
  /// Optimizer state, exposed for momentum checkpointing.
  [[nodiscard]] SgdState& filter_state() { return filter_state_; }
  [[nodiscard]] const SgdState& filter_state() const { return filter_state_; }
  [[nodiscard]] SgdState& bias_state() { return bias_state_; }
  [[nodiscard]] const SgdState& bias_state() const { return bias_state_; }

 private:
  ConvShape shape_;
  Matrix<float> filters_;   // patch_size x out_channels
  Matrix<float> bias_;      // 1 x out_channels
  Matrix<float> dfilters_;
  Matrix<float> dbias_;
  SgdState filter_state_;
  SgdState bias_state_;
  // Forward-to-backward patch cache. Valid only for the one backward that
  // follows a forward on the same input view (pointer + batch); backward
  // consumes it, so a reused batch buffer with fresh contents can never hit a
  // stale cache.
  mutable Matrix<float> patches_;
  mutable const float* patches_input_ = nullptr;
  mutable index_t patches_batch_ = 0;
};

}  // namespace apa::nn
