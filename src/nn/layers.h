#pragma once
// Layers for MLP training (paper section 4): fully connected with pluggable
// matmul backend, ReLU, and fused softmax + cross-entropy. Row-major
// activations, shape (batch, features). Gradients are batch means.

#include <vector>

#include "nn/backend.h"
#include "nn/optimizer.h"
#include "support/matrix.h"
#include "support/rng.h"

namespace apa::nn {

/// y = x * W + b. The backend performs all three matmuls of the layer
/// (forward, dW = x^T dy, dx = dy W^T), mirroring the paper's use of APA
/// operators for both forward and backward propagation.
///
/// The bias add (and optionally the ReLU / ReLU-backward mask) is fused into
/// the matmul as an epilogue instead of a separate full-matrix pass. W is
/// packed inside each product — once for the forward, once as W^T for dx — so
/// a training step reads each orientation exactly once, and forward() keeps
/// no state: concurrent predict() calls on one model are safe.
class DenseLayer {
 public:
  DenseLayer(index_t in_features, index_t out_features, Rng& rng);

  /// y = x*W + b; with `fuse_relu`, y = relu(x*W + b) in the same pass.
  void forward(MatrixView<const float> x, MatrixView<float> y,
               const MatmulBackend& backend, bool fuse_relu = false) const;
  /// Computes dw_/db_ and, when dx is non-null, the input gradient. A
  /// non-empty `relu_gate` (the previous layer's post-ReLU activation, same
  /// shape as dx) fuses the ReLU-backward mask into the dx matmul:
  /// dx = gate > 0 ? dy W^T : 0.
  void backward(MatrixView<const float> x, MatrixView<const float> dy,
                MatrixView<float>* dx, const MatmulBackend& backend,
                MatrixView<const float> relu_gate = {});
  /// SGD update: W -= lr * dW, b -= lr * db.
  void apply_sgd(float learning_rate) { apply_sgd({.learning_rate = learning_rate}); }
  /// Full update rule incl. momentum / weight decay (decay skips the bias).
  void apply_sgd(const SgdOptions& options);

  [[nodiscard]] index_t in_features() const { return weights_.rows(); }
  [[nodiscard]] index_t out_features() const { return weights_.cols(); }
  [[nodiscard]] Matrix<float>& weights() { return weights_; }
  [[nodiscard]] const Matrix<float>& weights() const { return weights_; }
  [[nodiscard]] const Matrix<float>& bias() const { return bias_; }
  [[nodiscard]] Matrix<float>& mutable_bias() { return bias_; }
  [[nodiscard]] const Matrix<float>& weight_grad() const { return dw_; }
  [[nodiscard]] const Matrix<float>& bias_grad() const { return db_; }
  /// Mutable gradient buffers, for data-parallel training: workers overwrite
  /// the local gradients with the all-reduced mean between backward and
  /// apply_sgd.
  [[nodiscard]] Matrix<float>& mutable_weight_grad() { return dw_; }
  [[nodiscard]] Matrix<float>& mutable_bias_grad() { return db_; }
  /// Optimizer state, exposed for momentum checkpointing.
  [[nodiscard]] SgdState& weight_state() { return weight_state_; }
  [[nodiscard]] const SgdState& weight_state() const { return weight_state_; }
  [[nodiscard]] SgdState& bias_state() { return bias_state_; }
  [[nodiscard]] const SgdState& bias_state() const { return bias_state_; }

 private:
  Matrix<float> weights_;  // in x out
  Matrix<float> bias_;     // 1 x out
  Matrix<float> dw_;
  Matrix<float> db_;
  SgdState weight_state_;
  SgdState bias_state_;
};

/// Elementwise max(0, x).
struct ReluLayer {
  static void forward(MatrixView<const float> x, MatrixView<float> y);
  /// dx = dy where x > 0 else 0 (x is the forward input).
  static void backward(MatrixView<const float> x, MatrixView<const float> dy,
                       MatrixView<float> dx);
};

/// Softmax over rows fused with cross-entropy against integer labels.
class SoftmaxCrossEntropy {
 public:
  /// Returns mean loss; fills dlogits with the mean gradient and, if
  /// requested, `probabilities` with the row softmax.
  static double loss_and_grad(MatrixView<const float> logits,
                              const std::vector<int>& labels,
                              MatrixView<float> dlogits);
  /// Fraction of rows whose argmax equals the label.
  static double accuracy(MatrixView<const float> logits,
                         const std::vector<int>& labels);
};

}  // namespace apa::nn
