#include "nn/layers.h"

#include <algorithm>
#include <cmath>

#include "support/check.h"

namespace apa::nn {

DenseLayer::DenseLayer(index_t in_features, index_t out_features, Rng& rng)
    : weights_(in_features, out_features),
      bias_(1, out_features),
      dw_(in_features, out_features),
      db_(1, out_features) {
  // He initialization, appropriate for ReLU activations.
  const float stddev = std::sqrt(2.0f / static_cast<float>(in_features));
  rng.fill_normal<float>(weights_.span(), 0.0f, stddev);
  bias_.set_zero();
  dw_.set_zero();
  db_.set_zero();
}

void DenseLayer::forward(MatrixView<const float> x, MatrixView<float> y,
                         const MatmulBackend& backend, bool fuse_relu) const {
  APA_CHECK(x.cols == weights_.rows() && y.rows == x.rows && y.cols == weights_.cols());
  MatmulFusion fusion;
  fusion.epilogue.kind =
      fuse_relu ? blas::EpilogueKind::kBiasAddRelu : blas::EpilogueKind::kBiasAdd;
  fusion.epilogue.bias = bias_.data();
  backend.matmul_ex(x, weights_.view(), y, false, false, fusion);
}

void DenseLayer::backward(MatrixView<const float> x, MatrixView<const float> dy,
                          MatrixView<float>* dx, const MatmulBackend& backend,
                          MatrixView<const float> relu_gate) {
  APA_CHECK(x.rows == dy.rows && x.cols == weights_.rows() &&
            dy.cols == weights_.cols());
  // dW = x^T dy (dy already carries the 1/batch factor from the loss).
  backend.matmul(x, dy, dw_.view(), /*transpose_a=*/true);
  // db = column sums of dy.
  db_.set_zero();
  for (index_t i = 0; i < dy.rows; ++i) {
    const float* row = &dy(i, 0);
    float* acc = db_.data();
    for (index_t j = 0; j < dy.cols; ++j) acc[j] += row[j];
  }
  if (dx != nullptr) {
    APA_CHECK(dx->rows == x.rows && dx->cols == x.cols);
    // dx = dy W^T; W^T is zero-copy (resolved in the packing gather), and a
    // non-empty relu_gate folds the previous layer's ReLU mask into the same
    // pass.
    MatmulFusion fusion;
    if (relu_gate.data != nullptr) {
      APA_CHECK(relu_gate.rows == dx->rows && relu_gate.cols == dx->cols);
      fusion.epilogue.kind = blas::EpilogueKind::kReluGrad;
      fusion.epilogue.gate = relu_gate;
    }
    backend.matmul_ex(dy, weights_.view(), *dx, false, /*transpose_b=*/true, fusion);
  }
}

void DenseLayer::apply_sgd(const SgdOptions& options) {
  weight_state_.update(weights_.view(), dw_.view().as_const(), options);
  SgdOptions bias_options = options;
  bias_options.weight_decay = 0.0f;  // decay regularizes weights, not biases
  bias_state_.update(bias_.view(), db_.view().as_const(), bias_options);
}

void ReluLayer::forward(MatrixView<const float> x, MatrixView<float> y) {
  APA_CHECK(x.rows == y.rows && x.cols == y.cols);
  for (index_t i = 0; i < x.rows; ++i) {
    const float* in = &x(i, 0);
    float* out = &y(i, 0);
    for (index_t j = 0; j < x.cols; ++j) out[j] = in[j] > 0.0f ? in[j] : 0.0f;
  }
}

void ReluLayer::backward(MatrixView<const float> x, MatrixView<const float> dy,
                         MatrixView<float> dx) {
  APA_CHECK(x.rows == dy.rows && x.cols == dy.cols && dx.rows == x.rows &&
            dx.cols == x.cols);
  for (index_t i = 0; i < x.rows; ++i) {
    const float* in = &x(i, 0);
    const float* g = &dy(i, 0);
    float* out = &dx(i, 0);
    for (index_t j = 0; j < x.cols; ++j) out[j] = in[j] > 0.0f ? g[j] : 0.0f;
  }
}

double SoftmaxCrossEntropy::loss_and_grad(MatrixView<const float> logits,
                                          const std::vector<int>& labels,
                                          MatrixView<float> dlogits) {
  APA_CHECK(static_cast<std::size_t>(logits.rows) == labels.size() &&
            dlogits.rows == logits.rows && dlogits.cols == logits.cols);
  const index_t batch = logits.rows;
  const index_t classes = logits.cols;
  const float inv_batch = 1.0f / static_cast<float>(batch);
  double loss = 0;
  for (index_t i = 0; i < batch; ++i) {
    const float* row = &logits(i, 0);
    float* grad = &dlogits(i, 0);
    const int label = labels[static_cast<std::size_t>(i)];
    APA_CHECK(label >= 0 && label < classes);
    const float max_logit = *std::max_element(row, row + classes);
    double denom = 0;
    for (index_t j = 0; j < classes; ++j) denom += std::exp(row[j] - max_logit);
    for (index_t j = 0; j < classes; ++j) {
      const float p = static_cast<float>(std::exp(row[j] - max_logit) / denom);
      grad[j] = (p - (j == label ? 1.0f : 0.0f)) * inv_batch;
    }
    loss += -(row[label] - max_logit - std::log(denom));
  }
  return loss / static_cast<double>(batch);
}

double SoftmaxCrossEntropy::accuracy(MatrixView<const float> logits,
                                     const std::vector<int>& labels) {
  APA_CHECK(static_cast<std::size_t>(logits.rows) == labels.size());
  index_t correct = 0;
  for (index_t i = 0; i < logits.rows; ++i) {
    const float* row = &logits(i, 0);
    const index_t argmax =
        std::max_element(row, row + logits.cols) - row;
    correct += (argmax == labels[static_cast<std::size_t>(i)]);
  }
  return static_cast<double>(correct) / static_cast<double>(logits.rows);
}

}  // namespace apa::nn
