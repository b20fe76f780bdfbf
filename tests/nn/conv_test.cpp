#include "nn/conv.h"

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "nn/layers.h"

namespace apa::nn {
namespace {

MatmulBackend classical() { return MatmulBackend("classical"); }

/// Naive direct convolution reference (NCHW, zero padding).
Matrix<float> conv_reference(const ConvShape& s, MatrixView<const float> x,
                             const Matrix<float>& filters, const Matrix<float>& bias) {
  const index_t batch = x.rows;
  Matrix<float> y(batch, s.out_size());
  const index_t out_h = s.out_height(), out_w = s.out_width();
  for (index_t b = 0; b < batch; ++b) {
    const float* input = &x(b, 0);
    for (index_t oc = 0; oc < s.out_channels; ++oc) {
      for (index_t oy = 0; oy < out_h; ++oy) {
        for (index_t ox = 0; ox < out_w; ++ox) {
          double acc = bias(0, oc);
          for (index_t c = 0; c < s.in_channels; ++c) {
            for (index_t ky = 0; ky < s.kernel; ++ky) {
              for (index_t kx = 0; kx < s.kernel; ++kx) {
                const index_t iy = oy * s.stride + ky - s.padding;
                const index_t ix = ox * s.stride + kx - s.padding;
                if (iy < 0 || iy >= s.in_height || ix < 0 || ix >= s.in_width) continue;
                const float pixel = input[(c * s.in_height + iy) * s.in_width + ix];
                const index_t patch_index = (c * s.kernel + ky) * s.kernel + kx;
                acc += pixel * filters(patch_index, oc);
              }
            }
          }
          y(b, (oc * out_h + oy) * out_w + ox) = static_cast<float>(acc);
        }
      }
    }
  }
  return y;
}

ConvShape small_shape() {
  ConvShape s;
  s.in_channels = 2;
  s.in_height = 6;
  s.in_width = 5;
  s.out_channels = 3;
  s.kernel = 3;
  s.stride = 1;
  s.padding = 1;
  return s;
}

TEST(ConvShape, OutputDimensions) {
  const ConvShape s = small_shape();
  EXPECT_EQ(s.out_height(), 6);  // same-padding with stride 1
  EXPECT_EQ(s.out_width(), 5);
  ConvShape strided = s;
  strided.stride = 2;
  EXPECT_EQ(strided.out_height(), 3);
  EXPECT_EQ(strided.out_width(), 3);
  ConvShape valid = s;
  valid.padding = 0;
  EXPECT_EQ(valid.out_height(), 4);
  EXPECT_EQ(valid.out_width(), 3);
}

TEST(Im2Col, RoundTripThroughCol2ImCountsOverlaps) {
  // col2im(im2col(x)) multiplies each pixel by the number of patches covering
  // it; for a 1x1 kernel, stride 1, no padding, that count is exactly 1.
  ConvShape s;
  s.in_channels = 1;
  s.in_height = 4;
  s.in_width = 4;
  s.out_channels = 1;
  s.kernel = 1;
  s.stride = 1;
  s.padding = 0;
  Matrix<float> x(1, s.in_size());
  Rng rng(1);
  fill_random_uniform<float>(x.view(), rng);
  Matrix<float> patches(s.out_height() * s.out_width(), s.patch_size());
  im2col(s, x.view().as_const(), patches.view());
  Matrix<float> back(1, s.in_size());
  back.set_zero();
  col2im(s, patches.view().as_const(), back.view());
  EXPECT_EQ(max_abs_diff(x.view(), back.view()), 0.0);
}

class ConvVariants : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(ConvVariants, ForwardMatchesDirectConvolution) {
  const auto [stride, padding] = GetParam();
  ConvShape s = small_shape();
  s.stride = stride;
  s.padding = padding;
  Rng rng(7);
  ConvLayer layer(s, rng);
  Matrix<float> x(3, s.in_size()), y(3, s.out_size());
  fill_random_uniform<float>(x.view(), rng);
  layer.forward(x.view().as_const(), y.view(), classical());
  const Matrix<float> ref = conv_reference(s, x.view().as_const(), layer.filters(),
                                           layer.bias());
  EXPECT_LT(max_abs_diff(y.view(), ref.view()), 1e-4)
      << "stride=" << stride << " pad=" << padding;
}

INSTANTIATE_TEST_SUITE_P(StridePad, ConvVariants,
                         ::testing::Values(std::tuple{1, 1}, std::tuple{1, 0},
                                           std::tuple{2, 1}, std::tuple{2, 0}));

TEST(ConvLayer, FilterGradientMatchesFiniteDifferences) {
  ConvShape s = small_shape();
  s.in_height = 4;
  s.in_width = 4;
  Rng rng(3);
  ConvLayer layer(s, rng);
  Matrix<float> x(2, s.in_size());
  fill_random_uniform<float>(x.view(), rng);

  auto loss_of = [&] {
    Matrix<float> y(2, s.out_size());
    layer.forward(x.view().as_const(), y.view(), classical());
    double acc = 0;
    for (float v : y.span()) acc += 0.5 * v * v;
    return acc;
  };

  Matrix<float> y(2, s.out_size());
  layer.forward(x.view().as_const(), y.view(), classical());
  layer.backward(x.view().as_const(), y.view().as_const(), nullptr, classical());

  const float eps = 1e-2f;
  // Spot-check a spread of filter entries (full sweep is slow).
  for (const auto& [i, j] : std::vector<std::pair<index_t, index_t>>{
           {0, 0}, {3, 1}, {8, 2}, {12, 0}, {17, 2}}) {
    const float saved = layer.filters()(i, j);
    layer.filters()(i, j) = saved + eps;
    const double up = loss_of();
    layer.filters()(i, j) = saved - eps;
    const double down = loss_of();
    layer.filters()(i, j) = saved;
    const double numeric = (up - down) / (2 * eps);
    EXPECT_NEAR(layer.filter_grad()(i, j), numeric,
                5e-2 * std::max(1.0, std::abs(numeric)))
        << "filter(" << i << "," << j << ")";
  }
}

TEST(ConvLayer, InputGradientMatchesFiniteDifferences) {
  ConvShape s = small_shape();
  s.in_height = 4;
  s.in_width = 4;
  Rng rng(5);
  ConvLayer layer(s, rng);
  Matrix<float> x(1, s.in_size());
  fill_random_uniform<float>(x.view(), rng);

  auto loss_at = [&](const Matrix<float>& input) {
    Matrix<float> y(1, s.out_size());
    layer.forward(input.view().as_const(), y.view(), classical());
    double acc = 0;
    for (float v : y.span()) acc += 0.5 * v * v;
    return acc;
  };

  Matrix<float> y(1, s.out_size());
  layer.forward(x.view().as_const(), y.view(), classical());
  Matrix<float> dx(1, s.in_size());
  MatrixView<float> dx_view = dx.view();
  layer.backward(x.view().as_const(), y.view().as_const(), &dx_view, classical());

  const float eps = 1e-2f;
  for (index_t j = 0; j < s.in_size(); j += 7) {
    Matrix<float> xp(1, s.in_size()), xm(1, s.in_size());
    copy(x.view(), xp.view());
    copy(x.view(), xm.view());
    xp(0, j) += eps;
    xm(0, j) -= eps;
    const double numeric = (loss_at(xp) - loss_at(xm)) / (2 * eps);
    EXPECT_NEAR(dx(0, j), numeric, 5e-2 * std::max(1.0, std::abs(numeric)))
        << "dx(" << j << ")";
  }
}

TEST(ConvLayer, ApaBackendCloseToClassical) {
  // A VGG-like block: the im2col gemm is big enough for the APA path.
  ConvShape s;
  s.in_channels = 16;
  s.in_height = 16;
  s.in_width = 16;
  s.out_channels = 32;
  Rng rng(9);
  ConvLayer layer(s, rng);
  Matrix<float> x(2, s.in_size());
  fill_random_uniform<float>(x.view(), rng);

  Matrix<float> y_classical(2, s.out_size()), y_apa(2, s.out_size());
  layer.forward(x.view().as_const(), y_classical.view(), classical());
  BackendOptions apa_options;
  apa_options.min_dim_for_fast = 1;
  layer.forward(x.view().as_const(), y_apa.view(),
                MatmulBackend("bini322", apa_options));
  EXPECT_LT(relative_frobenius_error(y_apa.view(), y_classical.view()), 5e-3);
  EXPECT_GT(relative_frobenius_error(y_apa.view(), y_classical.view()), 0.0);
}

// ---------------------------------------------------------------------------
// Planned-path battery: ConvLayer's prepacked + fused pipeline must be
// bit-identical to the preserved seed two-pass path (conv_*_reference) across
// edge shapes — 1x1 kernels, kernel == stride, padding 0/1/2, out dims not
// divisible by the micro-kernel tile, single-sample batches.
// ---------------------------------------------------------------------------

struct PlannedCase {
  const char* name;
  ConvShape shape;
  index_t batch;
};

std::vector<PlannedCase> planned_cases() {
  std::vector<PlannedCase> cases;
  {
    ConvShape s;  // 1x1 kernel: im2col is a permuted copy
    s.in_channels = 3;
    s.in_height = 4;
    s.in_width = 4;
    s.out_channels = 5;
    s.kernel = 1;
    s.stride = 1;
    s.padding = 0;
    cases.push_back({"kernel1x1", s, 2});
  }
  {
    ConvShape s;  // kernel == stride: disjoint patches
    s.in_channels = 2;
    s.in_height = 8;
    s.in_width = 8;
    s.out_channels = 4;
    s.kernel = 2;
    s.stride = 2;
    s.padding = 0;
    cases.push_back({"kernel_eq_stride", s, 3});
  }
  {
    ConvShape s;  // padding 2 (wider than the VGG default)
    s.in_channels = 2;
    s.in_height = 5;
    s.in_width = 7;
    s.out_channels = 3;
    s.kernel = 3;
    s.stride = 1;
    s.padding = 2;
    cases.push_back({"padding2", s, 2});
  }
  {
    ConvShape s;  // padding 0, single-sample batch
    s.in_channels = 2;
    s.in_height = 6;
    s.in_width = 5;
    s.out_channels = 3;
    s.kernel = 3;
    s.stride = 1;
    s.padding = 0;
    cases.push_back({"padding0_batch1", s, 1});
  }
  {
    ConvShape s;  // odd spatial dims and channel counts: positions (63) and
                  // out_channels (5) both miss the MR/NR tile boundaries
    s.in_channels = 3;
    s.in_height = 7;
    s.in_width = 9;
    s.out_channels = 5;
    s.kernel = 3;
    s.stride = 1;
    s.padding = 1;
    cases.push_back({"ragged_tiles", s, 2});
  }
  {
    ConvShape s;  // strided with padding
    s.in_channels = 2;
    s.in_height = 9;
    s.in_width = 9;
    s.out_channels = 4;
    s.kernel = 3;
    s.stride = 2;
    s.padding = 1;
    cases.push_back({"stride2_pad1", s, 2});
  }
  return cases;
}

/// Runs forward + backward on the planned path and the seed reference path
/// and asserts every output tensor is bit-identical.
void expect_planned_matches_reference(const PlannedCase& test_case,
                                      const MatmulBackend& backend) {
  const ConvShape& s = test_case.shape;
  Rng rng(23);
  ConvLayer layer(s, rng);
  fill_random_uniform<float>(layer.mutable_bias().view(), rng, -0.5f, 0.5f);
  Matrix<float> x(test_case.batch, s.in_size());
  Matrix<float> dy(test_case.batch, s.out_size());
  fill_random_uniform<float>(x.view(), rng, -1.0f, 1.0f);
  fill_random_uniform<float>(dy.view(), rng, -1.0f, 1.0f);

  // Run the battery twice with an SGD step in between, so the second round
  // runs on updated filters.
  for (int round = 0; round < 2; ++round) {
    SCOPED_TRACE(std::string(test_case.name) + " round " + std::to_string(round));
    Matrix<float> y_ref(test_case.batch, s.out_size());
    conv_forward_reference(s, x.view().as_const(), layer.filters().view().as_const(),
                           layer.bias().view().as_const(), y_ref.view(), backend);

    // Forward, bias-only epilogue.
    Matrix<float> y(test_case.batch, s.out_size());
    layer.forward(x.view().as_const(), y.view(), backend);
    EXPECT_EQ(max_abs_diff(y.view(), y_ref.view()), 0.0) << "forward";

    // Forward with the ReLU fused; reference applies it as a separate pass.
    Matrix<float> y_relu_ref(test_case.batch, s.out_size());
    ReluLayer::forward(y_ref.view().as_const(), y_relu_ref.view());
    Matrix<float> y_relu(test_case.batch, s.out_size());
    layer.forward(x.view().as_const(), y_relu.view(), backend, /*fuse_relu=*/true);
    EXPECT_EQ(max_abs_diff(y_relu.view(), y_relu_ref.view()), 0.0) << "fused relu";

    // Backward (patch cache warm from the forward above).
    Matrix<float> dfilters_ref(s.patch_size(), s.out_channels);
    Matrix<float> dbias_ref(1, s.out_channels);
    Matrix<float> dx_ref(test_case.batch, s.in_size());
    MatrixView<float> dx_ref_view = dx_ref.view();
    conv_backward_reference(s, x.view().as_const(),
                            layer.filters().view().as_const(), dy.view().as_const(),
                            dfilters_ref.view(), dbias_ref.view(), &dx_ref_view,
                            backend);
    Matrix<float> dx(test_case.batch, s.in_size());
    MatrixView<float> dx_view = dx.view();
    layer.backward(x.view().as_const(), dy.view().as_const(), &dx_view, backend);
    EXPECT_EQ(max_abs_diff(layer.filter_grad().view(), dfilters_ref.view()), 0.0)
        << "dfilters";
    EXPECT_EQ(max_abs_diff(layer.bias_grad().view(), dbias_ref.view()), 0.0)
        << "dbias";
    EXPECT_EQ(max_abs_diff(dx.view(), dx_ref.view()), 0.0) << "dx";

    // Backward with the ReLU mask fused into the dx product (gate = x);
    // reference masks dx in output space as a separate pass. Cache is cold
    // here (consumed above), so this also covers the im2col rebuild path.
    Matrix<float> dx_masked_ref(test_case.batch, s.in_size());
    ReluLayer::backward(x.view().as_const(), dx_ref.view().as_const(),
                        dx_masked_ref.view());
    Matrix<float> dx_masked(test_case.batch, s.in_size());
    MatrixView<float> dx_masked_view = dx_masked.view();
    layer.backward(x.view().as_const(), dy.view().as_const(), &dx_masked_view,
                   backend, x.view().as_const());
    EXPECT_EQ(max_abs_diff(dx_masked.view(), dx_masked_ref.view()), 0.0)
        << "dx with fused relu mask";

    layer.apply_sgd(0.05f);
  }
}

TEST(ConvPlanned, EdgeShapesBitIdenticalToSeedPath) {
  const MatmulBackend backend = classical();
  for (const PlannedCase& test_case : planned_cases()) {
    expect_planned_matches_reference(test_case, backend);
  }
}

TEST(ConvPlanned, MultithreadedBackendBitIdenticalToSeedPath) {
  // The threaded pack and batch-parallel im2col/transpose must not change a
  // single bit relative to the serial seed path.
  BackendOptions options;
  options.matmul.num_threads = 4;
  const MatmulBackend backend("classical", options);
  for (const PlannedCase& test_case : planned_cases()) {
    expect_planned_matches_reference(test_case, backend);
  }
}

TEST(ConvPlanned, ApaDispatchStillRoutesEpilogues) {
  // On an APA dispatch the fused epilogues must still be applied
  // (post-combine); the result tracks the APA product, not the
  // classical one, so compare against reference + separate passes on the same
  // APA backend.
  ConvShape s;
  s.in_channels = 16;
  s.in_height = 16;
  s.in_width = 16;
  s.out_channels = 32;
  Rng rng(29);
  ConvLayer layer(s, rng);
  fill_random_uniform<float>(layer.mutable_bias().view(), rng, -0.5f, 0.5f);
  Matrix<float> x(2, s.in_size());
  fill_random_uniform<float>(x.view(), rng, -1.0f, 1.0f);

  BackendOptions apa_options;
  apa_options.min_dim_for_fast = 1;
  const MatmulBackend apa("bini322", apa_options);
  ASSERT_NE(apa.dispatch_for(2 * s.out_height() * s.out_width(), s.patch_size(),
                             s.out_channels),
            nullptr);

  Matrix<float> y_ref(2, s.out_size());
  conv_forward_reference(s, x.view().as_const(), layer.filters().view().as_const(),
                         layer.bias().view().as_const(), y_ref.view(), apa);
  ReluLayer::forward(y_ref.view().as_const(), y_ref.view());
  Matrix<float> y(2, s.out_size());
  layer.forward(x.view().as_const(), y.view(), apa, /*fuse_relu=*/true);
  EXPECT_EQ(max_abs_diff(y.view(), y_ref.view()), 0.0);
}

TEST(ConvPlanned, BackwardAfterWeightMutationUsesFreshPack) {
  // Mutating filters through the non-const accessor must invalidate the
  // cached packs: a stale pack would silently compute with old weights.
  ConvShape s = small_shape();
  Rng rng(31);
  ConvLayer layer(s, rng);
  Matrix<float> x(2, s.in_size()), y(2, s.out_size());
  fill_random_uniform<float>(x.view(), rng);
  layer.forward(x.view().as_const(), y.view(), classical());  // packs filters

  layer.filters()(0, 0) += 1.0f;  // bumps the version
  Matrix<float> y_ref(2, s.out_size());
  conv_forward_reference(s, x.view().as_const(), layer.filters().view().as_const(),
                         layer.bias().view().as_const(), y_ref.view(), classical());
  layer.forward(x.view().as_const(), y.view(), classical());
  EXPECT_EQ(max_abs_diff(y.view(), y_ref.view()), 0.0);
}

TEST(ConvLayer, SgdUpdatesFilters) {
  ConvShape s = small_shape();
  Rng rng(11);
  ConvLayer layer(s, rng);
  Matrix<float> x(1, s.in_size()), y(1, s.out_size());
  fill_random_uniform<float>(x.view(), rng);
  layer.forward(x.view().as_const(), y.view(), classical());
  layer.backward(x.view().as_const(), y.view().as_const(), nullptr, classical());
  const float before = layer.filters()(0, 0);
  const float grad = layer.filter_grad()(0, 0);
  layer.apply_sgd(0.1f);
  EXPECT_FLOAT_EQ(layer.filters()(0, 0), before - 0.1f * grad);
}

}  // namespace
}  // namespace apa::nn
