#pragma once
// The fully connected head of VGG-19 (paper section 5): three dense layers of
// 25088, 4096, and 1000 outputs fed by the flattened conv features. The paper
// replaces the matmuls of these layers with the <4,4,2> algorithm and times
// training per batch; this module builds that exact configuration.

#include <cstdint>
#include <vector>

#include "nn/conv.h"
#include "nn/mlp.h"

namespace apa::nn {

struct VggFcConfig {
  index_t conv_features = 25088;  ///< 7 x 7 x 512 flattened conv output
  index_t fc_width = 4096;
  index_t num_classes = 1000;
  float learning_rate = 0.01f;
  std::uint64_t seed = 11;
};

/// MLP over {conv_features, fc_width, fc_width, num_classes} with the fast
/// backend applied to ALL three dense layers (unlike the MLP default, the
/// paper accelerates every FC layer of VGG-19).
[[nodiscard]] Mlp make_vgg_fc_head(const VggFcConfig& config, MatmulBackend fast,
                                   MatmulBackend classical);

/// One named VGG-19 conv layer shape, for benchmarks that sweep the conv
/// stack's distinct gemm geometries.
struct NamedConvShape {
  const char* name;
  ConvShape shape;
};

/// The distinct conv layer shapes of VGG-19 (one representative per block
/// transition; all 3x3, stride 1, pad 1). The im2col gemm geometry per layer
/// is (batch * H * W) x (9 * C_in) x C_out — the shapes bench/micro_conv
/// sweeps for BENCH_conv.json.
[[nodiscard]] std::vector<NamedConvShape> vgg19_conv_shapes();

}  // namespace apa::nn
