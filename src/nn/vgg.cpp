#include "nn/vgg.h"

#include <vector>

namespace apa::nn {

Mlp make_vgg_fc_head(const VggFcConfig& config, MatmulBackend fast,
                     MatmulBackend classical) {
  MlpConfig mlp_config;
  mlp_config.layer_sizes = {config.conv_features, config.fc_width, config.fc_width,
                            config.num_classes};
  mlp_config.learning_rate = config.learning_rate;
  mlp_config.seed = config.seed;
  mlp_config.fast_layer_mask = {true, true, true};
  return Mlp(std::move(mlp_config), std::move(fast), std::move(classical));
}

std::vector<NamedConvShape> vgg19_conv_shapes() {
  const auto conv = [](index_t in_c, index_t out_c, index_t side) {
    ConvShape s;
    s.in_channels = in_c;
    s.in_height = side;
    s.in_width = side;
    s.out_channels = out_c;
    s.kernel = 3;
    s.stride = 1;
    s.padding = 1;
    return s;
  };
  return {
      {"conv1_1", conv(3, 64, 224)},   {"conv1_2", conv(64, 64, 224)},
      {"conv2_1", conv(64, 128, 112)}, {"conv3_1", conv(128, 256, 56)},
      {"conv4_1", conv(256, 512, 28)}, {"conv5_1", conv(512, 512, 14)},
  };
}

}  // namespace apa::nn
