#include "nn/vgg.h"

#include <gtest/gtest.h>

namespace apa::nn {
namespace {

VggFcConfig tiny_config() {
  // Scaled-down head (same 3-layer topology) so the test is fast.
  VggFcConfig config;
  config.conv_features = 64;
  config.fc_width = 32;
  config.num_classes = 10;
  return config;
}

TEST(VggFc, TopologyMatchesPaper) {
  auto head = make_vgg_fc_head(tiny_config(), MatmulBackend("classical"),
                               MatmulBackend("classical"));
  ASSERT_EQ(head.num_dense_layers(), 3);
  EXPECT_EQ(head.input_size(), 64);
  EXPECT_EQ(head.layer(0).out_features(), 32);
  EXPECT_EQ(head.layer(1).out_features(), 32);
  EXPECT_EQ(head.output_size(), 10);
}

TEST(VggFc, AllLayersUseFastBackend) {
  auto head = make_vgg_fc_head(tiny_config(), MatmulBackend("fast442"),
                               MatmulBackend("classical"));
  for (index_t i = 0; i < head.num_dense_layers(); ++i) {
    EXPECT_TRUE(head.layer_uses_fast(i)) << "layer " << i;
  }
}

TEST(VggFc, DefaultDimensionsAreVgg19) {
  const VggFcConfig config;
  EXPECT_EQ(config.conv_features, 25088);  // 7*7*512
  EXPECT_EQ(config.fc_width, 4096);
  EXPECT_EQ(config.num_classes, 1000);
}

TEST(VggFc, TrainingStepReducesLossOnFixedBatch) {
  auto head = make_vgg_fc_head(tiny_config(), MatmulBackend("classical"),
                               MatmulBackend("classical"));
  Rng rng(3);
  Matrix<float> x(8, 64);
  fill_random_uniform<float>(x.view(), rng, 0.0f, 1.0f);
  std::vector<int> labels = {0, 1, 2, 3, 4, 5, 6, 7};
  const double first = head.train_step(x.view().as_const(), labels);
  double last = first;
  for (int i = 0; i < 30; ++i) last = head.train_step(x.view().as_const(), labels);
  EXPECT_LT(last, first);  // memorizes the fixed batch
}

}  // namespace
}  // namespace apa::nn
