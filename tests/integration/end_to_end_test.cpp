// Cross-module integration tests: the full paper pipeline (data -> MLP with
// APA middle layer -> accuracy) and the serialization -> execution round trip.

#include <gtest/gtest.h>

#include <cmath>
#include <sstream>
#include <vector>

#include "core/fastmm.h"
#include "core/registry.h"
#include "core/serialize.h"
#include "data/synthetic_mnist.h"
#include "nn/trainer.h"
#include "nn/vgg.h"
#include "support/rng.h"

namespace apa {
namespace {

TEST(EndToEnd, MlpWithApaMiddleLayerLearnsSyntheticMnist) {
  data::SyntheticMnistOptions gen;
  gen.train_size = 4500;
  gen.test_size = 600;
  auto splits = data::make_synthetic_mnist(gen);

  nn::MlpConfig config;
  config.layer_sizes = {784, 300, 300, 10};
  config.learning_rate = 0.1f;
  nn::Mlp mlp(config, nn::MatmulBackend("fast444"), nn::MatmulBackend("classical"));
  ASSERT_TRUE(mlp.layer_uses_fast(1));

  Rng rng(4);
  double accuracy = 0;
  for (int epoch = 0; epoch < 9; ++epoch) {
    nn::train_epoch(mlp, splits.train, 300, &rng);
    accuracy = nn::evaluate_accuracy(mlp, splits.test);
  }
  EXPECT_GT(accuracy, 0.85) << "paper Fig 5 regime: training converges under APA error";
}

TEST(EndToEnd, ApaAndClassicalTrainingStayClose) {
  data::SyntheticMnistOptions gen;
  gen.train_size = 2400;
  gen.test_size = 600;
  auto train_a = data::make_synthetic_mnist(gen);
  auto train_b = data::make_synthetic_mnist(gen);

  nn::MlpConfig config;
  config.layer_sizes = {784, 300, 300, 10};
  config.learning_rate = 0.1f;
  nn::Mlp classical_mlp(config, nn::MatmulBackend("classical"),
                        nn::MatmulBackend("classical"));
  // apa664 has the worst error class in the catalog (phi = 2, ~5e-3): the
  // robustness claim in its hardest in-catalog configuration.
  nn::Mlp apa_mlp(config, nn::MatmulBackend("apa664"), nn::MatmulBackend("classical"));

  Rng rng_a(6), rng_b(6);
  for (int epoch = 0; epoch < 4; ++epoch) {
    nn::train_epoch(classical_mlp, train_a.train, 300, &rng_a);
    nn::train_epoch(apa_mlp, train_b.train, 300, &rng_b);
  }
  const double acc_classical = nn::evaluate_accuracy(classical_mlp, train_a.test);
  const double acc_apa = nn::evaluate_accuracy(apa_mlp, train_b.test);
  EXPECT_GT(acc_apa, acc_classical - 0.06)
      << "classical=" << acc_classical << " apa=" << acc_apa;
}

TEST(EndToEnd, MomentumTrainingConvergesFasterEarly) {
  data::SyntheticMnistOptions gen;
  gen.train_size = 1800;
  gen.test_size = 400;
  const auto make = [&](float momentum) {
    auto splits = data::make_synthetic_mnist(gen);
    nn::MlpConfig config;
    config.layer_sizes = {784, 128, 10};
    config.learning_rate = 0.02f;
    config.momentum = momentum;
    nn::Mlp mlp(config, nn::MatmulBackend("classical"), nn::MatmulBackend("classical"));
    Rng rng(8);
    nn::EpochStats stats{};
    for (int epoch = 0; epoch < 2; ++epoch) {
      stats = nn::train_epoch(mlp, splits.train, 100, &rng);
    }
    return stats.mean_loss;
  };
  EXPECT_LT(make(0.9f), make(0.0f));
}

TEST(EndToEnd, SerializedRuleDrivesFastMatmul) {
  // Export a registry rule, re-import it, and verify the loaded rule computes
  // the same product as the original through the full execution stack.
  std::stringstream ss;
  core::write_rule(ss, core::rule_by_name("apa422"));
  const core::Rule loaded = core::read_rule(ss);

  core::FastMatmul original("apa422");
  core::FastMatmul imported(loaded);
  Rng rng(10);
  Matrix<float> a(64, 64), b(64, 64), c1(64, 64), c2(64, 64);
  fill_random_uniform<float>(a.view(), rng);
  fill_random_uniform<float>(b.view(), rng);
  original.multiply(a.view().as_const(), b.view().as_const(), c1.view());
  imported.multiply(a.view().as_const(), b.view().as_const(), c2.view());
  EXPECT_EQ(max_abs_diff(c1.view(), c2.view()), 0.0);
}

TEST(EndToEnd, VggHeadTimingClassicalVsFastBothRun) {
  nn::VggFcConfig config;
  config.conv_features = 512;  // scaled-down head, same topology
  config.fc_width = 256;
  config.num_classes = 50;
  auto classical_head = nn::make_vgg_fc_head(config, nn::MatmulBackend("classical"),
                                             nn::MatmulBackend("classical"));
  auto fast_head = nn::make_vgg_fc_head(config, nn::MatmulBackend("fast442"),
                                        nn::MatmulBackend("classical"));
  Rng rng(5);
  Matrix<float> x(64, config.conv_features);
  fill_random_uniform<float>(x.view(), rng, 0.0f, 1.0f);
  std::vector<int> labels(64);
  for (auto& label : labels) label = static_cast<int>(rng.next_below(50));
  EXPECT_TRUE(std::isfinite(classical_head.train_step(x.view().as_const(), labels)));
  EXPECT_TRUE(std::isfinite(fast_head.train_step(x.view().as_const(), labels)));
}

}  // namespace
}  // namespace apa
