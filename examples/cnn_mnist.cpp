// Train a small CNN (conv -> ReLU -> maxpool -> dense -> ReLU -> dense) on
// (synthetic) MNIST with APA backends on the conv and hidden-dense matmuls —
// the conv-as-gemm direction the paper's introduction motivates.
//
//   ./cnn_mnist [--algo=fast444] [--epochs=4] [--train=4000] [--batch=128]
//               [--tune] [--tune-cache=PATH]
//               [--trace-out=trace.json] [--metrics-out=metrics.jsonl] [--trace-cap=N]
//
// --trace-out / --metrics-out enable the observability layer: a Chrome-trace
// JSON of every instrumented phase and a JSONL stream of per-epoch records
// (see docs/OBSERVABILITY.md). --tune / --tune-cache route the fast matmuls
// (conv-as-gemm included) through the self-tuning backend router with an
// optional persistent choice table (see docs/TUNING.md).

#include <cstdio>
#include <memory>

#include "data/synthetic_mnist.h"
#include "nn/cnn.h"
#include "nn/trainer.h"
#include "obs/session.h"
#include "support/cli.h"
#include "tune/calibrate.h"
#include "tune/router.h"

int main(int argc, char** argv) {
  using namespace apa;
  const CliArgs args(argc, argv);
  obs::ObsSession obs_session(
      args.get("trace-out", ""), args.get("metrics-out", ""),
      static_cast<std::uint64_t>(args.get_int("trace-cap", 0)));
  const std::string algo = args.get("algo", "fast444");
  const int epochs = static_cast<int>(args.get_int("epochs", 4));
  const index_t batch = args.get_int("batch", 128);

  data::SyntheticMnistOptions gen;
  gen.train_size = args.get_int("train", 4000);
  gen.test_size = 1000;
  auto splits = data::make_synthetic_mnist(gen);

  nn::CnnConfig config;
  config.conv_channels = 8;
  config.hidden = 128;
  config.learning_rate = 0.05f;
  config.momentum = 0.9f;
  // Wrappers ride the shared_ptr overload — the value constructor would slice
  // the router (or any policy wrapper) down to a plain backend.
  const std::string tune_cache = args.get("tune-cache", "");
  const bool tune_enabled = args.get_bool("tune", false) || !tune_cache.empty();
  std::shared_ptr<const nn::MatmulBackend> fast;
  const tune::TunedBackend* router = nullptr;
  if (tune_enabled) {
    tune::RouterOptions tuning;
    if (algo != "classical") tuning.algorithms = {algo};
    tuning.static_algorithm = algo;
    tuning.cache_path = tune_cache;
    tuning.telemetry = obs_session.telemetry();
    // One timed sample per explore burst: conv traffic revisits each im2col
    // shape only a few times per epoch, so the default bench-sized budget
    // would never commit a decision in a short run.
    tuning.measure_reps = 1;
    if (tune_cache.empty() || tune::load_tuning_cache(tune_cache).status !=
                                  tune::CacheStatus::kLoaded) {
      tuning.cost = tune::calibrate();  // the router's explore prior
    }
    auto tuned = std::make_shared<const tune::TunedBackend>(tuning);
    router = tuned.get();
    fast = tuned;
  } else {
    fast = std::make_shared<const nn::MatmulBackend>(algo);
  }
  nn::Cnn cnn(config, fast, std::make_shared<const nn::MatmulBackend>("classical"));

  std::printf("CNN 1x28x28 -> conv3x3(%ld) -> pool2 -> %ld -> 10, batch %ld, '%s'\n\n",
              static_cast<long>(config.conv_channels), static_cast<long>(config.hidden),
              static_cast<long>(batch), algo.c_str());

  for (int epoch = 1; epoch <= epochs; ++epoch) {
    // No shuffle (nullptr rng) keeps the seed example's fixed batch order.
    const auto stats = nn::train_epoch(cnn, splits.train, batch, nullptr);
    const double acc = nn::evaluate_accuracy(cnn, splits.test);
    std::printf("epoch %d  loss %.4f  test-acc %.4f  (%.2fs)\n", epoch,
                stats.mean_loss, acc, stats.seconds);
    if (obs_session.telemetry() != nullptr) {
      nn::append_epoch_record(*obs_session.telemetry(), epoch, stats, acc);
    }
  }
  if (router != nullptr) {
    const tune::RouterStats s = router->stats();
    std::printf(
        "\nrouter: cache %s (%llu warm entries), %llu decisions, "
        "%llu explore samples, %llu routed calls, %llu static calls\n",
        tune::to_string(s.cache_status),
        static_cast<unsigned long long>(s.warm_entries),
        static_cast<unsigned long long>(s.decisions),
        static_cast<unsigned long long>(s.explore_samples),
        static_cast<unsigned long long>(s.decided_calls),
        static_cast<unsigned long long>(s.static_calls));
  }
  return 0;
}
