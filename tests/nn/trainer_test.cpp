#include "nn/trainer.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <cmath>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>

#include "data/synthetic_mnist.h"
#include "obs/trace.h"
#include "support/rng.h"

namespace apa::nn {
namespace {

data::Dataset tiny_dataset(index_t count) {
  data::SyntheticMnistOptions opts;
  opts.train_size = count;
  opts.test_size = 1;
  return std::move(data::make_synthetic_mnist(opts).train);
}

Mlp tiny_mlp() {
  MlpConfig config;
  config.layer_sizes = {784, 32, 10};
  config.learning_rate = 0.05f;
  return Mlp(config, MatmulBackend("classical"), MatmulBackend("classical"));
}

TEST(Trainer, EpochStatsFieldsConsistent) {
  auto data = tiny_dataset(250);
  auto mlp = tiny_mlp();
  const auto stats = train_epoch(mlp, data, 100, nullptr);
  EXPECT_EQ(stats.steps, 2);  // 250 / 100, partial batch dropped
  EXPECT_EQ(stats.dropped_samples, 50);
  EXPECT_GT(stats.mean_loss, 0);
  EXPECT_GT(stats.seconds, 0);
}

TEST(Trainer, BatchLargerThanDatasetRunsNoSteps) {
  auto data = tiny_dataset(50);
  auto mlp = tiny_mlp();
  const auto stats = train_epoch(mlp, data, 100, nullptr);
  EXPECT_EQ(stats.steps, 0);
  EXPECT_EQ(stats.mean_loss, 0);
  EXPECT_EQ(stats.dropped_samples, 50);  // every sample misses the fixed batch
}

TEST(Trainer, GuardedEpochMatchesUnguardedWhenDisabled) {
  auto data_a = tiny_dataset(300);
  auto data_b = tiny_dataset(300);
  auto mlp_a = tiny_mlp();
  auto mlp_b = tiny_mlp();
  Rng rng_a(7), rng_b(7);
  const auto plain = train_epoch(mlp_a, data_a, 100, &rng_a);
  TrainGuardOptions guard;  // enabled defaults to false
  TrainGuardReport report;
  const auto guarded = train_epoch(mlp_b, data_b, 100, &rng_b, guard, &report);
  EXPECT_DOUBLE_EQ(plain.mean_loss, guarded.mean_loss);
  EXPECT_EQ(plain.dropped_samples, guarded.dropped_samples);
  EXPECT_EQ(report.recoveries, 0);
  EXPECT_EQ(report.checkpoints_written, 0);
}

TEST(Trainer, DeterministicWithSameShuffleSeed) {
  auto data_a = tiny_dataset(300);
  auto data_b = tiny_dataset(300);
  auto mlp_a = tiny_mlp();
  auto mlp_b = tiny_mlp();
  Rng rng_a(42), rng_b(42);
  const auto stats_a = train_epoch(mlp_a, data_a, 100, &rng_a);
  const auto stats_b = train_epoch(mlp_b, data_b, 100, &rng_b);
  EXPECT_DOUBLE_EQ(stats_a.mean_loss, stats_b.mean_loss);
  EXPECT_DOUBLE_EQ(evaluate_accuracy(mlp_a, data_a),
                   evaluate_accuracy(mlp_b, data_b));
}

TEST(Trainer, NoShuffleKeepsDataOrder) {
  auto data = tiny_dataset(120);
  const auto labels_before = data.labels;
  auto mlp = tiny_mlp();
  train_epoch(mlp, data, 60, nullptr);
  EXPECT_EQ(data.labels, labels_before);
}

TEST(Trainer, ShuffleChangesOrder) {
  auto data = tiny_dataset(120);
  const auto labels_before = data.labels;
  auto mlp = tiny_mlp();
  Rng rng(9);
  train_epoch(mlp, data, 60, &rng);
  EXPECT_NE(data.labels, labels_before);
}

Mlp tiny_guarded_mlp() {
  MlpConfig config;
  // Three dense layers so the default mask routes the middle one to the
  // guarded fast backend.
  config.layer_sizes = {784, 32, 32, 10};
  config.learning_rate = 0.05f;
  BackendOptions fast;
  fast.min_dim_for_fast = 16;
  // Wrapper subclasses must go through the shared_ptr overload (the value
  // constructor slices).
  return Mlp(config, std::make_shared<const GuardedBackend>("bini322", fast),
             std::make_shared<const MatmulBackend>("classical"));
}

TEST(Trainer, EpochStatsCarryGuardActivityWhenGuarded) {
  auto data = tiny_dataset(250);
  auto mlp = tiny_guarded_mlp();
  const auto stats = train_epoch(mlp, data, 100, nullptr);
  EXPECT_TRUE(stats.guarded);
  EXPECT_GT(stats.guard.fast_calls, 0u);
  EXPECT_GT(stats.guard.checks_run, 0u);
}

TEST(Trainer, EpochStatsGuardIsPerEpochDelta) {
  // The second epoch's stats must reflect only that epoch's activity, not the
  // backend's running totals.
  auto data = tiny_dataset(250);
  auto mlp = tiny_guarded_mlp();
  const auto first = train_epoch(mlp, data, 100, nullptr);
  const auto second = train_epoch(mlp, data, 100, nullptr);
  EXPECT_EQ(first.guard.fast_calls, second.guard.fast_calls);
}

TEST(Trainer, EpochStatsCarryPhaseBreakdown) {
  if (!obs::kCompiledIn) GTEST_SKIP() << "APAMM_OBS=OFF";
  obs::set_enabled(true);
  auto data = tiny_dataset(250);
  auto mlp = tiny_mlp();
  const auto stats = train_epoch(mlp, data, 100, nullptr);
  ASSERT_FALSE(stats.phases.empty());
  bool saw_step = false, saw_gemm = false;
  for (const auto& p : stats.phases) {
    if (p.name == "train.step") saw_step = true;
    if (p.name == "blas.gemm") saw_gemm = true;
    EXPECT_GT(p.count, 0u);
  }
  EXPECT_TRUE(saw_step);
  EXPECT_TRUE(saw_gemm);
}

TEST(Trainer, AppendEpochRecordWritesGuardAndPhases) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "apamm_trainer_epoch.jsonl")
          .string();
  {
    obs::TelemetrySink sink(path);
    ASSERT_TRUE(sink.ok());
    EpochStats stats;
    stats.mean_loss = 0.5;
    stats.seconds = 1.25;
    stats.steps = 2;
    stats.dropped_samples = 50;
    stats.guarded = true;
    stats.guard.fast_calls = 12;
    stats.guard.checks_run = 12;
    stats.phases.push_back({"blas.gemm", 1000000, 24});
    TrainGuardReport report;
    report.recoveries = 1;
    report.final_lambda = 0.25;
    append_epoch_record(sink, 3, stats, 0.9, &report);
  }
  std::ifstream in(path);
  std::string line;
  ASSERT_TRUE(std::getline(in, line));
  EXPECT_NE(line.find("\"type\": \"epoch\""), std::string::npos);
  EXPECT_NE(line.find("\"epoch\": 3"), std::string::npos);
  EXPECT_NE(line.find("\"accuracy\": 0.9"), std::string::npos);
  EXPECT_NE(line.find("\"fast_calls\": 12"), std::string::npos);
  EXPECT_NE(line.find("\"blas.gemm\""), std::string::npos);
  EXPECT_NE(line.find("\"recoveries\": 1"), std::string::npos);
  std::filesystem::remove(path);
}

TEST(Trainer, GuardStatsDeltaSubtractsCountersKeepsWorstRatio) {
  GuardStats before, after;
  before.fast_calls = 10;
  before.checks_run = 8;
  before.worst_ratio = 0.5;
  after.fast_calls = 25;
  after.checks_run = 20;
  after.trips_tolerance = 2;
  after.worst_ratio = 1.5;
  const GuardStats d = guard_stats_delta(before, after);
  EXPECT_EQ(d.fast_calls, 15u);
  EXPECT_EQ(d.checks_run, 12u);
  EXPECT_EQ(d.trips_tolerance, 2u);
  EXPECT_DOUBLE_EQ(d.worst_ratio, 1.5);
}

TEST(Trainer, AccuracyBoundsOnUntrainedModel) {
  const auto data = tiny_dataset(200);
  const auto mlp = tiny_mlp();
  const double acc = evaluate_accuracy(mlp, data, 64);
  EXPECT_GE(acc, 0.0);
  EXPECT_LE(acc, 1.0);
}

// ---------------------------------------------------------------------------
// CNN variants: same loop, batching methodology, and guard contract.
// ---------------------------------------------------------------------------

Cnn tiny_cnn() {
  CnnConfig config;
  config.conv_channels = 2;
  config.hidden = 24;
  config.learning_rate = 0.05f;
  return Cnn(config, MatmulBackend("classical"), MatmulBackend("classical"));
}

TEST(Trainer, CnnEpochStatsFieldsConsistent) {
  auto data = tiny_dataset(250);
  auto cnn = tiny_cnn();
  const auto stats = train_epoch(cnn, data, 100, nullptr);
  EXPECT_EQ(stats.steps, 2);  // 250 / 100, partial batch dropped
  EXPECT_EQ(stats.dropped_samples, 50);
  EXPECT_GT(stats.mean_loss, 0);
  EXPECT_GT(stats.seconds, 0);
}

TEST(Trainer, CnnGuardedEpochMatchesUnguardedWhenDisabled) {
  auto data_a = tiny_dataset(300);
  auto data_b = tiny_dataset(300);
  auto cnn_a = tiny_cnn();
  auto cnn_b = tiny_cnn();
  Rng rng_a(7), rng_b(7);
  const auto plain = train_epoch(cnn_a, data_a, 100, &rng_a);
  TrainGuardOptions guard;  // enabled defaults to false
  TrainGuardReport report;
  const auto guarded = train_epoch(cnn_b, data_b, 100, &rng_b, guard, &report);
  EXPECT_DOUBLE_EQ(plain.mean_loss, guarded.mean_loss);
  EXPECT_EQ(plain.dropped_samples, guarded.dropped_samples);
  EXPECT_EQ(report.recoveries, 0);
  EXPECT_EQ(report.checkpoints_written, 0);
}

TEST(Trainer, CnnGuardedEnabledWithoutDivergenceIsBitNeutral) {
  // Auto-checkpointing must never perturb the trajectory: a guarded epoch with
  // no trips produces exactly the unguarded loss.
  auto data_a = tiny_dataset(300);
  auto data_b = tiny_dataset(300);
  auto cnn_a = tiny_cnn();
  auto cnn_b = tiny_cnn();
  Rng rng_a(11), rng_b(11);
  const auto plain = train_epoch(cnn_a, data_a, 100, &rng_a);
  TrainGuardOptions guard;
  guard.enabled = true;
  guard.checkpoint_every = 1;
  TrainGuardReport report;
  const auto guarded = train_epoch(cnn_b, data_b, 100, &rng_b, guard, &report);
  EXPECT_DOUBLE_EQ(plain.mean_loss, guarded.mean_loss);
  EXPECT_EQ(report.recoveries, 0);
  EXPECT_GE(report.checkpoints_written, 3);  // initial + one per step
}

TEST(Trainer, GuardedEpochLeavesOtherProcessesTempsAlone) {
  // The default auto-checkpoint lives in the shared temp directory, next to
  // other processes' in-flight `*.ckpt.tmp` commits; a guarded epoch must
  // clean up only its own orphan, never theirs.
  const std::filesystem::path foreign =
      std::filesystem::temp_directory_path() /
      ("apamm_guard_" + std::to_string(::getpid() + 1) + "_x.ckpt.tmp");
  std::ofstream(foreign) << "another run's half-written checkpoint";
  ASSERT_TRUE(std::filesystem::exists(foreign));

  auto data = tiny_dataset(200);
  auto mlp = tiny_mlp();
  TrainGuardOptions guard;
  guard.enabled = true;  // checkpoint_path stays empty: the default location
  Rng rng(5);
  train_epoch(mlp, data, 50, &rng, guard);

  EXPECT_TRUE(std::filesystem::exists(foreign));
  std::filesystem::remove(foreign);
}

TEST(Trainer, CnnRollbackRecoversFromRoundoffExplosion) {
  // lambda = 1e-12 amplifies APA roundoff until activations explode; the guard
  // must roll the CNN back (conv filters, dense layers, and momentum buffers)
  // and finish the epoch with healthy numbers on a de-risked backend.
  auto data = tiny_dataset(600);
  BackendOptions bad;
  bad.matmul.lambda = 1e-12;
  bad.min_dim_for_fast = 16;
  CnnConfig config;
  config.conv_channels = 2;
  config.hidden = 64;
  config.momentum = 0.9f;  // rollback must rewind velocity too
  config.learning_rate = 0.05f;
  Cnn cnn(config, MatmulBackend("bini322", bad), MatmulBackend("classical"));

  TrainGuardOptions guard;
  guard.enabled = true;
  guard.checkpoint_every = 3;
  guard.warmup_steps = 1;
  TrainGuardReport report;
  Rng rng(22);
  const EpochStats stats = train_epoch(cnn, data, 64, &rng, guard, &report);

  EXPECT_GE(report.recoveries, 1);
  EXPECT_TRUE(std::isfinite(stats.mean_loss));
  EXPECT_GT(stats.steps, 0);
  Matrix<float> logits(4, 10);
  cnn.predict(data.batch_images(0, 4), logits.view());
  for (const float v : logits.span()) EXPECT_TRUE(std::isfinite(v));
}

TEST(Trainer, CnnAccuracyBoundsOnUntrainedModel) {
  const auto data = tiny_dataset(200);
  auto cnn = tiny_cnn();
  const double acc = evaluate_accuracy(cnn, data, 64);
  EXPECT_GE(acc, 0.0);
  EXPECT_LE(acc, 1.0);
}

}  // namespace
}  // namespace apa::nn
