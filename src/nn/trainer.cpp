#include "nn/trainer.h"

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <sstream>
#include <utility>

#include "nn/checkpoint.h"
#include "nn/divergence.h"
#include "nn/guarded_backend.h"
#include "obs/flight.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "support/check.h"
#include "support/timer.h"

namespace apa::nn {
namespace {

/// Accumulates per-epoch guard activity across fast-backend swaps: the guard
/// loop replaces the backend on de-risk, which resets its GuardStats to zero,
/// so a single before/after delta would underflow. Call segment_end() before
/// every swap and rebase() after it.
class GuardFold {
 public:
  template <class Model>
  explicit GuardFold(const Model& model) {
    rebase(model);
  }

  template <class Model>
  void segment_end(const Model& model) {
    const auto* guarded = dynamic_cast<const GuardedBackend*>(&model.fast_backend());
    if (guarded == nullptr) return;
    acc_ += guard_stats_delta(base_, guarded->stats());
  }

  template <class Model>
  void rebase(const Model& model) {
    const auto* guarded = dynamic_cast<const GuardedBackend*>(&model.fast_backend());
    seen_guarded_ = seen_guarded_ || guarded != nullptr;
    base_ = guarded != nullptr ? guarded->stats() : GuardStats{};
  }

  template <class Model>
  void finish(const Model& model, EpochStats& stats) {
    segment_end(model);
    stats.guarded = seen_guarded_;
    stats.guard = acc_;
  }

 private:
  bool seen_guarded_ = false;
  GuardStats base_;
  GuardStats acc_;
};

// The epoch loop below is templated over the model (Mlp or Cnn): both expose
// train_step/predict, fast_backend/set_fast_backend, and a save/load_checkpoint
// overload, which is all the guard machinery needs.

/// Collision-safe default location for auto-checkpoints: distinct per process
/// and per model instance, so concurrent guarded runs never clobber each other.
std::string default_guard_checkpoint_path(const void* model) {
  std::ostringstream name;
  name << "apamm_guard_" << ::getpid() << "_"
       << reinterpret_cast<std::uintptr_t>(model) << ".ckpt";
  return (std::filesystem::temp_directory_path() / name.str()).string();
}

/// Runs `fn` on every exit from the enclosing scope, a throw included.
template <class Fn>
class OnExit {
 public:
  explicit OnExit(Fn fn) : fn_(std::move(fn)) {}
  ~OnExit() { fn_(); }
  OnExit(const OnExit&) = delete;
  OnExit& operator=(const OnExit&) = delete;

 private:
  Fn fn_;
};

template <class Model>
EpochStats train_epoch_impl(Model& model, data::Dataset& dataset, index_t batch,
                            Rng* rng, const TrainGuardOptions& options,
                            TrainGuardReport* report) {
  TrainGuardReport local_report;
  TrainGuardReport& out = report != nullptr ? *report : local_report;
  out = TrainGuardReport{};
  if (rng != nullptr) data::shuffle(dataset, *rng);

  const bool guarded = options.enabled;
  const bool owns_checkpoint = guarded && options.checkpoint_path.empty();
  const std::string checkpoint = owns_checkpoint ? default_guard_checkpoint_path(&model)
                                                 : options.checkpoint_path;
  DivergenceGuard guard(options.warmup_steps, options.max_recoveries);
  const OnExit finish([&] {
    out.recoveries = guard.rollbacks();
    out.lambda_shrinks = guard.lambda_shrinks();
    out.fell_back_to_classical = guard.fell_back_to_classical();
    out.final_lambda = model.fast_backend().effective_lambda();
    if (owns_checkpoint) std::remove(checkpoint.c_str());
  });
  const auto write_checkpoint = [&] {
    APA_TRACE_SCOPE("train.checkpoint");
    save_checkpoint(checkpoint, model);
    APA_COUNTER_INC("train.checkpoints");
    ++out.checkpoints_written;
  };
  if (guarded) {
    // A run killed mid-save leaves a `.tmp` orphan next to the checkpoint;
    // clear it before the first commit of this epoch. The default path lives
    // in the shared temp directory, where other processes' in-flight commits
    // sit too, so there only this run's own orphan goes.
    if (owns_checkpoint) {
      std::remove((checkpoint + ".tmp").c_str());
    } else {
      cleanup_stale_checkpoint_temps(
          std::filesystem::path(checkpoint).parent_path().string());
    }
    write_checkpoint();
  }

  EpochStats stats;
  GuardFold fold(model);
  const auto phases_before = obs::phase_totals();
  double loss_acc = 0;
  index_t first = 0;
  while (first + batch <= dataset.size()) {
    const auto x = dataset.batch_images(first, batch);
    const auto labels = dataset.batch_labels(first, batch);
    WallTimer timer;
    double loss;
    {
      APA_TRACE_SCOPE_ID("train.step", stats.steps);
      loss = model.train_step(x, labels);
    }
    const double step_seconds = timer.seconds();
    stats.seconds += step_seconds;

    const Divergence verdict = guarded ? guard.check(loss) : Divergence::kNone;
    if (verdict != Divergence::kNone) {
      const double running_mean = guard.running_mean();
      {
        APA_TRACE_SCOPE("train.rollback");
        fold.segment_end(model);  // de-risking may replace the backend
        guard.recover(model, verdict, stats.steps, loss);
        load_checkpoint(checkpoint, model);
        guard.rewound();
        fold.rebase(model);
      }
      APA_COUNTER_INC("train.rollbacks");
      obs::flight_note("train.rollback", static_cast<std::int64_t>(stats.steps),
                       guard.rollbacks());
      obs::flight_dump("rollback");
      if (options.telemetry != nullptr) {
        obs::JsonRecord rec;
        rec.set("type", "rollback")
            .set("step", static_cast<long long>(stats.steps))
            .set("cause", divergence_name(verdict))
            .set("loss", loss)
            .set("running_mean", running_mean)
            .set("recoveries", guard.rollbacks())
            .set("lambda", model.fast_backend().effective_lambda())
            .set("classical_fallback", guard.fell_back_to_classical());
        options.telemetry->write(rec);
      }
      continue;  // retry the same batch with restored weights
    }

    loss_acc += loss;
    ++stats.steps;
    first += batch;
    if (!guarded) continue;
    guard.accept(loss);
    if (options.telemetry != nullptr) {
      obs::JsonRecord rec;
      rec.set("type", "step")
          .set("step", static_cast<long long>(stats.steps - 1))
          .set("loss", loss)
          .set("seconds", step_seconds);
      options.telemetry->write(rec);
    }
    if (options.checkpoint_every > 0 && stats.steps % options.checkpoint_every == 0) {
      write_checkpoint();
    }
  }

  stats.mean_loss = stats.steps > 0 ? loss_acc / static_cast<double>(stats.steps) : 0;
  stats.dropped_samples = batch > 0 ? dataset.size() % batch : index_t{0};
  fold.finish(model, stats);
  stats.phases = obs::phase_delta(obs::phase_totals(), phases_before);
  return stats;
}

template <class Model>
double evaluate_accuracy_impl(Model& model, const data::Dataset& dataset,
                              index_t batch, index_t output_size) {
  index_t correct_weighted = 0;
  index_t total = 0;
  Matrix<float> logits;
  for (index_t first = 0; first < dataset.size(); first += batch) {
    const index_t count = std::min(batch, dataset.size() - first);
    logits = Matrix<float>(count, output_size);
    model.predict(dataset.batch_images(first, count), logits.view());
    const double acc =
        SoftmaxCrossEntropy::accuracy(logits.view(), dataset.batch_labels(first, count));
    correct_weighted += static_cast<index_t>(acc * static_cast<double>(count) + 0.5);
    total += count;
  }
  return total > 0 ? static_cast<double>(correct_weighted) / static_cast<double>(total)
                   : 0.0;
}

}  // namespace

EpochStats train_epoch(Mlp& mlp, data::Dataset& dataset, index_t batch, Rng* rng,
                       const TrainGuardOptions& guard, TrainGuardReport* report) {
  return train_epoch_impl(mlp, dataset, batch, rng, guard, report);
}

double evaluate_accuracy(const Mlp& mlp, const data::Dataset& dataset, index_t batch) {
  return evaluate_accuracy_impl(mlp, dataset, batch, mlp.output_size());
}

EpochStats train_epoch(Cnn& cnn, data::Dataset& dataset, index_t batch, Rng* rng,
                       const TrainGuardOptions& guard, TrainGuardReport* report) {
  return train_epoch_impl(cnn, dataset, batch, rng, guard, report);
}

double evaluate_accuracy(Cnn& cnn, const data::Dataset& dataset, index_t batch) {
  return evaluate_accuracy_impl(cnn, dataset, batch, cnn.output_size());
}

void append_epoch_record(obs::TelemetrySink& sink, int epoch,
                         const EpochStats& stats, double accuracy,
                         const TrainGuardReport* report) {
  obs::JsonRecord rec;
  rec.set("type", "epoch")
      .set("epoch", epoch)
      .set("mean_loss", stats.mean_loss)
      .set("seconds", stats.seconds)
      .set("steps", static_cast<long long>(stats.steps))
      .set("dropped_samples", static_cast<long long>(stats.dropped_samples));
  if (accuracy >= 0.0) rec.set("accuracy", accuracy);
  rec.set("guarded", stats.guarded);
  if (stats.guarded) {
    obs::JsonRecord g;
    g.set("fast_calls", stats.guard.fast_calls)
        .set("checks_run", stats.guard.checks_run)
        .set("trips_tolerance", stats.guard.trips_tolerance)
        .set("trips_nonfinite", stats.guard.trips_nonfinite)
        .set("fallback_reruns", stats.guard.fallback_reruns)
        .set("quarantined_calls", stats.guard.quarantined_calls)
        .set("shapes_quarantined", stats.guard.shapes_quarantined)
        .set("worst_ratio", stats.guard.worst_ratio);
    rec.set_raw("guard", g.to_json());
  }
  if (!stats.phases.empty()) {
    obs::JsonRecord phases;
    for (const auto& p : stats.phases) {
      obs::JsonRecord entry;
      entry.set("seconds", static_cast<double>(p.total_ns) * 1e-9)
          .set("count", p.count);
      phases.set_raw(p.name, entry.to_json());
    }
    rec.set_raw("phases", phases.to_json());
  }
  if (report != nullptr) {
    obs::JsonRecord g;
    g.set("recoveries", report->recoveries)
        .set("lambda_shrinks", report->lambda_shrinks)
        .set("fell_back_to_classical", report->fell_back_to_classical)
        .set("final_lambda", report->final_lambda)
        .set("checkpoints_written", static_cast<long long>(report->checkpoints_written));
    rec.set_raw("guard_report", g.to_json());
  }
  sink.write(rec);
}

}  // namespace apa::nn
