#include "nn/trainer.h"

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <sstream>

#include "nn/checkpoint.h"
#include "nn/derisk.h"
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

// The loops below are templated over the model (Mlp or Cnn): both expose
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

/// One de-risk rung (shared ladder in nn/derisk.h), folded into the report.
template <class Model>
void derisk_into_report(Model& model, const TrainGuardOptions& guard,
                        TrainGuardReport& report) {
  switch (derisk_fast_backend(model, guard.lambda_shrink)) {
    case DeriskAction::kLambdaShrunk: ++report.lambda_shrinks; break;
    case DeriskAction::kClassicalFallback: report.fell_back_to_classical = true; break;
    case DeriskAction::kNone: break;
  }
}

template <class Model>
EpochStats train_epoch_plain(Model& model, data::Dataset& dataset, index_t batch,
                             Rng* rng) {
  if (rng != nullptr) data::shuffle(dataset, *rng);
  EpochStats stats;
  GuardFold fold(model);
  const auto phases_before = obs::phase_totals();
  double loss_acc = 0;
  for (index_t first = 0; first + batch <= dataset.size(); first += batch) {
    const auto x = dataset.batch_images(first, batch);
    const auto labels = dataset.batch_labels(first, batch);
    WallTimer timer;
    {
      APA_TRACE_SCOPE_ID("train.step", stats.steps);
      loss_acc += model.train_step(x, labels);
    }
    stats.seconds += timer.seconds();
    ++stats.steps;
  }
  stats.mean_loss = stats.steps > 0 ? loss_acc / static_cast<double>(stats.steps) : 0;
  stats.dropped_samples = batch > 0 ? dataset.size() % batch : index_t{0};
  fold.finish(model, stats);
  stats.phases = obs::phase_delta(obs::phase_totals(), phases_before);
  return stats;
}

template <class Model>
EpochStats train_epoch_guarded(Model& model, data::Dataset& dataset, index_t batch,
                               Rng* rng, const TrainGuardOptions& guard,
                               TrainGuardReport* report) {
  TrainGuardReport local_report;
  TrainGuardReport& out = report != nullptr ? *report : local_report;
  out = TrainGuardReport{};
  if (!guard.enabled) {
    const EpochStats stats = train_epoch_plain(model, dataset, batch, rng);
    out.final_lambda = model.fast_backend().effective_lambda();
    return stats;
  }

  if (rng != nullptr) data::shuffle(dataset, *rng);

  const std::string checkpoint = guard.checkpoint_path.empty()
                                     ? default_guard_checkpoint_path(&model)
                                     : guard.checkpoint_path;
  // A run killed mid-save leaves a `.tmp` orphan next to the checkpoint;
  // clear it before the first commit of this epoch. The default path lives in
  // the shared temp directory, where other processes' in-flight commits sit
  // too, so there only this run's own orphan goes.
  if (guard.checkpoint_path.empty()) {
    std::remove((checkpoint + ".tmp").c_str());
  } else {
    cleanup_stale_checkpoint_temps(
        std::filesystem::path(checkpoint).parent_path().string());
  }
  {
    APA_TRACE_SCOPE("train.checkpoint");
    save_checkpoint(checkpoint, model);
  }
  APA_COUNTER_INC("train.checkpoints");
  ++out.checkpoints_written;

  EpochStats stats;
  GuardFold fold(model);
  const auto phases_before = obs::phase_totals();
  double loss_acc = 0;
  // Running loss mean for spike detection; reset after every rollback since
  // the restored weights re-live an earlier loss regime.
  double ewma = 0;
  index_t ewma_steps = 0;
  constexpr double kSpikeAbsoluteSlack = 1e-3;

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

    const bool spiked = ewma_steps >= guard.warmup_steps &&
                        loss > guard.loss_spike_factor * ewma + kSpikeAbsoluteSlack;
    if (!std::isfinite(loss) || spiked) {
      APA_CHECK_CODE(out.recoveries < guard.max_recoveries, ErrorCode::kDiverged,
                     "training diverged at step " << stats.steps << " (loss "
                         << loss << ", running mean " << ewma << ") after "
                         << out.recoveries
                         << " recovery attempts — backend exhausted");
      ++out.recoveries;
      APA_COUNTER_INC("train.rollbacks");
      obs::flight_note("train.rollback", static_cast<std::int64_t>(stats.steps),
                       out.recoveries);
      obs::flight_dump("rollback");
      const int lambda_shrinks_before = out.lambda_shrinks;
      {
        APA_TRACE_SCOPE("train.rollback");
        fold.segment_end(model);  // de-risking may replace the backend
        load_checkpoint(checkpoint, model);
        derisk_into_report(model, guard, out);
        fold.rebase(model);
      }
      if (out.lambda_shrinks > lambda_shrinks_before) {
        APA_COUNTER_INC("train.lambda_shrinks");
      }
      if (out.fell_back_to_classical) {
        APA_COUNTER_INC("train.classical_fallbacks");
      }
      if (guard.telemetry != nullptr) {
        obs::JsonRecord rec;
        rec.set("type", "rollback")
            .set("step", static_cast<long long>(stats.steps))
            .set("loss", loss)
            .set("running_mean", ewma)
            .set("recoveries", out.recoveries)
            .set("lambda", model.fast_backend().effective_lambda())
            .set("classical_fallback", out.fell_back_to_classical);
        guard.telemetry->write(rec);
      }
      ewma = 0;
      ewma_steps = 0;
      continue;  // retry the same batch with restored weights
    }

    ewma = ewma_steps == 0 ? loss
                           : guard.loss_ewma_decay * ewma +
                                 (1.0 - guard.loss_ewma_decay) * loss;
    ++ewma_steps;
    loss_acc += loss;
    ++stats.steps;
    if (guard.telemetry != nullptr) {
      obs::JsonRecord rec;
      rec.set("type", "step")
          .set("step", static_cast<long long>(stats.steps - 1))
          .set("loss", loss)
          .set("seconds", step_seconds);
      guard.telemetry->write(rec);
    }
    if (guard.checkpoint_every > 0 && stats.steps % guard.checkpoint_every == 0) {
      APA_TRACE_SCOPE("train.checkpoint");
      save_checkpoint(checkpoint, model);
      APA_COUNTER_INC("train.checkpoints");
      ++out.checkpoints_written;
    }
    first += batch;
  }

  stats.mean_loss = stats.steps > 0 ? loss_acc / static_cast<double>(stats.steps) : 0;
  stats.dropped_samples = batch > 0 ? dataset.size() % batch : index_t{0};
  fold.finish(model, stats);
  stats.phases = obs::phase_delta(obs::phase_totals(), phases_before);
  out.final_lambda = model.fast_backend().effective_lambda();
  if (guard.checkpoint_path.empty()) std::remove(checkpoint.c_str());
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

EpochStats train_epoch(Mlp& mlp, data::Dataset& dataset, index_t batch, Rng* rng) {
  return train_epoch_plain(mlp, dataset, batch, rng);
}

EpochStats train_epoch(Mlp& mlp, data::Dataset& dataset, index_t batch, Rng* rng,
                       const TrainGuardOptions& guard, TrainGuardReport* report) {
  return train_epoch_guarded(mlp, dataset, batch, rng, guard, report);
}

double evaluate_accuracy(const Mlp& mlp, const data::Dataset& dataset, index_t batch) {
  return evaluate_accuracy_impl(mlp, dataset, batch, mlp.output_size());
}

EpochStats train_epoch(Cnn& cnn, data::Dataset& dataset, index_t batch, Rng* rng) {
  return train_epoch_plain(cnn, dataset, batch, rng);
}

EpochStats train_epoch(Cnn& cnn, data::Dataset& dataset, index_t batch, Rng* rng,
                       const TrainGuardOptions& guard, TrainGuardReport* report) {
  return train_epoch_guarded(cnn, dataset, batch, rng, guard, report);
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
