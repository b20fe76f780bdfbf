#pragma once
// Epoch-level training loop and evaluation over Datasets, with the timing
// hooks the throughput experiments (paper Figs 6 and 7) rely on, plus an
// optional numerical-health guard: periodic auto-checkpoints, loss-spike and
// non-finite-loss detection, and automatic rollback with lambda-shrink retry
// so APA training recovers from divergence instead of producing garbage.
//
// Batching methodology (paper Figs 5-7): every step runs the same fixed batch
// size so APA rules see one constant problem shape per layer — padding a
// trailing partial batch would perturb both the timing distribution and the
// rule's orientation choice. The trailing `dataset.size() % batch` samples of
// each epoch are therefore *skipped*, and reported in
// EpochStats::dropped_samples; with shuffling enabled different samples are
// dropped each epoch, so no example is systematically excluded.

#include <string>
#include <vector>

#include "data/dataset.h"
#include "nn/cnn.h"
#include "nn/guarded_backend.h"
#include "nn/mlp.h"
#include "obs/telemetry.h"
#include "obs/trace.h"

namespace apa::nn {

struct EpochStats {
  double mean_loss = 0;
  double seconds = 0;      ///< wall time spent in train_step calls
  index_t steps = 0;
  /// Trailing samples skipped by the fixed-batch methodology (see header).
  index_t dropped_samples = 0;
  /// True when the model's fast backend is a GuardedBackend; `guard` then
  /// holds that backend's activity during this epoch (delta, robust to the
  /// guard loop swapping the backend mid-epoch on de-risk).
  bool guarded = false;
  GuardStats guard;
  /// Per-phase time breakdown accumulated by APA_TRACE_SCOPE spans during the
  /// epoch (delta of obs::phase_totals). Empty while obs is disabled.
  std::vector<obs::PhaseTotal> phases;
};

/// Divergence-protection policy for train_epoch. Default-constructed options
/// reproduce the unguarded loop exactly (zero overhead). The divergence rule
/// itself — spike factor, EWMA decay, de-risk ladder — is fixed, shared with
/// the data-parallel trainer, and documented in nn/divergence.h.
struct TrainGuardOptions {
  bool enabled = false;
  /// Steps between automatic checkpoints (one is always written before the
  /// first step of the epoch when enabled).
  index_t checkpoint_every = 50;
  /// Accepted steps before a loss spike counts as divergence; a non-finite
  /// loss always does. Restarts after every rollback.
  index_t warmup_steps = 5;
  /// Recovery budget for the epoch; exceeding it throws
  /// ApaError{kDiverged}. Each recovery rolls the weights back to the last
  /// auto-checkpoint and de-risks the fast backend one rung.
  int max_recoveries = 3;
  /// Auto-checkpoint location; empty derives a collision-safe path in the
  /// system temp directory, removed when the epoch returns or throws.
  std::string checkpoint_path;
  /// Optional JSONL sink: the guarded loop emits one "step" record per
  /// training step and a "rollback" record per recovery. Not owned; must
  /// outlive the epoch. nullptr (default) emits nothing.
  obs::TelemetrySink* telemetry = nullptr;
};

/// What the guard actually did during an epoch — exposed for tests, logging,
/// and callers that want to alert on degraded runs.
struct TrainGuardReport {
  int recoveries = 0;        ///< rollbacks performed
  int lambda_shrinks = 0;    ///< recoveries resolved by shrinking lambda
  bool fell_back_to_classical = false;
  double final_lambda = 1.0; ///< fast backend's lambda after the epoch
  index_t checkpoints_written = 0;
};

/// One pass over `dataset` in batches of `batch` (trailing partial batch is
/// dropped, see EpochStats::dropped_samples). Shuffles first when `rng` is
/// non-null. With `guard.enabled` the loop also detects divergence and rolls
/// back: the weights are restored from the last auto-checkpoint and training
/// continues at the current batch with a de-risked backend; after
/// `guard.max_recoveries` recoveries the next divergence throws
/// ApaError{kDiverged}. `report` (optional) receives what happened.
EpochStats train_epoch(Mlp& mlp, data::Dataset& dataset, index_t batch, Rng* rng,
                       const TrainGuardOptions& guard = {},
                       TrainGuardReport* report = nullptr);

/// Classification accuracy over the dataset, evaluated in batches.
[[nodiscard]] double evaluate_accuracy(const Mlp& mlp, const data::Dataset& dataset,
                                       index_t batch = 512);

/// CNN variants of the above — identical batching methodology, guard
/// semantics, and rollback contract (the CNN checkpoint carries conv filters,
/// dense layers, and every momentum buffer, so a recovery is a bit-exact
/// rewind). Cnn is taken non-const throughout because its forward pass stores
/// pooling argmax state.
EpochStats train_epoch(Cnn& cnn, data::Dataset& dataset, index_t batch, Rng* rng,
                       const TrainGuardOptions& guard = {},
                       TrainGuardReport* report = nullptr);
[[nodiscard]] double evaluate_accuracy(Cnn& cnn, const data::Dataset& dataset,
                                       index_t batch = 512);

/// Appends one "epoch" JSONL record to `sink`: loss/time/step counts, the
/// embedded per-epoch GuardStats when the epoch was guarded, the per-phase
/// time breakdown, and (when provided) evaluation accuracy and the guard
/// loop's TrainGuardReport.
void append_epoch_record(obs::TelemetrySink& sink, int epoch,
                         const EpochStats& stats, double accuracy = -1.0,
                         const TrainGuardReport* report = nullptr);

}  // namespace apa::nn
