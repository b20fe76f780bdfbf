#pragma once
// Fault-tolerant data-parallel training.
//
// N worker threads each hold a full model replica built by the caller's
// factory (same config + seed => bit-identical init) and train over disjoint
// contiguous shards of the dataset. Every step:
//
//   batch   <- async prefetching ShardLoader (pure function of step+shard)
//   grads   <- model.forward_backward(batch)
//   mean    <- ring all-reduce over the live workers (plus the local loss as
//              one extra reduced element, so every worker sees the *global*
//              mean loss without extra messaging)
//   detect  <- the shared divergence rule (nn/divergence.h) over the reduced
//              bytes: non-finite or spiking loss, non-finite or exploding
//              gradient. Identical bytes => identical verdict on every
//              worker, no votes needed.
//   apply   <- scatter the mean into the grad buffers, apply_update()
//
// Because all replicas apply identical averaged gradient bytes, they stay
// bit-identical step after step — verified after every rollback by an
// all-to-all parameter-checksum exchange.
//
// Fault tolerance (see docs/ROBUSTNESS.md for the protocol):
//   * crash: heartbeat staleness or collective timeout marks the worker dead;
//     survivors re-shard the data and continue (degradation ladder
//     N -> N-1 -> ... -> 1; a single survivor is plain single-process SGD),
//   * divergence / corrupt reduction: two-phase rewind — every live worker
//     proposes the newest step it can restore, the coordinator validates the
//     min against the sharded checkpoints on disk (falling back past
//     corrupted steps), publishes K, everyone restores K bit-exactly,
//   * checkpoints: written every checkpoint_every steps as per-worker shards
//     with a coordinator manifest (dist/checkpoint.h), all commits atomic.

#include <cstdint>
#include <functional>
#include <string>

#include "data/dataset.h"
#include "dist/collective.h"
#include "dist/fault.h"
#include "nn/mlp.h"
#include "obs/telemetry.h"
#include "support/matrix.h"

namespace apa::dist {

struct DistTrainOptions {
  int workers = 2;
  index_t batch = 64;  ///< per-worker batch size
  /// Steps in this epoch; 0 derives dataset.size() / (workers * batch).
  index_t steps = 0;

  /// Sharded-checkpoint directory (required) and cadence. A checkpoint is
  /// written at the top of step 0, every `checkpoint_every` steps after, and
  /// once more after the last step (the final model state, step == `steps`).
  std::string checkpoint_dir;
  index_t checkpoint_every = 50;
  int keep_checkpoints = 3;

  // Divergence detection over the reduced bytes: the rule, its constants and
  // the de-risk ladder are shared with the single-process trainer
  // (nn/divergence.h); these two knobs are TrainGuardOptions' warmup_steps
  // and max_recoveries.
  /// Accepted steps before a loss spike counts; restarts after every rewind.
  index_t warmup_steps = 5;
  /// Rewind rounds allowed before a detected divergence aborts the run with
  /// ApaError{kDiverged}; rounds joined at another worker's request count.
  int max_rollbacks = 3;

  // Fault-tolerance knobs.
  CollectiveOptions collective;
  double heartbeat_timeout_s = 0.75;
  double barrier_timeout_s = 30.0;
  DistFaultPolicy faults;

  /// Shared schedule seed: batch draws and retry jitter derive from it.
  std::uint64_t seed = 1234;
  /// Optional JSONL sink (not owned); the surviving coordinator appends one
  /// "dist_epoch" record.
  obs::TelemetrySink* telemetry = nullptr;
  /// Optional per-rank sinks (not owned; may return nullptr for a rank):
  /// each worker appends its own "dist_rewind" and end-of-epoch "dist_worker"
  /// records there, so N workers never interleave on one JSONL file.
  /// ObsSession::rank_telemetry is the intended source (docs/OBSERVABILITY.md).
  std::function<obs::TelemetrySink*(int rank)> rank_telemetry;
};

struct DistEpochStats {
  double mean_loss = 0;
  double seconds = 0;
  index_t steps = 0;  ///< successful (post-reduce) steps on the survivors

  int initial_workers = 0;
  int final_workers = 0;
  int worker_deaths = 0;
  bool degraded_to_single = false;

  int rollbacks = 0;             ///< completed rewind rounds
  int checkpoint_fallbacks = 0;  ///< rewinds that skipped a corrupt step
  bool rollbacks_bit_exact = true;  ///< every restore checksum-matched

  index_t checkpoints_written = 0;
  index_t final_checkpoint_step = -1;  ///< load this to get the trained model

  std::uint64_t final_checksum = 0;   ///< parameter fingerprint at exit
  bool replicas_bit_identical = true; ///< all survivors ended with equal bytes

  // Transport / collective repair activity.
  std::int64_t messages_dropped = 0;
  std::int64_t messages_corrupted = 0;
  std::int64_t checksum_failures = 0;
  std::int64_t resend_requests = 0;
  std::int64_t resends_served = 0;
  std::int64_t retries = 0;

  // Fault injection tally (what actually fired).
  int faults_killed = 0;
  int faults_grad_corrupted = 0;
  int faults_shard_corrupted = 0;

  std::int64_t prefetch_hits = 0;
  std::int64_t prefetch_misses = 0;

  int lambda_shrinks = 0;
  bool fell_back_to_classical = false;
};

/// Runs one data-parallel epoch. `make_model` is called once per worker and
/// must produce bit-identical replicas (same MlpConfig incl. seed). The
/// trained parameters are on disk at `final_checkpoint_step` — load them with
/// load_sharded_checkpoint. Throws ApaError when the run aborts (rollback
/// budget exhausted, no consistent checkpoint, barrier wedged).
DistEpochStats train_data_parallel(
    const std::function<nn::Mlp()>& make_model, const data::Dataset& dataset,
    const DistTrainOptions& options);

}  // namespace apa::dist
