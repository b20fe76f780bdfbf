#include "dist/trainer.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <map>
#include <memory>
#include <thread>
#include <utility>

#include "dist/checkpoint.h"
#include "dist/control.h"
#include "dist/shard.h"
#include "dist/transport.h"
#include "nn/checkpoint.h"
#include "nn/divergence.h"
#include "obs/flight.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "support/check.h"
#include "support/thread_annotations.h"

namespace apa::dist {
namespace {

// Barrier tag spaces (disjoint so no two distinct rendezvous can collide).
constexpr std::uint64_t kTagCkptShards = std::uint64_t{1} << 60;
constexpr std::uint64_t kTagCkptManifest = std::uint64_t{2} << 60;
constexpr std::uint64_t kTagRewindVerify = std::uint64_t{3} << 60;
constexpr std::uint64_t kTagClockSync = std::uint64_t{4} << 60;

index_t flat_grad_size(const nn::Mlp& model) {
  index_t total = 0;
  for (index_t l = 0; l < model.num_dense_layers(); ++l) {
    total += model.layer(l).weight_grad().size();
    total += model.layer(l).bias_grad().size();
  }
  return total;
}

void flatten_grads(const nn::Mlp& model, std::vector<float>& flat) {
  std::size_t pos = 0;
  for (index_t l = 0; l < model.num_dense_layers(); ++l) {
    const auto& layer = model.layer(l);
    const auto wn = static_cast<std::size_t>(layer.weight_grad().size());
    std::memcpy(flat.data() + pos, layer.weight_grad().data(),
                wn * sizeof(float));
    pos += wn;
    const auto bn = static_cast<std::size_t>(layer.bias_grad().size());
    std::memcpy(flat.data() + pos, layer.bias_grad().data(), bn * sizeof(float));
    pos += bn;
  }
}

void scatter_grads(nn::Mlp& model, const std::vector<float>& flat) {
  std::size_t pos = 0;
  for (index_t l = 0; l < model.num_dense_layers(); ++l) {
    auto& layer = model.layer(l);
    const auto wn = static_cast<std::size_t>(layer.weight_grad().size());
    std::memcpy(layer.mutable_weight_grad().data(), flat.data() + pos,
                wn * sizeof(float));
    pos += wn;
    const auto bn = static_cast<std::size_t>(layer.bias_grad().size());
    std::memcpy(layer.mutable_bias_grad().data(), flat.data() + pos,
                bn * sizeof(float));
    pos += bn;
  }
}

/// Per-worker outcome, written only by its owning thread and read by the main
/// thread after join.
struct WorkerResult {
  bool completed = false;
  index_t steps = 0;
  double loss_sum = 0;
  int rollbacks = 0;
  int checkpoint_fallbacks = 0;
  bool rollbacks_bit_exact = true;
  index_t checkpoints_written = 0;
  index_t final_checkpoint_step = -1;
  std::uint64_t final_checksum = 0;
  std::int64_t prefetch_hits = 0;
  std::int64_t prefetch_misses = 0;
  std::int64_t resend_requests = 0;
  std::int64_t resends_served = 0;
  std::int64_t checksum_failures = 0;
  std::int64_t retries = 0;
  int lambda_shrinks = 0;
  bool fell_back_to_classical = false;
};

struct DistContext {
  DistContext(const DistTrainOptions& options_in,
              const data::Dataset& dataset_in, index_t steps_in,
              FaultState* fault_state)
      : options(options_in),
        dataset(dataset_in),
        steps_per_epoch(steps_in),
        transport(options_in.workers, options_in.faults, fault_state),
        control(options_in.workers, options_in.heartbeat_timeout_s),
        faults_fired(fault_state) {
    checksum_slots.reserve(static_cast<std::size_t>(options_in.workers));
    for (int r = 0; r < options_in.workers; ++r) {
      checksum_slots.push_back(
          std::make_unique<std::atomic<std::uint64_t>>(0));
    }
  }

  const DistTrainOptions& options;
  const data::Dataset& dataset;
  const index_t steps_per_epoch;
  LocalTransport transport;
  ControlBlock control;
  FaultState* faults_fired;

  Mutex ckpt_mu;
  std::map<std::pair<index_t, int>, ShardInfo> ckpt_shards
      APAMM_GUARDED_BY(ckpt_mu);

  std::vector<std::unique_ptr<std::atomic<std::uint64_t>>> checksum_slots;
};

class Worker {
 public:
  Worker(DistContext& ctx, int rank, nn::Mlp model, WorkerResult& result)
      : ctx_(ctx),
        rank_(rank),
        model_(std::move(model)),
        result_(result),
        guard_(ctx.options.warmup_steps, ctx.options.max_rollbacks),
        sink_(ctx.options.rank_telemetry ? ctx.options.rank_telemetry(rank)
                                         : nullptr),
        loader_(&ctx.dataset, ctx.options.batch, ctx.options.seed),
        reducer_(rank, &ctx.transport, &ctx.control, ctx.options.collective,
                 ctx.options.seed ^ (0x517cc1b727220a95ULL *
                                     static_cast<std::uint64_t>(rank + 1))) {}

  void run() {
    try {
      run_impl();
    } catch (const ApaError& e) {
      // First failure poisons the run; peers unwind via check_abort. The
      // main thread rethrows after join.
      ctx_.control.abort(e.code(), e.what());
    }
  }

 private:
  const DistTrainOptions& opts() const { return ctx_.options; }

  void resync_shard() {
    std::vector<int> live;
    shard_membership_ = ctx_.control.live_snapshot(&live);
    loader_.reshard(shard_for(ctx_.dataset.size(), live, rank_));
  }

  /// Clock-alignment handshake: every worker samples its steady clock while
  /// all ranks sit at the same barrier, so the pairwise mark skew is bounded
  /// by the barrier release jitter. The mark is exported with the per-rank
  /// trace (clockSync) and used by tools/obs/trace_merge to shift all worker
  /// timelines onto one axis. Skipped when tracing is off; a failed barrier
  /// (abort during startup) just leaves the mark unset.
  void clock_sync() {
    if (!obs::tracing()) return;
    const BarrierResult br =
        ctx_.control.barrier(rank_, kTagClockSync, opts().barrier_timeout_s,
                             /*rewind_interrupts=*/false);
    if (br == BarrierResult::kOk) obs::clock_mark(rank_);
  }

  /// Distributed-consistent rollback: propose, two-phase barrier, restore,
  /// verify bit-exactness. `cause` is this worker's divergence verdict, or
  /// "requested" when it joins a round another worker started. Returns the
  /// step training resumes from.
  index_t do_rewind(index_t at_step, const char* cause) {
    APA_TRACE_SCOPE("dist.rewind");
    index_t restorable = -1;
    try {
      restorable =
          find_latest_consistent_step(opts().checkpoint_dir, at_step);
    } catch (const ApaError&) {
      restorable = -1;
    }
    ctx_.control.propose_rewind(rank_, restorable);
    const RewindDecision decision = ctx_.control.join_rewind(
        rank_, opts().barrier_timeout_s, [&](index_t min_proposed) {
          RewindDecision d;
          APA_CHECK_CODE(min_proposed >= 0, ErrorCode::kDiverged,
                         "rewind: no worker has a consistent checkpoint");
          // Re-validate on disk at decision time — a shard may have rotted
          // between proposal and decision.
          d.step = find_latest_consistent_step(opts().checkpoint_dir,
                                               min_proposed);
          APA_CHECK_CODE(d.step >= 0, ErrorCode::kDiverged,
                         "rewind: checkpoints became inconsistent during the "
                         "decision");
          d.fallback_used = d.step < min_proposed;
          return d;
        });
    load_sharded_checkpoint(opts().checkpoint_dir, decision.step, model_);
    // Every path into a rewind passes here, so every worker restarts its
    // loss EWMA identically.
    guard_.rewound();
    if (decision.step < last_checkpoint_step_) ++result_.checkpoint_fallbacks;
    APA_COUNTER_INC("dist.rollbacks");
    obs::flight_note("dist.rewind", static_cast<std::int64_t>(at_step),
                     static_cast<std::int64_t>(decision.step));

    // Bit-exactness proof: every live worker publishes its post-restore
    // parameter checksum; after the barrier all live slots must agree.
    ctx_.checksum_slots[static_cast<std::size_t>(rank_)]->store(
        model_checksum(model_), std::memory_order_release);
    const BarrierResult br = ctx_.control.barrier(
        rank_, kTagRewindVerify + static_cast<std::uint64_t>(guard_.rollbacks()),
        opts().barrier_timeout_s, /*rewind_interrupts=*/false);
    if (br == BarrierResult::kAborted) ctx_.control.check_abort();
    const std::uint64_t mine =
        ctx_.checksum_slots[static_cast<std::size_t>(rank_)]->load(
            std::memory_order_acquire);
    for (const int peer : ctx_.control.live_ranks()) {
      const std::uint64_t theirs =
          ctx_.checksum_slots[static_cast<std::size_t>(peer)]->load(
              std::memory_order_acquire);
      if (theirs != mine) {
        result_.rollbacks_bit_exact = false;
        ctx_.control.abort(ErrorCode::kDiverged,
                           "rollback restore is not bit-exact across workers");
        ctx_.control.check_abort();
      }
    }
    // Postmortem artifacts: the coordinator preserves the pre-rewind flight
    // rings (peers coalesce on the dump flag), and every worker appends its
    // own "dist_rewind" record to its per-rank sink.
    if (rank_ == ctx_.control.coordinator()) obs::flight_dump("rewind");
    if (sink_ != nullptr) {
      obs::JsonRecord record;
      record.set("type", "dist_rewind");
      record.set("rank", rank_);
      record.set("from_step", static_cast<long long>(at_step));
      record.set("to_step", static_cast<long long>(decision.step));
      record.set("cause", cause);
      record.set("round", guard_.rollbacks());
      record.set("fallback_used", decision.fallback_used);
      sink_->write(record);
    }
    // Replay re-executes [decision.step, at_step) deterministically.
    return decision.step;
  }

  /// Sharded checkpoint write with the coordinator commit. True once the
  /// manifest round completed (or plausibly completed); false when the caller
  /// must re-enter the main loop (rewind pending, expelled, abort).
  bool write_checkpoint(index_t step) {
    APA_TRACE_SCOPE("dist.checkpoint");
    for (int attempt = 0; attempt <= opts().workers; ++attempt) {
      if (ctx_.control.rewind_pending() || ctx_.control.aborted()) return false;
      std::vector<int> live;
      const std::uint64_t layout_membership = ctx_.control.live_snapshot(&live);
      const auto self = std::find(live.begin(), live.end(), rank_);
      if (self == live.end()) return false;
      const int n = static_cast<int>(live.size());
      const int pos = static_cast<int>(self - live.begin());

      const ShardInfo info = write_checkpoint_shard(opts().checkpoint_dir, step,
                                                    pos, n, model_);
      if (!shard_fault_fired_ &&
          opts().faults.corrupts_shard(rank_, step)) {
        corrupt_shard_byte(opts().checkpoint_dir, step, pos);
        shard_fault_fired_ = true;
        ctx_.faults_fired->shards_corrupted.fetch_add(
            1, std::memory_order_relaxed);
        APA_COUNTER_INC("dist.fault.shard_corrupted");
      }
      {
        MutexLock lock(ctx_.ckpt_mu);
        ctx_.ckpt_shards[{step, pos}] = info;
      }

      // Anchor both barriers to the membership the shard layout was computed
      // under: a death anywhere between the snapshot and the commit reports
      // kMembershipChanged and redoes the round with the survivor layout.
      BarrierResult br = ctx_.control.barrier(
          rank_, kTagCkptShards + static_cast<std::uint64_t>(step),
          opts().barrier_timeout_s, /*rewind_interrupts=*/true,
          layout_membership);
      if (br == BarrierResult::kRewind || br == BarrierResult::kAborted) {
        return false;
      }
      if (br == BarrierResult::kMembershipChanged) continue;  // re-shard set

      if (rank_ == ctx_.control.coordinator()) {
        std::vector<ShardInfo> shards;
        {
          MutexLock lock(ctx_.ckpt_mu);
          for (int k = 0; k < n; ++k) shards.push_back(ctx_.ckpt_shards.at({step, k}));
        }
        write_checkpoint_manifest(opts().checkpoint_dir, step, shards,
                                  model_checksum(model_));
        prune_checkpoints(opts().checkpoint_dir, opts().keep_checkpoints);
      }
      br = ctx_.control.barrier(
          rank_, kTagCkptManifest + static_cast<std::uint64_t>(step),
          opts().barrier_timeout_s, /*rewind_interrupts=*/true,
          layout_membership);
      if (br == BarrierResult::kMembershipChanged) continue;  // redo, see header
      if (br == BarrierResult::kAborted) return false;
      // kOk, or kRewind after the manifest round (commit state is validated
      // at rewind time either way).
      ++result_.checkpoints_written;
      last_checkpoint_step_ = step;
      APA_COUNTER_INC("dist.checkpoints_written");
      obs::flight_note("dist.checkpoint", static_cast<std::int64_t>(step),
                       result_.checkpoints_written);
      return true;
    }
    return false;
  }

  void run_impl() {
    obs::set_thread_rank(rank_);
    ctx_.control.heartbeat(rank_);
    resync_shard();
    clock_sync();

    const index_t grad_size = flat_grad_size(model_);
    std::vector<float> flat(static_cast<std::size_t>(grad_size) + 1);
    std::vector<float> snapshot;

    index_t step = 0;
    while (step < ctx_.steps_per_epoch) {
      ctx_.control.check_abort();
      if (!ctx_.control.is_alive(rank_)) return;  // expelled: bow out quietly
      ctx_.control.heartbeat(rank_);

      if (!kill_fault_fired_ && opts().faults.kills(rank_, step)) {
        // Simulated crash: stop participating with no goodbye. Peers must
        // detect the death from the stale heartbeat / collective timeout.
        kill_fault_fired_ = true;
        ctx_.faults_fired->workers_killed.fetch_add(1,
                                                    std::memory_order_relaxed);
        APA_COUNTER_INC("dist.fault.worker_killed");
        obs::flight_note("dist.kill_fault", rank_,
                         static_cast<std::int64_t>(step));
        obs::flight_dump("worker_killed");
        return;
      }

      if (ctx_.control.rewind_pending()) {
        step = do_rewind(step, "requested");
        continue;
      }
      if (ctx_.control.membership_version() != shard_membership_) {
        resync_shard();
      }

      if (step % opts().checkpoint_every == 0 && last_checkpoint_step_ != step) {
        if (!write_checkpoint(step)) continue;
      }

      APA_TRACE_SCOPE("dist.step");
      const Batch batch = loader_.batch_at(step);
      const double local_loss = model_.forward_backward(
          batch.images.view().as_const(), batch.labels);
      if (!grad_fault_fired_ && opts().faults.corrupts_grad(rank_, step)) {
        auto& grad = model_.layer(0).mutable_weight_grad();
        std::fill(grad.data(), grad.data() + grad.size(), 1e30f);
        grad_fault_fired_ = true;
        ctx_.faults_fired->grads_corrupted.fetch_add(1,
                                                     std::memory_order_relaxed);
        APA_COUNTER_INC("dist.fault.grad_corrupted");
      }
      flatten_grads(model_, flat);
      flat[static_cast<std::size_t>(grad_size)] =
          static_cast<float>(local_loss);
      snapshot = flat;

      CollectiveStatus status;
      while (true) {
        status = reducer_.allreduce_mean(flat, step);
        if (status != CollectiveStatus::kPeerFailure) break;
        // A peer died mid-collective: re-form the ring over the survivors and
        // reduce the same local contribution again (re-shard and continue).
        if (!ctx_.control.is_alive(rank_)) return;
        resync_shard();
        flat = snapshot;
        APA_COUNTER_INC("dist.collective.reformed");
      }
      if (status == CollectiveStatus::kAborted) {
        ctx_.control.check_abort();
        if (!ctx_.control.is_alive(rank_)) return;
        APA_FAIL(ErrorCode::kDiverged, "collective aborted without a cause");
      }
      if (status == CollectiveStatus::kRewindRequested) {
        step = do_rewind(step, "requested");
        continue;
      }

      // Symmetric divergence detection: every worker sees the exact same
      // reduced bytes, so every worker reaches the same verdict with no
      // extra communication.
      const double reduced_loss =
          flat[static_cast<std::size_t>(grad_size)];
      const nn::Divergence verdict = guard_.check(
          reduced_loss, {flat.data(), static_cast<std::size_t>(grad_size)});
      if (verdict != nn::Divergence::kNone) {
        APA_COUNTER_INC("dist.divergence_detected");
        obs::flight_note("dist.divergence", static_cast<std::int64_t>(step),
                         guard_.rollbacks() + 1);
        // De-risk before replaying. Every worker that reaches this verdict
        // takes the same rung (identical state => identical rung); one that
        // joins the round at another's request ("requested") takes none.
        guard_.recover(model_, verdict, step, reduced_loss);
        step = do_rewind(step, nn::divergence_name(verdict));
        continue;
      }

      scatter_grads(model_, flat);
      model_.apply_update();
      guard_.accept(reduced_loss);
      result_.loss_sum += reduced_loss;
      ++result_.steps;
      ++step;
    }

    // Epilogue: commit the final model state and fingerprint it.
    if (ctx_.control.is_alive(rank_)) {
      if (write_checkpoint(ctx_.steps_per_epoch)) {
        result_.final_checkpoint_step = ctx_.steps_per_epoch;
      }
      result_.final_checksum = model_checksum(model_);
      result_.completed = true;
    }
    collect_stats();
  }

  void collect_stats() {
    result_.prefetch_hits = loader_.prefetch_hits();
    result_.prefetch_misses = loader_.prefetch_misses();
    result_.resend_requests = reducer_.resend_requests();
    result_.resends_served = reducer_.resends_served();
    result_.checksum_failures = reducer_.checksum_failures();
    result_.retries = reducer_.retries();
    result_.rollbacks = guard_.rollbacks();
    result_.lambda_shrinks = guard_.lambda_shrinks();
    result_.fell_back_to_classical = guard_.fell_back_to_classical();
    if (sink_ != nullptr) {
      obs::JsonRecord record;
      record.set("type", "dist_worker");
      record.set("rank", rank_);
      record.set("completed", result_.completed);
      record.set("steps", static_cast<long long>(result_.steps));
      record.set("mean_loss",
                 result_.steps > 0
                     ? result_.loss_sum / static_cast<double>(result_.steps)
                     : 0.0);
      record.set("rollbacks", result_.rollbacks);
      record.set("checkpoint_fallbacks", result_.checkpoint_fallbacks);
      record.set("checkpoints_written",
                 static_cast<long long>(result_.checkpoints_written));
      record.set("resend_requests",
                 static_cast<long long>(result_.resend_requests));
      record.set("resends_served",
                 static_cast<long long>(result_.resends_served));
      record.set("checksum_failures",
                 static_cast<long long>(result_.checksum_failures));
      record.set("retries", static_cast<long long>(result_.retries));
      sink_->write(record);
    }
  }

  DistContext& ctx_;
  int rank_ = -1;
  nn::Mlp model_;
  WorkerResult& result_;
  nn::DivergenceGuard guard_;
  obs::TelemetrySink* sink_;  ///< per-rank JSONL sink (may be null; not owned)
  ShardLoader loader_;
  RingReducer reducer_;
  std::uint64_t shard_membership_ = 0;
  index_t last_checkpoint_step_ = -1;
  bool kill_fault_fired_ = false;
  bool grad_fault_fired_ = false;
  bool shard_fault_fired_ = false;
};

void append_dist_epoch_record(obs::TelemetrySink& sink,
                              const DistEpochStats& stats) {
  obs::JsonRecord record;
  record.set("type", "dist_epoch");
  record.set("mean_loss", stats.mean_loss);
  record.set("seconds", stats.seconds);
  record.set("steps", static_cast<long long>(stats.steps));
  record.set("initial_workers", stats.initial_workers);
  record.set("final_workers", stats.final_workers);
  record.set("worker_deaths", stats.worker_deaths);
  record.set("degraded_to_single", stats.degraded_to_single);
  record.set("rollbacks", stats.rollbacks);
  record.set("checkpoint_fallbacks", stats.checkpoint_fallbacks);
  record.set("rollbacks_bit_exact", stats.rollbacks_bit_exact);
  record.set("replicas_bit_identical", stats.replicas_bit_identical);
  record.set("checkpoints_written",
             static_cast<long long>(stats.checkpoints_written));
  record.set("final_checkpoint_step",
             static_cast<long long>(stats.final_checkpoint_step));
  record.set("messages_dropped",
             static_cast<long long>(stats.messages_dropped));
  record.set("messages_corrupted",
             static_cast<long long>(stats.messages_corrupted));
  record.set("checksum_failures",
             static_cast<long long>(stats.checksum_failures));
  record.set("resend_requests", static_cast<long long>(stats.resend_requests));
  record.set("resends_served", static_cast<long long>(stats.resends_served));
  record.set("retries", static_cast<long long>(stats.retries));
  record.set("prefetch_hits", static_cast<long long>(stats.prefetch_hits));
  record.set("prefetch_misses", static_cast<long long>(stats.prefetch_misses));
  record.set("lambda_shrinks", stats.lambda_shrinks);
  record.set("fell_back_to_classical", stats.fell_back_to_classical);
  sink.write(record);
}

}  // namespace

DistEpochStats train_data_parallel(
    const std::function<nn::Mlp()>& make_model, const data::Dataset& dataset,
    const DistTrainOptions& options) {
  APA_CHECK_CODE(options.workers >= 1, ErrorCode::kPrecondition,
                 "need at least one worker");
  APA_CHECK_CODE(options.batch >= 1, ErrorCode::kPrecondition,
                 "batch size must be positive");
  APA_CHECK_CODE(!options.checkpoint_dir.empty(), ErrorCode::kPrecondition,
                 "dist training requires a checkpoint directory");
  APA_CHECK_CODE(options.checkpoint_every >= 1, ErrorCode::kPrecondition,
                 "checkpoint_every must be positive");
  APA_CHECK_CODE(dataset.size() >= options.workers, ErrorCode::kPrecondition,
                 "fewer samples than workers");

  index_t steps = options.steps;
  if (steps <= 0) {
    steps = dataset.size() /
            (static_cast<index_t>(options.workers) * options.batch);
    steps = std::max<index_t>(steps, 1);
  }

  // Startup hygiene: remove temps torn off by a previous crash, in the root
  // and in every step directory.
  nn::cleanup_stale_checkpoint_temps(options.checkpoint_dir);
  for (const index_t old : list_checkpoint_steps(options.checkpoint_dir)) {
    nn::cleanup_stale_checkpoint_temps(
        step_dir_path(options.checkpoint_dir, old));
  }

  FaultState fault_state;
  DistContext ctx(options, dataset, steps, &fault_state);
  std::vector<WorkerResult> results(
      static_cast<std::size_t>(options.workers));

  const auto t0 = std::chrono::steady_clock::now();
  {
    std::vector<std::thread> threads;
    threads.reserve(static_cast<std::size_t>(options.workers));
    for (int rank = 0; rank < options.workers; ++rank) {
      threads.emplace_back([&ctx, &make_model, &results, rank] {
        Worker worker(ctx, rank, make_model(),
                      results[static_cast<std::size_t>(rank)]);
        worker.run();
      });
    }
    for (std::thread& t : threads) t.join();
  }
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();

  ctx.control.check_abort();  // rethrow the first worker failure, if any

  DistEpochStats stats;
  stats.seconds = seconds;
  stats.initial_workers = options.workers;
  stats.final_workers = ctx.control.live_count();
  stats.worker_deaths = options.workers - stats.final_workers;
  stats.degraded_to_single = options.workers > 1 && stats.final_workers == 1;

  const WorkerResult* lead = nullptr;
  for (const WorkerResult& r : results) {
    if (r.completed) {
      lead = &r;
      break;
    }
  }
  APA_CHECK_CODE(lead != nullptr, ErrorCode::kDiverged,
                 "no worker survived the epoch");
  stats.steps = lead->steps;
  stats.mean_loss = lead->steps > 0
                        ? lead->loss_sum / static_cast<double>(lead->steps)
                        : 0;
  stats.rollbacks = lead->rollbacks;
  stats.checkpoint_fallbacks = lead->checkpoint_fallbacks;
  stats.checkpoints_written = lead->checkpoints_written;
  stats.final_checkpoint_step = lead->final_checkpoint_step;
  stats.final_checksum = lead->final_checksum;
  stats.lambda_shrinks = lead->lambda_shrinks;
  stats.fell_back_to_classical = lead->fell_back_to_classical;

  for (const WorkerResult& r : results) {
    if (r.completed) {
      stats.rollbacks_bit_exact =
          stats.rollbacks_bit_exact && r.rollbacks_bit_exact;
      stats.replicas_bit_identical = stats.replicas_bit_identical &&
                                     r.final_checksum == lead->final_checksum;
    }
    stats.prefetch_hits += r.prefetch_hits;
    stats.prefetch_misses += r.prefetch_misses;
    stats.resend_requests += r.resend_requests;
    stats.resends_served += r.resends_served;
    stats.checksum_failures += r.checksum_failures;
    stats.retries += r.retries;
  }

  stats.messages_dropped =
      fault_state.messages_dropped.load(std::memory_order_relaxed);
  stats.messages_corrupted =
      fault_state.messages_corrupted.load(std::memory_order_relaxed);
  stats.faults_killed =
      fault_state.workers_killed.load(std::memory_order_relaxed);
  stats.faults_grad_corrupted =
      fault_state.grads_corrupted.load(std::memory_order_relaxed);
  stats.faults_shard_corrupted =
      fault_state.shards_corrupted.load(std::memory_order_relaxed);

  if (options.telemetry != nullptr) {
    append_dist_epoch_record(*options.telemetry, stats);
  }
  return stats;
}

}  // namespace apa::dist
