#pragma once
// Self-tuning backend router.
//
// Backend, lambda, recursion depth and strategy were chosen statically at
// every call site, yet the bench data (BENCH_prepack.json, BENCH_router.json)
// shows each choice flips winners across (shape, batch) regimes.
// TunedBackend learns the choice per logical <M,K,N> shape online:
//
//   * explore — the first calls at a new shape round-robin a bounded
//     candidate set (classical gemm, plus each configured APA rule at one
//     and two recursive steps), timing each candidate while still
//     serving the caller a correct product;
//   * exploit — once every candidate has `measure_reps` samples the best
//     median-free minimum wins, the decision is committed to the choice
//     table, and (when a cache path is configured) persisted via the
//     versioned, checksummed tuning cache so the warmup is paid once per
//     fleet, not once per process;
//   * guard — every APA candidate runs through a GuardedBackend, so explore
//     traffic is Freivalds-verified with exact-gemm fallback. A shape whose
//     trips exceed the quarantine threshold is never routed (or re-selected)
//     to an APA rule until the quarantine is cleared; the router records the
//     override and serves classical.
//
// TunedBackend is a MatmulBackend, so DenseLayer / ConvLayer / the trainers
// route through it unchanged, fusion epilogues included.
// With tuning disabled (or below backend.min_dim_for_fast) every call falls
// through to the configured static backend — exactly today's hard-coded
// behavior. The router is the one place that chooses between algorithms; an
// optional calibrated cost model (RouterOptions::cost) acts as its prior.
//
// Determinism: the candidate order is fixed, sample slots are assigned under
// the state lock, and ties break to the lowest candidate index — so a warm
// process (decisions from the cache) routes bit-identically, and a cold run
// with a deterministic measure_override reproduces its table exactly.

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "nn/guarded_backend.h"
#include "obs/telemetry.h"
#include "support/thread_annotations.h"
#include "tune/cache.h"
#include "tune/calibrate.h"

namespace apa::tune {

/// One point of the bounded per-shape search space.
struct RouterCandidate {
  std::string algorithm = "classical";
  int steps = 1;
  core::Strategy strategy = core::Strategy::kSequential;
  double lambda = 0.0;  ///< 0 = the rule's auto-optimal lambda
};

struct RouterOptions {
  /// APA rules the router may arbitrate (candidates are derived per shape);
  /// empty leaves classical gemm as the only candidate.
  std::vector<std::string> algorithms = {"bini322"};
  /// The static choice used when tuning is disabled — today's hard-coded
  /// call-site behavior. Empty selects the first entry of `algorithms`
  /// (falling back to "classical" when that is empty too).
  std::string static_algorithm;
  /// Timed samples per candidate per burst; every candidate runs two bursts
  /// (forward then reversed ladder order), so a decision commits after
  /// 2 * measure_reps recorded samples per candidate.
  int measure_reps = 2;
  /// Untimed per-candidate warm-up calls run before the timed samples. First
  /// calls pay one-off costs (pool fills, page faults) that
  /// steady-state traffic never sees; measuring them biases the arbitration
  /// toward small-working-set candidates.
  int warmup_reps = 1;
  /// Commit the earliest (simplest) candidate whose best sample is within
  /// this relative margin of the overall minimum, instead of the raw argmin.
  /// Candidates are ordered classical first, then per rule by recursion
  /// depth, so a deeper/approximate variant must win by more than the noise
  /// floor to displace a simpler one.
  double hysteresis = 0.03;
  /// false = no exploration, no cache: behave as the static backend.
  bool enabled = true;
  /// Tuning-cache file; empty disables persistence.
  std::string cache_path;
  /// Persist the table every time a new decision commits.
  bool autosave = true;
  /// CPU signature override for tests; empty uses cpu_signature().
  std::string cpu;
  /// Base backend policy shared by every candidate backend. Shapes with
  /// min(m, k, n) below backend.min_dim_for_fast bypass tuning and run the
  /// static backend; two-step candidates need min(m, k, n) at twice that.
  nn::BackendOptions backend;
  /// Explore prior (paper section 2.4). When valid(), an APA candidate whose
  /// predicted one-step time is no better than classical gemm's is pruned
  /// from the ladder unmeasured. The default (invalid) calibration prunes
  /// nothing.
  CostCalibration cost;
  /// Guard policy applied to every APA candidate (fault injection included).
  nn::GuardPolicy guard;
  /// Consult the numerical-health monitor (obs::health()) on every decided
  /// APA call and derate a drifting shape to classical gemm until its flag
  /// clears. Softer than quarantine: no trip is required and the committed
  /// decision stays in the table. No-op while obs is disabled.
  bool consult_health = true;
  /// Decision/telemetry stream (nullable). Records one "route_decision" line
  /// per committed choice and one "route_cache" line per load attempt.
  obs::TelemetrySink* telemetry = nullptr;
  /// Test hook: deterministic cost in seconds for (candidate, m, k, n),
  /// replacing the wall clock while still serving real products. Makes cold
  /// tuning reproducible in tests and benches.
  std::function<double(const RouterCandidate&, index_t, index_t, index_t)>
      measure_override;
};

/// Counters mirrored outside the obs registry so they stay queryable while obs
/// is disabled (tests assert on them; obs counters feed telemetry).
struct RouterStats {
  std::uint64_t decided_calls = 0;     ///< served by a committed decision
  std::uint64_t explore_samples = 0;   ///< timed candidate executions
  std::uint64_t decisions = 0;         ///< choices committed this process
  std::uint64_t static_calls = 0;      ///< below the cutoff or tuning disabled
  std::uint64_t quarantine_overrides = 0;  ///< APA choice served classically
  std::uint64_t health_overrides = 0;  ///< APA choice derated by drift flag
  std::uint64_t warm_entries = 0;      ///< decisions loaded from the cache
  std::uint64_t cache_saves = 0;
  CacheStatus cache_status = CacheStatus::kMissing;
};

class TunedBackend : public nn::MatmulBackend {
 public:
  explicit TunedBackend(RouterOptions options = {});

  /// Routes one product: static fallback, committed decision, or an explore
  /// sample. Always writes a correct C (APA candidates are guarded).
  void matmul_ex(MatrixView<const float> a, MatrixView<const float> b,
                 MatrixView<float> c, bool transpose_a, bool transpose_b,
                 const nn::MatmulFusion& fusion) const override;

  [[nodiscard]] RouterStats stats() const APAMM_EXCLUDES(state_->mu);
  [[nodiscard]] const RouterOptions& router_options() const { return options_; }
  /// Snapshot of every committed decision (warm-loaded ones included).
  [[nodiscard]] ChoiceTable choice_table() const APAMM_EXCLUDES(state_->mu);
  [[nodiscard]] bool is_decided(index_t m, index_t k, index_t n) const
      APAMM_EXCLUDES(state_->mu);
  /// The choice the next call at (m, k, n) would run, after the quarantine
  /// override is applied; nullopt while the shape is still exploring.
  [[nodiscard]] std::optional<TunedChoice> route_for(index_t m, index_t k,
                                                     index_t n) const
      APAMM_EXCLUDES(state_->mu);

  /// Persists the current table; empty path uses options.cache_path. Returns
  /// false (without throwing) when no path is configured or the write fails.
  bool save(const std::string& path = "") const
      APAMM_EXCLUDES(state_->save_mu, state_->mu);

  /// True when (m, k, n) is quarantined on any APA candidate's guard.
  [[nodiscard]] bool is_quarantined(index_t m, index_t k, index_t n) const
      APAMM_EXCLUDES(state_->backends_mu);
  /// Lifts the quarantine on every candidate guard, making the shape
  /// re-selectable for APA (operator action after a root cause is fixed).
  void clear_quarantine(index_t m, index_t k, index_t n) const
      APAMM_EXCLUDES(state_->backends_mu);
  /// Aggregated guard stats across every APA candidate backend.
  [[nodiscard]] nn::GuardStats guard_stats() const
      APAMM_EXCLUDES(state_->backends_mu);

 private:
  /// Per-shape exploration ledger. Sample slots are assigned in per-candidate
  /// bursts (each candidate runs its warm-ups then all its timed samples
  /// back-to-back) under the state lock, so the schedule is deterministic for
  /// serial callers and exact-count for concurrent ones. Bursts, not
  /// round-robin: interleaving candidates evicts the pools/cache lines a
  /// large-working-set candidate relies on, which biases the timings toward
  /// small-footprint candidates in a way steady-state traffic never would.
  /// The burst ladder runs twice — forward, then in reversed candidate order —
  /// and each candidate keeps its minimum across both bursts, so monotone
  /// machine drift (turbo decay, thermal throttle) cancels to first order
  /// instead of taxing whichever candidates happen to run last.
  /// Entries live inside State::entries and are only reached through
  /// references taken under State::mu, so the fields carry no per-field
  /// annotations of their own.
  struct Entry {
    std::vector<RouterCandidate> candidates;
    /// APA candidates the cost prior skipped, with their predicted seconds.
    std::vector<std::pair<RouterCandidate, double>> pruned;
    std::vector<double> best_seconds;  ///< min over recorded samples, else +inf
    std::vector<std::uint64_t> samples;
    int next_slot = 0;
    int recorded = 0;
    bool decided = false;
    TunedChoice decision;

    /// Slots for `reps` calls per candidate, counting both passes of the
    /// forward/reversed burst ladder.
    [[nodiscard]] int total_slots(int reps) const {
      return 2 * static_cast<int>(candidates.size()) * reps;
    }
    /// Best candidate so far (lowest index on ties); classical fallback slot
    /// 0 when nothing is recorded yet.
    [[nodiscard]] std::size_t best_index() const {
      std::size_t best = 0;
      for (std::size_t i = 1; i < best_seconds.size(); ++i) {
        if (best_seconds[i] < best_seconds[best]) best = i;
      }
      return best;
    }
  };

  /// Lock order (outermost first): save_mu -> mu -> backends_mu. matmul_ex
  /// holds mu while commit_decision consults the candidate guards
  /// (backends_mu); save() snapshots the table (mu) under save_mu. The
  /// ACQUIRED_AFTER edges let -Wthread-safety-beta verify the ordering.
  struct State {
    mutable Mutex mu;  ///< entries + stats
    std::map<ShapeKey, Entry> entries APAMM_GUARDED_BY(mu);
    RouterStats stats APAMM_GUARDED_BY(mu);

    mutable Mutex backends_mu APAMM_ACQUIRED_AFTER(mu);
    std::map<std::string, std::unique_ptr<nn::MatmulBackend>> backends
        APAMM_GUARDED_BY(backends_mu);

    // apamm-check-allow(R3): guards the on-disk tuning-cache file (serializes
    // whole save() transactions), not an in-memory field.
    mutable Mutex save_mu APAMM_ACQUIRED_BEFORE(mu);
  };

  /// The ladder for (m, k, n); APA candidates the cost prior rules out go
  /// to `pruned` instead.
  [[nodiscard]] std::vector<RouterCandidate> candidates_for(
      index_t m, index_t k, index_t n,
      std::vector<std::pair<RouterCandidate, double>>& pruned) const
      APAMM_EXCLUDES(state_->backends_mu);
  [[nodiscard]] const nn::MatmulBackend& backend_for(
      const RouterCandidate& candidate) const
      APAMM_EXCLUDES(state_->backends_mu);
  void run_candidate(const RouterCandidate& candidate,
                     MatrixView<const float> a, MatrixView<const float> b,
                     MatrixView<float> c, bool transpose_a, bool transpose_b,
                     const nn::MatmulFusion& fusion) const;
  void commit_decision(const ShapeKey& key, Entry& entry) const
      APAMM_REQUIRES(state_->mu);

  RouterOptions options_;
  std::string cpu_;
  std::unique_ptr<nn::MatmulBackend> static_backend_;
  std::shared_ptr<State> state_;
};

}  // namespace apa::tune
