#include "tune/router.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <sstream>
#include <utility>

#include "core/registry.h"
#include "obs/health.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "support/check.h"
#include "support/timer.h"

namespace apa::tune {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

const RouterCandidate& classical_fallback() {
  static const RouterCandidate candidate{};  // classical / 1 step / prepack
  return candidate;
}

std::string backend_key(const RouterCandidate& c) {
  std::ostringstream key;
  key << c.algorithm << "/s" << c.steps << "/" << core::to_string(c.strategy);
  if (c.lambda > 0.0) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &c.lambda, sizeof(bits));
    key << "/l" << bits;
  }
  return key.str();
}

/// The identifying fields of one ladder slot, for the route_decision record.
obs::JsonRecord candidate_record(const RouterCandidate& c) {
  obs::JsonRecord record;
  record.set("algorithm", c.algorithm)
      .set("steps", c.steps)
      .set("strategy", core::to_string(c.strategy))
      .set("plan", to_string(c.plan));
  return record;
}

std::string json_array(const std::vector<obs::JsonRecord>& records) {
  std::string out = "[";
  for (const obs::JsonRecord& record : records) {
    if (out.size() > 1) out += ",";
    out += record.to_json();
  }
  return out + "]";
}

RouterCandidate candidate_from_choice(const TunedChoice& choice) {
  RouterCandidate c;
  c.algorithm = choice.algorithm;
  c.steps = choice.steps;
  c.strategy = choice.strategy;
  c.lambda = choice.lambda;
  c.plan = choice.plan;
  return c;
}

}  // namespace

TunedBackend::TunedBackend(RouterOptions options)
    : MatmulBackend("classical", options.backend),
      options_(std::move(options)),
      cpu_(options_.cpu.empty() ? cpu_signature() : options_.cpu),
      state_(std::make_shared<State>()) {
  APA_CHECK_MSG(options_.measure_reps >= 1, "measure_reps must be >= 1");
  APA_CHECK_MSG(options_.warmup_reps >= 0, "warmup_reps must be >= 0");
  std::string static_algo = options_.static_algorithm;
  if (static_algo.empty()) {
    static_algo =
        options_.algorithms.empty() ? "classical" : options_.algorithms.front();
  }
  static_backend_ =
      std::make_unique<nn::MatmulBackend>(static_algo, options_.backend);

  if (!options_.enabled || options_.cache_path.empty()) return;
  const CacheLoad load = load_tuning_cache(options_.cache_path, cpu_);
  {
    // Lock even in the constructor: state_ is a shared_ptr that outlives this
    // frame via copies handed to candidate backends, and Clang's thread-safety
    // analysis (rightly) has no "no concurrent access yet" carve-out for
    // writes to another object's guarded fields.
    MutexLock lock(state_->mu);
    state_->stats.cache_status = load.status;
    state_->stats.warm_entries = load.entries.size();
    for (const auto& [key, choice] : load.entries) {
      Entry entry;
      entry.decided = true;
      entry.decision = choice;
      state_->entries.emplace(key, std::move(entry));
    }
  }
  APA_COUNTER_ADD("tune.cache.warm_entries", load.entries.size());
  if (options_.telemetry != nullptr) {
    obs::JsonRecord record;
    record.set("type", "route_cache")
        .set("path", options_.cache_path)
        .set("status", to_string(load.status))
        .set("entries", static_cast<unsigned long long>(load.entries.size()));
    if (!load.detail.empty()) record.set("detail", load.detail);
    options_.telemetry->write(record);
  }
}

std::vector<RouterCandidate> TunedBackend::candidates_for(
    index_t m, index_t k, index_t n,
    std::vector<std::pair<RouterCandidate, double>>& pruned) const {
  std::vector<RouterCandidate> out;
  out.push_back(classical_fallback());
  RouterCandidate plain;
  plain.plan = PlanVariant::kPlain;
  out.push_back(plain);
  std::vector<int> steps_list = {1};
  if (std::min({m, k, n}) >= 2 * options_.backend.min_dim_for_fast) {
    steps_list.push_back(2);
  }
  const int threads = options_.backend.matmul.num_threads;
  const double classical_seconds =
      options_.cost.valid() ? options_.cost.predict_classical_seconds(m, k, n)
                            : 0.0;
  for (const std::string& algo : options_.algorithms) {
    if (algo == "classical" || !core::has_algorithm(algo)) continue;
    for (const int steps : steps_list) {
      std::vector<core::Strategy> strategies = {core::Strategy::kSequential};
      if (threads > 1) strategies.push_back(core::Strategy::kHybrid);
      for (const core::Strategy strategy : strategies) {
        RouterCandidate c;
        c.algorithm = algo;
        c.steps = steps;
        c.strategy = strategy;
        if (options_.cost.valid()) {
          // Shapes below the backend cutoff never reach the ladder, so the
          // candidate dispatches to its oriented rule here.
          const core::Rule& rule = backend_for(c).dispatch_for(m, k, n)->rule();
          const double predicted = options_.cost.predict_apa_seconds(rule, m, k, n);
          if (predicted >= classical_seconds) {
            pruned.emplace_back(std::move(c), predicted);
            continue;
          }
        }
        out.push_back(std::move(c));
      }
    }
  }
  return out;
}

const nn::MatmulBackend& TunedBackend::backend_for(
    const RouterCandidate& candidate) const {
  const std::string key = backend_key(candidate);
  MutexLock lock(state_->backends_mu);
  auto it = state_->backends.find(key);
  if (it == state_->backends.end()) {
    nn::BackendOptions options = options_.backend;
    options.matmul.steps = candidate.steps;
    options.matmul.strategy = candidate.strategy;
    if (candidate.lambda > 0.0) options.matmul.lambda = candidate.lambda;
    std::unique_ptr<nn::MatmulBackend> backend;
    if (candidate.algorithm == "classical") {
      backend = std::make_unique<nn::MatmulBackend>("classical", options);
    } else {
      // Every APA candidate is guarded: explore traffic is verified with
      // exact-gemm fallback, and repeated trips quarantine the shape.
      backend = std::make_unique<nn::GuardedBackend>(candidate.algorithm,
                                                     options, options_.guard);
    }
    it = state_->backends.emplace(key, std::move(backend)).first;
  }
  return *it->second;
}

void TunedBackend::run_candidate(const RouterCandidate& candidate,
                                 MatrixView<const float> a,
                                 MatrixView<const float> b, MatrixView<float> c,
                                 bool transpose_a, bool transpose_b,
                                 const nn::MatmulFusion& fusion) const {
  const nn::MatmulBackend& backend = backend_for(candidate);
  nn::MatmulFusion effective = fusion;
  if (candidate.plan == PlanVariant::kPlain) effective.plan = nullptr;
  backend.matmul_ex(a, b, c, transpose_a, transpose_b, effective);
}

void TunedBackend::commit_decision(const ShapeKey& key, Entry& entry) const {
  std::size_t winner = entry.best_index();
  // Hysteresis: a complex candidate must beat a simpler one by more than the
  // noise floor; within the margin the earliest (simplest) candidate wins.
  const double cutoff =
      entry.best_seconds[winner] * (1.0 + std::max(0.0, options_.hysteresis));
  for (std::size_t i = 0; i < winner; ++i) {
    if (entry.best_seconds[i] <= cutoff) {
      winner = i;
      break;
    }
  }
  const bool quarantined =
      is_quarantined(key.m, key.k, key.n);
  if (quarantined && entry.candidates[winner].algorithm != "classical") {
    // The guard outranks the stopwatch: a quarantined shape commits to the
    // best *classical* candidate instead of the tainted APA winner.
    winner = 0;
    for (std::size_t i = 1; i < entry.candidates.size(); ++i) {
      if (entry.candidates[i].algorithm == "classical" &&
          entry.best_seconds[i] < entry.best_seconds[winner]) {
        winner = i;
      }
    }
    ++state_->stats.quarantine_overrides;
    APA_COUNTER_INC("tune.router.quarantine_overrides");
  }
  const RouterCandidate& chosen = entry.candidates[winner];
  TunedChoice decision;
  decision.algorithm = chosen.algorithm;
  decision.steps = chosen.steps;
  decision.strategy = chosen.strategy;
  decision.plan = chosen.plan;
  decision.expected_seconds = entry.best_seconds[winner];
  decision.samples = entry.samples[winner];
  const nn::MatmulBackend& backend = backend_for(chosen);
  // Persist the lambda the winner actually ran at, so a warm process
  // reproduces the cold winner's numerics bit-for-bit.
  decision.lambda = backend.is_classical() ? 0.0 : backend.effective_lambda();
  entry.decision = std::move(decision);
  entry.decided = true;
  ++state_->stats.decisions;
  APA_COUNTER_INC("tune.router.decisions");
  if (options_.telemetry != nullptr) {
    obs::JsonRecord record;
    record.set("type", "route_decision")
        .set("m", static_cast<long long>(key.m))
        .set("k", static_cast<long long>(key.k))
        .set("n", static_cast<long long>(key.n))
        .set("algorithm", entry.decision.algorithm)
        .set("lambda", entry.decision.lambda)
        .set("steps", entry.decision.steps)
        .set("strategy", core::to_string(entry.decision.strategy))
        .set("plan", to_string(entry.decision.plan))
        .set("seconds", entry.decision.expected_seconds)
        .set("samples",
             static_cast<unsigned long long>(entry.decision.samples));
    std::vector<obs::JsonRecord> candidates;
    for (std::size_t i = 0; i < entry.candidates.size(); ++i) {
      candidates.push_back(
          candidate_record(entry.candidates[i])
              .set("best_seconds", entry.best_seconds[i])
              .set("samples", static_cast<unsigned long long>(entry.samples[i])));
    }
    record.set_raw("candidates", json_array(candidates));
    if (options_.cost.valid()) {
      std::vector<obs::JsonRecord> pruned;
      for (const auto& [candidate, predicted] : entry.pruned) {
        pruned.push_back(
            candidate_record(candidate).set("predicted_seconds", predicted));
      }
      record.set_raw("pruned", json_array(pruned));
    }
    options_.telemetry->write(record);
  }
}

void TunedBackend::matmul_ex(MatrixView<const float> a, MatrixView<const float> b,
                             MatrixView<float> c, bool transpose_a,
                             bool transpose_b,
                             const nn::MatmulFusion& fusion) const {
  const index_t m = transpose_a ? a.cols : a.rows;
  const index_t k = transpose_a ? a.rows : a.cols;
  const index_t n = transpose_b ? b.rows : b.cols;

  if (!options_.enabled ||
      std::min({m, k, n}) < options_.backend.min_dim_for_fast) {
    {
      MutexLock lock(state_->mu);
      ++state_->stats.static_calls;
    }
    APA_COUNTER_INC("tune.router.static_calls");
    static_backend_->matmul_ex(a, b, c, transpose_a, transpose_b, fusion);
    return;
  }

  const ShapeKey key{m, k, n};
  RouterCandidate candidate;
  std::size_t candidate_index = 0;
  bool exploring = false;
  bool record = false;
  {
    MutexLock lock(state_->mu);
    Entry& entry = state_->entries[key];
    if (!entry.decided && entry.candidates.empty()) {
      entry.candidates = candidates_for(m, k, n, entry.pruned);
      entry.best_seconds.assign(entry.candidates.size(), kInf);
      entry.samples.assign(entry.candidates.size(), 0);
    }
    if (entry.decided) {
      ++state_->stats.decided_calls;
      candidate = candidate_from_choice(entry.decision);
    } else if (entry.next_slot < entry.total_slots(options_.measure_reps +
                                                   options_.warmup_reps)) {
      const int slot = entry.next_slot++;
      const int per_candidate = options_.measure_reps + options_.warmup_reps;
      const int pass_size =
          static_cast<int>(entry.candidates.size()) * per_candidate;
      int index = (slot % pass_size) / per_candidate;
      if (slot >= pass_size) {  // second pass walks the ladder in reverse
        index = static_cast<int>(entry.candidates.size()) - 1 - index;
      }
      candidate_index = static_cast<std::size_t>(index);
      candidate = entry.candidates[candidate_index];
      exploring = true;
      // Each burst leads with warmup_reps untimed calls so one-off costs
      // (pool fills, plan packing, page faults) never enter the ledger.
      record = slot % per_candidate >= options_.warmup_reps;
      ++state_->stats.explore_samples;
    } else {
      // Every slot is assigned but samples are still in flight on other
      // threads: exploit the best measurement so far without recording.
      ++state_->stats.decided_calls;
      candidate = entry.candidates[entry.best_index()];
    }
  }

  if (!exploring) {
    APA_COUNTER_INC("tune.router.decided_calls");
    if (candidate.algorithm != "classical" && is_quarantined(m, k, n)) {
      // Quarantine overrides the tuner: the decision stays in the table (the
      // shape resumes its APA route once the quarantine is cleared), but
      // every call meanwhile is served by exact gemm.
      {
        MutexLock lock(state_->mu);
        ++state_->stats.quarantine_overrides;
      }
      APA_COUNTER_INC("tune.router.quarantine_overrides");
      candidate = classical_fallback();
    } else if (candidate.algorithm != "classical" && options_.consult_health &&
               obs::health().drifting(m, k, n)) {
      // Softer than quarantine: the health monitor flags residual drift
      // *before* any guard trip, and the router derates the shape to exact
      // gemm until the drift flag clears (EWMA decays back under the
      // threshold). The committed decision is untouched.
      {
        MutexLock lock(state_->mu);
        ++state_->stats.health_overrides;
      }
      APA_COUNTER_INC("tune.router.health_overrides");
      candidate = classical_fallback();
    }
    run_candidate(candidate, a, b, c, transpose_a, transpose_b, fusion);
    return;
  }

  APA_COUNTER_INC("tune.router.explore_samples");
  double seconds = 0.0;
  {
    APA_TRACE_SCOPE("tune.explore");
    WallTimer timer;
    run_candidate(candidate, a, b, c, transpose_a, transpose_b, fusion);
    seconds = options_.measure_override
                  ? options_.measure_override(candidate, m, k, n)
                  : timer.seconds();
  }
  if (!record) return;  // warm-up sample: correct product, no measurement

  bool committed = false;
  {
    MutexLock lock(state_->mu);
    Entry& entry = state_->entries[key];
    entry.best_seconds[candidate_index] =
        std::min(entry.best_seconds[candidate_index], seconds);
    ++entry.samples[candidate_index];
    ++entry.recorded;
    if (!entry.decided &&
        entry.recorded == entry.total_slots(options_.measure_reps)) {
      commit_decision(key, entry);
      committed = true;
    }
  }
  if (committed && options_.autosave && !options_.cache_path.empty()) {
    save();
  }
}

RouterStats TunedBackend::stats() const {
  MutexLock lock(state_->mu);
  return state_->stats;
}

ChoiceTable TunedBackend::choice_table() const {
  MutexLock lock(state_->mu);
  ChoiceTable table;
  for (const auto& [key, entry] : state_->entries) {
    if (entry.decided) table.emplace(key, entry.decision);
  }
  return table;
}

bool TunedBackend::is_decided(index_t m, index_t k, index_t n) const {
  MutexLock lock(state_->mu);
  const auto it = state_->entries.find(ShapeKey{m, k, n});
  return it != state_->entries.end() && it->second.decided;
}

std::optional<TunedChoice> TunedBackend::route_for(index_t m, index_t k,
                                                   index_t n) const {
  TunedChoice decision;
  {
    MutexLock lock(state_->mu);
    const auto it = state_->entries.find(ShapeKey{m, k, n});
    if (it == state_->entries.end() || !it->second.decided) return std::nullopt;
    decision = it->second.decision;
  }
  if (decision.algorithm != "classical" && is_quarantined(m, k, n)) {
    TunedChoice overridden;  // classical fallback, quarantine in force
    overridden.plan = decision.plan;
    return overridden;
  }
  return decision;
}

bool TunedBackend::save(const std::string& path) const {
  const std::string target = path.empty() ? options_.cache_path : path;
  if (target.empty()) return false;
  MutexLock lock(state_->save_mu);
  // Snapshot under the save lock: a snapshot taken outside it could be
  // overtaken by a fresher save and then land last, losing decisions.
  const ChoiceTable table = choice_table();
  try {
    save_tuning_cache(target, table, cpu_);
  } catch (const ApaError&) {
    return false;
  }
  {
    MutexLock stats_lock(state_->mu);
    ++state_->stats.cache_saves;
  }
  return true;
}

bool TunedBackend::is_quarantined(index_t m, index_t k, index_t n) const {
  MutexLock lock(state_->backends_mu);
  for (const auto& [key, backend] : state_->backends) {
    const auto* guarded = dynamic_cast<const nn::GuardedBackend*>(backend.get());
    if (guarded != nullptr && guarded->is_quarantined(m, k, n)) return true;
  }
  return false;
}

void TunedBackend::clear_quarantine(index_t m, index_t k, index_t n) const {
  MutexLock lock(state_->backends_mu);
  for (const auto& [key, backend] : state_->backends) {
    const auto* guarded = dynamic_cast<const nn::GuardedBackend*>(backend.get());
    if (guarded != nullptr) guarded->clear_quarantine(m, k, n);
  }
}

nn::GuardStats TunedBackend::guard_stats() const {
  MutexLock lock(state_->backends_mu);
  nn::GuardStats total;
  for (const auto& [key, backend] : state_->backends) {
    const auto* guarded = dynamic_cast<const nn::GuardedBackend*>(backend.get());
    if (guarded != nullptr) total += guarded->stats();
  }
  return total;
}

}  // namespace apa::tune
