#pragma once
// Persistent tuning cache: the winning {backend, lambda, recursion depth,
// strategy, plan variant} per logical gemm shape, durable on disk so
// the explore/exploit warmup is paid once per fleet, not once per process.
//
// File discipline mirrors the checkpoint formats (nn/checkpoint_io.h): a
// 10-byte magic, a little-endian payload, and a trailing FNV-1a checksum,
// committed via write-tmp -> fsync -> rename -> fsync-dir so readers can
// never observe a torn file. On top of the checksum the loader validates a
// format version and a CPU signature — tuning measurements are per-machine
// facts, and a cache written on different silicon (or by a future format)
// must be treated as cold, not trusted. Every load failure is a *soft* miss:
// load_tuning_cache never throws, it reports a status and an empty table so
// the router falls back to cold tuning.

#include <cstdint>
#include <map>
#include <string>

#include "core/executor.h"  // core::Strategy
#include "support/matrix.h"

namespace apa::tune {

/// Bumped whenever the serialized entry layout changes; older files are
/// rejected as kBadVersion (re-tuning is cheaper than a migration bug).
inline constexpr std::uint64_t kCacheVersion = 1;

/// Logical gemm shape: C(m x n) = op(A)(m x k) * op(B)(k x n).
struct ShapeKey {
  index_t m = 0;
  index_t k = 0;
  index_t n = 0;
  friend auto operator<=>(const ShapeKey&, const ShapeKey&) = default;
};

/// Plan variant of a persisted choice. Every product packs its operands per
/// call, so the router does not vary it and always commits kPrepack; the
/// field stays in the entry layout so caches that recorded kPlain still load.
enum class PlanVariant : std::uint8_t { kPrepack = 0, kPlain = 1 };

[[nodiscard]] const char* to_string(PlanVariant variant);

/// One learned routing decision. `algorithm` is "classical" or a registry
/// name; `lambda` == 0 means the rule's auto-optimal lambda (the persisted
/// value is the effective lambda the winning backend actually ran at, so a
/// warm process reproduces the cold winner bit-for-bit).
struct TunedChoice {
  std::string algorithm = "classical";
  double lambda = 0.0;
  int steps = 1;
  core::Strategy strategy = core::Strategy::kSequential;
  PlanVariant plan = PlanVariant::kPrepack;
  /// Best measured seconds backing the decision, and how many timed samples
  /// contributed — kept for diagnostics and cache-quality telemetry.
  double expected_seconds = 0.0;
  std::uint64_t samples = 0;

  friend bool operator==(const TunedChoice&, const TunedChoice&) = default;
};

using ChoiceTable = std::map<ShapeKey, TunedChoice>;

/// Stable per-machine identity baked into every cache file: the cpuinfo model
/// name plus the logical core count. A mismatch invalidates the cache (the
/// measurements do not transfer across silicon).
[[nodiscard]] std::string cpu_signature();

enum class CacheStatus {
  kLoaded,       ///< checksum, version and CPU signature all matched
  kMissing,      ///< no file at the path (a fresh fleet member)
  kCorrupt,      ///< bad magic / truncated / checksum or entry validation failed
  kBadVersion,   ///< written by an incompatible format version
  kCpuMismatch,  ///< written on different silicon
};

[[nodiscard]] const char* to_string(CacheStatus status);

struct CacheLoad {
  CacheStatus status = CacheStatus::kMissing;
  ChoiceTable entries;
  std::string detail;  ///< human-readable failure reason, empty on kLoaded
};

/// Loads and validates a tuning cache. Never throws and never returns a
/// partially validated table: any failure yields an empty table plus the
/// status, so callers degrade to cold tuning instead of crashing or loading
/// a poisoned entry. `cpu` exists for tests (stale-CPU fuzzing).
[[nodiscard]] CacheLoad load_tuning_cache(const std::string& path,
                                          const std::string& cpu = cpu_signature());

/// Serializes `table` and commits it atomically (tmp -> fsync -> rename ->
/// fsync-dir). Throws ApaError on I/O failure — a save the kernel may drop is
/// not durable, and callers treat persistence as best-effort above this.
void save_tuning_cache(const std::string& path, const ChoiceTable& table,
                       const std::string& cpu = cpu_signature());

}  // namespace apa::tune
