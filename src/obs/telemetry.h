#pragma once
// Structured telemetry: an ordered JSON-object builder and a line-per-record
// JSONL sink. Unlike the span/counter macros, the sink is explicit API and
// keeps writing while obs::set_enabled(false) — a training run's loss curve
// is observability the user asked for by passing --metrics-out, not ambient
// instrumentation.

#include <cstdio>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "obs/json.h"
#include "support/thread_annotations.h"

namespace apa::obs {

/// One flat JSON object with insertion-ordered keys. Values are rendered
/// eagerly; set_raw splices pre-rendered JSON (for nested objects).
class JsonRecord {
 public:
  JsonRecord& set(std::string_view key, double v) {
    return set_raw(key, json_double(v));
  }
  JsonRecord& set(std::string_view key, bool v) {
    return set_raw(key, v ? "true" : "false");
  }
  JsonRecord& set(std::string_view key, int v) {
    return set(key, static_cast<long long>(v));
  }
  JsonRecord& set(std::string_view key, long v) {
    return set(key, static_cast<long long>(v));
  }
  JsonRecord& set(std::string_view key, long long v) {
    return set_raw(key, std::to_string(v));
  }
  JsonRecord& set(std::string_view key, unsigned v) {
    return set(key, static_cast<unsigned long long>(v));
  }
  JsonRecord& set(std::string_view key, unsigned long v) {
    return set(key, static_cast<unsigned long long>(v));
  }
  JsonRecord& set(std::string_view key, unsigned long long v) {
    return set_raw(key, std::to_string(v));
  }
  JsonRecord& set(std::string_view key, std::string_view v) {
    return set_raw(key, json_quote(v));
  }
  JsonRecord& set(std::string_view key, const char* v) {
    return set(key, std::string_view(v));
  }
  /// `json` must already be a valid JSON value (object, array, number, ...).
  JsonRecord& set_raw(std::string_view key, std::string json) {
    fields_.emplace_back(std::string(key), std::move(json));
    return *this;
  }

  /// One line by default; a non-empty `indent` puts each field on its own
  /// line behind it (values are spliced as rendered).
  [[nodiscard]] std::string to_json(std::string_view indent = {}) const;

 private:
  std::vector<std::pair<std::string, std::string>> fields_;
};

/// Appending JSONL writer: one record per line, flushed per write so a crashed
/// or killed run keeps every completed record. Writes are mutex-serialized.
///
/// Every open sink registers its file descriptor in a process-wide table so
/// install_telemetry_crash_flush can fsync all sinks from a signal handler —
/// a worker killed mid-epoch (SIGTERM/SIGINT) keeps every guard/rollback
/// record it completed, even across a power-loss-adjacent kill window.
class TelemetrySink {
 public:
  /// Opens `path` for writing (truncates). ok() reports failure; writes to a
  /// failed sink are dropped silently so callers need no error handling.
  explicit TelemetrySink(const std::string& path);
  ~TelemetrySink();
  TelemetrySink(const TelemetrySink&) = delete;
  TelemetrySink& operator=(const TelemetrySink&) = delete;

  [[nodiscard]] bool ok() const APAMM_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    return file_ != nullptr;
  }
  [[nodiscard]] const std::string& path() const { return path_; }

  void write(const JsonRecord& record) APAMM_EXCLUDES(mu_);

  /// Pushes user-space and kernel buffers to disk (fflush + fsync). Called
  /// by the destructor; safe to call at any time from any thread.
  void sync() APAMM_EXCLUDES(mu_);

 private:
  std::string path_;
  mutable Mutex mu_;
  // Guarded by mu_ for its whole lifecycle: the destructor closes the stream
  // under the same lock write()/sync() hold, so a concurrent writer can never
  // race the fclose into a use-after-close.
  std::FILE* file_ APAMM_GUARDED_BY(mu_) = nullptr;
};

/// Installs an atexit hook and SIGTERM/SIGINT handlers that fsync every
/// registered TelemetrySink using only async-signal-safe calls, then chain to
/// the previously-installed disposition. Idempotent; first call wins.
/// ObsSession installs this automatically when a metrics sink is requested.
void install_telemetry_crash_flush();

/// Number of sinks currently registered in the crash-flush fd table
/// (exposed for tests).
[[nodiscard]] int telemetry_crash_flush_registered();

/// The current counter/histogram registry as one JsonRecord (type "counters"),
/// with nested "counters" and "histograms" objects.
[[nodiscard]] JsonRecord counters_record();

}  // namespace apa::obs
