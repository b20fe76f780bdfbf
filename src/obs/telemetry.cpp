#include "obs/telemetry.h"

#include <csignal>
#include <cstdlib>
#include <unistd.h>

#include <atomic>

#include "obs/metrics.h"

namespace apa::obs {
namespace {

// Crash-flush fd table. Lock-free and fixed-size because the signal handler
// may run at any point, including while another thread holds a sink mutex:
// it can only read atomics and call async-signal-safe functions (fsync).
// Slots hold the sink's fd + 1 (0 = empty) so the table needs no separate
// occupancy flag.
constexpr int kMaxCrashFlushSinks = 64;
std::atomic<int> g_crash_fds[kMaxCrashFlushSinks];
std::atomic<bool> g_crash_flush_installed{false};
struct sigaction g_prev_term, g_prev_int;  // chained dispositions

void register_crash_fd(int fd) {
  for (auto& slot : g_crash_fds) {
    int expected = 0;
    if (slot.compare_exchange_strong(expected, fd + 1,
                                     std::memory_order_acq_rel)) {
      return;
    }
  }
  // Table full: the sink still works, it just isn't crash-synced.
}

void unregister_crash_fd(int fd) {
  for (auto& slot : g_crash_fds) {
    int expected = fd + 1;
    if (slot.compare_exchange_strong(expected, 0, std::memory_order_acq_rel)) {
      return;
    }
  }
}

// Async-signal-safe: only atomics loads and fsync. User-space buffers are
// already empty (write() fflushes per record), so fsync pushes every
// completed record to stable storage before the process dies.
// apamm-check: signal-path
void crash_flush_fds() {
  for (auto& slot : g_crash_fds) {
    const int stored = slot.load(std::memory_order_acquire);
    if (stored != 0) ::fsync(stored - 1);
  }
}

// apamm-check: signal-path
void crash_flush_signal_handler(int signo) {
  crash_flush_fds();
  // Chain to the previous disposition so the process still terminates with
  // the expected signal semantics.
  struct sigaction& prev = signo == SIGTERM ? g_prev_term : g_prev_int;
  if (prev.sa_handler != SIG_IGN && prev.sa_handler != SIG_DFL &&
      (prev.sa_flags & SA_SIGINFO) == 0 && prev.sa_handler != nullptr) {
    prev.sa_handler(signo);
    return;
  }
  ::sigaction(signo, &prev, nullptr);
  ::raise(signo);
}

void crash_flush_atexit() { crash_flush_fds(); }

}  // namespace

void install_telemetry_crash_flush() {
  bool expected = false;
  if (!g_crash_flush_installed.compare_exchange_strong(expected, true)) return;
  std::atexit(crash_flush_atexit);
  struct sigaction action {};
  action.sa_handler = crash_flush_signal_handler;
  sigemptyset(&action.sa_mask);
  ::sigaction(SIGTERM, &action, &g_prev_term);
  ::sigaction(SIGINT, &action, &g_prev_int);
}

int telemetry_crash_flush_registered() {
  int count = 0;
  for (auto& slot : g_crash_fds) {
    if (slot.load(std::memory_order_acquire) != 0) ++count;
  }
  return count;
}

std::string JsonRecord::to_json(std::string_view indent) const {
  const std::string sep =
      indent.empty() ? std::string(", ") : ",\n" + std::string(indent);
  std::string out = indent.empty() ? "{" : "{\n" + std::string(indent);
  for (std::size_t i = 0; i < fields_.size(); ++i) {
    if (i > 0) out += sep;
    out += json_quote(fields_[i].first);
    out += ": ";
    out += fields_[i].second;
  }
  out += indent.empty() ? "}" : "\n}";
  return out;
}

TelemetrySink::TelemetrySink(const std::string& path) : path_(path) {
  if (path_.empty()) return;
  MutexLock lock(mu_);
  file_ = std::fopen(path_.c_str(), "w");
  if (file_ == nullptr) {
    std::fprintf(stderr, "obs: cannot open telemetry output %s\n", path_.c_str());
    return;
  }
  register_crash_fd(::fileno(file_));
}

TelemetrySink::~TelemetrySink() {
  // The close runs under the write/sync lock: a thread mid-write finishes its
  // record before the stream goes away, instead of racing the fclose (the
  // pre-annotation code read and closed file_ with no lock held).
  MutexLock lock(mu_);
  if (file_ == nullptr) return;
  std::fflush(file_);
  ::fsync(::fileno(file_));
  unregister_crash_fd(::fileno(file_));
  std::fclose(file_);
  file_ = nullptr;
}

void TelemetrySink::sync() {
  MutexLock lock(mu_);
  if (file_ == nullptr) return;
  std::fflush(file_);
  ::fsync(::fileno(file_));
}

void TelemetrySink::write(const JsonRecord& record) {
  const std::string line = record.to_json();
  MutexLock lock(mu_);
  if (file_ == nullptr) return;
  std::fwrite(line.data(), 1, line.size(), file_);
  std::fputc('\n', file_);
  std::fflush(file_);
}

JsonRecord counters_record() {
  JsonRecord record;
  record.set("type", "counters");

  std::string counters = "{";
  bool first = true;
  for (const CounterSample& c : counter_samples()) {
    if (!first) counters += ", ";
    first = false;
    counters += json_quote(c.name) + ": " + std::to_string(c.value);
  }
  counters += "}";
  record.set_raw("counters", std::move(counters));

  std::string hists = "{";
  first = true;
  for (const HistogramSample& h : histogram_samples()) {
    if (!first) hists += ", ";
    first = false;
    hists += json_quote(h.name) + ": {\"count\": " + std::to_string(h.count) +
             ", \"sum\": " + std::to_string(h.sum) + ", \"mean\": " +
             json_double(h.count > 0 ? static_cast<double>(h.sum) /
                                           static_cast<double>(h.count)
                                     : 0.0) +
             "}";
  }
  hists += "}";
  record.set_raw("histograms", std::move(hists));
  return record;
}

}  // namespace apa::obs
