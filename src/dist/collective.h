#pragma once
// Ring all-reduce over the mailbox transport, hardened against the transport's
// failure modes. The happy path is the textbook two-sweep ring: n-1 rounds of
// reduce-scatter (each rank ends owning one fully-reduced chunk) followed by
// n-1 rounds of all-gather. Because every chunk is accumulated in the same
// rank order no matter which worker you ask, all live workers finish with
// *bit-identical* reduced bytes — which is what keeps data-parallel replicas
// bit-exact step after step and makes divergence detection symmetric (every
// worker computes the same decision from the same bytes without extra
// messaging).
//
// Hardening, layered over the happy path:
//   * every payload carries an XXH64 checksum; a mismatch is treated exactly
//     like a dropped message,
//   * a recv that times out sends the predecessor a kResend naming the
//     (step, phase) it needs, paced by support/retry.h backoff; senders keep
//     a bounded history of sent chunks (current and previous step) so even a
//     straggler one collective behind can be repaired,
//   * out-of-order chunks from a fast predecessor are stashed, not discarded,
//   * recv loops heartbeat, poll for rewind/abort interrupts, and watch the
//     predecessor's heartbeat: a peer that exhausts the retry budget with a
//     stale heartbeat is marked dead and the collective returns kPeerFailure
//     so the caller can re-form the ring over the survivors and retry.

#include <cstdint>
#include <map>
#include <utility>
#include <vector>

#include "dist/control.h"
#include "dist/transport.h"
#include "support/retry.h"
#include "support/rng.h"

namespace apa::dist {

enum class CollectiveStatus {
  kOk,               ///< data now holds the mean over the live set
  kPeerFailure,      ///< a peer died / membership changed; re-form and retry
  kRewindRequested,  ///< a rewind round started; join it before anything else
  kAborted,          ///< run poisoned; unwind
};

struct CollectiveOptions {
  double hop_timeout_s = 0.25;  ///< recv wait before the first resend request
  RetryPolicy retry{.max_attempts = 6,
                    .base_delay_s = 0.05,
                    .max_delay_s = 0.4,
                    .multiplier = 2.0,
                    .jitter = 0.25,
                    .deadline_s = 0.0};
};

/// Per-worker ring endpoint. Not thread-safe: each worker owns one.
class RingReducer {
 public:
  RingReducer(int rank, LocalTransport* transport, ControlBlock* control,
              const CollectiveOptions& options, std::uint64_t retry_seed);

  /// In place: data -> elementwise mean over all live workers' data. Every
  /// live worker must call this with the same step and equal-length data.
  /// On kPeerFailure the buffer is clobbered — the caller re-snapshots its
  /// local contribution and retries against the new live set.
  CollectiveStatus allreduce_mean(std::vector<float>& data, index_t step);

  [[nodiscard]] std::int64_t resend_requests() const { return resend_requests_; }
  [[nodiscard]] std::int64_t resends_served() const { return resends_served_; }
  [[nodiscard]] std::int64_t checksum_failures() const {
    return checksum_failures_;
  }
  [[nodiscard]] std::int64_t retries() const { return retries_; }

 private:
  /// [begin, end) of chunk `c` of `n` over a `total`-length buffer.
  static std::pair<index_t, index_t> chunk_range(index_t total, int n, int c);

  void send_chunk(const std::vector<float>& data, index_t step,
                  std::uint32_t phase, int chunk, int n, int to,
                  std::uint64_t membership);
  void service_resend(const Message& request);
  void prune_history(index_t step);

  enum class RecvStatus { kGot, kPeerFailure, kRewindRequested, kAborted };
  RecvStatus recv_chunk(index_t step, std::uint32_t phase, int from,
                        std::uint64_t membership, Message* out);

  int rank_ = -1;
  LocalTransport* transport_;
  ControlBlock* control_;
  CollectiveOptions options_;
  Rng rng_;

  /// Chunks sent for the current and previous step, keyed by (step, phase),
  /// kept to service kResend requests from stragglers.
  std::map<std::pair<index_t, std::uint32_t>, Message> sent_;
  /// In-order delivery buffer for chunks that arrived ahead of the phase we
  /// are blocked on (same step + membership only).
  std::map<std::uint32_t, Message> stash_;

  std::int64_t resend_requests_ = 0;
  std::int64_t resends_served_ = 0;
  std::int64_t checksum_failures_ = 0;
  std::int64_t retries_ = 0;
};

}  // namespace apa::dist
