#pragma once
// Shared-memory message transport between data-parallel workers: one mailbox
// (mutex + condvar bounded queue) per rank, checksummed payloads, and the
// fault-injection hooks from dist/fault.h applied on the send path. The
// interface is deliberately socket-shaped — send can silently lose or delay a
// message, recv can time out, payloads can arrive corrupted — so the
// collective layer above has to earn its robustness (checksums, resend
// protocol, retry with backoff, heartbeat-based death detection) the same way
// a TCP ring would, while tests stay deterministic and TSan-instrumented.

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <optional>
#include <vector>

#include "dist/fault.h"
#include "support/thread_annotations.h"

namespace apa::dist {

enum class MsgKind : std::uint32_t {
  kChunk = 1,   ///< reduce-scatter / all-gather payload
  kResend = 2,  ///< "re-send your last chunk to me" (no payload)
};

/// Cross-worker trace context (docs/OBSERVABILITY.md §Trace context), carried
/// on every message. Together with the message's (from, step) it identifies
/// one hop: the sender's flow-out and the receiver's flow-in trace events
/// share `span_id`, so tools/obs/trace_merge renders the hop as one arrow in
/// the merged timeline, and a postmortem can slice traffic by rewind round.
struct TraceCtx {
  std::uint64_t span_id = 0;      ///< stamped by LocalTransport::send when 0
  std::uint32_t rewind_round = 0; ///< sender's rewind era (ControlBlock)
  std::int32_t origin = -1;       ///< first sender; resend copies keep it
};

struct Message {
  MsgKind kind = MsgKind::kChunk;
  int from = -1;
  int to = -1;
  std::uint64_t step = 0;        ///< training step the collective belongs to
  std::uint32_t phase = 0;       ///< hop index within the collective
  std::uint64_t membership = 0;  ///< sender's membership version
  TraceCtx trace;                ///< (rank, step, rewind-round, span-id) context
  std::vector<float> payload;
  std::uint64_t checksum = 0;  ///< XXH64 over header + payload, set by send

  [[nodiscard]] std::uint64_t compute_checksum() const;
  /// False when header or payload does not hash to `checksum` (bit rot in
  /// flight).
  [[nodiscard]] bool checksum_ok() const {
    return checksum == compute_checksum();
  }
};

/// Single-consumer mailbox. Producers are any worker; the consumer is the
/// owning rank. pop wakes on delivery, timeout, or when `interrupt` turns
/// true (polled, so a pending rollback proposal unblocks a stalled ring).
class Mailbox {
 public:
  void push(Message message) APAMM_EXCLUDES(mu_);
  std::optional<Message> pop(double timeout_s,
                             const std::function<bool()>& interrupt = {})
      APAMM_EXCLUDES(mu_);
  /// Discards everything queued (used when re-forming the ring after a
  /// membership change so stale chunks cannot alias a new collective).
  void clear() APAMM_EXCLUDES(mu_);
  [[nodiscard]] std::size_t size() const APAMM_EXCLUDES(mu_);

 private:
  mutable Mutex mu_;
  CondVar cv_;
  std::deque<Message> queue_ APAMM_GUARDED_BY(mu_);
};

/// N mailboxes plus the fault hooks. Thread-safe for concurrent sends.
class LocalTransport {
 public:
  LocalTransport(int num_ranks, const DistFaultPolicy& faults,
                 FaultState* fault_state);

  /// Stamps the checksum and delivers to `message.to`'s mailbox, unless the
  /// fault policy drops it; corrupt-msg faults flip a payload byte *after*
  /// the checksum is stamped so the receiver's validation catches it.
  void send(Message message);

  [[nodiscard]] Mailbox& mailbox(int rank);
  [[nodiscard]] int num_ranks() const {
    return static_cast<int>(boxes_.size());
  }
  [[nodiscard]] const FaultState& fault_state() const { return *fault_state_; }

 private:
  std::vector<Mailbox> boxes_;
  DistFaultPolicy faults_;
  FaultState* fault_state_;
  std::atomic<int> drops_left_{0};
  std::atomic<int> corruptions_left_{0};
};

}  // namespace apa::dist
