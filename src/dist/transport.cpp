#include "dist/transport.h"

#include <array>
#include <chrono>
#include <thread>
#include <utility>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "support/check.h"
#include "support/hash.h"

namespace apa::dist {

namespace {

// Hash of every header field a receiver acts on (kind, from, to, step, phase,
// membership), widened to fixed-size words so struct padding never leaks in.
std::uint64_t header_hash(const Message& m) {
  const std::array<std::uint64_t, 6> words = {
      static_cast<std::uint64_t>(m.kind),
      static_cast<std::uint64_t>(static_cast<std::int64_t>(m.from)),
      static_cast<std::uint64_t>(static_cast<std::int64_t>(m.to)),
      m.step,
      m.phase,
      m.membership};
  return hash64(words.data(), sizeof(words));
}

}  // namespace

std::uint64_t Message::compute_checksum() const {
  return hash64(payload.data(), payload.size() * sizeof(float),
                header_hash(*this));
}

void Mailbox::push(Message message) {
  {
    MutexLock lock(mu_);
    queue_.push_back(std::move(message));
  }
  cv_.notify_one();
}

std::optional<Message> Mailbox::pop(double timeout_s,
                                    const std::function<bool()>& interrupt) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::duration_cast<std::chrono::nanoseconds>(
                            std::chrono::duration<double>(timeout_s));
  // Poll in short slices so an interrupt raised by another worker (rewind
  // proposal, abort) unblocks a receiver that would otherwise wait out the
  // full collective timeout.
  constexpr auto kSlice = std::chrono::milliseconds(5);
  MutexLock lock(mu_);
  while (queue_.empty()) {
    if (interrupt && interrupt()) return std::nullopt;
    const auto now = std::chrono::steady_clock::now();
    if (now >= deadline) return std::nullopt;
    cv_.wait_for(mu_, std::min<std::chrono::steady_clock::duration>(
                          kSlice, deadline - now));
  }
  Message out = std::move(queue_.front());
  queue_.pop_front();
  return out;
}

void Mailbox::clear() {
  MutexLock lock(mu_);
  queue_.clear();
}

std::size_t Mailbox::size() const {
  MutexLock lock(mu_);
  return queue_.size();
}

LocalTransport::LocalTransport(int num_ranks, const DistFaultPolicy& faults,
                               FaultState* fault_state)
    : boxes_(static_cast<std::size_t>(num_ranks)),
      faults_(faults),
      fault_state_(fault_state) {
  APA_CHECK_CODE(num_ranks >= 1, ErrorCode::kPrecondition,
                 "transport needs at least one rank");
  APA_CHECK_CODE(fault_state != nullptr, ErrorCode::kPrecondition,
                 "transport needs a FaultState");
  drops_left_.store(faults_.drop_count, std::memory_order_relaxed);
  corruptions_left_.store(faults_.corrupt_msg_count, std::memory_order_relaxed);
}

Mailbox& LocalTransport::mailbox(int rank) {
  APA_CHECK_CODE(rank >= 0 && rank < num_ranks(), ErrorCode::kPrecondition,
                 "mailbox rank out of range");
  return boxes_[static_cast<std::size_t>(rank)];
}

void LocalTransport::send(Message message) {
  APA_CHECK_CODE(message.to >= 0 && message.to < num_ranks(),
                 ErrorCode::kPrecondition, "send: destination out of range");
  // Stamp the trace context: the span id is a deterministic hash of the hop
  // identity, so a resend of the stored copy (or the receiver, independently)
  // derives the same id and the flow arrow stays paired across repairs.
  if (message.trace.origin < 0) message.trace.origin = message.from;
  if (message.trace.span_id == 0) {
    const std::uint64_t hash = header_hash(message);
    message.trace.span_id = hash != 0 ? hash : 1;
  }
  if (message.kind == MsgKind::kChunk) {
    APA_TRACE_FLOW_OUT("dist.chunk", message.trace.span_id);
  }
  message.checksum = message.compute_checksum();
  // Fault hooks only touch data traffic; control (kResend) stays reliable so
  // the repair path itself cannot be injected away.
  if (message.kind == MsgKind::kChunk) {
    if (message.from == faults_.drop_rank &&
        drops_left_.fetch_sub(1, std::memory_order_acq_rel) > 0) {
      fault_state_->messages_dropped.fetch_add(1, std::memory_order_relaxed);
      APA_COUNTER_INC("dist.fault.msg_dropped");
      return;  // vanished in flight
    }
    if (message.from == faults_.corrupt_msg_rank &&
        corruptions_left_.fetch_sub(1, std::memory_order_acq_rel) > 0 &&
        !message.payload.empty()) {
      // Flip one payload byte after the checksum stamp so the receiver sees a
      // mismatch and exercises the resend path.
      auto* bytes = reinterpret_cast<unsigned char*>(message.payload.data());
      bytes[0] ^= 0x40u;
      fault_state_->messages_corrupted.fetch_add(1, std::memory_order_relaxed);
      APA_COUNTER_INC("dist.fault.msg_corrupted");
    }
    if (faults_.delays(message.from, static_cast<index_t>(message.step))) {
      fault_state_->sends_delayed.fetch_add(1, std::memory_order_relaxed);
      APA_COUNTER_INC("dist.fault.send_delayed");
      std::this_thread::sleep_for(std::chrono::duration<double>(faults_.delay_s));
    }
  }
  mailbox(message.to).push(std::move(message));
}

}  // namespace apa::dist
