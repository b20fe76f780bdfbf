#include "dist/transport.h"

#include <gtest/gtest.h>

#include <chrono>
#include <thread>

namespace apa::dist {
namespace {

Message make_chunk(int from, int to, std::uint64_t step, std::uint32_t phase) {
  Message msg;
  msg.kind = MsgKind::kChunk;
  msg.from = from;
  msg.to = to;
  msg.step = step;
  msg.phase = phase;
  msg.payload = {1.0f, 2.0f, 3.0f};
  return msg;
}

TEST(MessageChecksum, DetectsPayloadCorruption) {
  Message msg = make_chunk(0, 1, 3, 2);
  msg.checksum = msg.compute_checksum();
  EXPECT_TRUE(msg.checksum_ok());
  msg.payload[1] = 2.5f;
  EXPECT_FALSE(msg.checksum_ok());
}

TEST(MessageChecksum, CoversHeaderFields) {
  Message a = make_chunk(0, 1, 3, 2);
  Message b = make_chunk(0, 1, 4, 2);  // different step, same payload
  EXPECT_NE(a.compute_checksum(), b.compute_checksum());
  Message c = make_chunk(0, 1, 3, 5);  // different phase
  EXPECT_NE(a.compute_checksum(), c.compute_checksum());
  Message d = make_chunk(2, 1, 3, 2);  // different sender (routes resends)
  EXPECT_NE(a.compute_checksum(), d.compute_checksum());
  Message e = make_chunk(0, 1, 3, 2);  // different membership (stale drop)
  e.membership = 1;
  EXPECT_NE(a.compute_checksum(), e.compute_checksum());
}

TEST(Mailbox, DeliversInOrder) {
  Mailbox box;
  box.push(make_chunk(0, 1, 1, 0));
  box.push(make_chunk(0, 1, 1, 1));
  EXPECT_EQ(box.size(), 2u);
  auto first = box.pop(0.1);
  auto second = box.pop(0.1);
  ASSERT_TRUE(first && second);
  EXPECT_EQ(first->phase, 0u);
  EXPECT_EQ(second->phase, 1u);
}

TEST(Mailbox, PopTimesOutEmpty) {
  Mailbox box;
  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_FALSE(box.pop(0.05).has_value());
  EXPECT_GE(std::chrono::steady_clock::now() - t0,
            std::chrono::milliseconds(40));
}

TEST(Mailbox, InterruptUnblocksPop) {
  Mailbox box;
  std::atomic<bool> flag{false};
  std::thread flipper([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    flag.store(true);
  });
  const auto got = box.pop(5.0, [&] { return flag.load(); });
  flipper.join();
  EXPECT_FALSE(got.has_value());
}

TEST(Mailbox, WakesOnCrossThreadPush) {
  Mailbox box;
  std::thread producer([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    box.push(make_chunk(0, 1, 9, 0));
  });
  const auto got = box.pop(5.0);
  producer.join();
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->step, 9u);
}

TEST(LocalTransport, StampsChecksumOnSend) {
  FaultState state;
  LocalTransport transport(2, DistFaultPolicy{}, &state);
  transport.send(make_chunk(0, 1, 1, 0));
  const auto got = transport.mailbox(1).pop(0.5);
  ASSERT_TRUE(got.has_value());
  EXPECT_TRUE(got->checksum_ok());
}

TEST(LocalTransport, DropFaultSwallowsFirstNChunks) {
  FaultState state;
  LocalTransport transport(2, DistFaultPolicy::parse("drop@0:2"), &state);
  for (std::uint32_t phase = 0; phase < 3; ++phase) {
    transport.send(make_chunk(0, 1, 1, phase));
  }
  const auto got = transport.mailbox(1).pop(0.5);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->phase, 2u);  // the two earlier sends were dropped
  EXPECT_EQ(transport.mailbox(1).size(), 0u);
  EXPECT_EQ(state.messages_dropped.load(), 2);
}

TEST(LocalTransport, DropFaultOnlyHitsTheConfiguredRank) {
  FaultState state;
  LocalTransport transport(2, DistFaultPolicy::parse("drop@0:5"), &state);
  transport.send(make_chunk(1, 0, 1, 0));
  EXPECT_TRUE(transport.mailbox(0).pop(0.5).has_value());
}

TEST(LocalTransport, CorruptMsgFaultTripsReceiverChecksum) {
  FaultState state;
  LocalTransport transport(2, DistFaultPolicy::parse("corrupt-msg@0:1"), &state);
  transport.send(make_chunk(0, 1, 1, 0));
  transport.send(make_chunk(0, 1, 1, 1));
  const auto corrupted = transport.mailbox(1).pop(0.5);
  const auto clean = transport.mailbox(1).pop(0.5);
  ASSERT_TRUE(corrupted && clean);
  EXPECT_FALSE(corrupted->checksum_ok());
  EXPECT_TRUE(clean->checksum_ok());
  EXPECT_EQ(state.messages_corrupted.load(), 1);
}

TEST(LocalTransport, ResendControlMessagesAreExemptFromFaults) {
  // If the repair path itself could be injected away the protocol could not
  // make progress; faults only apply to data chunks.
  FaultState state;
  LocalTransport transport(2, DistFaultPolicy::parse("drop@0:10,corrupt-msg@0:10"),
                           &state);
  Message request;
  request.kind = MsgKind::kResend;
  request.from = 0;
  request.to = 1;
  request.step = 1;
  request.phase = 0;
  transport.send(std::move(request));
  const auto got = transport.mailbox(1).pop(0.5);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->kind, MsgKind::kResend);
  EXPECT_TRUE(got->checksum_ok());
}

TEST(Mailbox, ClearDiscardsQueued) {
  Mailbox box;
  box.push(make_chunk(0, 1, 1, 0));
  box.clear();
  EXPECT_EQ(box.size(), 0u);
}

}  // namespace
}  // namespace apa::dist
