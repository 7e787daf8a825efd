#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <thread>

#include "runtime/transport.h"
#include "util/ensure.h"

namespace epto::runtime {
namespace {

using namespace std::chrono_literals;

BallPtr makeBall(std::uint32_t seq) {
  auto ball = std::make_shared<Ball>();
  Event e;
  e.id = EventId{1, seq};
  ball->push_back(e);
  return ball;
}

TEST(Mailbox, PushThenDrain) {
  Mailbox mailbox;
  mailbox.push(Envelope{.from = 1, .ball = makeBall(0), .frame = nullptr, .deliverAt = Clock::now()});
  const auto ready = mailbox.drainReady(Clock::now());
  ASSERT_EQ(ready.size(), 1u);
  EXPECT_EQ(ready[0].from, 1u);
}

TEST(Mailbox, FutureEnvelopesAreNotReady) {
  Mailbox mailbox;
  mailbox.push(Envelope{.from = 1, .ball = makeBall(0), .frame = nullptr, .deliverAt = Clock::now() + 1h});
  EXPECT_TRUE(mailbox.drainReady(Clock::now()).empty());
}

TEST(Mailbox, DrainReturnsInDeliveryOrder) {
  Mailbox mailbox;
  const auto now = Clock::now();
  mailbox.push(Envelope{.from = 3, .ball = makeBall(3), .frame = nullptr, .deliverAt = now - 1ms});
  mailbox.push(Envelope{.from = 1, .ball = makeBall(1), .frame = nullptr, .deliverAt = now - 3ms});
  mailbox.push(Envelope{.from = 2, .ball = makeBall(2), .frame = nullptr, .deliverAt = now - 2ms});
  const auto ready = mailbox.drainReady(now);
  ASSERT_EQ(ready.size(), 3u);
  EXPECT_EQ(ready[0].from, 1u);
  EXPECT_EQ(ready[1].from, 2u);
  EXPECT_EQ(ready[2].from, 3u);
}

TEST(Transport, RegisteredEndpointsReceive) {
  InMemoryTransport transport({}, util::Rng(1));
  transport.registerEndpoint(1);
  transport.registerEndpoint(2);
  transport.send(1, 2, makeBall(7), /*now=*/0);
  const auto ready = transport.mailboxOf(2).drainReady(Clock::now());
  ASSERT_EQ(ready.size(), 1u);
  EXPECT_EQ((*ready[0].ball)[0].id.sequence, 7u);
  EXPECT_EQ(transport.stats().sent, 1u);
}

TEST(Transport, DuplicateRegistrationAndUnknownEndpointThrow) {
  InMemoryTransport transport({}, util::Rng(1));
  transport.registerEndpoint(1);
  EXPECT_THROW(transport.registerEndpoint(1), util::ContractViolation);
  EXPECT_THROW((void)transport.mailboxOf(9), util::ContractViolation);
}

TEST(Transport, LossRateDropsApproximately) {
  InMemoryTransport transport({.lossRate = 0.5}, util::Rng(3));
  transport.registerEndpoint(1);
  transport.registerEndpoint(2);
  for (int i = 0; i < 2000; ++i) transport.send(1, 2, makeBall(0), /*now=*/0);
  const auto stats = transport.stats();
  EXPECT_EQ(stats.sent, 2000u);
  EXPECT_NEAR(static_cast<double>(stats.dropped), 1000.0, 100.0);
}

TEST(Transport, DelayWindowRespected) {
  InMemoryTransport transport({.minDelay = 5ms, .maxDelay = 10ms}, util::Rng(5));
  transport.registerEndpoint(1);
  transport.registerEndpoint(2);
  transport.send(1, 2, makeBall(0), /*now=*/0);
  // Not ready immediately.
  EXPECT_TRUE(transport.mailboxOf(2).drainReady(Clock::now()).empty());
  std::this_thread::sleep_for(15ms);
  EXPECT_EQ(transport.mailboxOf(2).drainReady(Clock::now()).size(), 1u);
}

TEST(Transport, RejectsBadOptions) {
  EXPECT_THROW(InMemoryTransport({.lossRate = 1.0}, util::Rng(1)),
               util::ContractViolation);
  EXPECT_THROW(InMemoryTransport({.minDelay = 10ms, .maxDelay = 1ms}, util::Rng(1)),
               util::ContractViolation);
}

TEST(Transport, ConcurrentSendersDoNotRace) {
  InMemoryTransport transport({}, util::Rng(7));
  transport.registerEndpoint(0);
  for (ProcessId id = 1; id <= 4; ++id) transport.registerEndpoint(id);
  std::vector<std::thread> senders;
  for (ProcessId id = 1; id <= 4; ++id) {
    senders.emplace_back([&transport, id] {
      for (int i = 0; i < 500; ++i) transport.send(id, 0, makeBall(0), /*now=*/0);
    });
  }
  for (auto& t : senders) t.join();
  EXPECT_EQ(transport.stats().sent, 2000u);
  EXPECT_EQ(transport.mailboxOf(0).drainReady(Clock::now()).size(), 2000u);
}

}  // namespace
}  // namespace epto::runtime
