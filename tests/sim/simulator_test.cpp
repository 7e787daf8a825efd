#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>
#include <vector>

#include "sim/simulator.h"
#include "util/ensure.h"

namespace epto::sim {
namespace {

TEST(Simulator, StartsAtTickZeroEmpty) {
  Simulator sim;
  EXPECT_EQ(sim.now(), 0u);
  EXPECT_EQ(sim.pendingActions(), 0u);
  EXPECT_FALSE(sim.step());
}

TEST(Simulator, ExecutesInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule(30, [&] { order.push_back(3); });
  sim.schedule(10, [&] { order.push_back(1); });
  sim.schedule(20, [&] { order.push_back(2); });
  while (sim.step()) {
  }
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now(), 30u);
}

TEST(Simulator, SameTickRunsFifo) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    sim.schedule(10, [&order, i] { order.push_back(i); });
  }
  while (sim.step()) {
  }
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Simulator, NowAdvancesOnlyToExecutedActions) {
  Simulator sim;
  sim.schedule(100, [] {});
  EXPECT_EQ(sim.now(), 0u);
  sim.step();
  EXPECT_EQ(sim.now(), 100u);
}

TEST(Simulator, ActionsCanScheduleMoreActions) {
  Simulator sim;
  int fired = 0;
  std::function<void()> recurring = [&] {
    if (++fired < 5) sim.schedule(10, recurring);
  };
  sim.schedule(10, recurring);
  sim.runUntil(1000);
  EXPECT_EQ(fired, 5);
  EXPECT_EQ(sim.now(), 1000u);
}

TEST(Simulator, RunUntilStopsAtBoundaryInclusive) {
  Simulator sim;
  int fired = 0;
  sim.schedule(10, [&] { ++fired; });
  sim.schedule(20, [&] { ++fired; });
  sim.schedule(21, [&] { ++fired; });
  sim.runUntil(20);
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(sim.now(), 20u);
  EXPECT_EQ(sim.pendingActions(), 1u);
}

TEST(Simulator, RunForIsRelative) {
  Simulator sim;
  sim.schedule(5, [] {});
  sim.runFor(10);
  EXPECT_EQ(sim.now(), 10u);
  sim.runFor(10);
  EXPECT_EQ(sim.now(), 20u);
}

TEST(Simulator, ScheduleAtAbsoluteTime) {
  Simulator sim;
  bool fired = false;
  sim.scheduleAt(42, [&] { fired = true; });
  sim.runUntil(41);
  EXPECT_FALSE(fired);
  sim.runUntil(42);
  EXPECT_TRUE(fired);
}

TEST(Simulator, RejectsPastAndNull) {
  Simulator sim;
  sim.schedule(10, [] {});
  sim.runUntil(10);
  EXPECT_THROW(sim.scheduleAt(5, [] {}), util::ContractViolation);
  EXPECT_THROW(sim.schedule(1, nullptr), util::ContractViolation);
  EXPECT_THROW(sim.runUntil(5), util::ContractViolation);
}

TEST(Simulator, CountsExecutedActions) {
  Simulator sim;
  for (int i = 0; i < 7; ++i) sim.schedule(static_cast<Timestamp>(i), [] {});
  sim.runUntil(100);
  EXPECT_EQ(sim.executedActions(), 7u);
}

TEST(Simulator, InterleavedSchedulingKeepsDeterministicOrder) {
  // Two runs with identical scheduling produce identical execution traces.
  const auto trace = [] {
    Simulator sim;
    std::vector<int> order;
    sim.schedule(10, [&] {
      order.push_back(1);
      sim.schedule(0, [&] { order.push_back(2); });
      sim.schedule(5, [&] { order.push_back(3); });
    });
    sim.schedule(10, [&] { order.push_back(4); });
    sim.runUntil(100);
    return order;
  };
  EXPECT_EQ(trace(), trace());
  EXPECT_EQ(trace(), (std::vector<int>{1, 4, 2, 3}));
}

TEST(Simulator, DestroysPendingActionsWithIt) {
  auto held = std::make_shared<int>(0);
  {
    Simulator sim;
    sim.schedule(5, [held] {});
    sim.schedule(5 * Simulator::kRingSpan, [held] {});  // beyond the ring
    EXPECT_EQ(held.use_count(), 3);
  }
  EXPECT_EQ(held.use_count(), 1);
}

TEST(Simulator, RanActionsReleaseTheirCaptures) {
  auto held = std::make_shared<int>(0);
  Simulator sim;
  for (int i = 0; i < 3; ++i) sim.schedule(static_cast<Timestamp>(i), [held] {});
  sim.runUntil(10);
  EXPECT_EQ(held.use_count(), 1);
}

TEST(Simulator, ThrowingActionLeavesTheQueueUsable) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule(1, [] { throw std::runtime_error("boom"); });
  sim.schedule(1, [&] { order.push_back(1); });
  sim.schedule(2, [&] { order.push_back(2); });
  EXPECT_THROW(sim.step(), std::runtime_error);
  EXPECT_EQ(sim.pendingActions(), 2u);
  sim.runUntil(5);
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  EXPECT_EQ(sim.executedActions(), 3u);
}

}  // namespace
}  // namespace epto::sim
