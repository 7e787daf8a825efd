// Fault injection in the threaded runtimes: crash/restart with graceful
// rejoin, partitions with a scheduled heal, GC-pause stalls, and the
// fault-aware quiescence bookkeeping — first over the in-memory
// transport, then over real UDP sockets.
#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <string>
#include <thread>

#include "fault/fault_plan.h"
#include "runtime/runtime_cluster.h"
#include "runtime/transport.h"
#include "runtime/udp_cluster.h"
#include "util/ensure.h"
#include "util/rng.h"

namespace epto::runtime {
namespace {

using namespace std::chrono_literals;

RuntimeOptions fastOptions(std::size_t nodes) {
  RuntimeOptions options;
  options.nodeCount = nodes;
  options.roundPeriod = 2ms;
  options.clockMode = ClockMode::Logical;
  options.seed = 7;
  return options;
}

/// Spin until node `index` leaves its crash window (bounded).
template <typename Cluster>
void waitUntilUp(Cluster& cluster, std::size_t index) {
  const auto deadline = std::chrono::steady_clock::now() + 10s;
  while (cluster.nodeDown(index)) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline) << "node never rejoined";
    std::this_thread::sleep_for(1ms);
  }
}

TEST(RuntimeFault, PermanentlyCrashedNodeOwesNothing) {
  fault::FaultPlan plan;
  plan.crash(10'000, 3);  // down 10ms in, forever

  auto options = fastOptions(8);
  options.faultPlan = &plan;
  RuntimeCluster cluster(options);
  cluster.start();
  for (std::size_t i = 0; i < 8; ++i) {
    if (i != 3) cluster.broadcast(i);
  }
  std::this_thread::sleep_for(20ms);  // let the crash window engage
  cluster.broadcast(0);               // born after the crash
  ASSERT_TRUE(cluster.awaitQuiescence(20s)) << cluster.lastQuiescenceReport();
  EXPECT_TRUE(cluster.nodeDown(3));
  cluster.stop();

  ASSERT_NE(cluster.faultController(), nullptr);
  const fault::FaultStats stats = cluster.faultController()->stats();
  EXPECT_EQ(stats.crashes, 1u);
  EXPECT_EQ(stats.restarts, 0u);
  const auto report = cluster.report();
  EXPECT_EQ(report.orderViolations, 0u);
  EXPECT_EQ(report.integrityViolations, 0u);
  // Agreement/validity judged over the correct processes only.
  EXPECT_TRUE(report.allPropertiesHold());
}

TEST(RuntimeFault, RestartedNodeRejoinsAndReconverges) {
  fault::FaultPlan plan;
  plan.crash(10'000, 2, /*restartAt=*/60'000);

  auto options = fastOptions(8);
  options.faultPlan = &plan;
  RuntimeCluster cluster(options);
  cluster.start();
  for (std::size_t i = 0; i < 8; ++i) cluster.broadcast(i);
  ASSERT_TRUE(cluster.awaitQuiescence(20s)) << cluster.lastQuiescenceReport();

  waitUntilUp(cluster, 2);
  // Traffic from a survivor must reach the reborn node (it is up, so it
  // owes the delivery) — this also catches its logical clock up.
  cluster.broadcast(0);
  ASSERT_TRUE(cluster.awaitQuiescence(20s)) << cluster.lastQuiescenceReport();
  // And the reborn node itself can broadcast again.
  cluster.broadcast(2);
  ASSERT_TRUE(cluster.awaitQuiescence(20s)) << cluster.lastQuiescenceReport();
  cluster.stop();

  const fault::FaultStats stats = cluster.faultController()->stats();
  EXPECT_EQ(stats.crashes, 1u);
  EXPECT_EQ(stats.restarts, 1u);
  const auto report = cluster.report();
  EXPECT_EQ(report.broadcasts, 10u);
  EXPECT_EQ(report.restarts, 1u);
  EXPECT_TRUE(report.allPropertiesHold())
      << "order=" << report.orderViolations << " holes=" << report.holes;
}

TEST(RuntimeFault, PartitionHealsAndReconverges) {
  // Island {0,1,2} vs the rest for 40ms starting 100ms in. A trickle of
  // broadcasts keeps balls in flight so the split is observable through
  // the drop counters regardless of scheduler speed (sanitizers slow the
  // run down by an order of magnitude); once the split provably bites,
  // one event is born on each side and must cross after the heal.
  fault::FaultPlan plan;
  plan.partition(100'000, 140'000, {0, 1, 2});

  auto options = fastOptions(8);
  options.faultPlan = &plan;
  // Node rounds are unsynchronized, so an event's ttl advances roughly
  // once per *node* round boundary along its fastest relay chain (each
  // hop increments, copies merge to the max) — in the 3-node island the
  // mid-split event ages ~3 ttl per round period, not 1. TTL must cover
  // (partition remainder + crossing) at that inflated rate: 200 keeps
  // the island copy relayable for ~200/3 round periods (~130ms), well
  // past the 36ms left of the split when the event is born.
  options.ttlOverride = 200;
  options.fanoutOverride = 7;  // full mesh: the 3-node island cannot lose
                               // its epidemic to unlucky peer sampling
  RuntimeCluster cluster(options);
  cluster.start();
  cluster.broadcast(0);  // converges before the split
  ASSERT_TRUE(cluster.awaitQuiescence(20s)) << cluster.lastQuiescenceReport();

  const auto deadline = std::chrono::steady_clock::now() + 20s;
  std::size_t turn = 0;
  while (cluster.faultController()->stats().partitionDrops == 0) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline) << "split never engaged";
    cluster.broadcast(++turn % 2 == 0 ? 1 : 5);
    std::this_thread::sleep_for(5ms);
  }
  cluster.broadcast(1);  // born mid-partition on the island side
  cluster.broadcast(5);  // born mid-partition on the majority side
  ASSERT_TRUE(cluster.awaitQuiescence(30s)) << cluster.lastQuiescenceReport();
  cluster.stop();

  EXPECT_GT(cluster.faultController()->stats().partitionDrops, 0u);
  EXPECT_GT(cluster.transportStats().faultDrops, 0u);
  const auto report = cluster.report();
  EXPECT_EQ(report.holes, 0u) << "partition did not re-converge";
  EXPECT_TRUE(report.allPropertiesHold());
}

TEST(RuntimeFault, StalledNodeCatchesUpFromItsMailbox) {
  fault::FaultPlan plan;
  plan.stall(5'000, 40'000, 4);  // ~17 rounds of GC pause

  auto options = fastOptions(8);
  options.faultPlan = &plan;
  RuntimeCluster cluster(options);
  cluster.start();
  for (std::size_t i = 0; i < 8; ++i) cluster.broadcast(i % 4);  // senders != 4
  ASSERT_TRUE(cluster.awaitQuiescence(30s)) << cluster.lastQuiescenceReport();
  cluster.stop();

  EXPECT_GE(cluster.faultController()->stats().stalls, 1u);
  EXPECT_EQ(cluster.faultController()->stats().crashes, 0u);
  const auto report = cluster.report();
  EXPECT_EQ(report.deliveries, 8u * 8u);  // the stalled node caught up
  EXPECT_TRUE(report.allPropertiesHold());
}

TEST(RuntimeFault, QuiescenceTimeoutNamesTheHoldouts) {
  // Node 1 is cut off from everyone for the whole run but stays up, so
  // it keeps owing every delivery — the wait must time out and say why.
  fault::FaultPlan plan;
  plan.partition(0, 3'600'000'000ULL, {1});

  auto options = fastOptions(4);
  options.faultPlan = &plan;
  RuntimeCluster cluster(options);
  cluster.start();
  cluster.broadcast(0);
  EXPECT_FALSE(cluster.awaitQuiescence(300ms));
  const std::string why = cluster.lastQuiescenceReport();
  EXPECT_NE(why.find("not yet delivered everywhere"), std::string::npos) << why;
  EXPECT_NE(why.find("missing at"), std::string::npos) << why;
  cluster.stop();
}

TEST(RuntimeFault, RejectsPlansReferencingUnknownNodes) {
  fault::FaultPlan plan;
  plan.crash(10, 9);  // node 9 of an 8-node cluster
  auto options = fastOptions(8);
  options.faultPlan = &plan;
  EXPECT_THROW(RuntimeCluster{options}, util::ContractViolation);
}

TEST(RuntimeFault, TransportValidatesItsOptions) {
  const auto make = [](InMemoryTransport::Options options) {
    InMemoryTransport transport{options, util::Rng{1}};
  };
  InMemoryTransport::Options bad;
  bad.lossRate = 1.0;
  EXPECT_THROW(make(bad), util::ContractViolation);
  bad = {};
  bad.corruptionRate = -0.1;
  EXPECT_THROW(make(bad), util::ContractViolation);
  bad = {};
  bad.minDelay = 5ms;
  bad.maxDelay = 1ms;  // inverted window
  EXPECT_THROW(make(bad), util::ContractViolation);
  bad = {};
  bad.minDelay = -1ms;
  EXPECT_THROW(make(bad), util::ContractViolation);

  InMemoryTransport::Options good;
  good.lossRate = 0.5;
  good.minDelay = 1ms;
  good.maxDelay = 1ms;  // degenerate but valid
  EXPECT_NO_THROW(make(good));
}

TEST(RuntimeFault, TransportJudgesLinkFatesAtTheCallersTimestamp) {
  fault::FaultPlan plan;
  plan.crash(100, 1);
  fault::FaultController controller{plan};
  InMemoryTransport transport{InMemoryTransport::Options{}, util::Rng{1}};
  transport.attachFaults(&controller);
  transport.registerEndpoint(1);
  transport.registerEndpoint(2);
  const auto ball = std::make_shared<const Ball>();
  transport.send(1, 2, ball, /*now=*/99);   // one tick before the crash
  transport.send(1, 2, ball, /*now=*/100);  // at the crash instant
  EXPECT_EQ(transport.stats().sent, 2u);
  EXPECT_EQ(transport.stats().faultDrops, 1u);
  EXPECT_EQ(transport.mailboxOf(2).drainReady(Clock::time_point::max()).size(), 1u);
  EXPECT_NO_THROW(transport.attachFaults(nullptr));  // detach is fine
}

// The crash/round race, played deterministically: a broadcast request
// parked at node 2 meets a round whose timestamp is exactly node 2's
// crash instant. The gate and the round read that one timestamp, so the
// node crashes instead of running the round: the request's event dies
// with it unsent, and nothing is charged to the ledger that no survivor
// could ever receive. (If the gate read an earlier clock than the sends,
// the round would charge the event to every live node, every copy would
// be cut as "from a crashed source", and the survivors would owe an
// event nobody holds.)
TEST(RuntimeFault, RoundAtTheCrashInstantChargesNothing) {
  // Far past anything the real clock reaches during the test, so only
  // the explicit timestamp can trip the gate.
  constexpr Timestamp kCrashAt = 3'600'000'000ULL;
  fault::FaultPlan plan;
  plan.crash(kCrashAt, 2);
  auto options = fastOptions(8);
  options.faultPlan = &plan;
  RuntimeCluster cluster(options);
  cluster.broadcast(2);  // parked for node 2's next round
  cluster.stepNode(2, kCrashAt);

  EXPECT_TRUE(cluster.nodeDown(2));
  EXPECT_EQ(cluster.faultController()->stats().crashes, 1u);
  EXPECT_EQ(cluster.broadcastCount(), 1u);      // the request still happened
  EXPECT_EQ(cluster.transportStats().sent, 0u);  // but no round ever ran
  EXPECT_TRUE(cluster.awaitQuiescence(0ms)) << cluster.lastQuiescenceReport();
  EXPECT_TRUE(cluster.report().allPropertiesHold());
}

// The other side of the same instant: a round one tick before the crash
// ships every copy (the link fates are judged at the round's timestamp,
// not at a later clock reading), so once the survivors run their rounds
// — stepped on one thread — everyone still up delivers the event.
TEST(RuntimeFault, RoundJustBeforeTheCrashShipsEveryCopy) {
  // The real clock is past this instant by the time any step runs, so
  // only the explicit timestamp keeps the source alive for its sends.
  constexpr Timestamp kCrashAt = 1;
  fault::FaultPlan plan;
  plan.crash(kCrashAt, 2);
  auto options = fastOptions(8);
  options.faultPlan = &plan;
  RuntimeCluster cluster(options);
  cluster.broadcast(2);
  cluster.stepNode(2, kCrashAt - 1);
  EXPECT_EQ(cluster.broadcastCount(), 1u);
  EXPECT_EQ(cluster.transportStats().faultDrops, 0u);
  EXPECT_GT(cluster.transportStats().sent, 0u);
  cluster.stepNode(2, kCrashAt);
  ASSERT_TRUE(cluster.nodeDown(2));

  constexpr Timestamp kPeriod = 2'000;
  for (Timestamp round = 1; round <= 200 && !cluster.awaitQuiescence(0ms); ++round) {
    for (std::size_t node = 0; node < 8; ++node) {
      if (node != 2) cluster.stepNode(node, kCrashAt + round * kPeriod);
    }
  }
  ASSERT_TRUE(cluster.awaitQuiescence(0ms)) << cluster.lastQuiescenceReport();
  const auto report = cluster.report();
  EXPECT_EQ(report.deliveries, 7u);
  EXPECT_TRUE(report.allPropertiesHold());
}

TEST(RuntimeFault, FaultCountersReachTheMetricsRegistry) {
  fault::FaultPlan plan;
  plan.crash(5'000, 1, /*restartAt=*/30'000);

  auto options = fastOptions(6);
  options.faultPlan = &plan;
  RuntimeCluster cluster(options);
  cluster.start();
  cluster.broadcast(0);
  ASSERT_TRUE(cluster.awaitQuiescence(20s));
  waitUntilUp(cluster, 1);
  cluster.stop();

  const std::string text = cluster.prometheusSnapshot();
  for (const char* family :
       {"epto_fault_crashes_total", "epto_fault_restarts_total",
        "epto_fault_stalls_total", "epto_fault_crash_drops_total",
        "epto_fault_partition_drops_total", "epto_fault_burst_drops_total",
        "epto_fault_delayed_messages_total", "epto_transport_fault_drops_total"}) {
    EXPECT_NE(text.find(family), std::string::npos) << "missing family: " << family;
  }
  EXPECT_NE(text.find("epto_fault_crashes_total 1"), std::string::npos);
}

// --- the same machinery over real UDP sockets ---------------------------

TEST(UdpFault, CrashRestartOverRealSockets) {
  fault::FaultPlan plan;
  plan.crash(15'000, 1, /*restartAt=*/80'000);

  UdpClusterOptions options;
  options.nodeCount = 5;
  options.roundPeriod = 3ms;
  options.seed = 7;
  options.faultPlan = &plan;
  UdpCluster cluster(options);
  cluster.start();
  for (std::size_t i = 0; i < 5; ++i) cluster.broadcast(i);
  ASSERT_TRUE(cluster.awaitQuiescence(30s)) << cluster.lastQuiescenceReport();

  waitUntilUp(cluster, 1);
  cluster.broadcast(0);  // the reborn node owes this one
  ASSERT_TRUE(cluster.awaitQuiescence(30s)) << cluster.lastQuiescenceReport();
  cluster.stop();

  ASSERT_NE(cluster.faultController(), nullptr);
  EXPECT_EQ(cluster.faultController()->stats().crashes, 1u);
  EXPECT_EQ(cluster.faultController()->stats().restarts, 1u);
  const auto report = cluster.report();
  EXPECT_EQ(report.restarts, 1u);
  EXPECT_TRUE(report.allPropertiesHold())
      << "order=" << report.orderViolations << " holes=" << report.holes;

  // Satellite: refused sendTo() calls are counted and exported instead of
  // being silently swallowed (zero on a healthy loopback run).
  const std::string text = cluster.prometheusSnapshot();
  EXPECT_NE(text.find("epto_udp_send_failures_total"), std::string::npos);
  EXPECT_EQ(cluster.sendFailures(), 0u);
}

TEST(UdpFault, DelaySpikesUseTheSenderHoldbackQueue) {
  // The spike covers the whole run (60s ≫ any sanitizer slowdown), so
  // every datagram goes through the sender's holdback queue.
  fault::FaultPlan plan;
  plan.delaySpike(0, 60'000'000, /*extraDelay=*/4'000);  // +4ms on every link

  UdpClusterOptions options;
  options.nodeCount = 5;
  options.roundPeriod = 3ms;
  options.seed = 7;
  options.faultPlan = &plan;
  UdpCluster cluster(options);
  cluster.start();
  for (std::size_t i = 0; i < 5; ++i) cluster.broadcast(i);
  ASSERT_TRUE(cluster.awaitQuiescence(30s)) << cluster.lastQuiescenceReport();
  cluster.stop();

  EXPECT_GT(cluster.faultController()->stats().delayedMessages, 0u);
  EXPECT_TRUE(cluster.report().allPropertiesHold());
}

TEST(UdpFault, RejectsPlansReferencingUnknownNodes) {
  fault::FaultPlan plan;
  plan.stall(10, 100, 7);
  UdpClusterOptions options;
  options.nodeCount = 4;
  options.faultPlan = &plan;
  EXPECT_THROW(UdpCluster{options}, util::ContractViolation);
}

}  // namespace
}  // namespace epto::runtime
