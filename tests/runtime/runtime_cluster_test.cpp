// End-to-end tests of the in-memory runtime (§8.5): real shard threads,
// steady clocks, loss/delay-injecting transport — the asynchrony the
// discrete simulator serializes away.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "runtime/runtime_cluster.h"
#include "util/ensure.h"

namespace epto::runtime {
namespace {

using namespace std::chrono_literals;

RuntimeOptions fastOptions(std::size_t nodes) {
  RuntimeOptions options;
  options.nodeCount = nodes;
  options.roundPeriod = 2ms;  // fast rounds keep tests quick
  options.clockMode = ClockMode::Logical;
  options.seed = 7;
  return options;
}

TEST(RuntimeCluster, DeliversEverythingEverywhereInOrder) {
  RuntimeCluster cluster(fastOptions(8));
  cluster.start();
  for (std::size_t i = 0; i < 8; ++i) cluster.broadcast(i);
  ASSERT_TRUE(cluster.awaitQuiescence(15s));
  cluster.stop();
  const auto report = cluster.report();
  EXPECT_EQ(report.broadcasts, 8u);
  EXPECT_EQ(report.deliveries, 8u * 8u);
  EXPECT_EQ(report.orderViolations, 0u);
  EXPECT_EQ(report.integrityViolations, 0u);
  EXPECT_EQ(report.validityViolations, 0u);
  EXPECT_EQ(report.holes, 0u);
}

// The executor differential: the same seed and broadcasts, once as a
// one-shard schedule played on the calling thread (each node stepped in
// turn, ingest before its round) and once on the executor's default
// shard pool. Both must deliver everything everywhere with every Table 1
// property intact.
TEST(RuntimeCluster, OneShardScheduleAndShardedRunAgree) {
  RuntimeCluster stepped(fastOptions(8));
  for (std::size_t i = 0; i < 8; ++i) stepped.broadcast(i);
  for (Timestamp round = 1; round <= 200 && !stepped.awaitQuiescence(0ms); ++round) {
    for (std::size_t node = 0; node < 8; ++node) stepped.stepNode(node, round * 2'000);
  }
  ASSERT_TRUE(stepped.awaitQuiescence(0ms)) << stepped.lastQuiescenceReport();

  RuntimeCluster sharded(fastOptions(8));
  sharded.start();
  for (std::size_t i = 0; i < 8; ++i) sharded.broadcast(i);
  ASSERT_TRUE(sharded.awaitQuiescence(15s)) << sharded.lastQuiescenceReport();
  sharded.stop();
  EXPECT_GE(sharded.shardCountUsed(), 1u);

  for (const RuntimeCluster* cluster : {&stepped, &sharded}) {
    const auto report = cluster->report();
    EXPECT_EQ(report.broadcasts, 8u);
    EXPECT_EQ(report.deliveries, 8u * 8u);
    EXPECT_TRUE(report.allPropertiesHold());
  }
}

TEST(RuntimeCluster, StepNodeIsRefusedWhileShardsRun) {
  RuntimeCluster cluster(fastOptions(4));
  cluster.start();
  EXPECT_THROW(cluster.stepNode(0, 1'000), util::ContractViolation);
  cluster.stop();
}

TEST(RuntimeCluster, SurvivesMessageLossAndDelay) {
  auto options = fastOptions(8);
  options.lossRate = 0.10;
  options.minDelay = 200us;
  options.maxDelay = 2ms;
  RuntimeCluster cluster(options);
  cluster.start();
  for (std::size_t i = 0; i < 8; ++i) {
    cluster.broadcast(i % 8);
    std::this_thread::sleep_for(1ms);
  }
  ASSERT_TRUE(cluster.awaitQuiescence(20s));
  cluster.stop();
  const auto report = cluster.report();
  EXPECT_EQ(report.orderViolations, 0u);
  EXPECT_EQ(report.integrityViolations, 0u);
  EXPECT_EQ(report.holes, 0u);
  EXPECT_GT(cluster.transportStats().dropped, 0u);
}

TEST(RuntimeCluster, GlobalClockModeWorksWithSharedSteadyClock) {
  auto options = fastOptions(6);
  options.clockMode = ClockMode::Global;
  RuntimeCluster cluster(options);
  cluster.start();
  for (std::size_t i = 0; i < 6; ++i) cluster.broadcast(i);
  ASSERT_TRUE(cluster.awaitQuiescence(15s));
  cluster.stop();
  const auto report = cluster.report();
  EXPECT_EQ(report.deliveries, 6u * 6u);
  EXPECT_EQ(report.orderViolations, 0u);
  EXPECT_EQ(report.holes, 0u);
}

TEST(RuntimeCluster, ConcurrentBroadcastersFromManyThreads) {
  RuntimeCluster cluster(fastOptions(6));
  cluster.start();
  std::vector<std::thread> apps;
  for (std::size_t node = 0; node < 6; ++node) {
    apps.emplace_back([&cluster, node] {
      for (int i = 0; i < 3; ++i) cluster.broadcast(node);
    });
  }
  for (auto& t : apps) t.join();
  ASSERT_TRUE(cluster.awaitQuiescence(20s));
  cluster.stop();
  const auto report = cluster.report();
  EXPECT_EQ(report.broadcasts, 18u);
  EXPECT_EQ(report.deliveries, 18u * 6u);
  EXPECT_EQ(report.orderViolations, 0u);
  EXPECT_EQ(report.integrityViolations, 0u);
}

TEST(RuntimeCluster, SerializedFramesRoundTripEndToEnd) {
  // Balls travel as wire-codec frames: serialize on send, CRC-validate
  // and decode on receive. Everything must still deliver in order.
  auto options = fastOptions(8);
  options.serializeFrames = true;
  RuntimeCluster cluster(options);
  cluster.start();
  for (std::size_t i = 0; i < 8; ++i) cluster.broadcast(i);
  ASSERT_TRUE(cluster.awaitQuiescence(15s));
  cluster.stop();
  const auto report = cluster.report();
  EXPECT_EQ(report.deliveries, 8u * 8u);
  EXPECT_TRUE(report.allPropertiesHold());
  EXPECT_GT(cluster.transportStats().bytesSent, 0u);
  EXPECT_EQ(cluster.transportStats().framesRejected, 0u);
}

TEST(RuntimeCluster, CorruptedFramesAreDetectedAndDropped) {
  auto options = fastOptions(8);
  options.serializeFrames = true;
  options.corruptionRate = 0.15;  // 15% of frames get a bit flipped
  RuntimeCluster cluster(options);
  cluster.start();
  for (std::size_t i = 0; i < 8; ++i) cluster.broadcast(i);
  ASSERT_TRUE(cluster.awaitQuiescence(20s));
  cluster.stop();
  const auto report = cluster.report();
  // Corruption behaves exactly like loss: detected, dropped, absorbed by
  // the protocol's redundancy — never an order or integrity violation.
  EXPECT_TRUE(report.allPropertiesHold());
  EXPECT_GT(cluster.transportStats().framesRejected, 0u);
}

TEST(RuntimeCluster, StopIsIdempotentAndDestructorSafe) {
  RuntimeCluster cluster(fastOptions(4));
  cluster.start();
  cluster.broadcast(0);
  cluster.stop();
  cluster.stop();  // no-op
  // Destructor runs stop() again — must not hang or crash.
}

TEST(RuntimeCluster, ReportBeforeAnyTrafficIsClean) {
  RuntimeCluster cluster(fastOptions(4));
  const auto report = cluster.report();
  EXPECT_EQ(report.broadcasts, 0u);
  EXPECT_TRUE(report.allPropertiesHold());
}

TEST(RuntimeCluster, DerivedParametersExposed) {
  RuntimeCluster cluster(fastOptions(8));
  EXPECT_GE(cluster.fanoutUsed(), 1u);
  EXPECT_LE(cluster.fanoutUsed(), 7u);
  EXPECT_GE(cluster.ttlUsed(), 1u);
}

TEST(RuntimeCluster, PrometheusSnapshotCoversEveryProtocolCounter) {
  RuntimeCluster cluster(fastOptions(4));
  cluster.start();
  for (std::size_t i = 0; i < 4; ++i) cluster.broadcast(i);
  ASSERT_TRUE(cluster.awaitQuiescence(15s));
  cluster.stop();

  const std::string text = cluster.prometheusSnapshot();
  // Every OrderingStats / DisseminationStats counter plus the transport
  // totals must appear as a Prometheus family (the acceptance bar).
  for (const char* family :
       {"epto_ordering_rounds_total", "epto_ordering_delivered_ordered_total",
        "epto_ordering_delivered_out_of_order_total",
        "epto_ordering_dropped_out_of_order_total",
        "epto_ordering_dropped_duplicates_total", "epto_ordering_ttl_merges_total",
        "epto_ordering_received_high_water", "epto_dissemination_broadcasts_total",
        "epto_dissemination_balls_received_total", "epto_dissemination_balls_sent_total",
        "epto_dissemination_events_relayed_total",
        "epto_dissemination_events_expired_total", "epto_dissemination_rounds_total",
        "epto_dissemination_max_ball_size", "epto_received_set_size",
        "epto_pending_relay_count", "epto_last_delivered_ts", "epto_last_delivered_lag",
        "epto_transport_sent_total", "epto_transport_bytes_sent_total"}) {
    EXPECT_NE(text.find(std::string("# TYPE ") + family + " "), std::string::npos)
        << "missing family: " << family;
  }
  // Per-node labeling: each of the four nodes reports its delivery count.
  for (int node = 0; node < 4; ++node) {
    const std::string line = "epto_ordering_delivered_ordered_total{node=\"" +
                             std::to_string(node) + "\"} 4";
    EXPECT_NE(text.find(line), std::string::npos) << "missing: " << line;
  }
}

TEST(RuntimeCluster, BackgroundScrapeWritesJsonlSeries) {
  const std::string path = ::testing::TempDir() + "epto_runtime_scrape_test.jsonl";
  std::remove(path.c_str());
  {
    auto options = fastOptions(4);
    options.scrapeInterval = 5ms;
    options.metricsOutPath = path;
    RuntimeCluster cluster(options);
    cluster.start();
    for (std::size_t i = 0; i < 4; ++i) cluster.broadcast(i);
    ASSERT_TRUE(cluster.awaitQuiescence(15s));
    cluster.stop();
    EXPECT_GE(cluster.scrapeCount(), 1u);
  }
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::vector<std::string> lines;
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  ASSERT_FALSE(lines.empty());
  for (const std::string& line : lines) {
    EXPECT_EQ(line.front(), '{');
    EXPECT_EQ(line.back(), '}');
    EXPECT_NE(line.find("\"ts\":"), std::string::npos);
    EXPECT_NE(line.find("\"samples\":["), std::string::npos);
  }
  // The final scrape (written by stop()) carries the finished run: every
  // node delivered all four broadcasts.
  EXPECT_NE(lines.back().find("epto_ordering_delivered_ordered_total"),
            std::string::npos);
  std::remove(path.c_str());
}

TEST(RuntimeCluster, RejectsBadOptions) {
  RuntimeOptions options;
  options.nodeCount = 1;
  EXPECT_THROW(RuntimeCluster{options}, util::ContractViolation);
}

}  // namespace
}  // namespace epto::runtime
