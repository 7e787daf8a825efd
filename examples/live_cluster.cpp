// A real multi-threaded EpTO cluster (§8.5) — no simulator.
//
// Ten nodes run on a pool of shard threads (one per hardware thread)
// with steady-clock rounds, exchanging balls through an in-memory
// transport that injects 5% loss and up to 3 ms of delay. Application
// threads fire broadcasts concurrently; the run ends with the Table 1
// verdict and throughput numbers.
//
// A background scrape thread appends the cluster's metric registry as
// JSONL to /tmp/live_cluster_metrics.jsonl while the run is in flight,
// and the run ends by printing an excerpt of the Prometheus snapshot.
//
// Build & run:   ./build/examples/live_cluster
#include <chrono>
#include <cstdio>
#include <sstream>
#include <thread>

#include "runtime/runtime_cluster.h"

int main() {
  using namespace epto;
  using namespace std::chrono_literals;

  runtime::RuntimeOptions options;
  options.nodeCount = 10;
  options.roundPeriod = 3ms;
  options.roundJitter = 0.10;
  options.clockMode = ClockMode::Logical;
  options.lossRate = 0.05;
  options.minDelay = 100us;
  options.maxDelay = 3ms;
  options.seed = 1234;
  options.scrapeInterval = 50ms;
  options.metricsOutPath = "/tmp/live_cluster_metrics.jsonl";

  runtime::RuntimeCluster cluster(options);
  std::printf("live_cluster: %zu nodes on %zu shard threads, round=%lldus, K=%zu, "
              "TTL=%u, 5%% loss\n",
              options.nodeCount, cluster.shardCountUsed(),
              static_cast<long long>(options.roundPeriod.count()),
              cluster.fanoutUsed(), cluster.ttlUsed());

  cluster.start();

  // Three concurrent application threads, each broadcasting through a
  // different subset of nodes.
  std::vector<std::thread> apps;
  for (int app = 0; app < 3; ++app) {
    apps.emplace_back([&cluster, app, &options] {
      for (int i = 0; i < 10; ++i) {
        cluster.broadcast(static_cast<std::size_t>(app * 3 + i) % options.nodeCount);
        std::this_thread::sleep_for(2ms);
      }
    });
  }
  for (auto& t : apps) t.join();

  const bool drained = cluster.awaitQuiescence(30s);
  cluster.stop();

  const auto report = cluster.report();
  const auto transport = cluster.transportStats();
  std::printf("\nbroadcasts=%llu deliveries=%llu (expected %llu)\n",
              static_cast<unsigned long long>(report.broadcasts),
              static_cast<unsigned long long>(report.deliveries),
              static_cast<unsigned long long>(report.broadcasts * options.nodeCount));
  std::printf("transport: %llu balls sent, %llu dropped by loss injection\n",
              static_cast<unsigned long long>(transport.sent),
              static_cast<unsigned long long>(transport.dropped));
  if (!report.delays.empty()) {
    std::printf("delivery delay: p50=%.1fms p99=%.1fms\n",
                static_cast<double>(report.delays.percentile(0.5)) / 1000.0,
                static_cast<double>(report.delays.percentile(0.99)) / 1000.0);
  }
  // Prometheus-text excerpt: the per-node delivery counters plus the
  // transport totals (full output is one line per node per metric).
  std::printf("\nmetrics (excerpt of the Prometheus snapshot; full JSONL series in\n"
              "%s, %llu scrapes):\n",
              options.metricsOutPath.c_str(),
              static_cast<unsigned long long>(cluster.scrapeCount()));
  std::istringstream snapshot(cluster.prometheusSnapshot());
  for (std::string line; std::getline(snapshot, line);) {
    if (line.find("epto_ordering_delivered_ordered_total") != std::string::npos ||
        line.find("epto_transport_") == 0 || line.rfind("# TYPE epto_transport", 0) == 0) {
      std::printf("  %s\n", line.c_str());
    }
  }

  std::printf("Table 1 verdict: integrity=%llu order=%llu validity=%llu holes=%llu\n",
              static_cast<unsigned long long>(report.integrityViolations),
              static_cast<unsigned long long>(report.orderViolations),
              static_cast<unsigned long long>(report.validityViolations),
              static_cast<unsigned long long>(report.holes));
  std::printf("result: %s\n",
              drained && report.allPropertiesHold() ? "OK — total order held on real "
                                                      "threads under loss and delay"
                                                    : "FAILED");
  return drained && report.allPropertiesHold() ? 0 : 1;
}
