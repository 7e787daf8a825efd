// BM_RuntimeThroughput — node density of the sharded runtime executor
// against a single shard (DESIGN.md §16, EXPERIMENTS.md "Runtime
// executor density bench").
//
// Four conditions over real loopback sockets, each density at its own
// paper-derived K/TTL (identical within a pair, so each one-shard-vs-
// sharded pair isolates executor overhead):
//
//   one_shard         N0 nodes, all on one shard thread
//   sharded           N0 nodes on the default shard pool
//   one_shard_dense   factor*N0 nodes, all on one shard thread
//   sharded_dense     factor*N0 nodes on the default shard pool
//
// (Cross-density latency is protocol, not executor: TTL grows with n,
// and at small n the fanout clamps to n-1 and the stability oracle
// short-circuits well before the TTL floor. Pinning one global K/TTL
// instead would run the dense cluster below the paper's dissemination
// margin — a few (event, node) pairs go extinct under burst loss — so
// the gate compares within each density pair only.)
//
// Each condition broadcasts one event per node, runs to quiescence, and
// reports wall clock, deliveries/sec and delivery-latency percentiles
// (broadcast to delivery, microseconds). The bench is self-gating:
// unless --no-gate, the binary exits 1 when any condition breaks a
// Table 1 verdict or when a sharded condition's p50 exceeds its
// same-density one-shard twin by more than --gate-tolerance (default
// 10%) — spreading the nodes over the shard pool must never cost
// latency against driving them all from one thread.
//
// With --bench-json=<path>, appends one epto.bench.runtime/1 JSONL
// record; bench/perf/check_regression.py compares it against the
// checked-in bench/perf/BENCH_runtime.json.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "obs/exporters.h"
#include "runtime/udp_cluster.h"

namespace {

using namespace epto;
using namespace std::chrono_literals;

struct Args {
  std::uint64_t seed = 42;
  std::size_t baselineNodes = 6;
  std::size_t densityFactor = 10;
  std::string benchJson;
  bool smoke = false;
  bool gate = true;
  double gateTolerance = 0.10;
};

[[noreturn]] void printUsageAndExit(const char* argv0, int code) {
  std::FILE* out = code == 0 ? stdout : stderr;
  std::fprintf(out,
               "usage: %s [options]\n"
               "  --seed=<n>            master RNG seed (default 42)\n"
               "  --nodes=<n>           baseline node count N0 (default 6)\n"
               "  --density-factor=<n>  sharded_dense runs factor*N0 nodes (default 10)\n"
               "  --bench-json=<path>   append one epto.bench.runtime/1 JSONL record\n"
               "  --gate-tolerance=<r>  allowed relative p50 excess of a sharded condition\n"
               "                        over its one-shard twin (default 0.10)\n"
               "  --smoke               smaller/faster sizes for the CI smoke job\n"
               "  --no-gate             report only, never exit 1 on the latency gate\n"
               "  --help                print this message and exit\n",
               argv0);
  std::exit(code);
}

Args parseArgs(int argc, char** argv) {
  Args args;
  const auto numeric = [&](const char* flag, const char* value) {
    char* end = nullptr;
    const std::uint64_t parsed = std::strtoull(value, &end, 10);
    if (*value == '\0' || end == nullptr || *end != '\0') {
      std::fprintf(stderr, "%s: %s expects a number, got \"%s\"\n", argv[0], flag, value);
      printUsageAndExit(argv[0], 2);
    }
    return parsed;
  };
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--seed=", 7) == 0) {
      args.seed = numeric("--seed", argv[i] + 7);
    } else if (std::strncmp(argv[i], "--nodes=", 8) == 0) {
      args.baselineNodes = numeric("--nodes", argv[i] + 8);
    } else if (std::strncmp(argv[i], "--density-factor=", 17) == 0) {
      args.densityFactor = numeric("--density-factor", argv[i] + 17);
    } else if (std::strncmp(argv[i], "--bench-json=", 13) == 0) {
      args.benchJson = argv[i] + 13;
    } else if (std::strncmp(argv[i], "--gate-tolerance=", 17) == 0) {
      args.gateTolerance = std::strtod(argv[i] + 17, nullptr);
    } else if (std::strcmp(argv[i], "--smoke") == 0) {
      args.smoke = true;
    } else if (std::strcmp(argv[i], "--no-gate") == 0) {
      args.gate = false;
    } else if (std::strcmp(argv[i], "--help") == 0 || std::strcmp(argv[i], "-h") == 0) {
      printUsageAndExit(argv[0], 0);
    } else {
      std::fprintf(stderr, "%s: unknown flag: %s\n", argv[0], argv[i]);
      printUsageAndExit(argv[0], 2);
    }
  }
  if (args.baselineNodes < 2 || args.densityFactor < 1) {
    std::fprintf(stderr, "%s: need --nodes >= 2 and --density-factor >= 1\n", argv[0]);
    printUsageAndExit(argv[0], 2);
  }
  if (args.smoke) {
    args.baselineNodes = std::min<std::size_t>(args.baselineNodes, 4);
  }
  return args;
}

struct Condition {
  std::string label;
  std::size_t nodes = 0;
  /// Worker shards; 0 = the executor default (one per hardware thread).
  std::size_t shards = 0;
};

struct ConditionResult {
  metrics::TrackerReport report;
  bool quiescent = false;
  double wallSeconds = 0.0;
  std::size_t shards = 0;
  std::uint64_t p50 = 0;  ///< delivery latency percentiles, microseconds
  std::uint64_t p95 = 0;
  std::uint64_t p99 = 0;
  double eventsPerSecond = 0.0;
  std::uint64_t sendRetries = 0;
  std::uint64_t sendFailures = 0;
  std::uint64_t ingressShed = 0;
  std::uint64_t watchdogRecoveries = 0;

  [[nodiscard]] bool green() const { return quiescent && report.allPropertiesHold(); }
};

ConditionResult runCondition(const Condition& condition, const Args& args) {
  runtime::UdpClusterOptions options;
  options.nodeCount = condition.nodes;
  // Round period scales with density: the machine fixes how much round
  // work fits in one period, so factor x the nodes needs factor x the
  // period or BOTH conditions run overdriven (constant watchdog
  // recoveries). Within a density pair the period is identical, so the
  // gate still compares shard layouts, not schedules.
  const auto basePeriod = args.smoke ? 4ms : 6ms;
  options.roundPeriod =
      basePeriod * std::max<std::size_t>(1, condition.nodes / args.baselineNodes);
  options.seed = args.seed;
  options.shardCount = condition.shards;
  runtime::UdpCluster cluster(options);

  const auto start = std::chrono::steady_clock::now();
  cluster.start();
  for (std::size_t i = 0; i < condition.nodes; ++i) cluster.broadcast(i);
  ConditionResult result;
  result.quiescent = cluster.awaitQuiescence(120s);
  cluster.stop();
  result.wallSeconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  result.report = cluster.report();
  result.shards = cluster.shardCountUsed();
  result.sendRetries = cluster.sendRetries();
  result.sendFailures = cluster.sendFailures();
  result.ingressShed = cluster.ingressShed();
  result.watchdogRecoveries = cluster.watchdogRecoveries();
  if (!result.report.delays.empty()) {
    result.p50 = result.report.delays.percentile(0.50);
    result.p95 = result.report.delays.percentile(0.95);
    result.p99 = result.report.delays.percentile(0.99);
  }
  result.eventsPerSecond =
      result.wallSeconds > 0.0
          ? static_cast<double>(result.report.deliveries) / result.wallSeconds
          : 0.0;
  if (!result.quiescent) {
    std::fprintf(stderr, "%s: quiescence timeout: %s\n", condition.label.c_str(),
                 cluster.lastQuiescenceReport().c_str());
  }
  return result;
}

void printCondition(const Condition& condition, const ConditionResult& result) {
  std::printf(
      "%s nodes=%zu shards=%zu wall_s=%.3f events=%llu deliveries=%llu "
      "events_per_s=%.0f p50_us=%llu p95_us=%llu p99_us=%llu\n",
      condition.label.c_str(), condition.nodes, result.shards, result.wallSeconds,
      static_cast<unsigned long long>(result.report.eventsMeasured),
      static_cast<unsigned long long>(result.report.deliveries),
      result.eventsPerSecond, static_cast<unsigned long long>(result.p50),
      static_cast<unsigned long long>(result.p95),
      static_cast<unsigned long long>(result.p99));
  std::printf(
      "%s transport send_retries=%llu send_failures=%llu ingress_shed=%llu "
      "watchdog_recoveries=%llu\n",
      condition.label.c_str(), static_cast<unsigned long long>(result.sendRetries),
      static_cast<unsigned long long>(result.sendFailures),
      static_cast<unsigned long long>(result.ingressShed),
      static_cast<unsigned long long>(result.watchdogRecoveries));
  std::printf(
      "%s verdict holes=%llu order_violations=%llu integrity_violations=%llu "
      "validity_violations=%llu quiescent=%s\n",
      condition.label.c_str(),
      static_cast<unsigned long long>(result.report.holes),
      static_cast<unsigned long long>(result.report.orderViolations),
      static_cast<unsigned long long>(result.report.integrityViolations),
      static_cast<unsigned long long>(result.report.validityViolations),
      result.quiescent ? "true" : "false");
  std::fflush(stdout);
}

void writeBenchJson(const Args& args, const std::vector<Condition>& conditions,
                    const std::vector<ConditionResult>& results, bool densityOk) {
  if (args.benchJson.empty()) return;
  std::FILE* out = std::fopen(args.benchJson.c_str(), "a");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot open bench json output: %s\n", args.benchJson.c_str());
    std::exit(2);
  }
  std::string line = "{\"schema\":\"epto.bench.runtime/1\",\"binary\":\"bench_runtime\"";
  line += ",\"seed\":" + std::to_string(args.seed);
  line += ",\"baseline_nodes\":" + std::to_string(args.baselineNodes);
  line += ",\"density_factor\":" + std::to_string(args.densityFactor);
  line += ",\"conditions\":[";
  char buf[64];
  for (std::size_t i = 0; i < conditions.size(); ++i) {
    if (i != 0) line += ',';
    line += "{\"label\":\"" + obs::escape(conditions[i].label) + "\"";
    line += ",\"nodes\":" + std::to_string(conditions[i].nodes);
    line += ",\"shards\":" + std::to_string(results[i].shards);
    std::snprintf(buf, sizeof buf, "%.3f", results[i].wallSeconds);
    line += ",\"wall_s\":";
    line += buf;
    line += ",\"events\":" + std::to_string(results[i].report.eventsMeasured);
    line += ",\"deliveries\":" + std::to_string(results[i].report.deliveries);
    std::snprintf(buf, sizeof buf, "%.0f", results[i].eventsPerSecond);
    line += ",\"events_per_s\":";
    line += buf;
    line += ",\"p50_us\":" + std::to_string(results[i].p50);
    line += ",\"p95_us\":" + std::to_string(results[i].p95);
    line += ",\"p99_us\":" + std::to_string(results[i].p99);
    line += std::string(",\"green\":") + (results[i].green() ? "true" : "false");
    line += "}";
  }
  line += "],\"density_ok\":";
  line += densityOk ? "true" : "false";
  line += "}\n";
  std::fputs(line.c_str(), out);
  std::fclose(out);
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parseArgs(argc, argv);
  const std::size_t denseNodes = args.baselineNodes * args.densityFactor;
  std::printf("# BM_RuntimeThroughput — sharded executor node density\n");
  std::printf("# seed=%llu N0=%zu factor=%zu (K/TTL derived per density)%s\n",
              static_cast<unsigned long long>(args.seed), args.baselineNodes,
              args.densityFactor, args.smoke ? " (smoke)" : "");

  const std::vector<Condition> conditions = {
      {"one_shard", args.baselineNodes, 1},
      {"sharded", args.baselineNodes, 0},
      {"one_shard_dense", denseNodes, 1},
      {"sharded_dense", denseNodes, 0},
  };
  std::vector<ConditionResult> results;
  bool allGreen = true;
  for (const Condition& condition : conditions) {
    results.push_back(runCondition(condition, args));
    printCondition(condition, results.back());
    if (!results.back().green()) allGreen = false;
  }

  // Within each density, sharded must be no slower than the same-density
  // one-shard twin (plus tolerance).
  bool densityOk = allGreen;
  for (std::size_t pair = 0; pair < 2; ++pair) {
    const ConditionResult& oneShard = results[pair * 2];
    const ConditionResult& sharded = results[pair * 2 + 1];
    const double allowed =
        static_cast<double>(oneShard.p50) * (1.0 + args.gateTolerance);
    const bool ok = static_cast<double>(sharded.p50) <= allowed;
    if (!ok) densityOk = false;
    std::printf("gate %s p50=%lluus vs %s p50=%lluus (tolerance %.0f%%): %s\n",
                conditions[pair * 2 + 1].label.c_str(),
                static_cast<unsigned long long>(sharded.p50),
                conditions[pair * 2].label.c_str(),
                static_cast<unsigned long long>(oneShard.p50),
                args.gateTolerance * 100.0, ok ? "ok" : "FAIL");
  }
  const ConditionResult& dense = results[3];
  std::printf(
      "headline sharded executor ran %zux node density (%zu nodes on %zu shards) "
      "at latency no worse than one shard: %s; dense throughput %.0f deliveries/s\n",
      args.densityFactor, denseNodes, dense.shards, densityOk ? "PASS" : "FAIL",
      dense.eventsPerSecond);

  writeBenchJson(args, conditions, results, densityOk);
  if (!allGreen) return 1;
  return args.gate && !densityOk ? 1 : 0;
}
