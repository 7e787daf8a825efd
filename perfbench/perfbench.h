// Shared types of the EpTO benchmark binary: command-line arguments, the
// metric list a run reports, and the generated open-loop input schedule.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/types.h"
#include "workload/experiment.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Where the traced run writes its spans (empty = keep them in memory only).
  std::string spansOut;
};

/// One reported figure. An empty value means the workload bypasses the
/// layer or phase the metric describes ("n/a" in the human table).
struct Metric {
  std::string name;
  std::optional<double> value;
  std::string unit;
};

struct Result {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> notes;

  void set(const std::string& name, std::optional<double> value, const std::string& unit) {
    metrics.push_back(Metric{name, value, unit});
  }
  /// A correctness failure: the run's outputs are wrong.
  void fail(const std::string& note) {
    correct = false;
    notes.push_back("FAIL: " + note);
  }
  void note(const std::string& text) { notes.push_back(text); }
};

/// The UDP workloads: a sharded UdpCluster driven open-loop.
struct UdpWorkload {
  const char* name = "";
  std::size_t nodes = 32;
  std::size_t payloadBytes = 0;
  /// Offered load of the latency/CPU phase, broadcasts per second.
  double nominalRate = 0.0;
};

/// One scheduled broadcast: node `node` broadcasts its `seq`-th event
/// `dueNs` after the trial starts, which is EventId{node, seq}.
struct Arrival {
  std::int64_t dueNs = 0;
  std::uint32_t node = 0;
  std::uint32_t seq = 0;
};

/// rate x window Poisson arrivals over `windowSeconds`, targets drawn
/// uniformly from `nodes`. A pure function of its arguments, so every run
/// with one seed offers one input.
struct Schedule {
  std::vector<Arrival> arrivals;
  /// dueNs of EventId{i, k} at offsets[i] + k.
  std::vector<std::int64_t> dueByEvent;
  std::vector<std::size_t> offsets;
  std::vector<epto::PayloadPtr> payloads;  ///< parallel to arrivals; null when empty.

  [[nodiscard]] std::int64_t due(const epto::EventId& id) const {
    return dueByEvent[offsets[id.source] + id.sequence];
  }
};
Schedule makeSchedule(std::uint64_t seed, double rate, double windowSeconds,
                      std::size_t nodes, std::size_t payloadBytes);

/// Percentile (nearest rank) of an unsorted sample; sorts in place.
double percentile(std::vector<double>& values, double p);
double median(std::vector<double> values);
/// Process CPU time (user + system) in seconds.
double cpuSeconds();
/// Peak resident set size of the process in MiB.
double peakRssMb();
/// Shard threads for the UDP cluster and the traced host: all cores but
/// two, one of them the generator's.
std::size_t shardCount();

/// The sim_scale experiment on `seed` (shared by the untraced and traced runs).
epto::workload::ExperimentConfig simScaleConfig(std::uint64_t seed);

/// Runtime-layer figures of one untraced cluster trial at the nominal
/// rate, reported by the traced run: the counters and registry
/// histograms the benchmark's own host does not have.
struct ClusterFigures {
  bool safe = false;  ///< integrity and total order held.
  std::string verdict;
  double recvBatchP50 = 0.0;
  double sendBatchP50 = 0.0;
  double broadcastCallNsP99 = 0.0;
  std::uint64_t watchdogRecoveries = 0;
  std::uint64_t ingressShed = 0;
  std::uint64_t ingressHighWater = 0;
  std::uint64_t mailboxPostRejections = 0;
  std::uint64_t sendRetries = 0;
  std::uint64_t framesRejected = 0;
};
ClusterFigures nominalClusterFigures(const UdpWorkload& workload, std::uint64_t seed,
                                     double windowSeconds);

Result runUdpWorkload(const Args& args, const UdpWorkload& workload);
Result traceUdpWorkload(const Args& args, const UdpWorkload& workload);
Result runSimWorkload(const Args& args);
Result traceSimWorkload(const Args& args);

}  // namespace perfbench
