// The untraced UDP workloads: a sharded runtime::UdpCluster driven by one
// open-loop generator thread, first at the workload's nominal rate (the
// latency and CPU figures), then at rising rates until a trial breaks
// (the saturation knee). End-to-end metrics come only from here.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <string>
#include <thread>

#include "perfbench.h"
#include "runtime/udp_cluster.h"

namespace perfbench {
namespace {

using namespace std::chrono_literals;

/// The latency limit of the knee: p99 from the due time.
constexpr double kLatencyLimitMs = 100.0;
/// The generator fell behind its schedule — the offered load was not the
/// load the trial claims — when more than 1% of its broadcasts (and more
/// than one) started over kGeneratorLateMs after they were due. A single
/// late broadcast is a scheduling stall of the host, not a backlog.
constexpr double kGeneratorLateMs = 10.0;
/// Attempts at the nominal trial before a generator that keeps falling
/// behind fails the run.
constexpr int kNominalAttempts = 3;
/// Knee ladder: rates grow by kStep from the nominal rate until a trial
/// fails, then the bracket is bisected kBisections times (geometrically).
constexpr double kStep = 1.5;
constexpr int kBisections = 4;
constexpr int kMaxLadderTrials = 8;
/// Latency percentiles are taken per slice of a trial window: up to
/// kMaxSlices slices of at least kPairsPerSlice (event, node) pairs, so
/// each slice's p99 has at least ten samples beyond it.
constexpr std::size_t kMaxSlices = 5;
constexpr std::uint64_t kPairsPerSlice = 1024;
/// Upper bound on a run's knee-search deadline, well inside the 180 s a
/// benchmark run may take.
constexpr double kMaxRunSeconds = 110.0;
/// Set-ups timed at the start of a run, on an otherwise idle process:
/// a trial's own set-up follows the previous trial's teardown (often an
/// overload) and took twice as long, with a wide scatter.
constexpr int kSetupSamples = 31;

struct Trial {
  double rate = 0.0;
  std::size_t events = 0;
  std::uint64_t expectedPairs = 0;
  std::uint64_t deliveredPairs = 0;
  bool quiescent = false;
  epto::metrics::TrackerReport report;
  double p50Ms = 0.0;
  double p99Ms = 0.0;  ///< missing (event, node) pairs count as infinitely late.
  double generatorLateP99Ms = 0.0;
  std::size_t lateBroadcasts = 0;  ///< started over kGeneratorLateMs late.
  double cpuSeconds = 0.0;
  double windowSeconds = 0.0;
  double roundsPerSecond = 0.0;
  std::vector<double> broadcastCallNs;
  double recvBatchP50 = 0.0;
  double sendBatchP50 = 0.0;
  std::uint64_t watchdogRecoveries = 0;
  std::uint64_t ingressShed = 0;
  std::uint64_t ingressHighWater = 0;
  std::uint64_t mailboxPostRejections = 0;
  std::uint64_t sendRetries = 0;
  std::uint64_t framesRejected = 0;

  [[nodiscard]] bool generatorBehind() const {
    return lateBroadcasts > std::max<std::size_t>(1, events / 100);
  }
  /// Integrity and total order never break, even in overload.
  [[nodiscard]] bool safe() const {
    return report.integrityViolations == 0 && report.orderViolations == 0;
  }
  [[nodiscard]] std::uint64_t violations() const {
    return report.integrityViolations + report.orderViolations +
           report.validityViolations + report.holes;
  }
  /// The knee conditions: latency limit, no growing backlog (everything
  /// due was delivered), every Table 1 verdict holds, offered load real.
  [[nodiscard]] bool passes() const {
    return p99Ms <= kLatencyLimitMs && quiescent && deliveredPairs == expectedPairs &&
           report.allPropertiesHold() && !generatorBehind();
  }
  [[nodiscard]] std::string verdict() const {
    char text[256];
    std::snprintf(text, sizeof text,
                  "rate=%.1f/s events=%zu p50=%.2fms p99=%.2fms delivered=%llu/%llu "
                  "quiescent=%d table1=%d generator_late_p99=%.2fms watchdog=%llu -> %s",
                  rate, events, p50Ms, p99Ms,
                  static_cast<unsigned long long>(deliveredPairs),
                  static_cast<unsigned long long>(expectedPairs), quiescent ? 1 : 0,
                  report.allPropertiesHold() ? 1 : 0, generatorLateP99Ms,
                  static_cast<unsigned long long>(watchdogRecoveries),
                  passes() ? "pass" : "fail");
    return text;
  }
};

double histogramP50(const epto::obs::Snapshot& snapshot, const std::string& name) {
  for (const epto::obs::Sample& sample : snapshot) {
    if (sample.name != name || sample.count == 0) continue;
    std::uint64_t seen = 0;
    for (std::size_t i = 0; i < sample.buckets.size(); ++i) {
      seen += sample.buckets[i];
      if (2 * seen >= sample.count) {
        return i < sample.bounds.size() ? sample.bounds[i] : sample.bounds.back();
      }
    }
  }
  return 0.0;
}

std::uint64_t counterSum(const epto::obs::Snapshot& snapshot, const std::string& name) {
  std::uint64_t sum = 0;
  for (const epto::obs::Sample& sample : snapshot) {
    if (sample.name == name) sum += sample.counter;
  }
  return sum;
}

epto::runtime::UdpClusterOptions clusterOptions(const UdpWorkload& workload,
                                                std::uint64_t seed) {
  epto::runtime::UdpClusterOptions options;
  options.nodeCount = workload.nodes;
  options.roundPeriod = 4ms;
  options.clockMode = epto::ClockMode::Logical;
  options.seed = seed;
  options.shardCount = shardCount();
  return options;
}

Trial runTrial(const UdpWorkload& workload, std::uint64_t seed, double rate,
               double windowSeconds, std::chrono::milliseconds drainTimeout) {
  Trial trial;
  trial.rate = rate;
  const Schedule schedule =
      makeSchedule(seed, rate, windowSeconds, workload.nodes, workload.payloadBytes);
  trial.events = schedule.arrivals.size();
  trial.expectedPairs = static_cast<std::uint64_t>(trial.events) * workload.nodes;

  // Delivery latencies land in a preallocated array from the shard
  // threads; the due times are immutable before the first broadcast.
  std::vector<std::int64_t> latencyNs(trial.expectedPairs, 0);
  std::vector<std::int64_t> dueOfSlot(trial.expectedPairs, 0);
  std::atomic<std::uint64_t> recorded{0};
  std::atomic<std::int64_t> startNs{0};

  epto::runtime::UdpCluster cluster(clusterOptions(workload, seed));
  cluster.latencyRecorder().setHook(
      [&](epto::ProcessId, const epto::EventId& id, const epto::obs::LatencySample&) {
        const std::int64_t now = Clock::now().time_since_epoch().count();
        const std::uint64_t slot = recorded.fetch_add(1, std::memory_order_relaxed);
        if (slot < latencyNs.size()) {
          dueOfSlot[slot] = schedule.due(id);
          latencyNs[slot] = now - startNs.load(std::memory_order_acquire) - dueOfSlot[slot];
        }
      });
  cluster.start();

  const auto snapshotBefore = cluster.metricsRegistry().snapshot();
  const double cpuBefore = cpuSeconds();
  const auto t0 = Clock::now();
  startNs.store(t0.time_since_epoch().count(), std::memory_order_release);
  std::vector<double> lateMs;
  lateMs.reserve(trial.events);
  trial.broadcastCallNs.reserve(trial.events);
  for (std::size_t i = 0; i < schedule.arrivals.size(); ++i) {
    const Arrival& arrival = schedule.arrivals[i];
    const auto due = t0 + std::chrono::nanoseconds(arrival.dueNs);
    if (Clock::now() < due) std::this_thread::sleep_until(due);
    const auto callStart = Clock::now();
    cluster.broadcast(arrival.node, schedule.payloads[i]);
    const auto callEnd = Clock::now();
    lateMs.push_back(std::chrono::duration<double, std::milli>(callStart - due).count());
    trial.broadcastCallNs.push_back(
        std::chrono::duration<double, std::nano>(callEnd - callStart).count());
  }
  const auto windowEnd = Clock::now();
  const auto snapshotWindow = cluster.metricsRegistry().snapshot();
  trial.quiescent = cluster.awaitQuiescence(drainTimeout);
  trial.cpuSeconds = cpuSeconds() - cpuBefore;
  trial.windowSeconds = std::chrono::duration<double>(windowEnd - t0).count();
  cluster.stop();

  trial.report = cluster.report();
  trial.lateBroadcasts = static_cast<std::size_t>(std::count_if(
      lateMs.begin(), lateMs.end(), [](double late) { return late > kGeneratorLateMs; }));
  trial.generatorLateP99Ms = percentile(lateMs, 0.99);
  const std::uint64_t roundsDone =
      counterSum(snapshotWindow, "epto_dissemination_rounds_total") -
      counterSum(snapshotBefore, "epto_dissemination_rounds_total");
  trial.roundsPerSecond = static_cast<double>(roundsDone) / trial.windowSeconds;
  const auto snapshotEnd = cluster.metricsRegistry().snapshot();
  trial.recvBatchP50 = histogramP50(snapshotEnd, "epto_udp_recv_batch_size");
  trial.sendBatchP50 = histogramP50(snapshotEnd, "epto_udp_send_batch_size");
  trial.watchdogRecoveries = cluster.watchdogRecoveries();
  trial.ingressShed = cluster.ingressShed();
  trial.ingressHighWater = cluster.ingressHighWater();
  trial.mailboxPostRejections = cluster.mailboxPostRejections();
  trial.sendRetries = cluster.sendRetries();
  trial.framesRejected = cluster.framesRejected();

  // Percentiles per slice of the window (by due time), then the median
  // over slices: one scheduling stall of the shared host moves one slice,
  // while a backlog that grows moves every later slice.
  trial.deliveredPairs = std::min<std::uint64_t>(recorded.load(), trial.expectedPairs);
  const double windowNs = windowSeconds * 1e9;
  const std::size_t sliceCount = static_cast<std::size_t>(
      std::clamp<std::uint64_t>(trial.expectedPairs / kPairsPerSlice, 1, kMaxSlices));
  const auto sliceOf = [&](std::int64_t dueNs) {
    return std::min<std::size_t>(
        sliceCount - 1,
        static_cast<std::size_t>(static_cast<double>(dueNs) * static_cast<double>(sliceCount) /
                                 windowNs));
  };
  std::vector<std::vector<double>> slices(sliceCount);
  std::vector<std::uint64_t> expected(sliceCount, 0);
  for (const Arrival& arrival : schedule.arrivals) expected[sliceOf(arrival.dueNs)] += workload.nodes;
  for (std::uint64_t i = 0; i < trial.deliveredPairs; ++i) {
    slices[sliceOf(dueOfSlot[i])].push_back(static_cast<double>(latencyNs[i]) * 1e-6);
  }
  std::vector<double> p50s;
  std::vector<double> p99s;
  for (std::size_t k = 0; k < sliceCount; ++k) {
    if (expected[k] == 0) continue;
    slices[k].resize(expected[k], INFINITY);  // undelivered pairs miss every limit
    p50s.push_back(percentile(slices[k], 0.50));
    p99s.push_back(percentile(slices[k], 0.99));
  }
  trial.p50Ms = median(p50s);
  trial.p99Ms = median(p99s);
  return trial;
}

/// Construct and start a cluster, broadcast once, stop: the set-up time
/// up to the first broadcast accepted.
double setupOnce(const UdpWorkload& workload, std::uint64_t seed) {
  const auto start = Clock::now();
  epto::runtime::UdpCluster cluster(clusterOptions(workload, seed));
  cluster.start();
  cluster.broadcast(0);
  const double seconds = std::chrono::duration<double>(Clock::now() - start).count();
  cluster.stop();
  return seconds;
}

}  // namespace

ClusterFigures nominalClusterFigures(const UdpWorkload& workload, std::uint64_t seed,
                                     double windowSeconds) {
  Trial trial = runTrial(workload, seed, workload.nominalRate, windowSeconds, 5000ms);
  ClusterFigures figures;
  figures.safe = trial.safe();
  figures.verdict = trial.verdict();
  figures.recvBatchP50 = trial.recvBatchP50;
  figures.sendBatchP50 = trial.sendBatchP50;
  figures.broadcastCallNsP99 = percentile(trial.broadcastCallNs, 0.99);
  figures.watchdogRecoveries = trial.watchdogRecoveries;
  figures.ingressShed = trial.ingressShed;
  figures.ingressHighWater = trial.ingressHighWater;
  figures.mailboxPostRejections = trial.mailboxPostRejections;
  figures.sendRetries = trial.sendRetries;
  figures.framesRejected = trial.framesRejected;
  return figures;
}

Result runUdpWorkload(const Args& args, const UdpWorkload& workload) {
  Result result;
  const double budget = args.seconds;
  // The knee search stops starting trials past this point, so that a
  // host far slower than expected still ends the run in bounded time.
  const auto deadline =
      Clock::now() + std::chrono::duration<double>(std::min(kMaxRunSeconds, 1.5 * budget));
  // Set-up takes about half a millisecond; time it often enough for a
  // steady median.
  std::vector<double> setups;
  for (int i = 0; i < kSetupSamples; ++i) setups.push_back(setupOnce(workload, args.seed));
  // Nominal phase: about a third of the run, and at least 96 events, so
  // that the latency percentiles rest on at least three slices of 1024
  // pairs even at udp_payload's low rate.
  const double nominalWindow = std::max(0.3 * budget, 96.0 / workload.nominalRate);
  // A trial whose generator fell behind offered less than it claims: it
  // is noted and discarded, never used, and the trial runs again.
  Trial nominal;
  for (int attempt = 0; attempt < kNominalAttempts; ++attempt) {
    nominal = runTrial(workload, args.seed + 1000 * static_cast<std::uint64_t>(attempt),
                       workload.nominalRate, nominalWindow, 5000ms);
    result.note("nominal " + nominal.verdict());
    if (!nominal.generatorBehind()) break;
  }
  const double rssMb = peakRssMb();  // before any overload trial can inflate it

  // Missing deliveries and agreement or validity misses are failed
  // operations: they feed `failed` (error_rate). A delivery that breaks
  // integrity or total order is a wrong output: the run is not correct.
  result.attempted = nominal.expectedPairs;
  result.failed = (nominal.expectedPairs - nominal.deliveredPairs) + nominal.violations();
  if (!nominal.quiescent) result.note("nominal trial did not reach quiescence");
  if (!nominal.report.allPropertiesHold()) result.note("nominal trial broke a Table 1 verdict");
  if (!nominal.safe()) result.fail("nominal trial broke integrity or total order");
  if (nominal.generatorBehind()) result.fail("generator fell behind its schedule at nominal rate");
  if (nominal.report.deliveries != nominal.deliveredPairs) {
    result.fail("latency hook saw " + std::to_string(nominal.deliveredPairs) +
                " deliveries, tracker " + std::to_string(nominal.report.deliveries));
  }

  // Knee search: each trial is a fresh cluster on its own derived seed.
  // A knee trial offers at least 32 events to the 32 nodes, so its p99
  // over the (event, node) pairs has at least ten samples beyond it.
  const auto trialWindow = [&](double trialRate) {
    return std::max(0.06 * budget, 32.0 / trialRate);
  };
  double lastPass = 0.0;
  double lastPassP99 = 0.0;
  double firstFail = 0.0;
  std::uint64_t trialSeed = args.seed;
  // A rate fails only when a second trial on another seed fails too: a
  // stall of the shared host must not end the search early.
  bool outOfTime = false;
  const auto probe = [&](double trialRate) {
    for (int attempt = 0; attempt < 2; ++attempt) {
      const double window = trialWindow(trialRate);
      if (Clock::now() + std::chrono::duration<double>(window + 1.0) > deadline) {
        outOfTime = true;
        return;
      }
      const Trial trial = runTrial(workload, ++trialSeed, trialRate, window, 500ms);
      result.note("knee " + trial.verdict());
      if (!trial.safe()) result.fail("knee trial broke integrity or total order");
      if (trial.passes()) {
        lastPass = trialRate;
        lastPassP99 = trial.p99Ms;
        return;
      }
    }
    firstFail = trialRate;
  };
  double rate = workload.nominalRate;
  if (nominal.passes()) {
    lastPass = rate;
    lastPassP99 = nominal.p99Ms;
    for (int i = 0; i < kMaxLadderTrials && firstFail == 0.0 && !outOfTime; ++i) {
      probe(rate *= kStep);
    }
  } else {
    firstFail = rate;
    for (int i = 0; i < kMaxLadderTrials && lastPass == 0.0 && !outOfTime; ++i) {
      probe(rate /= kStep);
    }
  }
  for (int i = 0; i < kBisections && lastPass > 0.0 && firstFail > 0.0 && !outOfTime; ++i) {
    probe(std::sqrt(lastPass * firstFail));
  }
  if (outOfTime) result.note("knee search stopped at its deadline; the knee is coarser");
  if (lastPass == 0.0) result.note("no trial met the knee conditions");

  result.set("delivery_p50_ms", nominal.p50Ms, "ms");
  result.set("delivery_p99_ms", nominal.p99Ms, "ms");
  result.set("knee_events_per_s", lastPass, "1/s");
  result.set("knee_delivery_p99_ms", lastPassP99, "ms");
  result.set("cpu_us_per_delivery",
             nominal.deliveredPairs > 0
                 ? nominal.cpuSeconds * 1e6 / static_cast<double>(nominal.deliveredPairs)
                 : std::optional<double>{},
             "us");
  result.set("sim_rounds_per_s", nominal.roundsPerSecond, "1/s");
  result.set("setup_s", median(setups), "s");
  result.set("peak_rss_mb", rssMb, "MiB");
  result.set("error_rate",
             static_cast<double>(result.failed) / static_cast<double>(result.attempted), "1");
  result.set("generator_late_ms_p99", nominal.generatorLateP99Ms, "ms");
  result.set("delivery_samples", static_cast<double>(nominal.deliveredPairs), "count");
  return result;
}

}  // namespace perfbench
