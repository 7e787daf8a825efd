// Microbenchmarks (google-benchmark) for the protocol hot paths: the
// per-round cost of the ordering component, ball absorption in the
// dissemination component, simulator scheduling, Cyclon shuffles and
// membership sampling. These are the costs a deployment pays per process
// per round.
//
// Beyond the standard google-benchmark flags, --bench-json=<path>
// appends one epto.bench.core/1 JSONL record (name, ns/op, items/s per
// benchmark) — the perf-trajectory format the CI perf-smoke job compares
// against bench/perf/BENCH_core.json (see EXPERIMENTS.md, "Performance
// methodology").
#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "core/dissemination.h"
#include "core/ordering.h"
#include "core/stability_oracle.h"
#include "pss/cyclon.h"
#include "sim/membership.h"
#include "sim/simulator.h"
#include "util/rng.h"

namespace {

using namespace epto;

/// Broadcasters the synthetic events are spread over.
constexpr std::uint64_t kSources = 64;

/// Synthetic event number `seq`: source seq % kSources, sequence
/// seq / kSources. Ids derive from `seq` so distinct calls can produce
/// globally distinct ids — an id's content (its timestamp) is immutable
/// under the paper's fault model, and the ordering component's duplicate
/// index relies on that.
Event makeEvent(std::uint64_t seq, std::uint32_t ttl) {
  Event e;
  e.id = EventId{static_cast<ProcessId>(seq % kSources),
                 static_cast<std::uint32_t>(seq / kSources)};
  e.ts = static_cast<Timestamp>(seq + 1);
  e.ttl = ttl;
  return e;
}

/// A ball of events seqBase .. seqBase + events - 1 in broadcast order.
/// Above kSources events its ids are not in packed order, so
/// dissemination takes its sort fallback on it.
Ball makeBall(std::size_t events, std::uint32_t ttl, std::uint64_t seqBase) {
  Ball ball;
  ball.reserve(events);
  for (std::size_t i = 0; i < events; ++i) ball.push_back(makeEvent(seqBase + i, ttl));
  return ball;
}

/// The same events as makeBall, in id order — the shape every real
/// sender emits (dissemination keeps nextBall id-sorted).
Ball makeSortedBall(std::size_t events, std::uint32_t ttl, std::uint64_t seqBase) {
  Ball ball;
  ball.reserve(events);
  const std::uint64_t end = seqBase + events;
  for (std::uint64_t source = 0; source < kSources; ++source) {
    // The first seq >= seqBase that belongs to `source`.
    std::uint64_t seq = seqBase + (source + kSources - seqBase % kSources) % kSources;
    for (; seq < end; seq += kSources) ball.push_back(makeEvent(seq, ttl));
  }
  return ball;
}

/// Ordering component: one orderEvents() round over a 64-event ball with
/// the received-set held in steady state at range(0) events. Events are
/// absorbed at age 1 and stay until their derived ttl crosses the oracle
/// horizon K, so the steady buffer is 64*K events — K is chosen from the
/// target size, and the warmup fills the pipeline before timing starts.
void BM_OrderingRound(benchmark::State& state) {
  constexpr std::size_t kBallSize = 64;
  const auto targetReceived = static_cast<std::size_t>(state.range(0));
  const auto horizon = static_cast<std::uint32_t>(targetReceived / kBallSize);
  LogicalClockOracle oracle(horizon);
  std::uint64_t delivered = 0;
  OrderingComponent ordering({.ttl = horizon}, oracle,
                             [&](const Event&, DeliveryTag) { ++delivered; });
  std::uint64_t seq = 0;
  for (std::uint32_t round = 0; round < horizon + 2; ++round) {
    ordering.orderEvents(makeBall(kBallSize, 1, seq));
    seq += kBallSize;
  }
  for (auto _ : state) {
    ordering.orderEvents(makeBall(kBallSize, 1, seq));
    seq += kBallSize;
  }
  state.counters["received_size"] =
      benchmark::Counter(static_cast<double>(ordering.receivedSize()));
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kBallSize));
  benchmark::DoNotOptimize(delivered);
}
BENCHMARK(BM_OrderingRound)->Arg(256)->Arg(1024)->Arg(4096);

/// Repeatedly absorb `ball` into one dissemination component.
void absorbRepeatedly(benchmark::State& state, const Ball& ball) {
  LogicalClockOracle oracle(/*ttl=*/15);
  OrderingComponent ordering({.ttl = 15}, oracle, [](const Event&, DeliveryTag) {});

  class NullSampler final : public PeerSampler {
   public:
    std::vector<ProcessId> samplePeers(std::size_t) override { return {1, 2, 3}; }
  } sampler;

  DisseminationComponent dissemination(0, {.fanout = 3, .ttl = 15}, oracle, sampler,
                                       ordering);
  for (auto _ : state) {
    dissemination.onBall(ball);
    benchmark::DoNotOptimize(dissemination.pendingRelayCount());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(ball.size()));
}

/// Dissemination: absorbing an incoming id-sorted ball into nextBall —
/// the linear merge. The same ball repeats, so after the first iteration
/// this measures the duplicate-heavy absorb that dominates real rounds
/// (every event arrives ~K times).
void BM_DisseminationOnBall(benchmark::State& state) {
  absorbRepeatedly(state, makeSortedBall(static_cast<std::size_t>(state.range(0)), 3, 0));
}
BENCHMARK(BM_DisseminationOnBall)->Arg(16)->Arg(128)->Arg(1024);

/// The same absorb through the stable_sort fallback that hand-built
/// balls out of id order take (no real sender emits one).
void BM_DisseminationOnUnsortedBall(benchmark::State& state) {
  absorbRepeatedly(state, makeBall(static_cast<std::size_t>(state.range(0)), 3, 0));
}
BENCHMARK(BM_DisseminationOnUnsortedBall)->Arg(128)->Arg(1024);

/// One full EpTO round (ball absorption + relay + ordering) at steady
/// state, with a fresh id-sorted ball arriving every round.
void BM_FullRound(benchmark::State& state) {
  const auto ballSize = static_cast<std::size_t>(state.range(0));
  LogicalClockOracle oracle(/*ttl=*/15);
  OrderingComponent ordering({.ttl = 15}, oracle, [](const Event&, DeliveryTag) {});
  class NullSampler final : public PeerSampler {
   public:
    std::vector<ProcessId> samplePeers(std::size_t) override { return {1, 2, 3}; }
  } sampler;
  DisseminationComponent dissemination(0, {.fanout = 3, .ttl = 15}, oracle, sampler,
                                       ordering);
  std::uint64_t seq = 0;
  for (auto _ : state) {
    dissemination.onBall(makeSortedBall(ballSize, 3, seq));
    seq += ballSize;
    const auto out = dissemination.onRound();
    benchmark::DoNotOptimize(out.targets.size());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(ballSize));
}
BENCHMARK(BM_FullRound)->Arg(16)->Arg(128)->Arg(1024);

/// Simulator engine: schedule-and-execute throughput with range(0)
/// actions pending — the per-transmission cost every simulated message
/// pays. The closure carries enough state to defeat the empty-callable
/// path but still fits InplaceFn's inline buffer (no allocation).
void BM_SimulatorSchedule(benchmark::State& state) {
  const auto pending = static_cast<std::size_t>(state.range(0));
  sim::Simulator simulator;
  simulator.reserve(pending + 1);
  std::uint64_t fired = 0;
  struct Payload {
    std::uint64_t* counter;
    std::uint64_t a, b, c;
  };
  const auto arm = [&](Timestamp delay) {
    simulator.schedule(delay, [p = Payload{&fired, 1, 2, 3}] { *p.counter += p.a; });
  };
  for (std::size_t i = 0; i < pending; ++i) arm(static_cast<Timestamp>(i % 64 + 1));
  for (auto _ : state) {
    arm(32);
    simulator.step();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
  benchmark::DoNotOptimize(fired);
}
BENCHMARK(BM_SimulatorSchedule)->Arg(64)->Arg(4096);

/// Cyclon: one shuffle exchange between two nodes.
void BM_CyclonShuffle(benchmark::State& state) {
  util::Rng rng(7);
  pss::Cyclon a(1, {.viewSize = 20, .shuffleLength = 8}, rng.split());
  pss::Cyclon b(2, {.viewSize = 20, .shuffleLength = 8}, rng.split());
  std::vector<ProcessId> seeds;
  for (ProcessId id = 3; id < 24; ++id) seeds.push_back(id);
  a.bootstrap(seeds);
  seeds.push_back(1);
  b.bootstrap(seeds);
  for (auto _ : state) {
    if (auto request = a.onShuffleTimer(); request.has_value()) {
      const auto reply = b.onShuffleRequest(1, request->entries);
      a.onShuffleReply(reply);
    }
    benchmark::DoNotOptimize(a.view().size());
  }
}
BENCHMARK(BM_CyclonShuffle);

/// Membership: sampling K distinct peers out of n.
void BM_MembershipSample(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  sim::MembershipDirectory membership;
  for (std::size_t id = 0; id < n; ++id) membership.add(static_cast<ProcessId>(id));
  util::Rng rng(11);
  for (auto _ : state) {
    auto peers = membership.sampleOthers(0, 20, rng);
    benchmark::DoNotOptimize(peers.data());
  }
}
BENCHMARK(BM_MembershipSample)->Arg(100)->Arg(10000);

/// Console reporter that additionally captures per-benchmark numbers for
/// the epto.bench.core/1 record.
class CaptureReporter final : public benchmark::ConsoleReporter {
 public:
  struct Record {
    std::string name;
    double nsPerOp = 0.0;
    double itemsPerSecond = 0.0;
  };

  void ReportRuns(const std::vector<Run>& runs) override {
    for (const Run& run : runs) {
      if (run.run_type != Run::RT_Iteration || run.error_occurred) continue;
      Record record;
      record.name = run.benchmark_name();
      record.nsPerOp = run.GetAdjustedRealTime();
      if (const auto it = run.counters.find("items_per_second");
          it != run.counters.end()) {
        record.itemsPerSecond = static_cast<double>(it->second);
      }
      records_.push_back(std::move(record));
    }
    ConsoleReporter::ReportRuns(runs);
  }

  [[nodiscard]] const std::vector<Record>& records() const noexcept { return records_; }

 private:
  std::vector<Record> records_;
};

void writeCoreJson(const std::string& path,
                   const std::vector<CaptureReporter::Record>& records) {
  std::FILE* out = std::fopen(path.c_str(), "a");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot open bench json output: %s\n", path.c_str());
    std::exit(2);
  }
  std::string line = "{\"schema\":\"epto.bench.core/1\",\"binary\":\"micro_core\"";
  line += ",\"benchmarks\":[";
  char buf[128];
  for (std::size_t i = 0; i < records.size(); ++i) {
    if (i != 0) line += ',';
    line += "{\"name\":\"" + records[i].name + "\"";
    std::snprintf(buf, sizeof buf, ",\"ns_per_op\":%.1f,\"items_per_s\":%.0f}",
                  records[i].nsPerOp, records[i].itemsPerSecond);
    line += buf;
  }
  line += "]}\n";
  std::fputs(line.c_str(), out);
  std::fclose(out);
}

}  // namespace

int main(int argc, char** argv) {
  // --bench-json is ours; everything else goes to google-benchmark.
  std::string benchJson;
  std::vector<char*> rest;
  for (int i = 0; i < argc; ++i) {
    if (std::strncmp(argv[i], "--bench-json=", 13) == 0) {
      benchJson = argv[i] + 13;
    } else {
      rest.push_back(argv[i]);
    }
  }
  int restc = static_cast<int>(rest.size());
  benchmark::Initialize(&restc, rest.data());
  if (benchmark::ReportUnrecognizedArguments(restc, rest.data())) return 1;
  CaptureReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  if (!benchJson.empty()) writeCoreJson(benchJson, reporter.records());
  return 0;
}
