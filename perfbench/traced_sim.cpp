// The traced run of sim_scale. The benchmark hosts the n=1000 system
// itself over sim::Simulator — core::Process per node with a pss::Cyclon
// sampler, sim::ChurnDriver churn, Bernoulli loss and the PlanetLab
// latency model — with the sim_scale configuration, and puts a span
// around every call into a layer. It follows workload::SimCluster's
// schedule (warm-up, broadcast window, drain) without being it, so its
// counts are its own; they must repeat exactly with spans on and off.
#include <chrono>
#include <cmath>
#include <cstdio>
#include <memory>
#include <unordered_map>
#include <variant>

#include "core/config.h"
#include "core/process.h"
#include "metrics/delivery_tracker.h"
#include "perfbench.h"
#include "pss/cyclon.h"
#include "sim/churn.h"
#include "sim/membership.h"
#include "sim/simulator.h"
#include "spans.h"
#include "util/empirical_distribution.h"
#include "util/rng.h"

namespace perfbench {
namespace {

struct SimSpanIds {
  Spans::NameId step, schedule, round, absorb, broadcast, tracker, sample, shuffle;
};

SimSpanIds registerSimSpans(Spans& spans) {
  return SimSpanIds{spans.name("sim.step"),
                    spans.name("sim.schedule"),
                    spans.name("core.round", /*keepDurations=*/true),
                    spans.name("core.absorb"),
                    spans.name("core.broadcast"),
                    spans.name("metrics.tracker"),
                    spans.name("pss.sample"),
                    spans.name("pss.cyclon_shuffle")};
}

/// The Cyclon view as the process's sampler, with a span per sample.
class TracedSampler final : public epto::PeerSampler {
 public:
  TracedSampler(std::shared_ptr<epto::pss::Cyclon> cyclon, Spans& spans, Spans::NameId span)
      : cyclon_(std::move(cyclon)), spans_(spans), span_(span) {}

  std::vector<epto::ProcessId> samplePeers(std::size_t k) override {
    const Spans::Scope scope(spans_, span_);
    return cyclon_->samplePeers(k);
  }

 private:
  std::shared_ptr<epto::pss::Cyclon> cyclon_;
  Spans& spans_;
  Spans::NameId span_;
};

struct ShuffleRequest {
  epto::pss::CyclonView entries;
};
struct ShuffleReply {
  epto::pss::CyclonView entries;
};
using Message = std::variant<epto::BallPtr, ShuffleRequest, ShuffleReply>;

/// What a run did; identical for one seed whatever the spans do.
struct SimCounts {
  std::uint64_t rounds = 0;
  std::uint64_t relayed = 0;  ///< event copies sent.
  std::uint64_t deliveries = 0;
  std::uint64_t eventsReceived = 0;
  std::uint64_t eventsNew = 0;
  std::vector<double> ballEvents;

  [[nodiscard]] bool sameWork(const SimCounts& other) const {
    return rounds == other.rounds && relayed == other.relayed &&
           deliveries == other.deliveries && eventsReceived == other.eventsReceived;
  }
};

class SimHost {
 public:
  SimHost(const epto::workload::ExperimentConfig& config, Spans& spans)
      : config_(config),
        spans_(spans),
        ids_(registerSimSpans(spans)),
        latency_(epto::util::planetLabLatency()),
        master_(config.seed) {
    const epto::Config derived = epto::Config::forSystemSize(
        config.systemSize, config.clockMode, epto::Robustness{.c = config.c});
    fanout_ = derived.fanout;
    ttl_ = derived.ttl;
    netRng_ = master_.split();
    const epto::Timestamp delta = config.roundInterval;
    warmupEnd_ = config.warmupRounds.value_or(30) * delta;
    broadcastEnd_ = warmupEnd_ + config.broadcastRounds * delta;
    runEnd_ = broadcastEnd_ + (static_cast<epto::Timestamp>(ttl_) + 6) * delta +
              5 * static_cast<epto::Timestamp>(std::llround(latency_.maxValue()));
    for (std::size_t i = 0; i < config.systemSize; ++i) spawn();
    churn_ = std::make_unique<epto::sim::ChurnDriver>(
        sim_, membership_,
        epto::sim::ChurnDriver::Options{config.churnRate, delta, broadcastEnd_},
        [this](epto::ProcessId id) { kill(id); },
        [this](std::size_t count) {
          for (std::size_t i = 0; i < count; ++i) spawn();
        },
        master_.split());
    churn_->start();
  }

  /// Run to the end of the drain; returns the wall seconds taken.
  double run() {
    bool done = false;
    sim_.scheduleAt(runEnd_, [&done] { done = true; });
    const auto start = Clock::now();
    while (!done) {
      const Spans::Scope scope(spans_, ids_.step);
      if (!sim_.step()) break;
    }
    return std::chrono::duration<double>(Clock::now() - start).count();
  }

  [[nodiscard]] epto::metrics::TrackerReport report() const {
    return tracker_.finalize(lifetimes_, broadcastEnd_);
  }
  [[nodiscard]] SimCounts& counts() { return counts_; }

 private:
  struct Node {
    epto::util::Rng rng;
    std::shared_ptr<epto::pss::Cyclon> cyclon;
    std::unique_ptr<epto::Process> process;
  };

  void schedule(epto::Timestamp delay, epto::sim::Simulator::Action action) {
    const Spans::Scope scope(spans_, ids_.schedule);
    sim_.schedule(delay, std::move(action));
  }

  void send(epto::ProcessId from, epto::ProcessId to, Message message) {
    if (netRng_.chance(config_.messageLossRate)) return;
    const epto::Timestamp delay = latency_.sampleTicks(netRng_);
    schedule(delay, [this, from, to, held = std::move(message)] { receive(from, to, held); });
  }

  void spawn() {
    const epto::ProcessId id = nextId_++;
    Node node{master_.split(), nullptr, nullptr};
    node.cyclon = std::make_shared<epto::pss::Cyclon>(id, config_.cyclonOptions, node.rng.split());
    node.cyclon->bootstrap(membership_.sampleOthers(id, config_.cyclonOptions.viewSize, node.rng));
    epto::Config config;
    config.fanout = fanout_;
    config.ttl = ttl_;
    config.clockMode = config_.clockMode;
    config.stabilityModel.systemSize = config_.systemSize;
    config.stabilityModel.fanout = fanout_;
    config.stabilityModel.messageLossRate = config_.messageLossRate;
    node.process = std::make_unique<epto::Process>(
        id, config, std::make_shared<TracedSampler>(node.cyclon, spans_, ids_.sample),
        [this, id](const epto::Event& event, epto::DeliveryTag tag) {
          const Spans::Scope scope(spans_, ids_.tracker);
          tracker_.onDeliver(id, event.id, sim_.now(), tag);
          ++counts_.deliveries;
        });
    membership_.add(id);
    lifetimes_[id] = epto::metrics::ProcessLifetime{sim_.now(), std::nullopt};
    nodes_.emplace(id, std::move(node));
    scheduleRound(id);
  }

  void kill(epto::ProcessId id) {
    membership_.remove(id);
    lifetimes_[id].leftAt = sim_.now();
    nodes_.erase(id);
  }

  void scheduleRound(epto::ProcessId id) {
    Node& node = nodes_.at(id);
    const double jitter = 1.0 + config_.roundJitter * (2.0 * node.rng.uniform01() - 1.0);
    const double period = std::max(1.0, static_cast<double>(config_.roundInterval) * jitter);
    schedule(static_cast<epto::Timestamp>(std::llround(period)), [this, id] {
      const auto it = nodes_.find(id);
      if (it == nodes_.end()) return;  // churned out meanwhile
      runRound(id, it->second);
      scheduleRound(id);
    });
  }

  void runRound(epto::ProcessId id, Node& node) {
    ++counts_.rounds;
    const epto::Timestamp now = sim_.now();
    if (now >= warmupEnd_ && now < broadcastEnd_ && node.rng.chance(config_.broadcastProbability)) {
      // A broadcast lands uniformly within the coming round.
      schedule(node.rng.below(config_.roundInterval), [this, id] {
        const auto it = nodes_.find(id);
        if (it == nodes_.end() || sim_.now() >= broadcastEnd_) return;
        epto::Event event;
        {
          const Spans::Scope scope(spans_, ids_.broadcast);
          event = it->second.process->broadcast();
        }
        const Spans::Scope scope(spans_, ids_.tracker);
        tracker_.onBroadcast(id, event.id, event.orderKey(), sim_.now());
      });
    }
    std::optional<epto::pss::Cyclon::ShuffleRequest> request;
    {
      const Spans::Scope scope(spans_, ids_.shuffle);
      request = node.cyclon->onShuffleTimer();
    }
    if (request.has_value()) send(id, request->target, ShuffleRequest{std::move(request->entries)});
    epto::Process::RoundOutput out;
    {
      const Spans::Scope scope(spans_, ids_.round);
      out = node.process->onRound();
    }
    if (out.ball == nullptr) return;
    counts_.ballEvents.push_back(static_cast<double>(out.ball->size()));
    counts_.relayed += out.ball->size() * out.targets.size();
    for (const epto::ProcessId target : out.targets) send(id, target, out.ball);
  }

  void receive(epto::ProcessId from, epto::ProcessId to, const Message& message) {
    const auto it = nodes_.find(to);
    if (it == nodes_.end()) return;  // the target left while the message flew
    Node& node = it->second;
    if (const auto* ball = std::get_if<epto::BallPtr>(&message)) {
      const std::size_t before = node.process->metricsSnapshot().pendingRelayCount;
      {
        const Spans::Scope scope(spans_, ids_.absorb);
        node.process->onBall(**ball);
      }
      const std::size_t after = node.process->metricsSnapshot().pendingRelayCount;
      counts_.eventsReceived += (*ball)->size();
      counts_.eventsNew += after > before ? after - before : 0;
    } else if (const auto* shuffle = std::get_if<ShuffleRequest>(&message)) {
      epto::pss::CyclonView reply;
      {
        const Spans::Scope scope(spans_, ids_.shuffle);
        reply = node.cyclon->onShuffleRequest(from, shuffle->entries);
      }
      send(to, from, ShuffleReply{std::move(reply)});
    } else if (const auto* reply = std::get_if<ShuffleReply>(&message)) {
      const Spans::Scope scope(spans_, ids_.shuffle);
      node.cyclon->onShuffleReply(reply->entries);
    }
  }

  epto::workload::ExperimentConfig config_;
  Spans& spans_;
  SimSpanIds ids_;
  const epto::util::EmpiricalDistribution& latency_;
  epto::util::Rng master_;
  epto::util::Rng netRng_;
  std::size_t fanout_ = 0;
  std::uint32_t ttl_ = 0;
  epto::Timestamp warmupEnd_ = 0;
  epto::Timestamp broadcastEnd_ = 0;
  epto::Timestamp runEnd_ = 0;
  epto::sim::Simulator sim_;
  epto::sim::MembershipDirectory membership_;
  epto::metrics::DeliveryTracker tracker_;
  std::unordered_map<epto::ProcessId, epto::metrics::ProcessLifetime> lifetimes_;
  std::unordered_map<epto::ProcessId, Node> nodes_;
  epto::ProcessId nextId_ = 0;
  SimCounts counts_;
  /// Declared last: its pulses call back into the members above.
  std::unique_ptr<epto::sim::ChurnDriver> churn_;
};

double per(std::int64_t ns, std::uint64_t count) {
  return count > 0 ? static_cast<double>(ns) / static_cast<double>(count) : 0.0;
}

}  // namespace

Result traceSimWorkload(const Args& args) {
  Result result;
  const epto::workload::ExperimentConfig config = simScaleConfig(args.seed);

  Spans off;
  off.setEnabled(false);
  SimHost offHost(config, off);
  const double wallOff = offHost.run();

  Spans spans;
  SimHost host(config, spans);
  const double wallOn = host.run();
  if (!args.spansOut.empty() && !Spans::write(args.spansOut, {&spans})) {
    result.fail("cannot write spans to " + args.spansOut);
  }

  SimCounts& counts = host.counts();
  const epto::metrics::TrackerReport report = host.report();
  result.attempted = report.deliveries + report.holes;
  result.failed = report.holes + report.integrityViolations + report.orderViolations +
                  report.validityViolations;
  if (!report.allPropertiesHold()) result.note("traced sim host broke a Table 1 verdict");
  if (report.integrityViolations + report.orderViolations > 0) {
    result.fail("traced sim host broke integrity or total order");
  }
  if (report.deliveries == 0) result.fail("traced sim host delivered nothing");
  if (!counts.sameWork(offHost.counts())) {
    result.fail("traced sim host did different work with spans on and off");
  }
  char line[256];
  std::snprintf(line, sizeof line,
                "traced sim host: rounds=%llu relayed=%llu deliveries=%llu broadcasts=%llu "
                "holes=%llu wall_on=%.2fs wall_off=%.2fs",
                static_cast<unsigned long long>(counts.rounds),
                static_cast<unsigned long long>(counts.relayed),
                static_cast<unsigned long long>(report.deliveries),
                static_cast<unsigned long long>(report.broadcasts),
                static_cast<unsigned long long>(report.holes), wallOn, wallOff);
  result.note(line);

  // The sim_scale workload never touches the codecs or the UDP runtime,
  // and runs without an ingress guard: those layers report n/a.
  for (const char* name :
       {"codec.encode_ns_per_kib", "codec.decode_ns_per_kib", "codec.crc32c_ns_per_kib"}) {
    result.set(name, std::nullopt, "ns/KiB");
  }
  result.set("codec.fragment_ns_per_frame", std::nullopt, "ns");
  result.set("codec.frame_bytes_p50", std::nullopt, "bytes");
  result.set("codec.frame_bytes_p99", std::nullopt, "bytes");
  result.set("codec.fragments_per_ball", std::nullopt, "1");
  result.set("codec.balls_sent", std::nullopt, "count");
  result.set("runtime.recv_ns_per_datagram", std::nullopt, "ns");
  result.set("runtime.recv_empty_ns_per_call", std::nullopt, "ns");
  result.set("runtime.send_ns_per_datagram", std::nullopt, "ns");
  result.set("runtime.recv_batch_p50", std::nullopt, "count");
  result.set("runtime.send_batch_p50", std::nullopt, "count");
  result.set("runtime.reassembly_ns_per_fragment", std::nullopt, "ns");
  result.set("runtime.reassembly_complete_ratio", std::nullopt, "1");
  result.set("runtime.frames_begun", std::nullopt, "count");
  result.set("runtime.round_lateness_p99_us", std::nullopt, "us");
  result.set("runtime.broadcast_call_ns_p99", std::nullopt, "ns");
  for (const char* name : {"runtime.watchdog_recoveries", "runtime.ingress_shed",
                           "runtime.ingress_high_water", "runtime.mailbox_post_rejections",
                           "runtime.send_retries", "runtime.frames_rejected"}) {
    result.set(name, std::nullopt, "count");
  }
  result.set("core.guard_ns_per_ball", std::nullopt, "ns");
  result.set("core.guard_admit_ratio", std::nullopt, "1");
  result.set("core.balls_inspected", std::nullopt, "count");

  result.set("core.absorb_ns_per_event", per(spans.totals("core.absorb").wallNs, counts.eventsReceived),
             "ns");
  result.set("core.absorb_new_ratio",
             counts.eventsReceived > 0 ? static_cast<double>(counts.eventsNew) /
                                             static_cast<double>(counts.eventsReceived)
                                       : 0.0,
             "1");
  result.set("core.events_received", static_cast<double>(counts.eventsReceived), "count");
  std::vector<double> rounds = spans.totals("core.round").durationsNs;
  result.set("core.round_ns_p50", percentile(rounds, 0.50), "ns");
  result.set("core.round_ns_p99", percentile(rounds, 0.99), "ns");
  result.set("core.ball_events_p99", percentile(counts.ballEvents, 0.99), "count");

  const Spans::Totals& tracker = spans.totals("metrics.tracker");
  result.set("metrics.tracker_ns_per_delivery", per(tracker.wallNs, tracker.count), "ns");

  const Spans::Totals& schedule = spans.totals("sim.schedule");
  result.set("sim.schedule_ns_per_event", per(schedule.wallNs, schedule.count), "ns");
  const Spans::Totals& sample = spans.totals("pss.sample");
  result.set("pss.sample_ns", per(sample.wallNs, sample.count), "ns");
  const Spans::Totals& shuffle = spans.totals("pss.cyclon_shuffle");
  result.set("pss.cyclon_shuffle_ns", per(shuffle.wallNs, shuffle.count), "ns");

  result.set("obs.span_overhead_ratio", wallOff > 0.0 ? wallOn / wallOff : 0.0, "1");
  const double wallOnNs = wallOn * 1e9;
  for (const char* layer : {"codec", "core", "runtime", "metrics", "sim", "pss"}) {
    result.set(std::string(layer) + ".self_share",
               static_cast<double>(spans.layerSelfNs(layer)) / wallOnNs, "1");
  }
  return result;
}

}  // namespace perfbench
