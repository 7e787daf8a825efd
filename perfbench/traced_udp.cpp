// The traced run of the UDP workloads. The benchmark hosts the nodes
// itself — core::Process with a sampler and a core::IngressGuard per node,
// over runtime::UdpSocket, the ball and fragment codecs and a
// runtime::Reassembler — and puts a span around every call into a layer.
// Nodes are split into contiguous slices, one thread per slice as the
// cluster's executor shards them; each thread steps its nodes in rounds
// paced on the wall clock at the cluster's 4 ms period, and the host is
// offered the same generated schedule as the untraced run. The runtime counters the host cannot
// have (executor, mailbox, watchdog) come from one untraced nominal
// cluster trial in the same run.
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <mutex>
#include <memory>
#include <optional>
#include <span>
#include <thread>
#include <unordered_map>

#include "codec/ball_codec.h"
#include "codec/checksum.h"
#include "codec/fragment_codec.h"
#include "core/config.h"
#include "core/ingress_guard.h"
#include "core/process.h"
#include "metrics/delivery_tracker.h"
#include "perfbench.h"
#include "runtime/reassembly.h"
#include "runtime/udp_transport.h"
#include "spans.h"
#include "util/rng.h"

namespace perfbench {
namespace {

using namespace std::chrono_literals;

constexpr std::size_t kMtu = 1400;
constexpr auto kRoundPeriod = 4ms;
constexpr std::size_t kRecvBatch = 32;
/// Ball frames kept to time crc32c on after the run.
constexpr std::size_t kCapturedFrames = 2048;

/// Uniform sampling over the static membership, as the cluster's own
/// sampler does; its span keeps the benchmark's sampler out of core's
/// self time.
class HostSampler final : public epto::PeerSampler {
 public:
  HostSampler(epto::ProcessId self, std::size_t count, epto::util::Rng rng, Spans& spans,
              Spans::NameId span)
      : rng_(rng), spans_(spans), span_(span) {
    for (std::size_t id = 0; id < count; ++id) {
      if (id != self) others_.push_back(static_cast<epto::ProcessId>(id));
    }
  }

  std::vector<epto::ProcessId> samplePeers(std::size_t k) override {
    const Spans::Scope scope(spans_, span_);
    const std::size_t want = std::min(k, others_.size());
    for (std::size_t i = 0; i < want; ++i) {
      std::swap(others_[i], others_[i + rng_.below(others_.size() - i)]);
    }
    return {others_.begin(), others_.begin() + static_cast<std::ptrdiff_t>(want)};
  }

 private:
  epto::util::Rng rng_;
  Spans& spans_;
  Spans::NameId span_;
  std::vector<epto::ProcessId> others_;
};

struct HostNode {
  HostNode(const epto::core::IngressGuardOptions& guardOptions,
           const epto::runtime::ReassemblyOptions& reassembly)
      : socket(kMtu), guard(guardOptions), reassembler(reassembly) {}

  epto::runtime::UdpSocket socket;
  std::unique_ptr<epto::Process> process;
  epto::core::IngressGuard guard;
  epto::runtime::Reassembler reassembler;
  epto::util::Rng rng{0};
  std::uint32_t fragmentSeq = 0;
};

/// Work counted at the same boundaries the spans time.
struct Counts {
  std::uint64_t datagramsReceived = 0;
  std::uint64_t datagramsSent = 0;
  std::uint64_t fragmentsReceived = 0;
  std::uint64_t fragmentsSent = 0;
  std::uint64_t framesRejected = 0;
  std::uint64_t bytesDecoded = 0;
  std::uint64_t bytesEncoded = 0;
  std::uint64_t framesFragmented = 0;  ///< fragmentFrame calls.
  std::uint64_t ballsSent = 0;         ///< ball transmissions, one per target.
  std::uint64_t ballsInspected = 0;
  std::uint64_t ballsAdmitted = 0;
  std::uint64_t eventsReceived = 0;
  std::uint64_t eventsNew = 0;  ///< events that entered the relay set.
  std::int64_t busyNs = 0;      ///< tick work, sleeps excluded.
  std::vector<double> frameBytes;
  std::vector<double> ballEvents;
  std::vector<double> latenessUs;

  void add(const Counts& other) {
    datagramsReceived += other.datagramsReceived;
    datagramsSent += other.datagramsSent;
    fragmentsReceived += other.fragmentsReceived;
    fragmentsSent += other.fragmentsSent;
    framesRejected += other.framesRejected;
    bytesDecoded += other.bytesDecoded;
    bytesEncoded += other.bytesEncoded;
    framesFragmented += other.framesFragmented;
    ballsSent += other.ballsSent;
    ballsInspected += other.ballsInspected;
    ballsAdmitted += other.ballsAdmitted;
    eventsReceived += other.eventsReceived;
    eventsNew += other.eventsNew;
    busyNs += other.busyNs;
    frameBytes.insert(frameBytes.end(), other.frameBytes.begin(), other.frameBytes.end());
    ballEvents.insert(ballEvents.end(), other.ballEvents.begin(), other.ballEvents.end());
    latenessUs.insert(latenessUs.end(), other.latenessUs.begin(), other.latenessUs.end());
  }
};

struct SpanIds {
  Spans::NameId recv, recvEmpty, send, decode, decodeFragment, reassemble, encode, fragment, guard,
      absorb, round, broadcast, tracker, sampler;
};

/// Registers the host's span names; every recorder registers them in
/// this order, so recorders can be merged.
SpanIds registerSpans(Spans& spans) {
  return SpanIds{spans.name("runtime.recv"),
                 spans.name("runtime.recv_empty"),
                 spans.name("runtime.send"),
                 spans.name("codec.decode"),
                 spans.name("codec.decode_fragment"),
                 spans.name("runtime.reassemble"),
                 spans.name("codec.encode"),
                 spans.name("codec.fragment"),
                 spans.name("core.guard"),
                 spans.name("core.absorb"),
                 spans.name("core.round", /*keepDurations=*/true),
                 spans.name("core.broadcast"),
                 spans.name("metrics.tracker"),
                 spans.name("host.sampler")};
}

/// One host thread and the nodes it drives, like one executor shard.
struct Shard {
  Spans spans{std::size_t{1} << 17};
  SpanIds ids = registerSpans(spans);
  Counts counts;
  std::vector<std::size_t> nodes;
  std::vector<std::size_t> arrivals;  ///< indices into the schedule, due order.
  std::vector<epto::runtime::UdpSocket::Datagram> batch;
  std::vector<epto::runtime::OutgoingDatagram> outgoing;
  std::vector<std::vector<std::byte>> captured;
};

class UdpHost {
 public:
  UdpHost(const UdpWorkload& workload, std::uint64_t seed, bool spansOn)
      : workload_(workload) {
    const std::size_t shards = std::min(shardCount(), workload.nodes);
    for (std::size_t s = 0; s < shards; ++s) {
      shards_.push_back(std::make_unique<Shard>());
      shards_.back()->spans.setEnabled(spansOn);
    }
    const epto::Config derived = epto::Config::forSystemSize(
        workload.nodes, epto::ClockMode::Logical, epto::Robustness{.c = 2.0});
    epto::core::IngressGuardOptions guardOptions;
    guardOptions.maxTtl = derived.ttl;
    guardOptions.maxBallsPerSenderPerRound = 0;
    guardOptions.knownSources = workload.nodes;
    const epto::runtime::ReassemblyOptions reassembly{};
    epto::util::Rng master(seed);
    for (std::size_t i = 0; i < workload.nodes; ++i) {
      const auto id = static_cast<epto::ProcessId>(i);
      // Contiguous slices of nodes per shard, as the executor assigns them.
      Shard& shard = *shards_[i * shards / workload.nodes];
      shard.nodes.push_back(i);
      shardOf_.push_back(&shard);
      auto node = std::make_unique<HostNode>(guardOptions, reassembly);
      epto::Config config;
      config.fanout = derived.fanout;
      config.ttl = derived.ttl;
      config.clockMode = epto::ClockMode::Logical;
      config.stabilityModel.systemSize = workload.nodes;
      config.stabilityModel.fanout = derived.fanout;
      node->rng = master.split();
      node->process = std::make_unique<epto::Process>(
          id, config,
          std::make_shared<HostSampler>(id, workload.nodes, master.split(), shard.spans,
                                        shard.ids.sampler),
          [this, id, &shard](const epto::Event& event, epto::DeliveryTag tag) {
            // One host-wide tracker behind one mutex, as in the cluster.
            const Spans::Scope scope(shard.spans, shard.ids.tracker);
            const std::lock_guard<std::mutex> lock(trackerMutex_);
            tracker_.onDeliver(id, event.id, ticks(), tag);
            ++deliveries_;
          });
      ports_.push_back(node->socket.port());
      nodes_.push_back(std::move(node));
    }
  }

  /// Offer `schedule` paced on the wall clock, one thread per shard,
  /// then keep rounds going until every event is delivered everywhere or
  /// `drainLimit` passes.
  void run(const Schedule& schedule, double windowSeconds, Clock::duration drainLimit) {
    for (std::size_t i = 0; i < schedule.arrivals.size(); ++i) {
      shardOf_[schedule.arrivals[i].node]->arrivals.push_back(i);
    }
    expectedPairs_ = schedule.arrivals.size() * workload_.nodes;
    start_ = Clock::now();
    const auto windowEnd = start_ + std::chrono::duration_cast<Clock::duration>(
                                        std::chrono::duration<double>(windowSeconds));
    std::vector<std::thread> threads;
    for (auto& shard : shards_) {
      threads.emplace_back([this, &shard, &schedule, windowEnd, drainLimit] {
        shardLoop(*shard, schedule, windowEnd, drainLimit);
      });
    }
    for (std::thread& thread : threads) thread.join();
  }

  [[nodiscard]] bool allDelivered() const { return deliveries_.load() == expectedPairs_; }
  [[nodiscard]] std::uint64_t expectedPairs() const { return expectedPairs_; }
  [[nodiscard]] std::uint64_t deliveries() const { return deliveries_.load(); }
  [[nodiscard]] epto::metrics::TrackerReport report() const {
    std::unordered_map<epto::ProcessId, epto::metrics::ProcessLifetime> lifetimes;
    for (std::size_t i = 0; i < nodes_.size(); ++i) {
      lifetimes[static_cast<epto::ProcessId>(i)] = epto::metrics::ProcessLifetime{};
    }
    const std::lock_guard<std::mutex> lock(trackerMutex_);
    return tracker_.finalize(lifetimes, ticks());
  }
  [[nodiscard]] epto::runtime::ReassemblyStats reassembly() const {
    epto::runtime::ReassemblyStats sum;
    for (const auto& node : nodes_) {
      const auto& stats = node->reassembler.stats();
      sum.framesCompleted += stats.framesCompleted;
      sum.partialsExpired += stats.partialsExpired;
      sum.partialsShed += stats.partialsShed;
    }
    return sum;
  }
  /// Partial frames still pending: begun but neither completed nor evicted.
  [[nodiscard]] std::size_t pendingPartials() const {
    std::size_t pending = 0;
    for (const auto& node : nodes_) pending += node->reassembler.partialCount();
    return pending;
  }
  [[nodiscard]] const std::vector<std::unique_ptr<Shard>>& shards() const { return shards_; }

 private:
  [[nodiscard]] epto::Timestamp ticks() const {
    return static_cast<epto::Timestamp>(
        std::chrono::duration_cast<std::chrono::microseconds>(Clock::now() - start_).count());
  }

  void shardLoop(Shard& shard, const Schedule& schedule, Clock::time_point windowEnd,
                 Clock::duration drainLimit) {
    auto next = start_;
    std::size_t arrival = 0;
    for (std::uint64_t round = 1;; ++round) {
      if (Clock::now() < next) std::this_thread::sleep_until(next);
      const auto tickStart = Clock::now();
      shard.counts.latenessUs.push_back(
          std::chrono::duration<double, std::micro>(tickStart - next).count());
      for (const std::size_t node : shard.nodes) receiveAll(shard, *nodes_[node], round);
      const std::int64_t elapsedNs = (tickStart - start_).count();
      while (arrival < shard.arrivals.size() &&
             schedule.arrivals[shard.arrivals[arrival]].dueNs <= elapsedNs) {
        const std::size_t index = shard.arrivals[arrival++];
        broadcast(shard, schedule.arrivals[index].node, schedule.payloads[index]);
      }
      for (const std::size_t node : shard.nodes) runRound(shard, *nodes_[node]);
      const auto tickEnd = Clock::now();
      shard.counts.busyNs += (tickEnd - tickStart).count();
      const bool offered = arrival == shard.arrivals.size() && tickEnd >= windowEnd;
      if (offered && (allDelivered() || tickEnd >= windowEnd + drainLimit)) return;
      next += kRoundPeriod;
    }
  }

  void receiveAll(Shard& shard, HostNode& node, std::uint64_t round) {
    node.guard.onRound();
    node.reassembler.evictExpired(round);
    while (true) {
      std::size_t received = 0;
      shard.batch.clear();  // receiveBatch appends
      {
        const Spans::Scope scope(shard.spans, shard.ids.recv);
        received = node.socket.receiveBatch(shard.batch, kRecvBatch, 0);
        // The call that drains a socket finds nothing: polling cost, kept
        // apart from the cost per datagram received.
        if (received == 0) shard.spans.relabel(shard.ids.recvEmpty);
      }
      if (received == 0) return;
      shard.counts.datagramsReceived += received;
      for (const auto& datagram : shard.batch) ingest(shard, node, datagram, round);
    }
  }

  void ingest(Shard& shard, HostNode& node, const epto::runtime::UdpSocket::Datagram& datagram,
              std::uint64_t round) {
    Counts& counts = shard.counts;
    if (datagram.truncated) {
      ++counts.framesRejected;
      return;
    }
    if (!epto::codec::isFragmentFrame(datagram.bytes)) {
      admitBall(shard, node, datagram.bytes, datagram.fromPort);
      return;
    }
    ++counts.fragmentsReceived;
    epto::codec::FragmentDecodeResult decoded;
    {
      const Spans::Scope scope(shard.spans, shard.ids.decodeFragment);
      decoded = epto::codec::decodeFragment(datagram.bytes);
    }
    if (!decoded.ok()) {
      ++counts.framesRejected;
      return;
    }
    std::optional<std::vector<std::byte>> frame;
    {
      const Spans::Scope scope(shard.spans, shard.ids.reassemble);
      frame = node.reassembler.accept(decoded.fragment, round);
    }
    if (frame.has_value()) admitBall(shard, node, *frame, datagram.fromPort);
  }

  void admitBall(Shard& shard, HostNode& node, std::span<const std::byte> frame,
                 std::uint16_t fromPort) {
    Counts& counts = shard.counts;
    if (shard.captured.size() < kCapturedFrames) {
      shard.captured.emplace_back(frame.begin(), frame.end());
    }
    epto::codec::DecodeResult decoded;
    {
      const Spans::Scope scope(shard.spans, shard.ids.decode);
      decoded = epto::codec::decodeBall(frame);
    }
    counts.bytesDecoded += frame.size();
    if (!decoded.ok()) {
      ++counts.framesRejected;
      return;
    }
    epto::core::IngressGuard::Result verdict;
    {
      const Spans::Scope scope(shard.spans, shard.ids.guard);
      verdict = node.guard.inspect(fromPort, decoded.ball);
    }
    ++counts.ballsInspected;
    if (!verdict.admitted) return;
    ++counts.ballsAdmitted;
    const epto::Ball& ball = verdict.kept.has_value() ? *verdict.kept : decoded.ball;
    const std::size_t before = node.process->metricsSnapshot().pendingRelayCount;
    {
      const Spans::Scope scope(shard.spans, shard.ids.absorb);
      node.process->onBall(ball);
    }
    const std::size_t after = node.process->metricsSnapshot().pendingRelayCount;
    counts.eventsReceived += ball.size();
    counts.eventsNew += after > before ? after - before : 0;
  }

  void broadcast(Shard& shard, std::uint32_t index, const epto::PayloadPtr& payload) {
    epto::Event event;
    {
      const Spans::Scope scope(shard.spans, shard.ids.broadcast);
      event = nodes_[index]->process->broadcast(payload);
    }
    const Spans::Scope scope(shard.spans, shard.ids.tracker);
    const std::lock_guard<std::mutex> lock(trackerMutex_);
    tracker_.onBroadcast(index, event.id, event.orderKey(), ticks());
  }

  void runRound(Shard& shard, HostNode& node) {
    Counts& counts = shard.counts;
    epto::Process::RoundOutput out;
    {
      const Spans::Scope scope(shard.spans, shard.ids.round);
      out = node.process->onRound();
    }
    if (out.ball == nullptr) return;
    counts.ballEvents.push_back(static_cast<double>(out.ball->size()));
    std::vector<std::byte> frame;
    {
      const Spans::Scope scope(shard.spans, shard.ids.encode);
      frame = epto::codec::encodeBall(*out.ball,
                                      epto::codec::EncodeOptions{.lineage = true, .qos = true});
    }
    counts.bytesEncoded += frame.size();
    counts.frameBytes.push_back(static_cast<double>(frame.size()));
    const std::uint64_t ballId =
        (static_cast<std::uint64_t>(node.process->id()) << 32) | ++node.fragmentSeq;
    std::vector<std::vector<std::byte>> datagrams;
    {
      const Spans::Scope scope(shard.spans, shard.ids.fragment);
      datagrams = epto::codec::fragmentFrame(frame, kMtu, ballId);
    }
    ++counts.framesFragmented;
    const bool fragmented = datagrams.size() > 1;
    shard.outgoing.clear();
    for (const epto::ProcessId target : out.targets) {
      for (const auto& datagram : datagrams) {
        shard.outgoing.push_back(
            epto::runtime::OutgoingDatagram{ports_[target], &datagram, fragmented});
      }
    }
    counts.ballsSent += out.targets.size();
    epto::runtime::BatchSendOutcome outcome;
    {
      const Spans::Scope scope(shard.spans, shard.ids.send);
      outcome = epto::runtime::sendBatchWithBackoff(node.socket, shard.outgoing,
                                                    epto::runtime::SendBackoffPolicy{}, node.rng);
    }
    counts.datagramsSent += outcome.sent;
    counts.fragmentsSent += outcome.fragmentsSent;
  }

  const UdpWorkload& workload_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::vector<Shard*> shardOf_;  ///< by node index.
  std::vector<std::unique_ptr<HostNode>> nodes_;
  std::vector<std::uint16_t> ports_;
  mutable std::mutex trackerMutex_;
  epto::metrics::DeliveryTracker tracker_;
  std::atomic<std::uint64_t> deliveries_{0};
  std::uint64_t expectedPairs_ = 0;
  Clock::time_point start_ = Clock::now();
};

double perKiB(std::int64_t ns, std::uint64_t bytes) {
  return bytes > 0 ? static_cast<double>(ns) * 1024.0 / static_cast<double>(bytes) : 0.0;
}

double per(std::int64_t ns, std::uint64_t count) {
  return count > 0 ? static_cast<double>(ns) / static_cast<double>(count) : 0.0;
}

double ratio(std::uint64_t part, std::uint64_t base) {
  return base > 0 ? static_cast<double>(part) / static_cast<double>(base) : 0.0;
}

/// crc32c over the captured ball frames, repeated until at least 20 ms of
/// work has been timed.
double crcNsPerKiB(const std::vector<std::vector<std::byte>>& frames) {
  std::uint64_t bytes = 0;
  std::uint32_t sink = 0;
  const auto start = Clock::now();
  do {
    for (const auto& frame : frames) {
      sink ^= epto::codec::crc32c(frame);
      bytes += frame.size();
    }
  } while (!frames.empty() && Clock::now() - start < 20ms);
  const auto ns = (Clock::now() - start).count();
  static volatile std::uint32_t observed = 0;  // keeps the checksums from being elided
  observed = sink;
  (void)observed;
  return perKiB(ns, bytes);
}

}  // namespace

Result traceUdpWorkload(const Args& args, const UdpWorkload& workload) {
  Result result;
  // Untraced cluster trial for the runtime counters (about a quarter of
  // the run), then the traced host and the same host with spans off.
  const ClusterFigures cluster =
      nominalClusterFigures(workload, args.seed, std::max(0.5, 0.25 * args.seconds));
  result.note("cluster " + cluster.verdict);
  if (!cluster.safe) result.fail("untraced cluster trial broke integrity or total order");

  const double window = std::max(0.5, 0.3 * args.seconds);
  const Schedule schedule =
      makeSchedule(args.seed, workload.nominalRate, window, workload.nodes, workload.payloadBytes);

  // The wall-paced host does not repeat its work exactly (datagrams
  // depend on timing), so the overhead ratio compares busy time per
  // datagram handled.
  const auto datagramsHandled = [](const Counts& c) {
    return c.datagramsReceived + c.datagramsSent;
  };
  std::int64_t busyOff = 0;
  std::uint64_t datagramsOff = 0;
  {
    UdpHost host(workload, args.seed, /*spansOn=*/false);
    host.run(schedule, window, 5s);
    for (const auto& shard : host.shards()) {
      busyOff += shard->counts.busyNs;
      datagramsOff += datagramsHandled(shard->counts);
    }
  }

  UdpHost host(workload, args.seed, /*spansOn=*/true);
  host.run(schedule, window, 5s);
  Spans spans;
  registerSpans(spans);
  Counts counts;
  std::vector<const Spans*> recorders;
  std::vector<std::vector<std::byte>> captured;
  for (const auto& shard : host.shards()) {
    spans.merge(shard->spans);
    counts.add(shard->counts);
    recorders.push_back(&shard->spans);
    captured.insert(captured.end(), shard->captured.begin(), shard->captured.end());
  }
  const std::int64_t busyOn = counts.busyNs;
  const std::uint64_t datagramsOn = datagramsHandled(counts);
  if (!args.spansOut.empty() && !Spans::write(args.spansOut, recorders)) {
    result.fail("cannot write spans to " + args.spansOut);
  }

  const epto::metrics::TrackerReport report = host.report();
  result.attempted = host.expectedPairs();
  result.failed = (host.expectedPairs() - std::min(host.expectedPairs(), host.deliveries())) +
                  report.integrityViolations + report.orderViolations +
                  report.validityViolations + report.holes;
  if (!host.allDelivered()) result.note("traced host did not deliver every event everywhere");
  if (report.integrityViolations + report.orderViolations > 0) {
    result.fail("traced host broke integrity or total order");
  }
  char line[320];
  std::snprintf(line, sizeof line,
                "traced host: broadcasts=%llu deliveries=%llu/%llu integrity=%llu order=%llu "
                "validity=%llu holes=%llu datagrams spans on/off=%llu/%llu",
                static_cast<unsigned long long>(report.broadcasts),
                static_cast<unsigned long long>(host.deliveries()),
                static_cast<unsigned long long>(host.expectedPairs()),
                static_cast<unsigned long long>(report.integrityViolations),
                static_cast<unsigned long long>(report.orderViolations),
                static_cast<unsigned long long>(report.validityViolations),
                static_cast<unsigned long long>(report.holes),
                static_cast<unsigned long long>(datagramsOn),
                static_cast<unsigned long long>(datagramsOff));
  result.note(line);

  const epto::runtime::ReassemblyStats reassembly = host.reassembly();
  const std::uint64_t framesBegun = reassembly.framesCompleted + reassembly.partialsExpired +
                                    reassembly.partialsShed + host.pendingPartials();

  result.set("codec.encode_ns_per_kib", perKiB(spans.totals("codec.encode").wallNs, counts.bytesEncoded), "ns/KiB");
  result.set("codec.decode_ns_per_kib", perKiB(spans.totals("codec.decode").wallNs, counts.bytesDecoded), "ns/KiB");
  result.set("codec.crc32c_ns_per_kib", crcNsPerKiB(captured), "ns/KiB");
  result.set("codec.fragment_ns_per_frame",
             per(spans.totals("codec.fragment").wallNs, counts.framesFragmented), "ns");
  result.set("codec.frame_bytes_p50", percentile(counts.frameBytes, 0.50), "bytes");
  result.set("codec.frame_bytes_p99", percentile(counts.frameBytes, 0.99), "bytes");
  result.set("codec.fragments_per_ball", ratio(counts.fragmentsSent, counts.ballsSent), "1");
  result.set("codec.balls_sent", static_cast<double>(counts.ballsSent), "count");

  result.set("runtime.recv_ns_per_datagram",
             per(spans.totals("runtime.recv").wallNs, counts.datagramsReceived), "ns");
  const Spans::Totals& recvEmpty = spans.totals("runtime.recv_empty");
  result.set("runtime.recv_empty_ns_per_call", per(recvEmpty.wallNs, recvEmpty.count), "ns");
  result.set("runtime.send_ns_per_datagram",
             per(spans.totals("runtime.send").wallNs, counts.datagramsSent), "ns");
  result.set("runtime.recv_batch_p50", cluster.recvBatchP50, "count");
  result.set("runtime.send_batch_p50", cluster.sendBatchP50, "count");
  result.set("runtime.reassembly_ns_per_fragment",
             per(spans.totals("runtime.reassemble").wallNs, counts.fragmentsReceived), "ns");
  result.set("runtime.reassembly_complete_ratio", ratio(reassembly.framesCompleted, framesBegun),
             "1");
  result.set("runtime.frames_begun", static_cast<double>(framesBegun), "count");
  result.set("runtime.round_lateness_p99_us", percentile(counts.latenessUs, 0.99), "us");
  result.set("runtime.broadcast_call_ns_p99", cluster.broadcastCallNsP99, "ns");
  result.set("runtime.watchdog_recoveries", static_cast<double>(cluster.watchdogRecoveries), "count");
  result.set("runtime.ingress_shed", static_cast<double>(cluster.ingressShed), "count");
  result.set("runtime.ingress_high_water", static_cast<double>(cluster.ingressHighWater), "count");
  result.set("runtime.mailbox_post_rejections",
             static_cast<double>(cluster.mailboxPostRejections), "count");
  result.set("runtime.send_retries", static_cast<double>(cluster.sendRetries), "count");
  result.set("runtime.frames_rejected",
             static_cast<double>(cluster.framesRejected + counts.framesRejected), "count");

  result.set("core.guard_ns_per_ball", per(spans.totals("core.guard").wallNs, counts.ballsInspected), "ns");
  result.set("core.guard_admit_ratio", ratio(counts.ballsAdmitted, counts.ballsInspected), "1");
  result.set("core.balls_inspected", static_cast<double>(counts.ballsInspected), "count");
  result.set("core.absorb_ns_per_event", per(spans.totals("core.absorb").wallNs, counts.eventsReceived),
             "ns");
  result.set("core.absorb_new_ratio", ratio(counts.eventsNew, counts.eventsReceived), "1");
  result.set("core.events_received", static_cast<double>(counts.eventsReceived), "count");
  std::vector<double> rounds = spans.totals("core.round").durationsNs;
  result.set("core.round_ns_p50", percentile(rounds, 0.50), "ns");
  result.set("core.round_ns_p99", percentile(rounds, 0.99), "ns");
  result.set("core.ball_events_p99", percentile(counts.ballEvents, 0.99), "count");

  const Spans::Totals& tracker = spans.totals("metrics.tracker");
  result.set("metrics.tracker_ns_per_delivery", per(tracker.wallNs, tracker.count), "ns");

  result.set("sim.schedule_ns_per_event", std::nullopt, "ns");
  result.set("pss.sample_ns", std::nullopt, "ns");
  result.set("pss.cyclon_shuffle_ns", std::nullopt, "ns");

  const double perDatagramOff = per(busyOff, datagramsOff);
  result.set("obs.span_overhead_ratio",
             perDatagramOff > 0.0 ? per(busyOn, datagramsOn) / perDatagramOff : 0.0, "1");
  for (const char* layer : {"codec", "core", "runtime", "metrics", "sim", "pss"}) {
    result.set(std::string(layer) + ".self_share",
               busyOn > 0 ? static_cast<double>(spans.layerSelfNs(layer)) /
                                static_cast<double>(busyOn)
                          : 0.0,
               "1");
  }
  return result;
}

}  // namespace perfbench
