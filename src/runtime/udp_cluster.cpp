#include "runtime/udp_cluster.h"

#include <poll.h>

#include <algorithm>
#include <ctime>

#include "codec/ball_codec.h"
#include "codec/fragment_codec.h"
#include "obs/flight_recorder.h"
#include "util/ensure.h"

namespace epto::runtime {

namespace {

/// Datagrams drained per recvmmsg() call (the per-wakeup
/// kMaxDatagramsPerPoll budget still bounds a whole wakeup).
constexpr std::size_t kRecvBatch = 32;
/// Datagrams pulled off one socket per wakeup.
constexpr std::size_t kMaxDatagramsPerPoll = 512;
/// Datagrams accumulated per node round before a sendmmsg() flush (the
/// round end always flushes).
constexpr std::size_t kSendBatch = 64;
/// Partial (fragmented, incomplete) frames held per node.
constexpr std::size_t kReassemblyCapacity = 64;

const UdpClusterOptions& validated(const UdpClusterOptions& options) {
  EPTO_ENSURE_MSG(options.mtuBytes >= codec::kMinFragmentMtu &&
                      options.mtuBytes <= kMaxUdpDatagramBytes,
                  "mtuBytes outside [kMinFragmentMtu, kMaxUdpDatagramBytes]");
  EPTO_ENSURE_MSG(options.ingressCapacity > 0, "ingressCapacity must be positive");
  EPTO_ENSURE_MSG(options.ingressDrainBudget > 0, "ingressDrainBudget must be positive");
  EPTO_ENSURE_MSG(options.reassemblyTtlRounds > 0, "reassemblyTtlRounds must be positive");
  EPTO_ENSURE_MSG(options.sendBackoff.maxAttempts >= 1,
                  "sendBackoff needs at least one attempt");
  EPTO_ENSURE_MSG(options.sendBackoff.initialDelay.count() >= 0,
                  "sendBackoff initialDelay must not be negative");
  EPTO_ENSURE_MSG(options.sendBackoff.multiplier >= 1.0,
                  "sendBackoff multiplier must be at least 1");
  EPTO_ENSURE_MSG(options.mailboxCapacity > 0, "mailboxCapacity must be positive");
  return options;
}

/// Relaxed atomic max (for the ingress high-water gauge).
void storeMax(std::atomic<std::uint64_t>& cell, std::uint64_t value) {
  std::uint64_t seen = cell.load(std::memory_order_relaxed);
  while (seen < value &&
         !cell.compare_exchange_weak(seen, value, std::memory_order_relaxed)) {
  }
}

}  // namespace

UdpCluster::UdpCluster(const UdpClusterOptions& options)
    : NodeHost(validated(options),
               // Datagram loss is unobservable to the oracle here.
               /*modelLossRate=*/0.0, options.shardCount, options.mailboxCapacity,
               [&options]() -> std::unique_ptr<Node> {
                 // Receive buffer == MTU: every conforming datagram fits,
                 // and an over-MTU datagram is counted as truncated
                 // instead of mis-parsed.
                 return std::make_unique<UdpNode>(
                     options.mtuBytes,
                     ReassemblyOptions{kReassemblyCapacity, options.reassemblyTtlRounds,
                                       /*maxFrameBytes=*/std::size_t{8} << 20},
                     options.ingressCapacity, options.watchdogMissedRounds);
               }),
      options_(options) {
  ports_.reserve(nodeCount());
  for (std::size_t i = 0; i < nodeCount(); ++i) {
    UdpNode& node = udp(this->node(i));
    if (options_.hardenIngress) {
      core::IngressGuardOptions guardOptions;
      guardOptions.maxTtl = ttlUsed();
      guardOptions.maxBallsPerSenderPerRound = options_.ingressRateCap;
      // Membership is a static port table here, so a source id outside
      // [0, nodeCount) can only be forged.
      guardOptions.knownSources = options_.nodeCount;
      node.guard = std::make_unique<core::IngressGuard>(guardOptions);
    }
    ports_.push_back(node.socket.port());
  }

  // Batched-I/O histograms, registered once so shard hot paths observe
  // through a raw pointer instead of the registry's find-or-create lock.
  // Bounds 1,2,4,...,512: a batch of 1 is the degenerate (unbatched)
  // case, 512 the per-wakeup datagram ceiling.
  obs::Registry& registry = metricsRegistry();
  recvBatchSize_ = &registry.histogram("epto_udp_recv_batch_size", {},
                                       obs::Registry::exponentialBounds(1, 2, 10));
  sendBatchSize_ = &registry.histogram("epto_udp_send_batch_size", {},
                                       obs::Registry::exponentialBounds(1, 2, 10));
}

UdpCluster::~UdpCluster() { stop(); }

void UdpCluster::discardInput(Node& base) {
  UdpNode& node = udp(base);
  node.heldBack.clear();  // delayed datagrams die with the sender
  // Datagrams buffered by the OS while the node was dead are lost state.
  while (node.socket.receive(0).has_value()) {
  }
  node.reassembler.clear();
  node.ingress.clear();
}

void UdpCluster::flushHeldBack(UdpNode& node) {
  if (node.heldBack.empty()) return;
  const auto now = Clock::now();
  auto due = std::partition(node.heldBack.begin(), node.heldBack.end(),
                            [now](const HeldDatagram& d) { return d.due > now; });
  for (auto it = due; it != node.heldBack.end(); ++it) {
    node.outgoing.push_back(OutgoingDatagram{it->port, &it->frame, it->isFragment});
  }
  flush(node);  // before the erase: `outgoing` points into heldBack
  node.heldBack.erase(due, node.heldBack.end());
}

void UdpCluster::enqueueBallFrame(UdpNode& node, std::span<const std::byte> frame,
                                  std::uint16_t fromPort) {
  auto decoded = codec::decodeBall(frame);
  if (!decoded.ok()) {
    framesRejected_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  // A frame that parsed is still attacker-controlled input; only the
  // guard's verdict makes its fields safe for the protocol to trust.
  if (node.guard != nullptr) {
    auto verdict = node.guard->inspect(fromPort, decoded.ball);
    if (!verdict.admitted) return;
    if (verdict.kept.has_value()) {
      node.ingress.push(std::move(*verdict.kept));
      return;
    }
  }
  node.ingress.push(std::move(decoded.ball));
}

void UdpCluster::ingestDatagram(UdpNode& node, const UdpSocket::Datagram& datagram) {
  if (datagram.truncated) {
    // The kernel cut the payload: the datagram exceeded the receive
    // buffer (i.e. the configured MTU). Counted here, not discovered as
    // a checksum failure downstream.
    truncatedDatagrams_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  if (codec::isFragmentFrame(datagram.bytes)) {
    fragmentsReceived_.fetch_add(1, std::memory_order_relaxed);
    const auto decoded = codec::decodeFragment(datagram.bytes);
    if (!decoded.ok()) {
      framesRejected_.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    auto frame = node.reassembler.accept(decoded.fragment, node.roundCounter);
    if (!frame.has_value()) return;
    ballsReassembled_.fetch_add(1, std::memory_order_relaxed);
    enqueueBallFrame(node, *frame, datagram.fromPort);
    return;
  }
  enqueueBallFrame(node, datagram.bytes, datagram.fromPort);
}

void UdpCluster::publishNodeCounters(UdpNode& node) {
  const ReassemblyStats& stats = node.reassembler.stats();
  if (stats.partialsExpired > node.publishedReassembly.partialsExpired) {
    reassemblyExpired_.fetch_add(
        stats.partialsExpired - node.publishedReassembly.partialsExpired,
        std::memory_order_relaxed);
  }
  if (stats.partialsShed > node.publishedReassembly.partialsShed) {
    reassemblyShed_.fetch_add(stats.partialsShed - node.publishedReassembly.partialsShed,
                              std::memory_order_relaxed);
  }
  node.publishedReassembly = stats;

  const std::uint64_t shed = node.ingress.shedTotal();
  if (shed > node.publishedIngressShed) {
    ingressShed_.fetch_add(shed - node.publishedIngressShed, std::memory_order_relaxed);
    node.publishedIngressShed = shed;
  }
  storeMax(ingressHighWater_, node.ingress.highWater());

  const std::uint64_t recoveries = node.watchdog.recoveries();
  if (recoveries > node.publishedWatchdogRecoveries) {
    watchdogRecoveries_.fetch_add(recoveries - node.publishedWatchdogRecoveries,
                                  std::memory_order_relaxed);
    node.publishedWatchdogRecoveries = recoveries;
  }

  if (node.guard != nullptr) {
    const core::IngressStats& guard = node.guard->stats();
    const auto mirror = [](std::atomic<std::uint64_t>& cell, std::uint64_t now,
                           std::uint64_t& published) {
      if (now > published) {
        cell.fetch_add(now - published, std::memory_order_relaxed);
        published = now;
      }
    };
    core::IngressStats& seen = node.publishedGuard;
    mirror(guardInspected_, guard.ballsInspected, seen.ballsInspected);
    mirror(guardRejectedLineage_, guard.ballsRejectedLineage,
           seen.ballsRejectedLineage);
    mirror(guardRejectedOriginRound_, guard.ballsRejectedOriginRound,
           seen.ballsRejectedOriginRound);
    mirror(guardRejectedRate_, guard.ballsRejectedRate, seen.ballsRejectedRate);
    mirror(guardRejectedUnknownSource_, guard.ballsRejectedUnknownSource,
           seen.ballsRejectedUnknownSource);
    mirror(guardFilteredEquivocation_, guard.eventsFilteredEquivocation,
           seen.eventsFilteredEquivocation);
    mirror(guardFilteredIncarnation_, guard.eventsFilteredIncarnation,
           seen.eventsFilteredIncarnation);
    mirror(guardFingerprintRotations_, guard.fingerprintRotations,
           seen.fingerprintRotations);
  }
}

core::IngressStats UdpCluster::ingressGuardStats() const noexcept {
  core::IngressStats stats;
  stats.ballsInspected = guardInspected_.load(std::memory_order_relaxed);
  stats.ballsRejectedLineage = guardRejectedLineage_.load(std::memory_order_relaxed);
  stats.ballsRejectedOriginRound =
      guardRejectedOriginRound_.load(std::memory_order_relaxed);
  stats.ballsRejectedRate = guardRejectedRate_.load(std::memory_order_relaxed);
  stats.ballsRejectedUnknownSource =
      guardRejectedUnknownSource_.load(std::memory_order_relaxed);
  stats.eventsFilteredEquivocation =
      guardFilteredEquivocation_.load(std::memory_order_relaxed);
  stats.eventsFilteredIncarnation =
      guardFilteredIncarnation_.load(std::memory_order_relaxed);
  stats.fingerprintRotations =
      guardFingerprintRotations_.load(std::memory_order_relaxed);
  return stats;
}

void UdpCluster::publishSubstrateMetrics() {
  obs::Registry& registry = metricsRegistry();
  registry.counter("epto_udp_frames_rejected_total")
      .set(framesRejected_.load(std::memory_order_relaxed));
  registry.counter("epto_udp_truncated_total")
      .set(truncatedDatagrams_.load(std::memory_order_relaxed));
  registry.counter("epto_udp_send_failures_total", {{"cause", "transient"}})
      .set(sendFailuresTransient_.load(std::memory_order_relaxed));
  registry.counter("epto_udp_send_failures_total", {{"cause", "hard"}})
      .set(sendFailuresHard_.load(std::memory_order_relaxed));
  registry.counter("epto_udp_send_retries_total")
      .set(sendRetries_.load(std::memory_order_relaxed));
  registry.counter("epto_udp_balls_fragmented_total")
      .set(ballsFragmented_.load(std::memory_order_relaxed));
  registry.counter("epto_udp_fragments_sent_total")
      .set(fragmentsSent_.load(std::memory_order_relaxed));
  registry.counter("epto_udp_fragments_received_total")
      .set(fragmentsReceived_.load(std::memory_order_relaxed));
  registry.counter("epto_udp_balls_reassembled_total")
      .set(ballsReassembled_.load(std::memory_order_relaxed));
  registry.counter("epto_udp_reassembly_expired_total")
      .set(reassemblyExpired_.load(std::memory_order_relaxed));
  registry.counter("epto_udp_reassembly_shed_total")
      .set(reassemblyShed_.load(std::memory_order_relaxed));
  registry.counter("epto_udp_ingress_shed_total")
      .set(ingressShed_.load(std::memory_order_relaxed));
  registry.gauge("epto_udp_ingress_high_water")
      .set(static_cast<std::int64_t>(ingressHighWater_.load(std::memory_order_relaxed)));
  registry.counter("epto_udp_watchdog_recoveries_total")
      .set(watchdogRecoveries_.load(std::memory_order_relaxed));
  if (options_.hardenIngress) {
    core::recordIngressStats(ingressGuardStats(), registry);
  }
}


std::uint16_t UdpCluster::nodePort(std::size_t index) const {
  EPTO_ENSURE_MSG(index < ports_.size(), "node index out of range");
  return ports_[index];
}

void UdpCluster::drainIngress(UdpNode& node) {
  for (std::size_t budget = options_.ingressDrainBudget; budget > 0; --budget) {
    auto ball = node.ingress.pop();
    if (!ball.has_value()) break;
    node.process->onBall(*ball);
  }
}

void UdpCluster::ingest(Node& node) {
  // Hand a bounded batch to the protocol; the rest stays queued (and is
  // shed oldest-first by the ingress bound if the backlog wins).
  drainIngress(udp(node));
}

void UdpCluster::batchIngest(UdpNode& node) {
  thread_local std::vector<UdpSocket::Datagram> scratch;
  std::size_t polled = 0;
  while (polled < kMaxDatagramsPerPoll) {
    scratch.clear();
    const std::size_t want = std::min(kRecvBatch, kMaxDatagramsPerPoll - polled);
    const std::size_t got = node.socket.receiveBatch(scratch, want, /*timeoutMillis=*/0);
    if (got == 0) break;
    recvBatchSize_->observe(static_cast<double>(got));
    // Drain interleaves per datagram, not per chunk. One shard wakeup
    // covers MANY senders' flushes at once (a recvmmsg chunk can hold a
    // whole cluster round), so a flat per-wakeup budget would both drain
    // too slowly and overflow the ingress bound mid-push — and because
    // one thread drives every owned node on one schedule, the overflow
    // pattern is IDENTICAL at every peer: the oldest-first shed cuts the
    // same sender's ball everywhere, correlated first-hop loss that
    // EpTO's relay redundancy cannot repair (an origin sends its ball
    // exactly once). Interleaving a budget after each datagram keeps the
    // queue from overflowing on chunky arrivals and bounds the
    // per-wakeup work by kMaxDatagramsPerPoll * (decode +
    // ingressDrainBudget).
    for (const auto& datagram : scratch) {
      ingestDatagram(node, datagram);
      drainIngress(node);
    }
    polled += got;
    if (got < want) break;  // socket drained
  }
}

void UdpCluster::awaitInput(ShardedExecutor::ShardContext& ctx,
                            Clock::time_point deadline) {
  thread_local std::vector<pollfd> pollSet;
  thread_local std::vector<UdpNode*> pollNode;  // pollSet slot -> node
  pollSet.clear();
  pollNode.clear();
  for (std::size_t i = ctx.nodeBegin(); i < ctx.nodeEnd(); ++i) {
    UdpNode& node = udp(this->node(i));
    if (!node.up.load(std::memory_order_relaxed) || node.stallNoted) continue;
    if (faults() != nullptr) flushHeldBack(node);
    pollfd pfd{};
    pfd.fd = node.socket.nativeHandle();
    pfd.events = POLLIN;
    pollSet.push_back(pfd);
    pollNode.push_back(&node);
  }
  if (pollSet.empty()) {
    NodeHost::awaitInput(ctx, deadline);
    return;
  }
  // Block until the shard's next round is due (or a datagram arrives):
  // ppoll takes the remainder at nanosecond resolution, where a
  // millisecond poll() timeout would truncate a sub-millisecond
  // remainder to 0 and spin.
  const auto remaining = std::max(Clock::duration::zero(), deadline - Clock::now());
  const auto seconds = std::chrono::duration_cast<std::chrono::seconds>(remaining);
  const timespec timeout{
      static_cast<std::time_t>(seconds.count()),
      static_cast<long>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(remaining - seconds).count())};
  if (::ppoll(pollSet.data(), pollSet.size(), &timeout, nullptr) <= 0) return;
  for (std::size_t slot = 0; slot < pollSet.size(); ++slot) {
    if ((pollSet[slot].revents & POLLIN) != 0) batchIngest(*pollNode[slot]);
  }
}

void UdpCluster::send(Node& base, const Process::RoundOutput& out, Timestamp now) {
  UdpNode& node = udp(base);
  if (out.ball == nullptr) {
    flush(node);
    return;
  }
  const auto frame =
      codec::encodeBall(*out.ball, codec::EncodeOptions{.lineage = true, .qos = true});
  const std::uint64_t ballId =
      (static_cast<std::uint64_t>(node.id) << 32) | ++node.fragmentSeq;
  const auto datagrams = codec::fragmentFrame(frame, options_.mtuBytes, ballId);
  const bool fragmented = datagrams.size() > 1;
  if (fragmented) ballsFragmented_.fetch_add(1, std::memory_order_relaxed);
  fault::FaultController* const faults = this->faults();
  for (const ProcessId target : out.targets) {
    fault::FaultController::LinkFate fate;
    if (faults != nullptr) {
      fate = faults->linkFate(node.id, target, now);
      if (fate.cut) {
        faults->noteLinkDrop(node.id, target, now, fate.cutBy);
        continue;
      }
      if (fate.extraDelay > 0) faults->noteDelayed(node.id, target, now);
    }
    for (const auto& datagram : datagrams) {
      // Burst loss rolls per datagram — fragment granularity: one lost
      // fragment costs one ball copy, not the whole fanout.
      if (fate.extraLossRate > 0.0 && node.rng.chance(fate.extraLossRate)) {
        if (fragmented) {
          faults->noteFragmentDrop(node.id, target, now);
        } else {
          faults->noteLinkDrop(node.id, target, now, fault::FaultKind::BurstLoss);
        }
        continue;
      }
      if (fate.extraDelay > 0) {
        node.heldBack.push_back(HeldDatagram{timeAt(now + fate.extraDelay), ports_[target],
                                             fragmented, datagram});
        continue;
      }
      node.outgoing.push_back(OutgoingDatagram{ports_[target], &datagram, fragmented});
      if (node.outgoing.size() >= kSendBatch) flush(node);
    }
  }
  // Flush while `datagrams` is still alive — `outgoing` holds non-owning
  // frame pointers into it.
  flush(node);
}

void UdpCluster::flush(UdpNode& node) {
  if (node.outgoing.empty()) return;
  sendBatchSize_->observe(static_cast<double>(node.outgoing.size()));
  const BatchSendOutcome outcome =
      sendBatchWithBackoff(node.socket, node.outgoing, options_.sendBackoff, node.rng);
  node.outgoing.clear();
  if (outcome.retries > 0) {
    sendRetries_.fetch_add(static_cast<std::uint64_t>(outcome.retries),
                           std::memory_order_relaxed);
  }
  if (outcome.fragmentsSent > 0) {
    fragmentsSent_.fetch_add(outcome.fragmentsSent, std::memory_order_relaxed);
  }
  if (outcome.transientLost > 0) {
    sendFailuresTransient_.fetch_add(outcome.transientLost, std::memory_order_relaxed);
  }
  if (outcome.hardLost > 0) {
    sendFailuresHard_.fetch_add(outcome.hardLost, std::memory_order_relaxed);
  }
  // A send burst never starves receiving: a fragmented fanout is
  // hundreds of datagrams, and a node ignoring its socket that long lets
  // concurrent bursts from peers overflow the kernel receive buffer.
  // Bounded, drain-interleaved ingest (the same path as the poll loop,
  // so a chunky backlog cannot overflow the ingress bound mid-push).
  batchIngest(node);
}

bool UdpCluster::finishRound(Node& base, Clock::duration lateness) {
  UdpNode& node = udp(base);
  ++node.roundCounter;
  node.reassembler.evictExpired(node.roundCounter);
  if (node.guard != nullptr) node.guard->onRound();
  publishNodeCounters(node);

  // Watchdog: a round more than a full period late, `watchdogMissedRounds`
  // times in a row, means the loop is wedged behind its backlog. Recover
  // by force-draining the ingress queue through the protocol (ignoring
  // the per-loop budget) and snapping the schedule to now —
  // metric-visible via watchdogRecoveries(). Reassembly partials are
  // deliberately left alone: they are already bounded by their own
  // TTL/capacity, and purging them here would reset in-progress jumbo
  // balls every recovery, turning an overload into event loss.
  if (!node.watchdog.onRoundBoundary(lateness, options_.roundPeriod)) return false;
  // The flight recorder exists for this moment: capture the protocol
  // decisions leading into the stall before the recovery mutates
  // anything further.
  if (!options_.flightDumpPath.empty()) {
    (void)obs::FlightRecorder::global().dumpTo(
        options_.flightDumpPath, "stall_watchdog node=" + std::to_string(node.id));
  }
  while (auto ball = node.ingress.pop()) node.process->onBall(*ball);
  publishNodeCounters(node);
  return true;
}

void UdpCluster::finishShard(ShardedExecutor::ShardContext& ctx) {
  // Sheds/evictions from the final partial rounds still reach the
  // cluster counters.
  for (std::size_t i = ctx.nodeBegin(); i < ctx.nodeEnd(); ++i) {
    publishNodeCounters(udp(node(i)));
  }
}

}  // namespace epto::runtime
