// UdpCluster — EpTO over real UDP sockets on loopback (paper §8.5).
//
// The strongest "real system" configuration in this repository: every
// node owns a UDP socket; balls are serialized through the wire codec
// into datagrams; nothing but the OS network stack sits between
// processes. UdpCluster is the UDP substrate driver of NodeHost
// (runtime/node_host.h): the host's shards run the rounds, and this
// driver supplies ingest (recvmmsg -> reassembly -> decode -> guard ->
// ingress queue -> protocol) and send (encode -> fragment -> link fate
// -> sendmmsg). Each shard blocks in one ppoll() over its owned sockets
// until its next round is due, so the sans-io core still needs no locks.
//
// Overload hardening (DESIGN.md §10): balls larger than the MTU are
// fragmented (codec/fragment_codec.h) and reassembled per node with
// TTL/capacity-bounded partial state (runtime/reassembly.h); decoded
// balls pass through a bounded ingress queue that sheds oldest-first
// under flood (runtime/ingress_queue.h); transient send refusals are
// retried with jittered backoff (runtime/udp_transport.h); and a stall
// watchdog (runtime/stall_watchdog.h) force-drains a node that keeps
// missing its round deadline. Every shed, retry, truncation and
// recovery is counted and exported through epto_obs.
//
// Membership is a static port table exchanged at startup — a real
// deployment would gossip addresses through the PSS; the protocol logic
// is identical.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "core/ingress_guard.h"
#include "runtime/ingress_queue.h"
#include "runtime/node_host.h"
#include "runtime/reassembly.h"
#include "runtime/stall_watchdog.h"
#include "runtime/udp_transport.h"

namespace epto::runtime {

struct UdpClusterOptions : NodeOptions {
  // Fault plans (NodeOptions::faultPlan) over UDP: crashed nodes stop
  // receiving and sending; their socket stays bound, and the backlog is
  // discarded when they rejoin with fresh state. Delay spikes are
  // enforced by holding outgoing datagrams back at the sender. Burst-loss
  // trials roll per datagram, i.e. at fragment granularity for
  // fragmented balls.

  // --- transport hardening (all validated at construction) -------------
  /// Largest datagram the cluster emits; ball frames beyond it are
  /// fragmented. Also sizes the receive buffer, so an over-MTU datagram
  /// from a misconfigured peer is counted as truncated, not silently
  /// mis-parsed. In [codec::kMinFragmentMtu, kMaxUdpDatagramBytes].
  std::size_t mtuBytes = 1400;
  /// Decoded balls buffered per node before oldest-first shedding.
  std::size_t ingressCapacity = 1024;
  /// Balls handed to the protocol per loop iteration — bounds the time
  /// the node spends processing before it re-checks its round deadline.
  std::size_t ingressDrainBudget = 256;
  /// Rounds a partial frame may sit idle before eviction.
  std::uint32_t reassemblyTtlRounds = 8;
  /// Consecutive rounds late by more than a full period before the
  /// watchdog forces recovery (drain backlog, reset schedule). 0 = off.
  std::uint32_t watchdogMissedRounds = 3;
  /// Retry schedule for transient send refusals (EAGAIN/ENOBUFS).
  SendBackoffPolicy sendBackoff{};
  /// Route every decoded ball through an IngressGuard before it reaches
  /// the ingress queue (core/ingress_guard.h): lineage sanity (hop <=
  /// ttl, ttl within the protocol TTL), plausible originRound, sources
  /// within the static membership, equivocation/incarnation filtering.
  /// A datagram that merely parsed is still attacker-controlled input;
  /// the guard is what makes its fields trustworthy.
  bool hardenIngress = true;
  /// Per-sender (UDP source port) balls admitted between round
  /// boundaries; 0 disables the rate cap. Off by default: a node
  /// catching up after a stall legitimately processes many rounds worth
  /// of backlog from each peer in one window, and the ingress queue
  /// already bounds total buffering.
  std::uint32_t ingressRateCap = 0;

  // --- execution model (DESIGN.md §16) ---------------------------------
  /// Worker shards; 0 = hardware_concurrency (clamped to nodeCount).
  std::size_t shardCount = 0;
  /// Capacity of each shard's SPSC command mailbox (broadcast requests).
  std::size_t mailboxCapacity = 1024;
};

class UdpCluster final : public NodeHost {
 public:
  explicit UdpCluster(const UdpClusterOptions& options);
  ~UdpCluster() override;

  /// Datagrams that arrived but failed frame validation.
  [[nodiscard]] std::uint64_t framesRejected() const noexcept {
    return framesRejected_.load();
  }
  /// Datagrams the kernel truncated to the receive buffer (MSG_TRUNC).
  [[nodiscard]] std::uint64_t truncatedDatagrams() const noexcept {
    return truncatedDatagrams_.load();
  }
  /// Datagrams lost to the OS refusing the send: transient refusals that
  /// survived the whole backoff schedule, and hard refusals.
  [[nodiscard]] std::uint64_t sendFailures() const noexcept {
    return sendFailuresTransient_.load() + sendFailuresHard_.load();
  }
  [[nodiscard]] std::uint64_t sendFailuresTransient() const noexcept {
    return sendFailuresTransient_.load();
  }
  [[nodiscard]] std::uint64_t sendFailuresHard() const noexcept {
    return sendFailuresHard_.load();
  }
  /// Backoff sleeps taken for transient refusals (whether or not the
  /// retry eventually succeeded).
  [[nodiscard]] std::uint64_t sendRetries() const noexcept { return sendRetries_.load(); }
  /// Balls whose frame exceeded the MTU and was split into fragments.
  [[nodiscard]] std::uint64_t ballsFragmented() const noexcept {
    return ballsFragmented_.load();
  }
  [[nodiscard]] std::uint64_t fragmentsSent() const noexcept {
    return fragmentsSent_.load();
  }
  [[nodiscard]] std::uint64_t fragmentsReceived() const noexcept {
    return fragmentsReceived_.load();
  }
  /// Frames fully reassembled from fragments.
  [[nodiscard]] std::uint64_t ballsReassembled() const noexcept {
    return ballsReassembled_.load();
  }
  /// Partial frames evicted after sitting idle for the reassembly TTL.
  [[nodiscard]] std::uint64_t reassemblyExpired() const noexcept {
    return reassemblyExpired_.load();
  }
  /// Partial frames displaced by the reassembly capacity bound.
  [[nodiscard]] std::uint64_t reassemblyShed() const noexcept {
    return reassemblyShed_.load();
  }
  /// Balls shed oldest-first by a full ingress queue.
  [[nodiscard]] std::uint64_t ingressShed() const noexcept { return ingressShed_.load(); }
  /// Aggregate ingress-guard verdicts across all nodes (zeroes when
  /// hardenIngress is off). Published as
  /// `epto_ingress_rejected_total{cause=...}`.
  [[nodiscard]] core::IngressStats ingressGuardStats() const noexcept;
  /// Balls dropped whole by the ingress guard (lineage/origin_round/
  /// rate/unknown_source).
  [[nodiscard]] std::uint64_t ingressRejected() const noexcept {
    return ingressGuardStats().ballsRejected();
  }
  /// The loopback UDP port node `index` is bound to — where peers (and
  /// chaos tests injecting hostile frames) address it.
  [[nodiscard]] std::uint16_t nodePort(std::size_t index) const;
  /// Deepest any node's ingress queue has been — never exceeds
  /// UdpClusterOptions::ingressCapacity.
  [[nodiscard]] std::uint64_t ingressHighWater() const noexcept {
    return ingressHighWater_.load();
  }
  /// Forced recoveries by the stall watchdog.
  [[nodiscard]] std::uint64_t watchdogRecoveries() const noexcept {
    return watchdogRecoveries_.load();
  }

 private:
  /// A datagram held back by a delay-spike window, due at `due`.
  struct HeldDatagram {
    Clock::time_point due;
    std::uint16_t port = 0;
    bool isFragment = false;
    std::vector<std::byte> frame;
  };

  /// The host's node plus its socket and overload machinery, all
  /// owning-shard only.
  struct UdpNode final : Node {
    UdpNode(std::size_t receiveBufferBytes, const ReassemblyOptions& reassembly,
            std::size_t ingressCapacity, std::uint32_t watchdogMissedRounds)
        : socket(receiveBufferBytes),
          reassembler(reassembly),
          ingress(ingressCapacity),
          watchdog(watchdogMissedRounds) {}

    UdpSocket socket;
    std::vector<HeldDatagram> heldBack;
    Reassembler reassembler;
    IngressQueue ingress;
    /// Null unless UdpClusterOptions::hardenIngress.
    std::unique_ptr<core::IngressGuard> guard;
    StallWatchdog watchdog;
    std::uint64_t roundCounter = 0;
    std::uint32_t fragmentSeq = 0;  ///< ballId low bits
    /// This round's datagrams awaiting a sendmmsg() flush (non-owning
    /// frame pointers into the round's encoded ball).
    std::vector<OutgoingDatagram> outgoing;
    /// Last reassembly/ingress/watchdog figures mirrored into the
    /// cluster atomics (published once per round).
    ReassemblyStats publishedReassembly;
    std::uint64_t publishedIngressShed = 0;
    std::uint64_t publishedWatchdogRecoveries = 0;
    core::IngressStats publishedGuard;
  };

  static UdpNode& udp(Node& node) { return static_cast<UdpNode&>(node); }

  void ingest(Node& node) override;
  void send(Node& node, const Process::RoundOutput& out, Timestamp now) override;
  void awaitInput(ShardedExecutor::ShardContext& ctx, Clock::time_point deadline) override;
  void discardInput(Node& node) override;
  bool finishRound(Node& node, Clock::duration lateness) override;
  void publishSubstrateMetrics() override;
  void finishShard(ShardedExecutor::ShardContext& ctx) override;

  /// recvmmsg-drain one readable socket into the node's ingress queue,
  /// interleaving bounded protocol drains; observes the recv batch
  /// histogram.
  void batchIngest(UdpNode& node);
  /// One sendmmsg() flush of the node's outgoing datagrams, then a
  /// bounded ingest so a send burst never starves receiving.
  void flush(UdpNode& node);
  /// Send the node's held-back datagrams whose delay has run out.
  void flushHeldBack(UdpNode& node);
  /// Route one received datagram: truncation check, fragment reassembly
  /// or direct decode, then ingress admission.
  void ingestDatagram(UdpNode& node, const UdpSocket::Datagram& datagram);
  void enqueueBallFrame(UdpNode& node, std::span<const std::byte> frame,
                        std::uint16_t fromPort);
  /// Hand up to ingressDrainBudget queued balls to the protocol.
  void drainIngress(UdpNode& node);
  /// Mirror the node's local overload counters into the cluster atomics.
  void publishNodeCounters(UdpNode& node);

  UdpClusterOptions options_;
  std::vector<std::uint16_t> ports_;  // ProcessId -> UDP port

  /// Batched-I/O instruments, registered once at construction so hot
  /// paths never touch the registry lock.
  obs::Histogram* recvBatchSize_ = nullptr;
  obs::Histogram* sendBatchSize_ = nullptr;

  std::atomic<std::uint64_t> framesRejected_{0};
  std::atomic<std::uint64_t> truncatedDatagrams_{0};
  std::atomic<std::uint64_t> sendFailuresTransient_{0};
  std::atomic<std::uint64_t> sendFailuresHard_{0};
  std::atomic<std::uint64_t> sendRetries_{0};
  std::atomic<std::uint64_t> ballsFragmented_{0};
  std::atomic<std::uint64_t> fragmentsSent_{0};
  std::atomic<std::uint64_t> fragmentsReceived_{0};
  std::atomic<std::uint64_t> ballsReassembled_{0};
  std::atomic<std::uint64_t> reassemblyExpired_{0};
  std::atomic<std::uint64_t> reassemblyShed_{0};
  std::atomic<std::uint64_t> ingressShed_{0};
  std::atomic<std::uint64_t> ingressHighWater_{0};
  std::atomic<std::uint64_t> watchdogRecoveries_{0};
  std::atomic<std::uint64_t> guardInspected_{0};
  std::atomic<std::uint64_t> guardRejectedLineage_{0};
  std::atomic<std::uint64_t> guardRejectedOriginRound_{0};
  std::atomic<std::uint64_t> guardRejectedRate_{0};
  std::atomic<std::uint64_t> guardRejectedUnknownSource_{0};
  std::atomic<std::uint64_t> guardFilteredEquivocation_{0};
  std::atomic<std::uint64_t> guardFilteredIncarnation_{0};
  std::atomic<std::uint64_t> guardFingerprintRotations_{0};
};

}  // namespace epto::runtime
