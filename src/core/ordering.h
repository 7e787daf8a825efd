// EpTO ordering component — paper Algorithm 2, plus the tagged-delivery
// (§8.2) and delivery-tradeoff (§8.4) extensions.
//
// The ordering component receives, once per round, the ball assembled by
// the dissemination component. It ages known events, absorbs the new ones,
// and delivers to the application every event that (a) the stability
// oracle declares deliverable and (b) cannot be preceded by any event
// still queued — all in strict total order by OrderKey.
//
// Deviations from the pseudocode, argued in DESIGN.md §3:
//   * comparisons use the full OrderKey (ts, source, seq) instead of the
//     bare timestamp, which removes an ordering corner case under
//     timestamp ties and is otherwise identical;
//   * orderEvents() must be invoked every round even when the ball is
//     empty — Alg. 1 line 27 only calls it when nextBall is non-empty,
//     but the validity proof (and liveness in a quiescent system)
//     requires received events to age every round;
//   * the `delivered` set is only materialized when tagged delivery is
//     enabled, and is pruned after a configurable retention window. For
//     plain EpTO the `key <= lastDelivered` filter already rejects every
//     duplicate, so the set the paper carries is redundant.
//
// Hot-path engineering (DESIGN.md §11): the pseudocode's per-round work
// is O(|received|) three times over — age every event, scan every event
// for deliverability, sort the deliverable set. This implementation is
// sublinear in the steady-state buffer:
//   * epoch-based aging — each event stores the round it was (virtually)
//     born in (birthRound = currentRound - ttl at absorption) and its
//     current ttl is derived as currentRound - birthRound, so a new round
//     ages every event at once for free;
//   * order-statistics index — `received` is a std::map keyed by
//     OrderKey. Walking from begin() visits events in delivery order, and
//     the first non-deliverable event IS Alg. 2's minQueued bound, so
//     deliverBatch pops exactly the deliverable prefix in
//     O((delivered + 1) · log n) with no scan and no sort. The OrderKey
//     embeds the EventId, and an event's key never changes between copies
//     (§2 non-Byzantine fault model: content is a function of the id), so
//     the same index also answers duplicate lookups;
//   * duplicate fast path — a flat open-addressing index keyed by the
//     packed 64-bit EventId (util::FlatIdMap) shadows the ordered map.
//     Most absorbed events are repeats (each event arrives ~K times per
//     relay round); a repeat resolves to its Pending entry in O(1),
//     usually with one cache miss, and, being still queued, is by
//     invariant past the delivery frontier — no OrderKey comparison, no
//     tree walk.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <optional>
#include <unordered_map>
#include <vector>

#include "core/stability_oracle.h"
#include "core/types.h"
#include "util/flat_id_map.h"

namespace epto::obs {
class LatencyRecorder;
}  // namespace epto::obs

namespace epto {

class SpeculationChannel;

/// Counters exposed for tests, benches and operational visibility.
struct OrderingStats {
  std::uint64_t rounds = 0;               ///< orderEvents invocations.
  std::uint64_t deliveredOrdered = 0;     ///< normal EpTO-deliver count.
  std::uint64_t deliveredOutOfOrder = 0;  ///< §8.2 tagged deliveries.
  std::uint64_t droppedOutOfOrder = 0;    ///< late events dropped (no tagging).
  std::uint64_t droppedDuplicates = 0;    ///< duplicates of past deliveries.
  std::uint64_t ttlMerges = 0;            ///< max-merge of a known event's ttl.
  std::size_t maxReceivedSize = 0;        ///< high-water mark of `received`.
};

class OrderingComponent {
 public:
  struct Options {
    /// Stability horizon; events become deliverable once ttl > ttl.
    std::uint32_t ttl = 0;
    /// §8.2: deliver late events tagged DeliveryTag::OutOfOrder instead
    /// of silently dropping them.
    bool tagOutOfOrder = false;
    /// Rounds a delivered event id is remembered for duplicate
    /// suppression of tagged deliveries; 0 keeps ids forever. Only used
    /// when tagOutOfOrder is set — see header comment. The window must
    /// cover the longest possible copy lifetime: a relay chain has at
    /// most TTL+1 hops, and each hop can add up to one round of queueing
    /// plus the network's full latency tail, so use roughly
    /// (TTL + 2) * (ceil(maxLatency / delta) + 1) rounds.
    std::uint32_t deliveredRetentionRounds = 0;
    /// Owning process id, used only to label trace events.
    ProcessId self = 0;
    /// Optional latency-decomposition sink: every ordered delivery
    /// reports its dissemination/stability-wait/ordering-wait split
    /// (obs/latency.h). Null costs one predictable branch per delivery.
    obs::LatencyRecorder* latency = nullptr;
    /// §8.4 speculative-delivery channel (core/speculation.h); null =
    /// off. When set, each round additionally offers Fast-class events
    /// beyond the committed frontier, in key order, to the channel with
    /// their stability confidence, and notifies it of fresh absorptions
    /// (revocation) and committed deliveries (confirmation). The
    /// committed total-order path is identical either way.
    SpeculationChannel* speculation = nullptr;
  };

  /// The oracle must outlive the component. Deliveries are synchronous,
  /// from inside orderEvents().
  OrderingComponent(Options options, const StabilityOracle& oracle, DeliverFn deliver);

  /// One round of Algorithm 2. `ball` may be empty (idle round).
  void orderEvents(const Ball& ball);

  /// §8.4 delivery-tradeoff exposure: snapshot of known-but-undelivered
  /// events (their ttl is the age in rounds; feed it to
  /// analysis::estimatedStability for a deliverability probability).
  [[nodiscard]] std::vector<Event> pendingEvents() const;

  [[nodiscard]] const OrderingStats& stats() const noexcept { return stats_; }

  /// Current `received`-set size (the buffer-occupancy gauge).
  [[nodiscard]] std::size_t receivedSize() const noexcept { return received_.size(); }

  /// Key of the most recently delivered event, if any.
  [[nodiscard]] std::optional<OrderKey> lastDelivered() const noexcept {
    return lastDelivered_;
  }

  /// Internal-invariant check used by tests: every queued event must sort
  /// after the last delivered event. Returns false on violation. O(1):
  /// the index is ordered, so only the smallest key needs checking.
  [[nodiscard]] bool checkInvariants() const;

 private:
  /// One known-but-undelivered event. The id/ts live in the map key; the
  /// ttl is derived from birthRound, so only the payload is carried.
  struct Pending {
    std::int64_t birthRound = 0;  ///< currentRound - ttl at absorption.
    /// Oracle clock at the round this node first absorbed the event —
    /// the boundary between dissemination time and stability wait.
    Timestamp firstSeenClock = 0;
    /// Duplicate copies absorbed beyond the first — the relay-redundancy
    /// evidence behind the per-event stability estimate.
    std::uint32_t copies = 0;
    QosClass qos = QosClass::Safe;
    PayloadPtr payload;
  };

  /// Round-start oracle clocks for the last kRoundClockWindow rounds
  /// (indexed round % window). Lets the latency decomposition look up
  /// the clock at the round an event crossed the stability horizon
  /// without any per-round bookkeeping beyond one store.
  static constexpr std::size_t kRoundClockWindow = 512;

  void absorb(const Event& event);
  void deliverBatch();
  /// Offer Fast-class events beyond the speculation frontier to the
  /// channel, in key order, until the first refusal. Only called when
  /// Options::speculation is set.
  void speculateAhead();
  /// Clock at the round `birthRound + horizon + 1` (when the event
  /// became deliverable); falls back to `fallback` when that round has
  /// already left the clock window.
  [[nodiscard]] Timestamp stableClockAt(std::int64_t birthRound,
                                        Timestamp fallback) const noexcept;
  /// Reconstruct the wire Event for a map entry at the current round.
  [[nodiscard]] Event materialize(const OrderKey& key, const Pending& pending) const;
  [[nodiscard]] std::uint32_t derivedTtl(std::int64_t birthRound) const noexcept {
    return static_cast<std::uint32_t>(static_cast<std::int64_t>(stats_.rounds) - birthRound);
  }
  void rememberDelivered(const EventId& id);
  [[nodiscard]] bool alreadyDelivered(const EventId& id) const;
  void pruneDeliveredMemory();

  Options options_;
  const StabilityOracle& oracle_;
  DeliverFn deliver_;

  /// Alg. 2 `received`: known but not yet delivered events, indexed by
  /// their total-order key (see header comment).
  std::map<OrderKey, Pending> received_;
  /// Duplicate fast path: packed EventId -> the entry in received_.
  /// std::map nodes are stable, so the pointer survives other mutations;
  /// absorb() and deliverBatch() keep the two containers in lock step.
  util::FlatIdMap<Pending*> receivedIndex_;
  /// Alg. 2 `lastDeliveredTs`, strengthened to the full order key.
  std::optional<OrderKey> lastDelivered_;
  /// Delivered-id memory (only populated when tagging): id -> round
  /// at which it was delivered, for retention-window pruning.
  std::unordered_map<EventId, std::uint64_t, EventIdHash> deliveredMemory_;

  /// See kRoundClockWindow. Entry r % window is valid iff round r is
  /// within the last window rounds; orderEvents refreshes the current
  /// round's slot unconditionally (one peekClock + one store per round).
  std::array<Timestamp, kRoundClockWindow> roundClocks_{};
  /// roundClocks_ entry for the round in progress (the absorb loop reads
  /// it once per fresh event instead of re-asking the oracle).
  Timestamp currentRoundClock_ = 0;

  OrderingStats stats_;
};

}  // namespace epto
