// In-memory transport for the threaded runtime (paper §8.5).
//
// The real-system counterpart of sim::SimNetwork: every node owns a
// mailbox; send() applies an independent loss trial and a uniformly
// random delivery delay, then enqueues the ball into the target's
// mailbox. The owning shard drains every ready envelope before it runs a
// round (runtime/node_host.h), so messages arrive whenever they arrive
// and rounds fire on each node's own steady-clock schedule.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <queue>
#include <unordered_map>
#include <vector>

#include "core/types.h"
#include "fault/fault_controller.h"
#include "util/mutex.h"
#include "util/rng.h"
#include "util/thread_annotations.h"

namespace epto::runtime {

using Clock = std::chrono::steady_clock;

struct Envelope {
  ProcessId from = 0;
  /// Exactly one of `ball` (in-memory mode) or `frame` (serialized mode)
  /// is set; see InMemoryTransport::Options::serializeFrames.
  BallPtr ball;
  std::shared_ptr<const std::vector<std::byte>> frame;
  Clock::time_point deliverAt;
};

/// One node's inbox. Thread-safe; a single consumer (the owning shard)
/// and many producers.
class Mailbox {
 public:
  void push(Envelope envelope) EPTO_EXCLUDES(mutex_);

  /// All envelopes whose delivery time has passed, in delivery order.
  [[nodiscard]] std::vector<Envelope> drainReady(Clock::time_point now)
      EPTO_EXCLUDES(mutex_);

 private:
  struct Later {
    bool operator()(const Envelope& a, const Envelope& b) const {
      return a.deliverAt > b.deliverAt;
    }
  };

  util::Mutex mutex_;
  std::priority_queue<Envelope, std::vector<Envelope>, Later> queue_ EPTO_GUARDED_BY(mutex_);
};

/// Shared loss/delay-injecting fabric connecting the mailboxes.
class InMemoryTransport {
 public:
  struct Options {
    double lossRate = 0.0;
    std::chrono::microseconds minDelay{0};
    std::chrono::microseconds maxDelay{0};
    /// Encode every ball through the wire codec (codec/ball_codec.h) and
    /// ship bytes instead of a shared pointer — what a datagram transport
    /// would do. Receivers decode via openEnvelope().
    bool serializeFrames = false;
    /// With serializeFrames: probability that one random byte of a frame
    /// is flipped in flight. Receivers must detect and drop (CRC32C).
    double corruptionRate = 0.0;
    /// With serializeFrames: emit version-2 frames carrying per-event
    /// lineage (codec/ball_codec.h). Off keeps the version-1 frames an
    /// older decoder understands — the mixed-fleet fallback.
    bool wireLineage = false;
    /// With serializeFrames: let frames carry per-event QoS classes
    /// (only emitted for balls that contain a Fast event; Safe-only
    /// traffic is wire-identical either way).
    bool wireQos = false;
  };

  InMemoryTransport(Options options, util::Rng rng);

  /// Route every subsequent send() through the fault controller's link
  /// fate (partition cuts, burst loss, delay spikes, crashed endpoints).
  /// Call before any sender runs; the controller must outlive the
  /// transport.
  void attachFaults(fault::FaultController* faults);

  /// Create the mailbox for `id`. Must happen before anyone sends to it.
  void registerEndpoint(ProcessId id);

  /// Fire-and-forget transmission; callable from any thread. `now` is
  /// the sender's round timestamp (microseconds since the cluster epoch):
  /// the link fate is judged at the instant the sender's own fault gate
  /// read, never at a later clock reading.
  void send(ProcessId from, ProcessId to, BallPtr ball, Timestamp now)
      EPTO_EXCLUDES(rngMutex_, statsMutex_);

  [[nodiscard]] Mailbox& mailboxOf(ProcessId id);

  struct Stats {
    std::uint64_t sent = 0;
    std::uint64_t dropped = 0;
    std::uint64_t faultDrops = 0;       ///< of dropped: cut/burst-lost by faults.
    std::uint64_t bytesSent = 0;        ///< serialized mode only.
    std::uint64_t framesRejected = 0;   ///< corrupted frames caught by decode.
  };
  [[nodiscard]] Stats stats() const EPTO_EXCLUDES(statsMutex_);

  /// Extract the ball from an envelope: returns the shared ball directly
  /// in in-memory mode, or decodes the frame in serialized mode. Returns
  /// nullptr (and counts a rejection) when the frame fails validation —
  /// a corrupted datagram behaves exactly like a lost one.
  [[nodiscard]] BallPtr openEnvelope(const Envelope& envelope) EPTO_EXCLUDES(statsMutex_);

 private:
  Options options_;
  /// Set once by attachFaults() before threads start; read-only afterwards
  /// (no capability — const-after-init, like mailboxes_ below).
  fault::FaultController* faults_ = nullptr;
  /// rngMutex_ and statsMutex_ are independent leaf locks; send() takes
  /// each in turn and never holds both (see DESIGN.md §12 hierarchy).
  mutable util::Mutex rngMutex_;
  util::Rng rng_ EPTO_GUARDED_BY(rngMutex_);
  /// Populated by registerEndpoint() before any sender thread exists;
  /// structurally immutable afterwards (mailboxes are themselves
  /// thread-safe), so lookups are deliberately lock-free.
  std::unordered_map<ProcessId, std::unique_ptr<Mailbox>> mailboxes_;
  mutable util::Mutex statsMutex_;
  Stats stats_ EPTO_GUARDED_BY(statsMutex_);
};

}  // namespace epto::runtime
