// Discrete-event simulation engine — the substrate of the paper's §6
// evaluation.
//
// Mirrors the simulator the authors describe: "a priority queue and a
// monotonically increasing integer to represent the passage of time,
// i.e., a tick. Processes execute at time now() + delta +- Delta, balls
// sent are delivered at processes at time now() + networkLatency and
// processes may be added/removed from the system at a rate churnRate."
//
// Determinism: entries firing at the same tick run in scheduling order
// (FIFO via a sequence number), so a run is a pure function of its seed.
// Execution order is exactly (when, sequence).
//
// Hot-path engineering (DESIGN.md §11): the priority queue is a calendar
// queue, not a heap.
//   * A ring of kRingSpan per-tick FIFO buckets covers the ticks
//     [cursor, cursor + kRingSpan). An entry in that window is appended
//     to its tick's bucket in O(1). The span exceeds every sampled
//     network delay (PlanetLab's tail is 800 ticks), so nearly every
//     entry takes this path.
//   * Entries beyond the window wait in a small overflow heap of
//     (when, sequence, slot) triples. When the cursor advances, the ones
//     the window now covers move to their buckets in (when, sequence)
//     order. They were scheduled before anything that can land directly
//     in the same bucket, so each bucket stays in sequence order.
//   * The closures live in a free-listed slab of fixed chunks and the
//     buckets hold slot indices, so a closure moves once, into its slab
//     cell, and runs there. Nothing moves it while the queue reorders or
//     the slab grows, and scheduling reads nothing from the (usually
//     cold) cell it writes.
// The stored callable is a small-buffer InplaceFn, so scheduling an
// action performs no heap allocation for any closure the simulation
// itself creates — including the network's in-flight message closures,
// which overflow std::function's inline buffer.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <vector>

#include "core/types.h"
#include "util/ensure.h"
#include "util/inplace_fn.h"

namespace epto::sim {

class Simulator {
 public:
  /// 104 bytes of inline closure storage: sized for the largest closure
  /// the simulation schedules (SimNetwork's in-flight delivery, which
  /// carries a NetMessage variant) with room to spare; anything larger
  /// still works via InplaceFn's heap fallback.
  using Action = util::InplaceFn<104>;

  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;
  /// Destroys the actions still pending.
  ~Simulator();

  /// Ticks covered by the bucket ring. A constant, not a knob: it only
  /// decides which entries take the overflow heap, never the order.
  static constexpr Timestamp kRingSpan = 1024;

  /// Current tick. Advances only while actions execute.
  [[nodiscard]] Timestamp now() const noexcept { return now_; }

  /// Run `action` at now() + delay. Both schedule calls take the closure
  /// by rvalue reference, so it moves only once, into the slab.
  void schedule(Timestamp delay, Action&& action) {
    scheduleAt(now_ + delay, std::move(action));
  }

  /// Run `action` at the absolute tick `when` (must not be in the past).
  void scheduleAt(Timestamp when, Action&& action);

  /// Pre-size the action slab for an expected number of concurrently
  /// pending actions, so steady-state scheduling never allocates.
  void reserve(std::size_t pending);

  /// Execute the next pending action. Returns false when none is left.
  bool step();

  /// Execute everything scheduled up to and including tick `end`;
  /// afterwards now() == end.
  void runUntil(Timestamp end);

  /// Convenience: runUntil(now() + duration).
  void runFor(Timestamp duration) { runUntil(now_ + duration); }

  [[nodiscard]] std::size_t pendingActions() const noexcept { return pending_; }
  [[nodiscard]] std::uint64_t executedActions() const noexcept { return executed_; }

 private:
  static constexpr std::size_t kRingMask = kRingSpan - 1;
  static_assert((kRingSpan & kRingMask) == 0, "the ring span must be a power of two");

  static constexpr std::uint32_t kNil = ~std::uint32_t{0};
  static constexpr std::size_t kChunkCells = 512;

  /// Raw storage for one Action. A cell holds a live Action exactly
  /// while its slot is pending or running.
  struct Cell {
    alignas(Action) std::byte bytes[sizeof(Action)];
  };
  /// FIFO of slab indices for one tick, linked through next_.
  struct Bucket {
    std::uint32_t head = kNil;
    std::uint32_t tail = kNil;
  };
  struct Overflow {
    Timestamp when = 0;
    std::uint64_t sequence = 0;
    std::uint32_t slot = 0;
  };
  struct Later {
    bool operator()(const Overflow& a, const Overflow& b) const noexcept {
      if (a.when != b.when) return a.when > b.when;
      return a.sequence > b.sequence;
    }
  };

  /// Tick of the earliest pending entry (pending_ must be non-zero).
  [[nodiscard]] Timestamp nextTick() const noexcept;
  /// Move the cursor to `tick` and pull the overflow entries the window
  /// now covers into their buckets.
  void advanceTo(Timestamp tick);
  /// Pop the head of the cursor's bucket and run it at the cursor tick.
  void runNext();
  void append(std::size_t bucket, std::uint32_t slot);
  /// An empty cell: the most recently freed one, or a new one.
  [[nodiscard]] std::uint32_t takeSlot();
  /// Destroy the action in `slot` and return the cell to the free list.
  void releaseSlot(std::uint32_t slot) noexcept;
  [[nodiscard]] void* cellAt(std::uint32_t slot) noexcept {
    return chunks_[slot / kChunkCells][slot % kChunkCells].bytes;
  }
  [[nodiscard]] Action& actionAt(std::uint32_t slot) noexcept {
    return *std::launder(static_cast<Action*>(cellAt(slot)));
  }

  /// The slab: cells never move, so an action can run in place while it
  /// schedules more.
  std::vector<std::unique_ptr<Cell[]>> chunks_;
  /// next_[i]: the slab index after i in its bucket. Kept apart from the
  /// closures so linking touches 4 bytes, not a cold closure. Its size is
  /// the number of cells in use or free.
  std::vector<std::uint32_t> next_;
  /// Indices of empty cells, reused last-freed first (the cell an action
  /// just left is still in cache). Its capacity always covers every
  /// cell, so releasing never allocates.
  std::vector<std::uint32_t> free_;
  std::array<Bucket, kRingSpan> buckets_{};
  /// Bit b set iff bucket b is non-empty.
  std::array<std::uint64_t, kRingSpan / 64> occupied_{};
  /// Min-heap on (when, sequence) via std::push_heap/pop_heap with the
  /// inverted comparator; holds every entry at or past cursor_ + kRingSpan.
  std::vector<Overflow> overflow_;
  /// Lowest tick the ring covers; never after now_.
  Timestamp cursor_ = 0;
  std::size_t inRing_ = 0;
  std::size_t pending_ = 0;
  Timestamp now_ = 0;
  std::uint64_t nextSequence_ = 0;
  std::uint64_t executed_ = 0;
};

}  // namespace epto::sim
