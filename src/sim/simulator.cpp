#include "sim/simulator.h"

#include <algorithm>
#include <bit>
#include <utility>

namespace epto::sim {

Simulator::~Simulator() {
  for (const Bucket& fifo : buckets_) {
    for (std::uint32_t slot = fifo.head; slot != kNil; slot = next_[slot]) {
      std::destroy_at(&actionAt(slot));
    }
  }
  for (const Overflow& entry : overflow_) std::destroy_at(&actionAt(entry.slot));
}

void Simulator::reserve(std::size_t pending) {
  while (chunks_.size() * kChunkCells < pending) {
    chunks_.push_back(std::unique_ptr<Cell[]>(new Cell[kChunkCells]));
  }
  next_.reserve(pending);
  free_.reserve(pending);
}

std::uint32_t Simulator::takeSlot() {
  if (!free_.empty()) {
    const std::uint32_t slot = free_.back();
    free_.pop_back();
    return slot;
  }
  EPTO_ENSURE_MSG(next_.size() < kNil, "too many pending actions");
  const auto slot = static_cast<std::uint32_t>(next_.size());
  if (slot == chunks_.size() * kChunkCells) {
    chunks_.push_back(std::unique_ptr<Cell[]>(new Cell[kChunkCells]));
  }
  next_.push_back(kNil);
  free_.reserve(next_.capacity());
  return slot;
}

void Simulator::releaseSlot(std::uint32_t slot) noexcept {
  std::destroy_at(&actionAt(slot));
  free_.push_back(slot);  // within capacity, see free_
}

void Simulator::scheduleAt(Timestamp when, Action&& action) {
  EPTO_ENSURE_MSG(action != nullptr, "cannot schedule a null action");
  EPTO_ENSURE_MSG(when >= now_, "cannot schedule into the past");
  const std::uint32_t slot = takeSlot();
  ::new (cellAt(slot)) Action(std::move(action));
  const std::uint64_t sequence = nextSequence_++;
  ++pending_;
  // when >= now_ >= cursor_, so the difference cannot wrap.
  if (when - cursor_ < kRingSpan) {
    append(static_cast<std::size_t>(when) & kRingMask, slot);
  } else {
    overflow_.push_back(Overflow{when, sequence, slot});
    std::push_heap(overflow_.begin(), overflow_.end(), Later{});
  }
}

void Simulator::append(std::size_t bucket, std::uint32_t slot) {
  Bucket& fifo = buckets_[bucket];
  next_[slot] = kNil;
  if (fifo.tail == kNil) {
    fifo.head = slot;
    occupied_[bucket / 64] |= std::uint64_t{1} << (bucket % 64);
  } else {
    next_[fifo.tail] = slot;
  }
  fifo.tail = slot;
  ++inRing_;
}

Timestamp Simulator::nextTick() const noexcept {
  // Everything in the ring precedes everything in the overflow heap.
  if (inRing_ == 0) return overflow_.front().when;
  // First occupied bucket at or cyclically after the cursor's. The
  // cursor word's low bits are ticks at the far end of the window, so
  // they are masked off first and only seen again after the wrap.
  const std::size_t start = static_cast<std::size_t>(cursor_) & kRingMask;
  std::size_t word = start / 64;
  std::uint64_t bits = occupied_[word] & (~std::uint64_t{0} << (start % 64));
  while (bits == 0) {
    word = (word + 1) % occupied_.size();
    bits = occupied_[word];
  }
  const std::size_t bucket = word * 64 + static_cast<std::size_t>(std::countr_zero(bits));
  return cursor_ + ((bucket - start) & kRingMask);
}

void Simulator::advanceTo(Timestamp tick) {
  if (tick == cursor_) return;
  cursor_ = tick;
  // Popped in (when, sequence) order, and ahead of anything that can be
  // scheduled straight into the same buckets from now on.
  while (!overflow_.empty() && overflow_.front().when - cursor_ < kRingSpan) {
    std::pop_heap(overflow_.begin(), overflow_.end(), Later{});
    const Overflow entry = overflow_.back();
    overflow_.pop_back();
    append(static_cast<std::size_t>(entry.when) & kRingMask, entry.slot);
  }
}

void Simulator::runNext() {
  const std::size_t bucket = static_cast<std::size_t>(cursor_) & kRingMask;
  Bucket& fifo = buckets_[bucket];
  const std::uint32_t slot = fifo.head;
  fifo.head = next_[slot];
  if (fifo.head == kNil) {
    fifo.tail = kNil;
    occupied_[bucket / 64] &= ~(std::uint64_t{1} << (bucket % 64));
  } else {
    // The next closure was written long ago and is likely cold; fetch it
    // while this one runs.
    const auto* next = static_cast<const char*>(cellAt(fifo.head));
    __builtin_prefetch(next);
    __builtin_prefetch(next + 64);
  }
  --inRing_;
  --pending_;
  now_ = cursor_;
  ++executed_;
  // Run in place: cells never move, and this one is in no bucket and not
  // free, so nothing the action schedules can touch it.
  try {
    actionAt(slot)();
  } catch (...) {
    releaseSlot(slot);
    throw;
  }
  releaseSlot(slot);
}

bool Simulator::step() {
  if (pending_ == 0) return false;
  advanceTo(nextTick());
  runNext();
  return true;
}

void Simulator::runUntil(Timestamp end) {
  EPTO_ENSURE_MSG(end >= now_, "cannot run backwards");
  while (pending_ != 0) {
    const Timestamp tick = nextTick();
    if (tick > end) break;
    advanceTo(tick);
    runNext();
  }
  // Nothing is left at or before `end`, so the window may start there.
  advanceTo(end);
  now_ = end;
}

}  // namespace epto::sim
