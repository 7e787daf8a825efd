// Open-addressing hash map keyed by a packed 64-bit id — the duplicate
// index of the ordering component and the ingress guard's fingerprint
// table (DESIGN.md §11).
//
// Both sit on the per-event path: every absorbed copy and every
// inspected event costs one lookup, and most lookups hit. A
// std::unordered_map lookup chases a bucket pointer and then a node
// pointer, two dependent cache misses on a cold table. Here a key and
// its value share one slot in a flat array, probed linearly from the
// key's hash, so a hit is usually one miss.
//
//   * Keys are EventId::packed() values; the hash is util::mix64, which
//     spreads the (source << 32 | sequence) structure over all bits.
//   * The capacity is a power of two and the load stays at or below one
//     half, so probe runs stay short.
//   * Erase shifts the following run back instead of leaving a
//     tombstone, so lookups never slow down with churn.
//   * One key value marks an empty slot. The map still accepts that key
//     (ids come off the wire and may be anything): it lives in a side
//     slot outside the array.
//
// Pointers to values stay valid until the next insertion or erase.
// Deliberately minimal: no iteration, no custom hash or allocator.
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "util/rng.h"

namespace epto::util {

template <typename Value>
class FlatIdMap {
 public:
  FlatIdMap() = default;
  FlatIdMap(const FlatIdMap&) = default;
  FlatIdMap& operator=(const FlatIdMap&) = default;
  FlatIdMap(FlatIdMap&& other) noexcept { *this = std::move(other); }
  FlatIdMap& operator=(FlatIdMap&& other) noexcept {
    if (this != &other) {
      slots_ = std::move(other.slots_);
      mask_ = other.mask_;
      size_ = other.size_;
      hasEmptyKey_ = other.hasEmptyKey_;
      emptyKeyValue_ = std::move(other.emptyKeyValue_);
      other.slots_.clear();
      other.mask_ = 0;
      other.size_ = 0;
      other.hasEmptyKey_ = false;
    }
    return *this;
  }

  [[nodiscard]] std::size_t size() const noexcept { return size_; }

  [[nodiscard]] Value* find(std::uint64_t key) noexcept {
    if (key == kEmptyKey) return hasEmptyKey_ ? &emptyKeyValue_ : nullptr;
    if (slots_.empty()) return nullptr;
    for (std::size_t i = home(key);; i = (i + 1) & mask_) {
      Slot& slot = slots_[i];
      if (slot.key == key) return &slot.value;
      if (slot.key == kEmptyKey) return nullptr;
    }
  }
  [[nodiscard]] const Value* find(std::uint64_t key) const noexcept {
    return const_cast<FlatIdMap*>(this)->find(key);
  }

  /// Insert `value` under `key` unless the key is present. Returns the
  /// stored value and whether this call inserted it.
  std::pair<Value*, bool> tryEmplace(std::uint64_t key, Value value) {
    if (key == kEmptyKey) {
      if (hasEmptyKey_) return {&emptyKeyValue_, false};
      hasEmptyKey_ = true;
      emptyKeyValue_ = std::move(value);
      ++size_;
      return {&emptyKeyValue_, true};
    }
    if ((size_ + 1) * 2 > slots_.size()) grow();
    for (std::size_t i = home(key);; i = (i + 1) & mask_) {
      Slot& slot = slots_[i];
      if (slot.key == key) return {&slot.value, false};
      if (slot.key == kEmptyKey) {
        slot.key = key;
        slot.value = std::move(value);
        ++size_;
        return {&slot.value, true};
      }
    }
  }

  /// The value under `key`, value-initialised first if absent.
  Value& operator[](std::uint64_t key) { return *tryEmplace(key, Value{}).first; }

  /// Remove `key`; returns whether it was present.
  bool erase(std::uint64_t key) noexcept {
    if (key == kEmptyKey) {
      if (!hasEmptyKey_) return false;
      hasEmptyKey_ = false;
      emptyKeyValue_ = Value{};
      --size_;
      return true;
    }
    if (slots_.empty()) return false;
    std::size_t hole = home(key);
    while (slots_[hole].key != key) {
      if (slots_[hole].key == kEmptyKey) return false;
      hole = (hole + 1) & mask_;
    }
    // Backward shift: walk the run after the hole and pull back every
    // entry whose home lies cyclically at or before the hole, so no probe
    // sequence ever crosses an empty slot it should not stop at.
    for (std::size_t next = (hole + 1) & mask_; slots_[next].key != kEmptyKey;
         next = (next + 1) & mask_) {
      const std::size_t fromHome = (next - home(slots_[next].key)) & mask_;
      const std::size_t fromHole = (next - hole) & mask_;
      if (fromHome >= fromHole) {
        slots_[hole] = std::move(slots_[next]);
        hole = next;
      }
    }
    slots_[hole] = Slot{};
    --size_;
    return true;
  }

  /// Drop every entry; the slot array keeps its capacity.
  void clear() noexcept {
    if (size_ == 0) return;
    for (Slot& slot : slots_) slot = Slot{};
    hasEmptyKey_ = false;
    emptyKeyValue_ = Value{};
    size_ = 0;
  }

 private:
  static constexpr std::uint64_t kEmptyKey = ~std::uint64_t{0};
  static constexpr std::size_t kMinCapacity = 16;

  struct Slot {
    std::uint64_t key = kEmptyKey;
    Value value{};
  };

  [[nodiscard]] std::size_t home(std::uint64_t key) const noexcept {
    return static_cast<std::size_t>(mix64(key)) & mask_;
  }

  void grow() {
    const std::size_t capacity = slots_.empty() ? kMinCapacity : slots_.size() * 2;
    std::vector<Slot> old = std::exchange(slots_, std::vector<Slot>(capacity));
    mask_ = capacity - 1;
    for (Slot& slot : old) {
      if (slot.key == kEmptyKey) continue;
      std::size_t i = home(slot.key);
      while (slots_[i].key != kEmptyKey) i = (i + 1) & mask_;
      slots_[i] = std::move(slot);
    }
  }

  std::vector<Slot> slots_;
  std::size_t mask_ = 0;
  std::size_t size_ = 0;  ///< Includes the side slot.
  bool hasEmptyKey_ = false;
  Value emptyKeyValue_{};
};

}  // namespace epto::util
