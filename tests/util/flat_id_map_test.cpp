// Property test: util::FlatIdMap against std::unordered_map under random
// insert, overwrite, find, erase, growth, clear and move. Keys come from
// small pools, so most operations hit existing keys and probe runs
// collide; the pools include 0 and the all-ones key the map reserves as
// its empty-slot marker.
#include <gtest/gtest.h>

#include <cstdint>
#include <unordered_map>
#include <utility>
#include <vector>

#include "util/flat_id_map.h"
#include "util/rng.h"

namespace epto::util {
namespace {

using Map = FlatIdMap<std::uint64_t>;
using Reference = std::unordered_map<std::uint64_t, std::uint64_t>;

constexpr std::uint64_t kAllOnes = ~std::uint64_t{0};

void expectSame(const Map& map, const Reference& reference,
                const std::vector<std::uint64_t>& pool) {
  ASSERT_EQ(map.size(), reference.size());
  for (const std::uint64_t key : pool) {
    const auto it = reference.find(key);
    const std::uint64_t* found = map.find(key);
    if (it == reference.end()) {
      ASSERT_EQ(found, nullptr) << "key " << key;
    } else {
      ASSERT_NE(found, nullptr) << "key " << key;
      ASSERT_EQ(*found, it->second) << "key " << key;
    }
  }
}

/// Packed EventIds from a few sources, as the protocol produces them,
/// plus the two edge keys.
std::vector<std::uint64_t> keyPool(Rng& rng, std::size_t count) {
  std::vector<std::uint64_t> pool{0, kAllOnes};
  while (pool.size() < count) {
    const std::uint64_t source = rng.below(8);
    const std::uint64_t sequence = rng.below(count);
    pool.push_back((source << 32) | sequence);
  }
  return pool;
}

TEST(FlatIdMap, MatchesUnorderedMapUnderRandomOperations) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    Rng rng(seed);
    const std::vector<std::uint64_t> pool = keyPool(rng, 64 << seed);
    Map map;
    Reference reference;
    for (int op = 0; op < 40000; ++op) {
      const std::uint64_t key = pool[rng.below(pool.size())];
      const std::uint64_t value = rng();
      const std::uint64_t roll = rng.below(100);
      if (roll < 35) {
        const auto [stored, inserted] = map.tryEmplace(key, value);
        const auto [it, refInserted] = reference.try_emplace(key, value);
        ASSERT_EQ(inserted, refInserted);
        ASSERT_EQ(*stored, it->second);
      } else if (roll < 50) {
        map[key] = value;
        reference[key] = value;
      } else if (roll < 85) {
        ASSERT_EQ(map.erase(key), reference.erase(key) == 1);
      } else if (roll < 99) {
        const auto it = reference.find(key);
        const std::uint64_t* found = map.find(key);
        ASSERT_EQ(found != nullptr, it != reference.end());
        if (found != nullptr) {
          ASSERT_EQ(*found, it->second);
        }
      } else {
        map.clear();
        reference.clear();
      }
      if (op % 997 == 0) expectSame(map, reference, pool);
    }
    expectSame(map, reference, pool);
  }
}

TEST(FlatIdMap, GrowsThroughManyInsertionsAndErasesBack) {
  Map map;
  Reference reference;
  std::vector<std::uint64_t> keys;
  for (std::uint64_t i = 0; i < 50000; ++i) {
    const std::uint64_t key = ((i % 97) << 32) | (i / 97);
    keys.push_back(key);
    ASSERT_TRUE(map.tryEmplace(key, i).second);
    reference.emplace(key, i);
  }
  expectSame(map, reference, keys);
  for (std::size_t i = 0; i < keys.size(); i += 2) {
    ASSERT_TRUE(map.erase(keys[i]));
    reference.erase(keys[i]);
  }
  expectSame(map, reference, keys);
  for (const std::uint64_t key : keys) {
    map.erase(key);
    reference.erase(key);
  }
  expectSame(map, reference, keys);
  EXPECT_EQ(map.size(), 0u);
}

TEST(FlatIdMap, BackwardShiftEraseAcrossTheWrapAround) {
  // Keys whose home is the last slot of the smallest table: their probe
  // run wraps to the front, and erasing from it must shift entries back
  // across the wrap. Five entries keep the table at sixteen slots.
  std::vector<std::uint64_t> lastSlot;
  for (std::uint64_t key = 1; lastSlot.size() < 3; ++key) {
    if ((mix64(key) & 15) == 15) lastSlot.push_back(key);
  }
  std::vector<std::uint64_t> firstSlot;
  for (std::uint64_t key = 1; firstSlot.size() < 2; ++key) {
    if ((mix64(key) & 15) == 0) firstSlot.push_back(key);
  }
  for (std::size_t victim = 0; victim < 5; ++victim) {
    Map map;
    Reference reference;
    std::vector<std::uint64_t> keys = lastSlot;
    keys.insert(keys.end(), firstSlot.begin(), firstSlot.end());
    for (const std::uint64_t key : keys) {
      map.tryEmplace(key, key * 3);
      reference.emplace(key, key * 3);
    }
    expectSame(map, reference, keys);
    ASSERT_TRUE(map.erase(keys[victim]));
    reference.erase(keys[victim]);
    expectSame(map, reference, keys);
    // The freed slot is reusable and every survivor stays reachable.
    map.tryEmplace(keys[victim], 7);
    reference.emplace(keys[victim], 7);
    expectSame(map, reference, keys);
  }
}

TEST(FlatIdMap, ClearKeepsTheMapUsable) {
  Map map;
  for (std::uint64_t key = 0; key < 100; ++key) map[key] = key;
  map[kAllOnes] = 5;
  map.clear();
  EXPECT_EQ(map.size(), 0u);
  EXPECT_EQ(map.find(3), nullptr);
  EXPECT_EQ(map.find(kAllOnes), nullptr);
  map[3] = 9;
  EXPECT_EQ(map.size(), 1u);
  EXPECT_EQ(*map.find(3), 9u);
}

TEST(FlatIdMap, MoveTransfersEntriesAndEmptiesTheSource) {
  Map source;
  Reference reference;
  std::vector<std::uint64_t> keys{kAllOnes};
  for (std::uint64_t key = 0; key < 300; ++key) keys.push_back(key << 32 | key);
  for (const std::uint64_t key : keys) {
    source[key] = key + 1;
    reference[key] = key + 1;
  }
  Map moved(std::move(source));
  expectSame(moved, reference, keys);
  expectSame(source, Reference{}, keys);  // NOLINT(bugprone-use-after-move)

  Map assigned;
  assigned[42] = 1;
  assigned = std::move(moved);
  expectSame(assigned, reference, keys);
  expectSame(moved, Reference{}, keys);  // NOLINT(bugprone-use-after-move)

  // Moved-from maps accept new entries.
  source[8] = 8;
  moved[9] = 9;
  EXPECT_EQ(*source.find(8), 8u);
  EXPECT_EQ(*moved.find(9), 9u);

  // Swapping generations, as the ingress guard rotates them.
  std::swap(source, assigned);
  expectSame(source, reference, keys);
  EXPECT_EQ(*assigned.find(8), 8u);
}

}  // namespace
}  // namespace epto::util
