// Unit & property tests for the SlabHash concurrent map: uniqueness under
// insert, most-recent-weight-wins, tombstone semantics (never reused by
// insertion; empties only at chain tails), chain growth, iteration, the
// value-filtered scan, occupancy accounting, compaction, and concurrent
// stress. The format-generic cases (SlabFormatTest) run on the set's slab
// format too.
#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "src/memory/slab_arena.hpp"
#include "src/simt/thread_pool.hpp"
#include "src/slabhash/slab_hash.hpp"
#include "src/util/prng.hpp"

namespace sg::slabhash {
namespace {

class SlabMapTest : public ::testing::Test {
 protected:
  memory::SlabArena arena;
};

TEST_F(SlabMapTest, InsertThenFind) {
  SlabHashMap map(arena, 4);
  EXPECT_TRUE(map.insert(10, 100));
  const auto hit = map.search(10);
  EXPECT_TRUE(hit.found);
  EXPECT_EQ(hit.value, 100u);
}

TEST_F(SlabMapTest, MissingKeyNotFound) {
  SlabHashMap map(arena, 4);
  map.insert(10, 100);
  EXPECT_FALSE(map.search(11).found);
}

TEST_F(SlabMapTest, ReplaceReturnsFalseForExistingKey) {
  SlabHashMap map(arena, 4);
  EXPECT_TRUE(map.insert(10, 100));
  EXPECT_FALSE(map.insert(10, 200));  // "previously existed ... just replaced"
  EXPECT_EQ(map.search(10).value, 200u);
}

TEST_F(SlabMapTest, MostRecentValueWins) {
  SlabHashMap map(arena, 2);
  for (std::uint32_t v = 0; v < 50; ++v) map.insert(7, v);
  EXPECT_EQ(map.search(7).value, 49u);
  // Still exactly one live copy of the key.
  EXPECT_EQ(map.occupancy().live_keys, 1u);
}

TEST_F(SlabMapTest, EraseReturnsPresence) {
  SlabHashMap map(arena, 4);
  map.insert(10, 1);
  EXPECT_TRUE(map.erase(10));
  EXPECT_FALSE(map.erase(10));  // second delete of the same key is a miss
  EXPECT_FALSE(map.search(10).found);
}

TEST_F(SlabMapTest, EraseOfAbsentKeyIsFalse) {
  SlabHashMap map(arena, 4);
  EXPECT_FALSE(map.erase(999));
}

TEST_F(SlabMapTest, TombstoneNotReusedByInsertion) {
  SlabHashMap map(arena, 1);  // single bucket => deterministic layout
  map.insert(1, 10);
  map.insert(2, 20);
  map.erase(1);
  // Re-inserting a *different* key must not overwrite the tombstone: the
  // tombstone stays, so occupancy shows 2 live + 1 tombstone.
  map.insert(3, 30);
  const TableOccupancy occ = map.occupancy();
  EXPECT_EQ(occ.live_keys, 2u);
  EXPECT_EQ(occ.tombstones, 1u);
}

TEST_F(SlabMapTest, ReinsertAfterEraseWorks) {
  SlabHashMap map(arena, 1);
  map.insert(5, 50);
  map.erase(5);
  EXPECT_TRUE(map.insert(5, 51));  // new key again (tombstone skipped)
  EXPECT_EQ(map.search(5).value, 51u);
}

TEST_F(SlabMapTest, ForEachVisitsExactlyLivePairs) {
  SlabHashMap map(arena, 3);
  std::map<std::uint32_t, std::uint32_t> reference;
  for (std::uint32_t k = 0; k < 60; ++k) {
    map.insert(k, k + 1000);
    reference[k] = k + 1000;
  }
  for (std::uint32_t k = 0; k < 60; k += 4) {
    map.erase(k);
    reference.erase(k);
  }
  std::map<std::uint32_t, std::uint32_t> seen;
  map.for_each([&](std::uint32_t k, std::uint32_t v) {
    ASSERT_TRUE(seen.emplace(k, v).second) << "duplicate key in iteration";
  });
  EXPECT_EQ(seen, reference);
}

TEST_F(SlabMapTest, ScanBelowMatchesForEachFilteredByValue) {
  // Few buckets and many keys: overflow chains, then tombstones in them.
  SlabHashMap map(arena, 3);
  for (std::uint32_t k = 0; k < 400; ++k) map.insert(k, (k * 37) % 1000);
  for (std::uint32_t k = 0; k < 400; k += 5) map.erase(k);
  ASSERT_GT(map.occupancy().overflow_slabs, 0u);
  ASSERT_GT(map.occupancy().tombstones, 0u);
  std::uint32_t gather_depth = 0;
  std::vector<std::uint32_t> all(400);
  const std::uint32_t live =
      MapOps::gather(arena, map.table(), all.data(), 400, &gather_depth);
  for (const std::uint32_t threshold : {0u, 1u, 370u, 999u, 1000u}) {
    std::multiset<std::uint32_t> expected;
    map.for_each([&](std::uint32_t k, std::uint32_t v) {
      if (v < threshold) expected.insert(k);
    });
    std::vector<std::uint32_t> out(live);
    std::uint32_t depth = 0;
    const std::uint32_t n =
        MapOps::scan_below(arena, map.table(), threshold, out.data(), live,
                           &depth);
    EXPECT_EQ(std::multiset<std::uint32_t>(out.begin(), out.begin() + n),
              expected)
        << "threshold " << threshold;
    EXPECT_EQ(depth, gather_depth);
  }
  // The scan stops at cap even when more keys qualify.
  std::vector<std::uint32_t> small(7, 0xDEADu);
  small.push_back(0xBEEFu);  // guard slot past cap
  EXPECT_EQ(MapOps::scan_below(arena, map.table(), 1000, small.data(), 7),
            7u);
  EXPECT_EQ(small[7], 0xBEEFu);
}

TEST_F(SlabMapTest, FlushTombstonesCompactsAndFrees) {
  SlabHashMap map(arena, 1);
  for (std::uint32_t k = 0; k < 90; ++k) map.insert(k, k);
  for (std::uint32_t k = 0; k < 90; ++k) {
    if (k % 3 != 0) map.erase(k);
  }
  const auto before = map.occupancy();
  EXPECT_GT(before.tombstones, 0u);
  const std::uint64_t dynamic_before = arena.stats().dynamic_slabs;
  map.flush_tombstones();
  const auto after = map.occupancy();
  EXPECT_EQ(after.tombstones, 0u);
  EXPECT_EQ(after.live_keys, before.live_keys);
  EXPECT_LT(arena.stats().dynamic_slabs, dynamic_before);
  // Content preserved.
  for (std::uint32_t k = 0; k < 90; ++k) {
    EXPECT_EQ(map.search(k).found, k % 3 == 0) << k;
  }
}

TEST_F(SlabMapTest, ClearFreesOverflowAndEmptiesTable) {
  SlabHashMap map(arena, 1);
  for (std::uint32_t k = 0; k < 200; ++k) map.insert(k, k);
  EXPECT_GT(arena.stats().dynamic_slabs, 0u);
  map.clear();
  EXPECT_EQ(arena.stats().dynamic_slabs, 0u);
  EXPECT_EQ(map.occupancy().live_keys, 0u);
  for (std::uint32_t k = 0; k < 200; ++k) ASSERT_FALSE(map.search(k).found);
}

// ---- format-generic cases, run on both slab formats ----------------------

template <class Layout>
class SlabFormatTest : public ::testing::Test {
 protected:
  using Table = SlabHash<Layout>;
  memory::SlabArena arena;
};

struct FormatName {
  template <class Layout>
  static std::string GetName(int) {
    return Layout::kHasValues ? "Map" : "Set";
  }
};
using Formats = ::testing::Types<MapLayout, SetLayout>;
TYPED_TEST_SUITE(SlabFormatTest, Formats, FormatName);

TYPED_TEST(SlabFormatTest, EmptiesOnlyAtChainTail) {
  // The paper's invariant: within a slab, EMPTY slots all sit after used
  // (live or tombstoned) slots.
  typename TestFixture::Table table(this->arena, 1);
  for (std::uint32_t k = 0; k < 40; ++k) table.insert(k, k);
  for (std::uint32_t k = 0; k < 40; k += 3) table.erase(k);
  for (std::uint32_t k = 100; k < 110; ++k) table.insert(k, k);
  memory::SlabHandle h = table.table().base;
  while (h != memory::kNullSlab) {
    const memory::Slab& slab = this->arena.resolve(h);
    bool seen_empty = false;
    for (int slot = 0; slot < TypeParam::kSlotsPerSlab; ++slot) {
      const std::uint32_t key = slab.words[slot * TypeParam::kKeyStride];
      if (key == kEmptyKey) {
        seen_empty = true;
      } else {
        ASSERT_FALSE(seen_empty) << "used slot after an empty slot";
      }
    }
    h = slab.words[kNextPtrWord];
  }
}

TYPED_TEST(SlabFormatTest, ChainGrowsBeyondOneSlab) {
  typename TestFixture::Table table(this->arena, 1);
  for (std::uint32_t k = 0; k < 100; ++k) table.insert(k, k * 2);
  for (std::uint32_t k = 0; k < 100; ++k) {
    ASSERT_TRUE(table.contains(k)) << k;
    if constexpr (TypeParam::kHasValues) {
      ASSERT_EQ(table.search(k).value, k * 2);
    }
  }
  EXPECT_GT(table.occupancy().overflow_slabs, 0u);
}

TYPED_TEST(SlabFormatTest, OccupancyCountsSlots) {
  typename TestFixture::Table table(this->arena, 2);
  const TableOccupancy empty = table.occupancy();
  EXPECT_EQ(empty.live_keys, 0u);
  EXPECT_EQ(empty.slots, 2u * TypeParam::kSlotsPerSlab);
  EXPECT_EQ(empty.base_slabs, 2u);
  table.insert(1, 1);
  EXPECT_DOUBLE_EQ(table.occupancy().utilization(),
                   1.0 / (2 * TypeParam::kSlotsPerSlab));
}

TYPED_TEST(SlabFormatTest, SentinelsAreNotStorableButNearMaxKeyIs) {
  typename TestFixture::Table table(this->arena, 2);
  EXPECT_TRUE(table.insert(kMaxKey, 1));
  EXPECT_TRUE(table.contains(kMaxKey));
}

TYPED_TEST(SlabFormatTest, ZeroBucketRequestClampedToOne) {
  typename TestFixture::Table table(this->arena, 0);
  EXPECT_TRUE(table.insert(1, 1));
  EXPECT_EQ(table.table().num_buckets, 1u);
}

TYPED_TEST(SlabFormatTest, RacingDeletesCountEachKeyOnce) {
  typename TestFixture::Table table(this->arena, 4);
  constexpr std::uint32_t kKeys = 500;
  for (std::uint32_t k = 0; k < kKeys; ++k) table.insert(k, k);
  std::atomic<std::uint32_t> removals{0};
  simt::ThreadPool pool(8);
  pool.parallel_for(16, [&](std::uint64_t) {
    for (std::uint32_t k = 0; k < kKeys; ++k) {
      if (table.erase(k)) removals.fetch_add(1);
    }
  });
  EXPECT_EQ(removals.load(), kKeys);  // the CAS makes deletion exactly-once
  EXPECT_EQ(table.occupancy().live_keys, 0u);
}

TEST(SlabMapHash, BucketOfIsStableAndInRange) {
  for (std::uint32_t buckets : {1u, 2u, 7u, 1024u}) {
    for (std::uint32_t key = 0; key < 1000; ++key) {
      const std::uint32_t b = bucket_of(key, buckets, 42);
      EXPECT_LT(b, buckets);
      EXPECT_EQ(b, bucket_of(key, buckets, 42));
    }
  }
}

TEST(SlabMapHash, DifferentSeedsGiveDifferentPartitions) {
  int moved = 0;
  for (std::uint32_t key = 0; key < 1000; ++key) {
    if (bucket_of(key, 64, 1) != bucket_of(key, 64, 2)) ++moved;
  }
  EXPECT_GT(moved, 800);
}

TEST(SlabMapHash, BucketsForSizingRule) {
  // ceil(keys / (lf * Bc)), Bc = 15.
  EXPECT_EQ(buckets_for(0, 0.7, 15), 1u);
  EXPECT_EQ(buckets_for(10, 0.7, 15), 1u);    // 10 / 10.5 -> 1
  EXPECT_EQ(buckets_for(11, 0.7, 15), 2u);    // 11 / 10.5 -> 2
  EXPECT_EQ(buckets_for(105, 1.0, 15), 7u);
  EXPECT_EQ(buckets_for(106, 1.0, 15), 8u);
}

// ---- parameterized sweeps ------------------------------------------------

struct MapSweepParam {
  std::uint32_t buckets;
  std::uint32_t keys;
};

class SlabMapSweep : public ::testing::TestWithParam<MapSweepParam> {};

TEST_P(SlabMapSweep, InsertSearchDeleteRoundTrip) {
  const auto [buckets, keys] = GetParam();
  memory::SlabArena arena;
  SlabHashMap map(arena, buckets);
  for (std::uint32_t k = 0; k < keys; ++k) {
    ASSERT_TRUE(map.insert(k * 7 + 1, k));
  }
  EXPECT_EQ(map.occupancy().live_keys, keys);
  for (std::uint32_t k = 0; k < keys; ++k) {
    ASSERT_TRUE(map.search(k * 7 + 1).found);
    ASSERT_EQ(map.search(k * 7 + 1).value, k);
    ASSERT_FALSE(map.search(k * 7 + 2).found);
  }
  for (std::uint32_t k = 0; k < keys; k += 2) {
    ASSERT_TRUE(map.erase(k * 7 + 1));
  }
  for (std::uint32_t k = 0; k < keys; ++k) {
    ASSERT_EQ(map.search(k * 7 + 1).found, k % 2 == 1) << k;
  }
}

TEST_P(SlabMapSweep, RandomizedAgainstStdMap) {
  const auto [buckets, keys] = GetParam();
  memory::SlabArena arena;
  SlabHashMap map(arena, buckets);
  std::map<std::uint32_t, std::uint32_t> reference;
  util::Xoshiro256 rng(buckets * 1000 + keys);
  for (std::uint32_t op = 0; op < keys * 4; ++op) {
    const auto key = static_cast<std::uint32_t>(rng.below(keys * 2 + 1));
    const auto value = static_cast<std::uint32_t>(rng.below(1 << 20));
    switch (rng.below(3)) {
      case 0:
      case 1: {
        const bool fresh = map.insert(key, value);
        EXPECT_EQ(fresh, reference.find(key) == reference.end());
        reference[key] = value;
        break;
      }
      default: {
        const bool removed = map.erase(key);
        EXPECT_EQ(removed, reference.erase(key) == 1);
        break;
      }
    }
  }
  for (const auto& [k, v] : reference) {
    ASSERT_TRUE(map.search(k).found) << k;
    ASSERT_EQ(map.search(k).value, v);
  }
  EXPECT_EQ(map.occupancy().live_keys, reference.size());
}

INSTANTIATE_TEST_SUITE_P(
    BucketKeyGrid, SlabMapSweep,
    ::testing::Values(MapSweepParam{1, 10}, MapSweepParam{1, 100},
                      MapSweepParam{1, 500}, MapSweepParam{4, 100},
                      MapSweepParam{16, 400}, MapSweepParam{64, 2000},
                      MapSweepParam{128, 500}, MapSweepParam{7, 333}),
    [](const auto& info) {
      return "b" + std::to_string(info.param.buckets) + "_k" +
             std::to_string(info.param.keys);
    });

// ---- concurrency ---------------------------------------------------------

TEST(SlabMapConcurrent, ParallelDistinctInsertsAllLand) {
  memory::SlabArena arena;
  SlabHashMap map(arena, 8);
  simt::ThreadPool pool(8);
  constexpr std::uint32_t kKeys = 4000;
  pool.parallel_for(kKeys, [&](std::uint64_t k) {
    map.insert(static_cast<std::uint32_t>(k),
                static_cast<std::uint32_t>(k) + 7);
  });
  EXPECT_EQ(map.occupancy().live_keys, kKeys);
  for (std::uint32_t k = 0; k < kKeys; ++k) {
    ASSERT_EQ(map.search(k).value, k + 7);
  }
}

TEST(SlabMapConcurrent, RacingDuplicateInsertsKeepUniqueness) {
  // 16 tasks insert the SAME key set concurrently; the table must hold each
  // key exactly once ("their ability to ensure uniqueness while performing
  // updates").
  memory::SlabArena arena;
  SlabHashMap map(arena, 4);
  simt::ThreadPool pool(8);
  constexpr std::uint32_t kKeys = 300;
  std::atomic<std::uint32_t> fresh_claims{0};
  pool.parallel_for(16, [&](std::uint64_t) {
    for (std::uint32_t k = 0; k < kKeys; ++k) {
      if (map.insert(k, k)) fresh_claims.fetch_add(1);
    }
  });
  // Exactly one task won the "new key" return per key.
  EXPECT_EQ(fresh_claims.load(), kKeys);
  EXPECT_EQ(map.occupancy().live_keys, kKeys);
  std::set<std::uint32_t> seen;
  map.for_each([&](std::uint32_t k, std::uint32_t) {
    ASSERT_TRUE(seen.insert(k).second) << "duplicate key " << k;
  });
}

TEST(SlabMapConcurrent, SearchNeverObservesKeyWithoutValue) {
  // map_replace publishes <key, value> with ONE 64-bit CAS on the adjacent
  // word pair, so a reader that finds a key must also see its value — the
  // read-your-write window the old key-CAS + value-store pair left open.
  // Writers insert fresh keys whose value encodes the key; any search hit
  // returning a mismatched value means the pair tore.
  memory::SlabArena arena;
  SlabHashMap map(arena, 2);  // small table: long chains, heavy collisions
  constexpr std::uint32_t kKeys = 4000;
  std::atomic<std::uint32_t> next{0};
  std::atomic<std::uint32_t> torn{0};
  simt::ThreadPool pool(8);
  pool.parallel_for(16, [&](std::uint64_t task) {
    if (task % 2 == 0) {  // writer: claim a range of fresh keys
      for (;;) {
        const std::uint32_t k = next.fetch_add(1);
        if (k >= kKeys) return;
        map.insert(k, k ^ 0xA5A5A5A5u);
      }
    }
    util::Xoshiro256 rng(task);
    for (int probes = 0; probes < 200000; ++probes) {
      const auto k = static_cast<std::uint32_t>(rng.below(kKeys));
      const MapFindResult hit = map.search(k);
      if (hit.found && hit.value != (k ^ 0xA5A5A5A5u)) torn.fetch_add(1);
    }
  });
  EXPECT_EQ(torn.load(), 0u);
  EXPECT_EQ(map.occupancy().live_keys, kKeys);
}

}  // namespace
}  // namespace sg::slabhash
