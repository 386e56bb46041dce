// Unit & property tests for the SlabHash concurrent map: uniqueness under
// insert, most-recent-weight-wins, tombstone semantics (skipped by the
// scalar insert, refilled by bulk runs; empties only at chain tails), chain
// growth, iteration, the value-filtered scan, occupancy accounting,
// compaction, and concurrent stress. The format-generic cases
// (SlabFormatTest) run on the set's slab format too.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
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
  // On the scalar path, re-inserting a *different* key must not overwrite
  // the tombstone: the tombstone stays, so occupancy shows 2 live + 1
  // tombstone. (Bulk runs do refill it: SlabFormatTest below.)
  map.insert(3, 30);
  const TableOccupancy occ = map.occupancy();
  EXPECT_EQ(occ.live_keys, 2u);
  EXPECT_EQ(occ.tombstones, 1u);
}

TEST_F(SlabMapTest, ReinsertAfterEraseWorks) {
  SlabHashMap map(arena, 1);
  map.insert(5, 50);
  map.erase(5);
  EXPECT_TRUE(map.insert(5, 51));  // new again (scalar: tombstone skipped)
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
  std::vector<std::uint32_t> all(400);
  const std::uint32_t live =
      MapOps::gather(arena, map.table(), all.data(), 400);
  for (const std::uint32_t threshold : {0u, 1u, 370u, 999u, 1000u}) {
    std::multiset<std::uint32_t> expected;
    map.for_each([&](std::uint32_t k, std::uint32_t v) {
      if (v < threshold) expected.insert(k);
    });
    std::vector<std::uint32_t> out(live);
    const std::uint32_t n =
        MapOps::scan_below(arena, map.table(), threshold, out.data(), live);
    EXPECT_EQ(std::multiset<std::uint32_t>(out.begin(), out.begin() + n),
              expected)
        << "threshold " << threshold;
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
  using Ops = SlabOps<Layout>;
  static constexpr std::uint32_t kSlots = Layout::kSlotsPerSlab;

  /// Hands `keys` to bucket 0 of a one-bucket table as one staged run, the
  /// way the batch engine does: sorted, unique, value = key + 1. A one-key
  /// run takes the singleton path.
  static std::uint32_t bulk_insert(memory::SlabArena& arena,
                                   const Table& table,
                                   std::vector<std::uint32_t> keys,
                                   BulkStatus* status = nullptr) {
    std::sort(keys.begin(), keys.end());
    std::vector<std::uint32_t> values;
    for (const std::uint32_t k : keys) values.push_back(k + 1);
    return Ops::bulk_insert(arena, table.table(), 0, keys.data(),
                            values.data(),
                            static_cast<std::uint32_t>(keys.size()), 0,
                            status);
  }
  std::uint32_t bulk_insert(const Table& table,
                            std::vector<std::uint32_t> keys) {
    return bulk_insert(arena, table, std::move(keys));
  }

  /// Every live key, once per stored copy.
  static std::multiset<std::uint32_t> keys_of(const Table& table) {
    std::multiset<std::uint32_t> keys;
    table.for_each([&](std::uint32_t k, std::uint32_t) { keys.insert(k); });
    return keys;
  }

  /// The paper's invariant: walking the chain slab by slab, no used (live
  /// or tombstoned) slot follows an EMPTY one — within a slab, and across
  /// slabs, which is what lets a probe stop at the first EMPTY slot.
  void expect_empties_at_tail(const Table& table) const {
    bool seen_empty = false;
    memory::SlabHandle h = table.table().base;
    while (h != memory::kNullSlab) {
      const memory::Slab& slab = arena.resolve(h);
      for (int slot = 0; slot < Layout::kSlotsPerSlab; ++slot) {
        const std::uint32_t key = slab.words[slot * Layout::kKeyStride];
        if (key == kEmptyKey) {
          seen_empty = true;
        } else {
          ASSERT_FALSE(seen_empty) << "used slot after an empty slot";
        }
      }
      h = slab.words[kNextPtrWord];
    }
  }

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
  this->expect_empties_at_tail(table);
  // Bulk runs refill the tombstones first, then the tail: still no used
  // slot after an EMPTY one.
  for (std::uint32_t k = 200; k < 205; ++k) {
    this->bulk_insert(table, {k});  // singleton runs
  }
  this->expect_empties_at_tail(table);
  std::vector<std::uint32_t> run;
  for (std::uint32_t k = 300; k < 340; ++k) run.push_back(k);
  this->bulk_insert(table, run);  // two waves
  this->expect_empties_at_tail(table);
  EXPECT_EQ(table.occupancy().tombstones, 0u);
}

TYPED_TEST(SlabFormatTest, BulkInsertRefillsTombstonesOfFullChain) {
  constexpr std::uint32_t kFull = 2 * TestFixture::kSlots;  // base + 1 slab
  // k = 1 is a singleton run; k = kFull tombstones the whole chain (the
  // set's 60 keys arrive as two waves, the first capped at 32 tombstones).
  for (const std::uint32_t k : {1u, 7u, kFull}) {
    typename TestFixture::Table table(this->arena, 1);
    std::set<std::uint32_t> expected;
    for (std::uint32_t key = 0; key < kFull; ++key) {
      table.insert(key, key);
      expected.insert(key);
    }
    ASSERT_EQ(table.occupancy().overflow_slabs, 1u);
    // Erase k keys spread over both slabs, then bulk-insert k new keys.
    std::vector<std::uint32_t> fresh;
    for (std::uint32_t i = 0; i < k; ++i) {
      ASSERT_TRUE(table.erase(i * kFull / k));
      expected.erase(i * kFull / k);
      fresh.push_back(1000 + i);
      expected.insert(1000 + i);
    }
    EXPECT_EQ(this->bulk_insert(table, fresh), k) << "k = " << k;
    const TableOccupancy occ = table.occupancy();
    EXPECT_EQ(occ.overflow_slabs, 1u) << "k = " << k;
    EXPECT_EQ(occ.tombstones, 0u) << "k = " << k;
    EXPECT_EQ(occ.live_keys, kFull) << "k = " << k;
    EXPECT_EQ(this->keys_of(table),
              std::multiset<std::uint32_t>(expected.begin(), expected.end()));
    if constexpr (TypeParam::kHasValues) {
      for (const std::uint32_t key : fresh) {
        EXPECT_EQ(table.search(key).value, key + 1);
      }
    }
    this->expect_empties_at_tail(table);
  }
}

TYPED_TEST(SlabFormatTest, BulkInsertFillsTombstonesThenTailThenGrows) {
  constexpr std::uint32_t kSlots = TestFixture::kSlots;
  typename TestFixture::Table table(this->arena, 1);
  // A full base slab and a half-full overflow slab; four tombstones in the
  // base slab.
  for (std::uint32_t key = 0; key < kSlots + kSlots / 2; ++key) {
    table.insert(key, key);
  }
  for (std::uint32_t key = 0; key < 4; ++key) ASSERT_TRUE(table.erase(key));
  // One run: four keys fill the tombstones, the tail slots take the next
  // ones, and three more need a new slab.
  const std::uint32_t tail = kSlots - kSlots / 2;
  std::vector<std::uint32_t> fresh;
  for (std::uint32_t i = 0; i < 4 + tail + 3; ++i) fresh.push_back(1000 + i);
  EXPECT_EQ(this->bulk_insert(table, fresh), fresh.size());
  const TableOccupancy occ = table.occupancy();
  EXPECT_EQ(occ.tombstones, 0u);
  EXPECT_EQ(occ.overflow_slabs, 2u);
  EXPECT_EQ(occ.live_keys, 2 * kSlots + 3);
  this->expect_empties_at_tail(table);
  for (const std::uint32_t key : fresh) EXPECT_TRUE(table.contains(key));
  // The base slab holds no tombstone and no EMPTY slot any more.
  const memory::Slab& base = this->arena.resolve(table.table().base);
  for (int slot = 0; slot < TypeParam::kSlotsPerSlab; ++slot) {
    EXPECT_LE(base.words[slot * TypeParam::kKeyStride], kMaxKey) << slot;
  }
}

TYPED_TEST(SlabFormatTest, BulkInsertOverwritesKeyBehindTombstone) {
  // The trap of claiming too early: the key lives in the second slab while
  // the first slab holds a tombstone. Claiming the tombstone before the
  // walk reaches the chain's end would store the key twice.
  constexpr std::uint32_t kFull = 2 * TestFixture::kSlots;
  constexpr std::uint32_t kDeep = kFull - 1;  // last slot of slab 2
  typename TestFixture::Table table(this->arena, 1);
  for (std::uint32_t key = 0; key < kFull; ++key) table.insert(key, key);
  ASSERT_TRUE(table.erase(0));  // tombstone in slab 1
  const auto copies = [&](std::uint32_t key) {
    return this->keys_of(table).count(key);
  };

  EXPECT_EQ(this->bulk_insert(table, {kDeep}), 0u);  // singleton run
  EXPECT_EQ(copies(kDeep), 1u);
  EXPECT_EQ(table.occupancy().tombstones, 1u);
  if constexpr (TypeParam::kHasValues) {
    EXPECT_EQ(table.search(kDeep).value, kDeep + 1);
  }

  EXPECT_EQ(this->bulk_insert(table, {kDeep, 5000}), 1u);  // bulk run
  EXPECT_EQ(copies(kDeep), 1u);
  EXPECT_EQ(copies(5000), 1u);
  EXPECT_EQ(table.occupancy().tombstones, 0u);  // 5000 took the tombstone
  EXPECT_EQ(table.occupancy().overflow_slabs, 1u);
  this->expect_empties_at_tail(table);
}

TYPED_TEST(SlabFormatTest, ExhaustedArenaStillFillsTombstones) {
  constexpr std::uint32_t kSlots = TestFixture::kSlots;
  memory::SlabArena arena;
  arena.set_chunk_limit(1);  // the base slab's chunk: no collision slab
  typename TestFixture::Table table(arena, 1);
  for (std::uint32_t key = 0; key < kSlots; ++key) table.insert(key, key);
  for (std::uint32_t key = 0; key < 3; ++key) ASSERT_TRUE(table.erase(key));

  // Five new keys, three tombstones: three land, two are reported.
  const std::vector<std::uint32_t> run = {100, 101, 102, 103, 104};
  BulkStatus status;
  EXPECT_EQ(TestFixture::bulk_insert(arena, table, run, &status), 3u);
  EXPECT_FALSE(status.ok);
  EXPECT_EQ(status.fail_base, 0u);
  EXPECT_EQ(std::popcount(status.fail_pending), 2);
  for (std::uint32_t lane = 0; lane < run.size(); ++lane) {
    const bool unapplied = ((status.fail_pending >> lane) & 1u) != 0;
    EXPECT_EQ(table.contains(run[lane]), !unapplied) << "lane " << lane;
  }
  EXPECT_EQ(table.occupancy().tombstones, 0u);
  EXPECT_EQ(table.occupancy().live_keys, kSlots);

  // Singleton runs: no slot left, then one erase frees a tombstone for it.
  BulkStatus full;
  EXPECT_EQ(TestFixture::bulk_insert(arena, table, {200}, &full), 0u);
  EXPECT_FALSE(full.ok);
  EXPECT_EQ(full.fail_pending, 1u);
  ASSERT_TRUE(table.erase(10));
  BulkStatus reuse;
  EXPECT_EQ(TestFixture::bulk_insert(arena, table, {200}, &reuse), 1u);
  EXPECT_TRUE(reuse.ok);
  EXPECT_TRUE(table.contains(200));
  EXPECT_EQ(table.occupancy().overflow_slabs, 0u);
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
