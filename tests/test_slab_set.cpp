// Unit & property tests for the SlabHash concurrent set (the paper's new
// keys-only variant, Bc = 30). The cases both slab formats share run as
// SlabFormatTest in test_slab_map.cpp.
#include <gtest/gtest.h>

#include <set>

#include "src/memory/slab_arena.hpp"
#include "src/simt/thread_pool.hpp"
#include "src/slabhash/slab_hash.hpp"
#include "src/util/prng.hpp"

namespace sg::slabhash {
namespace {

class SlabSetTest : public ::testing::Test {
 protected:
  memory::SlabArena arena;
};

TEST_F(SlabSetTest, InsertThenContains) {
  SlabHashSet set(arena, 4);
  EXPECT_TRUE(set.insert(10));
  EXPECT_TRUE(set.contains(10));
  EXPECT_FALSE(set.contains(11));
}

TEST_F(SlabSetTest, DuplicateInsertReturnsFalse) {
  SlabHashSet set(arena, 4);
  EXPECT_TRUE(set.insert(10));
  EXPECT_FALSE(set.insert(10));
  EXPECT_EQ(set.occupancy().live_keys, 1u);
}

TEST_F(SlabSetTest, EraseSemantics) {
  SlabHashSet set(arena, 4);
  set.insert(10);
  EXPECT_TRUE(set.erase(10));
  EXPECT_FALSE(set.erase(10));
  EXPECT_FALSE(set.contains(10));
}

TEST_F(SlabSetTest, SetSlabHoldsThirtyKeys) {
  // Bc = 30 for the set (vs 15 for the map): 30 keys fit in one base slab.
  SlabHashSet set(arena, 1);
  for (std::uint32_t k = 0; k < 30; ++k) set.insert(k);
  const TableOccupancy occ = set.occupancy();
  EXPECT_EQ(occ.live_keys, 30u);
  EXPECT_EQ(occ.overflow_slabs, 0u);
  // The 31st key overflows into a dynamic slab.
  set.insert(31);
  EXPECT_EQ(set.occupancy().overflow_slabs, 1u);
}

TEST_F(SlabSetTest, TombstoneNotReused) {
  SlabHashSet set(arena, 1);
  set.insert(1);
  set.insert(2);
  set.erase(1);
  set.insert(3);  // scalar path: skips the tombstone (bulk runs refill it)
  const TableOccupancy occ = set.occupancy();
  EXPECT_EQ(occ.live_keys, 2u);
  EXPECT_EQ(occ.tombstones, 1u);
}

TEST_F(SlabSetTest, ReinsertAfterErase) {
  SlabHashSet set(arena, 1);
  set.insert(9);
  set.erase(9);
  EXPECT_TRUE(set.insert(9));
  EXPECT_TRUE(set.contains(9));
  EXPECT_EQ(set.occupancy().live_keys, 1u);
}

TEST_F(SlabSetTest, ChainGrowth) {
  SlabHashSet set(arena, 1);
  for (std::uint32_t k = 0; k < 500; ++k) set.insert(k);
  for (std::uint32_t k = 0; k < 500; ++k) ASSERT_TRUE(set.contains(k)) << k;
  EXPECT_GT(set.occupancy().overflow_slabs, 0u);
}

TEST_F(SlabSetTest, ForEachVisitsLiveKeysOnce) {
  SlabHashSet set(arena, 3);
  std::set<std::uint32_t> reference;
  for (std::uint32_t k = 0; k < 100; ++k) {
    set.insert(k * 3);
    reference.insert(k * 3);
  }
  for (std::uint32_t k = 0; k < 100; k += 5) {
    set.erase(k * 3);
    reference.erase(k * 3);
  }
  std::set<std::uint32_t> seen;
  set.for_each([&](std::uint32_t k, std::uint32_t) {
    ASSERT_TRUE(seen.insert(k).second);
  });
  EXPECT_EQ(seen, reference);
}

TEST_F(SlabSetTest, FlushTombstones) {
  SlabHashSet set(arena, 1);
  for (std::uint32_t k = 0; k < 120; ++k) set.insert(k);
  for (std::uint32_t k = 0; k < 120; ++k) {
    if (k % 2 == 0) set.erase(k);
  }
  set.flush_tombstones();
  const TableOccupancy occ = set.occupancy();
  EXPECT_EQ(occ.tombstones, 0u);
  EXPECT_EQ(occ.live_keys, 60u);
  for (std::uint32_t k = 0; k < 120; ++k) {
    ASSERT_EQ(set.contains(k), k % 2 == 1);
  }
}

TEST_F(SlabSetTest, ClearReleasesDynamicSlabs) {
  SlabHashSet set(arena, 1);
  for (std::uint32_t k = 0; k < 300; ++k) set.insert(k);
  EXPECT_GT(arena.stats().dynamic_slabs, 0u);
  set.clear();
  EXPECT_EQ(arena.stats().dynamic_slabs, 0u);
  EXPECT_EQ(set.occupancy().live_keys, 0u);
}

struct SetSweepParam {
  std::uint32_t buckets;
  std::uint32_t keys;
};

class SlabSetSweep : public ::testing::TestWithParam<SetSweepParam> {};

TEST_P(SlabSetSweep, RandomizedAgainstStdSet) {
  const auto [buckets, keys] = GetParam();
  memory::SlabArena arena;
  SlabHashSet set(arena, buckets);
  std::set<std::uint32_t> reference;
  util::Xoshiro256 rng(buckets * 7919 + keys);
  for (std::uint32_t op = 0; op < keys * 4; ++op) {
    const auto key = static_cast<std::uint32_t>(rng.below(keys * 2 + 1));
    if (rng.below(3) < 2) {
      EXPECT_EQ(set.insert(key), reference.insert(key).second);
    } else {
      EXPECT_EQ(set.erase(key), reference.erase(key) == 1);
    }
  }
  for (std::uint32_t k = 0; k <= keys * 2; ++k) {
    ASSERT_EQ(set.contains(k), reference.count(k) == 1) << k;
  }
  EXPECT_EQ(set.occupancy().live_keys, reference.size());
}

INSTANTIATE_TEST_SUITE_P(
    BucketKeyGrid, SlabSetSweep,
    ::testing::Values(SetSweepParam{1, 20}, SetSweepParam{1, 200},
                      SetSweepParam{2, 100}, SetSweepParam{8, 800},
                      SetSweepParam{32, 3000}, SetSweepParam{5, 137}),
    [](const auto& info) {
      return "b" + std::to_string(info.param.buckets) + "_k" +
             std::to_string(info.param.keys);
    });

TEST(SlabSetConcurrent, RacingDuplicateInsertsStayUnique) {
  memory::SlabArena arena;
  SlabHashSet set(arena, 2);
  simt::ThreadPool pool(8);
  constexpr std::uint32_t kKeys = 400;
  std::atomic<std::uint32_t> fresh{0};
  pool.parallel_for(16, [&](std::uint64_t) {
    for (std::uint32_t k = 0; k < kKeys; ++k) {
      if (set.insert(k)) fresh.fetch_add(1);
    }
  });
  EXPECT_EQ(fresh.load(), kKeys);
  EXPECT_EQ(set.occupancy().live_keys, kKeys);
}

TEST(SlabSetConcurrent, MixedKeyRangesFromManyThreads) {
  memory::SlabArena arena;
  SlabHashSet set(arena, 16);
  simt::ThreadPool pool(8);
  pool.parallel_for(64, [&](std::uint64_t t) {
    for (std::uint32_t i = 0; i < 200; ++i) {
      set.insert(static_cast<std::uint32_t>(t * 200 + i));
    }
  });
  EXPECT_EQ(set.occupancy().live_keys, 64u * 200u);
  for (std::uint32_t k = 0; k < 64 * 200; ++k) ASSERT_TRUE(set.contains(k));
}

}  // namespace
}  // namespace sg::slabhash
