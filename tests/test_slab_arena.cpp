// Unit tests for the SlabArena: bulk contiguous allocation, dynamic slab
// alloc/free/reuse, handle resolution, statistics, and concurrent stress.
#include <gtest/gtest.h>

#include <set>
#include <type_traits>
#include <vector>

#include "src/memory/slab_arena.hpp"
#include "src/simt/thread_pool.hpp"

namespace sg::memory {
namespace {

TEST(SlabArena, ContiguousAllocationIsContiguous) {
  SlabArena arena;
  const SlabHandle first = arena.allocate_contiguous(10, 0xAAAAAAAAu);
  for (std::uint32_t i = 1; i < 10; ++i) {
    // Consecutive handles resolve to adjacent slabs of the same chunk.
    EXPECT_EQ(&arena.resolve(first + i), &arena.resolve(first) + i);
  }
}

TEST(SlabArena, ContiguousFillWordApplied) {
  SlabArena arena;
  const SlabHandle h = arena.allocate_contiguous(3, 0xDEADBEEFu);
  for (std::uint32_t s = 0; s < 3; ++s) {
    for (int w = 0; w < kWordsPerSlab; ++w) {
      ASSERT_EQ(arena.resolve(h + s).words[w], 0xDEADBEEFu);
    }
  }
}

TEST(SlabArena, ContiguousZeroCountThrows) {
  SlabArena arena;
  EXPECT_THROW(arena.allocate_contiguous(0, 0), std::invalid_argument);
}

TEST(SlabArena, ContiguousOverMaxThrows) {
  SlabArena arena;
  EXPECT_THROW(arena.allocate_contiguous(SlabArena::kChunkSlabs + 1, 0),
               std::invalid_argument);
}

TEST(SlabArena, ContiguousMaxSizeSucceeds) {
  SlabArena arena;
  EXPECT_NO_THROW(arena.allocate_contiguous(SlabArena::kChunkSlabs, 0));
}

TEST(SlabArena, BulkAllocationsSpanChunksWithoutOverlap) {
  SlabArena arena;
  std::set<SlabHandle> seen;
  // Allocate far more than one chunk's worth in odd sizes.
  for (int i = 0; i < 2000; ++i) {
    const std::uint32_t count = 1 + (i % 17);
    const SlabHandle h = arena.allocate_contiguous(count, 0);
    for (std::uint32_t s = 0; s < count; ++s) {
      ASSERT_TRUE(seen.insert(h + s).second) << "overlapping handle";
    }
  }
}

TEST(SlabArena, DynamicAllocFillsSlab) {
  SlabArena arena;
  const SlabHandle h = arena.allocate(0xFFFFFFFFu, 1);
  for (int w = 0; w < kWordsPerSlab; ++w) {
    EXPECT_EQ(arena.resolve(h).words[w], 0xFFFFFFFFu);
  }
}

TEST(SlabArena, DynamicHandlesDistinct) {
  SlabArena arena;
  std::set<SlabHandle> seen;
  for (int i = 0; i < 10000; ++i) {
    ASSERT_TRUE(seen.insert(arena.allocate(0, i)).second);
  }
}

TEST(SlabArena, FreeThenReallocateReusesSpace) {
  SlabArena arena;
  std::vector<SlabHandle> handles;
  for (int i = 0; i < 100; ++i) handles.push_back(arena.allocate(0, i));
  const auto before = arena.stats();
  for (SlabHandle h : handles) arena.free(h);
  EXPECT_EQ(arena.stats().dynamic_slabs, before.dynamic_slabs - 100);
  for (int i = 0; i < 100; ++i) arena.allocate(0, i);
  // Reuse means the reserved capacity did not grow.
  EXPECT_EQ(arena.stats().reserved_slabs, before.reserved_slabs);
}

TEST(SlabArena, IsDynamicDistinguishesPools) {
  SlabArena arena;
  const SlabHandle bulk = arena.allocate_contiguous(4, 0);
  const SlabHandle dyn = arena.allocate(0, 0);
  EXPECT_FALSE(arena.is_dynamic(bulk));
  EXPECT_TRUE(arena.is_dynamic(dyn));
}

TEST(SlabArena, StatsTrackBulkAndDynamic) {
  SlabArena arena;
  arena.allocate_contiguous(7, 0);
  const SlabHandle d1 = arena.allocate(0, 0);
  arena.allocate(0, 1);
  ArenaStats s = arena.stats();
  EXPECT_EQ(s.bulk_slabs, 7u);
  EXPECT_EQ(s.dynamic_slabs, 2u);
  EXPECT_GT(s.bytes_reserved(), 0u);
  EXPECT_EQ(s.bytes_in_use(), (7u + 2u) * sizeof(Slab));
  arena.free(d1);
  EXPECT_EQ(arena.stats().dynamic_slabs, 1u);
}

TEST(SlabArena, WritesToOneSlabDoNotLeakToNeighbors) {
  SlabArena arena;
  const SlabHandle h = arena.allocate_contiguous(3, 0x11111111u);
  for (int w = 0; w < kWordsPerSlab; ++w) arena.resolve(h + 1).words[w] = 0;
  for (int w = 0; w < kWordsPerSlab; ++w) {
    EXPECT_EQ(arena.resolve(h).words[w], 0x11111111u);
    EXPECT_EQ(arena.resolve(h + 2).words[w], 0x11111111u);
  }
}

TEST(SlabArena, ConcurrentDynamicAllocationsAreUnique) {
  SlabArena arena;
  constexpr int kPerThreadAllocs = 500;
  constexpr int kTasks = 16;
  std::vector<std::vector<SlabHandle>> per_task(kTasks);
  simt::ThreadPool pool(8);
  pool.parallel_for(kTasks, [&](std::uint64_t t) {
    for (int i = 0; i < kPerThreadAllocs; ++i) {
      per_task[t].push_back(
          arena.allocate(static_cast<std::uint32_t>(t), static_cast<std::uint32_t>(t)));
    }
  });
  std::set<SlabHandle> seen;
  for (const auto& handles : per_task) {
    for (SlabHandle h : handles) {
      ASSERT_TRUE(seen.insert(h).second) << "duplicate handle under contention";
      // The fill word identifies the owner: no cross-thread clobbering.
      ASSERT_EQ(arena.resolve(h).words[0] < kTasks, true);
    }
  }
  EXPECT_EQ(arena.stats().dynamic_slabs,
            static_cast<std::uint64_t>(kTasks) * kPerThreadAllocs);
}

TEST(SlabArena, ConcurrentAllocFreeChurn) {
  SlabArena arena;
  simt::ThreadPool pool(8);
  pool.parallel_for(32, [&](std::uint64_t t) {
    std::vector<SlabHandle> mine;
    for (int round = 0; round < 50; ++round) {
      for (int i = 0; i < 20; ++i) {
        mine.push_back(arena.allocate(0, static_cast<std::uint32_t>(t)));
      }
      for (int i = 0; i < 10; ++i) {
        arena.free(mine.back());
        mine.pop_back();
      }
    }
    for (SlabHandle h : mine) arena.free(h);
  });
  EXPECT_EQ(arena.stats().dynamic_slabs, 0u);
}

TEST(SlabArena, FreeCacheRoundTripReusesHandleWithoutGrowth) {
  SlabArena arena;
  const SlabHandle first = arena.allocate(0x12345678u, 0);
  const auto before = arena.stats();
  // A free immediately followed by an allocate must hit the per-thread
  // cache: same handle back, no new chunk, exact counter bookkeeping.
  arena.free(first);
  EXPECT_EQ(arena.stats().dynamic_slabs, before.dynamic_slabs - 1);
  const SlabHandle again = arena.allocate(0x9ABCDEF0u, 0);
  EXPECT_EQ(again, first);
  EXPECT_EQ(arena.resolve(again).words[0], 0x9ABCDEF0u);
  EXPECT_EQ(arena.stats().dynamic_slabs, before.dynamic_slabs);
  EXPECT_EQ(arena.stats().reserved_slabs, before.reserved_slabs);
  arena.free(again);
}

TEST(SlabArena, FreeCacheSpillsToBitmapBeyondCapacity) {
  SlabArena arena;
  std::vector<SlabHandle> handles;
  const std::uint32_t burst = SlabArena::kFreeCacheSlots * 3;
  for (std::uint32_t i = 0; i < burst; ++i) {
    handles.push_back(arena.allocate(i, i));
  }
  for (SlabHandle h : handles) arena.free(h);  // overflows the LIFO cache
  EXPECT_EQ(arena.stats().dynamic_slabs, 0u);
  const auto reserved = arena.stats().reserved_slabs;
  std::set<SlabHandle> seen;
  for (std::uint32_t i = 0; i < burst; ++i) {
    const SlabHandle h = arena.allocate(i, i);
    ASSERT_TRUE(seen.insert(h).second) << "handle handed out twice";
  }
  // Everything came back from cache + bitmap; no growth.
  EXPECT_EQ(arena.stats().reserved_slabs, reserved);
  EXPECT_EQ(arena.stats().dynamic_slabs, burst);
}

TEST(SlabArena, ConcurrentCachedChurnNoLeaksOrDoubleHandout) {
  // Multi-threaded alloc/free churn shaped to live inside the per-thread
  // caches: each task repeatedly allocates a small burst, stamps each slab
  // with its identity, verifies the stamps survived (a double-handed-out
  // slab would be restamped by the other owner), then frees.
  SlabArena arena;
  constexpr int kTasks = 16;
  constexpr int kRounds = 200;
  constexpr int kBurst = 12;  // below kFreeCacheSlots: cache-resident churn
  std::atomic<int> stamp_errors{0};
  simt::ThreadPool pool(8);
  pool.parallel_for(kTasks, [&](std::uint64_t t) {
    std::vector<SlabHandle> mine;
    mine.reserve(kBurst);
    for (int round = 0; round < kRounds; ++round) {
      for (int i = 0; i < kBurst; ++i) {
        const auto stamp = static_cast<std::uint32_t>(t * kRounds + round);
        mine.push_back(arena.allocate(stamp, static_cast<std::uint32_t>(t)));
      }
      for (SlabHandle h : mine) {
        const auto stamp = static_cast<std::uint32_t>(t * kRounds + round);
        for (int w = 0; w < kWordsPerSlab; ++w) {
          if (arena.resolve(h).words[w] != stamp) {
            stamp_errors.fetch_add(1);
            break;
          }
        }
      }
      for (SlabHandle h : mine) arena.free(h);
      mine.clear();
    }
  });
  EXPECT_EQ(stamp_errors.load(), 0);
  // Every handle was returned: no leaks through the caches.
  EXPECT_EQ(arena.stats().dynamic_slabs, 0u);
}

TEST(SlabArena, ColdScanResumesAfterHeavyChurn) {
  // Exercise the per-chunk hint cursor: fill far past the per-thread cache
  // so allocations hit the bitmap scan, free a scattered subset (spilling
  // the cache), then reallocate. The cursor only changes where the scan
  // STARTS, so every handle must still come back exactly once.
  SlabArena arena;
  constexpr int kSlabs = 3000;  // > kNumFreeCaches * kFreeCacheSlots
  std::vector<SlabHandle> handles;
  for (int i = 0; i < kSlabs; ++i) handles.push_back(arena.allocate(i, i));
  std::set<SlabHandle> freed;
  for (int i = 0; i < kSlabs; i += 3) {
    freed.insert(handles[i]);
    arena.free(handles[i]);
  }
  EXPECT_EQ(arena.stats().dynamic_slabs,
            static_cast<std::uint64_t>(kSlabs) - freed.size());
  const std::uint64_t reserved_before = arena.stats().reserved_slabs;
  std::set<SlabHandle> recycled;
  std::set<SlabHandle> still_live(handles.begin(), handles.end());
  for (SlabHandle h : freed) still_live.erase(h);
  for (std::size_t i = 0; i < freed.size(); ++i) {
    const SlabHandle h = arena.allocate(0xC0FFEEu, static_cast<std::uint32_t>(i));
    ASSERT_TRUE(recycled.insert(h).second) << "handle handed out twice";
    ASSERT_FALSE(still_live.count(h)) << "live slab handed out again";
    ASSERT_EQ(arena.resolve(h).words[0], 0xC0FFEEu);
  }
  // Free capacity was reused rather than growing the arena.
  EXPECT_EQ(arena.stats().reserved_slabs, reserved_before);
  EXPECT_EQ(arena.stats().dynamic_slabs, static_cast<std::uint64_t>(kSlabs));
}

// --------------------------------------------------------------------------
// Robustness: misuse checks and graceful exhaustion (docs/ROBUSTNESS.md)
// --------------------------------------------------------------------------

TEST(SlabArenaChecks, DoubleFreeRaisesArenaFault) {
  SlabArena arena;
  const SlabHandle h = arena.allocate(0, 0);
  arena.free(h);
  EXPECT_THROW(arena.free(h), ArenaFault);
}

TEST(SlabArenaChecks, DoubleFreeCaughtThroughTheCacheToo) {
  // The first free parks the handle in the per-thread cache; the second
  // free must be rejected from the CACHED state as well, not only after
  // the handle spilled to the shared bitmap.
  SlabArena arena;
  std::vector<SlabHandle> burst;
  for (std::uint32_t i = 0; i < 4; ++i) burst.push_back(arena.allocate(i, 0));
  arena.free(burst[2]);
  EXPECT_THROW(arena.free(burst[2]), ArenaFault);
  // The arena survives the fault: the rest of the burst frees cleanly.
  arena.free(burst[0]);
  arena.free(burst[1]);
  arena.free(burst[3]);
}

TEST(SlabArenaChecks, FreeingBulkSlabRaisesArenaFault) {
  SlabArena arena;
  const SlabHandle bulk = arena.allocate_contiguous(4, 0);
  EXPECT_THROW(arena.free(bulk), ArenaFault);
  // The dynamic free path never takes base slabs (free_contiguous is the
  // only sanctioned bulk return, §IV-D2): the fault left them intact.
  EXPECT_EQ(arena.stats().bulk_slabs, 4u);
}

TEST(SlabArenaLimits, AllocateThrowsArenaExhaustedAtChunkLimit) {
  SlabArena arena;
  arena.set_chunk_limit(1);  // one 8192-slab chunk, then hard stop
  std::vector<SlabHandle> handles;
  try {
    for (std::uint64_t i = 0; i <= SlabArena::kChunkSlabs; ++i) {
      handles.push_back(arena.allocate(0, 0));
    }
    FAIL() << "allocation past the chunk limit must throw";
  } catch (const ArenaExhausted&) {
  }
  EXPECT_EQ(handles.size(), SlabArena::kChunkSlabs);
  // ArenaExhausted derives bad_alloc for generic handlers.
  static_assert(std::is_base_of_v<std::bad_alloc, ArenaExhausted>);
  // Freeing makes room again: exhaustion is a state, not a poisoning.
  arena.free(handles.back());
  EXPECT_NO_THROW(arena.allocate(0, 0));
}

TEST(SlabArenaLimits, TryAllocateReportsExhaustionAsNullSlab) {
  SlabArena arena;
  arena.set_chunk_limit(1);
  std::uint64_t granted = 0;
  while (arena.try_allocate(0, 0) != kNullSlab) ++granted;
  EXPECT_EQ(granted, SlabArena::kChunkSlabs);
  // The status-returning path must not disturb counters on failure.
  EXPECT_EQ(arena.stats().dynamic_slabs, granted);
}

TEST(SlabArenaLimits, ContiguousAllocationRespectsChunkLimit) {
  SlabArena arena;
  arena.set_chunk_limit(1);
  EXPECT_NO_THROW(arena.allocate_contiguous(SlabArena::kChunkSlabs, 0));
  EXPECT_THROW(arena.allocate_contiguous(1, 0), ArenaExhausted);
}

TEST(SlabArenaLimits, RaisingTheLimitResumesGrowth) {
  SlabArena arena;
  arena.set_chunk_limit(1);
  arena.allocate_contiguous(SlabArena::kChunkSlabs, 0);
  EXPECT_THROW(arena.allocate(0, 0), ArenaExhausted);
  arena.set_chunk_limit(2);
  EXPECT_NO_THROW(arena.allocate(0, 0));
}

// --------------------------------------------------------------------------
// Compaction / shrink primitives (docs/WORKLOADS.md "Sliding-window")
// --------------------------------------------------------------------------

TEST(SlabArenaCompaction, ReleaseEmptyChunksReturnsMemory) {
  SlabArena arena;
  std::vector<SlabHandle> handles;
  // Span several dynamic chunks, then free everything.
  const std::uint32_t total = SlabArena::kChunkSlabs * 3;
  for (std::uint32_t i = 0; i < total; ++i) handles.push_back(arena.allocate(0, 0));
  const std::uint32_t live_before = arena.live_chunks();
  const std::uint64_t reserved_before = arena.stats().reserved_slabs;
  for (SlabHandle h : handles) arena.free(h);
  const std::uint32_t released = arena.release_empty_chunks();
  EXPECT_GE(released, 3u);
  EXPECT_EQ(arena.live_chunks(), live_before - released);
  EXPECT_LT(arena.stats().reserved_slabs, reserved_before);
  EXPECT_EQ(arena.stats().dynamic_slabs, 0u);
}

TEST(SlabArenaCompaction, KeepFreeRetainsAnAllocationReserve) {
  SlabArena arena;
  std::vector<SlabHandle> handles;
  for (std::uint32_t i = 0; i < SlabArena::kChunkSlabs * 2; ++i) {
    handles.push_back(arena.allocate(0, 0));
  }
  for (SlabHandle h : handles) arena.free(h);
  const std::uint32_t live_before = arena.live_chunks();
  arena.release_empty_chunks(/*keep_free=*/1);
  // Exactly one fully-free chunk stays resident as the reserve.
  EXPECT_EQ(arena.live_chunks(), live_before - 1);
  std::uint32_t fully_free = 0;
  for (const auto& occ : arena.dynamic_chunk_occupancy()) {
    if (occ.used_slabs == 0) ++fully_free;
  }
  EXPECT_EQ(fully_free, 1u);
}

TEST(SlabArenaCompaction, ReleasedChunkSlotsAreRecycledByGrowth) {
  SlabArena arena;
  std::vector<SlabHandle> handles;
  for (std::uint32_t i = 0; i < SlabArena::kChunkSlabs * 2; ++i) {
    handles.push_back(arena.allocate(0, 0));
  }
  for (SlabHandle h : handles) arena.free(h);
  ASSERT_GE(arena.release_empty_chunks(), 2u);
  const std::uint32_t live_after_release = arena.live_chunks();
  // Growth reuses the vacated chunk indices instead of extending the
  // directory: handles stay in the already-addressed range and the live
  // count returns to exactly what one chunk's worth of slabs needs.
  std::set<SlabHandle> seen;
  for (std::uint32_t i = 0; i < SlabArena::kChunkSlabs; ++i) {
    const SlabHandle h = arena.allocate(0xFACEFEEDu, i);
    ASSERT_TRUE(seen.insert(h).second);
    ASSERT_EQ(arena.resolve(h).words[0], 0xFACEFEEDu);
  }
  EXPECT_EQ(arena.live_chunks(), live_after_release + 1);
}

TEST(SlabArenaCompaction, DrainFreeCachesMakesOccupancyExact) {
  SlabArena arena;
  std::vector<SlabHandle> handles;
  for (int i = 0; i < 16; ++i) handles.push_back(arena.allocate(0, 0));
  // Cached frees keep the bitmap bits set: occupancy still counts them.
  for (SlabHandle h : handles) arena.free(h);
  auto occ = arena.dynamic_chunk_occupancy();
  ASSERT_EQ(occ.size(), 1u);
  EXPECT_GT(occ[0].used_slabs, 0u);
  arena.drain_free_caches();
  occ = arena.dynamic_chunk_occupancy();
  ASSERT_EQ(occ.size(), 1u);
  EXPECT_EQ(occ[0].used_slabs, 0u);
  EXPECT_EQ(arena.stats().dynamic_slabs, 0u);
}

TEST(SlabArenaCompaction, AllocateAvoidingSkipsExcludedChunks) {
  SlabArena arena;
  // Materialize two dynamic chunks with room in both.
  std::vector<SlabHandle> handles;
  for (std::uint32_t i = 0; i < SlabArena::kChunkSlabs + 8; ++i) {
    handles.push_back(arena.allocate(0, 0));
  }
  for (std::size_t i = 0; i < 128; ++i) arena.free(handles[i]);
  arena.drain_free_caches();
  const std::uint32_t victim = SlabArena::chunk_index_of(handles.front());
  std::vector<std::uint8_t> excluded(victim + 1, 0);
  excluded[victim] = 1;
  for (int i = 0; i < 64; ++i) {
    const SlabHandle h = arena.allocate_avoiding(0xAB, excluded);
    ASSERT_NE(SlabArena::chunk_index_of(h), victim)
        << "migration target landed in the excluded chunk";
  }
}

TEST(SlabArenaCompaction, FreeDirectEmptiesChunkWithoutDrain) {
  SlabArena arena;
  std::vector<SlabHandle> handles;
  for (int i = 0; i < 32; ++i) handles.push_back(arena.allocate(0, 0));
  for (SlabHandle h : handles) arena.free_direct(h);
  // No drain needed: direct frees hit the bitmap, so the chunk is already
  // provably empty and releasable.
  const auto occ = arena.dynamic_chunk_occupancy();
  ASSERT_EQ(occ.size(), 1u);
  EXPECT_EQ(occ[0].used_slabs, 0u);
  EXPECT_EQ(arena.release_empty_chunks(), 1u);
}

TEST(SlabArenaCompaction, FreeDirectStillCatchesDoubleFree) {
  SlabArena arena;
  const SlabHandle h = arena.allocate(0, 0);
  arena.free_direct(h);
  EXPECT_THROW(arena.free_direct(h), ArenaFault);
}

// --------------------------------------------------------------------------
// Bulk range recycling (free_contiguous): the sanctioned way a table
// REBUILD returns its base array. Without it, every rehash under
// sliding-window churn leaks one abandoned range (§IV-D2's caveat).
// --------------------------------------------------------------------------

TEST(SlabArenaBulkRecycle, FreedRangeIsReusedByNextAllocation) {
  SlabArena arena;
  const SlabHandle a = arena.allocate_contiguous(10, 0);
  arena.allocate_contiguous(10, 0);  // keeps the cursor past `a`
  const std::uint64_t bulk_before = arena.stats().bulk_slabs;
  arena.free_contiguous(a, 10);
  EXPECT_EQ(arena.stats().bulk_slabs, bulk_before - 10);
  // Best-fit reuse hands the SAME range back instead of bumping.
  EXPECT_EQ(arena.allocate_contiguous(10, 0xFEEDF00Du), a);
  EXPECT_EQ(arena.stats().bulk_slabs, bulk_before);
  // The recycled slabs were re-initialized with the new fill word.
  for (std::uint32_t s = 0; s < 10; ++s) {
    ASSERT_EQ(arena.resolve(a + s).words[0], 0xFEEDF00Du);
  }
}

TEST(SlabArenaBulkRecycle, PartialReuseCarvesFromTheFront) {
  SlabArena arena;
  const SlabHandle a = arena.allocate_contiguous(10, 0);
  arena.allocate_contiguous(1, 0);
  arena.free_contiguous(a, 10);
  // A smaller request carves the front; the remainder stays reusable.
  EXPECT_EQ(arena.allocate_contiguous(4, 0), a);
  EXPECT_EQ(arena.allocate_contiguous(6, 0), a + 4);
}

TEST(SlabArenaBulkRecycle, BestFitPrefersTheSmallestSufficientRange) {
  SlabArena arena;
  const SlabHandle big = arena.allocate_contiguous(8, 0);
  arena.allocate_contiguous(1, 0);  // separator: ranges must not coalesce
  const SlabHandle small = arena.allocate_contiguous(4, 0);
  arena.allocate_contiguous(1, 0);
  arena.free_contiguous(big, 8);
  arena.free_contiguous(small, 4);
  // 3 slabs fit both; best-fit picks the 4-range, leaving the 8 whole.
  EXPECT_EQ(arena.allocate_contiguous(3, 0), small);
  EXPECT_EQ(arena.allocate_contiguous(8, 0), big);
}

TEST(SlabArenaBulkRecycle, AdjacentFreesCoalesceIntoOneRange) {
  SlabArena arena;
  const SlabHandle a = arena.allocate_contiguous(4, 0);
  const SlabHandle b = arena.allocate_contiguous(4, 0);
  const SlabHandle c = arena.allocate_contiguous(4, 0);
  arena.allocate_contiguous(1, 0);
  ASSERT_EQ(b, a + 4);
  ASSERT_EQ(c, a + 8);
  // Free outer ranges first; the middle free must merge with BOTH sides,
  // or the 12-slab request below would not fit any single range.
  arena.free_contiguous(a, 4);
  arena.free_contiguous(c, 4);
  arena.free_contiguous(b, 4);
  EXPECT_EQ(arena.allocate_contiguous(12, 0), a);
}

TEST(SlabArenaBulkRecycle, DoubleFreeOfRangeRaisesArenaFault) {
  SlabArena arena;
  const SlabHandle a = arena.allocate_contiguous(6, 0);
  arena.allocate_contiguous(1, 0);
  arena.free_contiguous(a, 6);
  EXPECT_THROW(arena.free_contiguous(a, 6), ArenaFault);
  // Overlapping partial frees are the same bug and raise the same fault.
  EXPECT_THROW(arena.free_contiguous(a + 2, 2), ArenaFault);
}

TEST(SlabArenaBulkRecycle, FreeingDynamicSlabsAsARangeRaisesArenaFault) {
  SlabArena arena;
  const SlabHandle dyn = arena.allocate(0, 0);
  EXPECT_THROW(arena.free_contiguous(dyn, 1), ArenaFault);
}

TEST(SlabArenaBulkRecycle, FullyFreedBulkChunkIsReleased) {
  SlabArena arena;
  const SlabHandle first = arena.allocate_contiguous(SlabArena::kChunkSlabs, 0);
  // Open a second bulk chunk so the first is no longer the bump target
  // (the current chunk is never released).
  arena.allocate_contiguous(1, 0);
  arena.free_contiguous(first, SlabArena::kChunkSlabs);
  const std::uint32_t live_before = arena.live_chunks();
  EXPECT_EQ(arena.release_empty_chunks(/*keep_free=*/0), 1u);
  EXPECT_EQ(arena.live_chunks(), live_before - 1);
  // The released chunk's free ranges were purged with it: a fresh
  // full-chunk request opens a new chunk rather than resolving into
  // unmapped memory.
  const SlabHandle again =
      arena.allocate_contiguous(SlabArena::kChunkSlabs, 0xCAFED00Du);
  EXPECT_EQ(arena.resolve(again).words[0], 0xCAFED00Du);
}

TEST(SlabArena, MixedBulkAndDynamicCoexist) {
  SlabArena arena;
  const SlabHandle bulk = arena.allocate_contiguous(100, 0xB0B0B0B0u);
  std::vector<SlabHandle> dynamics;
  for (int i = 0; i < 300; ++i) dynamics.push_back(arena.allocate(0xD0D0D0D0u, i));
  for (std::uint32_t s = 0; s < 100; ++s) {
    ASSERT_EQ(arena.resolve(bulk + s).words[0], 0xB0B0B0B0u);
  }
  for (SlabHandle h : dynamics) {
    ASSERT_EQ(arena.resolve(h).words[0], 0xD0D0D0D0u);
  }
}

}  // namespace
}  // namespace sg::memory
