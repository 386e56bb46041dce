// Fault-injection harness (docs/ROBUSTNESS.md): randomized, seeded fault
// schedules against the full stack — arena exhaustion (dynamic and bulk),
// staging jobs dying on pool threads, conductor stalls — at pool widths
// 1/4/8. The invariants under ANY schedule:
//
//   * every submitted future RESOLVES — to a value, a PartialBatchError, or
//     a SubmitRejected — never hangs, never std::terminate;
//   * the graph is differentially equal to the oracle on the committed
//     prefix: replaying each future's reported applied/unapplied split
//     reconstructs exactly the edge set the graph holds;
//   * the structure survives: after disarming, it serves inserts and
//     queries as if nothing happened (no leaked locks, no wedged conductor,
//     no corrupt counters).
//
// The injected schedules require -DSLABGRAPH_FAULTS=ON (the fault-injection
// CI job) and derive from SG_FAULT_SEED (default 42), so CI sweeps seeds and
// any failure replays from the seed alone. The capped-arena case first in
// this file needs no injector and runs in every build.
#include <gtest/gtest.h>

#include <cstdlib>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "src/core/dyn_graph.hpp"
#include "src/memory/slab_arena.hpp"
#include "src/util/fault_injection.hpp"
#include "tests/graph_test_util.hpp"

namespace sg::core {
namespace {

// --------------------------------------------------------------------------
// Auto-rehash under a capped arena (every build)
// --------------------------------------------------------------------------

/// An insert batch commits, but the rebuild it triggers cannot get its
/// contiguous bucket range: insert_edges must still return normally, with
/// on_pressure fired once and the graph equal to the model. Once compact()
/// hands a range back, the next batch that grows the table rebuilds it.
template <class Policy>
void run_rebuild_without_room() {
  GraphConfig cfg;
  cfg.max_arena_chunks = 2;  // one chunk of base slabs, one of chain slabs
  cfg.compact_occupancy = 0.0;  // migrating slabs would need a third chunk
  int pressure_calls = 0;
  cfg.on_pressure = [&pressure_calls] { ++pressure_calls; };
  DynGraph<Policy> g(cfg);
  testutil::ReferenceGraph model;
  constexpr VertexId kHub = 1;
  constexpr VertexId kFiller = 500;

  // A degree hint sizes kFiller's table to all but a few base slabs of the
  // first chunk; kHub's first-touch table takes one more.
  const double per_bucket = cfg.load_factor * Policy::kSlotCapacity;
  const std::vector<VertexId> filler{kFiller};
  const std::vector<std::uint32_t> hint{static_cast<std::uint32_t>(
      (memory::SlabArena::kChunkSlabs - 8) * per_bucket)};
  g.insert_vertices(filler, hint);

  // Far past the 4-slab threshold of a one-bucket table, so the batch
  // notes kHub, whose rebuild needs more buckets than the chunk has left.
  const auto insert = [&](VertexId first_dst, std::uint32_t count) {
    std::vector<WeightedEdge> batch;
    for (std::uint32_t k = 0; k < count; ++k) {
      batch.push_back({kHub, first_dst + k, k + 1});
    }
    EXPECT_EQ(g.insert_edges(batch), model.insert(batch));
  };
  const auto rebuilt_buckets = [&] {
    return slabhash::buckets_for(g.degree(kHub), cfg.load_factor,
                                 Policy::kSlotCapacity);
  };
  insert(1000, 10 * Policy::kSlotCapacity);
  ASSERT_GT(rebuilt_buckets(), memory::SlabArena::kChunkSlabs -
                                   g.arena_stats().bulk_slabs);
  EXPECT_EQ(pressure_calls, 1);
  EXPECT_EQ(g.auto_rehash_triggers(), 0u);
  EXPECT_EQ(testutil::bucket_count(g, kHub), 1u);
  testutil::expect_matches_model(g, model);

  // compact() drops kFiller's empty table and returns its range.
  g.compact();
  insert(5000, 10);
  EXPECT_EQ(pressure_calls, 1);
  EXPECT_EQ(g.auto_rehash_triggers(), 1u);
  EXPECT_EQ(testutil::bucket_count(g, kHub), rebuilt_buckets());
  testutil::expect_matches_model(g, model);
}

TEST(AutoRehashPressure, MapRebuildWithoutRoomIsSwallowed) {
  run_rebuild_without_room<MapPolicy>();
}
TEST(AutoRehashPressure, SetRebuildWithoutRoomIsSwallowed) {
  run_rebuild_without_room<SetPolicy>();
}

}  // namespace
}  // namespace sg::core

#ifdef SLABGRAPH_FAULTS

#include <atomic>
#include <future>
#include <mutex>
#include <thread>

#include "src/core/errors.hpp"
#include "src/simt/thread_pool.hpp"

namespace sg::core {
namespace {

using util::FaultInjector;
using util::FaultSite;
using util::FaultSpec;

std::uint64_t base_seed() {
  if (const char* env = std::getenv("SG_FAULT_SEED")) {
    return std::strtoull(env, nullptr, 10);
  }
  return 42;
}

/// RAII: no test leaves the process-wide injector armed.
struct DisarmGuard {
  ~DisarmGuard() { FaultInjector::instance().disarm_all(); }
};

// --------------------------------------------------------------------------
// Injector unit tests
// --------------------------------------------------------------------------

TEST(FaultInjector, FiresOnTheScheduledArrivalAndPeriod) {
  DisarmGuard guard;
  auto& inj = FaultInjector::instance();
  inj.arm(FaultSite::kArenaAllocate, FaultSpec{/*fire_after=*/3, /*period=*/2});
  std::vector<bool> fired;
  for (int i = 0; i < 8; ++i) {
    fired.push_back(inj.should_fire(FaultSite::kArenaAllocate));
  }
  EXPECT_EQ(fired, (std::vector<bool>{false, false, true, false, true, false,
                                      true, false}));
  EXPECT_EQ(inj.arrivals(FaultSite::kArenaAllocate), 8u);
  EXPECT_EQ(inj.fired(FaultSite::kArenaAllocate), 3u);
  // Other sites were untouched.
  EXPECT_EQ(inj.arrivals(FaultSite::kStageJob), 0u);
}

TEST(FaultInjector, RandomSchedulesAreDeterministicInTheSeed) {
  DisarmGuard guard;
  auto& inj = FaultInjector::instance();
  const auto sample = [&inj](std::uint64_t seed) {
    inj.arm_random_schedule(seed, 16);
    std::vector<bool> pattern;
    for (std::uint32_t s = 0; s < util::kNumFaultSites; ++s) {
      for (int i = 0; i < 40; ++i) {
        pattern.push_back(inj.should_fire(static_cast<FaultSite>(s)));
      }
    }
    return pattern;
  };
  EXPECT_EQ(sample(base_seed()), sample(base_seed()));
}

TEST(FaultInjector, ArenaHonorsInjectedExhaustion) {
  DisarmGuard guard;
  auto& inj = FaultInjector::instance();
  memory::SlabArena arena;
  inj.arm(FaultSite::kArenaAllocate, FaultSpec{/*fire_after=*/3});
  EXPECT_NE(arena.try_allocate(0, 0), memory::kNullSlab);
  EXPECT_NE(arena.try_allocate(0, 0), memory::kNullSlab);
  EXPECT_EQ(arena.try_allocate(0, 0), memory::kNullSlab);  // injected
  // The throwing wrapper maps the same injected failure to ArenaExhausted.
  inj.arm(FaultSite::kArenaAllocate, FaultSpec{/*fire_after=*/1});
  EXPECT_THROW(arena.allocate(0, 0), memory::ArenaExhausted);
  inj.arm(FaultSite::kArenaContiguous, FaultSpec{/*fire_after=*/1});
  EXPECT_THROW(arena.allocate_contiguous(4, 0), memory::ArenaExhausted);
}

// --------------------------------------------------------------------------
// Full-stack randomized schedules
// --------------------------------------------------------------------------

class FaultWidthSweep : public ::testing::TestWithParam<unsigned> {
 protected:
  void SetUp() override { simt::ThreadPool::instance().resize(GetParam()); }
  void TearDown() override {
    FaultInjector::instance().disarm_all();
    simt::ThreadPool::instance().resize(0);
  }
};

using PairSet = std::set<std::pair<VertexId, VertexId>>;

PairSet pairs_of(const std::vector<WeightedEdge>& edges) {
  PairSet out;
  for (const auto& e : edges) out.insert({e.src, e.dst});
  return out;
}

/// One seeded differential run: a single submitter streams hub-heavy
/// insert batches (globally unique (src, dst) pairs, so set algebra over
/// the reported unapplied remainders is exact) with periodic erases of
/// earlier pairs, under a randomized fault schedule. Every future must
/// resolve; replaying the futures' outcomes must reconstruct the graph.
void run_seeded_differential(std::uint64_t seed) {
  auto& inj = FaultInjector::instance();
  inj.disarm_all();

  GraphConfig cfg;
  cfg.vertex_capacity = 4096;
  cfg.stage_shards = 2;
  cfg.pipeline_epoch_edges = 48;  // several epochs per batch
  DynGraphMap g(cfg);

  constexpr int kRounds = 24;
  constexpr std::uint32_t kBatchEdges = 96;
  std::vector<std::vector<WeightedEdge>> insert_batches;
  std::vector<std::vector<Edge>> erase_batches;
  std::uint32_t next_dst = 64;
  for (int r = 0; r < kRounds; ++r) {
    std::vector<WeightedEdge> batch;
    for (std::uint32_t i = 0; i < kBatchEdges; ++i) {
      // 8 hub sources force chain growth (dynamic slabs) fast; unique dst
      // makes every (src, dst) pair globally unique.
      batch.push_back({static_cast<VertexId>(r % 8), next_dst, next_dst});
      ++next_dst;
    }
    insert_batches.push_back(std::move(batch));
    if (r % 4 == 3) {
      // Erase a slice of the round-3-ago batch (already submitted: FIFO
      // order guarantees the insert was decided first).
      std::vector<Edge> erase;
      for (std::size_t i = 0; i < insert_batches[r - 3].size(); i += 3) {
        const auto& e = insert_batches[r - 3][i];
        erase.push_back({e.src, e.dst});
      }
      erase_batches.push_back(std::move(erase));
    }
  }

  inj.arm_random_schedule(seed, /*max_fire_after=*/60);

  // Submit everything in FIFO order, remembering each future's payload.
  struct Pending {
    bool erase;
    std::size_t index;  // into insert_batches / erase_batches
    std::future<std::uint64_t> future;
  };
  std::vector<Pending> pending;
  std::vector<std::future<std::vector<std::uint8_t>>> query_futures;
  std::size_t erase_cursor = 0;
  const std::vector<Edge> probes{{0, 64}, {1, 9999}};
  for (int r = 0; r < kRounds; ++r) {
    pending.push_back({false, static_cast<std::size_t>(r),
                       g.submit_insert(insert_batches[r])});
    if (r % 4 == 3) {
      pending.push_back({true, erase_cursor,
                         g.submit_erase(erase_batches[erase_cursor])});
      ++erase_cursor;
    }
    if (r % 5 == 0) {
      query_futures.push_back(g.submit_edges_exist(probes));
    }
  }

  // Replay the futures' outcomes into the expected edge set. Futures are
  // processed in submission order, matching the conductor's FIFO phases.
  // Coalesced groups share one PartialBatchError whose unapplied list
  // covers the merged batch; because pairs are globally unique, each
  // member's slice of that list is exactly its own missing pairs.
  PairSet expected;
  for (Pending& p : pending) {
    const PairSet mine = p.erase
                             ? [&] {
                                 PairSet s;
                                 for (const auto& e : erase_batches[p.index]) {
                                   s.insert({e.src, e.dst});
                                 }
                                 return s;
                               }()
                             : pairs_of(insert_batches[p.index]);
    PairSet missing;
    try {
      (void)p.future.get();
    } catch (const PartialBatchError& e) {
      for (const auto& edge : e.unapplied()) {
        missing.insert({edge.src, edge.dst});
      }
    } catch (const SubmitRejected&) {
      missing = mine;  // nothing of this submission ran
    }
    for (const auto& pr : mine) {
      if (missing.count(pr)) continue;
      if (p.erase) {
        expected.erase(pr);
      } else {
        expected.insert(pr);
      }
    }
  }
  for (auto& f : query_futures) {
    try {
      const auto hits = f.get();
      ASSERT_EQ(hits.size(), probes.size());
      EXPECT_EQ(hits[1], 0);  // (1, 9999) is never inserted
    } catch (const SubmitRejected&) {
    }
  }

  // Quiesce, disarm, compare: the graph must hold exactly the committed
  // prefix the futures reported — nothing dropped, nothing phantom.
  g.schedule_drain();
  inj.disarm_all();
  PairSet actual;
  for (const auto& t : testutil::graph_edges(g)) {
    actual.insert({std::get<0>(t), std::get<1>(t)});
  }
  EXPECT_EQ(actual, expected) << "seed " << seed;

  // The structure survives the schedule: post-fault service is normal.
  EXPECT_EQ(g.submit_insert({{40, 41, 1}, {40, 42, 2}}).get(), 2u);
  EXPECT_EQ(g.submit_edges_exist({{40, 41}}).get()[0], 1);
}

TEST_P(FaultWidthSweep, SeededSchedulesPreserveCommittedPrefix) {
  const std::uint64_t base = base_seed();
  for (const std::uint64_t offset : {0ull, 1ull, 2ull}) {
    run_seeded_differential(base * 1000 + offset);
  }
}

/// Concurrent submitters under randomized faults: liveness and typed-error
/// acceptance. Every future must resolve to a value or a known error type
/// (anything else escapes and fails the test); afterwards the graph serves.
TEST_P(FaultWidthSweep, EveryFutureResolvesUnderConcurrentSubmitters) {
  DisarmGuard guard;
  auto& inj = FaultInjector::instance();
  const std::uint64_t seed = base_seed() * 7 + GetParam();

  GraphConfig cfg;
  cfg.vertex_capacity = 2048;
  cfg.pipeline_epoch_edges = 32;
  cfg.max_pending_submissions = 8;  // bounded queue in the mix
  DynGraphMap g(cfg);
  inj.arm_random_schedule(seed, /*max_fire_after=*/40);

  constexpr unsigned kThreads = 4;
  constexpr int kPerThread = 12;
  std::atomic<std::uint64_t> resolved{0};
  std::atomic<std::uint64_t> failed{0};
  std::vector<std::thread> threads;
  for (unsigned t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        const std::uint32_t base = 100 + t * 400 + i * 32;
        std::vector<WeightedEdge> batch;
        for (std::uint32_t k = 0; k < 24; ++k) {
          batch.push_back({static_cast<VertexId>(t), base + k, k + 1});
        }
        try {
          auto mut = g.submit_insert(std::move(batch));
          auto query = g.submit_edges_exist({{t, base}});
          mut.get();
          (void)query.get();
          resolved.fetch_add(2);
        } catch (const PartialBatchError&) {
          failed.fetch_add(1);
        } catch (const SubmitRejected&) {
          failed.fetch_add(1);
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_GT(resolved.load() + failed.load(), 0u);

  g.schedule_drain();
  inj.disarm_all();
  // No wedged conductor, no leaked batch lock, exact counters: direct and
  // scheduled paths both still work.
  const std::uint64_t edges_before = g.num_edges();
  const std::uint64_t added =
      g.insert_edges(std::vector<WeightedEdge>{{30, 31, 5}});
  EXPECT_EQ(g.num_edges(), edges_before + added);
  EXPECT_EQ(g.submit_edges_exist({{30, 31}}).get()[0], 1);
}

INSTANTIATE_TEST_SUITE_P(PoolWidths, FaultWidthSweep,
                         ::testing::Values(1u, 4u, 8u));

}  // namespace
}  // namespace sg::core

#endif  // SLABGRAPH_FAULTS
