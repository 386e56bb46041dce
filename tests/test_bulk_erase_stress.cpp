// Erase-dominant stress differential for the staged batch engine: long
// churn streams where deletions outnumber insertions, with duplicate erase
// keys, misses (never-inserted and already-erased pairs), self-loops, and
// immediate reinsert-after-erase cycles — swept across stage shard counts
// and pipeline epoch sizes, for both graph variants and both
// directednesses. The engine must match the reference model
// (tests/graph_test_util.hpp) edge-for-edge and count-for-count after
// every phase. Two more suites pin the bulk insert's reuse of tombstoned
// slots: a model check over tombstone-heavy multi-slab hub chains through
// every read path and crash recovery, and a capped arena where only
// tombstones are left to fill.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <set>
#include <utility>
#include <vector>

#include "src/core/dyn_graph.hpp"
#include "src/core/errors.hpp"
#include "src/persist/recovery.hpp"
#include "src/persist/snapshot.hpp"
#include "src/util/prng.hpp"
#include "tests/graph_test_util.hpp"

namespace sg::core {
namespace {

using namespace testutil;

struct StressShape {
  std::uint32_t stage_shards;
  std::uint32_t epoch_edges;
};

GraphConfig stress_config(bool undirected, const StressShape& shape) {
  GraphConfig cfg;
  cfg.vertex_capacity = 256;
  cfg.undirected = undirected;
  cfg.stage_shards = shape.stage_shards;
  cfg.pipeline_epoch_edges = shape.epoch_edges;
  return cfg;
}

/// Erase batch stressing the deletion path: ~half drawn from live edges
/// (with deliberate duplicates), the rest misses — never-inserted pairs,
/// pairs erased in an earlier round, and self-loops.
std::vector<Edge> adversarial_erases(util::Xoshiro256& rng,
                                     const std::vector<WeightedEdge>& live,
                                     std::size_t count) {
  std::vector<Edge> erases;
  erases.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    const std::uint64_t kind = rng.below(8);
    if (kind < 4 && !live.empty()) {
      const auto& e = live[rng.below(live.size())];
      erases.push_back({e.src, e.dst});
      if (kind == 0) erases.push_back({e.src, e.dst});  // in-batch duplicate
    } else if (kind < 6) {
      // Miss: vertices beyond anything the insert stream touches.
      erases.push_back({static_cast<VertexId>(300 + rng.below(64)),
                        static_cast<VertexId>(300 + rng.below(64))});
    } else if (kind == 6) {
      const auto v = static_cast<VertexId>(rng.below(200));
      erases.push_back({v, v});  // self-loop (never present: inserts drop them)
    } else if (!live.empty()) {
      const auto& e = live[rng.below(live.size())];
      erases.push_back({e.dst, e.src});  // reverse pair: miss when directed
    }
  }
  return erases;
}

template <class Policy>
void run_erase_stress(bool undirected, const StressShape& shape,
                      std::uint64_t seed) {
  DynGraph<Policy> bulk(stress_config(undirected, shape));
  ReferenceGraph model(undirected);
  util::Xoshiro256 rng(seed);

  // Seed population, then erase-dominant churn: each round erases ~2x the
  // edges it inserts, and reinserts a slice of what it just erased (the
  // tombstone-reuse path).
  std::vector<WeightedEdge> history = random_batch(seed, 1200, 200);
  EXPECT_EQ(bulk.insert_edges(history), model.insert(history));
  expect_matches_model(bulk, model);

  for (int round = 0; round < 6; ++round) {
    const auto erases = adversarial_erases(rng, history, 400);
    EXPECT_EQ(bulk.delete_edges(erases), model.erase(erases))
        << "round " << round;
    expect_matches_model(bulk, model);

    // Churn: reinsert a third of the erased pairs with fresh weights, plus
    // a trickle of brand-new edges (also tracked for future erase rounds).
    std::vector<WeightedEdge> reinserts;
    for (std::size_t i = 0; i < erases.size(); i += 3) {
      reinserts.push_back({erases[i].src, erases[i].dst,
                           static_cast<Weight>(rng.below(1u << 16))});
    }
    const auto fresh = random_batch(seed + 100 + round, 150, 200);
    reinserts.insert(reinserts.end(), fresh.begin(), fresh.end());
    EXPECT_EQ(bulk.insert_edges(reinserts), model.insert(reinserts))
        << "round " << round;
    expect_matches_model(bulk, model);
    history.insert(history.end(), reinserts.begin(), reinserts.end());
  }

  // Drain: erase every edge ever inserted (plus all the accumulated
  // duplicates) in one giant batch — the graph must end exactly empty.
  std::vector<Edge> drain;
  for (const auto& e : history) drain.push_back({e.src, e.dst});
  EXPECT_EQ(bulk.delete_edges(drain), model.erase(drain));
  expect_matches_model(bulk, model);
  EXPECT_EQ(bulk.num_edges(), 0u);
}

class BulkEraseStress
    : public ::testing::TestWithParam<std::tuple<std::uint32_t, std::uint32_t>> {
};

TEST_P(BulkEraseStress, MapDirected) {
  run_erase_stress<MapPolicy>(
      false, {std::get<0>(GetParam()), std::get<1>(GetParam())}, 11);
}
TEST_P(BulkEraseStress, MapUndirected) {
  run_erase_stress<MapPolicy>(
      true, {std::get<0>(GetParam()), std::get<1>(GetParam())}, 12);
}
TEST_P(BulkEraseStress, SetDirected) {
  run_erase_stress<SetPolicy>(
      false, {std::get<0>(GetParam()), std::get<1>(GetParam())}, 13);
}
TEST_P(BulkEraseStress, SetUndirected) {
  run_erase_stress<SetPolicy>(
      true, {std::get<0>(GetParam()), std::get<1>(GetParam())}, 14);
}

INSTANTIATE_TEST_SUITE_P(
    ShardAndEpochSweep, BulkEraseStress,
    ::testing::Values(std::make_tuple(1u, 1u << 20),   // one shard, one epoch
                      std::make_tuple(2u, 256u),       // several epochs
                      std::make_tuple(4u, 64u)),       // many tiny epochs
    [](const ::testing::TestParamInfo<std::tuple<std::uint32_t, std::uint32_t>>&
           info) {
      return "shards" + std::to_string(std::get<0>(info.param)) + "_epoch" +
             std::to_string(std::get<1>(info.param));
    });

// ---- tombstone reuse: model check over multi-slab hub chains -------------

constexpr VertexId kHubs = 4;
constexpr std::uint32_t kVertices = 64;

/// A timestamp of round `round`: round * 1000 + [0, 1000), so aging
/// retires whole rounds.
Weight stamp(util::Xoshiro256& rng, int round) {
  return static_cast<Weight>(round * 1000 + rng.below(1000));
}

/// Edges of round `round`: hub neighbours drawn from a range that grows
/// with the round, plus light edges among the other vertices.
std::vector<WeightedEdge> round_edges(util::Xoshiro256& rng, int round,
                                      int per_hub, int light) {
  std::vector<WeightedEdge> batch;
  const std::uint64_t hub_range = 2000 + 500 * std::uint64_t(round);
  for (VertexId hub = 0; hub < kHubs; ++hub) {
    for (int i = 0; i < per_hub; ++i) {
      const auto v = static_cast<VertexId>(kVertices + rng.below(hub_range));
      batch.push_back({hub, v, stamp(rng, round)});
    }
  }
  for (int i = 0; i < light; ++i) {
    const auto u = static_cast<VertexId>(kHubs + rng.below(kVertices - kHubs));
    const auto v = static_cast<VertexId>(rng.below(kVertices));
    batch.push_back({u, v, stamp(rng, round)});
  }
  return batch;
}

/// A random subset of the model's edges, each stored edge once (an
/// undirected edge by its lower endpoint).
std::vector<Edge> sample_live(util::Xoshiro256& rng, const ReferenceGraph& m,
                              bool undirected, std::uint64_t one_in) {
  std::vector<Edge> out;
  for (const auto& [u, nbrs] : m.adjacency()) {
    for (const auto& [v, w] : nbrs) {
      if ((!undirected || u < v) && rng.below(one_in) == 0) {
        out.push_back({u, v});
      }
    }
  }
  return out;
}

template <class Policy>
void expect_queries_match(const DynGraph<Policy>& g, const ReferenceGraph& m,
                          const std::vector<Edge>& queries) {
  std::vector<std::uint8_t> found(queries.size());
  g.edges_exist(queries, found.data());
  EXPECT_EQ(found, m.exist(queries));
  if constexpr (Policy::kHasValues) {
    std::vector<Weight> weights(queries.size());
    std::vector<std::uint8_t> hit(queries.size());
    g.edge_weights(queries, weights.data(), hit.data());
    EXPECT_EQ(hit, m.exist(queries));
    for (std::size_t i = 0; i < queries.size(); ++i) {
      ASSERT_EQ(weights[i], m.weight(queries[i].src, queries[i].dst)) << i;
    }
  }
  std::vector<VertexId> all(g.vertex_capacity());
  for (VertexId u = 0; u < all.size(); ++u) all[u] = u;
  const GatherResult gathered = g.gather_neighbors(all);
  for (VertexId u = 0; u < all.size(); ++u) {
    const auto slice = gathered.neighbors_of(u);
    std::vector<VertexId> got(slice.begin(), slice.end());
    std::sort(got.begin(), got.end());
    std::vector<VertexId> want;
    if (const auto it = m.adjacency().find(u); it != m.adjacency().end()) {
      for (const auto& [v, w] : it->second) want.push_back(v);
    }
    ASSERT_EQ(got, want) << "gather of vertex " << u;
  }
}

template <class Policy>
void run_tombstone_reuse_model(bool undirected, std::uint64_t seed) {
  testutil::TempDir dir;
  GraphConfig cfg;
  cfg.vertex_capacity = kVertices;
  cfg.undirected = undirected;
  cfg.auto_rehash_chain_slabs = 0;  // keep the long chains in place
  cfg.journal_path = dir.file("j");
  ReferenceGraph model(undirected);
  util::Xoshiro256 rng(seed);
  {
    // A vertex without a degree hint gets a one-bucket table (§III-b), so
    // every round piles hundreds of hub neighbours into overflow chains.
    DynGraph<Policy> g(cfg);
    for (int round = 0; round < 4; ++round) {
      const auto grow = round_edges(rng, round, 250, 200);
      EXPECT_EQ(g.insert_edges(grow), model.insert(grow));
      expect_matches_model(g, model);
      ASSERT_GT(g.memory_stats().overflow_slabs, 0u);

      // Erase about half of every chain.
      const GraphMemoryStats before = g.memory_stats();
      const auto erased = sample_live(rng, model, undirected, 2);
      EXPECT_EQ(g.delete_edges(erased), model.erase(erased));
      expect_matches_model(g, model);
      ASSERT_GT(g.memory_stats().tombstones, before.tombstones);

      // Re-inserting exactly the erased edges lands every one in a
      // tombstone of its own bucket: the chains do not grow.
      std::vector<WeightedEdge> back;
      for (const Edge& e : erased) {
        back.push_back({e.src, e.dst, stamp(rng, round)});
      }
      EXPECT_EQ(g.insert_edges(back), model.insert(back));
      expect_matches_model(g, model);
      EXPECT_EQ(g.memory_stats().overflow_slabs, before.overflow_slabs);
      EXPECT_EQ(g.memory_stats().tombstones, before.tombstones);

      // Erase again, then a mixed batch: some erased edges come back, some
      // live ones are overwritten, and new ones take the leftover slots.
      const auto erased2 = sample_live(rng, model, undirected, 3);
      EXPECT_EQ(g.delete_edges(erased2), model.erase(erased2));
      std::vector<WeightedEdge> mixed = round_edges(rng, round, 60, 60);
      for (std::size_t i = 0; i < erased2.size(); i += 2) {
        mixed.push_back({erased2[i].src, erased2[i].dst, stamp(rng, round)});
      }
      for (const Edge& e : sample_live(rng, model, undirected, 5)) {
        mixed.push_back({e.src, e.dst, stamp(rng, round)});
      }
      EXPECT_EQ(g.insert_edges(mixed), model.insert(mixed));
      expect_matches_model(g, model);

      std::vector<Edge> queries(erased.begin(), erased.end());
      queries.insert(queries.end(), erased2.begin(), erased2.end());
      for (int i = 0; i < 200; ++i) {
        queries.push_back({static_cast<VertexId>(rng.below(kVertices)),
                           static_cast<VertexId>(rng.below(3000))});
      }
      expect_queries_match(g, model, queries);

      if constexpr (Policy::kHasValues) {
        // The value-filtered scan reads each reused slot's new timestamp.
        const auto threshold = static_cast<Weight>(round * 1000 + 300);
        EXPECT_EQ(g.delete_edges_older_than(threshold),
                  model.age_out(threshold));
        expect_matches_model(g, model);
      }
      if (round == 1) persist::snapshot(g, dir.file("snap"));
    }
  }
  // Snapshot after round 1, journal for the rest.
  const persist::Recovered<Policy> rec =
      persist::recover<Policy>(cfg, dir.file("snap"));
  EXPECT_TRUE(rec.stats.snapshot_loaded);
  expect_matches_model(*rec.graph, model);
}

TEST(TombstoneReuseModel, MapDirected) {
  run_tombstone_reuse_model<MapPolicy>(false, 31);
}
TEST(TombstoneReuseModel, MapUndirected) {
  run_tombstone_reuse_model<MapPolicy>(true, 32);
}
TEST(TombstoneReuseModel, SetDirected) {
  run_tombstone_reuse_model<SetPolicy>(false, 33);
}
TEST(TombstoneReuseModel, SetUndirected) {
  run_tombstone_reuse_model<SetPolicy>(true, 34);
}

// ---- tombstone reuse under a capped arena ---------------------------------

/// Inserts `batch` expecting an arena abort; applies exactly the applied
/// part to the model and checks the split. Returns the unapplied edges.
template <class Policy>
std::vector<Edge> insert_expecting_abort(
    DynGraph<Policy>& g, ReferenceGraph& model,
    const std::vector<WeightedEdge>& batch) {
  try {
    g.insert_edges(batch);
  } catch (const PartialBatchError& e) {
    std::set<std::pair<VertexId, VertexId>> unapplied;
    for (const Edge& u : e.unapplied()) unapplied.insert({u.src, u.dst});
    EXPECT_EQ(unapplied.size(), e.unapplied().size());
    std::vector<WeightedEdge> applied;
    for (const WeightedEdge& w : batch) {
      if (unapplied.count({w.src, w.dst}) == 0) applied.push_back(w);
    }
    // Every applied new key counts, the ones that filled tombstones too.
    EXPECT_EQ(e.applied(), model.insert(applied));
    expect_matches_model(g, model);
    return e.unapplied();
  }
  ADD_FAILURE() << "expected PartialBatchError";
  return {};
}

template <class Policy>
void run_capped_arena_reuse() {
  GraphConfig cfg;
  // One 1 MiB chunk: the base slabs take it, so no collision slab can ever
  // be allocated and a bucket that runs full aborts its batch.
  cfg.max_arena_chunks = 1;
  cfg.auto_rehash_chain_slabs = 0;  // a rehash would rebuild tables out of it
  DynGraph<Policy> g(cfg);
  ReferenceGraph model;
  util::Xoshiro256 rng(41);
  // A vertex without a degree hint gets a one-bucket table (§III-b): eight
  // sources with 60 new neighbours each overfill their base slabs, and the
  // batch aborts at the first full bucket.
  std::vector<WeightedEdge> first;
  for (VertexId u = 0; u < 8; ++u) {
    for (int i = 0; i < 60; ++i) {
      first.push_back({u, static_cast<VertexId>(100 + rng.below(1u << 20)), 1});
    }
  }
  const std::vector<Edge> left_out = insert_expecting_abort(g, model, first);
  ASSERT_FALSE(left_out.empty());
  ASSERT_EQ(g.memory_stats().overflow_slabs, 0u);

  // Just-erased edges come back into their own tombstones: no abort.
  const auto erased = sample_live(rng, model, false, 4);
  ASSERT_FALSE(erased.empty());
  EXPECT_EQ(g.delete_edges(erased), model.erase(erased));
  std::vector<WeightedEdge> back;
  for (const Edge& e : erased) back.push_back({e.src, e.dst, 3});
  EXPECT_EQ(g.insert_edges(back), erased.size());
  model.insert(back);
  expect_matches_model(g, model);
  EXPECT_EQ(g.memory_stats().tombstones, 0u);

  // A mixed batch: erased edges, overwrites of live ones, and the edges
  // the full buckets turned away before. It must abort again, and split
  // exactly.
  const auto erased2 = sample_live(rng, model, false, 8);
  EXPECT_EQ(g.delete_edges(erased2), model.erase(erased2));
  std::vector<WeightedEdge> mixed;
  for (const Edge& e : erased2) mixed.push_back({e.src, e.dst, 4});
  for (const Edge& e : sample_live(rng, model, false, 8)) {
    mixed.push_back({e.src, e.dst, 5});
  }
  for (const Edge& e : left_out) mixed.push_back({e.src, e.dst, 6});
  insert_expecting_abort(g, model, mixed);
  EXPECT_EQ(g.memory_stats().overflow_slabs, 0u);
}

TEST(TombstoneReuseCappedArena, Map) { run_capped_arena_reuse<MapPolicy>(); }
TEST(TombstoneReuseCappedArena, Set) { run_capped_arena_reuse<SetPolicy>(); }

}  // namespace
}  // namespace sg::core
