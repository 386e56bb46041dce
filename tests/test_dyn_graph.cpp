// Unit tests for the DynGraph core: Algorithm 1 semantics (batched edge
// insertion), batched deletion, queries, iterators, bulk build, dictionary
// growth, memory statistics, and the map/set variant split.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "src/core/dyn_graph.hpp"

namespace sg::core {
namespace {

GraphConfig small_config(bool undirected = false) {
  GraphConfig cfg;
  cfg.vertex_capacity = 64;
  cfg.undirected = undirected;
  return cfg;
}

TEST(DynGraphMapBasics, InsertEdgeThenQuery) {
  DynGraphMap g(small_config());
  const WeightedEdge e{1, 2, 7};
  EXPECT_EQ(g.insert_edges({&e, 1}), 1u);
  EXPECT_TRUE(g.edge_exists(1, 2));
  EXPECT_FALSE(g.edge_exists(2, 1));  // directed
  EXPECT_EQ(g.edge_weight(1, 2).value, 7u);
  EXPECT_EQ(g.degree(1), 1u);
  EXPECT_EQ(g.num_edges(), 1u);
}

TEST(DynGraphMapBasics, SelfLoopsAreRejected) {
  DynGraphMap g(small_config());
  const WeightedEdge e{3, 3, 1};
  EXPECT_EQ(g.insert_edges({&e, 1}), 0u);
  EXPECT_FALSE(g.edge_exists(3, 3));
  EXPECT_EQ(g.degree(3), 0u);
}

TEST(DynGraphMapBasics, DuplicatesWithinBatchStoredOnce) {
  DynGraphMap g(small_config());
  std::vector<WeightedEdge> batch = {{1, 2, 5}, {1, 2, 6}, {1, 2, 7}};
  EXPECT_EQ(g.insert_edges(batch), 1u);
  EXPECT_EQ(g.degree(1), 1u);
  // "only the most recent edge and its weight will be stored" — with the
  // batch processed in lane order, the last duplicate wins.
  EXPECT_EQ(g.edge_weight(1, 2).value, 7u);
}

TEST(DynGraphMapBasics, DuplicatesAcrossBatchesReplaceWeight) {
  DynGraphMap g(small_config());
  std::vector<WeightedEdge> first = {{1, 2, 5}};
  std::vector<WeightedEdge> second = {{1, 2, 50}};
  EXPECT_EQ(g.insert_edges(first), 1u);
  EXPECT_EQ(g.insert_edges(second), 0u);  // replaced, not added
  EXPECT_EQ(g.degree(1), 1u);
  EXPECT_EQ(g.edge_weight(1, 2).value, 50u);
}

TEST(DynGraphMapBasics, DeleteEdgeExactCounting) {
  DynGraphMap g(small_config());
  std::vector<WeightedEdge> batch = {{1, 2, 0}, {1, 3, 0}, {2, 3, 0}};
  g.insert_edges(batch);
  std::vector<Edge> doomed = {{1, 2}, {1, 9}, {1, 2}};  // one hit, one miss, one dup
  EXPECT_EQ(g.delete_edges(doomed), 1u);
  EXPECT_FALSE(g.edge_exists(1, 2));
  EXPECT_TRUE(g.edge_exists(1, 3));
  EXPECT_EQ(g.degree(1), 1u);
  EXPECT_EQ(g.num_edges(), 2u);
}

TEST(DynGraphMapBasics, ReinsertionAfterDeletion) {
  DynGraphMap g(small_config());
  std::vector<WeightedEdge> batch = {{4, 5, 1}};
  g.insert_edges(batch);
  std::vector<Edge> doomed = {{4, 5}};
  g.delete_edges(doomed);
  EXPECT_EQ(g.insert_edges(batch), 1u);
  EXPECT_TRUE(g.edge_exists(4, 5));
  EXPECT_EQ(g.degree(4), 1u);
}

TEST(DynGraphMapBasics, LargeBatchSingleSource) {
  // Exercises the same-source grouping path of Algorithm 1: all 32 lanes of
  // each warp share one source.
  DynGraphMap g(small_config());
  std::vector<WeightedEdge> batch;
  for (std::uint32_t v = 1; v <= 1000; ++v) batch.push_back({0, v + 1, v});
  EXPECT_EQ(g.insert_edges(batch), 1000u);
  EXPECT_EQ(g.degree(0), 1000u);
  for (std::uint32_t v = 1; v <= 1000; ++v) {
    ASSERT_TRUE(g.edge_exists(0, v + 1));
  }
}

TEST(DynGraphMapBasics, ManySourcesManyDestinations) {
  DynGraphMap g(small_config());
  std::vector<WeightedEdge> batch;
  for (std::uint32_t u = 0; u < 50; ++u) {
    for (std::uint32_t v = 0; v < 40; ++v) {
      if (u != v + 100) batch.push_back({u, v + 100, u * v});
    }
  }
  EXPECT_EQ(g.insert_edges(batch), batch.size());
  EXPECT_EQ(g.num_edges(), batch.size());
  for (std::uint32_t u = 0; u < 50; ++u) ASSERT_EQ(g.degree(u), 40u);
}

TEST(DynGraphMapBasics, UndirectedInsertMirrorsBothDirections) {
  DynGraphMap g(small_config(/*undirected=*/true));
  const WeightedEdge e{1, 2, 9};
  EXPECT_EQ(g.insert_edges({&e, 1}), 2u);  // both directions are new
  EXPECT_TRUE(g.edge_exists(1, 2));
  EXPECT_TRUE(g.edge_exists(2, 1));
  EXPECT_EQ(g.edge_weight(2, 1).value, 9u);
}

TEST(DynGraphMapBasics, UndirectedDeleteRemovesBoth) {
  DynGraphMap g(small_config(true));
  const WeightedEdge e{1, 2, 9};
  g.insert_edges({&e, 1});
  const Edge d{2, 1};
  EXPECT_EQ(g.delete_edges({&d, 1}), 2u);
  EXPECT_FALSE(g.edge_exists(1, 2));
  EXPECT_FALSE(g.edge_exists(2, 1));
}

TEST(DynGraphMapBasics, DictionaryGrowsAutomatically) {
  GraphConfig cfg;
  cfg.vertex_capacity = 4;
  DynGraphMap g(cfg);
  const WeightedEdge e{100, 200, 1};
  g.insert_edges({&e, 1});
  EXPECT_GE(g.vertex_capacity(), 201u);
  EXPECT_TRUE(g.edge_exists(100, 200));
  EXPECT_EQ(g.dictionary_growths(), 1u);
}

TEST(DynGraphMapBasics, ReserveAvoidsLaterGrowth) {
  GraphConfig cfg;
  cfg.vertex_capacity = 4;
  DynGraphMap g(cfg);
  g.reserve_vertices(1024);
  const WeightedEdge e{1000, 2, 1};
  g.insert_edges({&e, 1});
  EXPECT_EQ(g.dictionary_growths(), 1u);  // only the explicit reserve
}

TEST(DynGraphMapBasics, OutOfRangeVertexIdThrows) {
  DynGraphMap g(small_config());
  const WeightedEdge e{kMaxVertexId + 1, 2, 1};
  EXPECT_THROW(g.insert_edges({&e, 1}), std::invalid_argument);
}

TEST(DynGraphMapBasics, QueriesOnUnknownVerticesAreFalse) {
  DynGraphMap g(small_config());
  EXPECT_FALSE(g.edge_exists(7, 9));
  EXPECT_FALSE(g.edge_weight(7, 9).found);
  EXPECT_EQ(g.degree(7), 0u);
}

TEST(DynGraphMapBasics, EmptyBatchesAreNoops) {
  DynGraphMap g(small_config());
  EXPECT_EQ(g.insert_edges({}), 0u);
  EXPECT_EQ(g.delete_edges({}), 0u);
  EXPECT_EQ(g.num_edges(), 0u);
}

TEST(DynGraphMapBasics, ForEachNeighborMatchesInsertions) {
  DynGraphMap g(small_config());
  std::vector<WeightedEdge> batch = {{5, 1, 10}, {5, 2, 20}, {5, 3, 30}};
  g.insert_edges(batch);
  std::set<std::pair<VertexId, Weight>> seen;
  g.for_each_neighbor(5, [&](VertexId v, Weight w) { seen.insert({v, w}); });
  const std::set<std::pair<VertexId, Weight>> expected = {
      {1, 10}, {2, 20}, {3, 30}};
  EXPECT_EQ(seen, expected);
}

TEST(DynGraphMapBasics, EdgeSlabIteratorWalksAllSlabs) {
  DynGraphMap g(small_config());
  std::vector<WeightedEdge> batch;
  for (std::uint32_t v = 0; v < 200; ++v) batch.push_back({1, v + 2, v});
  g.insert_edges(batch);
  auto it = g.edge_iterator(1);
  std::set<std::uint32_t> keys;
  int slabs = 0;
  while (it.next()) {
    ++slabs;
    for (int s = 0; s < it.slots(); ++s) {
      const std::uint32_t k = it.key(s);
      if (k != slabhash::kEmptyKey && k != slabhash::kTombstoneKey) {
        keys.insert(k);
      }
    }
  }
  EXPECT_EQ(keys.size(), 200u);
  EXPECT_GT(slabs, 1);  // 200 pairs at Bc=15 must chain
}

TEST(DynGraphMapBasics, BatchedEdgesExistQuery) {
  DynGraphMap g(small_config());
  std::vector<WeightedEdge> batch = {{1, 2, 0}, {3, 4, 0}, {5, 6, 0}};
  g.insert_edges(batch);
  std::vector<Edge> queries = {{1, 2}, {2, 1}, {3, 4}, {5, 7}, {5, 6}};
  std::vector<std::uint8_t> out(queries.size(), 0xCC);
  g.edges_exist(queries, out.data());
  EXPECT_EQ(out, (std::vector<std::uint8_t>{1, 0, 1, 0, 1}));
}

TEST(DynGraphMapBasics, BulkBuildMatchesIncrementalContent) {
  std::vector<WeightedEdge> edges;
  for (std::uint32_t u = 0; u < 30; ++u) {
    for (std::uint32_t v = 0; v < 30; ++v) {
      if (u != v && (u + v) % 3 == 0) edges.push_back({u, v, u + v});
    }
  }
  GraphConfig cfg = small_config();
  DynGraphMap bulk(cfg);
  bulk.bulk_build(edges);
  DynGraphMap incremental(cfg);
  incremental.insert_edges(edges);
  EXPECT_EQ(bulk.num_edges(), incremental.num_edges());
  for (const auto& e : edges) {
    ASSERT_TRUE(bulk.edge_exists(e.src, e.dst));
    ASSERT_EQ(bulk.edge_weight(e.src, e.dst).value,
              incremental.edge_weight(e.src, e.dst).value);
  }
}

TEST(DynGraphMapBasics, BulkBuildSizesBucketsByDegree) {
  // A hub vertex with 600 out-edges must get multiple buckets at lf=0.7.
  std::vector<WeightedEdge> edges;
  for (std::uint32_t v = 1; v <= 600; ++v) edges.push_back({0, v, 0});
  GraphConfig cfg;
  cfg.vertex_capacity = 1024;
  DynGraphMap g(cfg);
  g.bulk_build(edges);
  const GraphMemoryStats stats = g.memory_stats();
  // ceil(600 / (0.7*15)) = 58 base slabs for the hub + 1 per other vertex.
  EXPECT_GE(stats.base_slabs, 58u);
  EXPECT_EQ(g.degree(0), 600u);
  // Properly sized tables need almost no overflow slabs.
  EXPECT_LE(stats.overflow_slabs, 2u);
}

TEST(DynGraphMapBasics, IncrementalSingleBucketChains) {
  // Unknown degrees => 1 bucket; the same hub now chains heavily (the
  // worst-case scenario of §VI-B2). Auto-rehash must stay off here: the
  // point is to observe the unmaintained chain, which the default policy
  // would rebuild mid-batch.
  std::vector<WeightedEdge> edges;
  for (std::uint32_t v = 1; v <= 600; ++v) edges.push_back({0, v, 0});
  GraphConfig cfg = small_config();
  cfg.auto_rehash_chain_slabs = 0.0;
  DynGraphMap g(cfg);
  g.insert_edges(edges);
  const GraphMemoryStats stats = g.memory_stats();
  EXPECT_GE(stats.overflow_slabs, 600 / 15 - 1);
  EXPECT_EQ(g.degree(0), 600u);
}

TEST(DynGraphMapBasics, MemoryStatsUtilizationBounds) {
  DynGraphMap g(small_config());
  std::vector<WeightedEdge> batch;
  for (std::uint32_t u = 0; u < 20; ++u) {
    for (std::uint32_t v = 0; v < 10; ++v) {
      if (u != v + 20) batch.push_back({u, v + 20, 0});
    }
  }
  g.insert_edges(batch);
  const GraphMemoryStats stats = g.memory_stats();
  EXPECT_EQ(stats.live_edges, g.num_edges());
  EXPECT_GT(stats.utilization(), 0.0);
  EXPECT_LE(stats.utilization(), 1.0);
  EXPECT_EQ(stats.bytes,
            (stats.base_slabs + stats.overflow_slabs) * sizeof(memory::Slab));
}

TEST(DynGraphMapBasics, FlushAllTombstonesPreservesContent) {
  DynGraphMap g(small_config());
  std::vector<WeightedEdge> batch;
  for (std::uint32_t v = 1; v <= 100; ++v) batch.push_back({0, v, v});
  g.insert_edges(batch);
  std::vector<Edge> doomed;
  for (std::uint32_t v = 1; v <= 100; v += 2) doomed.push_back({0, v});
  g.delete_edges(doomed);
  g.flush_all_tombstones();
  EXPECT_EQ(g.memory_stats().tombstones, 0u);
  for (std::uint32_t v = 1; v <= 100; ++v) {
    ASSERT_EQ(g.edge_exists(0, v), v % 2 == 0) << v;
  }
  EXPECT_EQ(g.degree(0), 50u);
}

/// small_config with the automatic rehash policy off: these tests drive
/// rehash_long_chains by hand and assert on what the manual call finds,
/// so the trigger must not consume the long chains first.
GraphConfig manual_rehash_config() {
  GraphConfig cfg = small_config();
  cfg.auto_rehash_chain_slabs = 0.0;
  return cfg;
}

TEST(DynGraphMapBasics, RehashShortensLongChains) {
  // Incremental regime: hub with one bucket chains heavily; rehashing
  // rebuilds it to the configured load factor with identical content.
  DynGraphMap g(manual_rehash_config());
  std::vector<WeightedEdge> batch;
  for (std::uint32_t v = 1; v <= 500; ++v) batch.push_back({0, v, v});
  g.insert_edges(batch);
  const auto before = g.memory_stats();
  EXPECT_GT(before.avg_chain_length(), 2.0);
  const std::uint32_t rehashed = g.rehash_long_chains(1.0);
  EXPECT_EQ(rehashed, 1u);
  const auto after = g.memory_stats();
  EXPECT_LT(after.avg_chain_length(), 2.0);
  EXPECT_EQ(g.degree(0), 500u);
  for (std::uint32_t v = 1; v <= 500; ++v) {
    ASSERT_TRUE(g.edge_exists(0, v)) << v;
    ASSERT_EQ(g.edge_weight(0, v).value, v);
  }
}

TEST(DynGraphMapBasics, RehashDropsTombstones) {
  DynGraphMap g(manual_rehash_config());
  std::vector<WeightedEdge> batch;
  for (std::uint32_t v = 1; v <= 300; ++v) batch.push_back({0, v, v});
  g.insert_edges(batch);
  std::vector<Edge> doomed;
  for (std::uint32_t v = 1; v <= 300; v += 2) doomed.push_back({0, v});
  g.delete_edges(doomed);
  EXPECT_GT(g.memory_stats().tombstones, 0u);
  g.rehash_long_chains(1.0);
  EXPECT_EQ(g.memory_stats().tombstones, 0u);
  EXPECT_EQ(g.degree(0), 150u);
}

TEST(DynGraphMapBasics, RehashIsIdempotentAtThreshold) {
  DynGraphMap g(manual_rehash_config());
  std::vector<WeightedEdge> batch;
  for (std::uint32_t v = 1; v <= 400; ++v) batch.push_back({0, v, v});
  g.insert_edges(batch);
  EXPECT_EQ(g.rehash_long_chains(1.0), 1u);
  EXPECT_EQ(g.rehash_long_chains(1.0), 0u);  // already within threshold
}

TEST(DynGraphMapBasics, RehashInvalidThresholdThrows) {
  DynGraphMap g(small_config());
  EXPECT_THROW(g.rehash_long_chains(0.0), std::invalid_argument);
}

TEST(DynGraphSetBasics, RehashWorksOnSetVariant) {
  DynGraphSet g(manual_rehash_config());
  std::vector<WeightedEdge> batch;
  for (std::uint32_t v = 1; v <= 600; ++v) batch.push_back({0, v, 0});
  g.insert_edges(batch);
  EXPECT_EQ(g.rehash_long_chains(1.0), 1u);
  EXPECT_EQ(g.degree(0), 600u);
  for (std::uint32_t v = 1; v <= 600; ++v) ASSERT_TRUE(g.edge_exists(0, v));
}

TEST(DynGraphMapBasics, InvalidLoadFactorThrows) {
  GraphConfig cfg;
  cfg.load_factor = 0.0;
  EXPECT_THROW(DynGraphMap g(cfg), std::invalid_argument);
}

// ---- set variant ----------------------------------------------------------

TEST(DynGraphSetBasics, InsertQueryDelete) {
  DynGraphSet g(small_config());
  std::vector<WeightedEdge> batch = {{1, 2, 0}, {1, 3, 0}};
  EXPECT_EQ(g.insert_edges(batch), 2u);
  EXPECT_TRUE(g.edge_exists(1, 2));
  const Edge d{1, 2};
  EXPECT_EQ(g.delete_edges({&d, 1}), 1u);
  EXPECT_FALSE(g.edge_exists(1, 2));
  EXPECT_EQ(g.degree(1), 1u);
}

TEST(DynGraphSetBasics, SetPacksThirtyPerSlab) {
  DynGraphSet g(small_config());
  std::vector<WeightedEdge> batch;
  for (std::uint32_t v = 1; v <= 30; ++v) batch.push_back({0, v, 0});
  g.insert_edges(batch);
  EXPECT_EQ(g.memory_stats().overflow_slabs, 0u);  // exactly one slab
  const WeightedEdge extra{0, 31, 0};
  g.insert_edges({&extra, 1});
  EXPECT_EQ(g.memory_stats().overflow_slabs, 1u);
}

TEST(DynGraphSetBasics, DuplicateHandling) {
  DynGraphSet g(small_config());
  std::vector<WeightedEdge> batch = {{1, 2, 0}, {1, 2, 0}, {2, 1, 0}};
  EXPECT_EQ(g.insert_edges(batch), 2u);
  EXPECT_EQ(g.num_edges(), 2u);
}

TEST(DynGraphSetBasics, ForEachNeighborWeightIsZero) {
  DynGraphSet g(small_config());
  const WeightedEdge e{1, 2, 777};  // weight ignored by the set variant
  g.insert_edges({&e, 1});
  g.for_each_neighbor(1, [&](VertexId v, Weight w) {
    EXPECT_EQ(v, 2u);
    EXPECT_EQ(w, 0u);
  });
}

}  // namespace
}  // namespace sg::core
