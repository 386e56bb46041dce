// Bulk-engine analytics tests: gather_neighbors must reproduce the scalar
// iterator exactly, every bulk algorithm (BFS, CC, TC) must equal its
// scalar twin differentially on random and skewed graphs, the incremental
// triangle counter must track a from-scratch recount through arbitrary
// batches (duplicates included), gathers must never rebuild a table, and
// the analytics phase kind must be safe
// under racing mixed submitters (run under TSan in CI).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "src/analytics/bfs.hpp"
#include "src/analytics/connected_components.hpp"
#include "src/analytics/incremental_tc.hpp"
#include "src/analytics/triangle_count.hpp"
#include "src/datasets/generators.hpp"
#include "src/util/prng.hpp"

namespace sg::analytics {
namespace {

using core::DynGraphMap;
using core::DynGraphSet;
using core::GraphConfig;
using core::VertexId;
using core::WeightedEdge;

NeighborFn slab_neighbors(const DynGraphSet& g) {
  return [&g](VertexId u, const std::function<void(VertexId)>& visit) {
    g.for_each_neighbor(u, [&](VertexId v, core::Weight) { visit(v); });
  };
}

template <class Graph>
std::multiset<VertexId> scalar_adjacency(const Graph& g, VertexId u) {
  std::multiset<VertexId> out;
  g.for_each_neighbor(u, [&](VertexId v, core::Weight) { out.insert(v); });
  return out;
}

// ---- gather_neighbors ------------------------------------------------------

template <class Graph>
void expect_gather_matches_scalar(const Graph& g,
                                  const std::vector<VertexId>& sources) {
  const core::GatherResult r = g.gather_neighbors(sources);
  ASSERT_EQ(r.offsets.size(), sources.size() + 1);
  for (std::size_t i = 0; i < sources.size(); ++i) {
    const auto slice = r.neighbors_of(i);
    const std::multiset<VertexId> got(slice.begin(), slice.end());
    EXPECT_EQ(got, scalar_adjacency(g, sources[i])) << "source " << sources[i];
  }
}

TEST(GatherNeighbors, MatchesScalarIteratorSetAndMap) {
  const datasets::Coo coo = datasets::make_rmat(256, 256 * 10, 7);
  GraphConfig cfg;
  cfg.vertex_capacity = coo.num_vertices;
  DynGraphSet set_graph(cfg);
  set_graph.bulk_build(coo.edges);
  DynGraphMap map_graph(cfg);
  map_graph.bulk_build(coo.edges);

  std::vector<VertexId> all(coo.num_vertices);
  for (VertexId u = 0; u < coo.num_vertices; ++u) all[u] = u;
  expect_gather_matches_scalar(set_graph, all);
  expect_gather_matches_scalar(map_graph, all);

  // Duplicate sources each get their own identical slice.
  expect_gather_matches_scalar(set_graph, {3, 3, 7, 3});
}

TEST(GatherNeighbors, UnknownDeletedAndEmptyInputs) {
  GraphConfig cfg;
  cfg.vertex_capacity = 16;
  cfg.undirected = true;
  DynGraphSet g(cfg);
  std::vector<WeightedEdge> edges = {{0, 1, 0}, {1, 2, 0}, {2, 0, 0}};
  g.insert_edges(edges);

  // Out-of-capacity id, never-touched id, and a vertex emptied by deletes
  // all yield empty slices rather than faults.
  const core::Edge cuts[] = {{2, 0}, {2, 1}};
  g.delete_edges({cuts, 2});
  const core::GatherResult r = g.gather_neighbors(
      std::vector<VertexId>{0, 2, 15, 9999});
  EXPECT_EQ(r.neighbors_of(0).size(), 1u);  // 0-1 survives
  EXPECT_EQ(r.neighbors_of(1).size(), 0u);  // 2's edges cut
  EXPECT_EQ(r.neighbors_of(2).size(), 0u);  // never touched
  EXPECT_EQ(r.neighbors_of(3).size(), 0u);  // beyond capacity

  const core::GatherResult empty = g.gather_neighbors(std::vector<VertexId>{});
  EXPECT_TRUE(empty.neighbors.empty());
  ASSERT_EQ(empty.offsets.size(), 1u);
}

// ---- bulk algorithms vs scalar twins --------------------------------------

class BulkDifferential : public ::testing::TestWithParam<int> {
 protected:
  datasets::Coo make_graph() const {
    // Alternate a uniform random graph and a hub-skewed one: the bulk
    // paths must survive both balanced and degree-skewed gathers.
    const int seed = GetParam();
    return seed % 2 == 0 ? datasets::make_rmat(400, 400 * 8, seed)
                         : datasets::make_preferential(400, 4, seed);
  }
};

TEST_P(BulkDifferential, BfsBulkEqualsScalar) {
  const datasets::Coo coo = make_graph();
  GraphConfig cfg;
  cfg.vertex_capacity = coo.num_vertices;
  DynGraphSet g(cfg);
  g.bulk_build(coo.edges);
  const auto scalar = bfs(coo.num_vertices, slab_neighbors(g), 0);
  const auto bulk = bfs_bulk(coo.num_vertices, bulk_neighbors(g), 0);
  EXPECT_EQ(scalar, bulk);
}

TEST_P(BulkDifferential, ConnectedComponentsBulkEqualsScalar) {
  const datasets::Coo coo = make_graph();
  GraphConfig cfg;
  cfg.vertex_capacity = coo.num_vertices;
  DynGraphSet g(cfg);
  g.bulk_build(coo.edges);
  const auto scalar = connected_components(coo.num_vertices, slab_neighbors(g));
  const auto bulk = connected_components_bulk(coo.num_vertices,
                                              bulk_neighbors(g));
  EXPECT_EQ(scalar, bulk);
}

TEST_P(BulkDifferential, StaticTcBulkEqualsProbing) {
  const datasets::Coo coo = make_graph();
  GraphConfig cfg;
  cfg.vertex_capacity = coo.num_vertices;
  DynGraphSet set_graph(cfg);
  set_graph.bulk_build(coo.edges);
  EXPECT_EQ(tc_slabgraph_bulk(set_graph), tc_slabgraph(set_graph));
  DynGraphMap map_graph(cfg);
  map_graph.bulk_build(coo.edges);
  EXPECT_EQ(tc_slabgraph_bulk_map(map_graph), tc_slabgraph_map(map_graph));
}

INSTANTIATE_TEST_SUITE_P(Seeds, BulkDifferential, ::testing::Values(1, 2, 3, 4));

// ---- incremental triangle counting ----------------------------------------

TEST(IncrementalTc, TracksRecountThroughDirtyBatches) {
  // Batches drawn with replacement from a small vertex set: self-loops,
  // within-batch duplicates, and already-inserted edges all occur, so the
  // exist pre-check and the lex-smallest-new-edge dedup both do real work.
  util::Xoshiro256 rng(99);
  GraphConfig cfg;
  cfg.vertex_capacity = 48;
  cfg.undirected = true;
  DynGraphSet streamed(cfg);
  IncrementalTriangleCounter counter(streamed);
  DynGraphSet recount(cfg);

  for (int batch_no = 0; batch_no < 6; ++batch_no) {
    std::vector<core::Edge> batch;
    for (int i = 0; i < 200; ++i) {
      batch.push_back({static_cast<VertexId>(rng.below(48)),
                       static_cast<VertexId>(rng.below(48))});
    }
    const std::uint64_t total = counter.submit_batch(batch).get();

    std::vector<WeightedEdge> clean;
    for (const core::Edge& e : batch) {
      if (e.src != e.dst) clean.push_back({e.src, e.dst, 1});
    }
    recount.insert_edges(clean);
    EXPECT_EQ(total, tc_slabgraph(recount)) << "batch " << batch_no;
    EXPECT_EQ(counter.triangles(), total);
  }
  streamed.schedule_drain();
}

TEST(IncrementalTc, AssumeNewOnUniqueStreamAndSeededStart) {
  const datasets::Coo coo = datasets::make_rmat(256, 256 * 10, 21);
  std::vector<WeightedEdge> unique = coo.unique_undirected_edges();
  GraphConfig cfg;
  cfg.vertex_capacity = coo.num_vertices;
  cfg.undirected = true;
  DynGraphSet g(cfg);
  // Preload half, seed the counter with the preloaded count, then stream
  // the rest in three assume_new batches.
  const std::size_t preload = unique.size() / 2;
  g.insert_edges({unique.data(), preload});
  IncrementalTriangleCounter counter(g, tc_slabgraph_bulk(g));

  std::uint64_t total = counter.triangles();
  const std::size_t per = (unique.size() - preload + 2) / 3;
  for (std::size_t first = preload; first < unique.size(); first += per) {
    const std::size_t last = std::min(first + per, unique.size());
    std::vector<core::Edge> batch;
    for (std::size_t i = first; i < last; ++i) {
      batch.push_back({unique[i].src, unique[i].dst});
    }
    total = counter.submit_batch(batch, /*assume_new=*/true).get();
  }
  g.schedule_drain();
  EXPECT_EQ(total, tc_slabgraph(g));
}

TEST(IncrementalTc, RequiresUndirectedGraph) {
  GraphConfig cfg;
  cfg.vertex_capacity = 8;
  DynGraphSet directed(cfg);
  EXPECT_THROW(IncrementalTriangleCounter c(directed), std::invalid_argument);
}

TEST(IncrementalTc, EmptyAndSelfLoopOnlyBatchesResolve) {
  GraphConfig cfg;
  cfg.vertex_capacity = 8;
  cfg.undirected = true;
  DynGraphSet g(cfg);
  IncrementalTriangleCounter counter(g);
  EXPECT_EQ(counter.submit_batch(std::vector<core::Edge>{}).get(), 0u);
  const std::vector<core::Edge> loops = {{3, 3}, {5, 5}};
  EXPECT_EQ(counter.submit_batch(loops).get(), 0u);
  g.schedule_drain();
}

// ---- gathers are read-only (never fire auto-rehash) -----------------------

TEST(GatherFeedback, AnalyticsAloneNeverTriggersRebuild) {
  // Every one-bucket table holds 31 neighbours in a two-slab chain: the
  // gathers walk the chains, yet no table and no rehash counter may move —
  // only insert batches consult the policy.
  GraphConfig cfg;
  cfg.vertex_capacity = 32;
  cfg.undirected = true;
  DynGraphSet g(cfg);
  std::vector<WeightedEdge> edges;
  for (VertexId u = 0; u < 32; ++u) {
    for (VertexId v = u + 1; v < 32; ++v) edges.push_back({u, v, 1});
  }
  g.insert_edges(edges);

  const std::uint64_t rehashes_before = g.auto_rehash_triggers();
  const core::GraphMemoryStats before = g.memory_stats();
  ASSERT_EQ(before.base_slabs, 32u);
  ASSERT_EQ(before.overflow_slabs, 32u);
  std::vector<VertexId> all(32);
  for (VertexId u = 0; u < 32; ++u) all[u] = u;
  for (int i = 0; i < 20; ++i) (void)g.gather_neighbors(all);

  EXPECT_EQ(g.auto_rehash_triggers(), rehashes_before);
  EXPECT_EQ(g.memory_stats().base_slabs, before.base_slabs);
  EXPECT_EQ(g.memory_stats().overflow_slabs, before.overflow_slabs);
}

// ---- analytics phase under racing mixed submitters (TSan target) -----------

TEST(AnalyticsPhase, RacedAgainstMixedSubmitters) {
  GraphConfig cfg;
  cfg.vertex_capacity = 256;
  cfg.undirected = true;
  DynGraphSet g(cfg);
  const datasets::Coo base = datasets::make_rmat(256, 256 * 6, 3);
  g.insert_edges(base.unique_undirected_edges());

  constexpr int kRounds = 12;
  std::atomic<std::uint64_t> gathered_total{0};
  // 5 racing submitters: 2 insert, 1 erase, 1 exist, 1 analytics — the
  // scheduler must fence analytics from every mutation while letting it
  // run concurrently with nothing else than other analytics.
  std::vector<std::thread> submitters;
  for (int s = 0; s < 2; ++s) {
    submitters.emplace_back([&g, s] {
      util::Xoshiro256 rng(1000 + s);
      for (int r = 0; r < kRounds; ++r) {
        std::vector<WeightedEdge> batch;
        for (int i = 0; i < 64; ++i) {
          const VertexId u = static_cast<VertexId>(rng.below(256));
          const VertexId v = static_cast<VertexId>(rng.below(256));
          if (u != v) batch.push_back({u, v, 1});
        }
        g.submit_insert(std::move(batch)).get();
      }
    });
  }
  submitters.emplace_back([&g] {
    util::Xoshiro256 rng(77);
    for (int r = 0; r < kRounds; ++r) {
      std::vector<core::Edge> batch;
      for (int i = 0; i < 32; ++i) {
        const VertexId u = static_cast<VertexId>(rng.below(256));
        const VertexId v = static_cast<VertexId>(rng.below(256));
        if (u != v) batch.push_back({u, v});
      }
      g.submit_erase(std::move(batch)).get();
    }
  });
  submitters.emplace_back([&g] {
    util::Xoshiro256 rng(88);
    for (int r = 0; r < kRounds; ++r) {
      std::vector<core::Edge> probes;
      for (int i = 0; i < 64; ++i) {
        probes.push_back({static_cast<VertexId>(rng.below(256)),
                          static_cast<VertexId>(rng.below(256))});
      }
      g.submit_edges_exist(std::move(probes)).get();
    }
  });
  submitters.emplace_back([&g, &gathered_total] {
    std::vector<VertexId> all(256);
    for (VertexId u = 0; u < 256; ++u) all[u] = u;
    for (int r = 0; r < kRounds; ++r) {
      g.submit_analytics([&g, &gathered_total, &all] {
        // Full-graph gather + bulk TC inside the fenced phase: both walk
        // every chain while the mutators above hammer the same tables.
        const core::GatherResult adj = g.gather_neighbors(all);
        gathered_total.fetch_add(adj.neighbors.size(),
                                 std::memory_order_relaxed);
        (void)tc_slabgraph_bulk(g);
      }).get();
    }
  });
  for (auto& t : submitters) t.join();
  g.schedule_drain();
  EXPECT_GT(gathered_total.load(), 0u);
  // The fenced phases must leave a coherent structure behind.
  EXPECT_EQ(tc_slabgraph_bulk(g), tc_slabgraph(g));
}

}  // namespace
}  // namespace sg::analytics
