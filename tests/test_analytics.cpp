// Analytics tests: triangle counting must agree across all four structures
// (the Table VII precondition), BFS/CC must match reference algorithms, and
// the frontier operators must behave.
#include <gtest/gtest.h>

#include <queue>

#include "src/analytics/bfs.hpp"
#include "src/analytics/connected_components.hpp"
#include "bench/dynamic_triangle_count.hpp"
#include "src/analytics/triangle_count.hpp"
#include "src/datasets/generators.hpp"

namespace sg::analytics {
namespace {

using baselines::Csr;
using baselines::faim::FaimGraph;
using baselines::hornet::HornetGraph;
using core::DynGraphSet;
using core::GraphConfig;
using core::VertexId;
using core::WeightedEdge;

/// Brute-force reference triangle counter.
std::uint64_t tc_reference(std::uint32_t n,
                           const std::vector<WeightedEdge>& edges) {
  std::vector<std::vector<bool>> adj(n, std::vector<bool>(n, false));
  for (const auto& e : edges) {
    if (e.src != e.dst) adj[e.src][e.dst] = true;
  }
  std::uint64_t count = 0;
  for (std::uint32_t u = 0; u < n; ++u) {
    for (std::uint32_t v = u + 1; v < n; ++v) {
      if (!adj[u][v]) continue;
      for (std::uint32_t w = v + 1; w < n; ++w) {
        if (adj[u][w] && adj[v][w]) ++count;
      }
    }
  }
  return count;
}

struct AllStructures {
  Csr csr;
  HornetGraph hornet;
  FaimGraph faim;
  DynGraphSet slab;

  explicit AllStructures(const datasets::Coo& coo)
      : csr(Csr::from_edges(coo.num_vertices, coo.edges)),
        hornet(coo.num_vertices),
        faim(coo.num_vertices),
        slab([&] {
          GraphConfig cfg;
          cfg.vertex_capacity = coo.num_vertices;
          return cfg;
        }()) {
    hornet.bulk_build(coo.edges);
    hornet.sort_adjacency_lists();
    faim.insert_edges(coo.edges);
    faim.sort_adjacency_lists();
    slab.bulk_build(coo.edges);
  }
};

TEST(TriangleCount, KnownTinyGraphs) {
  // Triangle 0-1-2 plus a pendant edge.
  datasets::Coo coo;
  coo.num_vertices = 4;
  for (auto [u, v] : std::vector<std::pair<VertexId, VertexId>>{
           {0, 1}, {1, 2}, {0, 2}, {2, 3}}) {
    coo.edges.push_back({u, v, 0});
    coo.edges.push_back({v, u, 0});
  }
  AllStructures s(coo);
  EXPECT_EQ(tc_csr(s.csr), 1u);
  EXPECT_EQ(tc_hornet(s.hornet), 1u);
  EXPECT_EQ(tc_faim(s.faim), 1u);
  EXPECT_EQ(tc_slabgraph(s.slab), 1u);
}

TEST(TriangleCount, CompleteGraphK6) {
  datasets::Coo coo;
  coo.num_vertices = 6;
  for (VertexId u = 0; u < 6; ++u) {
    for (VertexId v = 0; v < 6; ++v) {
      if (u != v) coo.edges.push_back({u, v, 0});
    }
  }
  AllStructures s(coo);
  const std::uint64_t expected = 20;  // C(6,3)
  EXPECT_EQ(tc_csr(s.csr), expected);
  EXPECT_EQ(tc_hornet(s.hornet), expected);
  EXPECT_EQ(tc_faim(s.faim), expected);
  EXPECT_EQ(tc_slabgraph(s.slab), expected);
}

TEST(TriangleCount, TriangleFreeBipartite) {
  datasets::Coo coo;
  coo.num_vertices = 10;
  for (VertexId u = 0; u < 5; ++u) {
    for (VertexId v = 5; v < 10; ++v) {
      coo.edges.push_back({u, v, 0});
      coo.edges.push_back({v, u, 0});
    }
  }
  AllStructures s(coo);
  EXPECT_EQ(tc_csr(s.csr), 0u);
  EXPECT_EQ(tc_slabgraph(s.slab), 0u);
}

class TriangleAgreement : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(TriangleAgreement, AllFourStructuresAgreeOnRandomGraphs) {
  const datasets::Coo coo = datasets::make_rmat(256, 256 * 12, GetParam());
  AllStructures s(coo);
  const std::uint64_t expected = tc_reference(coo.num_vertices, coo.edges);
  EXPECT_EQ(tc_csr(s.csr), expected);
  EXPECT_EQ(tc_hornet(s.hornet), expected);
  EXPECT_EQ(tc_faim(s.faim), expected);
  EXPECT_EQ(tc_slabgraph(s.slab), expected);
}

INSTANTIATE_TEST_SUITE_P(Seeds, TriangleAgreement,
                         ::testing::Values(1, 2, 3, 4, 5));

TEST(TriangleCount, MapVariantMatchesSetVariant) {
  const datasets::Coo coo = datasets::make_delaunay(900, 3);
  GraphConfig cfg;
  cfg.vertex_capacity = coo.num_vertices;
  core::DynGraphMap map_graph(cfg);
  map_graph.bulk_build(coo.edges);
  DynGraphSet set_graph(cfg);
  set_graph.bulk_build(coo.edges);
  EXPECT_EQ(tc_slabgraph_map(map_graph), tc_slabgraph(set_graph));
}

TEST(TriangleCount, TracksDeletions) {
  datasets::Coo coo;
  coo.num_vertices = 4;
  for (auto [u, v] : std::vector<std::pair<VertexId, VertexId>>{
           {0, 1}, {1, 2}, {0, 2}, {1, 3}, {2, 3}}) {
    coo.edges.push_back({u, v, 0});
    coo.edges.push_back({v, u, 0});
  }
  GraphConfig cfg;
  cfg.vertex_capacity = 4;
  cfg.undirected = true;
  DynGraphSet g(cfg);
  const auto unique = coo.unique_undirected_edges();
  g.insert_edges(unique);
  EXPECT_EQ(tc_slabgraph(g), 2u);  // 0-1-2 and 1-2-3
  const core::Edge cut{1, 2};
  g.delete_edges({&cut, 1});
  EXPECT_EQ(tc_slabgraph(g), 0u);
}

// ---- BFS / CC ---------------------------------------------------------------

NeighborFn slab_neighbors(const DynGraphSet& g) {
  return [&g](VertexId u, const std::function<void(VertexId)>& visit) {
    g.for_each_neighbor(u, [&](VertexId v, core::Weight) { visit(v); });
  };
}

std::vector<std::uint32_t> bfs_reference(const datasets::Coo& coo,
                                         VertexId source) {
  std::vector<std::vector<VertexId>> adj(coo.num_vertices);
  for (const auto& e : coo.edges) adj[e.src].push_back(e.dst);
  std::vector<std::uint32_t> dist(coo.num_vertices, kUnreached);
  std::queue<VertexId> q;
  dist[source] = 0;
  q.push(source);
  while (!q.empty()) {
    const VertexId u = q.front();
    q.pop();
    for (VertexId v : adj[u]) {
      if (dist[v] == kUnreached) {
        dist[v] = dist[u] + 1;
        q.push(v);
      }
    }
  }
  return dist;
}

TEST(Bfs, MatchesReferenceOnMesh) {
  const datasets::Coo coo = datasets::make_delaunay(1024, 5);
  GraphConfig cfg;
  cfg.vertex_capacity = coo.num_vertices;
  DynGraphSet g(cfg);
  g.bulk_build(coo.edges);
  const auto got = bfs(coo.num_vertices, slab_neighbors(g), 0);
  const auto expected = bfs_reference(coo, 0);
  EXPECT_EQ(got, expected);
}

TEST(Bfs, UnreachableVerticesStayUnreached) {
  datasets::Coo coo;
  coo.num_vertices = 5;
  coo.edges = {{0, 1, 0}, {1, 0, 0}};  // 2,3,4 isolated
  GraphConfig cfg;
  cfg.vertex_capacity = 5;
  DynGraphSet g(cfg);
  g.bulk_build(coo.edges);
  const auto dist = bfs(5, slab_neighbors(g), 0);
  EXPECT_EQ(dist[1], 1u);
  EXPECT_EQ(dist[2], kUnreached);
  EXPECT_EQ(dist[4], kUnreached);
}

TEST(Bfs, RespondsToDynamicUpdates) {
  GraphConfig cfg;
  cfg.vertex_capacity = 8;
  cfg.undirected = true;
  DynGraphSet g(cfg);
  std::vector<WeightedEdge> chain = {{0, 1, 0}, {1, 2, 0}, {2, 3, 0}};
  g.insert_edges(chain);
  auto dist = bfs(8, slab_neighbors(g), 0);
  EXPECT_EQ(dist[3], 3u);
  // Add a shortcut, distances shrink.
  const WeightedEdge shortcut{0, 3, 0};
  g.insert_edges({&shortcut, 1});
  dist = bfs(8, slab_neighbors(g), 0);
  EXPECT_EQ(dist[3], 1u);
  // Cut it again, distances recover.
  const core::Edge cut{0, 3};
  g.delete_edges({&cut, 1});
  dist = bfs(8, slab_neighbors(g), 0);
  EXPECT_EQ(dist[3], 3u);
}

TEST(ConnectedComponents, CountsComponents) {
  datasets::Coo coo;
  coo.num_vertices = 7;
  // Components {0,1,2}, {3,4}, {5}, {6}.
  for (auto [u, v] : std::vector<std::pair<VertexId, VertexId>>{
           {0, 1}, {1, 2}, {3, 4}}) {
    coo.edges.push_back({u, v, 0});
    coo.edges.push_back({v, u, 0});
  }
  GraphConfig cfg;
  cfg.vertex_capacity = 7;
  DynGraphSet g(cfg);
  g.bulk_build(coo.edges);
  const auto labels = connected_components(7, slab_neighbors(g));
  EXPECT_EQ(count_components(labels), 4u);
  EXPECT_EQ(labels[0], labels[2]);
  EXPECT_EQ(labels[3], labels[4]);
  EXPECT_NE(labels[0], labels[3]);
}

TEST(Frontier, AdvanceAndFilter) {
  GraphConfig cfg;
  cfg.vertex_capacity = 8;
  DynGraphSet g(cfg);
  std::vector<WeightedEdge> edges = {{0, 1, 0}, {0, 2, 0}, {0, 3, 0}};
  g.insert_edges(edges);
  Frontier f({0});
  const Frontier next = advance(f, slab_neighbors(g),
                                [](VertexId, VertexId) { return true; });
  EXPECT_EQ(next.size(), 3u);
  const Frontier odd = filter(next, [](VertexId v) { return v % 2 == 1; });
  EXPECT_EQ(odd.size(), 2u);
}

// ---- dynamic TC harness -------------------------------------------------------

TEST(DynamicTc, RunsAndCountsConsistently) {
  const datasets::Coo coo = datasets::make_rmat(512, 512 * 8, 11);
  const auto result = run_dynamic_tc(coo, 3, coo.edges.size());
  ASSERT_EQ(result.ours.size(), 3u);
  ASSERT_EQ(result.recount.size(), 3u);
  ASSERT_EQ(result.hornet.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    // Same stream + same semantics => same ABSOLUTE triangle totals per
    // iteration across the delta pipeline, the full recount, and Hornet.
    EXPECT_EQ(result.ours[i].triangles, result.recount[i].triangles) << i;
    EXPECT_EQ(result.ours[i].triangles, result.hornet[i].triangles) << i;
    if (i > 0) {
      EXPECT_GE(result.ours[i].cumulative_ms, result.ours[i - 1].cumulative_ms);
      EXPECT_GE(result.ours[i].triangles, result.ours[i - 1].triangles);
    }
  }
  // 3 uncapped batches drain the post-preload tail, so the final total is
  // the whole graph's triangle count.
  EXPECT_EQ(result.ours.back().triangles,
            tc_reference(coo.num_vertices, coo.edges));
}

TEST(DynamicTc, ZeroIterationsEmpty) {
  const datasets::Coo coo = datasets::make_delaunay(256, 1);
  const auto result = run_dynamic_tc(coo, 0, 1000);
  EXPECT_TRUE(result.ours.empty());
  EXPECT_TRUE(result.recount.empty());
  EXPECT_TRUE(result.hornet.empty());
}

}  // namespace
}  // namespace sg::analytics
