// Model-based property tests: random operation sequences applied both to
// the DynGraph and to a std::map reference model must stay observationally
// equivalent (edge existence, weights, exact degrees, total edge count).
// Parameterized over seeds, variants, directedness, and load factors.
#include <gtest/gtest.h>

#include <map>
#include <set>
#include <vector>

#include "src/core/dyn_graph.hpp"
#include "src/util/prng.hpp"
#include "tests/graph_test_util.hpp"

namespace sg::core {
namespace {

using testutil::ReferenceGraph;

struct PropertyParam {
  std::uint64_t seed;
  bool undirected;
  double load_factor;
};

class DynGraphProperty : public ::testing::TestWithParam<PropertyParam> {};

TEST_P(DynGraphProperty, MixedOperationSequenceMatchesModel) {
  const PropertyParam param = GetParam();
  util::Xoshiro256 rng(param.seed);
  constexpr std::uint32_t kVertices = 80;

  GraphConfig cfg;
  cfg.vertex_capacity = kVertices;
  cfg.undirected = param.undirected;
  cfg.load_factor = param.load_factor;
  DynGraphMap graph(cfg);
  ReferenceGraph model(param.undirected);

  for (int round = 0; round < 40; ++round) {
    const auto op = rng.below(10);
    if (op < 5) {
      // Insert a random batch (with duplicates and self-loops mixed in).
      std::vector<WeightedEdge> batch;
      const std::size_t size = 1 + rng.below(120);
      for (std::size_t i = 0; i < size; ++i) {
        batch.push_back({static_cast<VertexId>(rng.below(kVertices)),
                         static_cast<VertexId>(rng.below(kVertices)),
                         static_cast<Weight>(rng.below(1000))});
      }
      // Batches may contain duplicate (src,dst) with different weights; the
      // structure keeps "the most recent", which under warp order is the
      // last occurrence — drop earlier duplicates from both sides so the
      // weight comparison is deterministic.
      std::map<std::pair<VertexId, VertexId>, std::size_t> last;
      for (std::size_t i = 0; i < batch.size(); ++i) {
        last[{batch[i].src, batch[i].dst}] = i;
      }
      std::vector<WeightedEdge> dedup;
      for (std::size_t i = 0; i < batch.size(); ++i) {
        if (last[{batch[i].src, batch[i].dst}] == i) dedup.push_back(batch[i]);
      }
      const std::uint64_t expected = model.insert(dedup);
      EXPECT_EQ(graph.insert_edges(dedup), expected);
    } else if (op < 8) {
      std::vector<Edge> batch;
      const std::size_t size = 1 + rng.below(60);
      std::set<std::pair<VertexId, VertexId>> unique_targets;
      for (std::size_t i = 0; i < size; ++i) {
        unique_targets.insert(
            {static_cast<VertexId>(rng.below(kVertices)),
             static_cast<VertexId>(rng.below(kVertices))});
      }
      for (const auto& [u, v] : unique_targets) batch.push_back({u, v});
      const std::uint64_t expected = model.erase(batch);
      EXPECT_EQ(graph.delete_edges(batch), expected);
    } else if (op == 8) {
      std::vector<VertexId> doomed;
      const std::size_t size = 1 + rng.below(4);
      for (std::size_t i = 0; i < size; ++i) {
        doomed.push_back(static_cast<VertexId>(rng.below(kVertices)));
      }
      graph.delete_vertices(doomed);
      model.delete_vertices(doomed);
    } else {
      // Query phase: spot-check equivalence.
      for (int q = 0; q < 50; ++q) {
        const auto u = static_cast<VertexId>(rng.below(kVertices));
        const auto v = static_cast<VertexId>(rng.below(kVertices));
        ASSERT_EQ(graph.edge_exists(u, v), model.edge_exists(u, v))
            << "round " << round << " edge " << u << "->" << v;
      }
    }
  }

  // Final full equivalence: existence, weights, exact degrees, totals.
  EXPECT_EQ(graph.num_edges(), model.num_edges());
  for (const auto& [u, nbrs] : model.adjacency()) {
    ASSERT_EQ(graph.degree(u), nbrs.size()) << "degree of " << u;
    for (const auto& [v, w] : nbrs) {
      ASSERT_TRUE(graph.edge_exists(u, v)) << u << "->" << v;
      ASSERT_EQ(graph.edge_weight(u, v).value, w) << u << "->" << v;
    }
  }
  // And no phantom edges: iterate the structure and check the model back.
  for (VertexId u = 0; u < kVertices; ++u) {
    graph.for_each_neighbor(u, [&](VertexId v, Weight) {
      ASSERT_TRUE(model.edge_exists(u, v)) << "phantom " << u << "->" << v;
    });
  }
}

INSTANTIATE_TEST_SUITE_P(
    SeedsAndConfigs, DynGraphProperty,
    ::testing::Values(PropertyParam{1, false, 0.7}, PropertyParam{2, false, 0.7},
                      PropertyParam{3, false, 0.7}, PropertyParam{4, true, 0.7},
                      PropertyParam{5, true, 0.7}, PropertyParam{6, true, 0.7},
                      PropertyParam{7, false, 0.35}, PropertyParam{8, true, 0.35},
                      PropertyParam{9, false, 2.0}, PropertyParam{10, true, 2.0},
                      PropertyParam{11, false, 5.0}, PropertyParam{12, true, 0.1}),
    [](const auto& info) {
      return "seed" + std::to_string(info.param.seed) +
             (info.param.undirected ? "_undir" : "_dir") + "_lf" +
             std::to_string(static_cast<int>(info.param.load_factor * 100));
    });

}  // namespace
}  // namespace sg::core
