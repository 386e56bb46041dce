// Erase-dominant stress differential for the staged batch engine: long
// churn streams where deletions outnumber insertions, with duplicate erase
// keys, misses (never-inserted and already-erased pairs), self-loops, and
// immediate reinsert-after-erase cycles — swept across stage shard counts
// and pipeline epoch sizes, for both graph variants and both
// directednesses. The engine must match the reference model
// (tests/graph_test_util.hpp) edge-for-edge and count-for-count after
// every phase.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "src/core/dyn_graph.hpp"
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

}  // namespace
}  // namespace sg::core
