// Tests of the phase-concurrent query pipeline, merge-free staging, and the
// automatic rehash policy (PR 4):
//
//   * edges_exist / edge_weights split into double-buffered epochs (stage of
//     query slice N+1 overlaps the bulk searches of slice N) and must agree
//     with the reference model across shard counts, epoch sizes, and pool
//     widths;
//   * merge-free staging must keep mutations equal to the model, obey the
//     count/place two-pass invariant, assemble exactly what each shard's
//     fused grouping produces, and keep the shard-partition guard armed;
//   * bulk searches must feed observed chain lengths into ChainFeedback
//     exactly as mutations do, and the GraphConfig::auto_rehash_p99_slabs
//     policy must fire rehash_long_chains without user calls while
//     preserving graph content.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <tuple>
#include <vector>

#include "src/core/batch_engine.hpp"
#include "src/core/dyn_graph.hpp"
#include "src/simt/thread_pool.hpp"
#include "src/util/prng.hpp"
#include "tests/graph_test_util.hpp"

namespace sg::core {
namespace {

using namespace testutil;

GraphConfig engine_config(std::uint32_t shards, std::uint32_t epoch_edges,
                          bool undirected = false) {
  GraphConfig cfg;
  cfg.vertex_capacity = 256;
  cfg.undirected = undirected;
  cfg.stage_shards = shards;
  cfg.pipeline_epoch_edges = epoch_edges;
  cfg.auto_rehash_p99_slabs = 0.0;  // rehash timing is pinned per test
  return cfg;
}

/// Query mix over a wider id range than the graph: hits, misses, unknown
/// sources, and self-loops all appear.
std::vector<Edge> query_batch(std::uint64_t seed, std::size_t count,
                              std::uint32_t num_vertices) {
  util::Xoshiro256 rng(seed);
  std::vector<Edge> queries(count);
  for (auto& q : queries) {
    q = {static_cast<VertexId>(rng.below(num_vertices * 2)),
         static_cast<VertexId>(rng.below(num_vertices * 2))};
  }
  return queries;
}

class QueryPipelineThreadSweep : public ::testing::TestWithParam<unsigned> {
 protected:
  void SetUp() override { simt::ThreadPool::instance().resize(GetParam()); }
  void TearDown() override { simt::ThreadPool::instance().resize(0); }
};

/// Drives edges_exist through the pipelined engine across shard counts and
/// epoch sizes; every answer must equal the reference model's.
template <class Policy>
void run_exist_differential(bool undirected, std::uint64_t seed) {
  const auto inserts = random_batch(seed, 1500, 160);
  ReferenceGraph model(undirected);
  model.insert(inserts);
  const auto queries = query_batch(seed + 1, 900, 160);
  const std::vector<std::uint8_t> expected = model.exist(queries);

  for (const std::uint32_t shards : {1u, 2u, 4u}) {
    for (const std::uint32_t epoch : {0u, 128u}) {
      DynGraph<Policy> g(engine_config(shards, epoch, undirected));
      g.insert_edges(inserts);
      std::vector<std::uint8_t> out(queries.size(), 2);
      g.edges_exist(queries, out.data());
      EXPECT_EQ(out, expected) << "shards=" << shards << " epoch=" << epoch;
      if (epoch != 0) {
        // 900 queries at epoch 128: the pipeline really split.
        EXPECT_EQ(g.last_query_stats().epochs, (900 + 127) / 128);
      }
    }
  }
}

TEST_P(QueryPipelineThreadSweep, MapDirectedExist) {
  run_exist_differential<MapPolicy>(false, 21);
}
TEST_P(QueryPipelineThreadSweep, MapUndirectedExist) {
  run_exist_differential<MapPolicy>(true, 22);
}
TEST_P(QueryPipelineThreadSweep, SetDirectedExist) {
  run_exist_differential<SetPolicy>(false, 23);
}

TEST_P(QueryPipelineThreadSweep, MapWeightsPipelinedMatchPointLookups) {
  const auto inserts = random_batch(31, 1500, 160);
  DynGraphMap g(engine_config(2, 100));
  ReferenceGraph model;
  g.insert_edges(inserts);
  model.insert(inserts);
  auto queries = query_batch(32, 1100, 160);
  queries.push_back({5, 5});     // self-loop: never stored
  queries.push_back({4000, 1});  // far out of range
  std::vector<Weight> weights(queries.size(), 0xDEAD);
  std::vector<std::uint8_t> found(queries.size(), 2);
  g.edge_weights(queries, weights.data(), found.data());
  EXPECT_GT(g.last_query_stats().epochs, 1u);
  for (std::size_t i = 0; i < queries.size(); ++i) {
    const auto expect = g.edge_weight(queries[i].src, queries[i].dst);
    ASSERT_EQ(found[i] != 0, expect.found) << "query " << i;
    ASSERT_EQ(weights[i], expect.found ? expect.value : 0u) << "query " << i;
    ASSERT_EQ(weights[i], model.weight(queries[i].src, queries[i].dst))
        << "query " << i;
  }
  EXPECT_EQ(found, model.exist(queries));
  // The found pointer stays optional on the pipelined path.
  std::vector<Weight> weights_only(queries.size(), 0xDEAD);
  g.edge_weights(queries, weights_only.data());
  EXPECT_EQ(weights, weights_only);
}

TEST_P(QueryPipelineThreadSweep, ForcedEpochsReportQueryStats) {
  DynGraphMap g(engine_config(2, 100));
  g.insert_edges(random_batch(41, 2000, 128));
  const auto queries = query_batch(42, 1000, 128);
  std::vector<std::uint8_t> out(queries.size());
  g.edges_exist(queries, out.data());
  const BatchPipelineStats stats = g.last_query_stats();
  EXPECT_EQ(stats.epochs, (1000 + 99) / 100);
  EXPECT_EQ(stats.shards, 2u);
  EXPECT_GT(stats.stage_seconds, 0.0);
  EXPECT_GT(stats.apply_seconds, 0.0);
  EXPECT_GE(stats.overlap_seconds, 0.0);
}

INSTANTIATE_TEST_SUITE_P(Widths, QueryPipelineThreadSweep,
                         ::testing::Values(1u, 8u));

// ---------------------------------------------------------------------------
// Merge-free staging
// ---------------------------------------------------------------------------

TEST(MergeFreeStaging, MatchesModelAcrossShardsAndEpochs) {
  // The same interleaved mutation stream, assembled from 2-8 shards in one
  // or several epochs, must land on exactly the model's graph.
  const auto inserts = random_batch(51, 3000, 96);
  const std::vector<Edge> erases = pairs_of(random_batch(52, 1200, 96));
  ReferenceGraph model(/*undirected=*/true);
  const std::uint64_t added = model.insert(inserts);
  const std::uint64_t removed = model.erase(erases);
  for (const std::uint32_t shards : {2u, 4u, 8u}) {
    for (const std::uint32_t epoch : {0u, 150u}) {
      DynGraphMap g(engine_config(shards, epoch, /*undirected=*/true));
      EXPECT_EQ(g.insert_edges(inserts), added);
      EXPECT_EQ(g.delete_edges(erases), removed);
      expect_matches_model(g, model);
    }
  }
}

TEST(MergeFreeStaging, CountPlaceInvariantHoldsPerShard) {
  // Pass 1 (count) must predict exactly what pass 2 (place) emits: the
  // emitted global arrays are sized from the counts alone, so any drift
  // would corrupt a neighbouring shard's slice.
  ShardedStaging staged;
  staged.resize(4);
  const slabhash::TableRef table{0, 8};
  util::Xoshiro256 rng(7);
  std::uint64_t pushed = 0;
  for (int i = 0; i < 4000; ++i) {
    const VertexId src = static_cast<VertexId>(rng.below(64));
    const std::uint32_t shard = shard_of_vertex(src, 4);
    staged.shard(shard).push(src, static_cast<std::uint32_t>(rng.below(40)),
                             table, 99);
    ++pushed;
  }
  std::uint64_t counted_runs = 0;
  std::uint64_t counted_keys = 0;
  std::uint64_t duplicates = 0;
  for (std::uint32_t s = 0; s < 4; ++s) {
    staged.shard(s).group_prepare(/*dedup=*/true);
    counted_runs += staged.shard(s).grouped_runs();
    counted_keys += staged.shard(s).grouped_keys();
    duplicates += staged.shard(s).duplicates;
  }
  EXPECT_EQ(counted_keys + duplicates, pushed);
  staged.finalize(/*gather_values=*/false, /*gather_seqs=*/false);
  const BatchStaging& front = staged.front();
  EXPECT_EQ(front.runs.size(), counted_runs);
  EXPECT_EQ(front.keys.size(), counted_keys);
  EXPECT_EQ(front.run_offsets.size(), counted_runs + 1);
  EXPECT_EQ(front.run_offsets.back(), counted_keys);
  // Offsets are strictly increasing with no gaps: every slot was placed.
  for (std::size_t r = 0; r + 1 < front.run_offsets.size(); ++r) {
    ASSERT_LT(front.run_offsets[r], front.run_offsets[r + 1]);
  }
  // Runs keep shard-major order, so the shard partition is recoverable.
  std::uint32_t last_shard = 0;
  for (const QueryRun& run : front.runs) {
    const std::uint32_t s = shard_of_vertex(run.src, 4);
    ASSERT_GE(s, last_shard) << "shard-major run order violated";
    last_shard = s;
  }
}

TEST(MergeFreeStaging, FinalizeMatchesFusedPerShardGrouping) {
  // The two-pass assembly must equal each shard's fused single-pass
  // group() output laid end to end in shard order: same keys, same runs,
  // offsets shifted by the preceding shards' key counts.
  const slabhash::TableRef table{0, 4};
  ShardedStaging staged;
  staged.resize(2);
  BatchStaging fused[2];
  util::Xoshiro256 rng(13);
  for (int i = 0; i < 500; ++i) {
    const VertexId src = static_cast<VertexId>(rng.below(32));
    const auto key = static_cast<std::uint32_t>(rng.below(25));
    const std::uint32_t s = shard_of_vertex(src, 2);
    staged.shard(s).push(src, key, table, 5);
    fused[s].push(src, key, table, 5);
  }
  std::vector<std::uint32_t> keys;
  std::vector<std::uint64_t> offsets;
  std::vector<std::pair<VertexId, std::uint32_t>> runs;
  for (std::uint32_t s = 0; s < 2; ++s) {
    staged.shard(s).group_prepare(/*dedup=*/true);
    fused[s].group(/*dedup=*/true, false, false);
    for (std::size_t r = 0; r < fused[s].runs.size(); ++r) {
      runs.push_back({fused[s].runs[r].src, fused[s].runs[r].bucket});
      offsets.push_back(keys.size() + fused[s].run_offsets[r]);
    }
    keys.insert(keys.end(), fused[s].keys.begin(), fused[s].keys.end());
  }
  offsets.push_back(keys.size());
  staged.finalize(/*gather_values=*/false, /*gather_seqs=*/false);
  EXPECT_EQ(staged.front().keys, keys);
  EXPECT_EQ(staged.front().run_offsets, offsets);
  ASSERT_EQ(staged.front().runs.size(), runs.size());
  for (std::size_t r = 0; r < runs.size(); ++r) {
    EXPECT_EQ(staged.front().runs[r].src, runs[r].first);
    EXPECT_EQ(staged.front().runs[r].bucket, runs[r].second);
  }
}

TEST(MergeFreeStaging, PartitionGuardStillArmsTheDebugAssertion) {
  // The partition guard survives the merge deletion as a debug assertion:
  // validate_partition() is finalize()'s NDEBUG-gated check, callable
  // directly so release-built suites still cover it.
  ShardedStaging staged;
  staged.resize(4);
  const slabhash::TableRef table{0, 4};
  staged.shard(2).push(6, 3, table, 1);  // vertex 6 belongs to shard 2: fine
  staged.shard(1).push(6, 4, table, 1);  // and not to shard 1: violation
  staged.shard(1).group_prepare(true);
  staged.shard(2).group_prepare(true);
  staged.shard(0).group_prepare(true);
  staged.shard(3).group_prepare(true);
  EXPECT_THROW(staged.validate_partition(), std::logic_error);
}

// ---------------------------------------------------------------------------
// Chain feedback from queries + the automatic rehash policy
// ---------------------------------------------------------------------------

/// Hub-heavy inserts: `hubs` vertices grow chains far past one slab while a
/// tail of single-edge vertices stays put.
std::vector<WeightedEdge> hub_batch(std::uint32_t hubs,
                                    std::uint32_t hub_degree,
                                    std::uint32_t tails) {
  std::vector<WeightedEdge> edges;
  for (VertexId hub = 0; hub < hubs; ++hub) {
    for (std::uint32_t k = 0; k < hub_degree; ++k) {
      edges.push_back({hub, 1000 + k, k + 1});
    }
  }
  for (VertexId u = hubs; u < hubs + tails; ++u) {
    edges.push_back({u, u + 1, 1});
  }
  return edges;
}

TEST(QueryChainFeedback, BulkSearchesFeedTheHistogram) {
  GraphConfig cfg = engine_config(2, 0);
  cfg.vertex_capacity = 2048;
  DynGraphMap g(cfg);
  g.insert_edges(hub_batch(3, 200, 60));
  // Drain the insert-time histogram without rebuilding anything: at a
  // 100-slab threshold nothing qualifies, and the consumed interval's
  // histogram resets.
  EXPECT_EQ(g.rehash_long_chains(100.0), 0u);
  std::uint64_t hist_total = 0;
  for (const std::uint64_t h : g.chain_feedback().hist) hist_total += h;
  EXPECT_EQ(hist_total, 0u);

  // A pure query phase must refill it: the hub chains are ~14 slabs deep
  // and every bulk search walks them.
  std::vector<Edge> queries;
  for (std::uint32_t k = 0; k < 200; ++k) queries.push_back({0, 1000 + k});
  std::vector<std::uint8_t> out(queries.size());
  g.edges_exist(queries, out.data());
  for (std::uint32_t k = 0; k < 200; ++k) ASSERT_EQ(out[k], 1u);
  hist_total = 0;
  for (const std::uint64_t h : g.chain_feedback().hist) hist_total += h;
  EXPECT_GT(hist_total, 0u) << "bulk searches must histogram chain lengths";

  // And the query-fed candidates are enough for a targeted rehash to find
  // the offenders without a sweep.
  const std::uint32_t rehashed = g.rehash_long_chains(1.0);
  EXPECT_GT(rehashed, 0u);
  EXPECT_TRUE(g.last_rehash_stats().targeted);
  EXPECT_LT(g.last_rehash_stats().scanned, 20u);
}

TEST(AutoRehash, FiresWithoutUserCallsAndPreservesContent) {
  // >1% of runs walk chains >= 4 slabs => the p99 policy must fire during
  // insert_edges itself.
  const auto edges = hub_batch(40, 80, 200);
  GraphConfig auto_cfg = engine_config(2, 0);
  auto_cfg.vertex_capacity = 2048;
  auto_cfg.auto_rehash_p99_slabs = 4.0;
  GraphConfig manual_cfg = auto_cfg;
  manual_cfg.auto_rehash_p99_slabs = 0.0;

  DynGraphMap auto_graph(auto_cfg);
  DynGraphMap manual_graph(manual_cfg);
  auto_graph.insert_edges(edges);
  manual_graph.insert_edges(edges);

  EXPECT_GE(auto_graph.auto_rehash_triggers(), 1u);
  EXPECT_EQ(manual_graph.auto_rehash_triggers(), 0u);
  // Rehashing moves content, never changes it.
  EXPECT_EQ(graph_edges(auto_graph), graph_edges(manual_graph));
  // The hubs were actually rebuilt: chains shrank vs the unmaintained twin.
  EXPECT_LT(auto_graph.memory_stats().avg_chain_length(),
            manual_graph.memory_stats().avg_chain_length());
}

TEST(AutoRehash, TailFractionKnobControlsTheTrigger) {
  // Same skewed stream as FiresWithoutUserCalls: 40 hub runs out of ~240
  // walk >= 4-slab chains, a tail fraction of roughly 1/6. The default
  // 0.01 (p99) must fire, and a tolerance ABOVE the actual tail must not
  // — the knob, not a hard-wired 1%, decides.
  const auto edges = hub_batch(40, 80, 200);
  for (const double frac : {0.01, 0.5}) {
    GraphConfig cfg = engine_config(2, 0);
    cfg.vertex_capacity = 2048;
    cfg.auto_rehash_p99_slabs = 4.0;
    cfg.auto_rehash_tail_frac = frac;
    DynGraphMap g(cfg);
    g.insert_edges(edges);
    if (frac <= 0.01) {
      EXPECT_GE(g.auto_rehash_triggers(), 1u) << "frac=" << frac;
    } else {
      EXPECT_EQ(g.auto_rehash_triggers(), 0u) << "frac=" << frac;
    }
  }
}

TEST(AutoRehash, TailFractionIsValidatedAtConstruction) {
  GraphConfig cfg;
  cfg.auto_rehash_tail_frac = 0.0;  // "fire on any tail" is frac -> 0+,
  EXPECT_THROW(DynGraphMap{cfg}, std::invalid_argument);  // not 0
  cfg.auto_rehash_tail_frac = -0.5;
  EXPECT_THROW(DynGraphMap{cfg}, std::invalid_argument);
  cfg.auto_rehash_tail_frac = 1.5;
  EXPECT_THROW(DynGraphMap{cfg}, std::invalid_argument);
  cfg.auto_rehash_tail_frac = 1.0;  // the permissive extreme is legal
  DynGraphMap ok(cfg);
  EXPECT_EQ(ok.config().auto_rehash_tail_frac, 1.0);
}

TEST(AutoRehash, StaysQuietOnUniformWorkloads) {
  GraphConfig cfg = engine_config(2, 0);
  cfg.auto_rehash_p99_slabs = 4.0;
  DynGraphMap g(cfg);
  g.insert_edges(random_batch(61, 2000, 200));  // short chains everywhere
  EXPECT_EQ(g.auto_rehash_triggers(), 0u);
}

TEST(AutoRehash, QueriesInformButNeverFireThePolicy) {
  // Queries feed the histogram but must not fire the (mutating) policy
  // themselves — the phase-concurrent model keeps query phases read-only.
  // The accumulated query observations DO count at the next mutation.
  GraphConfig cfg = engine_config(1, 0);
  cfg.vertex_capacity = 2048;
  cfg.auto_rehash_p99_slabs = 4.0;
  DynGraphMap g(cfg);
  // 3 long runs out of ~503: under the 1% tail, the insert must not fire.
  g.insert_edges(hub_batch(3, 200, 500));
  ASSERT_EQ(g.auto_rehash_triggers(), 0u);
  const auto before = g.memory_stats();

  // Hammer the hub chains with query batches: each walk histograms another
  // long chain, pushing the tail fraction well past 1% — but a query phase
  // may only observe, never rebuild.
  std::vector<Edge> queries;
  for (std::uint32_t k = 0; k < 200; ++k) queries.push_back({0, 1000 + k});
  std::vector<std::uint8_t> out(queries.size());
  for (int rep = 0; rep < 10; ++rep) g.edges_exist(queries, out.data());
  EXPECT_EQ(g.auto_rehash_triggers(), 0u);
  EXPECT_EQ(g.memory_stats().overflow_slabs, before.overflow_slabs);

  // The very next mutation inspects the query-fed histogram and fires.
  const std::vector<WeightedEdge> one_edge{{600, 601, 1}};
  g.insert_edges(one_edge);
  EXPECT_EQ(g.auto_rehash_triggers(), 1u);
  EXPECT_LT(g.memory_stats().overflow_slabs, before.overflow_slabs);
}

}  // namespace
}  // namespace sg::core
