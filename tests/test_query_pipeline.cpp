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
//   * the GraphConfig::auto_rehash_chain_slabs policy must rebuild exactly
//     the tables an insert batch pushed past the threshold, without user
//     calls, while preserving graph content; erase batches, queries,
//     gathers and age scans must never rebuild.
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
  cfg.auto_rehash_chain_slabs = 0.0;  // rehash timing is pinned per test
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
  // The same interleaved mutation stream, staged on 1-8 shards (one shard
  // runs the same loop with every vertex owned) in one or several epochs,
  // must land on exactly the model's graph.
  const auto inserts = random_batch(51, 3000, 96);
  const std::vector<Edge> erases = pairs_of(random_batch(52, 1200, 96));
  ReferenceGraph model(/*undirected=*/true);
  const std::uint64_t added = model.insert(inserts);
  const std::uint64_t removed = model.erase(erases);
  for (const std::uint32_t shards : {1u, 2u, 4u, 8u}) {
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
// The automatic rehash policy
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

TEST(AutoRehash, FiresWithoutUserCallsAndPreservesContent) {
  // 80 keys in a one-bucket table fill more than 4 slabs => the policy must
  // fire during insert_edges itself.
  const auto edges = hub_batch(40, 80, 200);
  GraphConfig auto_cfg = engine_config(2, 0);
  auto_cfg.vertex_capacity = 2048;
  auto_cfg.auto_rehash_chain_slabs = 4.0;
  GraphConfig manual_cfg = auto_cfg;
  manual_cfg.auto_rehash_chain_slabs = 0.0;

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

TEST(AutoRehash, StaysQuietOnUniformWorkloads) {
  GraphConfig cfg = engine_config(2, 0);
  cfg.auto_rehash_chain_slabs = 4.0;
  DynGraphMap g(cfg);
  g.insert_edges(random_batch(61, 2000, 200));  // short chains everywhere
  EXPECT_EQ(g.auto_rehash_triggers(), 0u);
}

template <class Policy>
std::vector<std::uint32_t> bucket_counts(const DynGraph<Policy>& g) {
  std::vector<std::uint32_t> out(g.vertex_capacity());
  for (VertexId u = 0; u < out.size(); ++u) out[u] = bucket_count(g, u);
  return out;
}

/// `count` edges from `src` to fresh destinations, timestamped `ts`.
std::vector<WeightedEdge> fan_out(VertexId src, VertexId first_dst,
                                  std::uint32_t count, Weight ts) {
  std::vector<WeightedEdge> edges;
  for (std::uint32_t k = 0; k < count; ++k) {
    edges.push_back({src, first_dst + k, ts});
  }
  return edges;
}

/// The auto-rehash trigger against the model. Every table starts with one
/// bucket (first touch), so the threshold is 4 slabs' worth of keys:
///   * a batch that pushes the hub past it leaves the hub rebuilt (more
///     buckets, content equal to the model), in the batch that crossed;
///   * a table filled exactly to the threshold is never rebuilt;
///   * erase batches, edges_exist, gather_neighbors and
///     delete_edges_older_than never rebuild anything;
///   * the manual sweep at the same threshold then finds nothing left.
template <class Policy>
void run_auto_rehash_model(bool undirected) {
  GraphConfig cfg = engine_config(2, 0, undirected);
  cfg.vertex_capacity = 4096;
  cfg.auto_rehash_chain_slabs = 4.0;
  DynGraph<Policy> g(cfg);
  ReferenceGraph model(undirected);
  const std::uint32_t limit = 4 * Policy::kSlotCapacity;
  constexpr VertexId kHub = 1;
  constexpr VertexId kFull = 2;  // filled exactly to the threshold
  const auto insert = [&](const std::vector<WeightedEdge>& batch) {
    EXPECT_EQ(g.insert_edges(batch), model.insert(batch));
    expect_matches_model(g, model);
  };

  // Under the threshold everywhere: nothing is rebuilt.
  std::vector<WeightedEdge> batch = fan_out(kHub, 1000, limit - 5, 1);
  const auto full = fan_out(kFull, 2000, limit, 1);
  batch.insert(batch.end(), full.begin(), full.end());
  for (WeightedEdge e : random_batch(7, 300, 200)) {  // away from the above
    batch.push_back({e.src + 3000, e.dst + 3000, e.weight});
  }
  insert(batch);
  ASSERT_EQ(g.degree(kFull), limit);
  EXPECT_EQ(g.auto_rehash_triggers(), 0u);
  EXPECT_EQ(bucket_count(g, kHub), 1u);
  EXPECT_EQ(bucket_count(g, kFull), 1u);

  // Six more keys take the hub past the threshold: this batch rebuilds it.
  // Re-inserting kFull's keys adds nothing new, so kFull stays as it is.
  batch = fan_out(kHub, 1000 + limit - 5, 6, 2);
  batch.insert(batch.end(), full.begin(), full.end());
  insert(batch);
  EXPECT_EQ(g.auto_rehash_triggers(), 1u);
  EXPECT_GT(bucket_count(g, kHub), 1u);
  EXPECT_EQ(bucket_count(g, kFull), 1u);
  const std::vector<std::uint32_t> buckets = bucket_counts(g);

  // From here on only erases, queries, gathers and age scans: none may
  // rebuild a table.
  std::vector<Edge> doomed;
  for (std::uint32_t k = 0; k < limit; k += 3) {
    doomed.push_back({kFull, 2000 + k});
  }
  EXPECT_EQ(g.delete_edges(doomed), model.erase(doomed));
  std::vector<Edge> queries;
  for (std::uint32_t k = 0; k < limit + 10; ++k) {
    queries.push_back({kHub, 1000 + k});
    queries.push_back({kFull, 2000 + k});
  }
  std::vector<std::uint8_t> found(queries.size());
  g.edges_exist(queries, found.data());
  EXPECT_EQ(found, model.exist(queries));
  std::vector<VertexId> all(g.vertex_capacity());
  for (VertexId u = 0; u < all.size(); ++u) all[u] = u;
  const GatherResult gathered = g.gather_neighbors(all);
  EXPECT_EQ(gathered.neighbors.size(), model.num_edges());
  if constexpr (Policy::kHasValues) {
    // Ages out every edge stamped below 2: the first batch's fan-outs and
    // part of the noise.
    EXPECT_EQ(g.delete_edges_older_than(2), model.age_out(2));
  }
  expect_matches_model(g, model);
  EXPECT_EQ(g.auto_rehash_triggers(), 1u);
  EXPECT_EQ(bucket_counts(g), buckets);

  // The batch that crossed left nothing for the manual sweep to find.
  EXPECT_EQ(g.rehash_long_chains(4.0), 0u);
  expect_matches_model(g, model);
}

TEST(AutoRehashModel, MapDirected) { run_auto_rehash_model<MapPolicy>(false); }
TEST(AutoRehashModel, MapUndirected) { run_auto_rehash_model<MapPolicy>(true); }
TEST(AutoRehashModel, SetDirected) { run_auto_rehash_model<SetPolicy>(false); }
TEST(AutoRehashModel, SetUndirected) { run_auto_rehash_model<SetPolicy>(true); }

}  // namespace
}  // namespace sg::core
