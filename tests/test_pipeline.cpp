// Tests of the sharded, double-buffered batch pipeline (PR 3): interleaved
// insert/delete/search batches through the pipelined path — and through a
// one-epoch (single-buffer) run — must equal the reference model across
// shard counts, epoch sizes, and pool widths (including the degenerate
// 1-thread pipeline and pools wider than the shard count); most-recent-wins
// dedup must stay deterministic across shard AND epoch boundaries; and the
// batched edge_weights API must agree with point lookups and the model.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
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

/// An epoch size no test batch reaches: every batch runs as one epoch,
/// staged then applied with no second buffer (the single-buffer engine).
constexpr std::uint32_t kOneEpoch = UINT32_MAX;

GraphConfig pipeline_config(bool undirected, std::uint32_t shards,
                            std::uint32_t epoch_edges) {
  GraphConfig cfg;
  cfg.vertex_capacity = 256;
  cfg.undirected = undirected;
  cfg.stage_shards = shards;
  cfg.pipeline_epoch_edges = epoch_edges;
  return cfg;
}

/// Skewed, duplicate-heavy batch: a few hub sources own most edges and the
/// same (src, dst) pair recurs with different weights — the shard- and
/// epoch-boundary dedup stress case.
std::vector<WeightedEdge> skewed_batch(std::uint64_t seed, std::size_t count,
                                       std::uint32_t num_vertices) {
  util::Xoshiro256 rng(seed);
  std::vector<WeightedEdge> batch(count);
  for (auto& e : batch) {
    const bool hub = rng.below(100) < 70;
    e = {hub ? static_cast<VertexId>(rng.below(5))
             : static_cast<VertexId>(rng.below(num_vertices)),
         static_cast<VertexId>(rng.below(hub ? 24 : num_vertices)),
         static_cast<Weight>(rng.below(1u << 16))};
  }
  return batch;
}

/// Drives interleaved insert / delete / search rounds through two graphs
/// — the pipelined engine under test and a one-epoch (single-buffer) run —
/// asserting after every phase that both hold exactly the model's graph.
template <class Policy>
void run_pipeline_differential(bool undirected, std::uint32_t shards,
                               std::uint32_t epoch_edges, std::uint64_t seed) {
  DynGraph<Policy> pipelined(pipeline_config(undirected, shards, epoch_edges));
  DynGraph<Policy> single_buffer(pipeline_config(undirected, 1, kOneEpoch));
  ReferenceGraph model(undirected);

  for (int round = 0; round < 3; ++round) {
    const auto inserts = round % 2 == 0
                             ? skewed_batch(seed + round, 700, 180)
                             : random_batch(seed + round, 700, 180);
    const std::uint64_t added = model.insert(inserts);
    EXPECT_EQ(pipelined.insert_edges(inserts), added);
    EXPECT_EQ(single_buffer.insert_edges(inserts), added);
    expect_matches_model(pipelined, model);
    expect_matches_model(single_buffer, model);

    const std::vector<Edge> erases =
        pairs_of(skewed_batch(seed + 50 + round, 300, 180));
    const std::uint64_t removed = model.erase(erases);
    EXPECT_EQ(pipelined.delete_edges(erases), removed);
    EXPECT_EQ(single_buffer.delete_edges(erases), removed);
    expect_matches_model(pipelined, model);
    expect_matches_model(single_buffer, model);

    const std::vector<Edge> queries =
        pairs_of(random_batch(seed + 90 + round, 400, 220));
    std::vector<std::uint8_t> out(queries.size(), 2);
    pipelined.edges_exist(queries, out.data());
    EXPECT_EQ(out, model.exist(queries));
  }
}

class PipelineThreadSweep : public ::testing::TestWithParam<unsigned> {
 protected:
  void SetUp() override { simt::ThreadPool::instance().resize(GetParam()); }
  void TearDown() override { simt::ThreadPool::instance().resize(0); }
};

TEST_P(PipelineThreadSweep, MapDirectedShardedEpochs) {
  // Epoch size 96 on 700-edge batches: many epochs, the double buffer is
  // exercised hard; shards 4 with pools of 1 and 8 covers shard count both
  // above and below the worker count.
  run_pipeline_differential<MapPolicy>(false, 4, 96, 11);
}
TEST_P(PipelineThreadSweep, MapUndirectedShardedEpochs) {
  run_pipeline_differential<MapPolicy>(true, 4, 96, 12);
}
TEST_P(PipelineThreadSweep, SetDirectedShardedEpochs) {
  run_pipeline_differential<SetPolicy>(false, 2, 128, 13);
}
TEST_P(PipelineThreadSweep, SetUndirectedAutoShards) {
  run_pipeline_differential<SetPolicy>(true, 0, 96, 14);
}
TEST_P(PipelineThreadSweep, MapUndirectedSingleShardManyEpochs) {
  run_pipeline_differential<MapPolicy>(true, 1, 64, 15);
}

// 1 = the degenerate serial pipeline (inline staging at submit); 8 = more
// workers than shards, so apply and stage genuinely share the pool.
INSTANTIATE_TEST_SUITE_P(Widths, PipelineThreadSweep,
                         ::testing::Values(1u, 8u));

TEST(PipelineDedup, MostRecentWinsAcrossEpochBoundaries) {
  // Duplicates of (5, 9) land in different epochs (epoch size 8); the
  // epoch fence must resolve them exactly as one unsplit batch would.
  DynGraphMap g(pipeline_config(false, 2, 8));
  std::vector<WeightedEdge> batch;
  for (Weight w = 1; w <= 40; ++w) batch.push_back({5, 9, w});
  batch.push_back({5, 10, 7});
  for (Weight w = 100; w <= 130; ++w) batch.push_back({5, 9, w});
  EXPECT_EQ(g.insert_edges(batch), 2u);
  EXPECT_GT(g.last_batch_stats().epochs, 1u);
  EXPECT_EQ(g.edge_weight(5, 9).value, 130u);
  EXPECT_EQ(g.degree(5), 2u);
}

TEST(PipelineDedup, SkewedDuplicatesDeterministicAcrossShardCounts) {
  // The same skewed duplicate-heavy batch must produce bit-identical
  // adjacency no matter how staging is sharded or split into epochs —
  // every occurrence of a (vertex, key) pair lands in the one shard owning
  // the vertex, so per-shard dedup is exhaustive by construction.
  const auto batch = skewed_batch(99, 3000, 64);
  ReferenceGraph model(/*undirected=*/true);
  model.insert(batch);
  for (const std::uint32_t shards : {1u, 2u, 4u, 8u}) {
    for (const std::uint32_t epoch : {0u, 128u}) {
      DynGraphMap sharded(pipeline_config(true, shards, epoch));
      sharded.insert_edges(batch);
      expect_matches_model(sharded, model);
    }
  }
}

TEST(PipelineStats, ForcedEpochsReportStageAndApplyTime) {
  DynGraphMap g(pipeline_config(false, 2, 64));
  const auto batch = random_batch(3, 1000, 128);
  g.insert_edges(batch);
  const BatchPipelineStats& stats = g.last_batch_stats();
  EXPECT_EQ(stats.epochs, (1000 + 63) / 64);
  EXPECT_EQ(stats.shards, 2u);
  EXPECT_GT(stats.stage_seconds, 0.0);
  EXPECT_GT(stats.apply_seconds, 0.0);
  EXPECT_GE(stats.overlap_seconds, 0.0);
}

TEST(ShardedStagingGuard, RunCrossingShardPartitionThrows) {
  // Staging a vertex into a shard that does not own it must be caught by
  // the partition guard — this is the invariant that makes cross-shard
  // dedup impossible to break silently. finalize() runs the guard as a
  // debug assertion; validate_partition() is its always-available form.
  ShardedStaging staged;
  staged.resize(2);
  const slabhash::TableRef table{0, 4};
  // Vertex 1 belongs to shard 1 (1 % 2); push it into shard 0.
  staged.shard(0).push(1, 7, table, 42);
  staged.shard(0).group_prepare(true);
  staged.shard(1).group_prepare(true);
  EXPECT_THROW(staged.validate_partition(), std::logic_error);
  // A correctly partitioned staging passes the guard and finalizes.
  ShardedStaging ok;
  ok.resize(2);
  ok.shard(1).push(1, 7, table, 42);
  ok.shard(0).group_prepare(true);
  ok.shard(1).group_prepare(true);
  EXPECT_NO_THROW(ok.validate_partition());
  ok.finalize(/*gather_values=*/false, /*gather_seqs=*/false);
  EXPECT_EQ(ok.front().keys.size(), 1u);
}

// ---------------------------------------------------------------------------
// Batched weighted lookup (edge_weights)
// ---------------------------------------------------------------------------

TEST(EdgeWeights, MatchesPointLookupsAndModel) {
  const auto inserts = skewed_batch(7, 1500, 96);
  GraphConfig cfg = pipeline_config(false, 2, 200);
  cfg.vertex_capacity = 96;
  DynGraphMap g(cfg);
  ReferenceGraph model;
  g.insert_edges(inserts);
  model.insert(inserts);

  // Hits, misses, and unknown sources, plus two edge cases.
  std::vector<Edge> queries = pairs_of(skewed_batch(8, 600, 128));
  queries.push_back({5, 5});     // self-loop: never stored
  queries.push_back({4000, 1});  // far out of range
  std::vector<Weight> weights(queries.size(), 0xDEAD);
  std::vector<std::uint8_t> found(queries.size(), 2);
  g.edge_weights(queries, weights.data(), found.data());
  EXPECT_EQ(found, model.exist(queries));
  for (std::size_t i = 0; i < queries.size(); ++i) {
    const auto expect = g.edge_weight(queries[i].src, queries[i].dst);
    EXPECT_EQ(found[i] != 0, expect.found) << "query " << i;
    EXPECT_EQ(weights[i], model.weight(queries[i].src, queries[i].dst))
        << "query " << i;
  }
  // The found pointer is optional.
  std::vector<Weight> weights_only(queries.size(), 0xDEAD);
  g.edge_weights(queries, weights_only.data());
  EXPECT_EQ(weights, weights_only);
}

TEST(EdgeWeights, EmptyBatchIsNoop) {
  DynGraphMap g(pipeline_config(false, 2, 0));
  g.edge_weights({}, nullptr, nullptr);
}

// ---------------------------------------------------------------------------
// Graceful degradation under memory pressure (docs/ROBUSTNESS.md)
// ---------------------------------------------------------------------------

/// Unique directed pairs from one hub source: every edge past the base-slab
/// capacity needs a dynamic chain slab, which a chunk-limited arena refuses.
std::vector<WeightedEdge> hub_chain_batch(std::size_t count) {
  std::vector<WeightedEdge> batch;
  batch.reserve(count);
  for (std::uint32_t k = 0; k < count; ++k) {
    batch.push_back({1, 10 + k, k + 1});
  }
  return batch;
}

class ArenaPressureSweep : public ::testing::TestWithParam<unsigned> {
 protected:
  void SetUp() override { simt::ThreadPool::instance().resize(GetParam()); }
  void TearDown() override { simt::ThreadPool::instance().resize(0); }
};

/// The acceptance differential for memory pressure: an insert that exhausts
/// the arena mid-batch must (1) surface PartialBatchError on the CALLER —
/// the failing bulk op runs on a pool thread, and the error must cross the
/// pool boundary instead of std::terminate-ing a worker; (2) fire
/// on_pressure first; (3) report an exact applied/unapplied split — the
/// graph equals the full batch minus the reported remainder, counters
/// agree; (4) leave the graph serving queries and deletions.
TEST_P(ArenaPressureSweep, ExhaustionSurfacesExactPartialBatchError) {
  GraphConfig cfg = pipeline_config(false, 4, 96);
  cfg.vertex_capacity = 64;
  cfg.max_arena_chunks = 1;  // base slabs only: chain growth must fail
  int pressure_calls = 0;
  cfg.on_pressure = [&pressure_calls] { ++pressure_calls; };
  DynGraphMap g(cfg);

  const auto batch = hub_chain_batch(2000);
  bool aborted = false;
  std::vector<Edge> unapplied;
  try {
    g.insert_edges(batch);
  } catch (const PartialBatchError& e) {
    aborted = true;
    unapplied = e.unapplied();
    // The typed cause is preserved behind the wrapper.
    EXPECT_THROW(std::rethrow_exception(e.cause()), memory::ArenaExhausted);
    // Counters stay exact through the abort: what the error claims was
    // applied is exactly what the graph holds.
    EXPECT_EQ(e.applied(), g.num_edges());
  }
  ASSERT_TRUE(aborted) << "a 1-chunk arena cannot hold 2000-edge chains";
  EXPECT_EQ(pressure_calls, 1);
  ASSERT_FALSE(unapplied.empty());

  // Differential on the committed prefix: the graph must equal the full
  // batch minus the reported remainder — nothing silently dropped, nothing
  // applied but reported missing.
  std::set<std::pair<VertexId, VertexId>> expected;
  for (const auto& e : batch) expected.insert({e.src, e.dst});
  for (const auto& e : unapplied) {
    ASSERT_TRUE(expected.erase({e.src, e.dst}))
        << "unapplied edge not in the batch (or reported twice)";
  }
  std::set<std::pair<VertexId, VertexId>> actual;
  for (const auto& t : graph_edges(g)) {
    actual.insert({std::get<0>(t), std::get<1>(t)});
  }
  EXPECT_EQ(actual, expected);

  // The graph survives: queries answer, deletion (which never allocates)
  // still works, and counters follow.
  std::vector<Edge> probe{{1, 10}, {1, 5000}};
  std::vector<std::uint8_t> out(probe.size(), 2);
  g.edges_exist(probe, out.data());
  EXPECT_EQ(out[0], actual.count({1, 10}) ? 1 : 0);
  EXPECT_EQ(out[1], 0);
  const std::uint64_t before = g.num_edges();
  if (!actual.empty()) {
    const auto victim = *actual.begin();
    const std::vector<Edge> erase{{victim.first, victim.second}};
    EXPECT_EQ(g.delete_edges(erase), 1u);
    EXPECT_EQ(g.num_edges(), before - 1);
  }
}

INSTANTIATE_TEST_SUITE_P(Widths, ArenaPressureSweep, ::testing::Values(1u, 8u));

TEST(ArenaPressure, RetryingTheReportedRemainderCompletesTheBatch) {
  // The contract PartialBatchError documents: insert(unapplied) on a graph
  // with headroom yields exactly the state a single successful insert of
  // the full batch would have produced.
  GraphConfig tight = pipeline_config(false, 2, 128);
  tight.vertex_capacity = 64;
  tight.max_arena_chunks = 1;
  DynGraphMap g(tight);
  const auto batch = hub_chain_batch(1200);
  std::vector<Edge> unapplied;
  try {
    g.insert_edges(batch);
    FAIL() << "expected exhaustion";
  } catch (const PartialBatchError& e) {
    unapplied = e.unapplied();
  }
  // Build the retry batch with the original weights (the remainder carries
  // (src, dst); weights come from the caller's batch).
  std::vector<WeightedEdge> retry;
  for (const auto& [src, dst] : unapplied) {
    retry.push_back({src, dst, dst - 10 + 1});
  }
  GraphConfig roomy = tight;
  roomy.max_arena_chunks = 0;  // unlimited
  DynGraphMap fresh(roomy);
  fresh.insert_edges(batch);

  // Not retryable in place (the limit still binds) — but the committed
  // prefix plus the remainder reconstructs the batch on a roomy twin.
  DynGraphMap healed(roomy);
  std::vector<WeightedEdge> committed;
  std::set<std::pair<VertexId, VertexId>> missing;
  for (const auto& e : unapplied) missing.insert({e.src, e.dst});
  for (const auto& e : batch) {
    if (!missing.count({e.src, e.dst})) committed.push_back(e);
  }
  healed.insert_edges(committed);
  healed.insert_edges(retry);
  expect_identical(healed, fresh);
}

}  // namespace
}  // namespace sg::core
