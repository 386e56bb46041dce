// Cross-shard differential suite of the multi-shard serving tier
// (src/shard/): ShardedGraph against the reference model across
// shard counts 1/2/4/8, map and set variants, directed and undirected,
// on uniform-random and power-law-skewed batches — plus the TSan-raced
// multi-submitter tests that pin the scheduled tier's epoch-consistent
// cross-shard analytics, its shutdown semantics, and how it folds a
// shard's backpressure refusal into the tier result.
//
// The model equivalence is structural: a tier and the model fed the same
// client batches must hold the SAME edge multiset (the tier's union of
// per-shard adjacencies equals the model's), the same num_edges, and the
// same per-vertex degrees — for any shard count, because routing by
// owner(src) moves rows between instances without changing what is
// stored.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <future>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <tuple>
#include <type_traits>
#include <vector>

#include "src/core/errors.hpp"
#include "src/persist/snapshot.hpp"
#include "src/shard/batch_router.hpp"
#include "src/shard/sharded_graph.hpp"
#include "tests/graph_test_util.hpp"

namespace sg::shard {
namespace {

using core::Edge;
using core::GraphConfig;
using core::MapPolicy;
using core::SetPolicy;
using core::VertexId;
using core::Weight;
using core::WeightedEdge;
using core::testutil::EdgeSet;
using core::testutil::graph_edges;
using core::testutil::random_batch;
using core::testutil::ReferenceGraph;

constexpr std::uint32_t kVertices = 2048;

GraphConfig tier_config(bool undirected) {
  GraphConfig gc;
  gc.vertex_capacity = kVertices;
  gc.undirected = undirected;
  return gc;
}

template <class Policy>
ShardedGraph<Policy> make_tier(std::uint32_t shards, bool undirected) {
  ShardConfig sc;
  sc.shard_count = shards;
  sc.graph = tier_config(undirected);
  return ShardedGraph<Policy>(std::move(sc));
}

/// Union of the per-shard edge multisets — the tier-wide stored state.
template <class Policy>
EdgeSet tier_edges(const ShardedGraph<Policy>& tier) {
  EdgeSet edges;
  for (std::uint32_t s = 0; s < tier.shard_count(); ++s) {
    const auto shard = graph_edges(tier.shard(s));
    edges.insert(shard.begin(), shard.end());
  }
  return edges;
}

template <class Policy>
void expect_tier_matches_model(const ShardedGraph<Policy>& tier,
                               const ReferenceGraph& model) {
  ASSERT_EQ(tier.num_edges(), model.num_edges());
  for (const auto& [u, nbrs] : model.adjacency()) {
    ASSERT_EQ(tier.degree(u), nbrs.size()) << "degree mismatch at vertex " << u;
  }
  EXPECT_EQ(tier_edges(tier), model.edges(Policy::kHasValues));
}

/// The model's edge_weights answers: weights (0 on a miss), found flags.
core::EdgeWeightBatch model_weights(const ReferenceGraph& model,
                                    const std::vector<Edge>& queries) {
  core::EdgeWeightBatch out;
  out.found = model.exist(queries);
  for (const Edge& q : queries) {
    out.weights.push_back(model.weight(q.src, q.dst));
  }
  return out;
}

std::vector<Edge> strip(const std::vector<WeightedEdge>& batch) {
  std::vector<Edge> out;
  out.reserve(batch.size());
  for (const WeightedEdge& e : batch) out.push_back({e.src, e.dst});
  return out;
}

/// Hub-skewed batch: sources follow an approximate power law (u^3 pushes
/// most mass onto low ids), the shape that concentrates tier load onto
/// whichever shards own the hubs.
std::vector<WeightedEdge> power_law_batch(std::uint64_t seed,
                                          std::size_t count,
                                          std::uint32_t num_vertices) {
  util::Xoshiro256 rng(seed);
  std::vector<WeightedEdge> batch(count);
  for (auto& e : batch) {
    const double u = rng.uniform();
    e.src = static_cast<VertexId>(static_cast<double>(num_vertices - 1) * u *
                                  u * u);
    e.dst = static_cast<VertexId>(rng.below(num_vertices));
    e.weight = static_cast<Weight>(rng.below(1u << 16));
  }
  return batch;
}

// ---- routing layer ---------------------------------------------------------

/// Routes `batch` through the mutation router: as inserts, or as erases.
template <typename T>
RoutedBatch<T> route_mutation(const std::vector<T>& batch,
                              std::uint32_t shards, bool mirror) {
  if constexpr (std::is_same_v<T, WeightedEdge>) {
    return route_inserts(batch, shards, mirror);
  } else {
    return route_erases(batch, shards, mirror);
  }
}

template <typename T>
void expect_split_preserves_order(const std::vector<T>& batch) {
  for (std::uint32_t shards : {1u, 2u, 4u, 8u}) {
    const auto routed = route_mutation(batch, shards, /*mirror=*/false);
    ASSERT_EQ(routed.items.size(), batch.size());
    ASSERT_EQ(routed.offsets.size(), shards + 1);
    // Every item landed on its owner, in input order within the shard.
    std::size_t cursor = 0;
    std::vector<std::vector<T>> expected(shards);
    for (const auto& e : batch) expected[owner_of(e.src, shards)].push_back(e);
    for (std::uint32_t s = 0; s < shards; ++s) {
      const auto sub = routed.shard_span(s);
      ASSERT_EQ(sub.size(), expected[s].size());
      for (std::size_t i = 0; i < sub.size(); ++i) {
        EXPECT_EQ(sub[i], expected[s][i]);
      }
      cursor += sub.size();
    }
    EXPECT_EQ(cursor, batch.size());
  }
}

TEST(BatchRouter, OwnerOfIsPinnedToLiteralShards) {
  // The router tests below use owner_of as their own oracle, and per-shard
  // snapshot files depend on the partition: pin it to literal values so a
  // change to the hash or to the power-of-two mask shows up here.
  const std::vector<VertexId> ids = {0,    1,     2,         3,         7,
                                     42,   1000,  65535,     123456789,
                                     0xFFFFFFFEu};
  const std::vector<std::pair<std::uint32_t, std::vector<std::uint32_t>>>
      expected = {
          {1, {0, 0, 0, 0, 0, 0, 0, 0, 0, 0}},
          {3, {1, 2, 1, 0, 0, 1, 1, 1, 2, 1}},
          {4, {3, 1, 2, 1, 3, 1, 0, 2, 1, 2}},
          {8, {7, 1, 6, 5, 7, 5, 0, 6, 1, 2}},
      };
  for (const auto& [shards, owners] : expected) {
    for (std::size_t i = 0; i < ids.size(); ++i) {
      EXPECT_EQ(owner_of(ids[i], shards), owners[i])
          << "vertex " << ids[i] << " at " << shards << " shards";
    }
  }
}

TEST(BatchRouter, SplitsPreserveEveryItemAndInputOrderPerShard) {
  const auto batch = random_batch(7, 4096, kVertices);
  expect_split_preserves_order(batch);
  expect_split_preserves_order(strip(batch));
}

/// The routed items as (src, dst, weight) triples (weight 0 for erases),
/// checking on the way that every item sits on its source's owner.
template <typename T>
std::multiset<std::tuple<VertexId, VertexId, Weight>> routed_triples(
    const RoutedBatch<T>& routed) {
  std::multiset<std::tuple<VertexId, VertexId, Weight>> out;
  for (std::uint32_t s = 0; s < routed.shards(); ++s) {
    for (const T& e : routed.shard_span(s)) {
      EXPECT_EQ(owner_of(e.src, routed.shards()), s);
      Weight w = 0;
      if constexpr (std::is_same_v<T, WeightedEdge>) w = e.weight;
      out.insert({e.src, e.dst, w});
    }
  }
  return out;
}

TEST(BatchRouter, MirrorEmitsBothOrientationsExceptSelfLoops) {
  std::vector<WeightedEdge> batch = {{1, 2, 10}, {3, 3, 11}, {2, 1, 12}};
  // 2 mirrored + 1 self-loop unmirrored = 5 emissions; an insert's mirror
  // keeps its weight.
  const auto inserts = route_inserts(batch, 4, /*mirror=*/true);
  ASSERT_EQ(inserts.items.size(), 5u);
  const std::multiset<std::tuple<VertexId, VertexId, Weight>> expected = {
      {1, 2, 10}, {2, 1, 10}, {3, 3, 11}, {2, 1, 12}, {1, 2, 12}};
  EXPECT_EQ(routed_triples(inserts), expected);

  const auto erases = route_erases(strip(batch), 4, /*mirror=*/true);
  ASSERT_EQ(erases.items.size(), 5u);
  const std::multiset<std::tuple<VertexId, VertexId, Weight>> expected_pairs =
      {{1, 2, 0}, {2, 1, 0}, {3, 3, 0}, {2, 1, 0}, {1, 2, 0}};
  EXPECT_EQ(routed_triples(erases), expected_pairs);
}

TEST(BatchRouter, QuerySeqNumbersAddressInputPositions) {
  const auto batch = random_batch(11, 1024, kVertices);
  const auto queries = strip(batch);
  const auto routed = route_queries(queries, 8);
  ASSERT_EQ(routed.items.size(), queries.size());
  ASSERT_EQ(routed.seq.size(), queries.size());
  std::vector<bool> covered(queries.size(), false);
  for (std::size_t i = 0; i < routed.items.size(); ++i) {
    const std::uint32_t pos = routed.seq[i];
    ASSERT_LT(pos, queries.size());
    EXPECT_FALSE(covered[pos]) << "duplicate seq " << pos;
    covered[pos] = true;
    EXPECT_EQ(routed.items[i], queries[pos]);
  }
}

// ---- differential: tier vs the reference model -----------------------------

template <class Policy>
void run_differential(bool undirected) {
  for (std::uint32_t shards : {1u, 2u, 4u, 8u}) {
    ShardedGraph<Policy> tier = make_tier<Policy>(shards, undirected);
    ReferenceGraph model(undirected);
    std::uint64_t seed = 1000 + shards + (undirected ? 77 : 0);
    for (int round = 0; round < 4; ++round) {
      const auto batch = random_batch(seed++, 3000, kVertices);
      ASSERT_EQ(tier.insert_edges(batch), model.insert(batch));
      // Erase a slice of the round's batch plus some never-inserted pairs.
      const auto plain = strip(batch);
      std::vector<Edge> erase(plain.begin(), plain.begin() + 700);
      const auto missing = random_batch(seed++, 300, kVertices);
      for (const auto& e : missing) erase.push_back({e.src, e.dst});
      ASSERT_EQ(tier.delete_edges(erase), model.erase(erase));
      expect_tier_matches_model(tier, model);
    }
  }
}

TEST(ShardedDifferential, MapDirectedRandomBatches) {
  run_differential<MapPolicy>(false);
}
TEST(ShardedDifferential, MapUndirectedRandomBatches) {
  run_differential<MapPolicy>(true);
}
TEST(ShardedDifferential, SetDirectedRandomBatches) {
  run_differential<SetPolicy>(false);
}
TEST(ShardedDifferential, SetUndirectedRandomBatches) {
  run_differential<SetPolicy>(true);
}

TEST(ShardedDifferential, PowerLawSkewAcrossShardCounts) {
  for (std::uint32_t shards : {2u, 4u, 8u}) {
    for (bool undirected : {false, true}) {
      auto tier = make_tier<MapPolicy>(shards, undirected);
      ReferenceGraph model(undirected);
      std::uint64_t seed = 4242 + shards;
      for (int round = 0; round < 3; ++round) {
        const auto batch = power_law_batch(seed++, 4000, kVertices);
        ASSERT_EQ(tier.insert_edges(batch), model.insert(batch));
      }
      expect_tier_matches_model(tier, model);
      // The skew materialized: the router saw an uneven shard split.
      const RouterStats rs = tier.router_stats();
      const auto [lo, hi] = std::minmax_element(rs.per_shard_items.begin(),
                                                rs.per_shard_items.end());
      EXPECT_GT(*hi, *lo);
    }
  }
}

TEST(ShardedDifferential, CrossShardDuplicatesMostRecentWins) {
  // The same (u, v) pair repeated within one batch and across batches,
  // with distinct weights: the tier must resolve to the LAST write exactly
  // like the model, for pairs whose two orientations land on different
  // shards (undirected) as well as duplicates within one shard.
  for (std::uint32_t shards : {2u, 4u, 8u}) {
    for (bool undirected : {false, true}) {
      auto tier = make_tier<MapPolicy>(shards, undirected);
      ReferenceGraph model(undirected);
      std::vector<WeightedEdge> first;
      for (VertexId u = 0; u < 64; ++u) {
        for (VertexId k = 1; k <= 4; ++k) {
          first.push_back({u, static_cast<VertexId>((u + k) % kVertices),
                           static_cast<Weight>(100 + u)});
          // In-batch duplicate with a later weight: most-recent-wins.
          first.push_back({u, static_cast<VertexId>((u + k) % kVertices),
                           static_cast<Weight>(200 + u)});
        }
      }
      ASSERT_EQ(tier.insert_edges(first), model.insert(first));
      // Cross-batch overwrite of half the pairs.
      std::vector<WeightedEdge> second;
      for (std::size_t i = 0; i < first.size(); i += 4) {
        second.push_back({first[i].src, first[i].dst,
                          static_cast<Weight>(900 + (i % 50))});
      }
      ASSERT_EQ(tier.insert_edges(second), model.insert(second));
      expect_tier_matches_model(tier, model);
    }
  }
}

TEST(ShardedDifferential, EraseReinsertChurn) {
  for (bool undirected : {false, true}) {
    auto tier = make_tier<MapPolicy>(4, undirected);
    ReferenceGraph model(undirected);
    std::uint64_t seed = 99;
    const auto base = random_batch(seed++, 2500, kVertices);
    ASSERT_EQ(tier.insert_edges(base), model.insert(base));
    for (int round = 0; round < 3; ++round) {
      // Erase a rotating third, then reinsert it with fresh weights.
      std::vector<Edge> victims;
      for (std::size_t i = round; i < base.size(); i += 3) {
        victims.push_back({base[i].src, base[i].dst});
      }
      ASSERT_EQ(tier.delete_edges(victims), model.erase(victims));
      std::vector<WeightedEdge> reinsert;
      for (const Edge& e : victims) {
        reinsert.push_back(
            {e.src, e.dst, static_cast<Weight>(5000 + round)});
      }
      ASSERT_EQ(tier.insert_edges(reinsert), model.insert(reinsert));
      expect_tier_matches_model(tier, model);
    }
  }
}

TEST(ShardedDifferential, ScatterGatherAnswersInInputOrder) {
  for (std::uint32_t shards : {1u, 2u, 4u, 8u}) {
    auto tier = make_tier<MapPolicy>(shards, false);
    ReferenceGraph model;
    const auto batch = random_batch(7777, 3000, kVertices);
    tier.insert_edges(batch);
    model.insert(batch);
    // Queries mix present and absent pairs in interleaved input order.
    std::vector<Edge> queries;
    const auto absent = random_batch(8888, batch.size(), kVertices);
    for (std::size_t i = 0; i < batch.size(); ++i) {
      queries.push_back({batch[i].src, batch[i].dst});
      queries.push_back({absent[i].src, absent[i].dst});
    }
    std::vector<std::uint8_t> got(queries.size(), 0);
    tier.edges_exist(queries, got.data());
    ASSERT_EQ(got, model.exist(queries));

    std::vector<Weight> got_w(queries.size(), 0);
    std::vector<std::uint8_t> got_f(queries.size(), 0);
    tier.edge_weights(queries, got_w.data(), got_f.data());
    const core::EdgeWeightBatch want = model_weights(model, queries);
    EXPECT_EQ(got_w, want.weights);
    EXPECT_EQ(got_f, want.found);
  }
}

// ---- scheduled path --------------------------------------------------------

TEST(ShardedScheduled, SubmittedBatchesMatchOracleAndCounts) {
  for (bool undirected : {false, true}) {
    auto tier = make_tier<MapPolicy>(4, undirected);
    ReferenceGraph model(undirected);
    std::uint64_t seed = 31337;
    for (int round = 0; round < 3; ++round) {
      auto batch = random_batch(seed++, 2000, kVertices);
      // Waiting each future before the next submission pins exact counts
      // (no cross-batch coalescing inside any shard's scheduler).
      const std::uint64_t tier_count = tier.submit_insert(batch).get();
      ASSERT_EQ(tier_count, model.insert(batch));
      const auto plain = strip(batch);
      std::vector<Edge> erase(plain.begin(), plain.begin() + 500);
      ASSERT_EQ(tier.submit_erase(erase).get(), model.erase(erase));
    }
    tier.drain();
    expect_tier_matches_model(tier, model);

    const auto queries = strip(random_batch(seed++, 1500, kVertices));
    EXPECT_EQ(tier.submit_edges_exist(queries).get(), model.exist(queries));
    const auto weights = tier.submit_edge_weights(queries).get();
    const core::EdgeWeightBatch want = model_weights(model, queries);
    EXPECT_EQ(weights.weights, want.weights);
    EXPECT_EQ(weights.found, want.found);

    const TierStats ts = tier.tier_stats();
    EXPECT_EQ(ts.tier_mutations, 6u);
    EXPECT_EQ(ts.tier_queries, 2u);
    EXPECT_GE(ts.shard_totals.submitted_mutations, ts.tier_mutations);
  }
}

TEST(ShardedScheduled, UndirectedSubmitAndAnalyticsMatchModel) {
  auto scheduled = make_tier<MapPolicy>(4, true);
  ReferenceGraph model(/*undirected=*/true);

  const auto batch = random_batch(555, 3000, kVertices);
  EXPECT_EQ(scheduled.submit_insert(batch).get(), model.insert(batch));
  std::atomic<std::uint64_t> fenced_count{0};
  scheduled.submit_analytics(
      [&] { fenced_count = scheduled.num_edges(); }).get();
  scheduled.drain();
  EXPECT_EQ(fenced_count.load(), model.num_edges());
  expect_tier_matches_model(scheduled, model);
}

TEST(ShardedScheduled, CrossShardAnalyticsSeesEpochConsistentCut) {
  // Every mutation batch is exactly kBatch unique directed edges, and the
  // erase thread only retires batches whose insert future already
  // resolved — so at ANY fenced cut the tier-wide edge count is a
  // multiple of kBatch. A fence that caught a batch half-applied (some
  // shards yes, others not yet) would observe a non-multiple: this is the
  // batch-atomicity invariant of the admission order.
  constexpr std::uint32_t kBatch = 256;
  constexpr int kRounds = 12;
  auto tier = make_tier<MapPolicy>(4, false);

  std::atomic<bool> stop{false};
  std::atomic<int> violations{0};
  std::thread analytics([&] {
    while (!stop.load(std::memory_order_acquire)) {
      auto f = tier.submit_analytics([&] {
        if (tier.num_edges() % kBatch != 0) {
          violations.fetch_add(1, std::memory_order_relaxed);
        }
      });
      f.get();
    }
  });

  // Two inserter lanes over disjoint source ranges; each lane erases its
  // own committed batches on a lag.
  auto lane = [&](VertexId base, std::uint64_t /*seed*/) {
    std::vector<std::vector<Edge>> committed;
    std::uint32_t counter = 0;  // per-lane; makes every pair unique forever
    for (int r = 0; r < kRounds; ++r) {
      std::vector<WeightedEdge> batch;
      batch.reserve(kBatch);
      while (batch.size() < kBatch) {
        const VertexId src = base + static_cast<VertexId>(counter % 512);
        const VertexId dst = 100000 + counter;
        ++counter;
        batch.push_back({src, dst, static_cast<Weight>(r + 1)});
      }
      std::vector<Edge> plain = strip(batch);
      // Counts are group totals (concurrent lanes' sub-batches may
      // coalesce inside a shard's scheduler), so only completion — not
      // the value — is asserted here; the fenced %kBatch invariant below
      // is the real check.
      (void)tier.submit_insert(std::move(batch)).get();
      committed.push_back(std::move(plain));
      if (committed.size() >= 3) {
        // Retire the oldest committed batch — all kBatch edges at once.
        (void)tier.submit_erase(std::move(committed.front())).get();
        committed.erase(committed.begin());
      }
    }
  };
  std::thread lane_a([&] { lane(0, 1); });
  std::thread lane_b([&] { lane(4096, 2); });
  lane_a.join();
  lane_b.join();
  stop.store(true, std::memory_order_release);
  analytics.join();
  tier.drain();
  EXPECT_EQ(violations.load(), 0);
  EXPECT_EQ(tier.num_edges() % kBatch, 0u);
  EXPECT_GT(tier.tier_stats().fences_completed, 0u);
}

TEST(ShardedScheduled, SixMixedSubmittersEqualSerializedExecution) {
  // 6 concurrent submitters of every kind against a 4-shard tier. The
  // mutation lanes own disjoint key ranges, so the final state is
  // order-independent and must equal a serial replay into the model.
  auto tier = make_tier<MapPolicy>(4, false);
  ReferenceGraph model;
  constexpr int kRounds = 10;
  constexpr std::size_t kBatch = 400;

  auto make_lane_batch = [](VertexId base, int round) {
    std::vector<WeightedEdge> batch;
    batch.reserve(kBatch);
    for (std::size_t i = 0; i < kBatch; ++i) {
      const VertexId src = base + static_cast<VertexId>(i % 97);
      const VertexId dst =
          base + 100 + static_cast<VertexId>((i * 31 + round * 7) % 4001);
      batch.push_back({src, dst, static_cast<Weight>(round * 1000 + i)});
    }
    return batch;
  };

  std::atomic<bool> stop{false};
  auto mutation_lane = [&](VertexId base, bool erase_tail) {
    for (int r = 0; r < kRounds; ++r) {
      auto batch = make_lane_batch(base, r);
      tier.submit_insert(batch).get();
      if (erase_tail && r % 2 == 1) {
        // Erase the previous round's batch (committed above on r-1).
        const auto victims = strip(make_lane_batch(base, r - 1));
        tier.submit_erase(victims).get();
      }
    }
  };
  auto query_lane = [&](bool weighted) {
    util::Xoshiro256 rng(weighted ? 5 : 6);
    while (!stop.load(std::memory_order_acquire)) {
      std::vector<Edge> queries;
      for (int i = 0; i < 256; ++i) {
        queries.push_back(
            {static_cast<VertexId>(rng.below(1 << 15)),
             static_cast<VertexId>(rng.below(1 << 15))});
      }
      if (weighted) {
        (void)tier.submit_edge_weights(std::move(queries)).get();
      } else {
        (void)tier.submit_edges_exist(std::move(queries)).get();
      }
    }
  };
  auto analytics_lane = [&] {
    while (!stop.load(std::memory_order_acquire)) {
      std::uint64_t observed = 0;
      tier.submit_analytics([&] { observed = tier.num_edges(); }).get();
      (void)observed;
    }
  };

  std::vector<std::thread> threads;
  threads.emplace_back(mutation_lane, VertexId{0}, false);
  threads.emplace_back(mutation_lane, VertexId{100000}, true);
  threads.emplace_back(mutation_lane, VertexId{200000}, true);
  threads.emplace_back(query_lane, false);
  threads.emplace_back(query_lane, true);
  threads.emplace_back(analytics_lane);
  threads[0].join();
  threads[1].join();
  threads[2].join();
  stop.store(true, std::memory_order_release);
  for (std::size_t i = 3; i < threads.size(); ++i) threads[i].join();
  tier.drain();

  // Serial replay of the same per-lane program.
  for (VertexId base : {VertexId{0}, VertexId{100000}, VertexId{200000}}) {
    const bool erase_tail = base != 0;
    for (int r = 0; r < kRounds; ++r) {
      const auto batch = make_lane_batch(base, r);
      model.insert(batch);
      if (erase_tail && r % 2 == 1) {
        const auto victims = strip(make_lane_batch(base, r - 1));
        model.erase(victims);
      }
    }
  }
  expect_tier_matches_model(tier, model);
}

// ---- fences vs shutdown ----------------------------------------------------

TEST(ShardedShutdown, DestructorResolvesEveryPendingFuture) {
  std::vector<std::future<std::uint64_t>> mutations;
  std::vector<std::future<std::vector<std::uint8_t>>> queries;
  std::vector<std::future<void>> fences;
  std::atomic<bool> gate{false};
  {
    auto tier = std::make_unique<ShardedGraph<MapPolicy>>([] {
      ShardConfig sc;
      sc.shard_count = 4;
      sc.graph = tier_config(false);
      return sc;
    }());
    // A fence that parks the whole tier until the gate opens, then a
    // backlog of every submission kind behind it.
    fences.push_back(tier->submit_analytics([&] {
      while (!gate.load(std::memory_order_acquire)) {
        std::this_thread::yield();
      }
    }));
    for (int i = 0; i < 8; ++i) {
      mutations.push_back(
          tier->submit_insert(random_batch(i, 500, kVertices)));
      queries.push_back(
          tier->submit_edges_exist(strip(random_batch(i, 200, kVertices))));
    }
    fences.push_back(tier->submit_analytics([] {}));
    gate.store(true, std::memory_order_release);
    // Destructor: finishes what is in flight, rejects the rest — every
    // future below must resolve either way.
  }
  auto resolves = [](auto& future) {
    try {
      (void)future.get();
      return true;
    } catch (const core::SubmitRejected&) {
      return true;  // rejected at shutdown — resolved, not dropped
    } catch (const core::PartialBatchError&) {
      // A tier mutation caught mid-shutdown: some shards' sub-batches
      // committed before their scheduler stopped, the rest were rejected
      // — surfaced as the exact partial outcome.
      return true;
    }
  };
  for (auto& f : fences) EXPECT_TRUE(resolves(f));
  for (auto& f : mutations) EXPECT_TRUE(resolves(f));
  for (auto& f : queries) EXPECT_TRUE(resolves(f));
}

TEST(ShardedShutdown, AbandonedFenceAbortsInsteadOfHanging) {
  // Destroy the tier immediately after queueing fences behind a slow
  // insert: queued barrier closures are rejected by their shard's
  // scheduler, the participant token aborts the fence, and both futures
  // resolve — nothing deadlocks waiting for arrivals that cannot come.
  std::future<void> fence_a, fence_b;
  {
    auto tier = make_tier<MapPolicy>(4, false);
    (void)tier.submit_insert(random_batch(3, 20000, kVertices));
    fence_a = tier.submit_analytics([] {});
    fence_b = tier.submit_analytics([] {});
  }
  auto resolved = [](std::future<void>& f) {
    try {
      f.get();
      return true;
    } catch (const core::SubmitRejected&) {
      return true;
    }
  };
  EXPECT_TRUE(resolved(fence_a));
  EXPECT_TRUE(resolved(fence_b));
}

// ---- a shard refusing under backpressure -----------------------------------

/// First vertex id owned by shard `s` of a 2-shard tier.
VertexId owned_by(std::uint32_t s) {
  for (VertexId v = 0;; ++v) {
    if (owner_of(v, 2) == s) return v;
  }
}

/// A 2-shard tier whose shard 0 admits one pending submission and refuses
/// the next under `policy` (kBlock after `timeout_ms`). hold() parks shard
/// 0's conductor on a gated maintenance task and queues a filler insert
/// behind it, so shard 0 refuses every tier submission until release()
/// while shard 1 serves normally.
class RefusingShard0 {
 public:
  explicit RefusingShard0(
      bool undirected,
      core::BackpressurePolicy policy = core::BackpressurePolicy::kReject,
      std::uint32_t timeout_ms = 0)
      : tier_([&] {
          ShardConfig sc;
          sc.shard_count = 2;
          sc.graph = tier_config(undirected);
          sc.per_shard = [policy, timeout_ms](std::uint32_t s,
                                              GraphConfig& gc) {
            if (s != 0) return;
            gc.max_pending_submissions = 1;
            gc.backpressure = policy;
            gc.submit_timeout_ms = timeout_ms;
          };
          return sc;
        }()) {}
  ~RefusingShard0() { release(); }

  ShardedGraphMap& tier() { return tier_; }

  void hold() {
    held_ = tier_.shard(0).submit_maintenance([this]() -> std::uint64_t {
      entered_.store(true, std::memory_order_release);
      while (!gate_.load(std::memory_order_acquire)) std::this_thread::yield();
      return 0;
    });
    while (!entered_.load(std::memory_order_acquire)) std::this_thread::yield();
    const VertexId v = owned_by(0);
    filler_ = tier_.shard(0).submit_insert({{v, v + 1, 1}});
  }

  void release() {
    gate_.store(true, std::memory_order_release);
    if (held_.valid()) held_.get();
    if (filler_.valid()) filler_.get();
    tier_.drain();
  }

 private:
  ShardedGraphMap tier_;
  std::atomic<bool> entered_{false};
  std::atomic<bool> gate_{false};
  std::future<std::uint64_t> held_;
  std::future<std::uint64_t> filler_;
};

core::RejectReason reject_reason(std::exception_ptr e) {
  try {
    std::rethrow_exception(e);
  } catch (const core::SubmitRejected& r) {
    return r.reason();
  }
}

TEST(ShardedRefusal, RefusedFenceCarriesTheShardsReason) {
  struct Case {
    core::BackpressurePolicy policy;
    std::uint32_t timeout_ms;
    core::RejectReason reason;
  };
  for (const Case& c :
       {Case{core::BackpressurePolicy::kReject, 0,
             core::RejectReason::kQueueFull},
        Case{core::BackpressurePolicy::kBlock, 20,
             core::RejectReason::kTimeout}}) {
    RefusingShard0 f(false, c.policy, c.timeout_ms);
    f.hold();
    std::atomic<bool> ran{false};
    auto fence = f.tier().submit_analytics([&ran] { ran = true; });
    std::exception_ptr error;
    try {
      fence.get();
    } catch (...) {
      error = std::current_exception();
    }
    ASSERT_TRUE(error) << "a refused barrier must abort the fence";
    EXPECT_EQ(reject_reason(error), c.reason);
    f.release();
    EXPECT_FALSE(ran.load());
    const TierStats ts = f.tier().tier_stats();
    EXPECT_EQ(ts.fences_aborted, 1u);
    EXPECT_EQ(ts.fences_completed, 0u);
    // The fence aborted at shard 0: shard 1 was never handed a closure.
    EXPECT_EQ(ts.per_shard[1].submitted_maintenance, 0u);
  }
}

TEST(ShardedRefusal, OneRefusedShardIsExactTierPartialBatchError) {
  for (bool undirected : {false, true}) {
    RefusingShard0 f(undirected);
    f.hold();
    const auto batch = random_batch(4321, 64, kVertices);
    const auto routed = route_inserts(batch, 2, undirected);
    ReferenceGraph sibling;  // shard 1 stores its routed sub-batch as is
    const std::uint64_t sibling_new = sibling.insert(routed.shard_span(1));
    std::vector<Edge> refused;
    for (const WeightedEdge& e : routed.shard_span(0)) {
      refused.push_back({e.src, e.dst});
    }
    ASSERT_FALSE(refused.empty());
    ASSERT_GT(sibling_new, 0u);

    std::exception_ptr error;
    try {
      (void)f.tier().submit_insert(batch).get();
    } catch (const core::PartialBatchError& e) {
      EXPECT_EQ(e.applied(), sibling_new);
      // The refused shard's whole routed sub-batch, in routed order — on
      // an undirected tier its mirrors appear as their own (dst, src).
      EXPECT_EQ(e.unapplied(), refused);
      EXPECT_EQ(reject_reason(e.cause()), core::RejectReason::kQueueFull);
      error = std::current_exception();
    }
    ASSERT_TRUE(error) << "one shard refused while its sibling applied";
    if (undirected) {
      std::size_t mirrors = 0;
      for (const WeightedEdge& e : batch) {
        if (e.src != e.dst && owner_of(e.src, 2) == 1 &&
            owner_of(e.dst, 2) == 0) {
          ++mirrors;
          EXPECT_NE(std::find(refused.begin(), refused.end(),
                              Edge{e.dst, e.src}),
                    refused.end());
        }
      }
      EXPECT_GT(mirrors, 0u);
    }
    f.release();
    EXPECT_EQ(f.tier().shard(1).num_edges(), sibling_new);
  }
}

TEST(ShardedRefusal, AllRefusedMutationAndOneRefusedQueryFailWhole) {
  RefusingShard0 f(false);
  f.hold();
  // Every edge is owned by shard 0: nothing applies anywhere, so the
  // refusal surfaces unchanged instead of as a PartialBatchError.
  std::vector<WeightedEdge> mine;
  for (VertexId v = 0; mine.size() < 16; ++v) {
    if (owner_of(v, 2) == 0) mine.push_back({v, v + 1, 1});
  }
  std::exception_ptr error;
  try {
    (void)f.tier().submit_insert(mine).get();
  } catch (const core::SubmitRejected&) {
    error = std::current_exception();
  }
  ASSERT_TRUE(error);
  EXPECT_EQ(reject_reason(error), core::RejectReason::kQueueFull);

  // A query touching both shards fails as a whole though shard 1 answered.
  std::vector<Edge> queries;
  for (VertexId v = 0; v < 32; ++v) queries.push_back({v, v + 1});
  const auto routed = route_queries(queries, 2);
  ASSERT_GT(routed.shard_size(0), 0u);
  ASSERT_GT(routed.shard_size(1), 0u);
  error = nullptr;
  try {
    (void)f.tier().submit_edges_exist(queries).get();
  } catch (const core::SubmitRejected&) {
    error = std::current_exception();
  }
  ASSERT_TRUE(error);
  EXPECT_EQ(reject_reason(error), core::RejectReason::kQueueFull);
  f.release();
  EXPECT_EQ(f.tier().shard(0).num_edges(), 1u);  // the filler alone
}

// ---- durable tier cuts -----------------------------------------------------

TEST(ShardedSnapshot, PerShardFilesRestoreIntoIdenticalTier) {
  core::testutil::TempDir dir;
  const std::string prefix = dir.file("tier.snap");
  auto tier = make_tier<MapPolicy>(4, true);
  const auto batch = random_batch(21, 5000, kVertices);
  tier.submit_insert(batch).get();
  tier.submit_snapshot(prefix).get();
  tier.drain();

  auto restored = make_tier<MapPolicy>(4, true);
  for (std::uint32_t s = 0; s < restored.shard_count(); ++s) {
    persist::restore_into(
        restored.shard(s),
        ShardedGraphMap::shard_snapshot_path(prefix, s));
  }
  EXPECT_EQ(tier_edges(tier), tier_edges(restored));
  EXPECT_EQ(tier.num_edges(), restored.num_edges());
  EXPECT_EQ(tier.tier_stats().tier_snapshots, 1u);
}

}  // namespace
}  // namespace sg::shard
