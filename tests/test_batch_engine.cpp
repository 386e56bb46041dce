// Differential tests of the staged batch engine (src/core/batch_engine.hpp):
// the engine and the paper's scalar Algorithm 1 (tests/scalar_oracle.hpp)
// must each hold exactly the reference model's graph after the same
// inputs — random and skewed batches, inserts, erases, bulk build, and
// batched existence queries — plus unit tests of the staging/grouping pass
// and the slabhash bulk entry points it drives.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <vector>

#include "src/core/batch_engine.hpp"
#include "src/core/dyn_graph.hpp"
#include "src/core/vertex_dictionary.hpp"
#include "src/memory/slab_arena.hpp"
#include "src/simt/thread_pool.hpp"
#include "src/slabhash/slab_hash.hpp"
#include "src/util/prng.hpp"
#include "tests/graph_test_util.hpp"
#include "tests/scalar_oracle.hpp"

namespace sg::core {
namespace {

using namespace testutil;

GraphConfig engine_config(bool undirected = false,
                          std::uint32_t capacity = 256) {
  GraphConfig cfg;
  cfg.vertex_capacity = capacity;
  cfg.undirected = undirected;
  return cfg;
}

/// Runs Algorithm 1 on a temporarily 1-thread pool: the warp path resolves
/// duplicate (src, dst) weights in warp execution order, which is
/// nondeterministic across pool threads, whereas the model (and the
/// engine, at any width) is most-recent-wins. Sequential execution
/// restores the semantics the model describes.
class SerialOracleScope {
 public:
  SerialOracleScope() : restore_(simt::ThreadPool::instance().requested()) {
    simt::ThreadPool::instance().resize(1);
  }
  ~SerialOracleScope() { simt::ThreadPool::instance().resize(restore_); }

 private:
  unsigned restore_;
};

/// The paper's Algorithm 1 over its own SlabArena + VertexDictionary: one
/// scalar slab op per key, tables created lazily at one bucket on first
/// touch (§III-b), exactly as the warp path ran on the GPU.
template <class Policy>
class Alg1Graph {
 public:
  static constexpr std::uint64_t kSeed = 0x5EEDF00DULL;

  Alg1Graph(bool undirected, std::uint32_t capacity)
      : undirected_(undirected), dict_(capacity) {}

  std::uint64_t insert(std::span<const WeightedEdge> edges) {
    VertexId max_id = 0;
    for (const auto& e : edges) max_id = std::max({max_id, e.src, e.dst});
    if (max_id >= dict_.capacity()) dict_.grow(max_id + 1);
    SerialOracleScope serial;
    return oracle::insert_directed<Policy>(
        arena_, dict_, edges, undirected_, kSeed,
        [this](VertexId u) { return acquire(u); });
  }
  std::uint64_t erase(std::span<const Edge> edges) {
    SerialOracleScope serial;
    return oracle::delete_directed<Policy>(arena_, dict_, edges, undirected_,
                                           kSeed);
  }
  bool edge_exists(VertexId u, VertexId v) const {
    return u < dict_.capacity() && dict_.has_table(u) &&
           Policy::contains(arena_, dict_.table(u), v, kSeed);
  }

  /// Totals, exact degree counters, and the full edge set match `m`.
  void expect_matches_model(const ReferenceGraph& m) const {
    ASSERT_EQ(dict_.total_edges(), m.num_edges());
    EdgeSet edges;
    for (VertexId u = 0; u < dict_.capacity(); ++u) {
      ASSERT_EQ(dict_.edge_count(u), m.degree(u)) << "degree of " << u;
      if (!dict_.has_table(u)) continue;
      Policy::for_each(arena_, dict_.table(u), [&](VertexId v, Weight w) {
        edges.insert({u, v, Policy::kHasValues ? w : Weight{0}});
      });
    }
    EXPECT_EQ(edges, m.edges(Policy::kHasValues));
  }

 private:
  /// Lazy first-touch table creation. Algorithm 1 runs on a 1-thread pool
  /// here (SerialOracleScope), so no two warps race to create one table.
  slabhash::TableRef acquire(VertexId u) {
    if (!dict_.has_table(u)) {
      dict_.set_table(u,
                      {arena_.allocate_contiguous(1, slabhash::kEmptyKey), 1});
      dict_.set_edge_count(u, 0);
    }
    return dict_.table(u);
  }

  bool undirected_;
  memory::SlabArena arena_;
  VertexDictionary dict_;
};

/// Skewed batch: a handful of hub sources own most of the edges (the
/// bucket-skew case run scheduling must balance), plus duplicates.
std::vector<WeightedEdge> skewed_batch(std::uint64_t seed, std::size_t count,
                                       std::uint32_t num_vertices) {
  util::Xoshiro256 rng(seed);
  std::vector<WeightedEdge> batch(count);
  for (auto& e : batch) {
    const bool hub = rng.below(100) < 70;
    e = {hub ? static_cast<VertexId>(rng.below(4))
             : static_cast<VertexId>(rng.below(num_vertices)),
         static_cast<VertexId>(rng.below(hub ? num_vertices : 16)),
         static_cast<Weight>(rng.below(1u << 16))};
  }
  return batch;
}

template <class Policy>
void run_differential(bool undirected, std::uint64_t seed) {
  DynGraph<Policy> engine(engine_config(undirected));
  Alg1Graph<Policy> alg1(undirected, 256);
  ReferenceGraph model(undirected);

  // Interleave random and skewed insert batches with erase batches drawn
  // from the same distributions, checking both paths against the model
  // after every phase.
  for (int round = 0; round < 4; ++round) {
    const auto inserts = round % 2 == 0
                             ? random_batch(seed + round, 600, 180)
                             : skewed_batch(seed + round, 600, 180);
    const std::uint64_t added = model.insert(inserts);
    EXPECT_EQ(engine.insert_edges(inserts), added);
    EXPECT_EQ(alg1.insert(inserts), added);
    expect_matches_model(engine, model);
    alg1.expect_matches_model(model);

    std::vector<Edge> erases = pairs_of(
        round % 2 == 0 ? skewed_batch(seed + 100 + round, 250, 180)
                       : random_batch(seed + 100 + round, 250, 180));
    // Self-loops are never stored: erase staging drops them, and they
    // change neither the removed count nor the graph.
    for (const VertexId u : {0u, 3u, 179u, 3u}) erases.push_back({u, u});
    const std::uint64_t removed = model.erase(erases);
    EXPECT_EQ(engine.delete_edges(erases), removed);
    EXPECT_EQ(alg1.erase(erases), removed);
    expect_matches_model(engine, model);
    alg1.expect_matches_model(model);

    // Batched existence must agree with the model on hits, misses, unknown
    // sources, and self-loops; so must the oracle's point lookups.
    const std::vector<Edge> queries =
        pairs_of(random_batch(seed + 200 + round, 300, 220));
    std::vector<std::uint8_t> out(queries.size(), 2);
    engine.edges_exist(queries, out.data());
    const std::vector<std::uint8_t> expected = model.exist(queries);
    EXPECT_EQ(out, expected);
    for (std::size_t q = 0; q < queries.size(); ++q) {
      EXPECT_EQ(alg1.edge_exists(queries[q].src, queries[q].dst),
                expected[q] != 0);
    }
  }
}

TEST(BatchEngineDifferential, MapDirected) {
  run_differential<MapPolicy>(false, 1);
}
TEST(BatchEngineDifferential, MapUndirected) {
  run_differential<MapPolicy>(true, 2);
}
TEST(BatchEngineDifferential, SetDirected) {
  run_differential<SetPolicy>(false, 3);
}
TEST(BatchEngineDifferential, SetUndirected) {
  run_differential<SetPolicy>(true, 4);
}

TEST(BatchEngineDifferential, BulkBuildMatchesModel) {
  const auto edges = random_batch(7, 4000, 500);
  for (const bool undirected : {false, true}) {
    DynGraphMap engine(engine_config(undirected, 500));
    ReferenceGraph model(undirected);
    model.insert(edges);
    engine.bulk_build(edges);
    expect_matches_model(engine, model);
  }
}

TEST(BatchEngineDifferential, MostRecentDuplicateWinsDeterministically) {
  // Duplicates inside a batch must resolve to the LAST occurrence even
  // though the engine reorders the batch internally.
  DynGraphMap g(engine_config());
  std::vector<WeightedEdge> batch;
  for (Weight w = 1; w <= 64; ++w) batch.push_back({5, 9, w});
  batch.push_back({5, 10, 1});
  for (Weight w = 100; w <= 140; ++w) batch.push_back({5, 9, w});
  EXPECT_EQ(g.insert_edges(batch), 2u);
  EXPECT_EQ(g.edge_weight(5, 9).value, 140u);
  EXPECT_EQ(g.degree(5), 2u);
}

// ---------------------------------------------------------------------------
// Staging / grouping unit tests
// ---------------------------------------------------------------------------

/// A dictionary of `capacity` vertices in which each of `sources` owns a
/// `buckets`-bucket table.
VertexDictionary dictionary_with_tables(memory::SlabArena& arena,
                                        std::uint32_t capacity,
                                        std::initializer_list<VertexId> sources,
                                        std::uint32_t buckets) {
  VertexDictionary dict(capacity);
  for (const VertexId u : sources) {
    dict.set_table(
        u, {arena.allocate_contiguous(buckets, slabhash::kEmptyKey), buckets});
  }
  return dict;
}

TEST(BatchStaging, GroupsDedupsAndPreservesRunOrder) {
  memory::SlabArena arena;
  VertexDictionary dict = dictionary_with_tables(arena, 8, {1, 3}, 8);
  BatchStaging st;
  const std::uint64_t seed = 42;
  std::vector<WeightedEdge> edges = {
      {3, 7, 10}, {1, 7, 11}, {3, 7, 12}, {3, 3, 99},  // self-loop drops
      {1, 9, 13}, {3, 7, 14},
  };
  stage_mutations_shard<WeightedEdge>(edges, /*undirected=*/false,
                                      /*keep_weights=*/true, seed, 0, 1, dict,
                                      /*arena=*/nullptr, st);
  EXPECT_EQ(st.staged, 5u);
  EXPECT_EQ(st.dropped, 1u);
  st.group(/*dedup=*/true, /*gather_values=*/true, /*gather_seqs=*/false);
  EXPECT_EQ(st.duplicates, 2u);  // two earlier (3, 7) occurrences dropped
  EXPECT_EQ(st.keys.size(), 3u);
  ASSERT_EQ(st.run_offsets.size(), st.runs.size() + 1);
  // Runs are sorted by source; every key lands in its staged bucket, and
  // the surviving (3, 7) carries the LAST weight.
  std::map<std::pair<VertexId, std::uint32_t>, Weight> kept;
  for (std::size_t r = 0; r < st.runs.size(); ++r) {
    if (r > 0) EXPECT_LE(st.runs[r - 1].src, st.runs[r].src);
    for (std::uint64_t i = st.run_offsets[r]; i < st.run_offsets[r + 1]; ++i) {
      EXPECT_EQ(st.runs[r].bucket, slabhash::bucket_of(st.keys[i], 8, seed));
      kept[{st.runs[r].src, st.keys[i]}] = st.values[i];
    }
  }
  ASSERT_EQ(kept.size(), 3u);
  EXPECT_EQ((kept[{3, 7}]), 14u);
  EXPECT_EQ((kept[{1, 7}]), 11u);
  EXPECT_EQ((kept[{1, 9}]), 13u);
}

TEST(BatchStaging, UndirectedStagesBothDirectionsInPlace) {
  memory::SlabArena arena;
  VertexDictionary dict = dictionary_with_tables(arena, 4, {1, 2}, 1);
  BatchStaging st;
  std::vector<WeightedEdge> edges = {{1, 2, 5}, {2, 1, 6}};
  stage_mutations_shard<WeightedEdge>(edges, /*undirected=*/true,
                                      /*keep_weights=*/true, 1, 0, 1, dict,
                                      /*arena=*/nullptr, st);
  EXPECT_EQ(st.staged, 4u);
  st.group(true, true, false);
  // (1,2) and (2,1) both appear twice across the mirror; each dedups to
  // the most recent weight.
  EXPECT_EQ(st.duplicates, 2u);
  EXPECT_EQ(st.keys.size(), 2u);
}

TEST(BatchStaging, InsertStagingCreatesAndRevivesOwnedSources) {
  // With an arena, stage 1 is the insert lookup: an unknown source gets a
  // one-bucket table (§III-b), a deleted source revives and keeps its
  // table, and only the shard owning a source creates its table.
  memory::SlabArena arena;
  VertexDictionary dict = dictionary_with_tables(arena, 16, {4}, 4);
  dict.set_edge_count(4, 3);
  dict.set_deleted(4, true);
  const std::vector<WeightedEdge> edges = {{6, 9, 1}, {4, 9, 2}, {7, 2, 3}};
  BatchStaging even;
  stage_mutations_shard<WeightedEdge>(edges, /*undirected=*/false,
                                      /*keep_weights=*/true, 5, 0, 2, dict,
                                      &arena, even);
  EXPECT_EQ(even.staged, 2u);
  EXPECT_EQ(even.dropped, 0u);
  ASSERT_TRUE(dict.has_table(6));
  EXPECT_EQ(dict.table(6).num_buckets, 1u);
  EXPECT_EQ(dict.edge_count(6), 0u);
  EXPECT_FALSE(dict.deleted(4));
  EXPECT_EQ(dict.table(4).num_buckets, 4u);
  EXPECT_EQ(dict.edge_count(4), 3u);
  EXPECT_FALSE(dict.has_table(7));  // odd: shard 1's vertex, untouched
  BatchStaging odd;
  stage_mutations_shard<WeightedEdge>(edges, false, true, 5, 1, 2, dict,
                                      &arena, odd);
  EXPECT_EQ(odd.staged, 1u);
  ASSERT_TRUE(dict.has_table(7));
  EXPECT_EQ(dict.table(7).num_buckets, 1u);
  EXPECT_FALSE(dict.has_table(9));  // destinations get no table
}

TEST(BatchStaging, ReadOnlyStagingDropsUnknownSources) {
  // Without an arena (erase) and for queries, stage 1 only reads: sources
  // without a table, past the dictionary capacity, and self-loops drop and
  // are counted, and the dictionary is left as it was.
  memory::SlabArena arena;
  VertexDictionary dict = dictionary_with_tables(arena, 8, {2}, 1);
  const std::vector<Edge> edges = {
      {2, 5}, {3, 5}, {100, 5}, {6, 6}, {2, 100}, {8, 2},
  };
  BatchStaging erase;
  stage_mutations_shard<Edge>(edges, /*undirected=*/false,
                              /*keep_weights=*/false, 3, 0, 1, dict,
                              /*arena=*/nullptr, erase);
  EXPECT_EQ(erase.staged, 2u);   // (2, 5) and (2, 100)
  EXPECT_EQ(erase.dropped, 4u);  // 3: no table; 100, 8: past capacity; loop
  BatchStaging mirrored;
  stage_mutations_shard<Edge>(edges, /*undirected=*/true, false, 3, 0, 1,
                              dict, nullptr, mirrored);
  EXPECT_EQ(mirrored.staged, 3u);   // plus (2, 8), the mirror of (8, 2)
  EXPECT_EQ(mirrored.dropped, 8u);  // every direction from an unknown source
  BatchStaging queries;
  stage_queries_shard(edges, 3, 0, 1, dict, queries, /*seq_base=*/40);
  EXPECT_EQ(queries.staged, 2u);
  EXPECT_EQ(queries.dropped, 4u);  // 3, 6: no table; 100, 8: past capacity
  queries.group(/*dedup=*/false, false, /*gather_seqs=*/true);
  EXPECT_EQ(queries.seqs, (std::vector<std::uint32_t>{40, 44}));
  EXPECT_EQ(dict.capacity(), 8u);
  for (const VertexId u : {0u, 3u, 5u, 6u, 7u}) EXPECT_FALSE(dict.has_table(u));
}

// ---------------------------------------------------------------------------
// slabhash bulk entry points
// ---------------------------------------------------------------------------

TEST(SlabBulkOps, MapBulkMatchesScalarOps) {
  memory::SlabArena arena_bulk, arena_scalar;
  const std::uint64_t seed = 0x5EED;
  slabhash::SlabHashMap scalar(arena_scalar, 4, seed);
  const slabhash::TableRef table{
      arena_bulk.allocate_contiguous(4, slabhash::kEmptyKey), 4};

  // Group 200 keys by bucket (as the engine would), then bulk-insert runs.
  util::Xoshiro256 rng(9);
  std::map<std::uint32_t, std::vector<std::uint32_t>> by_bucket;
  std::vector<std::pair<std::uint32_t, std::uint32_t>> pairs;
  for (int i = 0; i < 200; ++i) {
    const auto key = static_cast<std::uint32_t>(rng.below(1u << 20));
    if (std::find_if(pairs.begin(), pairs.end(), [&](auto& p) {
          return p.first == key;
        }) != pairs.end()) {
      continue;  // engine runs are deduped
    }
    pairs.push_back({key, key * 3});
    by_bucket[slabhash::bucket_of(key, 4, seed)].push_back(key);
  }
  std::uint32_t added = 0;
  for (auto& [bucket, keys] : by_bucket) {
    std::vector<std::uint32_t> values;
    for (auto k : keys) values.push_back(k * 3);
    added += slabhash::MapOps::bulk_insert(
        arena_bulk, table, bucket, keys.data(), values.data(),
        static_cast<std::uint32_t>(keys.size()));
  }
  for (auto& [k, v] : pairs) scalar.insert(k, v);
  EXPECT_EQ(added, pairs.size());

  // Every key searchable through both bulk and scalar paths.
  for (auto& [bucket, keys] : by_bucket) {
    std::vector<std::uint8_t> found(keys.size(), 0);
    std::vector<std::uint32_t> values(keys.size(), 0);
    slabhash::MapOps::bulk_search_values(
        arena_bulk, table, bucket, keys.data(),
        static_cast<std::uint32_t>(keys.size()), found.data(), values.data());
    for (std::size_t i = 0; i < keys.size(); ++i) {
      EXPECT_EQ(found[i], 1);
      EXPECT_EQ(values[i], keys[i] * 3);
      const auto r = slabhash::MapOps::search(arena_bulk, table, keys[i], seed);
      EXPECT_TRUE(r.found);
      EXPECT_EQ(r.value, keys[i] * 3);
    }
  }

  // Bulk-erase half of each run; occupancy must match the scalar table's.
  std::uint32_t removed = 0, scalar_removed = 0;
  for (auto& [bucket, keys] : by_bucket) {
    const auto half =
        std::vector<std::uint32_t>(keys.begin(),
                                   keys.begin() + (keys.size() + 1) / 2);
    removed += slabhash::MapOps::bulk_erase(
        arena_bulk, table, bucket, half.data(),
        static_cast<std::uint32_t>(half.size()));
    for (auto k : half) scalar_removed += scalar.erase(k) ? 1 : 0;
  }
  EXPECT_EQ(removed, scalar_removed);
  const auto bulk_occ = slabhash::MapOps::occupancy(arena_bulk, table);
  const auto scalar_occ = scalar.occupancy();
  EXPECT_EQ(bulk_occ.live_keys, scalar_occ.live_keys);
  EXPECT_EQ(bulk_occ.tombstones, scalar_occ.tombstones);
}

TEST(SlabBulkOps, RunsLongerThanOneWaveSpillAcrossSlabs) {
  memory::SlabArena arena;
  const slabhash::TableRef table{
      arena.allocate_contiguous(1, slabhash::kEmptyKey), 1};
  // 100 unique keys into one bucket: > 3 waves, > 6 map slabs of chain.
  std::vector<std::uint32_t> keys, values;
  for (std::uint32_t k = 0; k < 100; ++k) {
    keys.push_back(k * 7 + 1);
    values.push_back(k);
  }
  EXPECT_EQ(slabhash::MapOps::bulk_insert(arena, table, 0, keys.data(),
                                          values.data(), 100),
            100u);
  // Re-inserting the same run adds nothing but refreshes values.
  for (auto& v : values) v += 1000;
  EXPECT_EQ(slabhash::MapOps::bulk_insert(arena, table, 0, keys.data(),
                                          values.data(), 100),
            0u);
  std::vector<std::uint8_t> found(100, 0);
  std::vector<std::uint32_t> got(100, 0);
  slabhash::MapOps::bulk_search_values(arena, table, 0, keys.data(), 100,
                                       found.data(), got.data());
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(found[i], 1);
    EXPECT_EQ(got[i], values[i]);
  }
  EXPECT_EQ(slabhash::MapOps::bulk_erase(arena, table, 0, keys.data(), 100),
            100u);
  slabhash::MapOps::bulk_contains(arena, table, 0, keys.data(), 100,
                                  found.data());
  for (int i = 0; i < 100; ++i) EXPECT_EQ(found[i], 0);
}

TEST(SlabBulkOps, SetBulkInsertEraseContains) {
  memory::SlabArena arena;
  const slabhash::TableRef table{
      arena.allocate_contiguous(2, slabhash::kEmptyKey), 2};
  std::vector<std::uint32_t> bucket0, bucket1;
  for (std::uint32_t k = 1; k <= 150; ++k) {
    (slabhash::bucket_of(k, 2, 0x5EED) == 0 ? bucket0 : bucket1).push_back(k);
  }
  const auto n0 = static_cast<std::uint32_t>(bucket0.size());
  const auto n1 = static_cast<std::uint32_t>(bucket1.size());
  EXPECT_EQ(slabhash::SetOps::bulk_insert(arena, table, 0, bucket0.data(),
                                          nullptr, n0), n0);
  EXPECT_EQ(slabhash::SetOps::bulk_insert(arena, table, 1, bucket1.data(),
                                          nullptr, n1), n1);
  EXPECT_EQ(slabhash::SetOps::bulk_insert(arena, table, 0, bucket0.data(),
                                          nullptr, n0), 0u);
  std::vector<std::uint8_t> found(n0, 0);
  slabhash::SetOps::bulk_contains(arena, table, 0, bucket0.data(), n0,
                                  found.data());
  for (std::uint32_t i = 0; i < n0; ++i) EXPECT_EQ(found[i], 1);
  EXPECT_EQ(slabhash::SetOps::bulk_erase(arena, table, 0, bucket0.data(), n0),
            n0);
  EXPECT_EQ(slabhash::SetOps::bulk_erase(arena, table, 0, bucket0.data(), n0),
            0u);
  for (std::uint32_t k : bucket1) {
    EXPECT_TRUE(slabhash::SetOps::contains(arena, table, k, 0x5EED));
  }
}

// ---------------------------------------------------------------------------
// Look-ahead bounds. The stage loops and the run walks prefetch items ahead
// of the one they process (dictionary entries, head slabs, successor
// slabs), so every end — of the batch, of a launch_runs chunk, of the
// dictionary, of an arena chunk — must stay in bounds and change no answer.
// ---------------------------------------------------------------------------

/// Checks every batched read path against the model on `queries`, and the
/// gather on their sources. Sources may lie past the dictionary's capacity.
template <class Policy>
void expect_batched_reads_match(const DynGraph<Policy>& g,
                                const ReferenceGraph& model,
                                const std::vector<Edge>& queries) {
  std::vector<std::uint8_t> found(queries.size(), 7);
  g.edges_exist(queries, found.data());
  EXPECT_EQ(found, model.exist(queries));
  if constexpr (Policy::kHasValues) {
    std::vector<Weight> weights(queries.size(), 7);
    std::vector<std::uint8_t> hit(queries.size(), 7);
    g.edge_weights(queries, weights.data(), hit.data());
    for (std::size_t i = 0; i < queries.size(); ++i) {
      EXPECT_EQ(weights[i], model.weight(queries[i].src, queries[i].dst))
          << "query " << i;
      EXPECT_EQ(hit[i], model.edge_exists(queries[i].src, queries[i].dst));
    }
  }
  std::vector<VertexId> sources;
  for (const Edge& q : queries) sources.push_back(q.src);
  const GatherResult gathered = g.gather_neighbors(sources);
  ASSERT_EQ(gathered.offsets.size(), sources.size() + 1);
  for (std::size_t i = 0; i < sources.size(); ++i) {
    const auto got = gathered.neighbors_of(i);
    std::set<VertexId> expect;
    const auto it = model.adjacency().find(sources[i]);
    if (it != model.adjacency().end()) {
      for (const auto& [v, w] : it->second) expect.insert(v);
    }
    EXPECT_EQ(std::set<VertexId>(got.begin(), got.end()), expect)
        << "vertex " << sources[i];
    EXPECT_EQ(got.size(), expect.size());
  }
}

/// Queries whose sources straddle the dictionary's end: known sources
/// (hits and misses) interleaved with ids at, just past and far past
/// `capacity`, with a block of unknown ids at both ends of the batch so the
/// first and last look-ahead windows see only them.
std::vector<Edge> queries_around_capacity(std::uint64_t seed,
                                          std::uint32_t capacity,
                                          std::uint32_t known) {
  const std::vector<VertexId> beyond = {capacity - 1, capacity,
                                        capacity + 1,  capacity + 31,
                                        2 * capacity,  1u << 30,
                                        kMaxVertexId};
  util::Xoshiro256 rng(seed);
  std::vector<Edge> queries;
  for (int i = 0; i < 24; ++i) {
    queries.push_back({beyond[i % beyond.size()], static_cast<VertexId>(i)});
  }
  for (int i = 0; i < 400; ++i) {
    const auto src = static_cast<VertexId>(rng.below(known));
    const auto dst = static_cast<VertexId>(rng.below(known));
    queries.push_back({src, dst});
    if (i % 5 == 0) queries.push_back({beyond[rng.below(beyond.size())], dst});
  }
  for (int i = 0; i < 24; ++i) {
    queries.push_back({beyond[i % beyond.size()], static_cast<VertexId>(i)});
  }
  return queries;
}

template <class Policy>
void run_beyond_capacity(bool undirected) {
  constexpr std::uint32_t kKnown = 64;
  DynGraph<Policy> g(engine_config(undirected, kKnown));
  ReferenceGraph model(undirected);
  auto batch = random_batch(21, 900, kKnown);
  if constexpr (!Policy::kHasValues) {
    for (auto& e : batch) e.weight = 0;  // the set stores no weights
  }
  ASSERT_EQ(g.insert_edges(batch), model.insert(batch));
  const std::uint32_t capacity = g.vertex_capacity();
  ASSERT_GE(capacity, kKnown);
  const auto queries = queries_around_capacity(5, capacity, kKnown);
  expect_batched_reads_match(g, model, queries);
  // Erase through the same straddling batch: unknown sources drop, the
  // dictionary never grows for them.
  EXPECT_EQ(g.delete_edges(queries), model.erase(queries));
  EXPECT_EQ(g.vertex_capacity(), capacity);
  expect_batched_reads_match(g, model, queries);
}

TEST(LookAheadBounds, MapSourcesAtAndBeyondDictionaryCapacity) {
  run_beyond_capacity<MapPolicy>(false);
}
TEST(LookAheadBounds, MapUndirectedSourcesBeyondDictionaryCapacity) {
  run_beyond_capacity<MapPolicy>(true);
}
TEST(LookAheadBounds, SetSourcesAtAndBeyondDictionaryCapacity) {
  run_beyond_capacity<SetPolicy>(false);
}

TEST(LookAheadBounds, EmptyOneItemAndOneRunBatches) {
  DynGraphMap g(engine_config());
  ReferenceGraph model;
  // Empty batches: nothing to look ahead to.
  EXPECT_EQ(g.insert_edges(std::vector<WeightedEdge>{}), 0u);
  EXPECT_EQ(g.delete_edges(std::vector<Edge>{}), 0u);
  g.edges_exist(std::vector<Edge>{}, nullptr);
  const GatherResult none = g.gather_neighbors(std::vector<VertexId>{});
  EXPECT_EQ(none.offsets, std::vector<std::uint64_t>{0});
  EXPECT_TRUE(none.neighbors.empty());

  // One item: every look-ahead window is past the end.
  const std::vector<WeightedEdge> one = {{3, 5, 7}};
  ASSERT_EQ(g.insert_edges(one), model.insert(one));
  expect_batched_reads_match(g, model, {{3, 5}});
  expect_batched_reads_match(g, model, {{3, 6}});

  // One run: a fresh vertex's single bucket receives the whole batch.
  std::vector<WeightedEdge> run;
  for (VertexId v = 0; v < 100; ++v) run.push_back({9, 1000 + 3 * v, v + 1});
  ASSERT_EQ(g.insert_edges(run), model.insert(run));
  std::vector<Edge> run_queries;
  for (VertexId v = 0; v < 150; ++v) run_queries.push_back({9, 1000 + 2 * v});
  expect_batched_reads_match(g, model, run_queries);
  const std::vector<Edge> single = {{3, 5}};
  EXPECT_EQ(g.delete_edges(single), model.erase(single));
  EXPECT_EQ(g.delete_edges(run_queries), model.erase(run_queries));
  expect_batched_reads_match(g, model, run_queries);
  expect_batched_reads_match(g, model, {{3, 5}});
}

TEST(LookAheadBounds, RunListCrossingLaunchChunkEnds) {
  // Thousands of runs of uneven length: launch_runs cuts the run list into
  // several chunks at any pool width (four per worker, by item count), so
  // each chunk's pipeline look-ahead reaches its chunk end many times.
  constexpr std::uint32_t kVertices = 3000;
  DynGraphMap g(engine_config(false, kVertices));
  ReferenceGraph model;
  util::Xoshiro256 rng(77);
  std::vector<WeightedEdge> batch;
  for (int i = 0; i < 12000; ++i) {
    // Every 16th vertex is a hub: long runs among singletons.
    const auto src = static_cast<VertexId>(rng.below(kVertices));
    const VertexId hub_src = src & ~15u;
    batch.push_back({i % 3 == 0 ? hub_src : src,
                     static_cast<VertexId>(rng.below(1u << 16)),
                     static_cast<Weight>(i + 1)});
  }
  ASSERT_EQ(g.insert_edges(batch), model.insert(batch));
  std::vector<Edge> queries;
  for (int i = 0; i < 6000; ++i) {
    const WeightedEdge& e = batch[rng.below(batch.size())];
    queries.push_back({e.src, i % 2 == 0 ? e.dst : e.dst + 1});
  }
  expect_batched_reads_match(g, model, queries);
  EXPECT_EQ(g.delete_edges(queries), model.erase(queries));
  expect_batched_reads_match(g, model, queries);
}

TEST(SlabBulkOps, ChainTailAtArenaChunkEnd) {
  constexpr std::uint32_t kLast = memory::SlabArena::kChunkSlabs - 1;
  memory::SlabArena arena;
  // The head slab takes the last slot of its bulk chunk.
  arena.allocate_contiguous(kLast, slabhash::kEmptyKey);
  const slabhash::TableRef table{
      arena.allocate_contiguous(1, slabhash::kEmptyKey), 1};
  ASSERT_EQ(table.base & kLast, kLast);
  // Find a dynamic slab on the last slot of its chunk (keeping the ones
  // before it) and hand it back: the thread's free-slab cache returns it
  // to the chain extension below.
  memory::SlabHandle tail = memory::kNullSlab;
  for (std::uint32_t i = 0; i <= 2 * memory::SlabArena::kChunkSlabs; ++i) {
    const memory::SlabHandle h = arena.allocate(slabhash::kEmptyKey);
    if ((h & kLast) == kLast) {
      tail = h;
      break;
    }
  }
  ASSERT_NE(tail, memory::kNullSlab);
  arena.free(tail);

  // One slab and a few keys more: the chain is head -> tail, both at the
  // end of their arena chunks.
  const std::uint32_t n = slabhash::MapLayout::kSlotsPerSlab + 5;
  std::vector<std::uint32_t> keys, values;
  std::map<std::uint32_t, std::uint32_t> model;
  for (std::uint32_t k = 0; k < n; ++k) {
    keys.push_back(k * 11 + 3);
    values.push_back(k + 100);
    model[k * 11 + 3] = k + 100;
  }
  ASSERT_EQ(slabhash::MapOps::bulk_insert(arena, table, 0, keys.data(),
                                          values.data(), n),
            n);
  const memory::Slab& head = arena.resolve(table.base);
  ASSERT_EQ(head.words[slabhash::kNextPtrWord], tail);
  EXPECT_EQ(arena.resolve(tail).words[slabhash::kNextPtrWord],
            memory::kNullSlab);

  // Searches (hits and misses walk to the tail), erase, gather: all
  // against the model.
  std::vector<std::uint32_t> probe = keys;
  for (std::uint32_t k = 0; k < n; ++k) probe.push_back(k * 11 + 4);
  const auto count = static_cast<std::uint32_t>(probe.size());
  std::vector<std::uint8_t> found(count, 7);
  std::vector<std::uint32_t> got(count, 0);
  slabhash::MapOps::bulk_search_values(arena, table, 0, probe.data(), count,
                                       found.data(), got.data());
  for (std::uint32_t i = 0; i < count; ++i) {
    const auto it = model.find(probe[i]);
    EXPECT_EQ(found[i], it != model.end() ? 1 : 0) << "key " << probe[i];
    if (it != model.end()) EXPECT_EQ(got[i], it->second);
  }
  const std::vector<std::uint32_t> doomed(keys.begin(), keys.begin() + 9);
  EXPECT_EQ(slabhash::MapOps::bulk_erase(arena, table, 0, doomed.data(), 9),
            9u);
  for (std::uint32_t k : doomed) model.erase(k);
  std::vector<std::uint32_t> out(n, 0);
  const std::uint32_t gathered =
      slabhash::MapOps::gather(arena, table, out.data(), n);
  ASSERT_EQ(gathered, model.size());
  std::set<std::uint32_t> expect;
  for (const auto& [k, v] : model) expect.insert(k);
  EXPECT_EQ(std::set<std::uint32_t>(out.begin(), out.begin() + gathered),
            expect);
}

}  // namespace
}  // namespace sg::core
