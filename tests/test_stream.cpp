// Temporal streaming: Dataset batch preparation, sliding-window aging
// (DynGraph::delete_edges_older_than), arena compaction through the graph,
// and the stream::Harness epoch loop — including the differential checks
// against a never-aged graph filtered by timestamp and against the
// reference model epoch by epoch, and the scheduled maintenance pipeline
// the TSan job races.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <random>
#include <utility>
#include <vector>

#include "src/core/dyn_graph.hpp"
#include "src/stream/harness.hpp"
#include "src/stream/temporal.hpp"
#include "tests/graph_test_util.hpp"

namespace sg::stream {
namespace {

core::GraphConfig map_config(std::uint32_t capacity, bool undirected = false) {
  core::GraphConfig cfg;
  cfg.vertex_capacity = capacity;
  cfg.undirected = undirected;
  return cfg;
}

/// A deterministic self-loop-free stream: vertices in [0, n), ts = arrival
/// index, duplicates occur naturally once edges > n^2 / k.
std::vector<TemporalEdge> random_stream(std::size_t edges, core::VertexId n,
                                        std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<core::VertexId> pick(0, n - 1);
  std::vector<TemporalEdge> out;
  out.reserve(edges);
  while (out.size() < edges) {
    const core::VertexId src = pick(rng);
    const core::VertexId dst = pick(rng);
    if (src == dst) continue;
    out.push_back({src, dst, static_cast<core::Weight>(out.size())});
  }
  return out;
}

/// Newest timestamp per directed pair — the reference a correctly aged
/// graph must match after filtering by the final window threshold.
std::map<std::pair<core::VertexId, core::VertexId>, core::Weight>
newest_per_pair(const std::vector<TemporalEdge>& stream) {
  std::map<std::pair<core::VertexId, core::VertexId>, core::Weight> newest;
  for (const TemporalEdge& e : stream) {
    auto [it, inserted] = newest.try_emplace({e.src, e.dst}, e.ts);
    if (!inserted && e.ts > it->second) it->second = e.ts;
  }
  return newest;
}

// ---------------------------------------------------------------------------
// Dataset: batch preparation modes
// ---------------------------------------------------------------------------

TEST(StreamDataset, RejectsEmptyStreamAndZeroBatch) {
  EXPECT_THROW(Dataset({}, 8), std::invalid_argument);
  EXPECT_THROW(Dataset({{0, 1, 0}}, 0), std::invalid_argument);
}

TEST(StreamDataset, FromCooAssignsArrivalTimestamps) {
  datasets::Coo coo;
  coo.name = "tiny";
  coo.num_vertices = 8;
  coo.edges = {{1, 2}, {3, 4}, {5, 6}};
  const Dataset ds = Dataset::from_coo(coo, 2);
  EXPECT_EQ(ds.num_edges(), 3u);
  EXPECT_EQ(ds.num_batches(), 2u);
  EXPECT_EQ(ds.max_vertex_id(), 6u);
  for (std::size_t i = 0; i < ds.edges().size(); ++i) {
    EXPECT_EQ(ds.edges()[i].ts, static_cast<core::Weight>(i));
  }
}

TEST(StreamDataset, UnsortedBatchIsTheArrivalSlice) {
  const std::vector<TemporalEdge> stream = {
      {5, 6, 0}, {1, 2, 1}, {3, 4, 2}, {1, 2, 3}};
  const Dataset ds(stream, 2);
  const auto b1 = ds.batch(1, SortMode::kUnsorted);
  ASSERT_EQ(b1.size(), 2u);
  EXPECT_EQ(b1[0].src, 3u);
  EXPECT_EQ(b1[1].src, 1u);
  EXPECT_EQ(b1[1].weight, 3u);  // weight carries the timestamp
}

TEST(StreamDataset, PresortDedupsKeepingNewestTimestamp) {
  const std::vector<TemporalEdge> stream = {
      {1, 2, 0}, {3, 4, 1}, {1, 2, 2}, {0, 9, 3}};
  const Dataset ds(stream, 4);
  const auto batch = ds.batch(0, SortMode::kPresort);
  ASSERT_EQ(batch.size(), 3u);  // (1,2) deduplicated
  EXPECT_TRUE(std::is_sorted(batch.begin(), batch.end(),
                             [](const core::WeightedEdge& a,
                                const core::WeightedEdge& b) {
                               return a.src != b.src ? a.src < b.src
                                                     : a.dst < b.dst;
                             }));
  for (const auto& e : batch) {
    if (e.src == 1 && e.dst == 2) EXPECT_EQ(e.weight, 2u);  // newest kept
  }
}

TEST(StreamDataset, SnapshotIsTheCumulativeDedupedPrefix) {
  const std::vector<TemporalEdge> stream = {
      {1, 2, 0}, {3, 4, 1}, {1, 2, 2}, {5, 6, 3}};
  const Dataset ds(stream, 2);
  const auto snap0 = ds.batch(0, SortMode::kSnapshot);
  EXPECT_EQ(snap0.size(), 2u);  // just batch 0
  const auto snap1 = ds.batch(1, SortMode::kSnapshot);
  ASSERT_EQ(snap1.size(), 3u);  // (1,2) appears once, newest ts
  for (const auto& e : snap1) {
    if (e.src == 1 && e.dst == 2) EXPECT_EQ(e.weight, 2u);
  }
}

TEST(StreamDataset, TimestampForWindowMatchesDynoGraphRule) {
  std::vector<TemporalEdge> stream;
  for (core::Weight i = 0; i < 100; ++i) stream.push_back({i, i + 1, i});
  const Dataset ds(stream, 10);
  // Stream shorter than the window: nothing ages (oldest ts back).
  EXPECT_EQ(ds.timestamp_for_window(3, 0.5), 0u);
  // At the end: the newest half [50, 99] stays live.
  EXPECT_EQ(ds.timestamp_for_window(9, 0.5), 50u);
  // Mid-stream: after batch 7 (end = 80), window of 50 → threshold ts 30.
  EXPECT_EQ(ds.timestamp_for_window(7, 0.5), 30u);
  EXPECT_THROW(ds.timestamp_for_window(0, 0.0), std::invalid_argument);
  EXPECT_THROW(ds.timestamp_for_window(0, 1.5), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// delete_edges_older_than: threshold edge cases
// ---------------------------------------------------------------------------

TEST(AgeOut, ThresholdEqualsOldestDeletesNothing) {
  core::DynGraphMap g(map_config(16));
  std::vector<core::WeightedEdge> batch = {{1, 2, 5}, {3, 4, 7}, {5, 6, 9}};
  g.insert_edges(batch);
  // Strict `ts < threshold`: the edge AT the threshold survives.
  EXPECT_EQ(g.delete_edges_older_than(5), 0u);
  EXPECT_EQ(g.num_edges(), 3u);
}

TEST(AgeOut, ThresholdEqualsNewestKeepsOnlyNewest) {
  core::DynGraphMap g(map_config(16));
  std::vector<core::WeightedEdge> batch = {{1, 2, 5}, {3, 4, 7}, {5, 6, 9}};
  g.insert_edges(batch);
  EXPECT_EQ(g.delete_edges_older_than(9), 2u);
  EXPECT_FALSE(g.edge_exists(1, 2));
  EXPECT_FALSE(g.edge_exists(3, 4));
  EXPECT_TRUE(g.edge_exists(5, 6));
  EXPECT_EQ(g.num_edges(), 1u);
}

TEST(AgeOut, ThresholdPastNewestEmptiesTheGraph) {
  core::DynGraphMap g(map_config(16));
  std::vector<core::WeightedEdge> batch = {{1, 2, 5}, {3, 4, 7}};
  g.insert_edges(batch);
  EXPECT_EQ(g.delete_edges_older_than(100), 2u);
  EXPECT_EQ(g.num_edges(), 0u);
  EXPECT_EQ(g.degree(1), 0u);
}

TEST(AgeOut, DuplicateTimestampsAgeTogether) {
  core::DynGraphMap g(map_config(16));
  // Two epochs land edges with the SAME timestamp (coarse clocks do this).
  std::vector<core::WeightedEdge> epoch1 = {{1, 2, 4}, {3, 4, 4}};
  std::vector<core::WeightedEdge> epoch2 = {{5, 6, 4}, {7, 8, 9}};
  g.insert_edges(epoch1);
  g.insert_edges(epoch2);
  // Threshold at the duplicate ts: all three survive (strict <) ...
  EXPECT_EQ(g.delete_edges_older_than(4), 0u);
  // ... one past it: all three retire in one sweep, across both epochs.
  EXPECT_EQ(g.delete_edges_older_than(5), 3u);
  EXPECT_TRUE(g.edge_exists(7, 8));
  EXPECT_EQ(g.num_edges(), 1u);
}

TEST(AgeOut, ReinsertionRefreshesTimestampAndSurvives) {
  core::DynGraphMap g(map_config(16));
  std::vector<core::WeightedEdge> old = {{1, 2, 1}, {3, 4, 2}};
  g.insert_edges(old);
  // Same epoch re-inserts (1,2) with a fresh timestamp: most-recent-wins
  // replacement means the aging pass sees ts 10, not ts 1.
  std::vector<core::WeightedEdge> fresh = {{1, 2, 10}};
  g.insert_edges(fresh);
  EXPECT_EQ(g.delete_edges_older_than(5), 1u);  // only (3,4) retires
  EXPECT_TRUE(g.edge_exists(1, 2));
  EXPECT_EQ(g.edge_weight(1, 2).value, 10u);
}

TEST(AgeOut, AgedEdgeCanBeReinsertedSameEpoch) {
  core::DynGraphMap g(map_config(16));
  std::vector<core::WeightedEdge> old = {{1, 2, 1}};
  g.insert_edges(old);
  EXPECT_EQ(g.delete_edges_older_than(5), 1u);
  EXPECT_FALSE(g.edge_exists(1, 2));
  // Re-insert after aging, inside the same logical epoch: counts as new.
  std::vector<core::WeightedEdge> again = {{1, 2, 6}};
  EXPECT_EQ(g.insert_edges(again), 1u);
  EXPECT_TRUE(g.edge_exists(1, 2));
  EXPECT_EQ(g.edge_weight(1, 2).value, 6u);
  // And it now survives the same threshold.
  EXPECT_EQ(g.delete_edges_older_than(5), 0u);
}

TEST(AgeOut, UndirectedAgingRetiresBothDirections) {
  core::DynGraphMap g(map_config(16, /*undirected=*/true));
  std::vector<core::WeightedEdge> batch = {{1, 2, 1}, {3, 4, 9}};
  g.insert_edges(batch);
  // Directed-edge counting, matching insert/delete: the mirror counts too.
  EXPECT_EQ(g.delete_edges_older_than(5), 2u);
  EXPECT_FALSE(g.edge_exists(1, 2));
  EXPECT_FALSE(g.edge_exists(2, 1));
  EXPECT_TRUE(g.edge_exists(3, 4));
  EXPECT_TRUE(g.edge_exists(4, 3));
}

TEST(AgeOut, ZeroThresholdReturnsZeroWithoutScanning) {
  core::DynGraphMap g(map_config(16));
  std::vector<core::WeightedEdge> batch = {{1, 2, 0}, {3, 4, 0}};
  g.insert_edges(batch);
  const core::GraphMemoryStats before = g.memory_stats();
  EXPECT_EQ(g.delete_edges_older_than(0), 0u);
  EXPECT_EQ(g.num_edges(), 2u);
  EXPECT_EQ(g.memory_stats().tombstones, before.tombstones);
  EXPECT_EQ(g.memory_stats().base_slabs, before.base_slabs);
}

// ---------------------------------------------------------------------------
// delete_edges_older_than against the reference model filtered by weight
// ---------------------------------------------------------------------------

TEST(AgeOutModel, HubWithTombstonedMultiSlabChains) {
  core::GraphConfig cfg = map_config(64);
  cfg.auto_rehash_chain_slabs = 0;  // keep the overflow chains in place
  core::DynGraphMap g(cfg);
  core::testutil::ReferenceGraph model;
  // The hub's first batch sizes its table for one edge; later batches pile
  // thousands of neighbours into overflow chains.
  util::Xoshiro256 rng(21);
  for (int b = 0; b < 8; ++b) {
    std::vector<core::WeightedEdge> batch;
    for (int i = 0; i < (b == 0 ? 1 : 500); ++i) {
      batch.push_back({0, static_cast<core::VertexId>(1 + rng.below(4000)),
                       static_cast<core::Weight>(rng.below(1000))});
    }
    for (int i = 0; i < 100; ++i) {
      batch.push_back({static_cast<core::VertexId>(1 + rng.below(63)),
                       static_cast<core::VertexId>(rng.below(64)),
                       static_cast<core::Weight>(rng.below(1000))});
    }
    EXPECT_EQ(g.insert_edges(batch), model.insert(batch));
  }
  ASSERT_GT(g.memory_stats().overflow_slabs, 0u);
  // Tombstone a third of the hub's neighbours before aging.
  std::vector<core::Edge> erase;
  for (const auto& [v, w] : model.adjacency().at(0)) {
    if (v % 3 == 0) erase.push_back({0, v});
  }
  EXPECT_EQ(g.delete_edges(erase), model.erase(erase));
  ASSERT_GT(g.memory_stats().tombstones, 0u);
  for (const core::Weight threshold : {100u, 400u, 400u, 900u}) {
    EXPECT_EQ(g.delete_edges_older_than(threshold),
              model.age_out(threshold));
    core::testutil::expect_matches_model(g, model);
  }
}

TEST(AgeOutModel, AfterDeleteVertices) {
  core::DynGraphMap g(map_config(128));
  core::testutil::ReferenceGraph model;
  const auto batch = core::testutil::random_batch(5, 3000, 128);
  EXPECT_EQ(g.insert_edges(batch), model.insert(batch));
  const std::vector<core::VertexId> gone = {3, 17, 64};
  g.delete_vertices(gone);
  model.delete_vertices(gone);
  EXPECT_EQ(g.delete_edges_older_than(1u << 15),
            model.age_out(1u << 15));
  core::testutil::expect_matches_model(g, model);
}

TEST(AgeOutModel, UndirectedMirrorsAgeTogether) {
  core::DynGraphMap g(map_config(128, /*undirected=*/true));
  core::testutil::ReferenceGraph model(/*undirected=*/true);
  const auto batch = core::testutil::random_batch(9, 3000, 128);
  EXPECT_EQ(g.insert_edges(batch), model.insert(batch));
  for (const core::Weight threshold : {1u << 13, 1u << 15}) {
    EXPECT_EQ(g.delete_edges_older_than(threshold),
              model.age_out(threshold));
    core::testutil::expect_matches_model(g, model);
  }
}

TEST(AgeOutModel, ThresholdAtStoredTimestampSurvives) {
  core::DynGraphMap g(map_config(128));
  core::testutil::ReferenceGraph model;
  const auto batch = core::testutil::random_batch(13, 3000, 128);
  EXPECT_EQ(g.insert_edges(batch), model.insert(batch));
  // Use the stored timestamp of a live edge as the threshold.
  const auto& [u, nbrs] = *model.adjacency().begin();
  const auto [v, threshold] = *nbrs.begin();
  EXPECT_EQ(g.delete_edges_older_than(threshold), model.age_out(threshold));
  EXPECT_TRUE(g.edge_exists(u, v));
  EXPECT_EQ(g.edge_weight(u, v).value, threshold);
  core::testutil::expect_matches_model(g, model);
}

// ---------------------------------------------------------------------------
// Differential: harness-aged graph == never-aged graph filtered by ts
// ---------------------------------------------------------------------------

TEST(StreamDifferential, AgedGraphMatchesTimestampFilteredReference) {
  const std::size_t kEdges = 20000;
  const core::VertexId kVerts = 256;  // dense: plenty of re-inserted pairs
  const std::vector<TemporalEdge> stream = random_stream(kEdges, kVerts, 7);
  Dataset ds(stream, 1000);

  HarnessConfig cfg;
  cfg.sort_mode = SortMode::kPresort;
  cfg.window_frac = 0.25;
  cfg.compact_every = 3;
  cfg.graph = map_config(kVerts);
  Harness harness(ds, cfg);
  const auto epochs = harness.run();
  ASSERT_EQ(epochs.size(), ds.num_batches());

  const core::Weight threshold =
      ds.timestamp_for_window(ds.num_batches() - 1, cfg.window_frac);
  const auto reference = newest_per_pair(stream);
  std::uint64_t expected_live = 0;
  for (const auto& [pair, ts] : reference) {
    const bool live = harness.graph().edge_exists(pair.first, pair.second);
    // Window semantics: a pair is live iff its NEWEST observation is at or
    // after the final threshold (earlier thresholds are smaller, so they
    // cannot have retired a surviving edge).
    EXPECT_EQ(live, ts >= threshold)
        << "edge (" << pair.first << ", " << pair.second << ") ts " << ts
        << " threshold " << threshold;
    if (ts >= threshold) {
      ++expected_live;
      EXPECT_EQ(harness.graph().edge_weight(pair.first, pair.second).value, ts);
    }
  }
  EXPECT_EQ(harness.graph().num_edges(), expected_live);
  // Conservation: inserted-unique minus aged-out equals the survivors.
  std::uint64_t inserted = 0, aged = 0;
  for (const auto& e : epochs) {
    inserted += e.inserted;
    aged += e.aged_out;
  }
  EXPECT_EQ(inserted - aged, expected_live);
}

TEST(StreamDifferential, UnsortedAndPresortConverge) {
  const std::vector<TemporalEdge> stream = random_stream(8000, 128, 11);
  Dataset ds(stream, 500);
  std::vector<std::uint64_t> live;
  for (const SortMode mode : {SortMode::kUnsorted, SortMode::kPresort}) {
    HarnessConfig cfg;
    cfg.sort_mode = mode;
    cfg.window_frac = 0.5;
    cfg.graph = map_config(128);
    Harness h(ds, cfg);
    h.run();
    live.push_back(h.graph().num_edges());
  }
  EXPECT_EQ(live[0], live[1]);
}

TEST(StreamHarness, AppendOnlyIngestKeepsEverything) {
  const std::vector<TemporalEdge> stream = random_stream(5000, 200, 3);
  Dataset ds(stream, 512);
  HarnessConfig cfg;
  cfg.window_frac = 0.0;  // aging disabled
  cfg.graph = map_config(200);
  Harness h(ds, cfg);
  const auto epochs = h.run();
  EXPECT_EQ(h.graph().num_edges(), newest_per_pair(stream).size());
  for (const auto& e : epochs) {
    EXPECT_EQ(e.aged_out, 0u);
    EXPECT_EQ(e.age_threshold, 0u);
  }
}

TEST(StreamHarness, SnapshotRebuildMatchesAppendOnlyIncremental) {
  const std::vector<TemporalEdge> stream = random_stream(6000, 150, 5);
  Dataset ds(stream, 600);
  HarnessConfig snap_cfg;
  snap_cfg.sort_mode = SortMode::kSnapshot;
  snap_cfg.graph = map_config(150);
  Harness snap(ds, snap_cfg);
  snap.run();

  HarnessConfig inc_cfg;
  inc_cfg.sort_mode = SortMode::kPresort;
  inc_cfg.window_frac = 0.0;
  inc_cfg.graph = map_config(150);
  Harness inc(ds, inc_cfg);
  inc.run();

  EXPECT_EQ(snap.graph().num_edges(), inc.graph().num_edges());
  for (const auto& [pair, ts] : newest_per_pair(stream)) {
    ASSERT_TRUE(snap.graph().edge_exists(pair.first, pair.second));
    EXPECT_EQ(snap.graph().edge_weight(pair.first, pair.second).value, ts);
    EXPECT_EQ(inc.graph().edge_weight(pair.first, pair.second).value, ts);
  }
}

TEST(StreamHarness, AnalyticsHookRunsFencedEveryEpoch) {
  const std::vector<TemporalEdge> stream = random_stream(4000, 100, 13);
  Dataset ds(stream, 800);
  HarnessConfig cfg;
  cfg.window_frac = 0.5;
  cfg.graph = map_config(100);
  Harness h(ds, cfg);
  std::vector<std::uint64_t> observed;
  const auto epochs = h.run(
      [&observed](const core::DynGraphMap& g) { observed.push_back(g.num_edges()); });
  ASSERT_EQ(observed.size(), epochs.size());
  for (std::size_t i = 0; i < epochs.size(); ++i) {
    // The fenced hook sees exactly the post-ingest, post-aging state the
    // epoch stats report.
    EXPECT_EQ(observed[i], epochs[i].live_edges);
  }
}

// ---------------------------------------------------------------------------
// Compaction through the graph: chains survive migration, memory shrinks
// ---------------------------------------------------------------------------

TEST(StreamCompaction, CompactReleasesChunksAndPreservesEdges) {
  // Long chains (few sources, many destinations) spill thousands of
  // overflow slabs across several dynamic chunks; aging the bulk of the
  // stream then strands those chunks nearly empty.
  constexpr core::VertexId kSources = 48;
  constexpr core::VertexId kDests = 4096;
  core::GraphConfig gcfg = map_config(kDests);
  gcfg.compact_keep_free_chunks = 0;  // no reserve: every emptied chunk goes
  core::DynGraphMap g(gcfg);
  std::vector<core::WeightedEdge> batch;
  core::Weight ts = 0;
  for (core::VertexId s = 0; s < kSources; ++s) {
    for (core::VertexId d = 0; d < kDests; ++d) {
      if (s == d) continue;
      batch.push_back({s, d, ts++});
    }
  }
  g.insert_edges(batch);
  const core::Weight threshold = ts - ts / 20;  // keep the newest 5%
  const std::uint64_t aged = g.delete_edges_older_than(threshold);
  EXPECT_GT(aged, 0u);
  const std::uint64_t live = g.num_edges();

  const auto before = g.arena_stats();
  const auto stats = g.compact();
  EXPECT_GT(stats.victim_chunks, 0u);
  EXPECT_GT(stats.released_chunks, 0u);
  EXPECT_LT(stats.chunks_after, stats.chunks_before);
  EXPECT_EQ(g.last_compact_stats().released_chunks, stats.released_chunks);
  EXPECT_LT(g.arena_stats().reserved_slabs, before.reserved_slabs);

  // Migration must not lose or corrupt a single surviving edge.
  EXPECT_EQ(g.num_edges(), live);
  for (const core::WeightedEdge& e : batch) {
    const bool expect_live = e.weight >= threshold;
    ASSERT_EQ(g.edge_exists(e.src, e.dst), expect_live);
    if (expect_live) ASSERT_EQ(g.edge_weight(e.src, e.dst).value, e.weight);
  }
  // And the compacted graph keeps working: inserts + queries as usual.
  std::vector<core::WeightedEdge> more = {{1, 2, ts}, {2, 3, ts}};
  EXPECT_EQ(g.insert_edges(more), 2u);
  EXPECT_TRUE(g.edge_exists(1, 2));
}

TEST(StreamCompaction, CompactOnDenseGraphIsANoop) {
  core::DynGraphMap g(map_config(64));
  std::vector<core::WeightedEdge> batch;
  for (core::VertexId s = 0; s < 32; ++s) batch.push_back({s, s + 1, s});
  g.insert_edges(batch);
  const std::uint64_t edges_before = g.num_edges();
  const auto stats = g.compact();
  EXPECT_EQ(stats.migrated_slabs, 0u);
  EXPECT_EQ(g.num_edges(), edges_before);
}

TEST(StreamCompaction, CompactOccupancyOutOfRangeThrows) {
  core::GraphConfig cfg = map_config(16);
  cfg.compact_occupancy = 1.5;
  EXPECT_THROW(core::DynGraphMap g(cfg), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Scheduled maintenance under load (the TSan-raced pipeline)
// ---------------------------------------------------------------------------

TEST(StreamScheduled, CompactionDuringPendingSubmissions) {
  // Pipeline inserts, age-outs, compactions, and analytics WITHOUT waiting
  // between submissions: maintenance phases must fence correctly against
  // the queued mutations on either side. TSan runs this test in CI.
  const core::VertexId kVerts = 512;
  core::DynGraphMap g(map_config(kVerts));
  std::mt19937_64 rng(99);
  std::uniform_int_distribution<core::VertexId> pick(0, kVerts - 1);

  std::vector<std::future<std::uint64_t>> counts;
  std::vector<std::future<void>> fences;
  core::Weight ts = 0;
  std::uint64_t probes_sum = 0;
  for (int round = 0; round < 12; ++round) {
    std::vector<core::WeightedEdge> batch;
    for (int i = 0; i < 2000; ++i) {
      const core::VertexId s = pick(rng);
      const core::VertexId d = pick(rng);
      if (s == d) continue;
      batch.push_back({s, d, ts++});
    }
    counts.push_back(g.submit_insert(std::move(batch)));
    if (round % 2 == 1) {
      counts.push_back(g.submit_age_out(ts - 4000 < ts ? ts - 4000 : 0));
      counts.push_back(g.submit_compact());
    }
    fences.push_back(g.submit_analytics(
        [&g, &probes_sum] { probes_sum += g.num_edges(); }));
  }
  for (auto& f : counts) EXPECT_NO_THROW(f.get());
  for (auto& f : fences) EXPECT_NO_THROW(f.get());
  // Steady state: everything older than the last window threshold is gone.
  const std::uint64_t live = g.submit_age_out(ts - 4000).get();
  (void)live;
  EXPECT_LE(g.num_edges(), 4000u);
  EXPECT_GT(probes_sum, 0u);
}

TEST(StreamScheduled, EpochScriptMatchesModel) {
  // The harness's scheduled epoch script (ingest, age out, compact) must
  // track the reference model epoch by epoch: new-edge and aged-out counts,
  // live size, and finally the exact graph.
  const std::vector<TemporalEdge> stream = random_stream(6000, 128, 21);
  Dataset ds(stream, 750);
  HarnessConfig cfg;
  cfg.window_frac = 0.25;
  cfg.compact_every = 2;
  cfg.graph = map_config(128);
  Harness h(ds, cfg);
  const auto epochs = h.run();
  ASSERT_EQ(epochs.size(), ds.num_batches());

  core::testutil::ReferenceGraph model;
  for (std::size_t b = 0; b < ds.num_batches(); ++b) {
    EXPECT_EQ(epochs[b].inserted, model.insert(ds.batch(b, cfg.sort_mode)));
    const core::Weight threshold = ds.timestamp_for_window(b, cfg.window_frac);
    std::vector<core::Edge> expired;
    for (const auto& [u, nbrs] : model.adjacency()) {
      for (const auto& [v, ts] : nbrs) {
        if (ts < threshold) expired.push_back({u, v});
      }
    }
    EXPECT_EQ(epochs[b].aged_out, model.erase(expired)) << "epoch " << b;
    EXPECT_EQ(epochs[b].live_edges, model.num_edges()) << "epoch " << b;
  }
  core::testutil::expect_matches_model(h.graph(), model);
}

// ---------------------------------------------------------------------------
// Bounded memory: the acceptance gate's flatness property, in miniature
// ---------------------------------------------------------------------------

TEST(StreamSteadyState, LiveChunksStayFlatAcrossWindowSlides) {
  const std::vector<TemporalEdge> stream = random_stream(60000, 96, 17);
  Dataset ds(stream, 2000);
  HarnessConfig cfg;
  cfg.window_frac = 0.2;
  cfg.compact_every = 2;
  cfg.graph = map_config(96);
  Harness h(ds, cfg);
  const auto epochs = h.run();
  // Steady tail: window full, sliding. Chunk count must be flat within the
  // acceptance bar (10%), not trending with the total ingested volume.
  std::uint64_t lo = UINT64_MAX, hi = 0;
  for (std::size_t i = epochs.size() / 2; i < epochs.size(); ++i) {
    lo = std::min(lo, epochs[i].arena_chunks);
    hi = std::max(hi, epochs[i].arena_chunks);
  }
  ASSERT_GT(lo, 0u);
  EXPECT_LE(double(hi) / double(lo), 1.10)
      << "live chunks grew across the steady-state window";
}

}  // namespace
}  // namespace sg::stream
