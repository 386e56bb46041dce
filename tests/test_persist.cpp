// Durability suite (src/persist/, docs/ROBUSTNESS.md "Durability"):
// snapshot round trips for both graph variants and both directednesses,
// write-ahead journal format/scan/torn-tail semantics, and the recovery
// edge cases — empty journal, snapshot-only, journal-only, corrupt
// mid-file record (typed, never silent truncation), and replay idempotence
// (double replay rejected by the sequence cursor). Fault-injected crash
// recovery lives in tests/test_persist_faults.cpp.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <future>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "src/core/dyn_graph.hpp"
#include "src/core/errors.hpp"
#include "src/persist/journal.hpp"
#include "src/persist/recovery.hpp"
#include "src/persist/snapshot.hpp"
#include "tests/graph_test_util.hpp"

namespace sg::persist {
namespace {

using core::DynGraph;
using core::DynGraphMap;
using core::DynGraphSet;
using core::Edge;
using core::GraphConfig;
using core::MapPolicy;
using core::SetPolicy;
using core::VertexId;
using core::Weight;
using core::WeightedEdge;
using core::testutil::expect_identical;
using core::testutil::TempDir;
using core::testutil::expect_matches_model;
using core::testutil::random_batch;
using core::testutil::ReferenceGraph;

std::vector<std::uint8_t> slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

void spit(const std::string& path, const std::vector<std::uint8_t>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

// Braced-literal front ends for the span-taking mutators.
template <class Policy>
std::uint64_t ins(core::DynGraph<Policy>& g, std::vector<WeightedEdge> edges) {
  return g.insert_edges(edges);
}
template <class Policy>
std::uint64_t del(core::DynGraph<Policy>& g, std::vector<Edge> edges) {
  return g.delete_edges(edges);
}
std::uint64_t japp(Journal& j, std::vector<WeightedEdge> edges) {
  return j.append_insert(edges);
}

// --------------------------------------------------------------------------
// Journal format
// --------------------------------------------------------------------------

TEST(Journal, RoundTripsAllRecordKinds) {
  TempDir dir;
  const std::string path = dir.file("j");
  const std::vector<WeightedEdge> inserts{{1, 2, 10}, {2, 3, 20}};
  const std::vector<Edge> erases{{1, 2}};
  const std::vector<VertexId> new_ids{7, 8};
  const std::vector<std::uint32_t> hints{4, 0};
  const std::vector<VertexId> dead_ids{8};
  {
    Journal j(path, core::JournalSyncPolicy::kEachBatch);
    EXPECT_EQ(j.append_insert(inserts), 1u);
    EXPECT_EQ(j.append_erase(erases), 2u);
    EXPECT_EQ(j.append_insert_vertices(new_ids, hints), 3u);
    EXPECT_EQ(j.append_delete_vertices(dead_ids), 4u);
    EXPECT_EQ(j.last_seq(), 4u);
    EXPECT_FALSE(j.poisoned());
  }
  const Journal::ScanResult scanned = Journal::scan(path);
  ASSERT_EQ(scanned.records.size(), 4u);
  EXPECT_EQ(scanned.last_seq, 4u);
  EXPECT_FALSE(scanned.torn_tail);
  EXPECT_EQ(scanned.records[0].kind, RecordKind::kInsert);
  EXPECT_EQ(scanned.records[0].inserts, inserts);
  EXPECT_EQ(scanned.records[1].kind, RecordKind::kErase);
  EXPECT_EQ(scanned.records[1].erases, erases);
  EXPECT_EQ(scanned.records[2].kind, RecordKind::kInsertVertices);
  EXPECT_EQ(scanned.records[2].vertices, new_ids);
  EXPECT_EQ(scanned.records[2].degree_hints, hints);
  EXPECT_EQ(scanned.records[3].kind, RecordKind::kDeleteVertices);
  EXPECT_EQ(scanned.records[3].vertices, dead_ids);
}

TEST(Journal, MissingFileScansEmpty) {
  TempDir dir;
  const Journal::ScanResult scanned = Journal::scan(dir.file("absent"));
  EXPECT_TRUE(scanned.records.empty());
  EXPECT_EQ(scanned.last_seq, 0u);
  EXPECT_FALSE(scanned.torn_tail);
}

TEST(Journal, TornTailIsTruncatedOnAttachAndSequenceContinues) {
  TempDir dir;
  const std::string path = dir.file("j");
  {
    Journal j(path, core::JournalSyncPolicy::kNone);
    japp(j, {{1, 2, 3}});
    japp(j, {{4, 5, 6}});
  }
  // Crash simulation: the second record loses its final bytes.
  std::vector<std::uint8_t> bytes = slurp(path);
  const std::size_t whole = bytes.size();
  bytes.resize(whole - 5);
  spit(path, bytes);

  const Journal::ScanResult scanned = Journal::scan(path);
  ASSERT_EQ(scanned.records.size(), 1u);  // the torn record is dropped
  EXPECT_TRUE(scanned.torn_tail);
  EXPECT_EQ(scanned.dropped_bytes, bytes.size() - scanned.valid_bytes);

  {
    Journal j(path, core::JournalSyncPolicy::kNone);
    EXPECT_GT(j.truncated_on_open(), 0u);
    EXPECT_EQ(j.last_seq(), 1u);
    EXPECT_EQ(japp(j, {{7, 8, 9}}), 2u);  // sequence continues
  }
  const Journal::ScanResult after = Journal::scan(path);
  ASSERT_EQ(after.records.size(), 2u);
  EXPECT_FALSE(after.torn_tail);
  EXPECT_EQ(after.records[1].inserts,
            (std::vector<WeightedEdge>{{7, 8, 9}}));
}

TEST(Journal, MidFileCorruptionThrowsTypedNotTruncated) {
  TempDir dir;
  const std::string path = dir.file("j");
  std::uint64_t first_record_end = 0;
  {
    Journal j(path, core::JournalSyncPolicy::kNone);
    japp(j, {{1, 2, 3}});
    first_record_end = 16 + j.appended_bytes();
    japp(j, {{4, 5, 6}});
  }
  std::vector<std::uint8_t> bytes = slurp(path);
  // Flip a payload byte of the FIRST record: damage with valid data after
  // it is corruption, not a torn tail.
  bytes[first_record_end / 2] ^= 0xFF;
  spit(path, bytes);
  EXPECT_THROW(Journal::scan(path), CorruptJournal);
  EXPECT_THROW(Journal(path, core::JournalSyncPolicy::kNone), CorruptJournal);
}

TEST(Journal, CrcDamageAtExactEofIsATornTail) {
  TempDir dir;
  const std::string path = dir.file("j");
  {
    Journal j(path, core::JournalSyncPolicy::kNone);
    japp(j, {{1, 2, 3}});
    japp(j, {{4, 5, 6}});
  }
  std::vector<std::uint8_t> bytes = slurp(path);
  // Flip a byte inside the LAST record's payload (its final 4 bytes are
  // the weight word): damage that reaches end-of-file is the shape a torn
  // write leaves, and recovery truncates instead of failing.
  bytes[bytes.size() - 2] ^= 0xFF;
  spit(path, bytes);
  const Journal::ScanResult scanned = Journal::scan(path);
  ASSERT_EQ(scanned.records.size(), 1u);
  EXPECT_TRUE(scanned.torn_tail);
}

TEST(Journal, SeqFloorCarriesSnapshotCutAcrossFreshFile) {
  TempDir dir;
  Journal j(dir.file("j"), core::JournalSyncPolicy::kNone, /*seq_floor=*/41);
  EXPECT_EQ(j.last_seq(), 41u);
  EXPECT_EQ(japp(j, {{1, 2, 3}}), 42u);
}

// --------------------------------------------------------------------------
// Snapshot round trips
// --------------------------------------------------------------------------

template <class Policy>
void build_workload(DynGraph<Policy>& g, std::uint64_t seed) {
  auto batch = random_batch(seed, 4000, 300);
  g.insert_edges(batch);
  // Erase a slice, delete a couple of vertices, add isolated vertices —
  // the snapshot must carry tombstone-cleaned adjacency, dead vertices
  // absent, and edgeless-but-live vertices present.
  std::vector<Edge> erase;
  for (std::size_t i = 0; i < batch.size(); i += 7) {
    erase.push_back({batch[i].src, batch[i].dst});
  }
  g.delete_edges(erase);
  const std::vector<VertexId> dead{11, 42};
  g.delete_vertices(dead);
  const std::vector<VertexId> isolated{900, 901};
  g.insert_vertices(isolated);
}

template <class Policy>
void round_trip_case(bool undirected, std::uint64_t seed) {
  TempDir dir;
  GraphConfig cfg;
  cfg.undirected = undirected;
  DynGraph<Policy> g(cfg);
  build_workload(g, seed);
  const SnapshotStats written = snapshot(g, dir.file("snap"));
  EXPECT_EQ(written.directed_edges, g.num_edges());
  EXPECT_GT(written.file_bytes, 0u);

  DynGraph<Policy> restored(cfg);
  const SnapshotStats read = restore_into(restored, dir.file("snap"));
  EXPECT_EQ(read.directed_edges, written.directed_edges);
  EXPECT_EQ(read.vertices, written.vertices);
  expect_identical(g, restored);
  // Liveness flags round-trip too: dead vertices stay dead, isolated
  // vertices stay live.
  EXPECT_FALSE(restored.vertex_live(11));
  EXPECT_TRUE(restored.vertex_live(900));
}

TEST(Snapshot, RoundTripMapDirected) { round_trip_case<MapPolicy>(false, 1); }
TEST(Snapshot, RoundTripMapUndirected) { round_trip_case<MapPolicy>(true, 2); }
TEST(Snapshot, RoundTripSetDirected) { round_trip_case<SetPolicy>(false, 3); }
TEST(Snapshot, RoundTripSetUndirected) { round_trip_case<SetPolicy>(true, 4); }

TEST(Snapshot, RoundTripEmptyGraph) {
  TempDir dir;
  DynGraphMap g(GraphConfig{});
  snapshot(g, dir.file("snap"));
  DynGraphMap restored(GraphConfig{});
  const SnapshotStats read = restore_into(restored, dir.file("snap"));
  EXPECT_EQ(read.vertices, 0u);
  EXPECT_EQ(restored.num_edges(), 0u);
}

TEST(Snapshot, MostRecentWeightWins) {
  TempDir dir;
  DynGraphMap g(GraphConfig{});
  ins(g, {{1, 2, 10}, {1, 2, 99}});
  snapshot(g, dir.file("snap"));
  DynGraphMap restored(GraphConfig{});
  restore_into(restored, dir.file("snap"));
  const auto r = restored.edge_weight(1, 2);
  ASSERT_TRUE(r.found);
  EXPECT_EQ(r.value, 99u);
}

TEST(Snapshot, VariantMismatchThrowsTyped) {
  TempDir dir;
  DynGraphMap g(GraphConfig{});
  ins(g, {{1, 2, 10}});
  snapshot(g, dir.file("snap"));
  DynGraphSet wrong_variant(GraphConfig{});
  EXPECT_THROW(restore_into(wrong_variant, dir.file("snap")), CorruptSnapshot);
  GraphConfig undirected_cfg;
  undirected_cfg.undirected = true;
  DynGraphMap wrong_direction(undirected_cfg);
  EXPECT_THROW(restore_into(wrong_direction, dir.file("snap")),
               CorruptSnapshot);
}

TEST(Snapshot, CorruptSectionThrowsTyped) {
  TempDir dir;
  DynGraphMap g(GraphConfig{});
  ins(g, {{1, 2, 10}, {3, 4, 20}});
  snapshot(g, dir.file("snap"));
  std::vector<std::uint8_t> bytes = slurp(dir.file("snap"));
  bytes[bytes.size() / 2] ^= 0xFF;  // lands in a section payload
  spit(dir.file("snap"), bytes);
  DynGraphMap restored(GraphConfig{});
  EXPECT_THROW(restore_into(restored, dir.file("snap")), CorruptSnapshot);
}

TEST(Snapshot, MissingFileThrowsIoError) {
  TempDir dir;
  DynGraphMap restored(GraphConfig{});
  EXPECT_THROW(restore_into(restored, dir.file("absent")), IoError);
}

TEST(Snapshot, RestoreRequiresFreshGraph) {
  TempDir dir;
  DynGraphMap g(GraphConfig{});
  ins(g, {{1, 2, 10}});
  snapshot(g, dir.file("snap"));
  EXPECT_THROW(restore_into(g, dir.file("snap")), std::logic_error);
}

TEST(Snapshot, ShutdownSnapshotWrittenByDestructor) {
  TempDir dir;
  GraphConfig cfg;
  cfg.snapshot_on_shutdown = dir.file("final");
  std::vector<WeightedEdge> batch = random_batch(9, 500, 64);
  {
    DynGraphMap g(cfg);
    g.insert_edges(batch);
  }
  ReferenceGraph model;
  model.insert(batch);
  DynGraphMap restored(GraphConfig{});
  restore_into(restored, dir.file("final"));
  expect_matches_model(restored, model);
}

// --------------------------------------------------------------------------
// Scheduled snapshot: epoch-consistent cut under concurrent submitters
// --------------------------------------------------------------------------

TEST(Snapshot, MidStreamCutIsBatchAtomicUnderConcurrentSubmitters) {
  TempDir dir;
  constexpr int kThreads = 4;
  constexpr int kBatches = 12;   // per thread
  constexpr int kBatchEdges = 32;
  GraphConfig cfg;
  DynGraphMap g(cfg);
  // Thread t, batch b inserts edges (src, dst) with src = 1 + t*kBatches+b
  // and dst in [1000, 1000+kBatchEdges): batches are pairwise disjoint, so
  // "the snapshot holds either ALL of a batch's edges or NONE" is
  // well-defined, and FIFO submission means each thread's batches appear
  // as a prefix.
  std::vector<std::thread> threads;
  std::future<void> snap_future;
  std::atomic<bool> snap_taken{false};
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int b = 0; b < kBatches; ++b) {
        std::vector<WeightedEdge> batch;
        const VertexId src = static_cast<VertexId>(1 + t * kBatches + b);
        for (int k = 0; k < kBatchEdges; ++k) {
          batch.push_back({src, static_cast<VertexId>(1000 + k), 7});
        }
        g.submit_insert(std::move(batch)).get();
        if (t == 0 && b == kBatches / 2) {
          snap_future = g.submit_snapshot(dir.file("snap"));
          snap_taken.store(true);
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  ASSERT_TRUE(snap_taken.load());
  snap_future.get();
  EXPECT_EQ(g.last_schedule_stats().submitted_snapshots, 1u);

  DynGraphMap restored(cfg);
  restore_into(restored, dir.file("snap"));
  // Batch atomicity + per-thread prefix: each source vertex (one batch)
  // has either all kBatchEdges edges or none, and within a thread the
  // present sources form a contiguous prefix of its submission order.
  for (int t = 0; t < kThreads; ++t) {
    bool seen_absent = false;
    for (int b = 0; b < kBatches; ++b) {
      const VertexId src = static_cast<VertexId>(1 + t * kBatches + b);
      const std::uint32_t deg = restored.degree(src);
      ASSERT_TRUE(deg == 0 || deg == kBatchEdges)
          << "torn batch at src " << src << ": degree " << deg;
      if (deg == 0) {
        seen_absent = true;
      } else {
        ASSERT_FALSE(seen_absent)
            << "batch " << b << " of thread " << t
            << " present after an earlier batch was absent (FIFO violated)";
      }
    }
    // The thread-0 batch the snapshot was submitted after must be in it.
    if (t == 0) {
      EXPECT_EQ(restored.degree(1 + kBatches / 2), kBatchEdges);
    }
  }
}

// --------------------------------------------------------------------------
// Journal + recovery
// --------------------------------------------------------------------------

/// Applies a deterministic mutation stream to a journaled graph and the
/// same stream to `model`, the reference the recovered graph must equal.
template <class Policy>
void mutate_stream(DynGraph<Policy>& g, ReferenceGraph& model,
                   std::uint64_t seed, int rounds) {
  for (int r = 0; r < rounds; ++r) {
    auto batch = random_batch(seed + r, 600, 128);
    g.insert_edges(batch);
    model.insert(batch);
    std::vector<Edge> erase;
    for (std::size_t i = r % 5; i < batch.size(); i += 5) {
      erase.push_back({batch[i].src, batch[i].dst});
    }
    g.delete_edges(erase);
    model.erase(erase);
    if (r % 3 == 1) {
      const std::vector<VertexId> doomed{static_cast<VertexId>(r * 7)};
      g.delete_vertices(doomed);
      model.delete_vertices(doomed);
    }
    if (r % 3 == 2) {
      g.insert_vertices(
          std::vector<VertexId>{static_cast<VertexId>(500 + r)},
          std::vector<std::uint32_t>{8});
    }
  }
}

template <class Policy>
void journal_only_recovery_case(bool undirected) {
  TempDir dir;
  GraphConfig cfg;
  cfg.undirected = undirected;
  cfg.journal_path = dir.file("j");
  ReferenceGraph model(undirected);
  {
    DynGraph<Policy> g(cfg);
    ASSERT_TRUE(g.has_journal());
    mutate_stream(g, model, 77, 6);
  }
  Recovered<Policy> rec = recover<Policy>(cfg);
  EXPECT_FALSE(rec.stats.snapshot_loaded);
  EXPECT_GT(rec.stats.replayed_records, 0u);
  EXPECT_EQ(rec.stats.skipped_records, 0u);
  expect_matches_model(*rec.graph, model);
}

TEST(Recovery, JournalOnlyMapDirected) {
  journal_only_recovery_case<MapPolicy>(false);
}
TEST(Recovery, JournalOnlySetUndirected) {
  journal_only_recovery_case<SetPolicy>(true);
}

TEST(Recovery, SnapshotPlusJournalSuffixReplay) {
  TempDir dir;
  GraphConfig cfg;
  cfg.journal_path = dir.file("j");
  std::uint64_t records_at_cut = 0;
  ReferenceGraph model;
  {
    DynGraphMap g(cfg);
    mutate_stream(g, model, 5, 4);
    snapshot(g, dir.file("snap"));
    records_at_cut = g.journal_seq();
    mutate_stream(g, model, 999, 3);  // the suffix only the journal holds
  }
  const RecoveredMap rec = recover<MapPolicy>(cfg, dir.file("snap"));
  EXPECT_TRUE(rec.stats.snapshot_loaded);
  EXPECT_EQ(rec.stats.skipped_records, records_at_cut);
  EXPECT_GT(rec.stats.replayed_records, 0u);
  expect_matches_model(*rec.graph, model);
}

void aged_recovery_case(bool undirected) {
  TempDir dir;
  GraphConfig cfg;
  cfg.undirected = undirected;
  cfg.journal_path = dir.file("j");
  core::testutil::EdgeSet live;
  {
    DynGraphMap g(cfg);
    // Weights are timestamps: each batch's edges carry [0, 2^16), so every
    // threshold below retires edges from several batches at once.
    for (std::uint64_t b = 0; b < 4; ++b) {
      g.insert_edges(random_batch(40 + b, 1500, 200));
      if (b % 2 == 1) {
        ASSERT_GT(g.delete_edges_older_than(
                      static_cast<Weight>((b + 1) << 13)),
                  0u);
      }
    }
    live = core::testutil::graph_edges(g);
    ASSERT_FALSE(live.empty());
  }
  const RecoveredMap rec = recover<MapPolicy>(cfg);
  EXPECT_EQ(core::testutil::graph_edges(*rec.graph), live);
  EXPECT_EQ(rec.graph->num_edges(), live.size());
}

TEST(Recovery, AgedGraphRecoversEdgeForEdgeDirected) {
  aged_recovery_case(false);
}
TEST(Recovery, AgedGraphRecoversEdgeForEdgeUndirected) {
  aged_recovery_case(true);
}

TEST(Recovery, EmptyJournalYieldsEmptyGraph) {
  TempDir dir;
  GraphConfig cfg;
  cfg.journal_path = dir.file("j");
  { DynGraphMap g(cfg); }  // attaches, writes only the header
  const RecoveredMap rec = recover<MapPolicy>(cfg);
  EXPECT_EQ(rec.stats.replayed_records, 0u);
  EXPECT_EQ(rec.graph->num_edges(), 0u);
}

TEST(Recovery, MissingJournalFileYieldsEmptyGraph) {
  TempDir dir;
  GraphConfig cfg;
  cfg.journal_path = dir.file("never_created");
  const RecoveredMap rec = recover<MapPolicy>(cfg);
  EXPECT_EQ(rec.stats.replayed_records, 0u);
  EXPECT_EQ(rec.graph->num_edges(), 0u);
  EXPECT_TRUE(rec.graph->has_journal());  // attached and ready for writes
}

TEST(Recovery, SnapshotOnlyNoJournalConfigured) {
  TempDir dir;
  GraphConfig cfg;  // journal_path empty
  DynGraphMap g(cfg);
  ins(g, {{1, 2, 3}, {2, 3, 4}});
  snapshot(g, dir.file("snap"));
  const RecoveredMap rec = recover<MapPolicy>(cfg, dir.file("snap"));
  EXPECT_TRUE(rec.stats.snapshot_loaded);
  EXPECT_FALSE(rec.graph->has_journal());
  expect_identical(g, *rec.graph);
}

TEST(Recovery, MissingSnapshotFallsBackToJournalOnly) {
  TempDir dir;
  GraphConfig cfg;
  cfg.journal_path = dir.file("j");
  {
    DynGraphMap g(cfg);
    ins(g, {{1, 2, 3}});
  }
  // The configured shutdown snapshot was never written (crashed first).
  const RecoveredMap rec =
      recover<MapPolicy>(cfg, dir.file("snap_never_written"));
  EXPECT_FALSE(rec.stats.snapshot_loaded);
  EXPECT_EQ(rec.stats.replayed_records, 1u);
  EXPECT_TRUE(rec.graph->edge_exists(1, 2));
}

TEST(Recovery, DoubleReplayIsRejectedBySequenceCursor) {
  TempDir dir;
  GraphConfig cfg;
  cfg.journal_path = dir.file("j");
  {
    DynGraphMap g(cfg);
    ins(g, {{1, 2, 3}, {4, 5, 6}});
    del(g, {{4, 5}});
  }
  GraphConfig replay_cfg = cfg;
  replay_cfg.journal_path.clear();
  DynGraphMap g(replay_cfg);
  const RecoveryStats first = replay_journal(g, dir.file("j"));
  EXPECT_EQ(first.replayed_records, 2u);
  EXPECT_EQ(first.skipped_records, 0u);
  const std::uint64_t edges_after_first = g.num_edges();
  const RecoveryStats second = replay_journal(g, dir.file("j"));
  EXPECT_EQ(second.replayed_records, 0u);  // every record at/below cursor
  EXPECT_EQ(second.skipped_records, 2u);
  EXPECT_EQ(g.num_edges(), edges_after_first);
}

TEST(Recovery, ReplayThroughAttachedJournalIsRejected) {
  TempDir dir;
  GraphConfig cfg;
  cfg.journal_path = dir.file("j");
  DynGraphMap g(cfg);
  EXPECT_THROW(replay_journal(g, dir.file("j")), std::logic_error);
}

TEST(Recovery, RecoveredGraphContinuesTheSequence) {
  TempDir dir;
  GraphConfig cfg;
  cfg.journal_path = dir.file("j");
  std::uint64_t seq_before = 0;
  {
    DynGraphMap g(cfg);
    ins(g, {{1, 2, 3}});
    seq_before = g.journal_seq();
  }
  RecoveredMap rec = recover<MapPolicy>(cfg);
  EXPECT_EQ(rec.graph->journal_seq(), seq_before);
  ins(*rec.graph, {{7, 8, 9}});
  EXPECT_EQ(rec.graph->journal_seq(), seq_before + 1);
  rec.graph.reset();
  // A second recovery replays the full, monotonic stream.
  const RecoveredMap again = recover<MapPolicy>(cfg);
  EXPECT_EQ(again.stats.replayed_records, seq_before + 1);
  EXPECT_TRUE(again.graph->edge_exists(1, 2));
  EXPECT_TRUE(again.graph->edge_exists(7, 8));
}

TEST(Recovery, TornJournalTailIsTruncatedAndReported) {
  TempDir dir;
  GraphConfig cfg;
  cfg.journal_path = dir.file("j");
  {
    DynGraphMap g(cfg);
    ins(g, {{1, 2, 3}});
    ins(g, {{4, 5, 6}});
  }
  std::vector<std::uint8_t> bytes = slurp(dir.file("j"));
  bytes.resize(bytes.size() - 3);  // tear the last record
  spit(dir.file("j"), bytes);
  const RecoveredMap rec = recover<MapPolicy>(cfg);
  EXPECT_EQ(rec.stats.replayed_records, 1u);
  EXPECT_GT(rec.stats.truncated_bytes, 0u);
  EXPECT_TRUE(rec.graph->edge_exists(1, 2));
  EXPECT_FALSE(rec.graph->edge_exists(4, 5));
}

TEST(Recovery, CorruptMidJournalFailsTypedNotSilently) {
  TempDir dir;
  GraphConfig cfg;
  cfg.journal_path = dir.file("j");
  std::uint64_t first_record_end = 0;
  {
    DynGraphMap g(cfg);
    ins(g, {{1, 2, 3}});
    first_record_end = std::filesystem::file_size(dir.file("j"));
    ins(g, {{4, 5, 6}});
  }
  std::vector<std::uint8_t> bytes = slurp(dir.file("j"));
  bytes[first_record_end - 6] ^= 0xFF;  // first record, data after it
  spit(dir.file("j"), bytes);
  EXPECT_THROW(recover<MapPolicy>(cfg), CorruptJournal);
}

TEST(Recovery, BulkBuildReplayReproducesDstOnlyVertices) {
  TempDir dir;
  GraphConfig cfg;
  cfg.journal_path = dir.file("j");
  {
    DynGraphMap g(cfg);
    // Vertex 9 is destination-only: without the kInsertVertices record the
    // replayed graph would not mark it live.
    g.bulk_build(std::vector<WeightedEdge>{{1, 9, 5}, {2, 9, 6}});
    ASSERT_TRUE(g.vertex_live(9));
  }
  const RecoveredMap rec = recover<MapPolicy>(cfg);
  EXPECT_TRUE(rec.graph->vertex_live(9));
  EXPECT_TRUE(rec.graph->edge_exists(1, 9));
  EXPECT_EQ(rec.graph->num_edges(), 2u);
}

TEST(Journal, ScheduledMutationsAreJournaledBeforeFuturesResolve) {
  TempDir dir;
  GraphConfig cfg;
  cfg.journal_path = dir.file("j");
  {
    DynGraphMap g(cfg);
    g.submit_insert({{1, 2, 3}, {4, 5, 6}}).get();
    // The future resolved => the batch is in the journal NOW, not at
    // shutdown: a scan from a second handle must already see it.
    const Journal::ScanResult scanned = Journal::scan(dir.file("j"));
    ASSERT_EQ(scanned.records.size(), 1u);
    EXPECT_EQ(scanned.records[0].inserts.size(), 2u);
    g.submit_erase({{4, 5}}).get();
    EXPECT_EQ(Journal::scan(dir.file("j")).records.size(), 2u);
  }
  const RecoveredMap rec = recover<MapPolicy>(cfg);
  EXPECT_TRUE(rec.graph->edge_exists(1, 2));
  EXPECT_FALSE(rec.graph->edge_exists(4, 5));
}

}  // namespace
}  // namespace sg::persist
