// Crash-recovery fault harness (docs/ROBUSTNESS.md "Durability"): seeded
// kill-point differentials over the durability fault sites. A mutation
// stream runs against a journaled graph with a fault armed at
// kJournalAppend / kJournalSync / kSnapshotWrite (clean and torn-write
// modes); the first IoError is the "crash" — the graph is destroyed,
// recovery runs (latest snapshot + journal-suffix replay, torn tails
// truncated), the not-yet-durable suffix of the stream is re-applied, and
// the result must be IDENTICAL to a graph that never crashed. The journal
// is written before futures resolve / calls return, so re-applying from
// the failed operation (inclusive — at-least-once) is always sufficient
// and idempotent.
//
// The kill-point cases require -DSLABGRAPH_FAULTS=ON and SKIP otherwise;
// their schedules derive from SG_FAULT_SEED so CI sweeps seeds. The
// committed-prefix case exhausts a capped arena for real and runs in every
// build.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/core/dyn_graph.hpp"
#include "src/core/errors.hpp"
#include "src/persist/errors.hpp"
#include "src/persist/journal.hpp"
#include "src/persist/recovery.hpp"
#include "src/persist/snapshot.hpp"
#include "src/util/fault_injection.hpp"
#include "src/util/prng.hpp"
#include "tests/graph_test_util.hpp"

namespace sg::persist {
namespace {

using core::DynGraphMap;
using core::GraphConfig;
using core::PartialBatchError;
using core::WeightedEdge;
using core::testutil::expect_identical;
using core::testutil::TempDir;

// Committed-prefix journaling: when the engine aborts a batch mid-way
// (arena exhaustion), the journal records exactly the applied prefix —
// replaying it reproduces the post-abort in-memory state, not the full
// requested batch.
TEST(PersistFaults, PartialBatchJournalsExactlyTheCommittedPrefix) {
  TempDir dir;
  GraphConfig cfg;
  cfg.journal_path = dir.file("j");
  cfg.pipeline_epoch_edges = 64;  // several epochs, so a prefix can commit
  // One 1 MiB chunk: the base slabs take it, so no collision slab can be
  // allocated and the first chain to outgrow its base slab exhausts it.
  cfg.max_arena_chunks = 1;
  DynGraphMap g(cfg);

  // Light sources (4 edges each, one base slab apiece) fill the first
  // epochs; then a hub chain far longer than one slab aborts the batch.
  std::vector<WeightedEdge> batch;
  for (std::uint32_t i = 0; i < 400; ++i) {
    batch.push_back({10 + i / 4, 1000 + i, i + 1});
  }
  for (std::uint32_t i = 0; i < 1000; ++i) batch.push_back({0, 5000 + i, i + 1});
  std::size_t unapplied = 0;
  try {
    g.insert_edges(batch);
    FAIL() << "expected PartialBatchError";
  } catch (const PartialBatchError& e) {
    unapplied = e.unapplied().size();
    EXPECT_EQ(e.applied() + unapplied, batch.size());
    EXPECT_THROW(std::rethrow_exception(e.cause()), memory::ArenaExhausted);
  }
  ASSERT_GT(unapplied, 0u);
  ASSERT_LT(unapplied, batch.size());  // a real prefix committed

  GraphConfig plain;  // replay target without a journal of its own
  DynGraphMap replayed(plain);
  replay_journal(replayed, dir.file("j"));
  expect_identical(g, replayed);
}

#ifndef SLABGRAPH_FAULTS

TEST(PersistFaults, RequiresFaultBuild) {
  GTEST_SKIP() << "build with -DSLABGRAPH_FAULTS=ON to run the crash harness";
}

#else  // SLABGRAPH_FAULTS

using core::DynGraph;
using core::Edge;
using core::MapPolicy;
using core::SetPolicy;
using core::VertexId;
using core::testutil::random_batch;
using util::FaultInjector;
using util::FaultSite;
using util::FaultSpec;

std::uint64_t base_seed() {
  if (const char* env = std::getenv("SG_FAULT_SEED")) {
    return std::strtoull(env, nullptr, 10);
  }
  return 42;
}

/// RAII: no test leaves the process-wide injector armed.
struct DisarmGuard {
  ~DisarmGuard() { FaultInjector::instance().disarm_all(); }
};

/// The deterministic mutation stream, as an indexed op list so a run can
/// resume from the exact operation the crash interrupted. When `snap` is
/// non-empty, periodic snapshot ops are interleaved (victim only — the
/// oracle never snapshots, and the mutation subsequence is identical).
template <class Policy>
std::vector<std::function<void(DynGraph<Policy>&)>> make_op_script(
    std::uint64_t seed, const std::string& snap) {
  std::vector<std::function<void(DynGraph<Policy>&)>> ops;
  for (int r = 0; r < 10; ++r) {
    auto batch = random_batch(seed * 1315423911ull + r, 250, 96);
    ops.push_back([batch](DynGraph<Policy>& g) { g.insert_edges(batch); });
    std::vector<Edge> erase;
    for (std::size_t i = r % 4; i < batch.size(); i += 4) {
      erase.push_back({batch[i].src, batch[i].dst});
    }
    ops.push_back([erase](DynGraph<Policy>& g) { g.delete_edges(erase); });
    if (r % 4 == 2) {
      ops.push_back([r](DynGraph<Policy>& g) {
        g.delete_vertices(std::vector<VertexId>{static_cast<VertexId>(r * 5)});
      });
    }
    if (r % 4 == 3) {
      ops.push_back([r](DynGraph<Policy>& g) {
        g.insert_vertices(std::vector<VertexId>{static_cast<VertexId>(300 + r)},
                          std::vector<std::uint32_t>{4});
      });
    }
    if (!snap.empty() && r % 3 == 2) {
      ops.push_back([snap](DynGraph<Policy>& g) { snapshot(g, snap); });
    }
  }
  return ops;
}

struct KillPoint {
  FaultSite site;
  std::uint32_t torn_permille;  // 0 = clean failure
  std::uint64_t max_fire;      // fire_after drawn from [1, max_fire]
};

/// One kill-point differential: crash at a seeded arrival of `kp.site`,
/// recover, re-apply the non-durable suffix, compare to the never-crashed
/// oracle. Also exercises the no-crash path when the drawn fire point lies
/// beyond the stream (part of the schedule space).
template <class Policy>
void kill_point_case(const KillPoint& kp, std::uint64_t seed) {
  auto& inj = FaultInjector::instance();
  inj.disarm_all();
  TempDir dir;
  const std::string snap = dir.file("snap");

  GraphConfig cfg;
  cfg.journal_path = dir.file("j");
  cfg.journal_sync = core::JournalSyncPolicy::kEachBatch;

  util::Xoshiro256 rng(seed * 31 + static_cast<std::uint64_t>(kp.site));
  FaultSpec spec;
  spec.fire_after = 1 + rng.below(kp.max_fire);
  spec.torn_permille = kp.torn_permille;

  const auto ops = make_op_script<Policy>(seed, snap);
  int crashed_at = -1;
  {
    DynGraph<Policy> victim(cfg);
    inj.arm(kp.site, spec);
    for (std::size_t i = 0; i < ops.size(); ++i) {
      try {
        ops[i](victim);
      } catch (const IoError&) {
        crashed_at = static_cast<int>(i);
        break;
      }
    }
  }  // the crash: victim dies with whatever was durable

  inj.disarm_all();
  Recovered<Policy> rec = recover<Policy>(cfg, snap);
  if (crashed_at >= 0) {
    // Re-deliver from the failed op inclusive: the journal holds every op
    // before it, and MAY hold the failed one (sync fault after a landed
    // write) — re-application is idempotent either way.
    for (std::size_t i = static_cast<std::size_t>(crashed_at); i < ops.size();
         ++i) {
      ops[i](*rec.graph);
    }
  } else {
    EXPECT_EQ(inj.fired(kp.site), 0u)
        << "fault fired but no mutation threw IoError";
  }

  GraphConfig oracle_cfg;  // no journal, no snapshots, never crashes
  DynGraph<Policy> oracle(oracle_cfg);
  for (const auto& op : make_op_script<Policy>(seed, "")) op(oracle);
  expect_identical(oracle, *rec.graph);
}

TEST(PersistFaults, KillPointDifferentialMap) {
  DisarmGuard guard;
  const std::uint64_t base = base_seed();
  const std::vector<KillPoint> points{
      {FaultSite::kJournalAppend, 0, 28},
      {FaultSite::kJournalAppend, 500, 28},
      {FaultSite::kJournalSync, 0, 28},
      {FaultSite::kSnapshotWrite, 0, 3},
      {FaultSite::kSnapshotWrite, 700, 3},
  };
  for (const KillPoint& kp : points) {
    for (std::uint64_t offset = 0; offset < 3; ++offset) {
      SCOPED_TRACE(::testing::Message()
                   << "site " << static_cast<int>(kp.site) << " torn "
                   << kp.torn_permille << " seed offset " << offset);
      kill_point_case<MapPolicy>(kp, base * 1000 + offset);
    }
  }
}

TEST(PersistFaults, KillPointDifferentialSet) {
  DisarmGuard guard;
  const std::uint64_t base = base_seed();
  const std::vector<KillPoint> points{
      {FaultSite::kJournalAppend, 350, 28},
      {FaultSite::kJournalSync, 0, 28},
      {FaultSite::kSnapshotWrite, 900, 3},
  };
  for (const KillPoint& kp : points) {
    for (std::uint64_t offset = 0; offset < 3; ++offset) {
      SCOPED_TRACE(::testing::Message()
                   << "site " << static_cast<int>(kp.site) << " torn "
                   << kp.torn_permille << " seed offset " << offset);
      kill_point_case<SetPolicy>(kp, base * 1000 + 500 + offset);
    }
  }
}

// A failed append poisons the journal: every later mutation refuses with
// IoError BEFORE touching the in-memory graph, so memory never silently
// outruns the durable state.
TEST(PersistFaults, PoisonedJournalRefusesFurtherMutations) {
  DisarmGuard guard;
  auto& inj = FaultInjector::instance();
  TempDir dir;
  GraphConfig cfg;
  cfg.journal_path = dir.file("j");
  DynGraphMap g(cfg);
  g.insert_edges(std::vector<WeightedEdge>{{1, 2, 3}});

  inj.arm(FaultSite::kJournalAppend, FaultSpec{/*fire_after=*/1});
  EXPECT_THROW(g.insert_edges(std::vector<WeightedEdge>{{4, 5, 6}}), IoError);
  inj.disarm_all();

  const std::uint64_t edges_before = g.num_edges();
  EXPECT_THROW(g.insert_edges(std::vector<WeightedEdge>{{7, 8, 9}}), IoError);
  EXPECT_EQ(g.num_edges(), edges_before);  // refused up front, not half-run
  EXPECT_THROW(g.delete_edges(std::vector<Edge>{{1, 2}}), IoError);
  EXPECT_TRUE(g.edge_exists(1, 2));
}

// A torn append leaves a short record at EOF; attach-time recovery
// truncates it and the sequence continues from the durable prefix.
TEST(PersistFaults, TornAppendIsTruncatedOnRecovery) {
  DisarmGuard guard;
  auto& inj = FaultInjector::instance();
  TempDir dir;
  GraphConfig cfg;
  cfg.journal_path = dir.file("j");
  {
    DynGraphMap g(cfg);
    g.insert_edges(std::vector<WeightedEdge>{{1, 2, 3}});
    FaultSpec spec;
    spec.fire_after = 1;
    spec.torn_permille = 500;  // half the record lands
    inj.arm(FaultSite::kJournalAppend, spec);
    EXPECT_THROW(g.insert_edges(std::vector<WeightedEdge>{{4, 5, 6}}), IoError);
  }
  inj.disarm_all();

  const RecoveredMap rec = recover<MapPolicy>(cfg);
  EXPECT_GT(rec.stats.truncated_bytes, 0u);
  EXPECT_EQ(rec.stats.replayed_records, 1u);
  EXPECT_TRUE(rec.graph->edge_exists(1, 2));
  EXPECT_FALSE(rec.graph->edge_exists(4, 5));
  // The recovered graph journals normally on the repaired file.
  rec.graph->insert_edges(std::vector<WeightedEdge>{{4, 5, 6}});
  EXPECT_EQ(Journal::scan(dir.file("j")).records.size(), 2u);
}

// Atomic snapshot rule: a failed (even torn) snapshot write must leave the
// previous snapshot file byte-for-byte intact — the tear lands in the
// temporary, never in the published path.
TEST(PersistFaults, FailedSnapshotPreservesPreviousSnapshot) {
  DisarmGuard guard;
  auto& inj = FaultInjector::instance();
  TempDir dir;
  DynGraphMap g(GraphConfig{});
  g.insert_edges(std::vector<WeightedEdge>{{1, 2, 3}, {2, 3, 4}});
  snapshot(g, dir.file("snap"));

  g.insert_edges(std::vector<WeightedEdge>{{5, 6, 7}});
  FaultSpec spec;
  spec.fire_after = 1;
  spec.torn_permille = 600;
  inj.arm(FaultSite::kSnapshotWrite, spec);
  EXPECT_THROW(snapshot(g, dir.file("snap")), IoError);
  inj.disarm_all();

  DynGraphMap restored(GraphConfig{});
  restore_into(restored, dir.file("snap"));  // the OLD snapshot, undamaged
  EXPECT_TRUE(restored.edge_exists(1, 2));
  EXPECT_FALSE(restored.edge_exists(5, 6));
}

// A staging job that dies in a multi-epoch batch (kStageJob fires on its
// second arrival: the background job staging epoch 1) aborts insert and
// erase alike: epoch 0 stays applied and is journaled, and the
// PartialBatchError reports every raw input item from epoch 1 on.
template <class Policy>
void stage_job_abort_case(bool undirected) {
  DisarmGuard guard;
  auto& inj = FaultInjector::instance();
  constexpr std::size_t kEpoch = 64;
  TempDir dir;
  GraphConfig cfg;
  cfg.undirected = undirected;
  cfg.journal_path = dir.file("j");
  cfg.pipeline_epoch_edges = kEpoch;  // four epochs per batch
  DynGraph<Policy> g(cfg);
  core::testutil::ReferenceGraph model(undirected);

  // Globally unique pairs (and mirrors), so each epoch's outcome is exact.
  std::vector<WeightedEdge> batch;
  for (std::uint32_t i = 0; i < 4 * kEpoch; ++i) {
    batch.push_back({i % 16, 100 + i, i + 1});
  }
  const std::vector<Edge> pairs = core::testutil::pairs_of(batch);
  const std::vector<Edge> tail(pairs.begin() + kEpoch, pairs.end());
  const auto expect_epoch0_split = [&](const PartialBatchError& e,
                                       std::uint64_t epoch0_applied) {
    EXPECT_EQ(e.applied(), epoch0_applied);
    EXPECT_EQ(e.unapplied(), tail);
    EXPECT_THROW(std::rethrow_exception(e.cause()), std::runtime_error);
  };
  const auto stage_job_dies_second = [&] {
    FaultSpec spec;
    spec.fire_after = 2;
    inj.arm(FaultSite::kStageJob, spec);
  };

  stage_job_dies_second();
  try {
    g.insert_edges(batch);
    ADD_FAILURE() << "insert: expected PartialBatchError";
  } catch (const PartialBatchError& e) {
    expect_epoch0_split(
        e, model.insert(std::span<const WeightedEdge>(batch).first(kEpoch)));
  }
  inj.disarm_all();
  core::testutil::expect_matches_model(g, model);

  g.insert_edges(batch);  // the remainder commits once the fault is gone
  model.insert(batch);
  stage_job_dies_second();
  try {
    g.delete_edges(pairs);
    ADD_FAILURE() << "erase: expected PartialBatchError";
  } catch (const PartialBatchError& e) {
    expect_epoch0_split(e,
                        model.erase(std::span<const Edge>(pairs).first(kEpoch)));
  }
  inj.disarm_all();
  core::testutil::expect_matches_model(g, model);

  GraphConfig plain;  // replay target without a journal of its own
  plain.undirected = undirected;
  DynGraph<Policy> replayed(plain);
  replay_journal(replayed, dir.file("j"));
  expect_identical(g, replayed);
}

TEST(PersistFaults, StageJobAbortUndirectedSet) {
  stage_job_abort_case<SetPolicy>(/*undirected=*/true);
}

TEST(PersistFaults, StageJobAbortDirectedMap) {
  stage_job_abort_case<MapPolicy>(/*undirected=*/false);
}

#endif  // SLABGRAPH_FAULTS

}  // namespace
}  // namespace sg::persist
