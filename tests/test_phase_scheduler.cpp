// Tests of the epoch-based phase scheduler (src/core/phase_scheduler.hpp)
// and DynGraph's scheduled mode:
//
//   * the conductor must never overlap a mutation phase with a query phase
//     (the phase-concurrent contract, now enforced), must preserve FIFO
//     submission order, and must coalesce same-kind bursts into shared
//     phases (consecutive same-op mutations into ONE engine batch);
//   * scheduled mixed mutation/query submissions from >= 4 concurrent
//     threads must produce results identical to serialized execution,
//     across pool widths 1/4/8 — the differential that makes the contract
//     checkable (and the workload the TSan CI job races at SG_THREADS=4);
//   * read-your-writes: a query submitted after a mutation's future
//     resolved observes that mutation; analytics on a never-mutated static
//     prefix return exact answers at every interleaving;
//   * stats (phase switches, coalesced batches, per-kind counts), drain,
//     submit_* results against the reference model, and exception
//     propagation through the futures.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <future>
#include <thread>
#include <vector>

#include "src/core/dyn_graph.hpp"
#include "src/core/phase_scheduler.hpp"
#include "src/simt/thread_pool.hpp"
#include "src/util/prng.hpp"
#include "tests/graph_test_util.hpp"

namespace sg::core {
namespace {

using namespace testutil;

// --------------------------------------------------------------------------
// Standalone conductor tests (toy ops; no graph involved)
// --------------------------------------------------------------------------

/// Toy ops that count in-flight operations per kind and log invocation
/// sizes; the scheduler must never let the two kinds overlap.
struct ToyOps {
  std::atomic<int> active_mutations{0};
  std::atomic<int> active_queries{0};
  std::atomic<int> overlap_violations{0};
  std::atomic<int> mutation_calls{0};
  std::atomic<bool> gate_open{true};  ///< first insert call spins until open

  PhaseScheduler::Ops ops() {
    PhaseScheduler::Ops o;
    o.insert_edges = [this](std::span<const WeightedEdge> edges) {
      const int call = ++mutation_calls;
      ++active_mutations;
      if (call == 1) {
        while (!gate_open.load(std::memory_order_acquire)) {
          std::this_thread::yield();
        }
      }
      if (active_queries.load() != 0) ++overlap_violations;
      --active_mutations;
      return static_cast<std::uint64_t>(edges.size());
    };
    o.delete_edges = [this](std::span<const Edge> edges) {
      ++mutation_calls;
      ++active_mutations;
      if (active_queries.load() != 0) ++overlap_violations;
      --active_mutations;
      return static_cast<std::uint64_t>(edges.size());
    };
    o.edges_exist = [this](std::span<const Edge> queries, std::uint8_t* out) {
      ++active_queries;
      if (active_mutations.load() != 0) ++overlap_violations;
      for (std::size_t i = 0; i < queries.size(); ++i) out[i] = 1;
      --active_queries;
    };
    return o;
  }
};

std::vector<WeightedEdge> toy_inserts(std::size_t n) {
  return std::vector<WeightedEdge>(n, WeightedEdge{1, 2, 3});
}
std::vector<Edge> toy_edges(std::size_t n) {
  return std::vector<Edge>(n, Edge{1, 2});
}

TEST(PhaseSchedulerConductor, CoalescesQueuedSameOpMutationsIntoOneBatch) {
  ToyOps toy;
  toy.gate_open.store(false);
  PhaseScheduler sched(toy.ops());

  // Phase 1 snapshots f1 alone; the gated op then holds the phase open
  // while three more submissions queue, so the next phase must admit all
  // three — the two inserts merged into ONE engine call (group total 5),
  // the erase as its own group in the same phase.
  auto f1 = sched.submit_insert(toy_inserts(1));
  while (toy.mutation_calls.load() < 1) std::this_thread::yield();
  auto f2 = sched.submit_insert(toy_inserts(2));
  auto f3 = sched.submit_insert(toy_inserts(3));
  auto f4 = sched.submit_erase(toy_edges(4));
  toy.gate_open.store(true, std::memory_order_release);

  EXPECT_EQ(f1.get(), 1u);
  EXPECT_EQ(f2.get(), 5u);  // group total: 2 + 3 staged as one batch
  EXPECT_EQ(f3.get(), 5u);
  EXPECT_EQ(f4.get(), 4u);
  sched.drain();

  const PhaseScheduleStats stats = sched.stats();
  EXPECT_EQ(stats.submitted_mutations, 4u);
  EXPECT_EQ(stats.mutation_phases, 2u);
  EXPECT_EQ(stats.coalesced_batches, 2u);  // f3 and f4 rode f2's phase
  EXPECT_EQ(toy.mutation_calls.load(), 3);  // f1 | f2+f3 merged | f4
}

TEST(PhaseSchedulerConductor, PreservesFifoOrderAcrossKinds) {
  ToyOps toy;
  toy.gate_open.store(false);
  PhaseScheduler sched(toy.ops());

  auto f1 = sched.submit_insert(toy_inserts(1));
  while (toy.mutation_calls.load() < 1) std::this_thread::yield();
  // Queue M Q M while the conductor is held: the query FENCES the two
  // mutations apart (a phase admits the longest same-kind prefix, never
  // cherry-picks around the queue), so the second insert must NOT merge
  // with anything and must run after the query phase.
  auto f2 = sched.submit_insert(toy_inserts(2));
  auto fq = sched.submit_edges_exist(toy_edges(3));
  auto f3 = sched.submit_insert(toy_inserts(4));
  toy.gate_open.store(true, std::memory_order_release);

  EXPECT_EQ(f2.get(), 2u);  // alone in its group: exact count
  EXPECT_EQ(fq.get().size(), 3u);
  EXPECT_EQ(f3.get(), 4u);
  sched.drain();

  const PhaseScheduleStats stats = sched.stats();
  EXPECT_EQ(stats.mutation_phases, 3u);  // f1 | f2 | f3
  EXPECT_EQ(stats.query_phases, 1u);
  EXPECT_GE(stats.phase_switches, 2u);  // M->Q and Q->M at least
  EXPECT_EQ(toy.overlap_violations.load(), 0);
  (void)f1;
}

TEST(PhaseSchedulerConductor, MutationAndQueryPhasesNeverOverlap) {
  ToyOps toy;
  PhaseScheduler sched(toy.ops());
  // Hammer from several threads; the toy ops cross-check the other kind's
  // in-flight counter on every call.
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&sched, t] {
      for (int i = 0; i < 50; ++i) {
        if ((t + i) % 2 == 0) {
          sched.submit_insert(toy_inserts(8));
        } else {
          sched.submit_edges_exist(toy_edges(8));
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  sched.drain();
  EXPECT_EQ(toy.overlap_violations.load(), 0);
  const PhaseScheduleStats stats = sched.stats();
  EXPECT_EQ(stats.submitted_mutations + stats.submitted_queries, 200u);
  EXPECT_GE(stats.phase_switches, 1u);
}

TEST(PhaseSchedulerConductor, DestructorRejectsPendingSubmissions) {
  std::future<std::uint64_t> in_flight;
  std::future<std::uint64_t> queued;
  {
    ToyOps toy;
    toy.gate_open.store(false);
    PhaseScheduler sched(toy.ops());
    // Phase 1 opens on f1 and spins on the gate; f2 queues behind it and is
    // still pending when the destructor runs.
    in_flight = sched.submit_insert(toy_inserts(7));
    while (toy.mutation_calls.load() < 1) std::this_thread::yield();
    queued = sched.submit_insert(toy_inserts(3));
    // Open the gate only after ~PhaseScheduler has set its stop flag, so
    // the conductor deterministically sees stop before dequeuing f2. The
    // destructor's first action is setting the flag; the opener's sleep
    // starts after destruction began.
    std::thread opener([&toy] {
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
      toy.gate_open.store(true, std::memory_order_release);
    });
    opener.detach();
  }  // destructor: finishes the open phase, REJECTS the queued submission
  EXPECT_EQ(in_flight.get(), 7u);  // in-flight work completes normally
  try {
    queued.get();
    FAIL() << "queued submission must be rejected at shutdown, not run";
  } catch (const SubmitRejected& e) {
    EXPECT_EQ(e.reason(), RejectReason::kShutdown);
  }
}

TEST(PhaseSchedulerConductor, DestructorRejectsPendingAnalytics) {
  std::future<std::uint64_t> in_flight;
  std::future<void> queued_task;
  std::future<void> queued_snapshot;
  std::atomic<int> ran{0};
  {
    ToyOps toy;
    toy.gate_open.store(false);
    PhaseScheduler sched(toy.ops());
    // The gated mutation phase holds the conductor; analytics (and a
    // snapshot, which is analytics-kind) queue behind it and are still
    // pending at destruction. A rejected analytics task must never run.
    in_flight = sched.submit_insert(toy_inserts(7));
    while (toy.mutation_calls.load() < 1) std::this_thread::yield();
    queued_task = sched.submit_analytics([&ran] { ++ran; });
    queued_snapshot = sched.submit_snapshot([&ran] { ++ran; });
    std::thread opener([&toy] {
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
      toy.gate_open.store(true, std::memory_order_release);
    });
    opener.detach();
  }  // destructor: finishes the open phase, rejects both queued analytics
  EXPECT_EQ(in_flight.get(), 7u);
  for (std::future<void>* f : {&queued_task, &queued_snapshot}) {
    try {
      f->get();
      FAIL() << "queued analytics must be rejected at shutdown, not run";
    } catch (const SubmitRejected& e) {
      EXPECT_EQ(e.reason(), RejectReason::kShutdown);
    }
  }
  EXPECT_EQ(ran.load(), 0);  // rejection means the task body never executed
}

// --------------------------------------------------------------------------
// Admission control (bounded queues, backpressure, deadlines)
// --------------------------------------------------------------------------

TEST(PhaseSchedulerAdmission, RejectPolicyResolvesFutureWithQueueFull) {
  ToyOps toy;
  toy.gate_open.store(false);
  PhaseScheduler::Limits limits;
  limits.max_pending_submissions = 2;
  limits.backpressure = BackpressurePolicy::kReject;
  PhaseScheduler sched(toy.ops(), limits);

  auto f1 = sched.submit_insert(toy_inserts(1));  // enters the gated phase
  while (toy.mutation_calls.load() < 1) std::this_thread::yield();
  auto f2 = sched.submit_insert(toy_inserts(2));  // queued (depth 1)
  auto f3 = sched.submit_insert(toy_inserts(3));  // queued (depth 2 = cap)
  auto f4 = sched.submit_insert(toy_inserts(4));  // over the cap: rejected
  toy.gate_open.store(true, std::memory_order_release);

  EXPECT_EQ(f1.get(), 1u);
  EXPECT_EQ(f2.get(), 5u);  // f2 + f3 coalesce: group total
  EXPECT_EQ(f3.get(), 5u);
  try {
    f4.get();
    FAIL() << "submission over the cap must be rejected under kReject";
  } catch (const SubmitRejected& e) {
    EXPECT_EQ(e.reason(), RejectReason::kQueueFull);
  }
  sched.drain();
  const PhaseScheduleStats stats = sched.stats();
  EXPECT_EQ(stats.rejected_submissions, 1u);
  EXPECT_EQ(stats.max_queue_depth, 2u);
  EXPECT_EQ(stats.submitted_mutations, 3u);  // rejected ones never count
}

TEST(PhaseSchedulerAdmission, PendingEdgeCapCountsItemsNotSubmissions) {
  ToyOps toy;
  toy.gate_open.store(false);
  PhaseScheduler::Limits limits;
  limits.max_pending_edges = 10;
  limits.backpressure = BackpressurePolicy::kReject;
  PhaseScheduler sched(toy.ops(), limits);

  auto f1 = sched.submit_insert(toy_inserts(1));
  while (toy.mutation_calls.load() < 1) std::this_thread::yield();
  // An oversized submission is admitted when the queue is EMPTY (it must
  // not wedge forever) ...
  auto f2 = sched.submit_insert(toy_inserts(50));
  // ... but with 50 items pending, anything more overflows the item cap.
  auto f3 = sched.submit_insert(toy_inserts(1));
  toy.gate_open.store(true, std::memory_order_release);

  EXPECT_EQ(f1.get(), 1u);
  EXPECT_EQ(f2.get(), 50u);
  EXPECT_THROW(f3.get(), SubmitRejected);
  sched.drain();
  EXPECT_EQ(sched.stats().rejected_submissions, 1u);
}

TEST(PhaseSchedulerAdmission, BlockPolicyAdmitsWhenSpaceFrees) {
  ToyOps toy;
  toy.gate_open.store(false);
  PhaseScheduler::Limits limits;
  limits.max_pending_submissions = 1;
  limits.backpressure = BackpressurePolicy::kBlock;  // no timeout: wait
  PhaseScheduler sched(toy.ops(), limits);

  auto f1 = sched.submit_insert(toy_inserts(1));
  while (toy.mutation_calls.load() < 1) std::this_thread::yield();
  auto f2 = sched.submit_insert(toy_inserts(2));  // fills the queue
  // f3 must BLOCK in submit until the conductor drains f2, then be
  // admitted and complete normally.
  std::future<std::uint64_t> f3;
  std::thread blocked([&] { f3 = sched.submit_insert(toy_inserts(3)); });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  toy.gate_open.store(true, std::memory_order_release);
  blocked.join();
  EXPECT_EQ(f1.get(), 1u);
  EXPECT_GT(f2.get(), 0u);  // possibly coalesced with f3
  EXPECT_GT(f3.get(), 0u);
  sched.drain();
  const PhaseScheduleStats stats = sched.stats();
  EXPECT_EQ(stats.rejected_submissions, 0u);
  // blocked_ns is asserted nonzero in the timeout test below, where the
  // wait duration is deterministic; here the helper thread might (rarely)
  // reach submit after the queue already drained.
  EXPECT_LE(stats.max_queue_depth, 1u);
}

TEST(PhaseSchedulerAdmission, BlockPolicyTimesOutToTypedRejection) {
  ToyOps toy;
  toy.gate_open.store(false);
  PhaseScheduler::Limits limits;
  limits.max_pending_submissions = 1;
  limits.backpressure = BackpressurePolicy::kBlock;
  limits.submit_timeout_ms = 30;
  PhaseScheduler sched(toy.ops(), limits);

  auto f1 = sched.submit_insert(toy_inserts(1));
  while (toy.mutation_calls.load() < 1) std::this_thread::yield();
  auto f2 = sched.submit_insert(toy_inserts(2));
  // The gate stays closed past the timeout: f3's wait must give up.
  auto f3 = sched.submit_insert(toy_inserts(3));
  try {
    f3.get();
    FAIL() << "blocked submission must time out";
  } catch (const SubmitRejected& e) {
    EXPECT_EQ(e.reason(), RejectReason::kTimeout);
  }
  toy.gate_open.store(true, std::memory_order_release);
  EXPECT_EQ(f1.get(), 1u);
  EXPECT_EQ(f2.get(), 2u);
  sched.drain();
  const PhaseScheduleStats stats = sched.stats();
  EXPECT_EQ(stats.rejected_submissions, 1u);
  EXPECT_GT(stats.blocked_ns, 0u);
}

TEST(PhaseSchedulerAdmission, ShedOldestQueriesEvictsQueriesNeverMutations) {
  ToyOps toy;
  toy.gate_open.store(false);
  PhaseScheduler::Limits limits;
  limits.max_pending_submissions = 2;
  limits.backpressure = BackpressurePolicy::kShedOldestQueries;
  PhaseScheduler sched(toy.ops(), limits);

  auto f1 = sched.submit_insert(toy_inserts(1));  // gated phase opens
  while (toy.mutation_calls.load() < 1) std::this_thread::yield();
  auto q1 = sched.submit_edges_exist(toy_edges(2));  // queued
  auto m2 = sched.submit_insert(toy_inserts(3));     // queued: cap reached
  // m3 arrives at the cap: the oldest pending QUERY (q1) is shed to make
  // room; the mutation m2 stays.
  auto m3 = sched.submit_insert(toy_inserts(4));
  // m4 arrives at the cap again, but only mutations remain: rejected.
  auto m4 = sched.submit_insert(toy_inserts(5));
  toy.gate_open.store(true, std::memory_order_release);

  EXPECT_EQ(f1.get(), 1u);
  try {
    q1.get();
    FAIL() << "oldest pending query must be shed";
  } catch (const SubmitRejected& e) {
    EXPECT_EQ(e.reason(), RejectReason::kShed);
  }
  EXPECT_EQ(m2.get(), 7u);  // m2 + m3 coalesce: group total 3 + 4
  EXPECT_EQ(m3.get(), 7u);
  try {
    m4.get();
    FAIL() << "nothing sheddable: newcomer must be rejected";
  } catch (const SubmitRejected& e) {
    EXPECT_EQ(e.reason(), RejectReason::kQueueFull);
  }
  sched.drain();
  const PhaseScheduleStats stats = sched.stats();
  EXPECT_EQ(stats.shed_queries, 1u);
  EXPECT_EQ(stats.rejected_submissions, 1u);
}

TEST(PhaseSchedulerAdmission, ExpiredQueriesAreRejectedAtPhaseAdmission) {
  ToyOps toy;
  toy.gate_open.store(false);
  PhaseScheduler sched(toy.ops());

  auto f1 = sched.submit_insert(toy_inserts(1));  // gated phase opens
  while (toy.mutation_calls.load() < 1) std::this_thread::yield();
  // One query with a deadline the gated mutation phase will outlive, one
  // without: when the query phase finally opens, the first is rejected at
  // admission and the second still runs.
  auto expired = sched.submit_edges_exist(toy_edges(2), /*deadline_ms=*/1);
  auto fresh = sched.submit_edges_exist(toy_edges(3));
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  toy.gate_open.store(true, std::memory_order_release);

  EXPECT_EQ(f1.get(), 1u);
  try {
    expired.get();
    FAIL() << "query admitted past its deadline must be rejected";
  } catch (const SubmitRejected& e) {
    EXPECT_EQ(e.reason(), RejectReason::kDeadlineExpired);
  }
  EXPECT_EQ(fresh.get().size(), 3u);
  sched.drain();
  const PhaseScheduleStats stats = sched.stats();
  EXPECT_EQ(stats.expired_queries, 1u);
}

// --------------------------------------------------------------------------
// DynGraph scheduled mode
// --------------------------------------------------------------------------

class PhaseSchedulerWidthSweep : public ::testing::TestWithParam<unsigned> {
 protected:
  void SetUp() override { simt::ThreadPool::instance().resize(GetParam()); }
  void TearDown() override { simt::ThreadPool::instance().resize(0); }
};

/// The acceptance differential: >= 4 concurrent submitter threads mix
/// insert / erase / exist submissions on one scheduled graph. Each thread
/// owns a disjoint source range (so the interleaving is commutative and a
/// serialized model exists); a never-mutated static prefix is probed from
/// every thread mid-stream and must answer exactly at every interleaving;
/// each thread checks read-your-writes on its own range. The final graph
/// must equal the reference model fed the same ops serially.
TEST_P(PhaseSchedulerWidthSweep, MixedSubmittersMatchSerializedExecution) {
  constexpr unsigned kSubmitters = 4;
  constexpr std::uint32_t kRange = 64;         // sources per submitter
  constexpr std::uint32_t kStaticBase = 512;   // static prefix sources
  constexpr int kBatches = 5;
  constexpr std::size_t kBatchEdges = 160;

  GraphConfig cfg;
  cfg.vertex_capacity = 1024;

  // Static prefix: inserted synchronously before any submitter starts;
  // submitter mutations never touch sources >= kStaticBase, so these
  // adjacency lists are invariant for the whole run.
  std::vector<WeightedEdge> static_edges;
  for (std::uint32_t k = 0; k < 100; ++k) {
    static_edges.push_back({kStaticBase + k, k, k + 1});
  }
  std::vector<Edge> static_probes;   // alternating hit / miss
  std::vector<std::uint8_t> static_expected;
  for (std::uint32_t k = 0; k < 100; ++k) {
    static_probes.push_back({kStaticBase + k, k});
    static_expected.push_back(1);
    static_probes.push_back({kStaticBase + k, k + 5000});
    static_expected.push_back(0);
  }

  DynGraphMap scheduled(cfg);
  scheduled.insert_edges(static_edges);

  // Deterministic per-thread workload, also replayed into the model.
  struct ThreadOps {
    std::vector<std::vector<WeightedEdge>> insert_batches;
    std::vector<Edge> erase_batch;
  };
  std::vector<ThreadOps> ops(kSubmitters);
  for (unsigned t = 0; t < kSubmitters; ++t) {
    util::Xoshiro256 rng(1000 + t);
    const std::uint32_t base = t * kRange;
    for (int b = 0; b < kBatches; ++b) {
      std::vector<WeightedEdge> batch(kBatchEdges);
      for (auto& e : batch) {
        e = {base + static_cast<VertexId>(rng.below(kRange)),
             static_cast<VertexId>(rng.below(1024)),
             static_cast<Weight>(rng.below(1u << 16))};
      }
      ops[t].insert_batches.push_back(std::move(batch));
    }
    // Erase a deterministic subset of the thread's own inserts (plus some
    // never-present edges, which must count as misses for the model too).
    for (std::size_t i = 0; i < ops[t].insert_batches[0].size(); i += 3) {
      const auto& e = ops[t].insert_batches[0][i];
      ops[t].erase_batch.push_back({e.src, e.dst});
    }
    ops[t].erase_batch.push_back({base, 9999});
  }

  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (unsigned t = 0; t < kSubmitters; ++t) {
    threads.emplace_back([&, t] {
      std::vector<std::future<std::vector<std::uint8_t>>> analytics;
      for (int b = 0; b < kBatches; ++b) {
        auto mut = scheduled.submit_insert(ops[t].insert_batches[b]);
        // Mid-stream analytics on the static prefix: fire-and-collect.
        analytics.push_back(scheduled.submit_edges_exist(static_probes));
        mut.get();
      }
      auto erased = scheduled.submit_erase(ops[t].erase_batch);
      erased.get();
      // Read-your-writes: the erase future resolved, so a query submitted
      // NOW must see batch-0 edges minus the erased subset... unless a
      // later batch of this thread re-inserted the pair, which the model
      // below accounts for; here spot-check a pair no later batch can
      // contain (dst 9999 was only ever erased, never inserted).
      std::vector<Edge> own_probe{{t * kRange, 9999}};
      const auto own = scheduled.submit_edges_exist(own_probe).get();
      if (own[0] != 0) ++failures;
      for (auto& f : analytics) {
        const auto hits = f.get();
        for (std::size_t i = 0; i < hits.size(); ++i) {
          if (hits[i] != static_expected[i]) ++failures;
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  scheduled.schedule_drain();
  EXPECT_EQ(failures.load(), 0);

  // Serialized model: identical ops, thread-by-thread — commutative
  // because source ranges are disjoint.
  ReferenceGraph model;
  model.insert(static_edges);
  for (unsigned t = 0; t < kSubmitters; ++t) {
    for (const auto& batch : ops[t].insert_batches) model.insert(batch);
    model.erase(ops[t].erase_batch);
  }
  expect_matches_model(scheduled, model);

  const PhaseScheduleStats stats = scheduled.last_schedule_stats();
  EXPECT_EQ(stats.submitted_mutations, kSubmitters * (kBatches + 1));
  EXPECT_EQ(stats.submitted_queries, kSubmitters * (kBatches + 1));
  EXPECT_GE(stats.phase_switches, 1u);
  EXPECT_GT(stats.mutation_phases, 0u);
  EXPECT_GT(stats.query_phases, 0u);
}

/// Same mixed-submitter shape on the set variant (no weights): the
/// scheduler is shared, type-erased infrastructure, so both policies must
/// hold the contract.
TEST_P(PhaseSchedulerWidthSweep, SetVariantMatchesSerializedExecution) {
  constexpr unsigned kSubmitters = 4;
  constexpr std::uint32_t kRange = 32;
  GraphConfig cfg;
  cfg.vertex_capacity = 256;
  DynGraphSet scheduled(cfg);

  std::vector<std::vector<WeightedEdge>> batches(kSubmitters);
  for (unsigned t = 0; t < kSubmitters; ++t) {
    util::Xoshiro256 rng(77 + t);
    for (int i = 0; i < 300; ++i) {
      batches[t].push_back({t * kRange + static_cast<VertexId>(rng.below(kRange)),
                            static_cast<VertexId>(rng.below(256)), 0});
    }
  }
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (unsigned t = 0; t < kSubmitters; ++t) {
    threads.emplace_back([&, t] {
      auto f = scheduled.submit_insert(batches[t]);
      f.get();
      // Read-your-writes on the first own edge.
      std::vector<Edge> probe{{batches[t][0].src, batches[t][0].dst}};
      if (scheduled.submit_edges_exist(probe).get()[0] != 1) ++failures;
    });
  }
  for (auto& th : threads) th.join();
  scheduled.schedule_drain();
  EXPECT_EQ(failures.load(), 0);

  ReferenceGraph model;
  for (unsigned t = 0; t < kSubmitters; ++t) model.insert(batches[t]);
  expect_matches_model(scheduled, model);
}

INSTANTIATE_TEST_SUITE_P(PoolWidths, PhaseSchedulerWidthSweep,
                         ::testing::Values(1u, 4u, 8u));

TEST(ScheduledMode, WeightQueriesResolveAgainstPhaseConsistentState) {
  GraphConfig cfg;
  cfg.vertex_capacity = 64;
  DynGraphMap g(cfg);
  g.submit_insert({{1, 2, 10}, {1, 3, 20}, {2, 3, 30}}).get();
  const EdgeWeightBatch r =
      g.submit_edge_weights({{1, 2}, {1, 3}, {2, 3}, {3, 1}}).get();
  ASSERT_EQ(r.weights.size(), 4u);
  EXPECT_EQ(r.weights[0], 10u);
  EXPECT_EQ(r.weights[1], 20u);
  EXPECT_EQ(r.weights[2], 30u);
  EXPECT_EQ(r.found[3], 0);
  // Most-recent-wins holds across coalesced submissions exactly as across
  // batches: a later submission's weight replaces an earlier one's.
  g.submit_insert({{1, 2, 99}}).get();
  EXPECT_EQ(g.submit_edge_weights({{1, 2}}).get().weights[0], 99u);
}

TEST(ScheduledMode, SubmitResultsMatchModel) {
  GraphConfig cfg;
  cfg.vertex_capacity = 128;
  DynGraphMap g(cfg);
  ReferenceGraph model;

  const auto batch = random_batch(5, 500, 100);
  EXPECT_EQ(g.submit_insert(batch).get(), model.insert(batch));
  const auto probes = std::vector<Edge>{{batch[0].src, batch[0].dst},
                                        {batch[1].src, batch[1].dst},
                                        {120, 121}};
  EXPECT_EQ(g.submit_edges_exist(probes).get(), model.exist(probes));
  const EdgeWeightBatch weights = g.submit_edge_weights(probes).get();
  for (std::size_t i = 0; i < probes.size(); ++i) {
    EXPECT_EQ(weights.weights[i], model.weight(probes[i].src, probes[i].dst));
  }
  const std::vector<Edge> erases = pairs_of(random_batch(6, 200, 100));
  EXPECT_EQ(g.submit_erase(erases).get(), model.erase(erases));
  expect_matches_model(g, model);
  EXPECT_GT(g.last_schedule_stats().submitted_mutations, 0u);
}

TEST(ScheduledMode, ExceptionsPropagateThroughTheFuture) {
  GraphConfig cfg;
  DynGraphMap g(cfg);
  // An out-of-range vertex id fails batch validation inside the phase; the
  // error must surface on the submitter's future, not kill the conductor.
  std::vector<WeightedEdge> bad{{kMaxVertexId + 1, 1, 1}};
  EXPECT_THROW(g.submit_insert(std::move(bad)).get(), std::invalid_argument);
  // The conductor survives: later submissions still run.
  EXPECT_EQ(g.submit_insert({{1, 2, 3}}).get(), 1u);
}

/// S3 regression: a query job that throws ON A POOL THREAD (query phases
/// run as ThreadPool jobs, unlike mutations which run on the conductor)
/// must surface on the submitter's future — not escape the pool worker and
/// std::terminate — and must not poison later phases.
TEST(ScheduledMode, ThrowingPoolJobSurfacesOnFutureNotTerminate) {
  simt::ThreadPool::instance().resize(4);
  ToyOps toy;
  PhaseScheduler::Ops ops = toy.ops();
  ops.edges_exist = [](std::span<const Edge> queries, std::uint8_t* out) {
    if (queries.size() == 13) {
      throw std::runtime_error("query job died on a pool thread");
    }
    for (std::size_t i = 0; i < queries.size(); ++i) out[i] = 1;
  };
  PhaseScheduler sched(ops);
  auto poisoned = sched.submit_edges_exist(toy_edges(13));
  auto healthy = sched.submit_edges_exist(toy_edges(5));
  EXPECT_THROW(poisoned.get(), std::runtime_error);
  EXPECT_EQ(healthy.get().size(), 5u);  // phase survives a sibling's death
  // The conductor survives too: a later mutation phase still runs.
  EXPECT_EQ(sched.submit_insert(toy_inserts(2)).get(), 2u);
  simt::ThreadPool::instance().resize(0);
}

/// S2 acceptance (the TSan CI job races this at SG_THREADS=4): destroy a
/// scheduled DynGraph while concurrent submitters' work is still queued.
/// Every future must RESOLVE — either with a value (the phase committed
/// before shutdown) or with SubmitRejected{kShutdown} — and nothing may
/// deadlock, leak, or touch the dying graph.
TEST(ScheduledMode, DestroyingGraphWithInFlightSubmissionsResolvesEveryFuture) {
  constexpr unsigned kSubmitters = 4;
  constexpr int kPerThread = 16;
  std::vector<std::future<std::uint64_t>> mutations;
  std::vector<std::future<std::vector<std::uint8_t>>> queries;
  std::vector<std::future<void>> analytics;
  std::atomic<std::uint64_t> analytics_ran{0};
  std::mutex futures_mutex;
  {
    GraphConfig cfg;
    cfg.vertex_capacity = 256;
    DynGraphMap g(cfg);
    std::vector<std::thread> threads;
    for (unsigned t = 0; t < kSubmitters; ++t) {
      threads.emplace_back([&, t] {
        for (int i = 0; i < kPerThread; ++i) {
          const VertexId src = t * 64 + static_cast<VertexId>(i);
          auto m = g.submit_insert({{src, src + 1, 7}});
          auto q = g.submit_edges_exist({{src, src + 1}});
          auto a = g.submit_analytics([&analytics_ran] { ++analytics_ran; });
          std::lock_guard<std::mutex> lk(futures_mutex);
          mutations.push_back(std::move(m));
          queries.push_back(std::move(q));
          analytics.push_back(std::move(a));
        }
      });
    }
    for (auto& th : threads) th.join();
    // The graph dies here with (typically) submissions still queued.
  }
  // Whatever was admitted before shutdown ran (its future carries the
  // coalesced group total); everything else was rejected with kShutdown,
  // never dropped: every future accounts for itself, none hangs. Any other
  // exception escapes and fails the test.
  std::uint64_t completed = 0, rejected = 0;
  for (auto& f : mutations) {
    try {
      EXPECT_GE(f.get(), 1u);
      ++completed;
    } catch (const SubmitRejected& e) {
      EXPECT_EQ(e.reason(), RejectReason::kShutdown);
      ++rejected;
    }
  }
  for (auto& f : queries) {
    try {
      (void)f.get();
    } catch (const SubmitRejected& e) {
      EXPECT_EQ(e.reason(), RejectReason::kShutdown);
    }
  }
  EXPECT_EQ(completed + rejected, kSubmitters * kPerThread);
  // Analytics obey the same contract: every future resolves, and the number
  // of task bodies that actually ran equals the number of futures that
  // resolved with a value — a rejected task never half-executes.
  std::uint64_t analytics_ok = 0;
  for (auto& f : analytics) {
    try {
      f.get();
      ++analytics_ok;
    } catch (const SubmitRejected& e) {
      EXPECT_EQ(e.reason(), RejectReason::kShutdown);
    }
  }
  EXPECT_EQ(analytics_ran.load(), analytics_ok);
}

/// Bounded-queue acceptance at the graph level: with GraphConfig caps and
/// the default kBlock policy, overload just serializes submitters — no
/// rejection, no loss, queue depth bounded, final graph equals the model.
TEST(ScheduledMode, BoundedQueueBlockingMatchesOracle) {
  GraphConfig cfg;
  cfg.vertex_capacity = 256;
  cfg.max_pending_submissions = 2;
  cfg.max_pending_edges = 64;
  DynGraphMap g(cfg);

  std::vector<std::vector<WeightedEdge>> batches;
  util::Xoshiro256 rng(321);
  for (int b = 0; b < 12; ++b) {
    std::vector<WeightedEdge> batch(20);
    for (auto& e : batch) {
      e = {static_cast<VertexId>(rng.below(256)),
           static_cast<VertexId>(rng.below(256)),
           static_cast<Weight>(1 + rng.below(100))};
    }
    batches.push_back(std::move(batch));
  }
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      for (int b = t; b < 12; b += 4) {
        g.submit_insert(batches[b]).get();  // waits: batches commute anyway
      }
    });
  }
  for (auto& th : threads) th.join();
  g.schedule_drain();

  ReferenceGraph model;
  for (const auto& batch : batches) model.insert(batch);
  // Overlapping (src,dst) across batches resolve most-recent-wins; with
  // every submitter waiting on its future, submission order is a valid
  // serialization, but weights may differ across interleavings — compare
  // the unweighted edge sets.
  EdgeSet unweighted;
  for (const auto& [u, v, w] : graph_edges(g)) unweighted.insert({u, v, 0});
  EXPECT_EQ(unweighted, model.edges(/*with_weights=*/false));
  const PhaseScheduleStats stats = g.last_schedule_stats();
  EXPECT_EQ(stats.rejected_submissions, 0u);
  EXPECT_LE(stats.max_queue_depth, 2u);
}

TEST(ScheduledMode, DrainAndStatsAreNoOpsWithoutSubmissions) {
  GraphConfig cfg;
  DynGraphMap g(cfg);
  g.schedule_drain();  // no scheduler yet: must not block or create one
  const PhaseScheduleStats stats = g.last_schedule_stats();
  EXPECT_EQ(stats.submitted_mutations + stats.submitted_queries, 0u);
  EXPECT_EQ(stats.mutation_phases + stats.query_phases, 0u);
}

}  // namespace
}  // namespace sg::core
