// Epoch-based phase scheduler: makes the phase-concurrent contract (§II-A)
// enforceable instead of advisory.
//
// The structure is phase-concurrent: mutation batches and query batches are
// each internally parallel, but a mutation batch must never overlap a query
// batch. Until now that interleaving was the CALLER's problem — the graph's
// batch_mutex_ only serializes mutations against each other, and nothing
// stops a thread from calling edges_exist while another thread's
// insert_edges is mid-apply. DynoGraph-style streaming workloads (ingest
// interleaved with analytics epochs) need that contract enforced by the
// structure itself.
//
// The scheduler accepts mutation batches, query batches, and analytics
// tasks from ANY thread, classifies each submission by kind, and runs the
// stream as alternating PHASES:
//
//   * every submission queued at a phase boundary of the same kind is
//     admitted into the shared phase — small submissions coalesce;
//   * within a MUTATION phase, consecutive same-operation submissions are
//     concatenated (submission order preserved) and applied as ONE engine
//     batch, riding the engine's double-buffered epoch pipeline — the
//     "shared epochs" that make many small ingest calls cost like one big
//     one;
//   * within a QUERY phase, every admitted batch runs CONCURRENTLY as its
//     own ThreadPool job (query batches are safely concurrent with each
//     other; each is internally pipelined as before);
//   * within an ANALYTICS phase (submit_analytics — the third fenced
//     kind), every admitted task runs concurrently as its own pool job;
//     tasks traverse the graph read-only (bulk gathers, queries) against
//     a phase-consistent state, which is what lets dynamic triangle count
//     consume mutation batches as deltas inside the pipeline;
//   * between phases of different kinds the conductor FENCES: the next
//     phase opens only after every task of the open phase has completed.
//
// A single conductor thread owns phase selection, so mutation batches are
// serialized by construction — in scheduled mode the conductor, not the
// graph's raw batch_mutex_, is the serialization point (the mutex remains
// armed for direct synchronous calls and is uncontended under the
// scheduler). Submission order is FIFO: a thread that submits A before B
// observes A applied before B, and a thread that waits on a mutation's
// future before submitting a query is guaranteed the query sees that
// mutation.
//
// Fairness: a phase admits the longest same-kind PREFIX of the FIFO queue
// — never cherry-picking around an opposite-kind submission — so the queue
// head always opens the next phase and neither kind can starve the other,
// while every burst of same-kind submissions still coalesces. Stats (phase
// switches, coalesced submissions, fence wait time) are exposed through
// stats() / DynGraph::last_schedule_stats().
//
// Admission control (docs/ROBUSTNESS.md): the pending queue can be bounded
// (Limits / GraphConfig::max_pending_submissions, max_pending_edges), with
// the overflow behavior selected by BackpressurePolicy — block the
// submitter (optionally with a timeout), reject the newcomer, or shed the
// oldest pending queries (mutations are never shed). Queries may carry a
// deadline; the conductor rejects expired ones at phase admission instead
// of running them. Every refused submission resolves its future to
// core::SubmitRejected with a typed reason — nothing is silently dropped,
// including at shutdown, where the destructor rejects (not runs) whatever
// is still queued.
//
// The scheduler is type-erased over the graph: DynGraph<Policy> hands it
// four callbacks (PhaseScheduler::Ops) bound to its existing batched entry
// points, so one non-templated conductor serves both the map and set
// variants.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <future>
#include <mutex>
#include <span>
#include <thread>
#include <variant>
#include <vector>

#include "src/core/errors.hpp"
#include "src/core/types.hpp"

namespace sg::core {

/// Result of a scheduled batched weight lookup (DynGraphMap only):
/// weights[i] is the stored weight of queries[i] (0 on a miss) and
/// found[i] = 1 iff the edge is present.
struct EdgeWeightBatch {
  std::vector<Weight> weights;
  std::vector<std::uint8_t> found;
};

/// Counters of the scheduled stream since construction. Snapshot via
/// PhaseScheduler::stats() (or DynGraph::last_schedule_stats()).
struct PhaseScheduleStats {
  std::uint64_t submitted_mutations = 0;  ///< insert/erase submissions
  std::uint64_t submitted_queries = 0;    ///< exist/weight submissions
  std::uint64_t submitted_analytics = 0;  ///< analytics-task submissions
  std::uint64_t submitted_snapshots = 0;  ///< snapshot-task submissions
  std::uint64_t submitted_maintenance = 0;  ///< aged-erase/compact submissions
  std::uint64_t mutation_phases = 0;      ///< phases that ran mutations
  std::uint64_t query_phases = 0;         ///< phases that ran queries
  std::uint64_t analytics_phases = 0;     ///< phases that ran analytics
  /// Mutation->query / query->mutation transitions: each one paid a fence.
  std::uint64_t phase_switches = 0;
  /// Submissions beyond the first admitted into each phase — batches that
  /// shared a phase (and, for consecutive same-op mutations, a single
  /// engine batch / epoch pipeline) instead of paying their own fence.
  std::uint64_t coalesced_batches = 0;
  /// Conductor wall-clock spent blocked on an open phase's outstanding
  /// tasks before the next phase could open (the fence cost).
  double fence_wait_seconds = 0.0;
  // ---- admission control (docs/ROBUSTNESS.md) --------------------------
  /// Submissions refused outright: queue full under kReject (or with
  /// nothing sheddable under kShedOldestQueries), kBlock timeout, or
  /// submit/shutdown races. Each resolved its future to SubmitRejected.
  std::uint64_t rejected_submissions = 0;
  /// Pending queries evicted by kShedOldestQueries to admit newer work.
  std::uint64_t shed_queries = 0;
  /// Queries whose deadline had passed when their phase opened; rejected
  /// at admission instead of run.
  std::uint64_t expired_queries = 0;
  /// Total submitter wall-clock spent blocked by kBlock backpressure.
  std::uint64_t blocked_ns = 0;
  /// High-water mark of pending (queued, not yet admitted) submissions.
  std::uint64_t max_queue_depth = 0;

  /// Element-wise accumulation — how the sharding tier folds per-shard
  /// conductor counters into tier-level stats (src/shard/). Counters sum;
  /// max_queue_depth takes the max (a high-water mark has no meaningful
  /// sum).
  PhaseScheduleStats& operator+=(const PhaseScheduleStats& other);
};

/// The conductor. One per scheduled graph; owns a single thread that
/// drains the submission queue phase by phase (see file comment).
class PhaseScheduler {
 public:
  /// Graph entry points the phases execute through, type-erased so one
  /// scheduler serves DynGraphMap and DynGraphSet. `edge_weights` may be
  /// empty (the set variant never submits weighted queries).
  struct Ops {
    std::function<std::uint64_t(std::span<const WeightedEdge>)> insert_edges;
    std::function<std::uint64_t(std::span<const Edge>)> delete_edges;
    std::function<void(std::span<const Edge>, std::uint8_t*)> edges_exist;
    std::function<void(std::span<const Edge>, Weight*, std::uint8_t*)>
        edge_weights;
  };

  /// Admission-control knobs (mirrors the GraphConfig fields of the same
  /// names; all zero = unbounded, the historical behavior).
  struct Limits {
    std::uint32_t max_pending_submissions = 0;  ///< queued-submission cap
    std::uint64_t max_pending_edges = 0;        ///< queued-item cap
    BackpressurePolicy backpressure = BackpressurePolicy::kBlock;
    std::uint32_t submit_timeout_ms = 0;  ///< kBlock wait bound (0 = forever)
  };

  explicit PhaseScheduler(Ops ops);  ///< unbounded (default Limits)
  PhaseScheduler(Ops ops, Limits limits);

  /// Finishes the phase in flight, REJECTS every still-queued submission
  /// (its future resolves to SubmitRejected{kShutdown} — queued work is
  /// never silently dropped, and never run against a dying graph), then
  /// joins the conductor. Call drain() first for the run-everything exit.
  ~PhaseScheduler();

  PhaseScheduler(const PhaseScheduler&) = delete;
  PhaseScheduler& operator=(const PhaseScheduler&) = delete;

  // ---- submission (any thread) -----------------------------------------
  /// The future resolves once the submission's mutation phase committed,
  /// to the number of edges its COALESCED GROUP applied: consecutive
  /// same-op submissions admitted into one phase merge into a single
  /// engine batch, and every member of the group observes the group
  /// total (a submission that ran alone gets its exact count).
  std::future<std::uint64_t> submit_insert(std::vector<WeightedEdge> edges);
  std::future<std::uint64_t> submit_erase(std::vector<Edge> edges);

  /// The future resolves to out[i] = 1 iff queries[i] was present in the
  /// phase-consistent state the query phase ran against.
  ///
  /// `deadline_ms` (0 = none) bounds the query's staleness: if the phase
  /// that would run it opens after submission + deadline_ms, the conductor
  /// rejects it at admission (future resolves to
  /// SubmitRejected{kDeadlineExpired}) instead of computing an answer
  /// nobody is waiting for. Mutations never expire — they carry state.
  std::future<std::vector<std::uint8_t>> submit_edges_exist(
      std::vector<Edge> queries, std::uint32_t deadline_ms = 0);

  /// Batched weight lookup (map graphs only; requires Ops::edge_weights).
  /// `deadline_ms` as in submit_edges_exist.
  std::future<EdgeWeightBatch> submit_edge_weights(std::vector<Edge> queries,
                                                   std::uint32_t deadline_ms = 0);

  /// The third phase kind: `task` runs inside a fenced ANALYTICS phase —
  /// never overlapping a mutation phase, so read-only traversal of the
  /// graph (bulk gathers, queries) is safe inside it. Consecutive
  /// analytics submissions admitted into one phase run concurrently as
  /// pool jobs, exactly like query batches. Analytics carry no deadline
  /// and are never shed (their side effects — e.g. an incremental
  /// triangle count's accumulator — are state, like mutations). The
  /// future resolves when the task returns, or carries its exception.
  std::future<void> submit_analytics(std::function<void()> task);

  /// A snapshot task (persist::snapshot bound to a path) scheduled as an
  /// ANALYTICS-kind submission: it runs inside a fenced phase, so the cut
  /// it serializes is epoch-consistent — every mutation whose future
  /// resolved before the submission is in the file, and no mutation
  /// submitted after it leaks in (FIFO admission). Counted separately in
  /// stats (submitted_snapshots, not submitted_analytics); phase
  /// accounting is shared with analytics.
  std::future<void> submit_snapshot(std::function<void()> task);

  /// A MAINTENANCE task (aged-edge retirement, arena compaction) scheduled
  /// as a MUTATION-kind submission: it mutates the structure, so it must
  /// own the phase's exclusive write window. Unlike insert/erase
  /// submissions it never coalesces with its neighbors — the task runs
  /// alone, inline on the conductor, between the engine batches of its
  /// phase. The future resolves to the task's count (edges retired, chunks
  /// released — caller-defined), or carries its exception. Counted as
  /// submitted_maintenance in stats.
  std::future<std::uint64_t> submit_maintenance(
      std::function<std::uint64_t()> task);

  /// Blocks until every submission accepted so far has completed and no
  /// phase is open. New submissions may arrive while draining; they are
  /// drained too.
  void drain();

  PhaseScheduleStats stats() const;

 private:
  enum class Kind : std::uint8_t { kMutation, kQuery, kAnalytics };

  /// One queued submission. Mutations carry edges (insert) or plain edges
  /// (erase); queries carry probes; analytics carry a task closure.
  /// Exactly one payload is active.
  struct Submission {
    Kind kind = Kind::kMutation;
    bool erase = false;     ///< mutations: erase vs insert
    bool snapshot = false;  ///< analytics: snapshot task (stats only)
    bool has_deadline = false;  ///< queries: reject if admitted past deadline
    std::chrono::steady_clock::time_point deadline;
    std::vector<WeightedEdge> inserts;
    std::vector<Edge> edges;  ///< erase targets or query probes
    std::function<void()> task;  ///< analytics payload
    /// Mutation-kind maintenance payload (aged erase, compaction); when
    /// set, the submission runs alone instead of coalescing.
    std::function<std::uint64_t()> maintenance;
    /// The submission's result promise, by shape: mutation count, exist
    /// flags, weights (an edge_weights query), analytics completion.
    std::variant<std::monostate, std::promise<std::uint64_t>,
                 std::promise<std::vector<std::uint8_t>>,
                 std::promise<EdgeWeightBatch>, std::promise<void>>
        result;

    template <typename R>
    std::promise<R>& promise() {
      return std::get<std::promise<R>>(result);
    }
  };

  /// Gives `s` a fresh result promise of type R, queues it, and returns
  /// the promise's future.
  template <typename R>
  std::future<R> submit(Submission s);
  void enqueue(Submission&& s);
  /// A query submission over `queries`, with its deadline set.
  static Submission query(std::vector<Edge> queries, std::uint32_t deadline_ms);
  /// Items (edges or probes) a submission would add to the pending queue.
  static std::uint64_t submission_items(const Submission& s);
  /// Resolves the submission's future to `error` unless it was already
  /// satisfied — the one failure dispatch of rejections, per-submission
  /// errors and the conductor's last line of defense against a phase
  /// runner throwing outside the per-submission try blocks
  /// (infrastructure failure, e.g. bad_alloc): pending futures must
  /// resolve, and the conductor thread must survive.
  static void fail(Submission& s, std::exception_ptr error) noexcept;
  /// True iff a submission of `items` items fits under limits_ right now.
  /// An empty queue always admits: a single submission larger than
  /// max_pending_edges must not wedge forever.
  bool fits_locked(std::uint64_t items) const;
  /// Runs the configured backpressure policy until `s` fits (or resolves
  /// its future to SubmitRejected and returns false). kBlock waits on
  /// cv_space_, charging the wait to stats_.blocked_ns.
  bool admit_locked(std::unique_lock<std::mutex>& lock, Submission& s,
                    std::uint64_t items);
  void conductor_loop();
  /// Runs one phase over `batch` (all the same kind). Called with mutex_
  /// UNLOCKED; returns the conductor time spent fenced on the phase's
  /// outstanding tasks before it could close (0 for mutation phases, which
  /// run inline on the conductor).
  double run_mutation_phase(std::vector<Submission>& batch);
  /// Query and analytics phases: every admitted submission runs as its
  /// own pool job, concurrently with the others.
  double run_concurrent_phase(std::vector<Submission>& batch);
  /// Runs one query or analytics submission and resolves its future.
  void run_concurrent(Submission& s);

  Ops ops_;
  Limits limits_;
  mutable std::mutex mutex_;
  std::condition_variable cv_submit_;  ///< wakes the conductor
  std::condition_variable cv_drained_;  ///< wakes drain()ers
  std::condition_variable cv_space_;  ///< wakes kBlock-ed submitters
  std::vector<Submission> queue_;      ///< FIFO; conductor snapshots runs
  std::uint64_t pending_edges_ = 0;    ///< items queued, not yet admitted
  bool phase_open_ = false;  ///< conductor is executing a snapshot
  bool stop_ = false;
  bool have_last_kind_ = false;
  Kind last_kind_ = Kind::kMutation;
  PhaseScheduleStats stats_;
  std::thread conductor_;  ///< last member: joins before state dies
};

}  // namespace sg::core
