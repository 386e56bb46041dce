// ShardedGraph: the multi-shard serving tier (docs/ARCHITECTURE.md
// "Sharding", ROADMAP item 2).
//
// One DynGraph is one node's worth of graph; the tier partitions the edge
// set across N instances by the hash of each directed edge's SOURCE vertex
// (src/shard/batch_router.hpp). Every row of vertex u's adjacency lives on
// owner(u) — including the mirror rows an undirected tier emits — so
// degree(u) and src-keyed queries are single-shard lookups, and a client
// batch splits into per-shard sub-batches with the count -> prefix-sum ->
// emit pattern (zero-copy spans on the sync path, one owned vector per
// involved shard on the scheduled path; never a per-edge allocation).
//
// Two serving modes, mirroring DynGraph's own API split:
//
//  * SYNC (insert_edges / delete_edges / edges_exist / edge_weights):
//    routes, then applies shard by shard on the calling thread. The
//    phase-concurrent contract is the caller's, exactly as for a single
//    graph.
//
//  * SCHEDULED (submit_*): fans out through each shard's own
//    PhaseScheduler. Per-shard phases proceed independently (shard 0 can
//    run a mutation phase while shard 1 runs queries) — the throughput
//    point of partitioning. What the tier adds on top:
//
//    - ONE ADMISSION ORDER. Every tier submission fans out to its owner
//      shards under a single admission mutex, so all shards observe the
//      same relative order of tier submissions in their FIFO queues. That
//      total order makes a cross-shard fence deadlock-free (two fences
//      can never interleave in opposite orders on two shards) and makes
//      tier batches BATCH-ATOMIC with respect to fences: a fence admitted
//      after batch B is behind B on every shard, so an epoch-consistent
//      cut never observes half of B.
//    - CROSS-SHARD FENCES. submit_analytics / submit_snapshot park every
//      shard's conductor at once (src/shard/tier_fence.hpp).
//    - SCATTER-GATHER. Deferred combiners reassemble per-shard query
//      answers into input order via the router's sequence numbers, and
//      sum per-shard mutation counts.
//
// Error contract (docs/ROBUSTNESS.md, one level up): a shard aborting
// mid-batch (arena exhaustion) surfaces as a tier-level PartialBatchError
// whose applied count sums the per-shard counts and whose unapplied list
// concatenates the failing shards' lists — exact, because shards fail
// independently. On the scheduled path a shard that REFUSES its sub-batch
// while a sibling applies contributes its whole routed sub-batch to that
// list; only when every involved shard refused does the all-or-nothing
// SubmitRejected surface unchanged. Unapplied edges are reported in
// ROUTED orientation: an undirected tier's mirror appears as its own
// (dst, src) entry, and retrying the unapplied list converges exactly as
// for one graph. Queries are all-or-nothing reads: any shard's refusal
// fails the whole tier query.
#pragma once

#include <cstdint>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "src/core/dyn_graph.hpp"
#include "src/core/errors.hpp"
#include "src/core/types.hpp"
#include "src/persist/snapshot.hpp"
#include "src/shard/batch_router.hpp"
#include "src/shard/tier_fence.hpp"

namespace sg::shard {

/// Construction-time knobs of the tier (docs/CONFIG.md "ShardConfig").
struct ShardConfig {
  /// Number of DynGraph instances the edge set partitions across. 1 is a
  /// valid degenerate tier (routing still runs; useful as its own oracle).
  std::uint32_t shard_count = 4;
  /// Base per-shard GraphConfig. `undirected` is interpreted as the TIER's
  /// directedness: the router emits mirror orientations and the shards
  /// themselves always run directed (a shard-level mirror would
  /// double-store edges whose endpoints hash to the same shard).
  core::GraphConfig graph;
  /// Per-shard override hook, called as per_shard(shard_index, config)
  /// after the base config is copied (and after the tier forced
  /// `undirected = false`). The fault suite uses it to cap one shard's
  /// arena; deployments can use it to split journal/snapshot paths.
  std::function<void(std::uint32_t, core::GraphConfig&)> per_shard;
};

/// Tier-level view of the shards' schedulers plus the tier's own admission
/// counters (ShardedGraph::tier_stats()).
struct TierStats {
  /// Sum of every shard's PhaseScheduleStats (max_queue_depth is the max).
  core::PhaseScheduleStats shard_totals;
  /// Per-shard snapshots, indexed by shard — the fairness view.
  std::vector<core::PhaseScheduleStats> per_shard;
  // Tier submissions admitted, by kind. One tier mutation fanning out to
  // k shards counts ONCE here and k times in
  // shard_totals.submitted_mutations.
  std::uint64_t tier_mutations = 0;
  std::uint64_t tier_queries = 0;
  std::uint64_t tier_analytics = 0;
  std::uint64_t tier_snapshots = 0;
  /// Cross-shard fences completed (the task ran against a full-tier cut).
  std::uint64_t fences_completed = 0;
  /// Fences aborted by a shard refusing its barrier (shutdown /
  /// backpressure).
  std::uint64_t fences_aborted = 0;
};

/// Routing-layer counters (ShardedGraph::router_stats()). Per-shard item
/// counts are the load-skew / fairness view the serve example reports.
struct RouterStats {
  std::uint64_t batches_routed = 0;  ///< client batches split (all kinds)
  std::uint64_t items_in = 0;        ///< client edges/probes received
  std::uint64_t items_routed = 0;    ///< emitted items incl. mirrors
  std::uint64_t mirrors_emitted = 0;
  std::vector<std::uint64_t> per_shard_items;  ///< routed items by shard
};

template <class Policy>
class ShardedGraph {
 public:
  using Graph = core::DynGraph<Policy>;

  explicit ShardedGraph(ShardConfig config) : config_(std::move(config)) {
    if (config_.shard_count == 0) {
      throw std::invalid_argument("ShardConfig::shard_count must be >= 1");
    }
    undirected_ = config_.graph.undirected;
    per_shard_items_.assign(config_.shard_count, 0);
    shards_.reserve(config_.shard_count);
    for (std::uint32_t s = 0; s < config_.shard_count; ++s) {
      core::GraphConfig gc = config_.graph;
      gc.undirected = false;  // tier-level directedness is router-mirrored
      if (config_.per_shard) config_.per_shard(s, gc);
      shards_.push_back(std::make_unique<Graph>(gc));
    }
  }

  std::uint32_t shard_count() const noexcept { return config_.shard_count; }
  bool undirected() const noexcept { return undirected_; }
  std::uint32_t owner(core::VertexId src) const noexcept {
    return owner_of(src, config_.shard_count);
  }
  Graph& shard(std::uint32_t s) { return *shards_[s]; }
  const Graph& shard(std::uint32_t s) const { return *shards_[s]; }

  // ---- synchronous serving path ----------------------------------------
  // Phase-serial like the single-graph sync API: the caller keeps
  // mutations from overlapping queries. Shards apply in shard order on
  // the calling thread; the engine parallelizes within each sub-batch.

  /// Inserts a batch. Returns the number of new unique DIRECTED edges
  /// stored tier-wide (undirected tiers count both orientations, exactly
  /// like a single undirected DynGraph). On a shard abort, remaining
  /// shards still apply, then one tier PartialBatchError reports the
  /// exact global outcome (file comment).
  std::uint64_t insert_edges(std::span<const core::WeightedEdge> edges) {
    return apply_mutation(
        route_inserts(edges, config_.shard_count, undirected_), edges.size());
  }

  /// Erases a batch; undirected tiers retire both stored orientations.
  /// Returns directed edges removed tier-wide.
  std::uint64_t delete_edges(std::span<const core::Edge> edges) {
    return apply_mutation(
        route_erases(edges, config_.shard_count, undirected_), edges.size());
  }

  /// out[i] = 1 iff queries[i] is present. Routed by owner(src) only —
  /// mirrors live with their own source — and scattered back to input
  /// order via the router's sequence numbers.
  void edges_exist(std::span<const core::Edge> queries,
                   std::uint8_t* out) const {
    gather_sync<std::vector<std::uint8_t>>(queries, out, nullptr);
  }

  std::vector<std::uint8_t> edges_exist(
      std::span<const core::Edge> queries) const {
    std::vector<std::uint8_t> out(queries.size(), 0);
    edges_exist(queries, out.data());
    return out;
  }

  /// Batched weight lookup (map tiers): weights[i]/found[i] answer
  /// queries[i], input order.
  void edge_weights(std::span<const core::Edge> queries, core::Weight* weights,
                    std::uint8_t* found) const
    requires Policy::kHasValues
  {
    gather_sync<core::EdgeWeightBatch>(queries, found, weights);
  }

  /// Total live directed edges tier-wide (undirected edges count twice —
  /// same accounting as DynGraph::num_edges on one undirected graph).
  std::uint64_t num_edges() const {
    std::uint64_t total = 0;
    for (const auto& shard : shards_) total += shard->num_edges();
    return total;
  }

  /// Exact out-degree of `u` — a single-shard lookup on owner(u), where
  /// every row of u's adjacency (mirrors included) lives.
  std::uint32_t degree(core::VertexId u) const {
    return shards_[owner(u)]->degree(u);
  }

  // ---- scheduled serving path ------------------------------------------
  // Thread-safe; tier submissions share one admission order across all
  // shards and the combined future is deferred: aggregation runs on the
  // thread that calls get() (error contract in the file comment).

  /// Resolves to the summed per-shard applied counts (each shard's count
  /// carries the coalesced-group semantics of its own scheduler).
  std::future<std::uint64_t> submit_insert(
      std::vector<core::WeightedEdge> edges) {
    return submit_mutation(
        route_inserts(edges, config_.shard_count, undirected_), edges.size());
  }

  std::future<std::uint64_t> submit_erase(std::vector<core::Edge> edges) {
    return submit_mutation(
        route_erases(edges, config_.shard_count, undirected_), edges.size());
  }

  /// Scatter-gather: resolves to out[i] = answer for queries[i].
  std::future<std::vector<std::uint8_t>> submit_edges_exist(
      std::vector<core::Edge> queries, std::uint32_t deadline_ms = 0) {
    return submit_query<std::vector<std::uint8_t>>(queries, deadline_ms);
  }

  std::future<core::EdgeWeightBatch> submit_edge_weights(
      std::vector<core::Edge> queries, std::uint32_t deadline_ms = 0)
    requires Policy::kHasValues
  {
    return submit_query<core::EdgeWeightBatch>(queries, deadline_ms);
  }

  /// Cross-shard analytics: `task` runs with EVERY shard simultaneously
  /// fenced (each conductor parked in a maintenance window) — an
  /// epoch-consistent cut of the whole tier. Inside the task, reading any
  /// shard (num_edges, gathers, sync queries) is safe. Batch-atomic with
  /// respect to tier submissions: a tier batch admitted before this call
  /// is fully visible on every shard, one admitted after is visible on
  /// none. If a shard refuses its barrier, the future carries that shard's
  /// SubmitRejected and the task never runs half-fenced.
  std::future<void> submit_analytics(std::function<void()> task) {
    return submit_fenced(std::move(task), tier_analytics_);
  }

  /// Epoch-consistent durable cut of the whole tier: writes one snapshot
  /// file per shard — `path_prefix` + ".shard" + index — inside a
  /// cross-shard fence. Restore by constructing an identically-configured
  /// tier and calling persist::restore_into on each shard's file.
  std::future<void> submit_snapshot(std::string path_prefix) {
    auto write_all = [this, path_prefix = std::move(path_prefix)] {
      for (std::uint32_t s = 0; s < config_.shard_count; ++s) {
        persist::snapshot(*shards_[s], shard_snapshot_path(path_prefix, s));
      }
    };
    return submit_fenced(std::move(write_all), tier_snapshots_);
  }

  static std::string shard_snapshot_path(const std::string& prefix,
                                         std::uint32_t s) {
    return prefix + ".shard" + std::to_string(s);
  }

  /// Blocks until every tier submission accepted so far has completed on
  /// every shard and no phase is open anywhere. Per-shard drains suffice:
  /// a pending fence on shard s completes once every sibling's conductor
  /// reaches its closure, and each sibling drains independently.
  void drain() {
    for (const auto& shard : shards_) shard->schedule_drain();
  }

  /// Aggregated per-shard scheduler stats plus the tier-level admission
  /// and fence counters.
  TierStats tier_stats() const {
    TierStats out;
    out.per_shard.reserve(shards_.size());
    for (const auto& shard : shards_) {
      out.per_shard.push_back(shard->last_schedule_stats());
      out.shard_totals += out.per_shard.back();
    }
    {
      std::lock_guard<std::mutex> admission(admission_);
      out.tier_mutations = tier_mutations_;
      out.tier_queries = tier_queries_;
      out.tier_analytics = tier_analytics_;
      out.tier_snapshots = tier_snapshots_;
    }
    out.fences_completed =
        fence_counters_->completed.load(std::memory_order_relaxed);
    out.fences_aborted =
        fence_counters_->aborted.load(std::memory_order_relaxed);
    return out;
  }

  RouterStats router_stats() const {
    std::lock_guard<std::mutex> lock(router_stats_mutex_);
    RouterStats out = router_stats_;
    out.per_shard_items = per_shard_items_;
    return out;
  }

 private:
  /// Applies a routed mutation shard by shard. A failing shard does NOT
  /// stop the sweep — shards are independent, and applying the rest keeps
  /// the tier outcome exactly "the batch minus the unapplied list".
  template <typename T>
  std::uint64_t apply_mutation(const RoutedBatch<T>& routed,
                               std::size_t items_in) {
    note_routed(routed, items_in);
    std::uint64_t applied = 0;
    std::vector<core::Edge> unapplied;
    std::exception_ptr cause;
    bool failed = false;
    for (std::uint32_t s = 0; s < config_.shard_count; ++s) {
      const auto sub = routed.shard_span(s);
      if (sub.empty()) continue;
      try {
        if constexpr (std::is_same_v<T, core::WeightedEdge>) {
          applied += shards_[s]->insert_edges(sub);
        } else {
          applied += shards_[s]->delete_edges(sub);
        }
      } catch (const core::PartialBatchError& e) {
        failed = true;
        applied += e.applied();
        unapplied.insert(unapplied.end(), e.unapplied().begin(),
                         e.unapplied().end());
        if (!cause) cause = e.cause();
      }
    }
    if (failed) {
      throw core::PartialBatchError(applied, std::move(unapplied), cause,
                                    "sharded mutation aborted");
    }
    return applied;
  }

  // ---- scheduled fan-out ------------------------------------------------

  /// Hands every involved shard an owned copy of its routed sub-batch, in
  /// shard order, under the admission mutex. `submit(s, sub)` is the
  /// shard's submit_* call; a synchronous refusal (stopped scheduler)
  /// becomes a ready failed future, so the combiner meets every refusal
  /// the same way. Uninvolved shards get no submission (and pay no phase).
  template <typename R, typename T, typename Submit>
  std::vector<std::future<R>> fan_out(const RoutedBatch<T>& routed,
                                      std::uint64_t& admitted,
                                      const Submit& submit) {
    std::vector<std::vector<T>> parts(config_.shard_count);
    for (std::uint32_t s = 0; s < config_.shard_count; ++s) {
      if (routed.shard_size(s) != 0) parts[s] = routed.shard_copy(s);
    }
    std::vector<std::future<R>> futures(config_.shard_count);
    std::lock_guard<std::mutex> admission(admission_);
    ++admitted;
    for (std::uint32_t s = 0; s < config_.shard_count; ++s) {
      if (parts[s].empty()) continue;
      try {
        futures[s] = submit(s, std::move(parts[s]));
      } catch (...) {
        futures[s] = ready_error<R>(std::current_exception());
      }
    }
    return futures;
  }

  /// The one scheduled mutation fan-out, shared by insert and erase. The
  /// combiner keeps `routed` itself: a refused shard's sub-batch is read
  /// back from it.
  template <typename T>
  std::future<std::uint64_t> submit_mutation(RoutedBatch<T> routed,
                                             std::size_t items_in) {
    note_routed(routed, items_in);
    auto futures = fan_out<std::uint64_t>(
        routed, tier_mutations_, [this](std::uint32_t s, std::vector<T> sub) {
          if constexpr (std::is_same_v<T, core::WeightedEdge>) {
            return shards_[s]->submit_insert(std::move(sub));
          } else {
            return shards_[s]->submit_erase(std::move(sub));
          }
        });
    return std::async(std::launch::deferred,
                      [futures = std::move(futures),
                       routed = std::move(routed)]() mutable {
                        return combine_mutations(futures, routed);
                      });
  }

  /// Folds per-shard mutation outcomes into the tier result. Shards are
  /// independent, so the global outcome is the union of per-shard
  /// outcomes: counts sum; a failing shard contributes its exact unapplied
  /// list (PartialBatchError) or its whole routed sub-batch (refusal /
  /// infrastructure failure). Only when nothing was applied anywhere and
  /// every involved shard refused does the first refusal surface
  /// unchanged.
  template <typename T>
  static std::uint64_t combine_mutations(
      std::vector<std::future<std::uint64_t>>& futures,
      const RoutedBatch<T>& routed) {
    std::uint64_t applied = 0;
    std::vector<core::Edge> unapplied;
    std::exception_ptr cause;      // first failing shard's underlying cause
    std::exception_ptr rejection;  // first refusal, for the all-refused path
    bool any_partial = false;
    bool any_success = false;
    for (std::uint32_t s = 0; s < futures.size(); ++s) {
      if (!futures[s].valid()) continue;  // shard had no sub-batch
      try {
        applied += futures[s].get();
        any_success = true;
      } catch (const core::PartialBatchError& e) {
        any_partial = true;
        applied += e.applied();
        unapplied.insert(unapplied.end(), e.unapplied().begin(),
                         e.unapplied().end());
        if (!cause) cause = e.cause();
      } catch (...) {
        if (!rejection) rejection = std::current_exception();
        for (const T& e : routed.shard_span(s)) {
          unapplied.push_back({e.src, e.dst});
        }
      }
    }
    if (any_partial || (rejection && (any_success || applied != 0))) {
      throw core::PartialBatchError(applied, std::move(unapplied),
                                    cause ? cause : rejection,
                                    "sharded mutation aborted");
    }
    if (rejection) std::rethrow_exception(rejection);
    return applied;
  }

  template <typename Answers>
  static constexpr bool kWeighted =
      std::is_same_v<Answers, core::EdgeWeightBatch>;

  /// Zeroed answers to `n` probes: found flags (edges_exist), or weights
  /// and found flags (edge_weights).
  template <typename Answers>
  static Answers blank_answers(std::size_t n) {
    Answers a;
    if constexpr (kWeighted<Answers>) {
      a.weights.assign(n, core::Weight{0});
      a.found.assign(n, 0);
    } else {
      a.assign(n, 0);
    }
    return a;
  }

  /// The one scatter-gather, shared by both query shapes on both serving
  /// paths: `answer_of(s)` yields shard s's answers to its routed
  /// sub-batch (a sync probe, or the shard future's get()), and answer i
  /// lands on input position shard_seq(s)[i]. `weights` is null for
  /// edges_exist. A failing shard fails the whole query: a partially
  /// answered batch is indistinguishable from "absent" at the missing
  /// positions.
  template <typename Answers, typename AnswerOf>
  static void gather(const RoutedBatch<core::Edge>& routed,
                     AnswerOf&& answer_of, std::uint8_t* found,
                     core::Weight* weights) {
    for (std::uint32_t s = 0; s < routed.shards(); ++s) {
      if (routed.shard_size(s) == 0) continue;
      const Answers part = answer_of(s);
      const auto seq = routed.shard_seq(s);
      for (std::size_t i = 0; i < seq.size(); ++i) {
        if constexpr (kWeighted<Answers>) {
          found[seq[i]] = part.found[i];
          weights[seq[i]] = part.weights[i];
        } else {
          found[seq[i]] = part[i];
        }
      }
    }
  }

  /// Sync path: each shard answers its sub-batch on the calling thread.
  template <typename Answers>
  void gather_sync(std::span<const core::Edge> queries, std::uint8_t* found,
                   core::Weight* weights) const {
    const RoutedBatch<core::Edge> routed =
        route_queries(queries, config_.shard_count);
    note_routed(routed, queries.size());
    gather<Answers>(
        routed,
        [&](std::uint32_t s) {
          Answers part = blank_answers<Answers>(routed.shard_size(s));
          if constexpr (kWeighted<Answers>) {
            shards_[s]->edge_weights(routed.shard_span(s), part.weights.data(),
                                     part.found.data());
          } else {
            shards_[s]->edges_exist(routed.shard_span(s), part.data());
          }
          return part;
        },
        found, weights);
  }

  /// Scheduled path: the one query fan-out; the deferred combiner keeps
  /// `routed` for its sequence numbers.
  template <typename Answers>
  std::future<Answers> submit_query(std::span<const core::Edge> queries,
                                    std::uint32_t deadline_ms) {
    RoutedBatch<core::Edge> routed =
        route_queries(queries, config_.shard_count);
    note_routed(routed, queries.size());
    auto futures = fan_out<Answers>(
        routed, tier_queries_,
        [this, deadline_ms](std::uint32_t s, std::vector<core::Edge> sub) {
          if constexpr (kWeighted<Answers>) {
            return shards_[s]->submit_edge_weights(std::move(sub), deadline_ms);
          } else {
            return shards_[s]->submit_edges_exist(std::move(sub), deadline_ms);
          }
        });
    return std::async(
        std::launch::deferred,
        [futures = std::move(futures), routed = std::move(routed)]() mutable {
          Answers out = blank_answers<Answers>(routed.items.size());
          const auto answer_of = [&futures](std::uint32_t s) {
            return futures[s].get();
          };
          if constexpr (kWeighted<Answers>) {
            gather<Answers>(routed, answer_of, out.found.data(),
                            out.weights.data());
          } else {
            gather<Answers>(routed, answer_of, out.data(), nullptr);
          }
          return out;
        });
  }

  std::future<void> submit_fenced(std::function<void()> task,
                                  std::uint64_t& admitted) {
    std::lock_guard<std::mutex> admission(admission_);
    ++admitted;
    return run_fence(config_.shard_count, std::move(task), fence_counters_,
                     [this](std::uint32_t s,
                            std::function<std::uint64_t()> closure) {
                       return shards_[s]->submit_maintenance(
                           std::move(closure));
                     });
  }

  template <typename T>
  void note_routed(const RoutedBatch<T>& routed, std::size_t items_in) const {
    std::lock_guard<std::mutex> lock(router_stats_mutex_);
    ++router_stats_.batches_routed;
    router_stats_.items_in += items_in;
    router_stats_.items_routed += routed.items.size();
    router_stats_.mirrors_emitted += routed.items.size() - items_in;
    for (std::uint32_t s = 0; s < config_.shard_count; ++s) {
      per_shard_items_[s] += routed.shard_size(s);
    }
  }

  ShardConfig config_;
  bool undirected_ = false;
  std::vector<std::unique_ptr<Graph>> shards_;
  /// Serializes fan-out so every shard sees tier submissions in one total
  /// order (file comment). Held across the per-shard submit calls — a
  /// shard blocking under kBlock backpressure stalls tier admission, which
  /// is the tier-level backpressure by construction.
  mutable std::mutex admission_;
  std::uint64_t tier_mutations_ = 0;  // guarded by admission_, as below
  std::uint64_t tier_queries_ = 0;
  std::uint64_t tier_analytics_ = 0;
  std::uint64_t tier_snapshots_ = 0;
  /// Destroyed before shards_, whose schedulers may still reject queued
  /// barrier closures that count into it: hence shared ownership.
  std::shared_ptr<FenceCounters> fence_counters_ =
      std::make_shared<FenceCounters>();
  mutable std::mutex router_stats_mutex_;
  mutable RouterStats router_stats_;
  mutable std::vector<std::uint64_t> per_shard_items_;
};

using ShardedGraphMap = ShardedGraph<core::MapPolicy>;
using ShardedGraphSet = ShardedGraph<core::SetPolicy>;

}  // namespace sg::shard
