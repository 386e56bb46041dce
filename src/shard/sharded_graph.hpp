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
//    PhaseScheduler under the multi-graph conductor
//    (src/shard/shard_conductor.hpp) — per-shard phases proceed
//    independently, tier submissions share one admission order, and
//    submit_analytics / submit_snapshot fence ALL shards simultaneously
//    for an epoch-consistent cut of the whole tier.
//
// Error contract (docs/ROBUSTNESS.md, one level up): a shard aborting
// mid-batch (arena exhaustion) surfaces as a tier-level PartialBatchError
// whose applied count sums the per-shard counts and whose unapplied list
// concatenates the failing shards' lists — exact, because shards fail
// independently. Unapplied edges are reported in ROUTED orientation: an
// undirected tier's mirror appears as its own (dst, src) entry, and
// retrying the unapplied list converges exactly as for one graph.
#pragma once

#include <cstdint>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "src/core/dyn_graph.hpp"
#include "src/core/errors.hpp"
#include "src/core/types.hpp"
#include "src/persist/snapshot.hpp"
#include "src/shard/batch_router.hpp"
#include "src/shard/shard_conductor.hpp"

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
    conductor_ = std::make_unique<ShardConductor>(make_ops());
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
    RoutedBatch<core::WeightedEdge> routed =
        route_inserts(edges, config_.shard_count, undirected_);
    note_routed(routed, edges.size());
    return apply_mutation(routed, [this](std::uint32_t s,
                                         std::span<const core::WeightedEdge>
                                             sub) {
      return shards_[s]->insert_edges(sub);
    });
  }

  /// Erases a batch; undirected tiers retire both stored orientations.
  /// Returns directed edges removed tier-wide.
  std::uint64_t delete_edges(std::span<const core::Edge> edges) {
    RoutedBatch<core::Edge> routed =
        route_erases(edges, config_.shard_count, undirected_);
    note_routed(routed, edges.size());
    return apply_mutation(
        routed, [this](std::uint32_t s, std::span<const core::Edge> sub) {
          return shards_[s]->delete_edges(sub);
        });
  }

  /// out[i] = 1 iff queries[i] is present. Routed by owner(src) only —
  /// mirrors live with their own source — and scattered back to input
  /// order via the router's sequence numbers.
  void edges_exist(std::span<const core::Edge> queries,
                   std::uint8_t* out) const {
    RoutedBatch<core::Edge> routed =
        route_queries(queries, config_.shard_count);
    note_routed(routed, queries.size());
    std::vector<std::uint8_t> part;
    for (std::uint32_t s = 0; s < config_.shard_count; ++s) {
      const auto sub = routed.shard_span(s);
      if (sub.empty()) continue;
      part.assign(sub.size(), 0);
      shards_[s]->edges_exist(sub, part.data());
      const auto seq = routed.shard_seq(s);
      for (std::size_t i = 0; i < sub.size(); ++i) out[seq[i]] = part[i];
    }
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
    RoutedBatch<core::Edge> routed =
        route_queries(queries, config_.shard_count);
    note_routed(routed, queries.size());
    std::vector<core::Weight> w;
    std::vector<std::uint8_t> f;
    for (std::uint32_t s = 0; s < config_.shard_count; ++s) {
      const auto sub = routed.shard_span(s);
      if (sub.empty()) continue;
      w.assign(sub.size(), core::Weight{0});
      f.assign(sub.size(), 0);
      shards_[s]->edge_weights(sub, w.data(), f.data());
      const auto seq = routed.shard_seq(s);
      for (std::size_t i = 0; i < sub.size(); ++i) {
        weights[seq[i]] = w[i];
        found[seq[i]] = f[i];
      }
    }
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

  // ---- scheduled serving path (the multi-graph conductor) --------------
  // Thread-safe; tier submissions share one admission order across all
  // shards and the combined future carries the aggregated result (see
  // shard_conductor.hpp for the error contract).

  std::future<std::uint64_t> submit_insert(
      std::vector<core::WeightedEdge> edges) {
    RoutedBatch<core::WeightedEdge> routed =
        route_inserts(edges, config_.shard_count, undirected_);
    note_routed(routed, edges.size());
    return conductor_->submit_insert(take_per_shard(routed));
  }

  std::future<std::uint64_t> submit_erase(std::vector<core::Edge> edges) {
    RoutedBatch<core::Edge> routed =
        route_erases(edges, config_.shard_count, undirected_);
    note_routed(routed, edges.size());
    return conductor_->submit_erase(take_per_shard(routed));
  }

  std::future<std::vector<std::uint8_t>> submit_edges_exist(
      std::vector<core::Edge> queries, std::uint32_t deadline_ms = 0) {
    RoutedBatch<core::Edge> routed =
        route_queries(queries, config_.shard_count);
    note_routed(routed, queries.size());
    return conductor_->submit_edges_exist(take_per_shard(routed),
                                          take_seq(routed), queries.size(),
                                          deadline_ms);
  }

  std::future<core::EdgeWeightBatch> submit_edge_weights(
      std::vector<core::Edge> queries, std::uint32_t deadline_ms = 0)
    requires Policy::kHasValues
  {
    RoutedBatch<core::Edge> routed =
        route_queries(queries, config_.shard_count);
    note_routed(routed, queries.size());
    return conductor_->submit_edge_weights(take_per_shard(routed),
                                           take_seq(routed), queries.size(),
                                           deadline_ms);
  }

  /// Cross-shard analytics: `task` runs with EVERY shard simultaneously
  /// fenced (each conductor parked in a maintenance window) — an
  /// epoch-consistent cut of the whole tier. Inside the task, reading any
  /// shard (num_edges, gathers, sync queries) is safe. Batch-atomic with
  /// respect to tier submissions: a tier batch admitted before this call
  /// is fully visible on every shard, one admitted after is visible on
  /// none.
  std::future<void> submit_analytics(std::function<void()> task) {
    return conductor_->submit_analytics(std::move(task));
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
    return conductor_->submit_snapshot(std::move(write_all));
  }

  static std::string shard_snapshot_path(const std::string& prefix,
                                         std::uint32_t s) {
    return prefix + ".shard" + std::to_string(s);
  }

  /// Blocks until every tier submission accepted so far has completed on
  /// every shard and no phase is open anywhere.
  void drain() {
    conductor_->drain();
  }

  /// Aggregated per-shard scheduler stats plus the conductor's tier-level
  /// admission and fence counters.
  TierStats tier_stats() const { return conductor_->stats(); }

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
  template <typename T, typename Apply>
  std::uint64_t apply_mutation(const RoutedBatch<T>& routed, Apply&& apply) {
    std::uint64_t applied = 0;
    std::vector<core::Edge> unapplied;
    std::exception_ptr cause;
    bool failed = false;
    for (std::uint32_t s = 0; s < config_.shard_count; ++s) {
      const auto sub = routed.shard_span(s);
      if (sub.empty()) continue;
      try {
        applied += apply(s, sub);
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

  /// Owned per-shard vectors for the scheduled fan-out (one allocation per
  /// involved shard; empty shards stay empty vectors).
  template <typename T>
  std::vector<std::vector<T>> take_per_shard(const RoutedBatch<T>& routed) {
    std::vector<std::vector<T>> out(config_.shard_count);
    for (std::uint32_t s = 0; s < config_.shard_count; ++s) {
      if (routed.shard_size(s) != 0) out[s] = routed.shard_copy(s);
    }
    return out;
  }

  std::vector<std::vector<std::uint32_t>> take_seq(
      const RoutedBatch<core::Edge>& routed) {
    std::vector<std::vector<std::uint32_t>> out(config_.shard_count);
    for (std::uint32_t s = 0; s < config_.shard_count; ++s) {
      const auto seq = routed.shard_seq(s);
      out[s].assign(seq.begin(), seq.end());
    }
    return out;
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

  std::vector<ShardConductor::ShardOps> make_ops() {
    std::vector<ShardConductor::ShardOps> ops(config_.shard_count);
    for (std::uint32_t s = 0; s < config_.shard_count; ++s) {
      Graph* g = shards_[s].get();
      ops[s].submit_insert = [g](std::vector<core::WeightedEdge> edges) {
        return g->submit_insert(std::move(edges));
      };
      ops[s].submit_erase = [g](std::vector<core::Edge> edges) {
        return g->submit_erase(std::move(edges));
      };
      ops[s].submit_edges_exist = [g](std::vector<core::Edge> queries,
                                      std::uint32_t deadline_ms) {
        return g->submit_edges_exist(std::move(queries), deadline_ms);
      };
      if constexpr (Policy::kHasValues) {
        ops[s].submit_edge_weights = [g](std::vector<core::Edge> queries,
                                         std::uint32_t deadline_ms) {
          return g->submit_edge_weights(std::move(queries), deadline_ms);
        };
      }
      ops[s].submit_maintenance = [g](std::function<std::uint64_t()> task) {
        return g->submit_maintenance(std::move(task));
      };
      ops[s].drain = [g] { g->schedule_drain(); };
      ops[s].stats = [g] { return g->last_schedule_stats(); };
    }
    return ops;
  }

  ShardConfig config_;
  bool undirected_ = false;
  std::vector<std::unique_ptr<Graph>> shards_;
  /// Declared after shards_, destroyed FIRST: in-flight fence closures
  /// deliberately never reference the conductor (see
  /// ShardConductor::fence_counters_), and each shard's own destructor
  /// then rejects whatever is still queued — every tier future resolves.
  std::unique_ptr<ShardConductor> conductor_;
  mutable std::mutex router_stats_mutex_;
  mutable RouterStats router_stats_;
  mutable std::vector<std::uint64_t> per_shard_items_;
};

using ShardedGraphMap = ShardedGraph<core::MapPolicy>;
using ShardedGraphSet = ShardedGraph<core::SetPolicy>;

}  // namespace sg::shard
