// Delta-driven dynamic triangle counting (Table IX, incremental regime):
// instead of recounting the whole graph after every batch, each batch of
// edge insertions contributes only the triangles it CLOSES. Per-epoch cost
// is proportional to the batch (the gathered adjacency of the batch's
// endpoints), not to the graph — the property Table IX's scaling column
// demonstrates.
//
// The counter rides the phase scheduler's FIFO fencing: one submit_batch
// call turns into three pipelined submissions,
//
//   submit_edges_exist(batch)   -- which edges are genuinely new?
//   submit_insert(batch)        -- mutation phase applies the batch
//   submit_analytics(delta)     -- fenced delta pass over the new state
//
// and the scheduler guarantees the analytics pass observes exactly the
// post-insert state while never overlapping the mutation. The delta pass
// gathers ONLY the batch endpoints' adjacency (one bulk gather wave),
// sorts the slices, and intersects N(u) ∩ N(v) per new edge.
//
// Triangles closed by MULTIPLE new edges of the same batch are counted by
// the lexicographically smallest new edge only: when edge e = (u, v) finds
// w in N(u) ∩ N(v), the triangle is skipped iff (u, w) or (v, w) is also
// new and packs below e. Every triangle has a unique smallest new edge, so
// each is counted exactly once.
//
// The counter is templated over the adjacency policy: the set variant is
// the Table IX configuration; the MAP variant serves the temporal
// streaming harness (src/stream/), where the stored weight is the edge's
// timestamp — the weighted submit_batch overload preserves it (newest ts
// wins within a batch), so counting and window aging share one graph.
//
// Contract: insert-only streams, one submitting thread, undirected graph
// (GraphConfig::undirected = true). Deletions would need the symmetric
// decrement pass; the Table IX harness (bench/dynamic_triangle_count.cpp)
// only streams insertions, matching the paper's Table IX setup.
#pragma once

#include <atomic>
#include <cstdint>
#include <future>
#include <span>
#include <vector>

#include "src/core/dyn_graph.hpp"

namespace sg::analytics {

template <class Policy>
class IncrementalTriangleCounter {
 public:
  /// `graph` must outlive the counter and be configured undirected (the
  /// intersect needs full neighborhoods, not out-edges). A non-empty graph
  /// is fine: pass its current triangle count (e.g. one
  /// tc_slabgraph_bulk() after the preload) as `initial_triangles` so the
  /// running total stays absolute.
  /// \throws std::invalid_argument if `graph` is directed.
  explicit IncrementalTriangleCounter(core::DynGraph<Policy>& graph,
                                      std::uint64_t initial_triangles = 0);

  /// Streams one batch: pre-check + insert + fenced delta pass. The future
  /// resolves to the RUNNING triangle total after this batch lands (or
  /// carries the first failure of the three submissions). Call from a
  /// single thread; batches are fenced in submission order. Map graphs
  /// store weight 1 per edge — use the weighted overload to carry real
  /// per-edge metadata (timestamps).
  ///
  /// `assume_new` — set when the producer guarantees no batch edge already
  /// exists in the graph (an append-only unique stream): the exist
  /// pre-check phase (one fence + one query pass per epoch) is skipped.
  /// Feeding a duplicate under assume_new over-counts; leave it off when
  /// unsure.
  std::future<std::uint64_t> submit_batch(std::span<const core::Edge> edges,
                                          bool assume_new = false);

  /// Weighted overload for temporal streams (map graphs): weights — the
  /// stream's timestamps — ride into the graph unchanged, duplicates
  /// within the batch keep the NEWEST weight (the stream::SortMode
  /// presort convention), and the triangle delta is identical to the
  /// unweighted overload's.
  std::future<std::uint64_t> submit_batch(
      std::span<const core::WeightedEdge> edges, bool assume_new = false);

  /// Running total of all batches whose analytics pass has completed.
  std::uint64_t triangles() const {
    return count_.load(std::memory_order_acquire);
  }

 private:
  /// Shared pipeline: `norm` is normalized (src < dst), sorted by packed
  /// key, deduplicated. Runs exist → insert → fenced delta.
  std::future<std::uint64_t> submit_normalized(
      std::vector<core::WeightedEdge> norm, bool assume_new);

  core::DynGraph<Policy>& graph_;
  std::atomic<std::uint64_t> count_{0};
};

extern template class IncrementalTriangleCounter<core::SetPolicy>;
extern template class IncrementalTriangleCounter<core::MapPolicy>;

}  // namespace sg::analytics
