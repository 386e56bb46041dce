// Batch router of the multi-shard serving tier (docs/ARCHITECTURE.md
// "Sharding").
//
// A ShardedGraph partitions the edge set across N DynGraph instances by
// the hash of each directed edge's SOURCE vertex: every row of vertex u's
// adjacency lives on owner(u), so degree(u) and u-sourced queries are
// single-shard lookups. The router splits one client batch into per-shard
// sub-batches with the same count -> prefix-sum -> stable-emit pattern the
// merge-free staging layer uses in-process (PR 4): one pass counts each
// shard's share, a prefix sum carves disjoint slices of ONE presized
// backing buffer, and a second pass emits every item into its shard's
// slice preserving input order. No per-edge allocation, and the sync
// serving path hands each shard a zero-copy span of the shared buffer.
//
// Undirected tiers are a ROUTER property, not a shard property: the shards
// always run directed, and the router emits the mirror orientation
// (dst, src) to owner(dst) right behind the primary — the tier-level
// analogue of the in-graph mirror staging GraphConfig::undirected does
// within one node. Self-loops get no mirror (the engine drops them
// anyway — Algorithm 1 line 3 — and a double emission would be pure
// routing noise).
//
// Queries carry a parallel `seq` array: seq[i] is the global input
// position of items[i], the scatter-gather key that lets the tier
// reassemble per-shard result vectors into original input order.
#pragma once

#include <bit>
#include <cstdint>
#include <span>
#include <vector>

#include "src/core/types.hpp"

namespace sg::shard {

/// Owner shard of source vertex `src` under `shards` shards. A
/// splitmix64-style finalizer spreads consecutive vertex ids (real graphs
/// number vertices densely; `src % shards` would stripe hubs onto one
/// shard for power-of-two strides). A power-of-two count masks instead of
/// dividing: `x & (shards - 1)` equals `x % shards` there, so the
/// partition is the same either way.
inline std::uint32_t owner_of(core::VertexId src,
                              std::uint32_t shards) noexcept {
  std::uint64_t x = static_cast<std::uint64_t>(src) + 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  x ^= x >> 31;
  if (std::has_single_bit(shards)) {
    return static_cast<std::uint32_t>(x & (shards - 1u));
  }
  return static_cast<std::uint32_t>(x % shards);
}

/// One client batch split by owner shard: `items` is a single backing
/// buffer grouped by shard (input order preserved within each shard),
/// `offsets` the shards+1 prefix sum addressing it. For queries, `seq[i]`
/// is the global input position of `items[i]`; mutations leave it empty.
template <typename T>
struct RoutedBatch {
  std::vector<T> items;
  std::vector<std::uint32_t> seq;
  std::vector<std::uint64_t> offsets;  ///< size shards + 1

  std::uint32_t shards() const noexcept {
    return static_cast<std::uint32_t>(offsets.empty() ? 0
                                                      : offsets.size() - 1);
  }
  std::uint64_t shard_size(std::uint32_t s) const noexcept {
    return offsets[s + 1] - offsets[s];
  }
  /// Zero-copy view of shard `s`'s sub-batch (the sync fan-out path).
  std::span<const T> shard_span(std::uint32_t s) const noexcept {
    return {items.data() + offsets[s],
            static_cast<std::size_t>(shard_size(s))};
  }
  /// Owned copy of shard `s`'s sub-batch — one allocation per non-empty
  /// shard, for the scheduled fan-out path (submit_* takes ownership).
  std::vector<T> shard_copy(std::uint32_t s) const {
    const auto view = shard_span(s);
    return {view.begin(), view.end()};
  }
  std::span<const std::uint32_t> shard_seq(std::uint32_t s) const noexcept {
    return {seq.data() + offsets[s], static_cast<std::size_t>(shard_size(s))};
  }
};

/// Splits an insert batch by owner shard. `mirror` (the undirected tier)
/// additionally emits (dst, src, w) to owner(dst) for every non-self-loop
/// edge — both orientations are emitted even when both land on the same
/// shard, exactly as a single undirected DynGraph stores both directions.
RoutedBatch<core::WeightedEdge> route_inserts(
    std::span<const core::WeightedEdge> edges, std::uint32_t shards,
    bool mirror);

/// Splits an erase batch through the same routing body; `mirror` emits
/// (dst, src) so an undirected tier retires both stored directions.
RoutedBatch<core::Edge> route_erases(std::span<const core::Edge> edges,
                                     std::uint32_t shards, bool mirror);

/// Splits a query batch by owner(src) — queries never mirror (every row of
/// u's adjacency lives on owner(u), including mirrors) — and fills `seq`
/// with each probe's global input position for the scatter-gather
/// reassembly.
RoutedBatch<core::Edge> route_queries(std::span<const core::Edge> queries,
                                      std::uint32_t shards);

}  // namespace sg::shard
