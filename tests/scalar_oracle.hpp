// Scalar Algorithm-1 mutation oracle (Warp Cooperative Work Sharing,
// §IV-C verbatim): ballot work queue, ffs election, same-source grouping,
// popc success counting — one scalar slab op per key instead of the batch
// engine's staged runs.
//
// The paper's algorithm, kept test-only: the library's one mutation path
// is the batch engine, and test_batch_engine drives this oracle on its own
// SlabArena + VertexDictionary against the same reference model the engine
// is checked against. Undirected batches are applied in BOTH directions in
// place — launch item i maps to edge i/2, mirrored when i is odd.
#pragma once

#include <atomic>
#include <bit>
#include <cstdint>
#include <span>

#include "src/core/types.hpp"
#include "src/core/vertex_dictionary.hpp"
#include "src/memory/slab_arena.hpp"
#include "src/simt/atomics.hpp"
#include "src/simt/grid.hpp"
#include "src/simt/warp.hpp"

namespace sg::core::oracle {

/// Algorithm 1: batched edge insertion. `acquire(u)` resolves (and lazily
/// creates) u's table; returns the number of NEW unique directed edges.
template <class Policy, class AcquireFn>
std::uint64_t insert_directed(memory::SlabArena& arena, VertexDictionary& dict,
                              std::span<const WeightedEdge> edges,
                              bool undirected, std::uint64_t seed,
                              AcquireFn&& acquire) {
  std::atomic<std::uint64_t> total_added{0};
  const std::uint64_t items =
      edges.size() * (undirected ? std::uint64_t{2} : std::uint64_t{1});

  // Per-lane predicates live in 32-bit masks, which is exactly what the
  // ballot intrinsic produces on the GPU: `pending` IS Algorithm 1's work
  // queue (line 4), bit iteration IS find-first-set (line 5). This keeps
  // the emulation cost proportional to live lanes rather than re-scanning
  // 32 lanes per round (a serialization artifact a real warp never pays).
  simt::launch(items, [&](const simt::WarpId& warp) {
    VertexId src[simt::kWarpSize];
    VertexId dst[simt::kWarpSize];
    Weight weight[simt::kWarpSize];
    std::uint32_t pending = 0;  // ballot(to_insert): the work queue
    for (std::uint32_t m = warp.active; m; m &= m - 1) {
      const int lane = std::countr_zero(m);
      const std::uint64_t item = warp.item(lane);
      const WeightedEdge e = edges[undirected ? item >> 1 : item];
      const bool mirror = undirected && (item & 1);
      src[lane] = mirror ? e.dst : e.src;
      dst[lane] = mirror ? e.src : e.dst;
      weight[lane] = e.weight;
      if (e.src != e.dst) pending |= 1u << lane;  // line 3: no self-edges
    }
    std::uint64_t warp_added = 0;
    while (pending != 0u) {  // line 4
      const int current_lane = simt::ffs(pending) - 1;       // line 5
      const VertexId current_src = src[current_lane];        // line 6 (shuffle)
      const slabhash::TableRef table = acquire(current_src);
      // Lines 7-8: lanes sharing the source form the coalesced group.
      std::uint32_t group = 0;
      std::uint32_t success = 0;
      for (std::uint32_t m = pending; m; m &= m - 1) {
        const int lane = std::countr_zero(m);
        if (src[lane] != current_src) continue;
        group |= 1u << lane;
        if (Policy::insert(arena, table, dst[lane], weight[lane], seed,
                           warp.warp)) {
          success |= 1u << lane;
        }
      }
      // Lines 9-10: exact edge counting from the replace() booleans.
      const int added = simt::popc(success);
      if (added > 0) {
        simt::atomic_add(dict.edge_count_word(current_src),
                         static_cast<std::uint32_t>(added));
        warp_added += static_cast<std::uint64_t>(added);
      }
      pending &= ~group;  // lines 11-12
    }
    if (warp_added) total_added.fetch_add(warp_added, std::memory_order_relaxed);
  });
  return total_added.load(std::memory_order_relaxed);
}

/// Algorithm 1 with delete instead of replace (§IV-C2); the returned
/// booleans decrement the exact edge counters. Returns edges removed.
template <class Policy>
std::uint64_t delete_directed(memory::SlabArena& arena, VertexDictionary& dict,
                              std::span<const Edge> edges, bool undirected,
                              std::uint64_t seed) {
  std::atomic<std::uint64_t> total_removed{0};
  const std::uint32_t capacity = dict.capacity();
  const std::uint64_t items =
      edges.size() * (undirected ? std::uint64_t{2} : std::uint64_t{1});

  simt::launch(items, [&](const simt::WarpId& warp) {
    VertexId src[simt::kWarpSize];
    VertexId dst[simt::kWarpSize];
    std::uint32_t pending = 0;
    for (std::uint32_t m = warp.active; m; m &= m - 1) {
      const int lane = std::countr_zero(m);
      const std::uint64_t item = warp.item(lane);
      const Edge e = edges[undirected ? item >> 1 : item];
      const bool mirror = undirected && (item & 1);
      src[lane] = mirror ? e.dst : e.src;
      dst[lane] = mirror ? e.src : e.dst;
      if (src[lane] < capacity && dict.has_table(src[lane])) {
        pending |= 1u << lane;
      }
    }
    std::uint64_t warp_removed = 0;
    while (pending != 0u) {
      const int current_lane = simt::ffs(pending) - 1;
      const VertexId current_src = src[current_lane];
      const slabhash::TableRef table = dict.table(current_src);
      std::uint32_t group = 0;
      std::uint32_t success = 0;
      for (std::uint32_t m = pending; m; m &= m - 1) {
        const int lane = std::countr_zero(m);
        if (src[lane] != current_src) continue;
        group |= 1u << lane;
        if (Policy::erase(arena, table, dst[lane], seed)) {
          success |= 1u << lane;
        }
      }
      const int removed = simt::popc(success);
      if (removed > 0) {
        simt::atomic_sub(dict.edge_count_word(current_src),
                         static_cast<std::uint32_t>(removed));
        warp_removed += static_cast<std::uint64_t>(removed);
      }
      pending &= ~group;
    }
    if (warp_removed) {
      total_removed.fetch_add(warp_removed, std::memory_order_relaxed);
    }
  });
  return total_removed.load(std::memory_order_relaxed);
}

}  // namespace sg::core::oracle
