// SIMT warp model — the CPU substitute for CUDA's warp-level execution.
//
// The paper's algorithms (edge insertion, Algorithm 1; vertex deletion,
// Algorithm 2; every SlabHash operation) are written in the Warp
// Cooperative Work Sharing (WCWS) style: each of the 32 lanes carries an
// independent task, and the warp repeatedly elects one lane's task (ballot
// + find-first-set), broadcasts it (shuffle), and executes it cooperatively
// with all 32 lanes touching consecutive words of a 128-byte slab.
//
// On the host we model a warp as 32 lanes evaluated in lockstep: a
// "per-lane value" is a LaneArray<T> (one slot per lane), and the CUDA
// intrinsics map to:
//   __ballot_sync  -> ballot(lane predicates)      (uint32 mask)
//   __shfl_sync    -> shuffle(lane values, src)    (broadcast)
//   __popc         -> popc(mask)
//   __ffs          -> ffs(mask)
// Divergence inside warp-cooperative code is expressed with explicit
// active masks, exactly as the CUDA code does with __activemask().
#pragma once

#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>

namespace sg::simt {

inline constexpr int kWarpSize = 32;
inline constexpr std::uint32_t kFullMask = 0xFFFFFFFFu;

/// One value per lane of a warp.
template <typename T>
using LaneArray = std::array<T, kWarpSize>;

/// Mask with bit i set for every lane i < n (n may be 32).
constexpr std::uint32_t lanemask_below(int n) noexcept {
  return n >= kWarpSize ? kFullMask : ((1u << n) - 1u);
}

/// __ballot_sync: bit i of the result is lane i's predicate, restricted to
/// the active mask (inactive lanes contribute 0).
constexpr std::uint32_t ballot(const LaneArray<bool>& pred,
                               std::uint32_t active = kFullMask) noexcept {
  std::uint32_t mask = 0;
  for (int lane = 0; lane < kWarpSize; ++lane) {
    if ((active >> lane) & 1u) mask |= static_cast<std::uint32_t>(pred[lane]) << lane;
  }
  return mask;
}

/// __shfl_sync broadcast: every lane reads src_lane's value.
template <typename T>
constexpr T shuffle(const LaneArray<T>& values, int src_lane) noexcept {
  return values[src_lane & (kWarpSize - 1)];
}

/// __popc.
constexpr int popc(std::uint32_t mask) noexcept { return std::popcount(mask); }

/// __ffs: 1-based index of the least significant set bit; 0 if mask == 0.
constexpr int ffs(std::uint32_t mask) noexcept {
  return mask == 0 ? 0 : std::countr_zero(mask) + 1;
}

/// Bytes of one warp-wide slab (32 four-byte words) and of one CPU cache
/// line: on the host a slab spans two lines.
inline constexpr std::size_t kSlabBytes = kWarpSize * sizeof(std::uint32_t);
inline constexpr std::size_t kCacheLineBytes = 64;

/// Software-prefetch hint for the ONE cache line holding `address` (read
/// intent, moderate temporal locality) — the CPU stand-in for the GPU
/// hiding a warp's global-memory latency by switching to another resident
/// warp. A slab is two lines: use prefetch_slab for it.
inline void prefetch(const void* address) noexcept {
  __builtin_prefetch(address, /*rw=*/0, /*locality=*/2);
}

/// Prefetches every cache line of the slab at `slab` (128-byte aligned):
/// the host counterpart of the GPU's one coalesced 128-byte warp load. A
/// probe compares all 32 words, so fetching only the first line would
/// leave the second as a demand miss.
inline void prefetch_slab(const void* slab) noexcept {
  const char* bytes = static_cast<const char*>(slab);
  for (std::size_t off = 0; off < kSlabBytes; off += kCacheLineBytes) {
    prefetch(bytes + off);
  }
}

/// Two-stage software pipeline over `n` items: before process(i), issue
/// prefetch_far(i + 2*depth) and prefetch_near(i + depth). The far stage
/// fetches what the near stage must READ to form its address (the batch
/// engine: a run's vertex-dictionary entry), so by the time the near
/// stage dereferences it the line is cached and the near prefetch (the
/// run's head slab) issues without stalling; the near line in turn lands
/// while items i..i+depth-1 compute. This is the warp-level pipelining of
/// the batch engine (docs/PERF.md "Prefetching the slab walk"). Look-ahead
/// never passes `n`: each callback sees only indices in [0, n).
template <typename FarFn, typename NearFn, typename ProcessFn>
inline void pipeline(std::uint64_t n, std::uint64_t depth, FarFn&& prefetch_far,
                     NearFn&& prefetch_near, ProcessFn&& process_item) {
  const std::uint64_t far = 2 * depth;
  for (std::uint64_t i = 0; i < far && i < n; ++i) prefetch_far(i);
  for (std::uint64_t i = 0; i < depth && i < n; ++i) prefetch_near(i);
  for (std::uint64_t i = 0; i < n; ++i) {
    if (i + far < n) prefetch_far(i + far);
    if (i + depth < n) prefetch_near(i + depth);
    process_item(i);
  }
}

/// Identity of one warp inside a grid launch; `active` has a bit set for
/// every lane that carries a real work item (the last warp of a launch may
/// be partially populated).
struct WarpId {
  std::uint32_t warp = 0;          ///< warp index within the grid
  std::uint64_t first_item = 0;    ///< global index of lane 0's work item
  std::uint32_t active = kFullMask;

  /// Global work-item index carried by `lane`.
  std::uint64_t item(int lane) const noexcept {
    return first_item + static_cast<std::uint64_t>(lane);
  }
  bool lane_active(int lane) const noexcept { return (active >> lane) & 1u; }
  int active_count() const noexcept { return popc(active); }
};

}  // namespace sg::simt
