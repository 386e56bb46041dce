// Shared slab layout for the SlabHash concurrent map and concurrent set,
// and the two format types (MapLayout, SetLayout) that SlabOps is
// instantiated on (src/slabhash/slab_hash.hpp).
//
// A slab is 32 uint32 words (128 bytes), matching SlabHash on the GPU:
//
//   concurrent map  : words 0..29 hold 15 <key, value> pairs
//                     (key at even word, value at the following odd word),
//                     word 30 is reserved, word 31 is the next-slab handle.
//                     Bucket capacity Bc = 15 (paper §IV-A2).
//   concurrent set  : words 0..29 hold 30 keys, word 30 is reserved,
//                     word 31 is the next-slab handle. Bc = 30.
//
// kEmptyKey marks a never-used slot; kTombstoneKey marks a deleted slot.
// A deleted slot never turns back into EMPTY, and insertions claim EMPTY
// slots in order, so within a slab all EMPTY slots sit after all used slots
// — the invariant the paper relies on for fast searches. The scalar insert
// skips tombstones, as the paper does ("tombstones are disregarded in edge
// insertion"); a bulk insert, which owns its bucket for the phase, refills
// them once its walk reaches the chain's end (slab_hash.cpp).
#pragma once

#include <bit>
#include <cstdint>

#include "src/memory/slab_arena.hpp"
#include "src/util/prng.hpp"

namespace sg::slabhash {

inline constexpr std::uint32_t kEmptyKey = 0xFFFFFFFFu;
inline constexpr std::uint32_t kTombstoneKey = 0xFFFFFFFEu;
inline constexpr std::uint32_t kMaxKey = 0xFFFFFFFDu;  ///< largest storable key

inline constexpr int kNextPtrWord = 31;
inline constexpr int kReservedWord = 30;

/// Slab format of the concurrent map: 15 <key, value> pairs, the key at an
/// even word and its value at the following odd word. Bc = 15 (§IV-A2).
/// `kKeyWordsMask` selects the key words (bit w = slab word w) and is
/// consumed against the ballot-style masks simt::probe_slab() produces.
struct MapLayout {
  static constexpr std::uint32_t kKeyWordsMask = 0x15555555u;  ///< 0, 2, .., 28
  static constexpr int kSlotsPerSlab = 15;
  static constexpr int kKeyStride = 2;  ///< words from one key to the next
  static constexpr bool kHasValues = true;
};

/// Slab format of the concurrent set: 30 keys, no values. Bc = 30.
struct SetLayout {
  static constexpr std::uint32_t kKeyWordsMask = 0x3FFFFFFFu;  ///< 0 .. 29
  static constexpr int kSlotsPerSlab = 30;
  static constexpr int kKeyStride = 1;
  static constexpr bool kHasValues = false;
};

// One mask bit per slot; word 30 (reserved) and word 31 (next pointer)
// never hold a key.
template <class Layout>
constexpr bool kValidLayout =
    std::popcount(Layout::kKeyWordsMask) == Layout::kSlotsPerSlab &&
    Layout::kSlotsPerSlab * Layout::kKeyStride <= kReservedWord;
static_assert(kValidLayout<MapLayout> && kValidLayout<SetLayout>);

/// A hash table as the graph sees it: `num_buckets` base slabs starting at
/// contiguous handle `base`. Collision slabs are chained off word 31.
struct TableRef {
  memory::SlabHandle base = memory::kNullSlab;
  std::uint32_t num_buckets = 0;

  memory::SlabHandle bucket_head(std::uint32_t bucket) const noexcept {
    return base + bucket;
  }
  bool valid() const noexcept {
    return base != memory::kNullSlab && num_buckets > 0;
  }
};

/// Seeded hash mapping a key to a bucket. Stands in for slab hash's
/// universal (a*k + b mod p) mod B family: a full 64-bit mix of (key, seed)
/// followed by Lemire's multiply-shift range reduction — same statistical
/// role, no 64-bit divisions on the probe path. All tables in a graph share
/// one seed so results are reproducible run to run.
inline std::uint32_t bucket_of(std::uint32_t key, std::uint32_t num_buckets,
                               std::uint64_t seed) noexcept {
  const std::uint64_t h = util::mix64(key ^ (seed * 0x9E3779B97F4A7C15ULL));
  return static_cast<std::uint32_t>(
      (static_cast<unsigned __int128>(h) * num_buckets) >> 64);
}

/// Buckets needed to store `expected_keys` at `load_factor` with bucket
/// capacity `slot_capacity` (= Bc): ceil(keys / (lf * Bc)), at least 1.
/// This is the sizing rule of §IV-A2.
inline std::uint32_t buckets_for(std::uint64_t expected_keys, double load_factor,
                                 int slot_capacity) noexcept {
  if (expected_keys == 0 || load_factor <= 0.0) return 1;
  const double per_bucket = load_factor * static_cast<double>(slot_capacity);
  const auto buckets = static_cast<std::uint64_t>(
      __builtin_ceil(static_cast<double>(expected_keys) / per_bucket));
  const std::uint64_t clamped =
      buckets == 0 ? 1 : (buckets > memory::SlabArena::kChunkSlabs
                              ? memory::SlabArena::kChunkSlabs
                              : buckets);
  return static_cast<std::uint32_t>(clamped);
}

/// Outcome of an allocating bulk operation (SlabOps::bulk_insert) when the
/// caller opts into status reporting. The wave structure applies keys out
/// of order within a 32-key window, so a failure is not a prefix:
/// `fail_base` is the index of the failing wave's first key and
/// `fail_pending` the lane mask (bit i = keys[fail_base + i]) of keys in
/// that wave still unapplied when the chain could not grow. Every
/// key at index >= fail_base + 32 is also unapplied. Keys outside that set
/// were fully applied and ARE counted in the operation's return value, so
/// per-vertex counters stay exact across an abort.
struct BulkStatus {
  bool ok = true;
  std::uint32_t fail_base = 0;
  std::uint32_t fail_pending = 0;
};

/// Occupancy of one table, used by the Figure 2 memory-utilization series.
struct TableOccupancy {
  std::uint64_t live_keys = 0;
  std::uint64_t tombstones = 0;
  std::uint64_t slots = 0;       ///< total key slots across all slabs
  std::uint64_t base_slabs = 0;
  std::uint64_t overflow_slabs = 0;

  double utilization() const noexcept {
    return slots == 0 ? 0.0
                      : static_cast<double>(live_keys) / static_cast<double>(slots);
  }
};

}  // namespace sg::slabhash
