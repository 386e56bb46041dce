#include "src/slabhash/slab_map.hpp"

#include <bit>
#include <cstring>
#include <vector>

#include "src/simt/atomics.hpp"
#include "src/simt/simd.hpp"
#include "src/simt/warp.hpp"

// Hot paths (replace / erase / search / for_each) execute the paper's
// warp-parallel slab operation as one vectorized compare per slab
// (simt::probe_slab -> ballot-style masks -> ffs), not a per-word loop of
// atomic loads. CAS is kept only for the slot being claimed or tombstoned;
// every read before that is a plain vector load, which the
// phase-concurrent model permits (a stale word is re-checked by the CAS).

namespace sg::slabhash {

using memory::kNullSlab;
using memory::Slab;
using memory::SlabHandle;
using simt::atomic_cas;
using simt::atomic_load;
using simt::atomic_store;

namespace {

/// Appends a fresh slab after `slab` if it has no successor; returns the
/// successor either way, or kNullSlab when the arena is exhausted (the
/// chain is untouched in that case — callers surface the failure). Losing
/// the publication race frees the new slab and follows the winner, exactly
/// as slab hash does on the GPU.
SlabHandle extend_chain(memory::SlabArena& arena, Slab& slab,
                        std::uint32_t alloc_seed) {
  const SlabHandle fresh = arena.try_allocate(kEmptyKey, alloc_seed);
  if (fresh == kNullSlab) return kNullSlab;
  // A fresh slab is all kEmptyKey; kEmptyKey == kNullSlab, so its next
  // pointer is already "null".
  const std::uint32_t observed =
      atomic_cas(slab.words[kNextPtrWord], kNullSlab, fresh);
  if (observed == kNullSlab) return fresh;
  arena.free(fresh);
  return observed;
}

/// Shared exhaustion exit of the scalar mutation paths (status == nullptr):
/// preserves the historical throwing contract.
[[noreturn]] void throw_exhausted() {
  throw memory::ArenaExhausted(
      "slabhash: cannot extend bucket chain: arena exhausted");
}

struct PairClaim {
  bool success = false;
  std::uint32_t observed_key = kEmptyKey;
};

/// Claims the <key, value> pair at the (even, odd) word pair starting at
/// `pair_words` with ONE 64-bit CAS, so no reader can ever observe a claimed
/// key without its value — this closes the read-your-write window between
/// the old key CAS and the follow-up value store. The expected state is
/// (EMPTY, EMPTY): insertion only claims EMPTY slots, and a slot's value
/// word is EMPTY whenever its key word is (allocation fills both,
/// clear/flush reset both, and this CAS writes both).
inline PairClaim claim_pair(std::uint32_t* pair_words, std::uint32_t key,
                            std::uint32_t value) noexcept {
  // The pair is 8-byte aligned (slabs are 128-byte aligned, key words are
  // even), so the two words form one naturally-aligned 64-bit lane and the
  // CAS publishes them together on either byte order — the key simply
  // occupies whichever half aliases pair_words[0]. (The uint64 view of the
  // uint32 array is formally type punning; the atomic op makes it safe in
  // practice on every supported toolchain.)
  constexpr bool kKeyInLowHalf = std::endian::native == std::endian::little;
  auto* pair = reinterpret_cast<std::uint64_t*>(pair_words);
  constexpr std::uint64_t kExpected =
      (std::uint64_t{kEmptyKey} << 32) | kEmptyKey;  // all-ones either way
  const std::uint64_t desired = kKeyInLowHalf
                                    ? (std::uint64_t{value} << 32) | key
                                    : (std::uint64_t{key} << 32) | value;
  const std::uint64_t observed = atomic_cas(*pair, kExpected, desired);
  if (observed == kExpected) return {true, kEmptyKey};
  return {false, static_cast<std::uint32_t>(
                     kKeyInLowHalf ? observed : observed >> 32)};
}

}  // namespace

namespace {

/// map_replace after hashing: shared by the scalar entry point and the bulk
/// path's singleton runs (which arrive pre-hashed). `chain_slabs`, when
/// non-null, receives how deep into the chain the walk went (1 = base).
/// On arena exhaustion: records the failure into `status` when given (the
/// key is then NOT inserted and not counted), else throws ArenaExhausted.
/// kSharedBucket: other threads may insert into this bucket at the same
/// time (the scalar entry point; a bulk run owns its bucket). The probe then
/// reads a snapshot, not the shared words: the compiler may read a word once
/// per mask, and a peer claiming this key between the two reads leaves its
/// slot in neither the match nor the EMPTY mask, so both callers would
/// claim a slot of their own.
template <bool kSharedBucket>
bool replace_in_bucket(memory::SlabArena& arena, TableRef table,
                       std::uint32_t bucket, std::uint32_t key,
                       std::uint32_t value, std::uint32_t alloc_seed,
                       std::uint32_t* chain_slabs = nullptr,
                       BulkStatus* status = nullptr) {
  SlabHandle handle = table.bucket_head(bucket);
  // The walked depth is kept in a register and published only at the exits:
  // a per-slab store through chain_slabs could alias slab words and force
  // the compiler to reload them mid-probe.
  std::uint32_t depth = 0;
  for (;;) {
    ++depth;
    Slab& slab = arena.resolve(handle);
    std::uint32_t snap[memory::kWordsPerSlab];
    const std::uint32_t* words = slab.words;
    if constexpr (kSharedBucket) {
      simt::snapshot_slab(slab, snap);
      asm("" : "+m"(snap));  // the masks must come from this copy
      words = snap;
    }
    const simt::SlabProbe probe =
        simt::probe_slab(words, key, kEmptyKey, kTombstoneKey);
    const std::uint32_t match = probe.match & kMapKeyWordsMask;
    if (match != 0) {  // key already stored: overwrite the value
      atomic_store(slab.words[std::countr_zero(match) + 1], value);
      if (chain_slabs != nullptr) *chain_slabs = depth;
      return false;
    }
    // Claim the first EMPTY key slot with a single 64-bit key+value CAS;
    // on a lost race fall through to the next candidate (tombstones are
    // never reused by insertion).
    std::uint32_t empties = probe.empty & kMapKeyWordsMask;
    while (empties != 0) {
      const int key_word = std::countr_zero(empties);
      const PairClaim claim = claim_pair(&slab.words[key_word], key, value);
      if (claim.success) {
        if (chain_slabs != nullptr) *chain_slabs = depth;
        return true;
      }
      if (claim.observed_key == key) {  // lost the race to an identical key
        atomic_store(slab.words[key_word + 1], value);
        if (chain_slabs != nullptr) *chain_slabs = depth;
        return false;
      }
      empties &= empties - 1;  // a different key claimed the slot
    }
    SlabHandle next = atomic_load(slab.words[kNextPtrWord]);
    if (next == kNullSlab) {
      next = extend_chain(arena, slab, alloc_seed + key);
      if (next == kNullSlab) {
        if (chain_slabs != nullptr) *chain_slabs = depth;
        if (status == nullptr) throw_exhausted();
        status->ok = false;
        status->fail_base = 0;
        status->fail_pending = 1u;  // the lone key of this singleton run
        return false;
      }
    }
    handle = next;
  }
}

/// map_erase after hashing (scalar entry point + singleton bulk runs).
bool erase_in_bucket(memory::SlabArena& arena, TableRef table,
                     std::uint32_t bucket, std::uint32_t key,
                     std::uint32_t* chain_slabs = nullptr) {
  SlabHandle handle = table.bucket_head(bucket);
  std::uint32_t depth = 0;  // published at the exits only (aliasing)
  bool removed = false;
  while (handle != kNullSlab) {
    ++depth;
    Slab& slab = arena.resolve(handle);
    const simt::SlabProbe probe =
        simt::probe_slab(slab.words, key, kEmptyKey, kTombstoneKey);
    const std::uint32_t match = probe.match & kMapKeyWordsMask;
    if (match != 0) {
      // CAS (not a plain store) so two warps deleting the same key only
      // decrement the edge counter once.
      removed = atomic_cas(slab.words[std::countr_zero(match)], key,
                           kTombstoneKey) == key;
      break;
    }
    if ((probe.empty & kMapKeyWordsMask) != 0) break;  // empties at the tail
    handle = atomic_load(slab.words[kNextPtrWord]);
  }
  if (chain_slabs != nullptr) *chain_slabs = depth;
  return removed;
}

/// map_search after hashing (scalar entry point + singleton bulk runs).
/// No snapshot copy: keys publish together with their values in one 64-bit
/// CAS (claim_pair), so a matched key's value word is always valid — even
/// mid-insert-phase a reader can never catch the pair half-written.
MapFindResult search_in_bucket(const memory::SlabArena& arena, TableRef table,
                               std::uint32_t bucket, std::uint32_t key) {
  SlabHandle handle = table.bucket_head(bucket);
  while (handle != kNullSlab) {
    const Slab& slab = arena.resolve(handle);
    const simt::SlabProbe probe =
        simt::probe_slab(slab.words, key, kEmptyKey, kTombstoneKey);
    const std::uint32_t match = probe.match & kMapKeyWordsMask;
    if (match != 0) {
      return {true, atomic_load(slab.words[std::countr_zero(match) + 1])};
    }
    if ((probe.empty & kMapKeyWordsMask) != 0) return {};
    handle = atomic_load(slab.words[kNextPtrWord]);
  }
  return {};
}

}  // namespace

bool map_replace(memory::SlabArena& arena, TableRef table, std::uint32_t key,
                 std::uint32_t value, std::uint64_t seed,
                 std::uint32_t alloc_seed) {
  return replace_in_bucket<true>(arena, table,
                                 bucket_of(key, table.num_buckets, seed), key,
                                 value, alloc_seed);
}

bool map_erase(memory::SlabArena& arena, TableRef table, std::uint32_t key,
               std::uint64_t seed) {
  return erase_in_bucket(arena, table, bucket_of(key, table.num_buckets, seed),
                         key);
}

MapFindResult map_search(const memory::SlabArena& arena, TableRef table,
                         std::uint32_t key, std::uint64_t seed) {
  return search_in_bucket(arena, table,
                          bucket_of(key, table.num_buckets, seed), key);
}

// ---------------------------------------------------------------------------
// Staged bulk entry points. One wave of <= 32 keys (a warp's worth) walks
// the bucket chain once: per slab, one vector compare per still-pending key
// against cache-hot words, ONE EMPTY-mask scan shared by every claim, and
// the successor slab prefetched while the compares resolve.
// ---------------------------------------------------------------------------

std::uint32_t map_bulk_replace(memory::SlabArena& arena, TableRef table,
                               std::uint32_t bucket, const std::uint32_t* keys,
                               const std::uint32_t* values, std::uint32_t count,
                               std::uint32_t alloc_seed,
                               std::uint32_t* chain_slabs,
                               BulkStatus* status) {
  if (count == 1) {  // singleton run: sparse batches are mostly these
    return replace_in_bucket<false>(arena, table, bucket, keys[0], values[0],
                                    alloc_seed, chain_slabs, status)
               ? 1u
               : 0u;
  }
  std::uint32_t added = 0;
  std::uint32_t max_depth = 0;
  for (std::uint32_t base = 0; base < count; base += simt::kWarpSize) {
    const std::uint32_t wave = count - base < simt::kWarpSize
                                   ? count - base
                                   : static_cast<std::uint32_t>(simt::kWarpSize);
    std::uint32_t pending = simt::lanemask_below(static_cast<int>(wave));
    SlabHandle handle = table.bucket_head(bucket);
    std::uint32_t depth = 0;
    while (pending != 0) {
      ++depth;
      Slab& slab = arena.resolve(handle);
      // Load the successor early: its slab climbs the cache hierarchy
      // while this slab's compares and claims resolve.
      SlabHandle next = atomic_load(slab.words[kNextPtrWord]);
      if (next != kNullSlab) simt::prefetch(&arena.resolve(next));
      // The first lane's probe yields the slab's EMPTY mask for free (one
      // pass computes all three masks); later lanes only need the match.
      // The run owns this bucket for the phase, so that one EMPTY scan
      // serves every claim below: claimed slots vanish from the local mask.
      std::uint32_t empties = 0;
      bool probed = false;
      for (std::uint32_t m = pending; m != 0; m &= m - 1) {
        const int lane = std::countr_zero(m);
        std::uint32_t match;
        if (!probed) {
          const simt::SlabProbe probe = simt::probe_slab(
              slab.words, keys[base + lane], kEmptyKey, kTombstoneKey);
          match = probe.match & kMapKeyWordsMask;
          empties = probe.empty & kMapKeyWordsMask;
          probed = true;
        } else {
          match = simt::match_mask(slab.words, keys[base + lane]) &
                  kMapKeyWordsMask;
        }
        if (match != 0) {  // already stored: overwrite the value, not new
          atomic_store(slab.words[std::countr_zero(match) + 1],
                       values[base + lane]);
          pending &= ~(1u << lane);
        }
      }
      for (std::uint32_t m = pending; m != 0 && empties != 0; m &= m - 1) {
        const int lane = std::countr_zero(m);
        const std::uint32_t key = keys[base + lane];
        while (empties != 0) {
          const int key_word = std::countr_zero(empties);
          const PairClaim claim =
              claim_pair(&slab.words[key_word], key, values[base + lane]);
          if (claim.success) {
            ++added;
            pending &= ~(1u << lane);
            empties &= ~(1u << key_word);
            break;
          }
          if (claim.observed_key == key) {  // racing identical key
            atomic_store(slab.words[key_word + 1], values[base + lane]);
            pending &= ~(1u << lane);
            break;
          }
          empties &= ~(1u << key_word);  // slot taken by a different key
        }
      }
      if (pending == 0) break;
      if (next == kNullSlab) {
        next = extend_chain(arena, slab,
                            alloc_seed + keys[base + std::countr_zero(pending)]);
        if (next == kNullSlab) {
          // Arena exhausted mid-wave. Keys already applied (this wave's
          // cleared lanes, and every earlier wave) stay applied and stay
          // counted in `added`; the failure report covers the rest.
          if (depth > max_depth) max_depth = depth;
          if (chain_slabs != nullptr) *chain_slabs = max_depth;
          if (status == nullptr) throw_exhausted();
          status->ok = false;
          status->fail_base = base;
          status->fail_pending = pending;
          return added;
        }
      }
      handle = next;
    }
    if (depth > max_depth) max_depth = depth;
  }
  if (chain_slabs != nullptr) *chain_slabs = max_depth;
  return added;
}

std::uint32_t map_bulk_erase(memory::SlabArena& arena, TableRef table,
                             std::uint32_t bucket, const std::uint32_t* keys,
                             std::uint32_t count, std::uint32_t* chain_slabs) {
  if (count == 1) {
    return erase_in_bucket(arena, table, bucket, keys[0], chain_slabs) ? 1u : 0u;
  }
  std::uint32_t removed = 0;
  std::uint32_t max_depth = 0;
  for (std::uint32_t base = 0; base < count; base += simt::kWarpSize) {
    const std::uint32_t wave = count - base < simt::kWarpSize
                                   ? count - base
                                   : static_cast<std::uint32_t>(simt::kWarpSize);
    std::uint32_t pending = simt::lanemask_below(static_cast<int>(wave));
    SlabHandle handle = table.bucket_head(bucket);
    std::uint32_t depth = 0;
    while (pending != 0 && handle != kNullSlab) {
      ++depth;
      Slab& slab = arena.resolve(handle);
      const SlabHandle next = atomic_load(slab.words[kNextPtrWord]);
      if (next != kNullSlab) simt::prefetch(&arena.resolve(next));
      // First lane probes all three masks in one pass; erase never creates
      // EMPTY slots, so the mask stays valid across the wave.
      std::uint32_t empties = 0;
      bool probed = false;
      for (std::uint32_t m = pending; m != 0; m &= m - 1) {
        const int lane = std::countr_zero(m);
        const std::uint32_t key = keys[base + lane];
        std::uint32_t match;
        if (!probed) {
          const simt::SlabProbe probe =
              simt::probe_slab(slab.words, key, kEmptyKey, kTombstoneKey);
          match = probe.match & kMapKeyWordsMask;
          empties = probe.empty & kMapKeyWordsMask;
          probed = true;
        } else {
          match = simt::match_mask(slab.words, key) & kMapKeyWordsMask;
        }
        if (match != 0) {
          // CAS so a concurrent erase of the same key counts only once.
          if (atomic_cas(slab.words[std::countr_zero(match)], key,
                         kTombstoneKey) == key) {
            ++removed;
          }
          pending &= ~(1u << lane);
        }
      }
      // Empties only at the tail: an EMPTY slot here means every key still
      // pending is absent from the chain.
      if (empties != 0) break;
      handle = next;
    }
    if (depth > max_depth) max_depth = depth;
  }
  if (chain_slabs != nullptr) *chain_slabs = max_depth;
  return removed;
}

void map_bulk_search(const memory::SlabArena& arena, TableRef table,
                     std::uint32_t bucket, const std::uint32_t* keys,
                     std::uint32_t count, std::uint8_t* found,
                     std::uint32_t* values, std::uint32_t* chain_slabs) {
  if (count == 1 && chain_slabs == nullptr) {
    const MapFindResult r = search_in_bucket(arena, table, bucket, keys[0]);
    found[0] = r.found ? 1 : 0;
    if (values != nullptr && r.found) values[0] = r.value;
    return;
  }
  // Chain depth is register-held and published once at exit, matching the
  // bulk mutations' aliasing-safe feedback discipline.
  std::uint32_t deepest = 0;
  for (std::uint32_t base = 0; base < count; base += simt::kWarpSize) {
    const std::uint32_t wave = count - base < simt::kWarpSize
                                   ? count - base
                                   : static_cast<std::uint32_t>(simt::kWarpSize);
    std::uint32_t pending = simt::lanemask_below(static_cast<int>(wave));
    for (std::uint32_t lane = 0; lane < wave; ++lane) found[base + lane] = 0;
    SlabHandle handle = table.bucket_head(bucket);
    std::uint32_t depth = 0;
    while (pending != 0 && handle != kNullSlab) {
      ++depth;
      const Slab& slab = arena.resolve(handle);
      const SlabHandle next = atomic_load(slab.words[kNextPtrWord]);
      if (next != kNullSlab) simt::prefetch(&arena.resolve(next));
      std::uint32_t empties = 0;
      bool probed = false;
      for (std::uint32_t m = pending; m != 0; m &= m - 1) {
        const int lane = std::countr_zero(m);
        std::uint32_t match;
        if (!probed) {
          const simt::SlabProbe probe = simt::probe_slab(
              slab.words, keys[base + lane], kEmptyKey, kTombstoneKey);
          match = probe.match & kMapKeyWordsMask;
          empties = probe.empty & kMapKeyWordsMask;
          probed = true;
        } else {
          match = simt::match_mask(slab.words, keys[base + lane]) &
                  kMapKeyWordsMask;
        }
        if (match != 0) {
          found[base + lane] = 1;
          if (values != nullptr) {
            values[base + lane] =
                atomic_load(slab.words[std::countr_zero(match) + 1]);
          }
          pending &= ~(1u << lane);
        }
      }
      if (empties != 0) break;  // empties only at the tail: the rest miss
      handle = next;
    }
    if (depth > deepest) deepest = depth;
  }
  if (chain_slabs != nullptr) *chain_slabs = deepest;
}

void map_for_each(const memory::SlabArena& arena, TableRef table,
                  const std::function<void(std::uint32_t, std::uint32_t)>& fn) {
  for (std::uint32_t b = 0; b < table.num_buckets; ++b) {
    SlabHandle handle = table.bucket_head(b);
    while (handle != kNullSlab) {
      std::uint32_t snap[memory::kWordsPerSlab];
      simt::snapshot_slab(arena.resolve(handle), snap);
      const std::uint32_t empties =
          simt::empty_mask(snap, kEmptyKey) & kMapKeyWordsMask;
      const std::uint32_t tombs =
          simt::tombstone_mask(snap, kTombstoneKey) & kMapKeyWordsMask;
      // Live pairs sit below the first EMPTY slot (empties only at the
      // slab tail); tombstoned slots are skipped.
      std::uint32_t live = kMapKeyWordsMask & ~tombs &
                           simt::bits_below(std::countr_zero(empties));
      while (live != 0) {
        const int key_word = std::countr_zero(live);
        fn(snap[key_word], snap[key_word + 1]);
        live &= live - 1;
      }
      handle = snap[kNextPtrWord];
    }
  }
}

std::uint32_t map_gather(const memory::SlabArena& arena, TableRef table,
                         std::uint32_t* out, std::uint32_t cap,
                         std::uint32_t* chain_slabs) {
  std::uint32_t written = 0;
  std::uint32_t deepest = 0;  // register-held, published once at exit
  for (std::uint32_t b = 0; b < table.num_buckets; ++b) {
    SlabHandle handle = table.bucket_head(b);
    std::uint32_t depth = 0;
    while (handle != kNullSlab) {
      ++depth;
      std::uint32_t snap[memory::kWordsPerSlab];
      simt::snapshot_slab(arena.resolve(handle), snap);
      const SlabHandle next = snap[kNextPtrWord];
      if (next != kNullSlab) simt::prefetch(&arena.resolve(next));
      const std::uint32_t empties =
          simt::empty_mask(snap, kEmptyKey) & kMapKeyWordsMask;
      const std::uint32_t tombs =
          simt::tombstone_mask(snap, kTombstoneKey) & kMapKeyWordsMask;
      std::uint32_t live = kMapKeyWordsMask & ~tombs &
                           simt::bits_below(std::countr_zero(empties));
      while (live != 0 && written < cap) {
        out[written++] = snap[std::countr_zero(live)];
        live &= live - 1;
      }
      handle = next;
    }
    if (depth > deepest) deepest = depth;
  }
  if (chain_slabs != nullptr) *chain_slabs = deepest;
  return written;
}

std::uint32_t map_scan_below(const memory::SlabArena& arena, TableRef table,
                             std::uint32_t threshold, std::uint32_t* out,
                             std::uint32_t cap, std::uint32_t* chain_slabs) {
  std::uint32_t written = 0;
  std::uint32_t deepest = 0;  // register-held, published once at exit
  for (std::uint32_t b = 0; b < table.num_buckets; ++b) {
    SlabHandle handle = table.bucket_head(b);
    std::uint32_t depth = 0;
    while (handle != kNullSlab) {
      ++depth;
      std::uint32_t snap[memory::kWordsPerSlab];
      simt::snapshot_slab(arena.resolve(handle), snap);
      const SlabHandle next = snap[kNextPtrWord];
      if (next != kNullSlab) simt::prefetch(&arena.resolve(next));
      const std::uint32_t empties =
          simt::empty_mask(snap, kEmptyKey) & kMapKeyWordsMask;
      const std::uint32_t tombs =
          simt::tombstone_mask(snap, kTombstoneKey) & kMapKeyWordsMask;
      std::uint32_t live = kMapKeyWordsMask & ~tombs &
                           simt::bits_below(std::countr_zero(empties));
      while (live != 0 && written < cap) {
        const int key_word = std::countr_zero(live);
        if (snap[key_word + 1] < threshold) out[written++] = snap[key_word];
        live &= live - 1;
      }
      handle = next;
    }
    if (depth > deepest) deepest = depth;
  }
  if (chain_slabs != nullptr) *chain_slabs = deepest;
  return written;
}

TableOccupancy map_occupancy(const memory::SlabArena& arena, TableRef table) {
  // One probe per slab + three popcounts, instead of a per-pair word loop.
  TableOccupancy occ;
  occ.base_slabs = table.num_buckets;
  for (std::uint32_t b = 0; b < table.num_buckets; ++b) {
    SlabHandle handle = table.bucket_head(b);
    bool base = true;
    while (handle != kNullSlab) {
      const Slab& slab = arena.resolve(handle);
      if (!base) ++occ.overflow_slabs;
      occ.slots += kMapPairsPerSlab;
      const simt::SlabProbe probe =
          simt::probe_slab(slab.words, kEmptyKey, kEmptyKey, kTombstoneKey);
      const std::uint32_t empties = probe.empty & kMapKeyWordsMask;
      const std::uint32_t tombs = probe.tombstone & kMapKeyWordsMask;
      occ.tombstones += simt::popc(tombs);
      occ.live_keys += simt::popc(kMapKeyWordsMask & ~empties & ~tombs);
      handle = slab.words[kNextPtrWord];
      base = false;
    }
  }
  return occ;
}

void map_flush_tombstones(memory::SlabArena& arena, TableRef table) {
  for (std::uint32_t b = 0; b < table.num_buckets; ++b) {
    // Collect live pairs of this bucket chain, then rewrite the chain
    // densely and free overflow slabs that became empty.
    std::vector<std::pair<std::uint32_t, std::uint32_t>> live;
    std::vector<SlabHandle> chain;
    SlabHandle handle = table.bucket_head(b);
    while (handle != kNullSlab) {
      chain.push_back(handle);
      const Slab& slab = arena.resolve(handle);
      const simt::SlabProbe probe =
          simt::probe_slab(slab.words, kEmptyKey, kEmptyKey, kTombstoneKey);
      std::uint32_t live_mask =
          kMapKeyWordsMask & ~probe.empty & ~probe.tombstone;
      while (live_mask != 0) {
        const int key_word = std::countr_zero(live_mask);
        live.emplace_back(slab.words[key_word], slab.words[key_word + 1]);
        live_mask &= live_mask - 1;
      }
      handle = slab.words[kNextPtrWord];
    }
    std::size_t cursor = 0;
    std::size_t keep_slabs = 0;
    for (std::size_t s = 0; s < chain.size(); ++s) {
      Slab& slab = arena.resolve(chain[s]);
      bool any = false;
      for (int pair = 0; pair < kMapPairsPerSlab; ++pair) {
        if (cursor < live.size()) {
          slab.words[pair * 2] = live[cursor].first;
          slab.words[pair * 2 + 1] = live[cursor].second;
          ++cursor;
          any = true;
        } else {
          slab.words[pair * 2] = kEmptyKey;
          slab.words[pair * 2 + 1] = kEmptyKey;
        }
      }
      if (any || s == 0) keep_slabs = s + 1;
    }
    // Detach and free overflow slabs past the last one still in use.
    if (!chain.empty()) {
      Slab& last_kept = arena.resolve(chain[keep_slabs - 1]);
      last_kept.words[kNextPtrWord] = kNullSlab;
      for (std::size_t s = keep_slabs; s < chain.size(); ++s) {
        arena.free(chain[s]);
      }
    }
  }
}

void map_clear(memory::SlabArena& arena, TableRef table) {
  // kEmptyKey (== kNullSlab) is all-ones, so one 128-byte memset resets
  // keys, values, the reserved word, and the next pointer at once.
  static_assert(kEmptyKey == 0xFFFFFFFFu && memory::kNullSlab == 0xFFFFFFFFu);
  for (std::uint32_t b = 0; b < table.num_buckets; ++b) {
    Slab& head = arena.resolve(table.bucket_head(b));
    SlabHandle overflow = head.words[kNextPtrWord];
    while (overflow != kNullSlab) {
      const SlabHandle next = arena.resolve(overflow).words[kNextPtrWord];
      arena.free(overflow);
      overflow = next;
    }
    std::memset(head.words, 0xFF, sizeof(head.words));
  }
}

SlabHashMap::SlabHashMap(memory::SlabArena& arena, std::uint32_t num_buckets,
                         std::uint64_t seed)
    : arena_(&arena), seed_(seed) {
  table_.num_buckets = num_buckets == 0 ? 1 : num_buckets;
  table_.base = arena.allocate_contiguous(table_.num_buckets, kEmptyKey);
}

}  // namespace sg::slabhash
