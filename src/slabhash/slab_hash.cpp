#include "src/slabhash/slab_hash.hpp"

#include <algorithm>
#include <bit>
#include <cstring>
#include <vector>

#include "src/simt/atomics.hpp"
#include "src/simt/simd.hpp"
#include "src/simt/warp.hpp"

// Hot paths (insert / erase / search / for_each) execute the paper's
// warp-parallel slab operation as one vectorized compare per slab
// (simt::probe_slab -> ballot-style masks -> ffs), not a per-word loop of
// atomic loads. CAS is kept only for the slot being claimed or tombstoned;
// every read before that is a plain vector load, which the
// phase-concurrent model permits (a stale word is re-checked by the CAS).
//
// Both slab formats are instantiated at the bottom of this file; the code
// stays out of line, in this one translation unit, so adding to it does
// not move the inlining of the graph's staging and apply paths
// (docs/PERF.md "Code placement").

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
/// preserves the throwing contract.
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
/// a key CAS and a follow-up value store. The expected state is
/// (EMPTY, EMPTY): this CAS only claims EMPTY slots (a tombstone is reused
/// by fill_tombstone instead), and a slot's value word is EMPTY whenever
/// its key word is (allocation fills both, clear/flush reset both, and this
/// CAS writes both).
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

/// Result of claiming one EMPTY slot for a key.
enum class Claim {
  kWon,      ///< the key now occupies the slot: a new key
  kSameKey,  ///< a racing insert of the same key won: not new
  kTaken,    ///< a different key won the slot: try the next EMPTY one
};

/// The format's claim of the EMPTY slot whose key sits at `slab.words[w]`:
/// the map publishes key and value with one 64-bit CAS (and, on losing to
/// the same key, overwrites its value); the set CASes the key word alone.
template <class Layout>
inline Claim claim_slot(Slab& slab, int w, std::uint32_t key,
                        [[maybe_unused]] std::uint32_t value) noexcept {
  if constexpr (Layout::kHasValues) {
    const PairClaim claim = claim_pair(&slab.words[w], key, value);
    if (claim.success) return Claim::kWon;
    if (claim.observed_key != key) return Claim::kTaken;
    atomic_store(slab.words[w + 1], value);
    return Claim::kSameKey;
  } else {
    const std::uint32_t observed = atomic_cas(slab.words[w], kEmptyKey, key);
    if (observed == kEmptyKey) return Claim::kWon;
    return observed == key ? Claim::kSameKey : Claim::kTaken;
  }
}

/// Reuses the tombstoned slot whose key word is `key_word` for an absent
/// key. Only the bulk paths call this: their run owns its bucket for the
/// phase, and no query phase overlaps it, so no peer claims the slot or
/// reads it mid-write and plain stores suffice. The map writes the value
/// word first, so the key never appears with the erased key's stale value.
template <class Layout>
inline void fill_tombstone(std::uint32_t* key_word, std::uint32_t key,
                           [[maybe_unused]] std::uint32_t value) noexcept {
  if constexpr (Layout::kHasValues) atomic_store(key_word[1], value);
  atomic_store(key_word[0], key);
}

/// A present key's new value ("most recent edge and its weight will be
/// stored"); the set has nothing to overwrite.
template <class Layout>
inline void overwrite_value(Slab& slab, int w,
                            [[maybe_unused]] std::uint32_t value) noexcept {
  if constexpr (Layout::kHasValues) atomic_store(slab.words[w + 1], value);
}

/// Live key words of a slab snapshot: key words below the first EMPTY
/// slot (empties only at the slab tail) that are not tombstoned.
template <class Layout>
inline std::uint32_t live_key_words(const std::uint32_t* snap) noexcept {
  const std::uint32_t empties =
      simt::empty_mask(snap, kEmptyKey) & Layout::kKeyWordsMask;
  const std::uint32_t tombs =
      simt::tombstone_mask(snap, kTombstoneKey) & Layout::kKeyWordsMask;
  return Layout::kKeyWordsMask & ~tombs &
         simt::bits_below(std::countr_zero(empties));
}

/// insert after hashing: shared by the scalar entry point and the bulk
/// path's singleton runs (which arrive pre-hashed).
/// On arena exhaustion: records the failure into `status` when given (the
/// key is then NOT inserted and not counted), else throws ArenaExhausted.
/// kSharedBucket: other threads may insert into this bucket at the same
/// time (the scalar entry point; a bulk run owns its bucket). The probe then
/// reads a snapshot, not the shared words: the compiler may read a word once
/// per mask, and a peer claiming this key between the two reads leaves its
/// slot in neither the match nor the EMPTY mask, so both callers would
/// claim a slot of their own. The shared path keeps the paper's tail-only
/// claim; the owned path reuses the first tombstone it passed once the
/// chain's end proves the key absent.
template <class Layout, bool kSharedBucket>
bool insert_in_bucket(memory::SlabArena& arena, TableRef table,
                      std::uint32_t bucket, std::uint32_t key,
                      std::uint32_t value, std::uint32_t alloc_seed,
                      BulkStatus* status = nullptr) {
  SlabHandle handle = table.bucket_head(bucket);
  [[maybe_unused]] std::uint32_t* reuse = nullptr;  // first tombstone passed
  for (;;) {
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
    const std::uint32_t match = probe.match & Layout::kKeyWordsMask;
    if (match != 0) {  // key already stored
      overwrite_value<Layout>(slab, std::countr_zero(match), value);
      return false;
    }
    std::uint32_t empties = probe.empty & Layout::kKeyWordsMask;
    if constexpr (!kSharedBucket) {
      const std::uint32_t tombs = probe.tombstone & Layout::kKeyWordsMask;
      if (reuse == nullptr && tombs != 0) {
        reuse = &slab.words[std::countr_zero(tombs)];
      }
      if (reuse != nullptr &&
          (empties != 0 ||
           atomic_load(slab.words[kNextPtrWord]) == kNullSlab)) {
        fill_tombstone<Layout>(reuse, key, value);
        return true;
      }
    }
    // Claim the first EMPTY key slot; on a lost race fall through to the
    // next candidate.
    while (empties != 0) {
      const Claim claim =
          claim_slot<Layout>(slab, std::countr_zero(empties), key, value);
      if (claim != Claim::kTaken) return claim == Claim::kWon;
      empties &= empties - 1;  // a different key claimed the slot
    }
    SlabHandle next = atomic_load(slab.words[kNextPtrWord]);
    if (next == kNullSlab) {
      next = extend_chain(arena, slab, alloc_seed + key);
      if (next == kNullSlab) {
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

/// erase after hashing (scalar entry point + singleton bulk runs).
template <class Layout>
bool erase_in_bucket(memory::SlabArena& arena, TableRef table,
                     std::uint32_t bucket, std::uint32_t key) {
  SlabHandle handle = table.bucket_head(bucket);
  bool removed = false;
  while (handle != kNullSlab) {
    Slab& slab = arena.resolve(handle);
    const simt::SlabProbe probe =
        simt::probe_slab(slab.words, key, kEmptyKey, kTombstoneKey);
    const std::uint32_t match = probe.match & Layout::kKeyWordsMask;
    if (match != 0) {
      // CAS (not a plain store) so two warps deleting the same key only
      // decrement the edge counter once.
      removed = atomic_cas(slab.words[std::countr_zero(match)], key,
                           kTombstoneKey) == key;
      break;
    }
    // Empties at the tail: an EMPTY slot means the key is absent.
    if ((probe.empty & Layout::kKeyWordsMask) != 0) break;
    handle = atomic_load(slab.words[kNextPtrWord]);
  }
  return removed;
}

/// search after hashing (scalar entry point + singleton bulk runs). A GPU
/// warp compares all 32 slab words in one step; here that is one vector
/// compare per slab. No snapshot copy: the map publishes keys together with
/// their values in one 64-bit CAS (claim_pair), so a matched key's value
/// word is always valid — even mid-insert-phase a reader can never catch
/// the pair half-written.
template <class Layout>
MapFindResult search_in_bucket(const memory::SlabArena& arena, TableRef table,
                               std::uint32_t bucket, std::uint32_t key) {
  SlabHandle handle = table.bucket_head(bucket);
  while (handle != kNullSlab) {
    const Slab& slab = arena.resolve(handle);
    const simt::SlabProbe probe =
        simt::probe_slab(slab.words, key, kEmptyKey, kTombstoneKey);
    const std::uint32_t match = probe.match & Layout::kKeyWordsMask;
    if (match != 0) {
      if constexpr (Layout::kHasValues) {
        return {true, atomic_load(slab.words[std::countr_zero(match) + 1])};
      } else {
        return {true, 0};
      }
    }
    if ((probe.empty & Layout::kKeyWordsMask) != 0) return {};
    handle = atomic_load(slab.words[kNextPtrWord]);
  }
  return {};
}

}  // namespace

template <class Layout>
bool SlabOps<Layout>::insert(memory::SlabArena& arena, TableRef table,
                             std::uint32_t key, std::uint32_t value,
                             std::uint64_t seed, std::uint32_t alloc_seed) {
  return insert_in_bucket<Layout, true>(
      arena, table, bucket_of(key, table.num_buckets, seed), key, value,
      alloc_seed);
}

template <class Layout>
bool SlabOps<Layout>::erase(memory::SlabArena& arena, TableRef table,
                            std::uint32_t key, std::uint64_t seed) {
  return erase_in_bucket<Layout>(
      arena, table, bucket_of(key, table.num_buckets, seed), key);
}

template <class Layout>
bool SlabOps<Layout>::contains(const memory::SlabArena& arena, TableRef table,
                               std::uint32_t key, std::uint64_t seed) {
  return search_in_bucket<Layout>(
             arena, table, bucket_of(key, table.num_buckets, seed), key)
      .found;
}

template <class Layout>
MapFindResult SlabOps<Layout>::search(const memory::SlabArena& arena,
                                      TableRef table, std::uint32_t key,
                                      std::uint64_t seed)
  requires kHasValues
{
  return search_in_bucket<Layout>(
      arena, table, bucket_of(key, table.num_buckets, seed), key);
}

// ---------------------------------------------------------------------------
// Staged bulk entry points. One wave of <= 32 keys (a warp's worth) walks
// the bucket chain once: per slab, one vector compare per still-pending key
// against cache-hot words, ONE EMPTY/TOMBSTONE-mask scan shared by every
// claim, and the whole successor slab (both cache lines) prefetched while
// the compares resolve.
// Unlike the paper ("tombstones are disregarded in edge insertion"), a bulk
// insert reuses tombstoned slots: its run owns the bucket for the phase, so
// the race that forbids reuse on the GPU cannot happen (docs/ARCHITECTURE.md).
// ---------------------------------------------------------------------------

template <class Layout>
std::uint32_t SlabOps<Layout>::bulk_insert(
    memory::SlabArena& arena, TableRef table, std::uint32_t bucket,
    const std::uint32_t* keys, [[maybe_unused]] const std::uint32_t* values,
    std::uint32_t count, std::uint32_t alloc_seed, BulkStatus* status) {
  // The set has no values: every value argument below is unused.
  const auto value_at = [values](std::uint32_t i) -> std::uint32_t {
    if constexpr (kHasValues) {
      return values[i];
    } else {
      return 0;
    }
  };
  if (count == 1) {  // singleton run: sparse batches are mostly these
    return insert_in_bucket<Layout, false>(arena, table, bucket, keys[0],
                                           value_at(0), alloc_seed, status)
               ? 1u
               : 0u;
  }
  std::uint32_t added = 0;
  for (std::uint32_t base = 0; base < count; base += simt::kWarpSize) {
    const std::uint32_t wave = count - base < simt::kWarpSize
                                   ? count - base
                                   : static_cast<std::uint32_t>(simt::kWarpSize);
    std::uint32_t pending = simt::lanemask_below(static_cast<int>(wave));
    SlabHandle handle = table.bucket_head(bucket);
    // Key words of the tombstones passed so far, in chain order. A wave of
    // <= 32 keys never fills more than 32 of them.
    std::uint32_t* tombs[simt::kWarpSize];
    std::uint32_t num_tombs = 0;
    while (pending != 0) {
      Slab& slab = arena.resolve(handle);
      // Load the successor early: its slab climbs the cache hierarchy
      // while this slab's compares and claims resolve.
      SlabHandle next = atomic_load(slab.words[kNextPtrWord]);
      if (next != kNullSlab) simt::prefetch_slab(&arena.resolve(next));
      // The first lane's probe yields the slab's EMPTY and TOMBSTONE masks
      // for free (one pass computes all three masks); later lanes only need
      // the match. The run owns this bucket for the phase, so that one scan
      // serves every claim below: claimed slots vanish from the local masks.
      std::uint32_t empties = 0;
      std::uint32_t tombstones = 0;
      bool probed = false;
      for (std::uint32_t m = pending; m != 0; m &= m - 1) {
        const int lane = std::countr_zero(m);
        std::uint32_t match;
        if (!probed) {
          const simt::SlabProbe probe = simt::probe_slab(
              slab.words, keys[base + lane], kEmptyKey, kTombstoneKey);
          match = probe.match & Layout::kKeyWordsMask;
          empties = probe.empty & Layout::kKeyWordsMask;
          tombstones = probe.tombstone & Layout::kKeyWordsMask;
          probed = true;
        } else {
          match = simt::match_mask(slab.words, keys[base + lane]) &
                  Layout::kKeyWordsMask;
        }
        if (match != 0) {  // already stored: overwrite the value, not new
          overwrite_value<Layout>(slab, std::countr_zero(match),
                                  value_at(base + lane));
          pending &= ~(1u << lane);
        }
      }
      if (pending == 0) break;
      for (; tombstones != 0 && num_tombs < simt::kWarpSize;
           tombstones &= tombstones - 1) {
        tombs[num_tombs++] = &slab.words[std::countr_zero(tombstones)];
      }
      // Only the chain's end (a slab with EMPTY slots, or the last slab)
      // proves every pending key absent; before it a key may still sit in
      // a later slab, so nothing is claimed yet.
      if (empties == 0 && next != kNullSlab) {
        handle = next;
        continue;
      }
      // Claim order: the remembered tombstones, then the tail EMPTY slots,
      // then a new slab.
      std::uint32_t t = 0;
      for (std::uint32_t m = pending; m != 0 && t < num_tombs; m &= m - 1) {
        const int lane = std::countr_zero(m);
        fill_tombstone<Layout>(tombs[t++], keys[base + lane],
                               value_at(base + lane));
        ++added;
        pending &= ~(1u << lane);
      }
      num_tombs = 0;  // all used, or the wave is done
      for (std::uint32_t m = pending; m != 0 && empties != 0; m &= m - 1) {
        const int lane = std::countr_zero(m);
        while (empties != 0) {
          const int key_word = std::countr_zero(empties);
          const Claim claim = claim_slot<Layout>(
              slab, key_word, keys[base + lane], value_at(base + lane));
          if (claim == Claim::kWon) {
            ++added;
            pending &= ~(1u << lane);
            empties &= ~(1u << key_word);
            break;
          }
          if (claim == Claim::kSameKey) {  // racing identical key
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
          if (status == nullptr) throw_exhausted();
          status->ok = false;
          status->fail_base = base;
          status->fail_pending = pending;
          return added;
        }
      }
      handle = next;
    }
  }
  return added;
}

template <class Layout>
std::uint32_t SlabOps<Layout>::bulk_erase(memory::SlabArena& arena,
                                          TableRef table, std::uint32_t bucket,
                                          const std::uint32_t* keys,
                                          std::uint32_t count) {
  if (count == 1) {
    return erase_in_bucket<Layout>(arena, table, bucket, keys[0]) ? 1u : 0u;
  }
  std::uint32_t removed = 0;
  for (std::uint32_t base = 0; base < count; base += simt::kWarpSize) {
    const std::uint32_t wave = count - base < simt::kWarpSize
                                   ? count - base
                                   : static_cast<std::uint32_t>(simt::kWarpSize);
    std::uint32_t pending = simt::lanemask_below(static_cast<int>(wave));
    SlabHandle handle = table.bucket_head(bucket);
    while (pending != 0 && handle != kNullSlab) {
      Slab& slab = arena.resolve(handle);
      const SlabHandle next = atomic_load(slab.words[kNextPtrWord]);
      if (next != kNullSlab) simt::prefetch_slab(&arena.resolve(next));
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
          match = probe.match & Layout::kKeyWordsMask;
          empties = probe.empty & Layout::kKeyWordsMask;
          probed = true;
        } else {
          match = simt::match_mask(slab.words, key) & Layout::kKeyWordsMask;
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
  }
  return removed;
}

template <class Layout>
void SlabOps<Layout>::bulk_search(const memory::SlabArena& arena,
                                  TableRef table, std::uint32_t bucket,
                                  const std::uint32_t* keys,
                                  std::uint32_t count, std::uint8_t* found,
                                  [[maybe_unused]] std::uint32_t* values) {
  for (std::uint32_t base = 0; base < count; base += simt::kWarpSize) {
    const std::uint32_t wave = count - base < simt::kWarpSize
                                   ? count - base
                                   : static_cast<std::uint32_t>(simt::kWarpSize);
    std::uint32_t pending = simt::lanemask_below(static_cast<int>(wave));
    for (std::uint32_t lane = 0; lane < wave; ++lane) found[base + lane] = 0;
    SlabHandle handle = table.bucket_head(bucket);
    while (pending != 0 && handle != kNullSlab) {
      const Slab& slab = arena.resolve(handle);
      const SlabHandle next = atomic_load(slab.words[kNextPtrWord]);
      if (next != kNullSlab) simt::prefetch_slab(&arena.resolve(next));
      std::uint32_t empties = 0;
      bool probed = false;
      for (std::uint32_t m = pending; m != 0; m &= m - 1) {
        const int lane = std::countr_zero(m);
        std::uint32_t match;
        if (!probed) {
          const simt::SlabProbe probe = simt::probe_slab(
              slab.words, keys[base + lane], kEmptyKey, kTombstoneKey);
          match = probe.match & Layout::kKeyWordsMask;
          empties = probe.empty & Layout::kKeyWordsMask;
          probed = true;
        } else {
          match = simt::match_mask(slab.words, keys[base + lane]) &
                  Layout::kKeyWordsMask;
        }
        if (match != 0) {
          found[base + lane] = 1;
          if constexpr (kHasValues) {
            if (values != nullptr) {
              values[base + lane] =
                  atomic_load(slab.words[std::countr_zero(match) + 1]);
            }
          }
          pending &= ~(1u << lane);
        }
      }
      if (empties != 0) break;  // empties only at the tail: the rest miss
      handle = next;
    }
  }
}

template <class Layout>
void SlabOps<Layout>::for_each(
    const memory::SlabArena& arena, TableRef table,
    const std::function<void(std::uint32_t, std::uint32_t)>& fn) {
  for (std::uint32_t b = 0; b < table.num_buckets; ++b) {
    SlabHandle handle = table.bucket_head(b);
    while (handle != kNullSlab) {
      std::uint32_t snap[memory::kWordsPerSlab];
      simt::snapshot_slab(arena.resolve(handle), snap);
      for (std::uint32_t live = live_key_words<Layout>(snap); live != 0;
           live &= live - 1) {
        const int key_word = std::countr_zero(live);
        if constexpr (kHasValues) {
          fn(snap[key_word], snap[key_word + 1]);
        } else {
          fn(snap[key_word], 0);
        }
      }
      handle = snap[kNextPtrWord];
    }
  }
}

template <class Layout>
std::uint32_t SlabOps<Layout>::gather(const memory::SlabArena& arena,
                                      TableRef table, std::uint32_t* out,
                                      std::uint32_t cap) {
  std::uint32_t written = 0;
  for (std::uint32_t b = 0; b < table.num_buckets; ++b) {
    SlabHandle handle = table.bucket_head(b);
    while (handle != kNullSlab) {
      std::uint32_t snap[memory::kWordsPerSlab];
      simt::snapshot_slab(arena.resolve(handle), snap);
      const SlabHandle next = snap[kNextPtrWord];
      if (next != kNullSlab) simt::prefetch_slab(&arena.resolve(next));
      std::uint32_t live = live_key_words<Layout>(snap);
      while (live != 0 && written < cap) {
        out[written++] = snap[std::countr_zero(live)];
        live &= live - 1;
      }
      handle = next;
    }
  }
  return written;
}

template <class Layout>
std::uint32_t SlabOps<Layout>::scan_below(const memory::SlabArena& arena,
                                          TableRef table,
                                          std::uint32_t threshold,
                                          std::uint32_t* out,
                                          std::uint32_t cap)
  requires kHasValues
{
  std::uint32_t written = 0;
  for (std::uint32_t b = 0; b < table.num_buckets; ++b) {
    SlabHandle handle = table.bucket_head(b);
    while (handle != kNullSlab) {
      std::uint32_t snap[memory::kWordsPerSlab];
      simt::snapshot_slab(arena.resolve(handle), snap);
      const SlabHandle next = snap[kNextPtrWord];
      if (next != kNullSlab) simt::prefetch_slab(&arena.resolve(next));
      std::uint32_t live = live_key_words<Layout>(snap);
      while (live != 0 && written < cap) {
        const int key_word = std::countr_zero(live);
        if (snap[key_word + 1] < threshold) out[written++] = snap[key_word];
        live &= live - 1;
      }
      handle = next;
    }
  }
  return written;
}

template <class Layout>
TableOccupancy SlabOps<Layout>::occupancy(const memory::SlabArena& arena,
                                          TableRef table) {
  // One probe per slab + three popcounts, instead of a per-slot word loop.
  TableOccupancy occ;
  occ.base_slabs = table.num_buckets;
  for (std::uint32_t b = 0; b < table.num_buckets; ++b) {
    SlabHandle handle = table.bucket_head(b);
    bool base = true;
    while (handle != kNullSlab) {
      const Slab& slab = arena.resolve(handle);
      if (!base) ++occ.overflow_slabs;
      occ.slots += Layout::kSlotsPerSlab;
      const simt::SlabProbe probe =
          simt::probe_slab(slab.words, kEmptyKey, kEmptyKey, kTombstoneKey);
      const std::uint32_t empties = probe.empty & Layout::kKeyWordsMask;
      const std::uint32_t tombs = probe.tombstone & Layout::kKeyWordsMask;
      occ.tombstones += simt::popc(tombs);
      occ.live_keys += simt::popc(Layout::kKeyWordsMask & ~empties & ~tombs);
      handle = slab.words[kNextPtrWord];
      base = false;
    }
  }
  return occ;
}

template <class Layout>
void SlabOps<Layout>::flush_tombstones(memory::SlabArena& arena,
                                       TableRef table) {
  // A slot is kKeyStride words: the key, then (map) its value. Slots move
  // as whole word groups, so the pair move needs no format branch.
  constexpr int kStride = Layout::kKeyStride;
  for (std::uint32_t b = 0; b < table.num_buckets; ++b) {
    // Collect the live slots of this bucket chain, then rewrite the chain
    // densely and free overflow slabs that became empty.
    std::vector<std::uint32_t> live;
    std::vector<SlabHandle> chain;
    SlabHandle handle = table.bucket_head(b);
    while (handle != kNullSlab) {
      chain.push_back(handle);
      const Slab& slab = arena.resolve(handle);
      const simt::SlabProbe probe =
          simt::probe_slab(slab.words, kEmptyKey, kEmptyKey, kTombstoneKey);
      std::uint32_t live_mask =
          Layout::kKeyWordsMask & ~probe.empty & ~probe.tombstone;
      while (live_mask != 0) {
        const int key_word = std::countr_zero(live_mask);
        live.insert(live.end(), slab.words + key_word,
                    slab.words + key_word + kStride);
        live_mask &= live_mask - 1;
      }
      handle = slab.words[kNextPtrWord];
    }
    std::size_t cursor = 0;
    std::size_t keep_slabs = 0;
    for (std::size_t s = 0; s < chain.size(); ++s) {
      Slab& slab = arena.resolve(chain[s]);
      const bool any = cursor < live.size();
      for (int w = 0; w < Layout::kSlotsPerSlab * kStride; ++w) {
        slab.words[w] = cursor < live.size() ? live[cursor++] : kEmptyKey;
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

template <class Layout>
void SlabOps<Layout>::copy_live(memory::SlabArena& arena, TableRef from,
                                TableRef to, std::uint64_t seed,
                                std::uint32_t alloc_seed) {
  constexpr int kStride = Layout::kKeyStride;
  // Each destination bucket fills its tail slab in slot order, so EMPTY
  // slots stay at the tail of every chain.
  std::vector<Slab*> tail(to.num_buckets);
  std::vector<int> used(to.num_buckets, 0);
  for (std::uint32_t b = 0; b < to.num_buckets; ++b) {
    tail[b] = &arena.resolve(to.bucket_head(b));
  }
  for (std::uint32_t b = 0; b < from.num_buckets; ++b) {
    for (SlabHandle handle = from.bucket_head(b); handle != kNullSlab;) {
      const Slab& slab = arena.resolve(handle);
      for (std::uint32_t live = live_key_words<Layout>(slab.words); live != 0;
           live &= live - 1) {
        const int key_word = std::countr_zero(live);
        const std::uint32_t dst =
            bucket_of(slab.words[key_word], to.num_buckets, seed);
        if (used[dst] == Layout::kSlotsPerSlab) {
          const SlabHandle next = arena.allocate(kEmptyKey, alloc_seed + dst);
          tail[dst]->words[kNextPtrWord] = next;
          tail[dst] = &arena.resolve(next);
          used[dst] = 0;
        }
        std::copy_n(slab.words + key_word, kStride,
                    tail[dst]->words + used[dst]++ * kStride);
      }
      handle = slab.words[kNextPtrWord];
    }
  }
}

template <class Layout>
void SlabOps<Layout>::clear(memory::SlabArena& arena, TableRef table) {
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

template struct SlabOps<MapLayout>;
template struct SlabOps<SetLayout>;

}  // namespace sg::slabhash
