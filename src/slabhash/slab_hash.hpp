// SlabHash tables in the paper's two slab formats (slab_layout.hpp):
//
//   SlabOps<MapLayout> — the concurrent map, <uint32 key, uint32 value>
//       pairs, 15 per slab: the weighted-edge adjacency store ("use the
//       map variant if storing a value per edge is required", §IV).
//   SlabOps<SetLayout> — the concurrent set the paper adds, "keys only, and
//       no values" (footnote 5), 30 per slab: used when edge values are not
//       required, e.g. triangle counting (§VI-C).
//
// Every operation is written once (slab_hash.cpp) and instantiated for both
// formats; they differ only in the claim (the map's 64-bit pair CAS against
// a 32-bit key CAS), the value overwrite on a match, the value load in a
// search and the word stride of a flush. Operations follow the paper's
// semantics:
//   * insert   — inserts key uniquely; if present, the map overwrites the
//                value ("most recent edge and its weight will be stored")
//                and returns false; if absent, claims the first EMPTY slot
//                (the scalar insert never reuses a tombstone; bulk_insert
//                does, see below) and returns true. The boolean return
//                feeds the per-vertex edge counters (Alg. 1 lines 8-10).
//   * erase    — tombstones the key (CAS key -> TOMBSTONE); returns whether
//                the key was present, feeding the counter decrement.
//   * contains / search — walks the bucket chain; may stop at the first
//                EMPTY slot thanks to the empties-at-the-tail invariant.
//   * flush_tombstones — the documented alternative strategy (§IV-C2):
//                compacts live keys to the chain head, trading insertion
//                throughput for memory. Phase-serial.
//
// All functions are safe under concurrent same-phase mutation (insert phase
// or delete phase), which is the paper's phase-concurrent model.
#pragma once

#include <cstdint>
#include <functional>

#include "src/simt/atomics.hpp"
#include "src/slabhash/slab_layout.hpp"

namespace sg::slabhash {

struct MapFindResult {
  bool found = false;
  std::uint32_t value = 0;
};

template <class Layout>
struct SlabOps {
  static constexpr int kSlotCapacity = Layout::kSlotsPerSlab;  ///< Bc
  static constexpr bool kHasValues = Layout::kHasValues;

  /// Inserts `key` (the map overwrites the value of a present key); returns
  /// true iff the key was new. `seed` selects the table's hash function;
  /// `alloc_seed` spreads dynamic slab allocations (pass a warp or thread
  /// id). The set ignores `value`.
  static bool insert(memory::SlabArena& arena, TableRef table,
                     std::uint32_t key, std::uint32_t value, std::uint64_t seed,
                     std::uint32_t alloc_seed = 0);

  /// Tombstones `key`; returns true iff it was present (and live).
  static bool erase(memory::SlabArena& arena, TableRef table,
                    std::uint32_t key, std::uint64_t seed);

  /// Membership query — the edgeExist primitive of §IV-B.
  static bool contains(const memory::SlabArena& arena, TableRef table,
                       std::uint32_t key, std::uint64_t seed);

  /// Point lookup returning the stored value.
  static MapFindResult search(const memory::SlabArena& arena, TableRef table,
                              std::uint32_t key, std::uint64_t seed)
    requires kHasValues;

  // ---- staged bulk entry points (batch engine, docs/PERF.md) -------------
  //
  // A "run" is a staged group of queries that all hash to `bucket` of
  // `table`: the batch engine pre-hashes each key once, sorts the batch by
  // (vertex, bucket, key), and hands each run to one warp. The run's
  // (table, bucket) chain is owned exclusively by that warp for the phase —
  // the engine's run partition guarantees no other warp mutates the same
  // bucket — which is what lets these walk the chain ONCE per wave of up to
  // 32 keys, compute the slab's EMPTY and TOMBSTONE masks once per slab,
  // and claim successive slots from them, instead of one full hash + chain
  // walk per key. Concurrent mutation of OTHER buckets (and of other
  // tables) remains safe: no slot is shared between buckets.

  /// Bulk insert of a run (unique, sorted keys; the set ignores `values`);
  /// a key already present has its value overwritten. New keys fill the
  /// tombstones the walk passed, in chain order, before the tail EMPTY
  /// slots, and only then grow the chain. Returns the number of NEW keys.
  /// Arena exhaustion: with `status` non-null the call stops, records the
  /// failing wave into *status (see BulkStatus), and returns the exact
  /// count of keys applied so far; with `status` null it throws
  /// memory::ArenaExhausted (the contract of the scalar paths).
  static std::uint32_t bulk_insert(memory::SlabArena& arena, TableRef table,
                                   std::uint32_t bucket,
                                   const std::uint32_t* keys,
                                   const std::uint32_t* values,
                                   std::uint32_t count,
                                   std::uint32_t alloc_seed = 0,
                                   BulkStatus* status = nullptr);

  /// Bulk erase of a run; returns the number of keys that were present.
  static std::uint32_t bulk_erase(memory::SlabArena& arena, TableRef table,
                                  std::uint32_t bucket,
                                  const std::uint32_t* keys,
                                  std::uint32_t count);

  /// Bulk membership of a run: found[i] = 1 iff keys[i] is live. Duplicate
  /// keys in the run are fine (lookups are independent).
  static void bulk_contains(const memory::SlabArena& arena, TableRef table,
                            std::uint32_t bucket, const std::uint32_t* keys,
                            std::uint32_t count, std::uint8_t* found) {
    bulk_search(arena, table, bucket, keys, count, found, nullptr);
  }

  /// Like bulk_contains, and values[i] receives the stored value on a hit —
  /// the batched weighted-lookup hook behind DynGraph::edge_weights.
  static void bulk_search_values(const memory::SlabArena& arena,
                                 TableRef table, std::uint32_t bucket,
                                 const std::uint32_t* keys, std::uint32_t count,
                                 std::uint8_t* found, std::uint32_t* values)
    requires kHasValues
  {
    bulk_search(arena, table, bucket, keys, count, found, values);
  }

  /// Calls fn(key, value) for every live key (value 0 in the set).
  /// Phase-concurrent with queries.
  static void for_each(
      const memory::SlabArena& arena, TableRef table,
      const std::function<void(std::uint32_t, std::uint32_t)>& fn);

  /// Gathers every live key into `out` (caller-presized to `cap` slots) with
  /// one snapshot + mask extraction per slab; returns the number written
  /// (stops at `cap`, so a caller sizing from the exact degree counter never
  /// overruns even on misuse). Values are skipped — this is the adjacency
  /// gather analytics consume.
  static std::uint32_t gather(const memory::SlabArena& arena, TableRef table,
                              std::uint32_t* out, std::uint32_t cap);

  /// Value-filtered gather: writes the key of every live pair whose value is
  /// STRICTLY below `threshold` into `out` (caller-presized to `cap` slots),
  /// reading each stored value in place during one walk of every bucket
  /// chain (one snapshot + live mask per slab, as in gather). Returns the
  /// number written, stopping at `cap`. This is the window-aging scan:
  /// with timestamps as values it lists the expired keys without a hash
  /// probe per key.
  static std::uint32_t scan_below(const memory::SlabArena& arena,
                                  TableRef table, std::uint32_t threshold,
                                  std::uint32_t* out, std::uint32_t cap)
    requires kHasValues;

  /// Occupancy statistics (Figure 2b/2c inputs).
  static TableOccupancy occupancy(const memory::SlabArena& arena,
                                  TableRef table);

  /// Compacts each bucket chain in place: live keys (with their values) move
  /// toward the chain head, tombstones vanish, and emptied overflow slabs
  /// are freed. Must not run concurrently with any other operation on
  /// `table`.
  static void flush_tombstones(memory::SlabArena& arena, TableRef table);

  /// Copies every live key (with its value) of `from` into `to`, an empty
  /// table no other thread can reach yet: the rebuild path of rehash and
  /// shrink. Keys are hashed into `to`'s buckets with `seed` and written
  /// slot by slot with plain stores, since a table never holds a key twice
  /// and nothing races the fresh slabs: no probe and no CAS per key. Chains
  /// grow with slabs spread by `alloc_seed`. `from` is left unchanged.
  /// Throws memory::ArenaExhausted when a chain cannot grow.
  static void copy_live(memory::SlabArena& arena, TableRef from, TableRef to,
                        std::uint64_t seed, std::uint32_t alloc_seed);

  /// Frees every overflow (dynamic) slab of the table and resets base slabs
  /// to EMPTY. Used by vertex deletion (§IV-D2). Phase-serial per table.
  static void clear(memory::SlabArena& arena, TableRef table);

  /// Key stored at slot `i` of a slab (for the slab iterator). Racy by
  /// design: Algorithm 2's lanes iterate while peer warps CAS tombstones
  /// into the same slabs.
  static std::uint32_t slot_key(const memory::Slab& slab, int i) {
    return simt::racy_load(slab.words[i * Layout::kKeyStride]);
  }

 private:
  /// bulk_contains / bulk_search_values; `values` may be null (and is
  /// always null for the set).
  static void bulk_search(const memory::SlabArena& arena, TableRef table,
                          std::uint32_t bucket, const std::uint32_t* keys,
                          std::uint32_t count, std::uint8_t* found,
                          std::uint32_t* values);
};

using MapOps = SlabOps<MapLayout>;
using SetOps = SlabOps<SetLayout>;

/// Owning convenience wrapper used by unit tests and micro-benchmarks; the
/// graph itself manages TableRefs directly through its vertex dictionary.
template <class Layout>
class SlabHash {
 public:
  using Ops = SlabOps<Layout>;

  SlabHash(memory::SlabArena& arena, std::uint32_t num_buckets,
           std::uint64_t seed = 0x5EEDULL)
      : arena_(&arena), seed_(seed) {
    table_.num_buckets = num_buckets == 0 ? 1 : num_buckets;
    table_.base = arena.allocate_contiguous(table_.num_buckets, kEmptyKey);
  }

  bool insert(std::uint32_t key, std::uint32_t value = 0) {
    return Ops::insert(*arena_, table_, key, value, seed_);
  }
  bool erase(std::uint32_t key) {
    return Ops::erase(*arena_, table_, key, seed_);
  }
  bool contains(std::uint32_t key) const {
    return Ops::contains(*arena_, table_, key, seed_);
  }
  MapFindResult search(std::uint32_t key) const
    requires Layout::kHasValues
  {
    return Ops::search(*arena_, table_, key, seed_);
  }
  void for_each(
      const std::function<void(std::uint32_t, std::uint32_t)>& fn) const {
    Ops::for_each(*arena_, table_, fn);
  }
  TableOccupancy occupancy() const { return Ops::occupancy(*arena_, table_); }
  void flush_tombstones() { Ops::flush_tombstones(*arena_, table_); }
  void clear() { Ops::clear(*arena_, table_); }
  TableRef table() const { return table_; }

 private:
  memory::SlabArena* arena_;
  TableRef table_;
  std::uint64_t seed_;
};

using SlabHashMap = SlabHash<MapLayout>;
using SlabHashSet = SlabHash<SetLayout>;

}  // namespace sg::slabhash
