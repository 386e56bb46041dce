// SlabArena: the memory manager of paper §IV-A, standing in for SlabAlloc.
//
// All hash-table storage is made of 128-byte slabs (32 x uint32 words).
// Two allocation paths mirror the paper exactly:
//
//  * Bulk contiguous allocation — the graph statically allocates all *base*
//    slabs (one per hash-table bucket) "in bulk ... more desirable than
//    requiring each hash table to independently allocate a small number of
//    buckets with different cudaMalloc calls". Bulk slabs are bump-allocated
//    and never individually reclaimed ("statically allocated memory is not
//    reclaimed", §IV-D2) — but a table REBUILD may return its whole base
//    range via free_contiguous, and allocate_contiguous reuses returned
//    ranges before bumping. Without this, sliding-window churn (docs/
//    WORKLOADS.md) leaks one abandoned base array per rehash and
//    steady-state memory grows without bound.
//
//  * Dynamic single-slab allocation — collision-resolution slabs appended to
//    a bucket's linked list. These come from super blocks with an atomic
//    occupancy bitmap (the SlabAlloc scheme) and are freed when a vertex is
//    deleted.
//
// Slabs are addressed by 32-bit handles (like SlabAlloc's 32-bit slab
// addresses): handle = chunk_index << 13 | slot. Handle resolution is two
// dependent loads, lock-free, and safe under concurrent allocation.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <new>
#include <stdexcept>
#include <string>
#include <vector>

namespace sg::memory {

/// The arena cannot grow: the chunk limit (set_chunk_limit, default the
/// 32 GiB address-space cap) is reached and no dynamic chunk has a free
/// slab. Derives std::bad_alloc so pre-existing callers that handled
/// allocation failure generically keep working; the batch engine catches it
/// specifically to abort a batch cleanly (docs/ROBUSTNESS.md).
class ArenaExhausted : public std::bad_alloc {
 public:
  explicit ArenaExhausted(std::string what) : what_(std::move(what)) {}
  const char* what() const noexcept override { return what_.c_str(); }

 private:
  std::string what_;
};

/// A caller violated the arena contract: freeing a bulk (non-dynamic) slab,
/// or freeing a handle that is already free. Raised instead of silent UB, in
/// every build.
class ArenaFault : public std::logic_error {
 public:
  explicit ArenaFault(const std::string& what) : std::logic_error(what) {}
};

/// 32-bit slab address; kNullSlab terminates bucket chains.
using SlabHandle = std::uint32_t;
inline constexpr SlabHandle kNullSlab = 0xFFFFFFFFu;

inline constexpr int kWordsPerSlab = 32;

/// A 128-byte slab, the unit of all adjacency-list storage.
struct alignas(128) Slab {
  std::uint32_t words[kWordsPerSlab];
};
static_assert(sizeof(Slab) == 128);

struct ArenaStats {
  std::uint64_t bulk_slabs = 0;       ///< base slabs currently live (handed
                                      ///< out minus free_contiguous returns)
  std::uint64_t dynamic_slabs = 0;    ///< collision slabs currently live
  std::uint64_t reserved_slabs = 0;   ///< total slab capacity backed by memory
  std::uint64_t bytes_reserved() const { return reserved_slabs * sizeof(Slab); }
  std::uint64_t bytes_in_use() const {
    return (bulk_slabs + dynamic_slabs) * sizeof(Slab);
  }
};

class SlabArena {
 public:
  /// Slabs per super block (chunk): 8192 slabs = 1 MiB. Also the upper
  /// bound on one contiguous (base-slab) allocation.
  static constexpr std::uint32_t kChunkSlabs = 1u << 13;
  static constexpr std::uint32_t kMaxChunks = 1u << 15;  ///< 32 GiB addressable

  SlabArena();
  ~SlabArena();

  SlabArena(const SlabArena&) = delete;
  SlabArena& operator=(const SlabArena&) = delete;

  /// Allocates `count` consecutive slabs (count <= kChunkSlabs) and
  /// returns the handle of the first; handles h .. h+count-1 are valid.
  /// Slabs are zero-initialized with `fill_word` in every word. Ranges
  /// returned through free_contiguous are reused (best fit) before the
  /// bump cursor grows a chunk, so table-rebuild churn recycles instead of
  /// leaking. Thread-safe but intended for (phase-serial)
  /// build/insert-vertex paths.
  SlabHandle allocate_contiguous(std::uint32_t count, std::uint32_t fill_word);

  /// Returns a whole contiguous base-slab range (a table's bucket array —
  /// exactly what an earlier allocate_contiguous handed out, or a
  /// still-contiguous part of it) for reuse by future allocate_contiguous
  /// calls. The one sanctioned way to reclaim "static" memory: individual
  /// base slabs stay unreclaimable (free() on one raises ArenaFault), but a
  /// REBUILT table's old range has no live references by construction.
  /// Freeing a range that overlaps an already-free one raises ArenaFault.
  /// Bulk chunks whose every handed-out slab came back
  /// are released by release_empty_chunks. Quiescent-only with respect to
  /// readers of the range (the rebuild path's phase fence provides that).
  void free_contiguous(SlabHandle first, std::uint32_t count);

  /// Allocates one dynamic slab (collision slab), words filled with
  /// `fill_word`. `seed` spreads concurrent allocators over super blocks,
  /// mirroring SlabAlloc's per-warp super-block hashing. Thread-safe.
  /// Fast path: a handle recycled through the calling thread's free-slab
  /// cache — no bitmap scan, no shared-state contention.
  /// Throws ArenaExhausted when the chunk limit is reached and no dynamic
  /// chunk has space.
  SlabHandle allocate(std::uint32_t fill_word, std::uint32_t seed = 0);

  /// Like allocate(), but reports exhaustion by returning kNullSlab instead
  /// of throwing — the batch engine's bulk ops use this so a failure deep
  /// inside an epoch is a status it can act on, not an exception unwinding
  /// through a pool job.
  SlabHandle try_allocate(std::uint32_t fill_word, std::uint32_t seed = 0);

  /// Returns a dynamic slab to the arena. Freeing a bulk slab or an
  /// already-free handle raises ArenaFault. The paper never reclaims base
  /// slabs.
  /// Fast path: the handle parks in the calling thread's free-slab cache
  /// for the next allocate(); the cache spills to the shared bitmap.
  void free(SlabHandle handle);

  /// Caps growth at `max_chunks` chunks (1 MiB each), clamped to
  /// [1, kMaxChunks]. Existing chunks beyond a lowered limit stay usable;
  /// only further growth is refused. Call while quiescent.
  void set_chunk_limit(std::uint32_t max_chunks) noexcept;

  /// Handle -> storage. Valid for any live handle; lock-free.
  Slab& resolve(SlabHandle handle) const;

  ArenaStats stats() const;

  /// True if `handle` addresses a dynamic (freeable) slab.
  bool is_dynamic(SlabHandle handle) const;

  // ---- compaction / shrink (docs/WORKLOADS.md "Sliding-window") --------
  // Sliding-window churn retires whole batches of overflow slabs, but the
  // chunks that backed them stay resident at the high-water mark. The
  // quiescent-only primitives below let DynGraph::compact migrate the
  // survivors of sparse chunks into dense ones and hand the emptied chunks
  // back to the OS, so steady-state memory follows the live window instead
  // of its historical peak.

  /// Spills every per-thread free-slab cache back to its chunk bitmap so
  /// per-chunk free counts are exact. Quiescent-only (no concurrent
  /// allocate/free); release_empty_chunks runs it implicitly.
  void drain_free_caches();

  /// Deletes fully-free dynamic chunks — beyond the first `keep_free` of
  /// them, retained as an allocation reserve — and fully-freed bulk chunks
  /// (every handed-out slab returned via free_contiguous; the current bump
  /// chunk always stays), returning their memory to the OS; the vacated
  /// chunk indices are reused by future growth. Returns the number of
  /// chunks released. Quiescent-only: a fully-free chunk has no live
  /// handles, but the scan must not race an allocator.
  std::uint32_t release_empty_chunks(std::uint32_t keep_free = 0);

  /// Chunks currently backed by memory (bulk + dynamic).
  std::uint32_t live_chunks() const;

  /// Per-chunk occupancy of one dynamic chunk (compaction's victim-selection
  /// input). used_slabs counts allocated slabs, including handles parked in
  /// free caches — drain_free_caches() first for exact numbers.
  struct ChunkOccupancy {
    std::uint32_t index = 0;       ///< chunk index (handle >> 13)
    std::uint32_t used_slabs = 0;  ///< allocated slabs of kChunkSlabs
  };
  std::vector<ChunkOccupancy> dynamic_chunk_occupancy() const;

  /// Allocates one dynamic slab in a chunk NOT flagged in `excluded`
  /// (indexed by chunk; short vectors exclude nothing past their end),
  /// bypassing the free caches — the migration-target allocator: a slab
  /// moved out of a victim chunk must not land in another victim. Grows
  /// within the chunk limit like allocate(); throws ArenaExhausted when no
  /// non-excluded chunk has space and growth is refused. Quiescent-only.
  SlabHandle allocate_avoiding(std::uint32_t fill_word,
                               const std::vector<std::uint8_t>& excluded);

  /// Frees a dynamic slab straight to its chunk bitmap, bypassing the
  /// per-thread caches, so an emptying chunk's free count actually reaches
  /// kChunkSlabs. Same misuse checks as free().
  void free_direct(SlabHandle handle);

  /// Chunk index addressed by `handle`.
  static constexpr std::uint32_t chunk_index_of(SlabHandle handle) noexcept {
    return handle >> 13;
  }

  /// Capacity of one per-thread free-slab cache (handles, not bytes).
  static constexpr std::uint32_t kFreeCacheSlots = 32;
  /// Cache slots in the arena; threads map onto them by a per-thread index,
  /// the CPU analog of SlabAlloc's per-warp super-block residence.
  static constexpr std::uint32_t kNumFreeCaches = 64;

 private:
  struct Chunk;

  /// A small LIFO of recycled dynamic-slab handles. One per thread slot;
  /// the try-lock keeps index collisions (more threads than slots) safe
  /// without ever blocking — on contention callers fall through to the
  /// shared bitmap path.
  struct alignas(64) FreeCache {
    std::atomic<bool> locked{false};
    std::uint32_t count = 0;
    SlabHandle slots[kFreeCacheSlots];

    bool try_lock() noexcept {
      return !locked.exchange(true, std::memory_order_acquire);
    }
    void unlock() noexcept { locked.store(false, std::memory_order_release); }
  };

  Chunk* chunk_at(std::uint32_t index) const;
  std::uint32_t add_chunk(bool dynamic);  // returns chunk index
  bool cache_push(SlabHandle handle);     // throws ArenaFault on cached dup
  SlabHandle cache_pop() noexcept;  // kNullSlab when empty/contended
  /// Claims one free slab of `chunk` (bitmap scan from its hint cursor);
  /// kNullSlab when the chunk is full. Shared by try_allocate and
  /// allocate_avoiding.
  SlabHandle claim_in_chunk(Chunk* chunk, std::uint32_t chunk_index,
                            std::uint32_t fill_word);
  /// free() body; `use_cache` selects the per-thread fast path.
  void free_impl(SlabHandle handle, bool use_cache);

  std::unique_ptr<std::atomic<Chunk*>[]> chunks_;
  std::atomic<std::uint32_t> num_chunks_{0};
  std::unique_ptr<FreeCache[]> free_caches_;
  std::atomic<std::uint32_t> chunk_limit_{kMaxChunks};

  // Bulk (base-slab) bump state. bulk_free_ holds ranges returned by
  // free_contiguous, address-ordered and coalesced within each chunk;
  // allocate_contiguous carves from it (best fit) before bumping. All
  // guarded by bulk_mutex_ (lock order: bulk_mutex_ before grow_mutex_).
  std::mutex bulk_mutex_;
  std::uint32_t bulk_chunk_ = 0;       // current bulk chunk index
  std::uint32_t bulk_cursor_ = kChunkSlabs;  // next free slot in bulk chunk
  std::map<SlabHandle, std::uint32_t> bulk_free_;  // range start -> slabs

  // Dynamic allocation state.
  std::mutex grow_mutex_;
  std::atomic<std::uint64_t> bulk_slabs_{0};
  std::atomic<std::uint64_t> dynamic_slabs_{0};
};

}  // namespace sg::memory
