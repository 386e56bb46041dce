// Public value types of the dynamic graph API (paper §II-A):
// G = (V, E, W); an edge is <u, v, w> with w standing in for any per-edge
// meta-data. Vertex ids are dense uint32 indices into the vertex dictionary.
#pragma once

#include <cstdint>
#include <functional>
#include <string>

namespace sg::core {

using VertexId = std::uint32_t;
using Weight = std::uint32_t;

/// Largest usable vertex id (ids at/above this collide with the slab
/// sentinels kEmptyKey / kTombstoneKey).
inline constexpr VertexId kMaxVertexId = 0xFFFFFFFDu;

struct Edge {
  VertexId src = 0;
  VertexId dst = 0;

  friend bool operator==(const Edge&, const Edge&) = default;
};

struct WeightedEdge {
  VertexId src = 0;
  VertexId dst = 0;
  Weight weight = 0;

  friend bool operator==(const WeightedEdge&, const WeightedEdge&) = default;
};

/// What submit_* does when the scheduler's submission queue is full
/// (GraphConfig::max_pending_submissions / max_pending_edges;
/// docs/ROBUSTNESS.md).
enum class BackpressurePolicy : std::uint8_t {
  /// Block the submitting thread until space frees (optionally bounded by
  /// GraphConfig::submit_timeout_ms, after which the future resolves to
  /// SubmitRejected{kTimeout}). The default: lossless, paces producers.
  kBlock,
  /// Never block: the future resolves immediately to
  /// SubmitRejected{kQueueFull}. For callers with their own retry loop.
  kReject,
  /// Drop the oldest *queued* query (its future resolves to
  /// SubmitRejected{kShed}) to admit the new submission. Mutations are
  /// never shed — losing one would silently fork the graph's history — so
  /// a queue full of mutations rejects the newcomer instead.
  kShedOldestQueries,
};

/// When the write-ahead batch journal (GraphConfig::journal_path;
/// src/persist/journal.hpp, docs/ROBUSTNESS.md "Durability") flushes
/// records to stable storage.
enum class JournalSyncPolicy : std::uint8_t {
  /// Records reach the OS page cache on append but are never fsynced: a
  /// process crash loses nothing, a machine crash may lose the tail. The
  /// default — appends cost one write(2).
  kNone,
  /// fsync after every appended record: a batch's future resolving means
  /// the batch is on stable storage. Orders of magnitude slower per batch;
  /// coalesced scheduler phases amortize it (one record per merged group).
  kEachBatch,
};

/// Construction-time knobs (§III, §IV-A).
struct GraphConfig {
  /// Initial vertex-dictionary capacity. "Selecting a large-enough initial
  /// capacity ... ensures good performance during vertices insertion."
  /// The dictionary grows automatically (pointer-copy) if exceeded.
  std::uint32_t vertex_capacity = 1024;

  /// Target hash-table load factor; the paper uses 0.7 throughout.
  double load_factor = 0.7;

  /// Undirected graphs store each edge in both endpoint adjacency lists;
  /// edge mutations are applied in both directions (§IV-C).
  bool undirected = false;

  /// Seed of the universal hash functions (shared by all tables) and of
  /// anything randomized inside the structure. Fixed => reproducible runs.
  std::uint64_t hash_seed = 0x5EEDF00DULL;

  /// Shards of the batch engine's stage phase. Shard s owns every vertex u
  /// with u % shards == s, so staging, table creation, and the grouped
  /// (vertex, bucket) runs stay disjoint per shard and the stage pass runs
  /// in parallel with no locks. 0 = auto (one shard per pool worker,
  /// rounded to a power of two, capped); 1 = the serial PR 2 stage.
  std::uint32_t stage_shards = 0;

  /// Input edges per pipelined epoch. Large batches split into epochs,
  /// and epoch e+1 stages + groups on spare pool threads while epoch e
  /// applies (the double buffer). Epochs APPLY in input order — the
  /// pipeline fence — so cross-epoch duplicates resolve exactly as the
  /// unsplit batch would (most recent wins). 0 = auto (2^15): batches
  /// smaller than ~1.5 epochs, and any batch on a pool with no workers,
  /// run as one epoch (the degenerate pipeline). An explicit value always
  /// splits; a value at or above the batch size runs it as one epoch.
  /// Query batches (edges_exist / edge_weights) pipeline through the same
  /// epoch plan.
  std::uint32_t pipeline_epoch_edges = 0;

  /// Automatic rehash policy (§III: "maintain low-cost metrics per vertex
  /// to determine the chain-length and periodically perform rehashing if
  /// it exceeds a given threshold"). The metric is the Alg. 1/2 edge
  /// counter against the table's bucket count: an insert batch notes every
  /// source whose live keys would fill more than this many slabs per
  /// bucket, and once the batch commits each noted table is rebuilt at the
  /// configured load factor. Erase batches, queries, gathers and age scans
  /// never rebuild. 0 disables the policy.
  double auto_rehash_chain_slabs = 4.0;

  /// Cap on queued (not-yet-admitted) submissions in the phase scheduler.
  /// 0 = unbounded (the pre-admission-control behavior). When the cap is
  /// hit, submit_* applies `backpressure`.
  std::uint32_t max_pending_submissions = 0;

  /// Cap on the total edges/queries carried by queued submissions; a finer
  /// bound than the count above when submission sizes vary. 0 = unbounded.
  /// A single submission larger than the cap is admitted when the queue is
  /// empty (it could never fit otherwise) — the cap bounds queue growth,
  /// not the largest batch.
  std::uint64_t max_pending_edges = 0;

  /// Policy applied by submit_* when either pending cap is hit.
  BackpressurePolicy backpressure = BackpressurePolicy::kBlock;

  /// Upper bound, in milliseconds, a kBlock submit_* waits for queue space
  /// before its future resolves to SubmitRejected{kTimeout}. 0 = wait
  /// forever.
  std::uint32_t submit_timeout_ms = 0;

  /// Cap on SlabArena growth in 1 MiB chunks (8192 slabs each); when the
  /// arena is full, batched mutations abort cleanly with PartialBatchError
  /// instead of the process dying in std::bad_alloc (docs/ROBUSTNESS.md).
  /// 0 = the 32 GiB address-space limit.
  std::uint32_t max_arena_chunks = 0;

  /// Victim threshold of DynGraph::compact (docs/WORKLOADS.md
  /// "Sliding-window streaming"): a dynamic arena chunk whose allocated
  /// fraction is BELOW this value has its surviving slabs migrated into
  /// denser chunks so the emptied chunk can be returned to the OS. Must be
  /// in [0, 1]: 0 releases only chunks already empty (no migration), 1
  /// migrates everything not completely full. The default 0.25 bounds
  /// migration work at a quarter-full worst case while still collapsing
  /// the sparse chunks sliding-window aging leaves behind.
  double compact_occupancy = 0.25;

  /// Fully-free dynamic chunks compact() RETAINS as an allocation reserve
  /// instead of returning to the OS (1 MiB each) — the next epoch's
  /// inserts reuse them without paying chunk allocation. 0 releases every
  /// empty chunk.
  std::uint32_t compact_keep_free_chunks = 1;

  /// Invoked (on the mutating thread, with the batch lock held) after a
  /// batched mutation aborts on arena exhaustion — the hook point for
  /// memory-pressure reactions such as flush_all_tombstones() or an
  /// operator alert. Must not submit or apply mutations on this graph
  /// (deadlock); tombstone flush and rehash entry points are safe.
  std::function<void()> on_pressure;

  // ---- durability (src/persist/, docs/ROBUSTNESS.md "Durability") ------

  /// Path of the write-ahead batch journal. Non-empty = every committed
  /// mutation batch (edge insert/erase, vertex insert/delete) is appended
  /// as a CRC32-checked, sequence-numbered record before the call returns
  /// (before a submit_* future resolves); PartialBatchError aborts journal
  /// their exact committed prefix. An existing file is scanned on attach:
  /// a torn tail is truncated to the last valid record, mid-file
  /// corruption throws persist::CorruptJournal.
  /// Empty (default) = no journal. Recovery: persist::recover().
  std::string journal_path;

  /// Journal flush policy (see JournalSyncPolicy).
  JournalSyncPolicy journal_sync = JournalSyncPolicy::kNone;

  /// Non-empty = the destructor writes a final snapshot of the graph to
  /// this path (write-to-temp + atomic rename; best-effort — destructors
  /// do not throw, and a failed write leaves any previous snapshot file
  /// intact). Pairs with journal_path for restart-without-replay.
  std::string snapshot_on_shutdown;
};

/// The graph's construction-time configuration under its public name.
using SlabGraphConfig = GraphConfig;

/// Aggregated memory accounting for Figure 2 (b) and (c).
struct GraphMemoryStats {
  std::uint64_t live_edges = 0;       ///< live keys over all adjacency tables
  std::uint64_t tombstones = 0;
  std::uint64_t slots = 0;            ///< key capacity over all slabs
  std::uint64_t base_slabs = 0;
  std::uint64_t overflow_slabs = 0;
  std::uint64_t bytes = 0;            ///< slab bytes owned by adjacency lists

  double utilization() const noexcept {
    return slots == 0 ? 0.0
                      : static_cast<double>(live_edges) / static_cast<double>(slots);
  }
  /// Mean bucket-chain length in slabs (the x-axis of Figures 2-3).
  double avg_chain_length() const noexcept {
    return base_slabs == 0 ? 0.0
                           : static_cast<double>(base_slabs + overflow_slabs) /
                                 static_cast<double>(base_slabs);
  }
};

}  // namespace sg::core
