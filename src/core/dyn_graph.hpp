// SlabGraph — the paper's dynamic graph data structure (§III-IV).
//
// One hash table per vertex stores that vertex's adjacency list; a vertex
// dictionary maps ids to tables. Two variants are provided, mirroring the
// paper's map/set split:
//
//   DynGraphMap — SlabHash concurrent map (Bc = 15): per-edge values.
//   DynGraphSet — SlabHash concurrent set (Bc = 30): destinations only.
//
// Batched edge mutations and queries run through the staged batch engine
// (src/core/batch_engine.hpp), which implements Algorithm 1's semantics —
// same-source grouping, most-recent-wins duplicates, exact per-vertex
// counters — as sorted (vertex, bucket) runs applied by the bulk slab
// operations; delete_vertices is Algorithm 2 (atomic work-queue counter, one
// warp per vertex, slab-granular neighbour cleanup, dynamic-slab reclaim).
//
// The structure is phase-concurrent (§II-A): mutation batches and query
// batches never overlap, but everything *within* a batch runs concurrently.
// The synchronous API leaves that contract to the caller; the scheduled
// API (submit_insert / submit_erase / submit_edges_exist /
// submit_edge_weights) enforces it through a per-graph phase scheduler —
// see src/core/phase_scheduler.hpp and docs/ARCHITECTURE.md.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "src/core/batch_engine.hpp"
#include "src/core/errors.hpp"
#include "src/core/phase_scheduler.hpp"
#include "src/core/types.hpp"
#include "src/core/vertex_dictionary.hpp"
#include "src/memory/slab_arena.hpp"
#include "src/simt/atomics.hpp"
#include "src/slabhash/slab_hash.hpp"

namespace sg::persist {
class Journal;  // write-ahead batch journal (src/persist/journal.hpp)
}  // namespace sg::persist

namespace sg::core {

/// Adjacency policy: concurrent-map tables (value = edge weight; Bc = 15).
struct MapPolicy : slabhash::SlabOps<slabhash::MapLayout> {
  using Layout = slabhash::MapLayout;
};

/// Adjacency policy: concurrent-set tables (no values; Bc = 30).
struct SetPolicy : slabhash::SlabOps<slabhash::SetLayout> {
  using Layout = slabhash::SetLayout;
};

/// Output of DynGraph::gather_neighbors: one presized buffer holding every
/// requested vertex's live adjacency in disjoint slices, addressable by
/// input position (the PR 4 count → prefix-sum → emit layout — zero driver
/// copy). `offsets` has vertices.size() + 1 entries; slice i is unsorted.
struct GatherResult {
  std::vector<std::uint64_t> offsets;
  std::vector<VertexId> neighbors;

  std::span<const VertexId> neighbors_of(std::size_t i) const {
    return {neighbors.data() + offsets[i],
            static_cast<std::size_t>(offsets[i + 1] - offsets[i])};
  }
  /// Mutable view, for consumers that sort slices in place (static TC).
  std::span<VertexId> mutable_neighbors_of(std::size_t i) {
    return {neighbors.data() + offsets[i],
            static_cast<std::size_t>(offsets[i + 1] - offsets[i])};
  }
};

/// Slab-granular adjacency iterator (§IV-B): "the iterator loads one slab
/// at a time and moves from one slab to the next using a next operator."
/// Algorithm 2 consumes adjacency lists through this, one slab per warp
/// iteration.
template <class Policy>
class EdgeSlabIterator {
 public:
  EdgeSlabIterator(const memory::SlabArena& arena, slabhash::TableRef table)
      : arena_(&arena), table_(table) {}

  /// Advances to the next slab in the table; false when exhausted.
  bool next() {
    if (!table_.valid()) return false;
    if (started_) {
      // Follow the current slab's next pointer; fall through to the next
      // bucket when the chain ends.
      const memory::SlabHandle nxt = simt::atomic_load(
          arena_->resolve(current_).words[slabhash::kNextPtrWord]);
      if (nxt != memory::kNullSlab) {
        current_ = nxt;
        on_base_ = false;
        return true;
      }
    }
    if (next_bucket_ >= table_.num_buckets) return false;
    current_ = table_.bucket_head(next_bucket_++);
    on_base_ = true;
    started_ = true;
    return true;
  }

  /// Key at slot `slot` of the current slab (kEmptyKey / kTombstoneKey
  /// sentinels included — callers filter, as Algorithm 2's lanes do).
  std::uint32_t key(int slot) const {
    return Policy::slot_key(arena_->resolve(current_), slot);
  }
  static constexpr int slots() { return Policy::kSlotCapacity; }

  memory::SlabHandle current_handle() const { return current_; }
  bool on_base_slab() const { return on_base_; }

 private:
  const memory::SlabArena* arena_;
  slabhash::TableRef table_;
  memory::SlabHandle current_ = memory::kNullSlab;
  std::uint32_t next_bucket_ = 0;
  bool on_base_ = false;
  bool started_ = false;
};

/// The paper's slab-based dynamic graph (one SlabHash table per vertex),
/// instantiated as DynGraphMap (per-edge weights) or DynGraphSet
/// (destinations only). Batched mutations and queries run through the
/// staged batch engine; the phase-concurrent contract — mutation batches
/// never overlap query batches — is the caller's responsibility on the
/// synchronous API and is ENFORCED by the scheduled submit_* API.
template <class Policy>
class DynGraph {
 public:
  /// \param config construction-time knobs (see docs/CONFIG.md for the
  ///        full reference). \throws std::invalid_argument on out-of-range
  ///        values (non-positive load_factor, compact_occupancy outside
  ///        [0, 1]).
  explicit DynGraph(GraphConfig config);

  /// Tears down the scheduler first (queued submissions reject with
  /// SubmitRejected{kShutdown}, the conductor joins), then — if
  /// GraphConfig::snapshot_on_shutdown names a path — writes a final
  /// best-effort snapshot before the structure dies.
  ~DynGraph();

  DynGraph(const DynGraph&) = delete;
  DynGraph& operator=(const DynGraph&) = delete;

  // ---- construction workloads (§V-B) ---------------------------------
  /// Bulk build (§V-B1): degrees are known a priori, so every vertex gets
  /// ceil(d / (lf * Bc)) buckets up front, then all edges are inserted in
  /// one batched launch. Input edges are directed as given (symmetrize
  /// before calling for undirected graphs, or set config.undirected and
  /// pass each undirected edge once).
  void bulk_build(std::span<const WeightedEdge> edges);

  // ---- edge operations (§IV-C) ----------------------------------------
  /// Algorithm 1's semantics, applied by the batch engine. Duplicates
  /// within the batch and against the graph are tolerated; self-loops are
  /// dropped; the most recent weight wins.
  /// Returns the number of *new* unique directed edges added.
  ///
  /// Failure (docs/ROBUSTNESS.md): if the arena runs dry mid-batch (chunk
  /// limit, injected fault) the engine path aborts CLEANLY — committed
  /// epochs stay applied, counters stay exact, and the call throws
  /// core::PartialBatchError carrying the applied count and the unapplied
  /// remainder; GraphConfig::on_pressure fires first. The graph remains
  /// consistent and keeps serving.
  std::uint64_t insert_edges(std::span<const WeightedEdge> edges);

  /// Batched deletion; returns the number of edges actually removed.
  /// Failure semantics as insert_edges (deletion never allocates, so only
  /// staging faults can abort it).
  std::uint64_t delete_edges(std::span<const Edge> edges);

  // ---- vertex operations (§IV-D) --------------------------------------
  /// Vertex insertion: dictionary entry (+ optional degree hint for bucket
  /// sizing) per §IV-D1. Edges attached to new vertices are then added
  /// with insert_edges / Algorithm 1.
  void insert_vertices(std::span<const VertexId> ids,
                       std::span<const std::uint32_t> degree_hints = {});

  /// Algorithm 2: deletes vertices and every edge pointing at them; frees
  /// dynamically allocated slabs; zeroes edge counts. For directed graphs
  /// the neighbour cleanup is the follow-up full sweep the paper describes.
  void delete_vertices(std::span<const VertexId> ids);

  // ---- queries (§IV-B) -------------------------------------------------
  /// Point lookup: true iff directed edge (u, v) is live. Never a false
  /// positive after vertex deletion (Algorithm 2's cleanup guarantee).
  bool edge_exists(VertexId u, VertexId v) const;

  /// Batched edgeExist: out[i] = 1 iff queries[i] is present. Runs through
  /// the engine's pipelined bulk search.
  void edges_exist(std::span<const Edge> queries, std::uint8_t* out) const;

  /// Weight lookup; meaningful for the map variant only (set returns 0).
  slabhash::MapFindResult edge_weight(VertexId u, VertexId v) const
      requires Policy::kHasValues;

  /// Batched weight lookup riding the engine's bulk search path: for each
  /// query i, weights[i] receives the stored weight (0 on a miss) and, when
  /// `found` is non-null, found[i] = 1 iff the edge is present. One hash
  /// per key, one chain walk per (vertex, bucket) run — the batched
  /// analytics entry point dynamic-SSSP-style workloads read weights with.
  void edge_weights(std::span<const Edge> queries, Weight* weights,
                    std::uint8_t* found = nullptr) const
      requires Policy::kHasValues;

  // ---- bulk adjacency gather (analytics engine) ------------------------
  /// Batched neighborhood extraction: emits every requested vertex's live
  /// adjacency into disjoint slices of ONE presized output buffer,
  /// addressable by input position. The count pass is free — the Alg. 1/2
  /// per-vertex counters hold each exact live degree, so the prefix sum
  /// sizes the buffer without touching a slab — and the emit pass walks
  /// each vertex's chains once with one snapshot + SIMD mask per slab,
  /// chunked across the pool by `launch_runs` balanced on total degree.
  /// Unknown / deleted / never-touched vertices yield empty slices.
  /// Duplicate inputs are fine (each occurrence gets its own slice).
  ///
  /// Read-only: a gather never rebuilds a table. Phase-concurrent with
  /// queries and other gathers; must not overlap mutations (use
  /// submit_analytics for the enforced contract).
  void gather_neighbors(std::span<const VertexId> vertices,
                        std::vector<std::uint64_t>& offsets,
                        std::vector<VertexId>& neighbors) const;

  /// Convenience overload returning the owned result.
  GatherResult gather_neighbors(std::span<const VertexId> vertices) const;

  // ---- scheduled mode (src/core/phase_scheduler.hpp) -------------------
  // The async entry points: safe to call from ANY thread, concurrently
  // with each other. Submissions are classified by kind and run as fenced
  // phases — mutation batches never overlap query batches, which the
  // synchronous API above leaves to the caller. The conductor thread
  // starts lazily on the first submit_* call, so graphs that only use the
  // synchronous API never pay for it. FIFO: one thread's submissions apply
  // in its program order, and a query submitted after a mutation's future
  // resolved is guaranteed to observe that mutation.
  //
  // Admission control (docs/ROBUSTNESS.md): with
  // GraphConfig::max_pending_submissions / max_pending_edges set, the
  // pending queue is bounded and GraphConfig::backpressure selects what
  // happens at the cap — block the submitter (optionally bounded by
  // submit_timeout_ms), reject the newcomer, or shed the oldest pending
  // queries. Refused submissions resolve their future to
  // core::SubmitRejected with a typed reason; submitting to a destroyed
  // (stopping) graph throws it synchronously.

  /// Scheduled insert_edges.
  /// \param edges the batch (moved into the scheduler; duplicates and
  ///        self-loops resolve exactly as in insert_edges).
  /// \return future resolving, once the mutation phase committed, to the
  ///         number of new unique directed edges the submission's
  ///         COALESCED GROUP added: consecutive insert submissions
  ///         admitted into one phase merge into a single engine batch
  ///         (shared epochs), and every member observes the group total —
  ///         a submission that ran alone gets its exact count.
  std::future<std::uint64_t> submit_insert(std::vector<WeightedEdge> edges);

  /// Scheduled delete_edges; group semantics as submit_insert.
  /// \return future resolving to the edges removed by the coalesced group.
  std::future<std::uint64_t> submit_erase(std::vector<Edge> edges);

  /// Scheduled edges_exist.
  /// \param deadline_ms staleness bound (0 = none): if the phase that
  ///        would run the query opens later than deadline_ms after
  ///        submission, the conductor rejects it at admission and the
  ///        future resolves to SubmitRejected{kDeadlineExpired}.
  /// \return future resolving to out[i] = 1 iff queries[i] was present in
  ///         the phase-consistent state the query phase ran against. Query
  ///         batches admitted into one phase run concurrently, each
  ///         internally pipelined.
  std::future<std::vector<std::uint8_t>> submit_edges_exist(
      std::vector<Edge> queries, std::uint32_t deadline_ms = 0);

  /// Scheduled edge_weights (map variant only).
  /// \return future resolving to {weights, found} for each query, with the
  ///         same phase-consistency guarantee (and deadline semantics) as
  ///         submit_edges_exist.
  std::future<EdgeWeightBatch> submit_edge_weights(std::vector<Edge> queries,
                                                   std::uint32_t deadline_ms = 0)
      requires Policy::kHasValues;

  /// Scheduled analytics: `task` runs inside a fenced ANALYTICS phase —
  /// never overlapping a mutation phase, so gather_neighbors and the
  /// read-only query API are safe inside it without external locking.
  /// FIFO with the submitter's other submissions: an analytics task
  /// submitted after an insert observes that insert (the delta-TC
  /// pipeline's exist → insert → analytics epoch rides exactly this).
  /// Consecutive analytics submissions admitted into one phase run
  /// concurrently on the pool. The future resolves when the task returns,
  /// or carries its exception.
  std::future<void> submit_analytics(std::function<void()> task);

  /// Blocks until every submission accepted so far has completed and no
  /// phase is open. Call before destroying submitter state the futures
  /// reference, or before ThreadPool::resize (which must not run while
  /// jobs are in flight). A graph that never submitted returns
  /// immediately.
  void schedule_drain();

  /// Counters of the scheduled stream: phase switches (each one paid a
  /// fence), coalesced submissions, fence wait time, per-kind phase and
  /// submission counts. All zeros when nothing was ever submitted.
  PhaseScheduleStats last_schedule_stats() const;

  // ---- durability (src/persist/, docs/ROBUSTNESS.md "Durability") ------
  /// Scheduled snapshot: persist::snapshot(*this, path) runs inside a
  /// fenced ANALYTICS phase, so the cut is epoch-consistent under
  /// concurrent submitters — every mutation whose future resolved before
  /// this call is in the file, and no mutation submitted after it leaks
  /// in. The future resolves when the file is durably renamed into place,
  /// or carries the write's exception (persist::IoError).
  std::future<void> submit_snapshot(std::string path);

  /// Attaches the write-ahead batch journal at `path` (normally done by
  /// the constructor from GraphConfig::journal_path). An existing file is
  /// scanned: a torn tail is truncated to the last valid record
  /// (journal_truncated_on_attach() reports how much), mid-file corruption
  /// throws persist::CorruptJournal, and the sequence continues after
  /// max(file's last record, this graph's cursor) — recovery replays
  /// first, then attaches. Throws std::logic_error if a journal is already
  /// attached.
  void attach_journal(const std::string& path);
  bool has_journal() const noexcept { return journal_ != nullptr; }

  /// The journal cursor: sequence number of the last journal record this
  /// graph's state contains (0 = none). Snapshots embed it as the cut;
  /// replay skips records at/below it.
  std::uint64_t journal_seq() const noexcept {
    return journal_seq_.load(std::memory_order_relaxed);
  }
  /// Raises the cursor (snapshot restore / journal replay; never lowers).
  void advance_journal_seq(std::uint64_t seq) {
    std::uint64_t cur = journal_seq_.load(std::memory_order_relaxed);
    while (seq > cur &&
           !journal_seq_.compare_exchange_weak(cur, seq,
                                               std::memory_order_relaxed)) {
    }
  }
  /// Torn-tail bytes the attach truncated (0 = clean file or no journal).
  std::uint64_t journal_truncated_on_attach() const noexcept;

  /// Visits every live neighbour of `u` (and weight; 0 for the set variant).
  void for_each_neighbor(VertexId u,
                         const std::function<void(VertexId, Weight)>& fn) const;

  /// Slab-granular iterator over `u`'s adjacency list.
  EdgeSlabIterator<Policy> edge_iterator(VertexId u) const {
    return EdgeSlabIterator<Policy>(arena_, dict_.table(u));
  }

  /// Exact out-degree (maintained by Alg. 1/2 counters).
  std::uint32_t degree(VertexId u) const { return dict_.edge_count(u); }

  /// Total live directed edges (undirected edges count twice).
  std::uint64_t num_edges() const { return dict_.total_edges(); }

  /// Current vertex-dictionary capacity (ids below this are addressable).
  std::uint32_t vertex_capacity() const { return dict_.capacity(); }
  /// True iff `u` has a table and is not marked deleted.
  bool vertex_live(VertexId u) const {
    return u < dict_.capacity() && dict_.has_table(u) && !dict_.deleted(u);
  }

  /// Pre-extends the vertex dictionary (pointer-copy growth).
  void reserve_vertices(std::uint32_t capacity) { dict_.grow(capacity); }

  // ---- maintenance & accounting ----------------------------------------
  /// Flush tombstones of every table (the paper's optional compaction).
  void flush_all_tombstones();

  // ---- temporal aging & arena compaction (src/stream/, docs/WORKLOADS.md
  // "Sliding-window streaming") ------------------------------------------

  /// Retires every edge whose timestamp (the stored weight — see
  /// src/core/types.hpp: w stands in for per-edge meta-data) is STRICTLY
  /// below `threshold`, as ONE bulk-erase batch riding the engine's
  /// double-buffered pipeline. The DynoGraph aging idiom: with timestamps
  /// from getTimestampForWindow, `ts < threshold` keeps exactly the live
  /// window (an edge AT the threshold survives). The expired set comes from
  /// one value-filtered scan of each live adjacency list, so finding it
  /// costs one pass over the window, not a lookup per live edge; threshold
  /// 0 returns 0 without scanning. Undirected graphs collect each edge once
  /// (mirrors carry the same timestamp and are erased by the same batch).
  /// Phase-serial like delete_edges — use submit_age_out under concurrent
  /// submitters. Returns the directed edges removed.
  std::uint64_t delete_edges_older_than(Weight threshold)
      requires Policy::kHasValues;

  /// What one compact() call did (last_compact_stats()).
  struct CompactStats {
    std::uint32_t victim_chunks = 0;    ///< chunks below compact_occupancy
    std::uint64_t migrated_slabs = 0;   ///< overflow slabs moved out of victims
    std::uint32_t released_chunks = 0;  ///< 1 MiB chunks returned to the OS
    std::uint32_t shrunk_tables = 0;    ///< tables rebuilt at a smaller size
    std::uint32_t chunks_before = 0;    ///< live chunks entering the call
    std::uint32_t chunks_after = 0;     ///< live chunks leaving the call
  };

  /// Arena compaction, two passes. (1) Table shrink: every table whose
  /// live count warrants at most HALF its current buckets is rebuilt
  /// right-sized and the old base range returned to the arena — tables are
  /// otherwise sized for the peak degree they ever saw, and under a
  /// sliding window that high-water mark only ratchets up (the half
  /// hysteresis keeps shrink from ping-ponging with the auto-rehash grow
  /// trigger). (2) Chunk migration: surviving overflow slabs of sparse
  /// dynamic chunks (allocated fraction < GraphConfig::compact_occupancy)
  /// move into denser chunks — rewriting the owning chain's next pointer —
  /// then emptied chunks (dynamic AND fully-freed bulk) return to the OS,
  /// keeping GraphConfig::compact_keep_free_chunks as an allocation
  /// reserve. Sliding-window churn retires slabs all over the address
  /// space; without both passes, steady-state RSS rides the high-water
  /// mark forever. Tombstones are flushed first so shrink sizes from real
  /// occupancy and migration never copies dead chains. Phase-serial (no
  /// concurrent operations of any kind); use submit_compact under
  /// concurrent submitters. Returns the stats also available from
  /// last_compact_stats().
  CompactStats compact();
  const CompactStats& last_compact_stats() const {
    return last_compact_stats_;
  }

  /// Scheduled delete_edges_older_than: runs as a MAINTENANCE submission —
  /// mutation-kind, so it owns an exclusive write window, and never
  /// coalesced with neighboring insert/erase submissions. FIFO with the
  /// submitter's other submissions: inserts submitted before it are aged
  /// against, analytics submitted after it observe the retired state. The
  /// future resolves to the directed edges removed.
  std::future<std::uint64_t> submit_age_out(Weight threshold)
      requires Policy::kHasValues;

  /// Scheduled compact(), same maintenance semantics as submit_age_out.
  /// The future resolves to the number of chunks released.
  std::future<std::uint64_t> submit_compact();

  /// Raw maintenance hook: `task` runs as a MAINTENANCE submission —
  /// mutation-kind, alone (never coalesced), INLINE ON THE CONDUCTOR
  /// THREAD, owning an exclusive write window over this graph. That
  /// inline guarantee is what the sharding tier's cross-shard fence is
  /// built on (src/shard/tier_fence.hpp): a barrier closure
  /// submitted here may block waiting for its siblings on OTHER graphs'
  /// conductors without ever occupying a ThreadPool worker, so N parked
  /// fences cannot starve the pool that must finish the phases in front
  /// of them. The future resolves to the task's count, or carries its
  /// exception.
  std::future<std::uint64_t> submit_maintenance(
      std::function<std::uint64_t()> task);

  /// The §III maintenance hook: "maintain low-cost metrics per vertex to
  /// determine the chain-length and periodically perform rehashing if it
  /// exceeds a given threshold." Rebuilds every table whose expected chain
  /// length (live keys / (buckets * Bc)) exceeds `slabs_per_bucket` into a
  /// table sized for the configured load factor. Returns the number of
  /// tables rehashed. Phase-serial (must not run concurrently with other
  /// operations). The old bucket range returns to the arena and overflow
  /// slabs are freed. This is the manual sweep over every table; insert
  /// batches apply the same test to the tables they grow
  /// (GraphConfig::auto_rehash_chain_slabs).
  std::uint32_t rehash_long_chains(double slabs_per_bucket = 1.0);

  /// Stage/apply wall-clock profile of the last batched mutation,
  /// including the overlap the double buffer achieved.
  const BatchPipelineStats& last_batch_stats() const {
    return pipeline_stats_;
  }

  /// Stage/search profile of the last batched query (edges_exist /
  /// edge_weights): apply_seconds is the bulk-search window, and
  /// overlap_seconds measures how much of slice N+1's staging hid behind
  /// slice N's searches. Query batches may run concurrently; the profile
  /// is of whichever batch finished last.
  BatchPipelineStats last_query_stats() const {
    std::lock_guard<std::mutex> lock(query_stats_mutex_);
    return query_stats_;
  }

  /// Insert batches after which the automatic rehash policy
  /// (GraphConfig::auto_rehash_chain_slabs) rebuilt at least one table,
  /// over this graph's lifetime.
  std::uint64_t auto_rehash_triggers() const noexcept {
    return auto_rehash_count_;
  }

  /// Aggregated slab/occupancy accounting over all adjacency tables
  /// (Figure 2's utilization and chain-length axes). Phase-serial.
  GraphMemoryStats memory_stats() const;
  /// Allocator-level accounting (chunks, live slabs, bytes).
  memory::ArenaStats arena_stats() const { return arena_.stats(); }
  /// The construction-time configuration in effect.
  const GraphConfig& config() const { return config_; }
  /// Times the vertex dictionary grew (pointer-copy growth events).
  std::uint32_t dictionary_growths() const { return dict_.growth_count(); }

 private:
  /// Serial pre-pass of every batched mutation: validates ids and grows the
  /// dictionary to cover the batch (pointer-copy growth must not race the
  /// parallel phase).
  void prepare_batch(std::span<const WeightedEdge> edges);
  void ensure_vertex(VertexId u, std::uint32_t degree_hint);

  /// The batched mutation driver (insert for WeightedEdge, erase for
  /// Edge): stage sharded, group into per-(vertex, bucket) runs, apply
  /// through the bulk slab ops (apply_mutation_runs) — with large batches
  /// split into double-buffered epochs whose staging overlaps the previous
  /// epoch's apply. An insert creates first-touch tables during staging
  /// ("if the connectivity information for a vertex is not available, we
  /// construct a hash table with a single bucket") and notes the tables it
  /// grew past the auto-rehash threshold. A failure journals the committed
  /// prefix and throws PartialBatchError; success journals the batch.
  template <typename EdgeT>
  std::uint64_t mutate_batched(std::span<const EdgeT> edges);
  /// Shared batched-search driver (edges_exist / edge_weights): the query
  /// batch splits into double-buffered epochs — stage+group of slice N+1
  /// runs as a background pool job while the bulk searches of slice N run
  /// — with results scattered to input positions through the staged
  /// sequence numbers. Staging is local (query batches stay concurrent
  /// with each other).
  void search_batched(std::span<const Edge> queries, std::uint8_t* found_out,
                      Weight* weights_out) const;
  /// The §III auto-rehash policy: rebuilds every table apply noted in
  /// rehash_due_ (its live keys outgrew config_.auto_rehash_chain_slabs
  /// slabs per bucket). Called after an insert batch commits, under
  /// batch_mutex_.
  void maybe_auto_rehash();
  /// Creates the phase scheduler on first use (thread-safe; the conductor
  /// thread is only ever paid by graphs that actually submit).
  PhaseScheduler& ensure_scheduler();
  /// Refuses mutations once the journal poisoned itself (a failed append
  /// may have left a torn tail on disk): the in-memory graph must not
  /// advance past what recovery can rebuild. Throws persist::IoError.
  void ensure_journal_usable() const;
  /// Appends a committed batch (an insert record for WeightedEdge, an
  /// erase record for Edge) to the journal, advancing the cursor. Called
  /// at the success tail of mutate_batched, under batch_mutex_ (vertex ops
  /// are phase-serial and append directly; the Journal's own mutex
  /// backstops the ordering either way).
  template <typename EdgeT>
  void journal_append(std::span<const EdgeT> edges);
  /// Best-effort committed-prefix journaling on a PartialBatchError abort:
  /// the input batch minus the unapplied pairs is exactly the state the
  /// abort left (core::PartialBatchError documents this), so replaying the
  /// filtered record rebuilds it. A journal failure here is swallowed —
  /// the PartialBatchError is the caller's signal, and the journal has
  /// poisoned itself against further appends.
  template <typename EdgeT>
  void journal_committed(std::span<const EdgeT> edges,
                         const std::vector<Edge>& unapplied) noexcept;
  /// Rebuilds `u`'s table if its expected chain exceeds the threshold.
  bool maybe_rehash_table(VertexId u, double slabs_per_bucket);
  /// Rebuilds `u`'s table at `buckets` buckets: move live keys, free the
  /// old overflow chain, swap the dictionary pointer, return the old base
  /// range to the arena. Shared by grow (maybe_rehash_table) and shrink
  /// (compact). Phase-serial.
  void rebuild_table(VertexId u, const slabhash::TableRef& old_table,
                     std::uint32_t buckets);

  GraphConfig config_;
  mutable memory::SlabArena arena_;
  VertexDictionary dict_;
  /// Double-buffered staging areas of the batch engine. Mutation batches
  /// are phases (the phase-concurrent model forbids overlapping them), so
  /// two buffers — the applying epoch and the staging epoch — serve every
  /// insert/erase batch; `batch_mutex_` enforces the contract instead of
  /// trusting it. Query batches (edges_exist / edge_weights) stage into
  /// local buffers and stay concurrent with each other.
  ShardedStaging staging_bufs_[2];
  std::mutex batch_mutex_;
  BatchPipelineStats pipeline_stats_;
  /// Query-batch profile. Mutable + mutex: edges_exist / edge_weights are
  /// const and may run concurrently with each other (phase-concurrent
  /// queries); each batch computes its profile locally and publishes it
  /// whole under the lock.
  mutable BatchPipelineStats query_stats_;
  mutable std::mutex query_stats_mutex_;
  /// Sources the current insert batch pushed past the auto-rehash
  /// threshold (apply appends, maybe_auto_rehash consumes; both under
  /// batch_mutex_).
  std::vector<VertexId> rehash_due_;
  CompactStats last_compact_stats_;
  std::uint64_t auto_rehash_count_ = 0;
  /// Write-ahead batch journal (GraphConfig::journal_path; null = none).
  /// Declared BEFORE the scheduler block so it outlives the conductor's
  /// Ops callbacks during destruction.
  std::unique_ptr<persist::Journal> journal_;
  /// Journal cursor: last record sequence this graph's state contains.
  /// Restore sets it to the snapshot's cut, replay advances it, and every
  /// append keeps it equal to the journal's last durable record.
  std::atomic<std::uint64_t> journal_seq_{0};
  /// Scheduled mode: created on the first
  /// submit_* call under scheduler_once_ and published through the atomic
  /// pointer (schedule_drain / last_schedule_stats read it without racing
  /// the creation). LAST members on purpose — destroyed FIRST, so the
  /// conductor drains and joins while every member its Ops callbacks reach
  /// is still alive.
  std::once_flag scheduler_once_;
  std::unique_ptr<PhaseScheduler> scheduler_;
  std::atomic<PhaseScheduler*> scheduler_ptr_{nullptr};
};

using DynGraphMap = DynGraph<MapPolicy>;
using DynGraphSet = DynGraph<SetPolicy>;

extern template class DynGraph<MapPolicy>;
extern template class DynGraph<SetPolicy>;

}  // namespace sg::core
