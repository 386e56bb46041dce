// Staged batch-update engine (docs/PERF.md "Batch engine").
//
// The paper's Algorithm 1 earns its GPU throughput from warp-cooperative,
// coalesced batch insertion; the scalar CPU port still dispatched one query
// at a time, so every key paid a full hash + cold chain walk. The engine
// restructures every batched mutation/query into three stages, the same
// pre-staging discipline the dynamic-graph baselines (Hornet, faimGraph)
// apply before touching their stores:
//
//   1. STAGE (sharded, parallel) — shard s owns every vertex u with
//      u % shards == s. Each shard walks the input batch once, emitting
//      the directions it owns straight into its staged SoA arrays (no 2x
//      mirrored temp vector), dropping self-loops, creating missing vertex
//      tables (exclusive per shard: no lazy-creation mutex), and
//      pre-hashing each key ONCE into its destination bucket. The loop
//      prefetches the dictionary entry of the owned source
//      kStagePrefetchDistance items ahead of its table lookup. One loop
//      serves every shard count (one shard owns every vertex), and it
//      reads tables straight from the VertexDictionary — creating them
//      through the SlabArena only when staging an insert.
//   2. GROUP (per-shard sort + scan) — stable-radix-sort the shard's
//      queries by the packed (vertex, bucket) segment id
//      (sort::radix_sort_hi with the hi OR/AND masks accumulated for free
//      during staging), then scan once to cut the shard into
//      per-(vertex, bucket) runs, ordering each multi-query run by
//      (key, sequence) and dropping duplicates — the highest sequence
//      number, i.e. the most recent occurrence, wins. Ownership makes the
//      dedup exhaustive: every occurrence of a (vertex, key) pair lands in
//      the one shard that owns the vertex, so "most recent edge and its
//      weight" stays deterministic across shard boundaries. Grouping is
//      TWO-PASS and merge-free: shards first COUNT their runs and
//      post-dedup keys, the counts prefix-sum into disjoint slices of one
//      presized global run list, and shards then PLACE their output
//      directly into those slices in parallel — stage 3 consumes shard
//      output with zero driver-side copy.
//   3. APPLY (parallel) — simt::launch_runs schedules contiguous run
//      ranges balanced by query count; each warp walks a run's bucket
//      chain once through the slabhash bulk entry points. The walk is
//      latency-tolerant at three distances: a two-stage simt::pipeline
//      fetches the dictionary entry of the run 2*kRunPrefetchDepth ahead
//      and the whole head slab (both cache lines, simt::prefetch_slab) of
//      the run kRunPrefetchDepth ahead, and inside a chain each slab's
//      successor is fetched whole while its SIMD compares resolve. An
//      insert's per-source counter update doubles as the §III chain-length
//      metric: a source whose live count outgrows its buckets is noted for
//      rebuild once the batch commits (DynGraph::maybe_auto_rehash).
//
// Large batches additionally split into EPOCHS and double-buffer: epoch
// e+1 runs stages 1-2 as a background ThreadPool job while epoch e runs
// stage 3 on the same pool (round-robin chunk interleaving). Epochs apply
// in input order — the pipeline fence — so counter deltas and cross-epoch
// duplicate resolution commit exactly as the unsplit batch would. QUERY
// batches (edges_exist / edge_weights) pipeline through the identical
// epoch machinery — stage+group of query slice N+1 overlaps the bulk
// searches of slice N — with results scattered to input positions through
// the staged sequence numbers.
//
// Stages 1-2 and the epoch driver (stage_mutations_shard,
// stage_queries_shard, stage_epoch, run_epoch_pipeline) know nothing of the
// slab format: they are plain functions compiled once in batch_engine.cpp.
// Stage 3's walks (apply_mutation_runs, search_apply_runs, gather_emit)
// call the slab format's bulk operations, so they are templates on the
// layout, compiled once per format in batch_apply.cpp. DynGraph<Policy>
// only drives them (dyn_graph.cpp).
//
// The engine owns the run partition: a (table, bucket) pair appears in at
// most one run per epoch, which is the exclusivity contract the bulk slab
// operations rely on to share one EMPTY scan per slab.
//
// The engine is still PHASE-concurrent: a mutation batch must never
// overlap a query batch. On the synchronous API that contract is the
// caller's obligation; the phase scheduler (src/core/phase_scheduler.hpp,
// DynGraph::submit_*) enforces it for scheduled callers by fencing
// mutation phases from query phases and feeding coalesced submissions
// through this engine — see docs/ARCHITECTURE.md.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <stdexcept>
#include <vector>

#include "src/core/types.hpp"
#include "src/core/vertex_dictionary.hpp"
#include "src/memory/slab_arena.hpp"
#include "src/slabhash/slab_layout.hpp"
#include "src/sort/segmented_sort.hpp"

namespace sg::core {

/// Internal abort signal of one epoch's apply stage: the arena ran dry (or
/// a fault was injected) while applying staged runs. Carries the epoch's
/// exact outcome — what was applied (and therefore counted) and which
/// staged (src, dst) pairs were not — so the pipeline driver can fold it
/// into a caller-facing PartialBatchError together with the epochs that
/// never applied. Never escapes DynGraph.
struct MutationAbort {
  std::uint64_t applied = 0;        ///< keys applied (and counted) this epoch
  std::vector<Edge> unapplied;      ///< staged pairs of this epoch not applied
};

/// Internal wrapper the epoch pipeline throws after catching a
/// MutationAbort from the apply stage: adds which input items the failing
/// epoch covered, so the caller can extend the unapplied set with every
/// later epoch's raw input. Never escapes DynGraph.
struct PipelineAbort {
  MutationAbort epoch;               ///< the failing epoch's outcome
  std::uint64_t epoch_begin_item = 0;  ///< first input item of that epoch
  std::uint64_t epoch_end_item = 0;    ///< one past its last input item
  std::uint64_t applied_before = 0;    ///< keys applied by earlier epochs
};

/// Stage 3's software-pipeline depth (simt::pipeline): a run's head slab
/// is prefetched this many runs ahead of its probe, and its source's
/// dictionary entry twice as far ahead, so the head-slab address is
/// cache-resident when the slab prefetch forms it.
inline constexpr std::uint64_t kRunPrefetchDepth = 4;

/// Input items the stage-1 loops run ahead of their dictionary reads when
/// prefetching the owned sources' entries.
inline constexpr std::size_t kStagePrefetchDistance = 16;

/// Upper bound on stage shards (the auto heuristic is one per pool worker;
/// past this, per-shard sort histograms stop paying for themselves).
inline constexpr std::uint32_t kMaxStageShards = 32;

/// Owning shard of vertex `u` under `num_shards` (a power of two) shards.
/// A strided partition: hub vertices with nearby ids land in different
/// shards, so skewed batches still stage in parallel.
inline std::uint32_t shard_of_vertex(VertexId u,
                                     std::uint32_t num_shards) noexcept {
  return u & (num_shards - 1u);
}

/// One staged run: queries keys[run_offsets[r] .. run_offsets[r+1]) of a
/// BatchStaging all hash to `bucket` of vertex `src`'s table.
struct QueryRun {
  VertexId src = 0;
  std::uint32_t bucket = 0;
};

/// Staging area of one batched operation (one shard's worth when staging
/// is sharded). The staged key of a query packs
///   hi = src << 13 | bucket     (num_buckets <= SlabArena::kChunkSlabs)
///   lo = key << 32 | sequence   (sequence = staged order, for last-wins)
/// so one sort yields the (vertex, bucket) grouping, key adjacency for
/// dedup, and deterministic most-recent-wins ordering at once.
class BatchStaging {
 public:
  static constexpr std::uint32_t kBucketBits = 13;
  static_assert(memory::SlabArena::kChunkSlabs <= (1u << kBucketBits),
                "bucket ids must fit the packed staging key");

  // ---- staged queries, grouped into runs (stage 2 outputs) --------------
  std::vector<std::uint32_t> keys;         ///< query keys, run-contiguous
  std::vector<std::uint32_t> values;       ///< parallel values (map inserts)
  std::vector<std::uint32_t> seqs;         ///< parallel input positions
  std::vector<QueryRun> runs;
  std::vector<std::uint64_t> run_offsets;  ///< runs.size() + 1 entries

  std::uint64_t staged = 0;   ///< queries emitted by stage 1
  std::uint64_t dropped = 0;  ///< self-loops / unknown-source queries
  std::uint64_t duplicates = 0;  ///< queries removed by dedup

  void clear() {
    keys.clear();
    values.clear();
    seqs.clear();
    runs.clear();
    run_offsets.clear();
    order_.clear();
    weights_.clear();
    staged = dropped = duplicates = 0;
    hi_or_ = 0;
    hi_and_ = ~std::uint64_t{0};
    grouped_runs_ = grouped_keys_ = 0;
    dedup_ = false;
  }

  /// Stage one directed query with an explicit sequence number — the value
  /// that breaks most-recent-wins ties and, for searches, scatters results
  /// back to input positions. Must be strictly increasing in input order
  /// within this staging. `table` must be the source's table; the key is
  /// hashed here — once, never again.
  void push_seq(VertexId src, std::uint32_t key, slabhash::TableRef table,
                std::uint64_t seed, std::uint32_t seq) {
    const std::uint32_t bucket =
        slabhash::bucket_of(key, table.num_buckets, seed);
    const std::uint64_t hi = (static_cast<std::uint64_t>(src) << kBucketBits) |
                             bucket;
    order_.push_back({hi, (static_cast<std::uint64_t>(key) << 32) | seq});
    hi_or_ |= hi;   // digit-skip masks for the radix sort, accumulated free
    hi_and_ &= hi;
    ++staged;
  }

  /// Stage with seq = staged order (the mutation paths; weights_ is indexed
  /// by this dense sequence).
  void push(VertexId src, std::uint32_t key, slabhash::TableRef table,
            std::uint64_t seed) {
    push_seq(src, key, table, seed, static_cast<std::uint32_t>(staged));
  }
  void push_weighted(VertexId src, std::uint32_t key, Weight weight,
                     slabhash::TableRef table, std::uint64_t seed,
                     bool keep_weight) {
    if (keep_weight) weights_.push_back(weight);
    push(src, key, table, seed);
  }

  void reserve(std::size_t queries, bool weighted) {
    order_.reserve(queries);
    if (weighted) weights_.reserve(queries);
  }

  /// Stage 2, pass 1 of the two-pass (count, then place) grouping: sort by
  /// the packed (vertex, bucket) word, order each multi-query group by
  /// (key, sequence), and COUNT the runs and post-dedup keys this staging
  /// will emit — without emitting anything. `dedup` drops all but the
  /// highest-sequence occurrence of equal keys (mutations dedup; searches
  /// keep every query so results can scatter back per input position) and
  /// is remembered for the emit pass. Sets `duplicates`.
  void group_prepare(bool dedup);

  /// Stage 2, pass 2: emit the prepared runs into `dst`'s presized arrays,
  /// runs at [run_base, run_base + grouped_runs()), keys (and values /
  /// seqs, when gathered) at [key_base, key_base + grouped_keys()).
  /// `dst` is the shared global staging that several shards emit into
  /// concurrently — slices are disjoint by construction of the
  /// prefix-summed bases, so the parallel writes need no synchronization.
  /// `gather_values` copies the staged weights into `dst.values`
  /// run-order; `gather_seqs` keeps the sequence numbers (searches scatter
  /// results through them).
  void group_emit(bool gather_values, bool gather_seqs, BatchStaging& dst,
                  std::uint64_t key_base, std::uint64_t run_base) const;

  /// Fused single-pass grouping (sort, then cut + emit in one scan) for
  /// stagings that need no cross-shard assembly — the lone-shard pipeline
  /// path and unit tests. Equivalent output to group_prepare + group_emit
  /// at base 0, without paying the counting pass where no global placement
  /// needs it.
  void group(bool dedup, bool gather_values, bool gather_seqs);

  /// Runs / keys the emit pass will produce (valid after group_prepare).
  std::uint64_t grouped_runs() const noexcept { return grouped_runs_; }
  std::uint64_t grouped_keys() const noexcept { return grouped_keys_; }

  /// The partition guard: throws std::logic_error if any staged query's
  /// source is not owned by shard `shard` of `num_shards`. Release builds
  /// skip the scan (debug assertion); the staging filters make violations
  /// impossible by construction, and this keeps them impossible.
  void check_partition(std::uint32_t shard, std::uint32_t num_shards) const;

 private:
  std::vector<sort::U128> order_;       ///< staged (hi, lo) sort records
  std::vector<sort::U128> scratch_;     ///< radix ping-pong buffer
  std::vector<std::uint32_t> weights_;  ///< sequence -> weight (stage 1)
  std::uint64_t hi_or_ = 0;             ///< OR of all staged hi words
  std::uint64_t hi_and_ = ~std::uint64_t{0};  ///< AND of all staged hi words
  std::uint64_t grouped_runs_ = 0;      ///< runs counted by group_prepare
  std::uint64_t grouped_keys_ = 0;      ///< post-dedup keys counted
  bool dedup_ = false;                  ///< prepare's dedup, reused by emit
};

/// One double-buffer half of the pipelined engine: per-shard staging areas
/// plus the global run list stage 3 consumes. The shard-ownership
/// partition — every run of shard s must satisfy
/// shard_of_vertex(run.src, shards) == s — is the invariant that makes
/// per-shard dedup exhaustive and runs bucket-exclusive; finalize() guards
/// it with a debug assertion (validate_partition()).
class ShardedStaging {
 public:
  void resize(std::uint32_t num_shards) {
    if (shards_.size() != num_shards) shards_.resize(num_shards);
  }
  std::uint32_t shard_count() const noexcept {
    return static_cast<std::uint32_t>(shards_.size());
  }
  BatchStaging& shard(std::uint32_t s) { return shards_[s]; }

  /// Assembles the prepared shards (each past group_prepare) into the one
  /// run list front() exposes, two-pass and zero-copy: per-shard run/key
  /// counts prefix-sum into disjoint slices of the presized global arrays
  /// and every shard EMITS ITS OWN OUTPUT directly into its slice, in
  /// parallel — no driver-side copy exists. Runs keep shard-major,
  /// source-ascending-within-shard order: deterministic, and consecutive
  /// runs still share sources for the apply counter batching. Debug builds
  /// re-validate the shard partition.
  void finalize(bool gather_values, bool gather_seqs);

  /// The partition guard behind finalize()'s debug assertion, callable
  /// directly (tests, paranoid callers): throws std::logic_error if any
  /// shard staged a vertex it does not own.
  void validate_partition() const;

  /// The staging stage 3 applies: the lone shard, or the merged view.
  const BatchStaging& front() const {
    return shards_.size() == 1 ? shards_[0] : merged_;
  }

  // ---- stage-window bookkeeping (pipeline overlap accounting) ----------
  /// Execution window of this buffer's last staging pass: recorded once
  /// by the (single) staging job after its shard fan-out joins, read by
  /// the pipeline driver after the epoch fence — the fence's pool
  /// handshake orders the accesses, so plain fields suffice. The driver
  /// intersects it with the apply window to measure the overlap the
  /// double buffer actually achieved.
  void window_note(std::int64_t begin_ns, std::int64_t end_ns) {
    window_begin_ns_ = begin_ns;
    window_end_ns_ = end_ns;
  }
  std::int64_t window_begin_ns() const { return window_begin_ns_; }
  std::int64_t window_end_ns() const { return window_end_ns_; }

 private:
  std::vector<BatchStaging> shards_;
  BatchStaging merged_;
  std::int64_t window_begin_ns_ = 0;
  std::int64_t window_end_ns_ = 0;
};

/// Wall-clock profile of the last pipelined batch (docs/PERF.md). The same
/// struct profiles query batches (edges_exist / edge_weights), where
/// `apply_seconds` is the bulk-search window.
struct BatchPipelineStats {
  std::uint32_t epochs = 0;
  std::uint32_t shards = 0;
  double stage_seconds = 0.0;    ///< summed stage+group+finalize windows
  double apply_seconds = 0.0;    ///< summed apply (or bulk-search) windows
  double overlap_seconds = 0.0;  ///< stage(e+1) ∩ apply(e) window overlap
  /// Input items per epoch of the last batch's epoch plan (== the batch
  /// size when it ran as one epoch). With epochs_applied below, failure
  /// paths reconstruct which raw input items never reached the apply stage.
  std::uint64_t epoch_items = 0;
  /// Epochs whose apply stage COMMITTED (completed without abort). Equals
  /// `epochs` after a clean batch.
  std::uint32_t epochs_applied = 0;
  /// Keys applied (new-unique inserted or erased) by the committed epochs —
  /// the running total failure paths report when a later stage dies.
  std::uint64_t applied_total = 0;
};

// ---------------------------------------------------------------------------
// Stage 1 and the epoch driver. Nothing here depends on the slab format, so
// these are plain functions compiled once in batch_engine.cpp.
// ---------------------------------------------------------------------------

/// Stages one shard of a mutation batch: every direction whose source the
/// shard owns (both directions when `undirected`, mirrored in place), with
/// self-loops dropped (Algorithm 1 line 3). The source's table comes from
/// `dict`. With an `arena` this is the insert lookup: a source without a
/// table gets a one-bucket table (§III-b) and a deleted source revives;
/// `dict` must already cover every id of the batch. Without one it is the
/// read-only erase lookup: sources past the dictionary capacity or without
/// a table are counted in `dropped`. Only the shard owning a source looks
/// it up, so table creation stays exclusive per vertex and needs no lock
/// even though shards stage in parallel. The loop prefetches the owned
/// sources' dictionary entries kStagePrefetchDistance items ahead.
/// `keep_weights` stages WeightedEdge weights for the map values.
/// Instantiated for Edge and WeightedEdge.
template <typename EdgeT>
void stage_mutations_shard(std::span<const EdgeT> edges, bool undirected,
                           bool keep_weights, std::uint64_t seed,
                           std::uint32_t shard, std::uint32_t num_shards,
                           VertexDictionary& dict, memory::SlabArena* arena,
                           BatchStaging& st);

/// Stages one shard of a query batch whose results scatter back to input
/// positions: the staged sequence number is `seq_base` plus the query's
/// index (epoch-pipelined batches stage sub-spans, and results must still
/// land at GLOBAL input positions). Read-only lookup as above: a query on
/// an unknown source is dropped, and the caller's output stays 0 there.
void stage_queries_shard(std::span<const Edge> queries, std::uint64_t seed,
                         std::uint32_t shard, std::uint32_t num_shards,
                         const VertexDictionary& dict, BatchStaging& st,
                         std::uint32_t seq_base = 0);

/// What one epoch's staging pass groups for. Mutations dedup (most recent
/// occurrence wins) and carry the kStageJob fault site; queries keep every
/// occurrence and gather sequence numbers for the result scatter.
enum class StageKind { kMutation, kQuery };

/// Stages shard `shard` of an epoch into `st` (one call per shard).
using ShardStageStep =
    std::function<void(std::uint32_t shard, BatchStaging& st)>;

/// One epoch's staging pass: runs `stage_shard` for every shard in
/// parallel, groups each shard (fused single-pass group() for a lone
/// shard, group_prepare() otherwise), finalizes the shards into the one
/// run list front() exposes and records the pass's window. `gather_values`
/// carries staged weights into the run list (map inserts).
void stage_epoch(ShardedStaging& buf, std::uint32_t shards, StageKind kind,
                 bool gather_values, const ShardStageStep& stage_shard);

/// Stages input items [begin, end) into `buf` on `shards` shards.
using EpochStageStep =
    std::function<void(ShardedStaging& buf, std::uint64_t begin,
                       std::uint64_t end, std::uint32_t shards)>;
/// Consumes one staged epoch; returns its contribution to the total.
using EpochApplyStep =
    std::function<std::uint64_t(const BatchStaging& front, bool overlapped)>;

/// The double-buffered epoch driver shared by the mutation AND query
/// pipelines: plans epochs from `pipeline_epoch_edges`
/// (GraphConfig::pipeline_epoch_edges; 0 = auto) and the pool width,
/// stages epoch 0 synchronously, then alternates apply(epoch e) with a
/// single-chunk background job staging epoch e+1, fencing on the job
/// before the buffer swap and folding the stage/apply window intersection
/// into `stats`. Each step runs once per epoch. Shards per epoch come
/// from `stage_shards` (GraphConfig::stage_shards, rounded up to a power
/// of two; 0 = auto) and the epoch's staged queries, which
/// `stage_items_factor` scales from input items (2 when undirected
/// mutations mirror in place). A MutationAbort from `apply` leaves as a
/// PipelineAbort carrying the failing epoch's input bounds.
std::uint64_t run_epoch_pipeline(std::uint64_t num_items,
                                 std::uint32_t stage_items_factor,
                                 std::uint32_t pipeline_epoch_edges,
                                 std::uint32_t stage_shards,
                                 ShardedStaging* cur, ShardedStaging* nxt,
                                 BatchPipelineStats& stats,
                                 const EpochStageStep& stage,
                                 const EpochApplyStep& apply);

// ---------------------------------------------------------------------------
// Stage 3. The per-run walks call the slab format's bulk operations, so they
// are templates on the layout (slabhash::MapLayout / SetLayout), defined and
// instantiated for both in batch_apply.cpp. Each schedules its runs with
// simt::launch_runs, balanced by query count (or degree), and
// software-pipelines them: a run's dictionary entry 2*kRunPrefetchDepth
// runs ahead, its head slab kRunPrefetchDepth runs ahead. `overlapped`
// tightens launch chunking so the walk interleaves with a concurrent
// staging job.
// ---------------------------------------------------------------------------

/// Applies one staged mutation epoch: bulk_insert, or bulk_erase when
/// `erase`, once per run, with the per-source counter deltas aggregated
/// before the atomic. An insert appends to `rehash_due` every source whose
/// new live count exceeds `rehash_keys_per_bucket` keys per bucket (0 = no
/// notes). Returns the keys applied. When the arena runs dry mid-run it
/// throws a MutationAbort carrying the exact applied count and the staged
/// pairs left unapplied.
template <class Layout>
std::uint64_t apply_mutation_runs(memory::SlabArena& arena,
                                  VertexDictionary& dict,
                                  const BatchStaging& staged, bool erase,
                                  double rehash_keys_per_bucket,
                                  std::vector<VertexId>& rehash_due,
                                  bool overlapped);

/// Runs the bulk searches of one staged query slice, scattering hits into
/// the caller's output arrays through the staged sequence numbers:
/// found_out[i] = 1 on a hit, weights_out[i] = the stored value (map
/// layout only). Either output may be null.
template <class Layout>
void search_apply_runs(const memory::SlabArena& arena,
                       const VertexDictionary& dict,
                       const BatchStaging& staged, std::uint8_t* found_out,
                       Weight* weights_out, bool overlapped);

/// The gather's emit pass: writes the live adjacency of vertices[i] into
/// out[offsets[i] .. offsets[i+1]), one chain walk per vertex. `offsets`
/// holds the exact live degrees, prefix-summed (vertices.size() + 1
/// entries); an empty slice is skipped.
template <class Layout>
void gather_emit(const memory::SlabArena& arena, const VertexDictionary& dict,
                 std::span<const VertexId> vertices,
                 std::span<const std::uint64_t> offsets, VertexId* out);

}  // namespace sg::core
