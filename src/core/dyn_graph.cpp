// Members of DynGraph<Policy>, instantiated for both policies at the end
// of this file. They drive the batch engine and run once per batch; the
// per-run walks they launch are compiled per slab format in
// batch_apply.cpp, so nothing in this unit decides how the hot paths
// inline (docs/PERF.md "Code placement").
#include "src/core/dyn_graph.hpp"

#include <algorithm>
#include <exception>
#include <new>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <unordered_set>
#include <vector>

#include "src/core/age_scan.hpp"
#include "src/core/batch_engine.hpp"
#include "src/core/batch_utils.hpp"
#include "src/core/errors.hpp"
#include "src/persist/journal.hpp"
#include "src/persist/snapshot.hpp"
#include "src/simt/atomics.hpp"
#include "src/simt/grid.hpp"

namespace sg::core {

namespace {

/// Packs a directed pair for the unapplied-set membership tests.
std::uint64_t edge_key(VertexId src, VertexId dst) {
  return (static_cast<std::uint64_t>(src) << 32) | dst;
}

/// Builds a PartialBatchError's unapplied list from a PipelineAbort: the
/// raw input items of the failing epoch whose staged pair (or its mirror,
/// when undirected) went unapplied — reported in input order and input
/// orientation, deduplicated — followed by every raw input item of the
/// epochs that never reached the apply stage.
template <typename EdgeT>
std::vector<Edge> unapplied_from_abort(std::span<const EdgeT> edges,
                                       bool undirected,
                                       const PipelineAbort& abort) {
  std::unordered_set<std::uint64_t> missed;
  missed.reserve(abort.epoch.unapplied.size());
  for (const Edge& e : abort.epoch.unapplied) {
    missed.insert(edge_key(e.src, e.dst));
  }
  std::vector<Edge> unapplied;
  std::unordered_set<std::uint64_t> reported;
  for (std::uint64_t i = abort.epoch_begin_item;
       i < abort.epoch_end_item && i < edges.size(); ++i) {
    const VertexId src = edges[i].src;
    const VertexId dst = edges[i].dst;
    if (src == dst) continue;  // self-loops are dropped, never staged
    const bool hit = missed.count(edge_key(src, dst)) != 0 ||
                     (undirected && missed.count(edge_key(dst, src)) != 0);
    if (hit && reported.insert(edge_key(src, dst)).second) {
      unapplied.push_back(Edge{src, dst});
    }
  }
  for (std::uint64_t i = abort.epoch_end_item; i < edges.size(); ++i) {
    unapplied.push_back(Edge{edges[i].src, edges[i].dst});
  }
  return unapplied;
}

/// Fallback unapplied list for failures carrying no per-pair detail (a
/// staging job died): every raw input item from the first epoch that did
/// not commit its apply stage.
template <typename EdgeT>
std::vector<Edge> unapplied_from_epoch(std::span<const EdgeT> edges,
                                       const BatchPipelineStats& stats) {
  std::uint64_t begin =
      static_cast<std::uint64_t>(stats.epochs_applied) * stats.epoch_items;
  if (begin > edges.size()) begin = edges.size();
  std::vector<Edge> unapplied;
  unapplied.reserve(edges.size() - begin);
  for (std::uint64_t i = begin; i < edges.size(); ++i) {
    unapplied.push_back(Edge{edges[i].src, edges[i].dst});
  }
  return unapplied;
}

/// Whether a batch failure without per-pair detail was arena exhaustion.
/// Host heap exhaustion is rethrown as is: building a partial report could
/// run out too.
bool arena_exhausted(const std::exception_ptr& failure) {
  try {
    std::rethrow_exception(failure);
  } catch (const memory::ArenaExhausted&) {
    return true;
  } catch (const std::bad_alloc&) {
    throw;
  } catch (...) {
    return false;
  }
}

}  // namespace

// --------------------------------------------------------------------------
// Construction & vertex-table management
// --------------------------------------------------------------------------

template <class Policy>
DynGraph<Policy>::DynGraph(GraphConfig config)
    : config_(config), dict_(config.vertex_capacity) {
  if (config_.load_factor <= 0.0) {
    throw std::invalid_argument("load_factor must be positive");
  }
  if (config_.compact_occupancy < 0.0 || config_.compact_occupancy > 1.0) {
    throw std::invalid_argument("compact_occupancy must be in [0, 1]");
  }
  if (config_.max_arena_chunks != 0) {
    arena_.set_chunk_limit(config_.max_arena_chunks);
  }
  if (!config_.journal_path.empty()) {
    attach_journal(config_.journal_path);
  }
}

template <class Policy>
DynGraph<Policy>::~DynGraph() {
  // The scheduler dies first (it is also the LAST member, but the shutdown
  // snapshot below must run after it): queued submissions reject with
  // SubmitRejected{kShutdown} and the conductor joins, so no Ops callback
  // can mutate during the snapshot write or member teardown.
  scheduler_ptr_.store(nullptr, std::memory_order_release);
  scheduler_.reset();
  if (!config_.snapshot_on_shutdown.empty()) {
    try {
      persist::snapshot(*this, config_.snapshot_on_shutdown);
    } catch (...) {
      // Best-effort by contract (GraphConfig::snapshot_on_shutdown):
      // destructors must not throw, and write-to-temp + rename means a
      // failed write leaves any previous snapshot intact.
    }
  }
}

// --------------------------------------------------------------------------
// Durability hooks (src/persist/): the write-ahead journal records every
// committed mutation batch; snapshots ride the analytics phase machinery.
// --------------------------------------------------------------------------

template <class Policy>
void DynGraph<Policy>::attach_journal(const std::string& path) {
  if (journal_) {
    throw std::logic_error("a journal is already attached to this graph");
  }
  journal_ = std::make_unique<persist::Journal>(
      path, config_.journal_sync, journal_seq());
  advance_journal_seq(journal_->last_seq());
  config_.journal_path = path;
}

template <class Policy>
std::uint64_t DynGraph<Policy>::journal_truncated_on_attach() const noexcept {
  return journal_ ? journal_->truncated_on_open() : 0;
}

template <class Policy>
void DynGraph<Policy>::ensure_journal_usable() const {
  if (journal_) journal_->ensure_usable();
}

template <class Policy>
template <typename EdgeT>
void DynGraph<Policy>::journal_append(std::span<const EdgeT> edges) {
  if (!journal_) return;
  if constexpr (std::is_same_v<EdgeT, WeightedEdge>) {
    advance_journal_seq(journal_->append_insert(edges));
  } else {
    advance_journal_seq(journal_->append_erase(edges));
  }
}

template <class Policy>
template <typename EdgeT>
void DynGraph<Policy>::journal_committed(
    std::span<const EdgeT> edges, const std::vector<Edge>& unapplied) noexcept {
  if (!journal_) return;
  try {
    std::unordered_set<std::uint64_t> skip;
    skip.reserve(unapplied.size());
    for (const Edge& e : unapplied) skip.insert(edge_key(e.src, e.dst));
    std::vector<EdgeT> committed;
    committed.reserve(edges.size());
    for (const EdgeT& e : edges) {
      if (!skip.contains(edge_key(e.src, e.dst))) committed.push_back(e);
    }
    journal_append(std::span<const EdgeT>(committed));
  } catch (...) {
    // Best-effort (see the declaration): the journal poisoned itself, and
    // the caller's PartialBatchError already reports the abort.
  }
}

template <class Policy>
std::future<void> DynGraph<Policy>::submit_snapshot(std::string path) {
  return ensure_scheduler().submit_snapshot(
      [this, path = std::move(path)] { persist::snapshot(*this, path); });
}

template <class Policy>
void DynGraph<Policy>::ensure_vertex(VertexId u, std::uint32_t degree_hint) {
  if (u >= dict_.capacity()) dict_.grow(u + 1);
  if (!dict_.has_table(u)) {
    // "If the connectivity information for a vertex is not available, we
    // construct a hash table with a single bucket" (§III-b).
    const std::uint32_t buckets =
        degree_hint == 0
            ? 1
            : slabhash::buckets_for(degree_hint, config_.load_factor,
                                    Policy::kSlotCapacity);
    const memory::SlabHandle base =
        arena_.allocate_contiguous(buckets, slabhash::kEmptyKey);
    dict_.set_table(u, {base, buckets});
    dict_.set_edge_count(u, 0);
  }
  dict_.set_deleted(u, false);
}

template <class Policy>
void DynGraph<Policy>::prepare_batch(std::span<const WeightedEdge> edges) {
  const VertexId max_id = validate_batch(edges);
  if (max_id >= dict_.capacity()) dict_.grow(max_id + 1);
}

template <class Policy>
void DynGraph<Policy>::insert_vertices(
    std::span<const VertexId> ids, std::span<const std::uint32_t> degree_hints) {
  if (!degree_hints.empty() && degree_hints.size() != ids.size()) {
    throw std::invalid_argument("degree_hints size mismatch");
  }
  if (ids.empty()) return;
  ensure_journal_usable();
  const VertexId max_id = max_vertex_id(ids);
  if (max_id > kMaxVertexId) {
    throw std::invalid_argument("vertex id out of range");
  }
  if (max_id >= dict_.capacity()) dict_.grow(max_id + 1);
  for (std::size_t i = 0; i < ids.size(); ++i) {
    ensure_vertex(ids[i], degree_hints.empty() ? 0 : degree_hints[i]);
  }
  if (journal_) {
    advance_journal_seq(journal_->append_insert_vertices(ids, degree_hints));
  }
}

template <class Policy>
void DynGraph<Policy>::bulk_build(std::span<const WeightedEdge> edges) {
  ensure_journal_usable();
  // Degrees are known a priori in the bulk-build workload: size each table
  // for its true degree and the configured load factor (§V-B1). Undirected
  // edges count toward both endpoints — no mirrored temp batch is built.
  const VertexId max_id = validate_batch(edges);
  if (max_id >= dict_.capacity()) dict_.grow(max_id + 1);
  std::vector<std::uint32_t> degrees(dict_.capacity(), 0);
  std::vector<std::uint8_t> referenced(dict_.capacity(), 0);
  for (const auto& e : edges) {
    if (e.src != e.dst) {
      ++degrees[e.src];
      if (config_.undirected) ++degrees[e.dst];
    }
    referenced[e.src] = 1;
    referenced[e.dst] = 1;
  }
  for (VertexId u = 0; u < dict_.capacity(); ++u) {
    if (referenced[u]) ensure_vertex(u, degrees[u]);
  }
  if (journal_) {
    // Journal the vertex pre-pass so replay reproduces vertex_live for
    // dst-only vertices of a directed build (the edge record alone would
    // only revive sources) — and re-creates the right-sized tables.
    std::vector<VertexId> ref_ids;
    std::vector<std::uint32_t> hints;
    for (VertexId u = 0; u < dict_.capacity(); ++u) {
      if (referenced[u]) {
        ref_ids.push_back(u);
        hints.push_back(degrees[u]);
      }
    }
    advance_journal_seq(journal_->append_insert_vertices(ref_ids, hints));
  }
  mutate_batched(edges);  // stages the mirror direction in place
}

template <class Policy>
std::uint64_t DynGraph<Policy>::insert_edges(std::span<const WeightedEdge> edges) {
  if (edges.empty()) return 0;
  ensure_journal_usable();
  prepare_batch(edges);
  return mutate_batched(edges);
}

// --------------------------------------------------------------------------
// Batch engine (src/core/batch_engine.hpp): stage sharded, group into
// per-(vertex, bucket) runs, walk each run's chain once with the bulk slab
// operations — large batches split into double-buffered epochs whose
// staging overlaps the previous epoch's apply on the shared thread pool.
// --------------------------------------------------------------------------

template <class Policy>
template <typename EdgeT>
std::uint64_t DynGraph<Policy>::mutate_batched(std::span<const EdgeT> edges) {
  constexpr bool kInsert = std::is_same_v<EdgeT, WeightedEdge>;
  constexpr bool kWeights = kInsert && Policy::kHasValues;
  const char* const op = kInsert ? "insert_edges" : "delete_edges";
  // Auto-rehash threshold in live keys per bucket (inserts only; 0 = off).
  const double rehash_keys_per_bucket =
      kInsert ? config_.auto_rehash_chain_slabs * Policy::kSlotCapacity : 0.0;
  std::lock_guard<std::mutex> batch_lock(batch_mutex_);
  rehash_due_.clear();  // notes of an aborted batch are never acted on
  std::uint64_t applied = 0;
  try {
    applied = run_epoch_pipeline(
        edges.size(), config_.undirected ? 2u : 1u,
        config_.pipeline_epoch_edges, config_.stage_shards, &staging_bufs_[0],
        &staging_bufs_[1], pipeline_stats_,
        [&](ShardedStaging& buf, std::uint64_t begin, std::uint64_t end,
            std::uint32_t shards) {
          stage_epoch(buf, shards, StageKind::kMutation, kWeights,
                      [&](std::uint32_t shard, BatchStaging& st) {
                        stage_mutations_shard(
                            edges.subspan(begin, end - begin),
                            config_.undirected, kWeights, config_.hash_seed,
                            shard, shards, dict_, kInsert ? &arena_ : nullptr,
                            st);
                      });
        },
        [&](const BatchStaging& front, bool overlapped) {
          return apply_mutation_runs<typename Policy::Layout>(
              arena_, dict_, front, /*erase=*/!kInsert,
              rehash_keys_per_bucket, rehash_due_, overlapped);
        });
  } catch (PipelineAbort& abort) {
    // Arena exhaustion mid-apply (inserts only: erase never allocates):
    // committed epochs stay applied, counters are exact, and the caller
    // gets the precise unapplied remainder. maybe_auto_rehash is skipped on
    // purpose — rebuilding tables allocates, the one thing the arena just
    // refused to do.
    if (config_.on_pressure) config_.on_pressure();
    std::vector<Edge> unapplied =
        unapplied_from_abort(edges, config_.undirected, abort);
    journal_committed(edges, unapplied);  // the exact committed prefix
    throw PartialBatchError(
        abort.applied_before + abort.epoch.applied, std::move(unapplied),
        std::make_exception_ptr(memory::ArenaExhausted(
            "SlabArena: dynamic slab allocation failed mid-batch")),
        std::string(op) + " aborted: arena exhausted");
  } catch (...) {
    // No per-pair detail: the arena ran dry outside the bulk path
    // (first-touch table creation during insert staging), or a staging job
    // died (e.g. an injected fault). Committed epochs stand; every raw
    // input item from the first uncommitted epoch on is unapplied.
    const bool exhausted = arena_exhausted(std::current_exception());
    if (exhausted && config_.on_pressure) config_.on_pressure();
    std::vector<Edge> unapplied = unapplied_from_epoch(edges, pipeline_stats_);
    journal_committed(edges, unapplied);
    throw PartialBatchError(
        pipeline_stats_.applied_total, std::move(unapplied),
        std::current_exception(),
        std::string(op) + (exhausted ? " aborted: arena exhausted" : " aborted"));
  }
  journal_append(edges);  // write-behind: committed in memory, now durable
  maybe_auto_rehash();
  return applied;
}

template <class Policy>
void DynGraph<Policy>::search_batched(std::span<const Edge> queries,
                                      std::uint8_t* found_out,
                                      Weight* weights_out) const {
  if (found_out != nullptr) {
    std::fill(found_out, found_out + queries.size(), std::uint8_t{0});
  }
  if (weights_out != nullptr) {
    std::fill(weights_out, weights_out + queries.size(), Weight{0});
  }
  if (queries.empty()) return;

  // Queries are phase-concurrent with each other, so each batch pipelines
  // independently through LOCAL staging buffers (the double-buffered
  // members belong to the mutation phase). Staging a slice ahead of the
  // current slice's searches is safe: queries never mutate what staging
  // reads.
  ShardedStaging bufs[2];
  BatchPipelineStats stats;
  run_epoch_pipeline(
      queries.size(), 1u, config_.pipeline_epoch_edges, config_.stage_shards,
      &bufs[0], &bufs[1], stats,
      [&](ShardedStaging& buf, std::uint64_t begin, std::uint64_t end,
          std::uint32_t shards) {
        stage_epoch(buf, shards, StageKind::kQuery, /*gather_values=*/false,
                    [&](std::uint32_t shard, BatchStaging& st) {
                      stage_queries_shard(queries.subspan(begin, end - begin),
                                          config_.hash_seed, shard, shards,
                                          dict_, st,
                                          static_cast<std::uint32_t>(begin));
                    });
      },
      [&](const BatchStaging& front, bool overlapped) {
        search_apply_runs<typename Policy::Layout>(
            arena_, dict_, front, found_out, weights_out, overlapped);
        return std::uint64_t{0};
      });
  {
    std::lock_guard<std::mutex> lock(query_stats_mutex_);
    query_stats_ = stats;
  }
}

// --------------------------------------------------------------------------
// Bulk adjacency gather: the analytics engine's data path. Count pass is
// free (exact Alg. 1/2 degree counters), prefix-sum sizes ONE output
// buffer, and the emit pass walks each requested vertex's chains once with
// one snapshot + SIMD mask per slab — launch_runs chunks the vertices by
// total degree so skewed frontiers balance across the pool.
// --------------------------------------------------------------------------

template <class Policy>
void DynGraph<Policy>::gather_neighbors(std::span<const VertexId> vertices,
                                        std::vector<std::uint64_t>& offsets,
                                        std::vector<VertexId>& neighbors) const {
  const std::uint32_t capacity = dict_.capacity();
  offsets.resize(vertices.size() + 1);
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < vertices.size(); ++i) {
    offsets[i] = total;
    const VertexId u = vertices[i];
    if (u < capacity && dict_.has_table(u)) total += dict_.edge_count(u);
  }
  offsets[vertices.size()] = total;
  neighbors.resize(total);
  gather_emit<typename Policy::Layout>(arena_, dict_, vertices, offsets,
                                       neighbors.data());
}

template <class Policy>
GatherResult DynGraph<Policy>::gather_neighbors(
    std::span<const VertexId> vertices) const {
  GatherResult result;
  gather_neighbors(vertices, result.offsets, result.neighbors);
  return result;
}

// --------------------------------------------------------------------------
// Scheduled mode (src/core/phase_scheduler.hpp): the async submit_* entry
// points route through a per-graph conductor that fences mutation phases
// from query phases and coalesces same-kind submissions. The conductor is
// the serialization point for scheduled mutations; batch_mutex_ stays
// armed for direct synchronous calls and is uncontended under the
// scheduler.
// --------------------------------------------------------------------------

template <class Policy>
PhaseScheduler& DynGraph<Policy>::ensure_scheduler() {
  std::call_once(scheduler_once_, [this] {
    PhaseScheduler::Ops ops;
    ops.insert_edges = [this](std::span<const WeightedEdge> edges) {
      return insert_edges(edges);
    };
    ops.delete_edges = [this](std::span<const Edge> edges) {
      return delete_edges(edges);
    };
    ops.edges_exist = [this](std::span<const Edge> queries,
                             std::uint8_t* out) { edges_exist(queries, out); };
    if constexpr (Policy::kHasValues) {
      ops.edge_weights = [this](std::span<const Edge> queries, Weight* weights,
                                std::uint8_t* found) {
        edge_weights(queries, weights, found);
      };
    }
    PhaseScheduler::Limits limits;
    limits.max_pending_submissions = config_.max_pending_submissions;
    limits.max_pending_edges = config_.max_pending_edges;
    limits.backpressure = config_.backpressure;
    limits.submit_timeout_ms = config_.submit_timeout_ms;
    scheduler_ = std::make_unique<PhaseScheduler>(std::move(ops), limits);
    scheduler_ptr_.store(scheduler_.get(), std::memory_order_release);
  });
  return *scheduler_ptr_.load(std::memory_order_acquire);
}

template <class Policy>
std::future<std::uint64_t> DynGraph<Policy>::submit_insert(
    std::vector<WeightedEdge> edges) {
  return ensure_scheduler().submit_insert(std::move(edges));
}

template <class Policy>
std::future<std::uint64_t> DynGraph<Policy>::submit_erase(
    std::vector<Edge> edges) {
  return ensure_scheduler().submit_erase(std::move(edges));
}

template <class Policy>
std::future<std::vector<std::uint8_t>> DynGraph<Policy>::submit_edges_exist(
    std::vector<Edge> queries, std::uint32_t deadline_ms) {
  return ensure_scheduler().submit_edges_exist(std::move(queries),
                                               deadline_ms);
}

template <class Policy>
std::future<EdgeWeightBatch> DynGraph<Policy>::submit_edge_weights(
    std::vector<Edge> queries, std::uint32_t deadline_ms)
    requires Policy::kHasValues {
  return ensure_scheduler().submit_edge_weights(std::move(queries),
                                                deadline_ms);
}

template <class Policy>
std::future<void> DynGraph<Policy>::submit_analytics(
    std::function<void()> task) {
  return ensure_scheduler().submit_analytics(std::move(task));
}

template <class Policy>
void DynGraph<Policy>::schedule_drain() {
  if (PhaseScheduler* s = scheduler_ptr_.load(std::memory_order_acquire)) {
    s->drain();
  }
}

template <class Policy>
PhaseScheduleStats DynGraph<Policy>::last_schedule_stats() const {
  if (PhaseScheduler* s = scheduler_ptr_.load(std::memory_order_acquire)) {
    return s->stats();
  }
  return {};
}

template <class Policy>
std::uint64_t DynGraph<Policy>::delete_edges(std::span<const Edge> edges) {
  if (edges.empty()) return 0;
  ensure_journal_usable();
  validate_batch(edges);
  return mutate_batched(edges);
}

// --------------------------------------------------------------------------
// Algorithm 2: vertex deletion
// --------------------------------------------------------------------------

template <class Policy>
void DynGraph<Policy>::delete_vertices(std::span<const VertexId> ids) {
  if (ids.empty()) return;
  ensure_journal_usable();
  const std::uint64_t seed = config_.hash_seed;
  const std::uint32_t count = static_cast<std::uint32_t>(ids.size());

  // Serial pre-pass: mark the batch. The `doomed` bitmap (this batch only)
  // drives the cleanup so that stale liveness flags from earlier deletions
  // can never widen it; the persistent flags feed vertex_live().
  std::vector<std::uint8_t> doomed(dict_.capacity(), 0);
  for (VertexId v : ids) {
    if (v < dict_.capacity()) {
      doomed[v] = 1;
      dict_.set_deleted(v, true);
    }
  }

  // Phase 1 — remove the deleted vertices from *other* adjacency lists.
  if (config_.undirected) {
    // Undirected: a vertex's own adjacency list names exactly the tables
    // that reference it (Algorithm 2 lines 11-17). One warp per vertex,
    // claimed from an atomic work queue (lines 2-9) for load balance.
    std::uint32_t queue = 0;
    // One warp per vertex, capped so small batches do not oversubscribe.
    const std::uint32_t num_warps = count < 256u ? count : 256u;
    simt::launch_warps(num_warps, [&](const simt::WarpId&) {
      for (;;) {
        // Lines 3-6: lane 0 claims a queue slot; broadcast to the warp.
        const std::uint32_t queue_id = simt::atomic_add(queue, 1u);
        if (queue_id >= count) return;  // line 7-8
        const VertexId warp_vertex = ids[queue_id];  // line 10
        if (warp_vertex >= dict_.capacity() || !dict_.has_table(warp_vertex)) {
          continue;
        }
        // Lines 11-17: iterate the vertex's slabs; every lane takes one
        // destination and deletes warp_vertex from that neighbour's table.
        auto it = edge_iterator(warp_vertex);
        while (it.next()) {
          for (int lane = 0; lane < it.slots(); ++lane) {
            const std::uint32_t dst = it.key(lane);
            // Empties exist only at the tail of a slab's used region, so
            // the first EMPTY ends this slab (the §IV-C2 invariant).
            if (dst == slabhash::kEmptyKey) break;
            if (dst == slabhash::kTombstoneKey) continue;
            if (dst >= dict_.capacity() || doomed[dst] ||
                !dict_.has_table(dst)) {
              continue;  // neighbour is being deleted too: its table dies anyway
            }
            if (Policy::erase(arena_, dict_.table(dst), warp_vertex, seed)) {
              simt::atomic_sub(dict_.edge_count_word(dst), 1u);
            }
          }
        }
        // Lines 18-22, same warp pass: free this vertex's dynamically
        // allocated slabs (base slabs stay), zero its edge count. Safe here
        // because no other warp touches a doomed vertex's table.
        Policy::clear(arena_, dict_.table(warp_vertex));
        dict_.set_edge_count(warp_vertex, 0);
      }
    });
  } else {
    // Directed: incoming edges are unknown, so run the paper's follow-up
    // sweep — "a follow-up lookup and delete all of the deleted vertices in
    // all of the hash tables" — over every live vertex.
    std::uint32_t queue = 0;
    const std::uint32_t capacity = dict_.capacity();
    simt::launch_warps(256, [&](const simt::WarpId&) {
      for (;;) {
        const std::uint32_t u = simt::atomic_add(queue, 1u);
        if (u >= capacity) return;
        if (!dict_.has_table(u) || doomed[u]) continue;
        const slabhash::TableRef table = dict_.table(u);
        auto it = EdgeSlabIterator<Policy>(arena_, table);
        while (it.next()) {
          for (int lane = 0; lane < it.slots(); ++lane) {
            const std::uint32_t dst = it.key(lane);
            if (dst == slabhash::kEmptyKey) break;  // empties only at tail
            if (dst == slabhash::kTombstoneKey) continue;
            if (dst < capacity && doomed[dst]) {
              if (Policy::erase(arena_, table, dst, seed)) {
                simt::atomic_sub(dict_.edge_count_word(u), 1u);
              }
            }
          }
        }
      }
    });
  }

  // Phase 2 (directed only; the undirected pass cleans per-warp above) —
  // dismantle the deleted vertices' own tables: free dynamically allocated
  // slabs (lines 18-20), keep base slabs ("statically allocated memory is
  // not reclaimed"), zero the edge count (line 22).
  if (!config_.undirected) {
    std::uint32_t queue2 = 0;
    simt::launch_warps(64, [&](const simt::WarpId&) {
      for (;;) {
        const std::uint32_t queue_id = simt::atomic_add(queue2, 1u);
        if (queue_id >= count) return;
        const VertexId v = ids[queue_id];
        if (v >= dict_.capacity() || !dict_.has_table(v)) continue;
        Policy::clear(arena_, dict_.table(v));
        dict_.set_edge_count(v, 0);
      }
    });
  }
  if (journal_) {
    advance_journal_seq(journal_->append_delete_vertices(ids));
  }
}

// --------------------------------------------------------------------------
// Queries
// --------------------------------------------------------------------------

template <class Policy>
bool DynGraph<Policy>::edge_exists(VertexId u, VertexId v) const {
  // No liveness flag checks: Algorithm 2's cleanup guarantees deleted
  // vertices appear in no adjacency list and own an empty table, so the
  // table contents alone answer correctly ("no edge query involving u may
  // have a false positive result").
  if (u >= dict_.capacity() || !dict_.has_table(u)) return false;
  return Policy::contains(arena_, dict_.table(u), v, config_.hash_seed);
}

template <class Policy>
void DynGraph<Policy>::edges_exist(std::span<const Edge> queries,
                                   std::uint8_t* out) const {
  if (queries.empty()) return;
  search_batched(queries, out, /*weights_out=*/nullptr);
}

template <class Policy>
slabhash::MapFindResult DynGraph<Policy>::edge_weight(VertexId u, VertexId v) const
    requires Policy::kHasValues {
  if (u >= dict_.capacity() || !dict_.has_table(u)) return {};
  return Policy::search(arena_, dict_.table(u), v, config_.hash_seed);
}

template <class Policy>
void DynGraph<Policy>::edge_weights(std::span<const Edge> queries,
                                    Weight* weights, std::uint8_t* found) const
    requires Policy::kHasValues {
  if (queries.empty()) return;
  search_batched(queries, found, weights);
}

template <class Policy>
void DynGraph<Policy>::for_each_neighbor(
    VertexId u, const std::function<void(VertexId, Weight)>& fn) const {
  if (u >= dict_.capacity() || !dict_.has_table(u)) return;
  Policy::for_each(arena_, dict_.table(u), fn);
}

// --------------------------------------------------------------------------
// Maintenance & accounting
// --------------------------------------------------------------------------

template <class Policy>
void DynGraph<Policy>::flush_all_tombstones() {
  for (VertexId u = 0; u < dict_.capacity(); ++u) {
    if (dict_.has_table(u)) Policy::flush_tombstones(arena_, dict_.table(u));
  }
}

template <class Policy>
std::uint64_t DynGraph<Policy>::delete_edges_older_than(Weight threshold)
    requires Policy::kHasValues {
  // Weight is unsigned: no stored timestamp is below 0.
  if (threshold == 0) return 0;
  // ts < threshold, strictly — the DynoGraph window convention: an edge AT
  // the threshold survives. The expired set retires as ONE delete_edges
  // batch on the engine pipeline.
  const std::vector<Edge> expired = scan_expired_edges<Policy>(
      arena_, dict_, threshold, config_.undirected);
  if (expired.empty()) return 0;
  return delete_edges(expired);
}

template <class Policy>
std::future<std::uint64_t> DynGraph<Policy>::submit_age_out(Weight threshold)
    requires Policy::kHasValues {
  return ensure_scheduler().submit_maintenance(
      [this, threshold] { return delete_edges_older_than(threshold); });
}

template <class Policy>
std::future<std::uint64_t> DynGraph<Policy>::submit_compact() {
  return ensure_scheduler().submit_maintenance(
      [this] { return std::uint64_t{compact().released_chunks}; });
}

template <class Policy>
std::future<std::uint64_t> DynGraph<Policy>::submit_maintenance(
    std::function<std::uint64_t()> task) {
  return ensure_scheduler().submit_maintenance(std::move(task));
}

// The §III auto-rehash policy: "maintain low-cost metrics per vertex to
// determine the chain-length and periodically perform rehashing if it
// exceeds a given threshold". The metric is the Alg. 1/2 edge counter
// against the table's bucket count: apply noted every source its insert
// pushed past auto_rehash_chain_slabs slabs per bucket, and this rebuilds
// those tables. Runs under batch_mutex_ after the batch committed, so no
// apply or query phase overlaps the rebuilds.
template <class Policy>
void DynGraph<Policy>::maybe_auto_rehash() {
  if (rehash_due_.empty()) return;
  // A source split across apply chunks or epochs is noted more than once;
  // sorting also makes the rebuild (and allocation) order deterministic.
  std::sort(rehash_due_.begin(), rehash_due_.end());
  rehash_due_.erase(std::unique(rehash_due_.begin(), rehash_due_.end()),
                    rehash_due_.end());
  bool rebuilt = false;
  try {
    for (const VertexId u : rehash_due_) {
      rebuilt |= maybe_rehash_table(u, config_.auto_rehash_chain_slabs);
    }
  } catch (const memory::ArenaExhausted&) {
    // Opportunistic maintenance must never fail a batch that already
    // committed: report the pressure and leave the long chains for a
    // roomier moment. A table caught mid-move stays on its old (intact)
    // table — only the abandoned fresh slabs are lost until then.
    if (config_.on_pressure) config_.on_pressure();
  }
  if (rebuilt) ++auto_rehash_count_;
  rehash_due_.clear();
}

template <class Policy>
typename DynGraph<Policy>::CompactStats DynGraph<Policy>::compact() {
  CompactStats s;
  s.chunks_before = arena_.live_chunks();
  // Dead keys would be migrated byte-for-byte; shed them first so shrink
  // sizes from real occupancy and migration copies only live chains.
  flush_all_tombstones();
  // Table shrink. Growth rehash sizes a table for the live count it sees
  // and nothing ever sizes it back down, so under a sliding window every
  // table settles at its PEAK degree and total base memory ratchets up as
  // running maxima drift. Rebuild any table whose live count warrants at
  // most half its current buckets; post-shrink occupancy lands at
  // load_factor, comfortably under the auto-rehash grow trigger, so the
  // half hysteresis prevents ping-pong.
  for (VertexId u = 0; u < dict_.capacity(); ++u) {
    if (!dict_.has_table(u)) continue;
    const slabhash::TableRef table = dict_.table(u);
    if (dict_.edge_count(u) == 0) {
      // Aging emptied this vertex entirely: drop the table instead of
      // keeping a 1-bucket stub forever. Lazy first-touch creation
      // rebuilds it if the vertex re-enters the window, so total base
      // memory tracks the vertices IN the window, not every vertex the
      // stream ever mentioned. (delete_vertices itself still keeps
      // tables — §IV-D2 — reclamation is compact's job alone.)
      Policy::clear(arena_, table);
      arena_.free_contiguous(table.base, table.num_buckets);
      dict_.set_table(u, {memory::kNullSlab, 0});
      ++s.shrunk_tables;
      continue;
    }
    if (table.num_buckets <= 1) continue;
    const std::uint32_t target = slabhash::buckets_for(
        dict_.edge_count(u), config_.load_factor, Policy::kSlotCapacity);
    if (target * 2 > table.num_buckets) continue;
    rebuild_table(u, table, target);
    ++s.shrunk_tables;
  }
  arena_.drain_free_caches();
  // Victim selection: dynamic chunks below the occupancy threshold.
  // (flag vector indexed by chunk, consumed by allocate_avoiding so a
  // migrated slab never lands in another victim).
  const auto occupancy = arena_.dynamic_chunk_occupancy();
  std::uint32_t max_index = 0;
  for (const auto& o : occupancy) max_index = std::max(max_index, o.index);
  std::vector<std::uint8_t> victim(max_index + 1, 0);
  const auto threshold = static_cast<std::uint32_t>(
      config_.compact_occupancy * memory::SlabArena::kChunkSlabs);
  for (const auto& o : occupancy) {
    if (o.used_slabs > 0 && o.used_slabs < threshold) {
      victim[o.index] = 1;
      ++s.victim_chunks;
    }
  }
  if (s.victim_chunks != 0) {
    // Walk every bucket chain; any overflow slab living in a victim chunk
    // is copied into a non-victim chunk and the owning next pointer is
    // rewritten. Base slabs are bulk (never dynamic), so only chain TAILS
    // move — the table refs themselves are untouched.
    for (VertexId u = 0; u < dict_.capacity(); ++u) {
      if (!dict_.has_table(u)) continue;
      const slabhash::TableRef table = dict_.table(u);
      for (std::uint32_t b = 0; b < table.num_buckets; ++b) {
        memory::SlabHandle prev = table.bucket_head(b);
        for (;;) {
          const memory::SlabHandle next = simt::atomic_load(
              arena_.resolve(prev).words[slabhash::kNextPtrWord]);
          if (next == memory::kNullSlab) break;
          const std::uint32_t ci = memory::SlabArena::chunk_index_of(next);
          if (ci < victim.size() && victim[ci] != 0) {
            const memory::SlabHandle moved =
                arena_.allocate_avoiding(slabhash::kEmptyKey, victim);
            const memory::Slab& src = arena_.resolve(next);
            memory::Slab& dst = arena_.resolve(moved);
            for (int w = 0; w < memory::kWordsPerSlab; ++w) {
              dst.words[w] = src.words[w];
            }
            simt::atomic_store(
                arena_.resolve(prev).words[slabhash::kNextPtrWord], moved);
            arena_.free_direct(next);
            ++s.migrated_slabs;
            prev = moved;
          } else {
            prev = next;
          }
        }
      }
    }
  }
  s.released_chunks =
      arena_.release_empty_chunks(config_.compact_keep_free_chunks);
  s.chunks_after = arena_.live_chunks();
  last_compact_stats_ = s;
  return s;
}

template <class Policy>
bool DynGraph<Policy>::maybe_rehash_table(VertexId u, double slabs_per_bucket) {
  if (u >= dict_.capacity() || !dict_.has_table(u)) return false;
  const slabhash::TableRef old_table = dict_.table(u);
  const std::uint32_t live = dict_.edge_count(u);
  const double expected_chain =
      static_cast<double>(live) /
      (static_cast<double>(old_table.num_buckets) * Policy::kSlotCapacity);
  if (expected_chain <= slabs_per_bucket) return false;
  // Build a right-sized table and move the live keys over; the move also
  // sheds tombstones. Only adjacency-list contents move — the dictionary
  // entry is a pointer swap, as in §IV-A1.
  rebuild_table(u, old_table, slabhash::buckets_for(
                                  live, config_.load_factor,
                                  Policy::kSlotCapacity));
  return true;
}

template <class Policy>
void DynGraph<Policy>::rebuild_table(VertexId u,
                                     const slabhash::TableRef& old_table,
                                     std::uint32_t buckets) {
  slabhash::TableRef fresh{
      arena_.allocate_contiguous(buckets, slabhash::kEmptyKey), buckets};
  Policy::copy_live(arena_, old_table, fresh, config_.hash_seed, u);
  Policy::clear(arena_, old_table);  // frees the old overflow chain
  dict_.set_table(u, fresh);
  // The old bucket array has no live references once the dictionary points
  // at the fresh table: return the whole range for reuse. Without this,
  // every rehash leaks one base array and sliding-window churn (aging
  // batches -> tombstoned chains -> auto-rehash) grows bulk memory without
  // bound — the leak micro_stream's steady_chunk_flatness gate watches.
  arena_.free_contiguous(old_table.base, old_table.num_buckets);
}

template <class Policy>
std::uint32_t DynGraph<Policy>::rehash_long_chains(double slabs_per_bucket) {
  if (slabs_per_bucket <= 0.0) {
    throw std::invalid_argument("slabs_per_bucket must be positive");
  }
  std::uint32_t rehashed = 0;
  for (VertexId u = 0; u < dict_.capacity(); ++u) {
    if (maybe_rehash_table(u, slabs_per_bucket)) ++rehashed;
  }
  return rehashed;
}

template <class Policy>
GraphMemoryStats DynGraph<Policy>::memory_stats() const {
  GraphMemoryStats stats;
  for (VertexId u = 0; u < dict_.capacity(); ++u) {
    if (!dict_.has_table(u)) continue;
    const slabhash::TableOccupancy occ = Policy::occupancy(arena_, dict_.table(u));
    stats.live_edges += occ.live_keys;
    stats.tombstones += occ.tombstones;
    stats.slots += occ.slots;
    stats.base_slabs += occ.base_slabs;
    stats.overflow_slabs += occ.overflow_slabs;
  }
  stats.bytes = (stats.base_slabs + stats.overflow_slabs) * sizeof(memory::Slab);
  return stats;
}

template class DynGraph<MapPolicy>;
template class DynGraph<SetPolicy>;

}  // namespace sg::core
