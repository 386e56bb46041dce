#include "src/core/batch_engine.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <chrono>
#include <stdexcept>
#include <string>
#include <type_traits>

#include "src/simt/thread_pool.hpp"
#include "src/util/fault_injection.hpp"

namespace sg::core {

void BatchStaging::group_prepare(bool dedup) {
  dedup_ = dedup;
  // Pass 1a: stable radix sort by the packed (vertex, bucket) word, with
  // the digit-skip masks accumulated during staging (sharded stagings have
  // shard-constant low vertex bits, which vanish from the passes). The low
  // word (key, sequence) is untouched, so within a group the staged order
  // — and with it most-recent-wins — survives.
  sort::radix_sort_hi(std::span<sort::U128>(order_), scratch_, hi_or_, hi_and_);
  const std::size_t n = order_.size();
  grouped_runs_ = 0;
  grouped_keys_ = 0;
  duplicates = 0;
  // Pass 1b: cut groups, sort each group's low word — almost every group
  // is a single query, so this costs a compare, not a sort — and COUNT
  // what the emit pass will produce. The per-group order established here
  // persists in order_, so pass 2 is a pure scan-and-write.
  for (std::size_t begin = 0; begin < n;) {
    const std::uint64_t hi = order_[begin].hi;
    std::size_t end = begin + 1;
    while (end < n && order_[end].hi == hi) ++end;
    if (end - begin > 1) {
      std::sort(order_.begin() + static_cast<std::ptrdiff_t>(begin),
                order_.begin() + static_cast<std::ptrdiff_t>(end),
                [](const sort::U128& a, const sort::U128& b) {
                  return a.lo < b.lo;  // (key, sequence) ascending
                });
    }
    ++grouped_runs_;
    for (std::size_t i = begin; i < end; ++i) {
      if (dedup && i + 1 < end &&
          static_cast<std::uint32_t>(order_[i + 1].lo >> 32) ==
              static_cast<std::uint32_t>(order_[i].lo >> 32)) {
        ++duplicates;  // a later occurrence follows: it wins
        continue;
      }
      ++grouped_keys_;
    }
    begin = end;
  }
}

void BatchStaging::group_emit(bool gather_values, bool gather_seqs,
                              BatchStaging& dst, std::uint64_t key_base,
                              std::uint64_t run_base) const {
  const std::size_t n = order_.size();
  std::uint64_t key = key_base;
  std::uint64_t run = run_base;
  for (std::size_t begin = 0; begin < n;) {
    const std::uint64_t hi = order_[begin].hi;
    std::size_t end = begin + 1;
    while (end < n && order_[end].hi == hi) ++end;
    dst.runs[run] = {static_cast<VertexId>(hi >> kBucketBits),
                     static_cast<std::uint32_t>(hi & ((1u << kBucketBits) - 1u))};
    dst.run_offsets[run] = key;
    ++run;
    for (std::size_t i = begin; i < end; ++i) {
      const std::uint32_t k = static_cast<std::uint32_t>(order_[i].lo >> 32);
      if (dedup_ && i + 1 < end &&
          static_cast<std::uint32_t>(order_[i + 1].lo >> 32) == k) {
        continue;  // a later occurrence follows: it wins
      }
      const std::uint32_t seq = static_cast<std::uint32_t>(order_[i].lo);
      dst.keys[key] = k;
      if (gather_seqs) dst.seqs[key] = seq;
      if (gather_values) dst.values[key] = weights_[seq];
      ++key;
    }
    begin = end;
  }
  assert(run == run_base + grouped_runs_ && key == key_base + grouped_keys_ &&
         "two-pass invariant: emit must place exactly what prepare counted");
}

void BatchStaging::group(bool dedup, bool gather_values, bool gather_seqs) {
  // Fused single-pass grouping for stagings that need no cross-shard
  // assembly (the lone-shard pipeline path): sort, then cut + emit in one
  // scan. Sharded stagings use group_prepare + group_emit instead, so the
  // counting pass is only ever paid where the counts buy a zero-copy
  // global placement.
  dedup_ = dedup;
  sort::radix_sort_hi(std::span<sort::U128>(order_), scratch_, hi_or_, hi_and_);
  const std::size_t n = order_.size();
  keys.reserve(n);
  if (gather_seqs) seqs.reserve(n);
  if (gather_values) values.reserve(n);
  for (std::size_t begin = 0; begin < n;) {
    const std::uint64_t hi = order_[begin].hi;
    std::size_t end = begin + 1;
    while (end < n && order_[end].hi == hi) ++end;
    if (end - begin > 1) {
      std::sort(order_.begin() + static_cast<std::ptrdiff_t>(begin),
                order_.begin() + static_cast<std::ptrdiff_t>(end),
                [](const sort::U128& a, const sort::U128& b) {
                  return a.lo < b.lo;  // (key, sequence) ascending
                });
    }
    runs.push_back(
        {static_cast<VertexId>(hi >> kBucketBits),
         static_cast<std::uint32_t>(hi & ((1u << kBucketBits) - 1u))});
    run_offsets.push_back(keys.size());
    for (std::size_t i = begin; i < end; ++i) {
      const std::uint32_t key = static_cast<std::uint32_t>(order_[i].lo >> 32);
      if (dedup && i + 1 < end &&
          static_cast<std::uint32_t>(order_[i + 1].lo >> 32) == key) {
        ++duplicates;  // a later occurrence follows: it wins
        continue;
      }
      const std::uint32_t seq = static_cast<std::uint32_t>(order_[i].lo);
      keys.push_back(key);
      if (gather_seqs) seqs.push_back(seq);
      if (gather_values) values.push_back(weights_[seq]);
    }
    begin = end;
  }
  run_offsets.push_back(keys.size());
  grouped_runs_ = runs.size();
  grouped_keys_ = keys.size();
}

void BatchStaging::check_partition(std::uint32_t shard,
                                   std::uint32_t num_shards) const {
  for (const sort::U128& rec : order_) {
    const VertexId src = static_cast<VertexId>(rec.hi >> kBucketBits);
    if (shard_of_vertex(src, num_shards) != shard) {
      throw std::logic_error(
          "BatchStaging: staged query crossed its shard's vertex partition "
          "(vertex " +
          std::to_string(src) + " staged by shard " + std::to_string(shard) +
          " of " + std::to_string(num_shards) + ")");
    }
  }
}

void ShardedStaging::validate_partition() const {
  // The dedup-determinism guard: shard s may only stage vertices it owns.
  // A violation means two shards could each hold occurrences of the same
  // (vertex, key) and per-shard dedup would no longer be most-recent-wins
  // across the whole batch — impossible by construction of the staging
  // filters, and checked here (debug builds) so it stays impossible.
  const std::uint32_t num_shards = shard_count();
  if (num_shards <= 1) return;
  for (std::uint32_t s = 0; s < num_shards; ++s) {
    shards_[s].check_partition(s, num_shards);
  }
}

void ShardedStaging::finalize(bool gather_values, bool gather_seqs) {
#ifndef NDEBUG
  validate_partition();
#endif
  const std::uint32_t num_shards = shard_count();
  if (num_shards <= 1) {
    // front() aliases the lone shard, which grouped through the fused
    // single-pass group(): nothing to assemble.
    return;
  }
  // Pass 2 of the two-pass (count, then place) scheme: prefix-sum the
  // per-shard counts into disjoint slices and let every shard emit its own
  // output directly into its slice — in parallel, with no driver copy.
  // Slices are element-disjoint, so the concurrent writes need no
  // synchronization; the pool's job fence publishes them to the reader.
  std::vector<std::uint64_t> key_base(num_shards);
  std::vector<std::uint64_t> run_base(num_shards);
  std::uint64_t total_keys = 0;
  std::uint64_t total_runs = 0;
  for (std::uint32_t s = 0; s < num_shards; ++s) {
    key_base[s] = total_keys;
    run_base[s] = total_runs;
    total_keys += shards_[s].grouped_keys();
    total_runs += shards_[s].grouped_runs();
  }
  merged_.clear();
  merged_.keys.resize(total_keys);
  if (gather_values) merged_.values.resize(total_keys);
  if (gather_seqs) merged_.seqs.resize(total_keys);
  merged_.runs.resize(total_runs);
  merged_.run_offsets.resize(total_runs + 1);
  simt::ThreadPool::instance().parallel_for(num_shards, [&](std::uint64_t s) {
    shards_[s].group_emit(gather_values, gather_seqs, merged_, key_base[s],
                          run_base[s]);
  });
  merged_.run_offsets[total_runs] = total_keys;
}

// ---------------------------------------------------------------------------
// Stage 1
// ---------------------------------------------------------------------------

namespace {

/// The source's table for stage 1. kInsert: the insert lookup, which
/// creates a one-bucket table and revives a deleted source. Otherwise the
/// read-only lookup, which returns an invalid ref for unknown sources.
template <bool kInsert>
slabhash::TableRef stage_table(VertexDictionary& dict, memory::SlabArena* arena,
                               VertexId u) {
  if constexpr (!kInsert) {
    return u < dict.capacity() && dict.has_table(u) ? dict.table(u)
                                                    : slabhash::TableRef{};
  } else {
    if (!dict.has_table(u)) {
      const memory::SlabHandle base =
          arena->allocate_contiguous(1, slabhash::kEmptyKey);
      dict.set_table(u, {base, 1});
      dict.set_edge_count(u, 0);
    }
    if (dict.deleted(u)) dict.set_deleted(u, false);  // source revival
    return dict.table(u);
  }
}

/// stage_mutations_shard's loop with the lookup mode fixed at compile
/// time, so the read-only (erase) loop carries no table-creation code:
/// a per-item mode test measurably slowed the sharded erase stage
/// (docs/PERF.md, "Stage 1 and the epoch driver compiled once").
template <bool kInsert, typename EdgeT>
void stage_mutations(std::span<const EdgeT> edges, bool undirected,
                     bool keep_weights, std::uint64_t seed,
                     std::uint32_t shard, std::uint32_t num_shards,
                     VertexDictionary& dict, memory::SlabArena* arena,
                     BatchStaging& st) {
  st.clear();
  st.reserve(edges.size() * (undirected ? 2 : 1) / num_shards + 16,
             keep_weights);
  const auto owned = [&](VertexId u) {
    return shard_of_vertex(u, num_shards) == shard;
  };
  const auto stage = [&](VertexId src, VertexId dst, Weight weight) {
    const slabhash::TableRef table = stage_table<kInsert>(dict, arena, src);
    if (table.valid()) {
      st.push_weighted(src, dst, weight, table, seed, keep_weights);
    } else {
      ++st.dropped;
    }
  };
  const std::size_t n = edges.size();
  for (std::size_t i = 0; i < n; ++i) {
    if (i + kStagePrefetchDistance < n) {
      const EdgeT& ahead = edges[i + kStagePrefetchDistance];
      if (owned(ahead.src)) dict.prefetch(ahead.src);
      if (undirected && owned(ahead.dst)) dict.prefetch(ahead.dst);
    }
    const EdgeT& e = edges[i];
    if (e.src == e.dst) {  // self-loops drop (Algorithm 1 line 3)
      if (owned(e.src)) ++st.dropped;
      continue;
    }
    Weight weight = 0;
    if constexpr (std::is_same_v<EdgeT, WeightedEdge>) weight = e.weight;
    if (owned(e.src)) stage(e.src, e.dst, weight);
    // The mirror is staged in place by the shard owning the reverse source.
    if (undirected && owned(e.dst)) stage(e.dst, e.src, weight);
  }
}

}  // namespace

template <typename EdgeT>
void stage_mutations_shard(std::span<const EdgeT> edges, bool undirected,
                           bool keep_weights, std::uint64_t seed,
                           std::uint32_t shard, std::uint32_t num_shards,
                           VertexDictionary& dict, memory::SlabArena* arena,
                           BatchStaging& st) {
  if (arena != nullptr) {
    stage_mutations<true>(edges, undirected, keep_weights, seed, shard,
                          num_shards, dict, arena, st);
  } else {
    stage_mutations<false>(edges, undirected, keep_weights, seed, shard,
                           num_shards, dict, arena, st);
  }
}

template void stage_mutations_shard<Edge>(std::span<const Edge>, bool, bool,
                                          std::uint64_t, std::uint32_t,
                                          std::uint32_t, VertexDictionary&,
                                          memory::SlabArena*, BatchStaging&);
template void stage_mutations_shard<WeightedEdge>(
    std::span<const WeightedEdge>, bool, bool, std::uint64_t, std::uint32_t,
    std::uint32_t, VertexDictionary&, memory::SlabArena*, BatchStaging&);

void stage_queries_shard(std::span<const Edge> queries, std::uint64_t seed,
                         std::uint32_t shard, std::uint32_t num_shards,
                         const VertexDictionary& dict, BatchStaging& st,
                         std::uint32_t seq_base) {
  st.clear();
  st.reserve(queries.size() / num_shards + 16, false);
  const std::size_t n = queries.size();
  for (std::size_t i = 0; i < n; ++i) {
    if (i + kStagePrefetchDistance < n) {
      const VertexId ahead = queries[i + kStagePrefetchDistance].src;
      if (shard_of_vertex(ahead, num_shards) == shard) dict.prefetch(ahead);
    }
    const Edge& q = queries[i];
    if (shard_of_vertex(q.src, num_shards) != shard) continue;
    if (q.src < dict.capacity() && dict.has_table(q.src)) {
      st.push_seq(q.src, q.dst, dict.table(q.src), seed,
                  seq_base + static_cast<std::uint32_t>(i));
    } else {
      ++st.dropped;  // unknown source: the caller's output stays 0
    }
  }
}

// ---------------------------------------------------------------------------
// The epoch driver
// ---------------------------------------------------------------------------

namespace {

/// Steady-clock nanoseconds (the pipeline window timestamps).
std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Stage shards for `items` staged queries (a power of two): a nonzero
/// `stage_shards` is rounded up; zero picks one per pool worker, capped so
/// each shard stages a worthwhile slice — every shard scans the whole
/// input, so slicing a small batch N ways costs more in duplicate scanning
/// than the parallel sort returns.
std::uint32_t stage_shard_count(std::uint32_t stage_shards,
                                std::uint64_t items) {
  std::uint32_t shards = stage_shards;
  if (shards == 0) {
    const unsigned workers = simt::ThreadPool::instance().size();
    shards = workers > 1 ? std::bit_ceil(workers) : 1u;
    // Auto mode: each shard re-scans the whole input, so don't slice a
    // batch thinner than ~16K staged queries per shard.
    constexpr std::uint64_t kMinItemsPerShard = 16384;
    while (shards > 1 && items / shards < kMinItemsPerShard) shards /= 2;
  } else {
    shards = std::bit_ceil(shards);
  }
  return shards > kMaxStageShards ? kMaxStageShards : shards;
}

}  // namespace

void stage_epoch(ShardedStaging& buf, std::uint32_t shards, StageKind kind,
                 bool gather_values, const ShardStageStep& stage_shard) {
  const bool mutation = kind == StageKind::kMutation;
  if (mutation) {
    SG_FAULT_DELAY(kStageJob);
    if (SG_FAULT_FIRE(kStageJob)) {
      throw std::runtime_error("slabgraph: injected stage-job fault");
    }
  }
  const std::int64_t t0 = now_ns();
  // Stage + group every shard in parallel (two-pass count/place when
  // sharded, fused single-pass otherwise), then finalize the shard outputs
  // into the one run list apply consumes — merge-free, so NO work is left
  // for the fence bubble.
  simt::ThreadPool::instance().parallel_for(shards, [&](std::uint64_t s) {
    BatchStaging& st = buf.shard(static_cast<std::uint32_t>(s));
    stage_shard(static_cast<std::uint32_t>(s), st);
    if (shards == 1) {
      st.group(/*dedup=*/mutation, gather_values, /*gather_seqs=*/!mutation);
    } else {
      st.group_prepare(/*dedup=*/mutation);
    }
  });
  buf.finalize(gather_values, /*gather_seqs=*/!mutation);
  buf.window_note(t0, now_ns());
}

std::uint64_t run_epoch_pipeline(std::uint64_t num_items,
                                 std::uint32_t stage_items_factor,
                                 std::uint32_t pipeline_epoch_edges,
                                 std::uint32_t stage_shards,
                                 ShardedStaging* cur, ShardedStaging* nxt,
                                 BatchPipelineStats& stats,
                                 const EpochStageStep& stage,
                                 const EpochApplyStep& apply) {
  stats = {};
  if (num_items == 0) return 0;
  auto& pool = simt::ThreadPool::instance();

  // Epoch plan: auto mode pipelines only when spare threads exist and the
  // batch is large enough to amortize the split; an explicit epoch size
  // always splits (tests drive the degenerate inline pipeline through it).
  std::uint64_t epoch_items;
  bool split;
  if (pipeline_epoch_edges != 0) {
    epoch_items = pipeline_epoch_edges;
    split = num_items > epoch_items;
  } else {
    epoch_items = std::uint64_t{1} << 15;
    split = pool.size() > 0 && num_items > epoch_items + epoch_items / 2;
  }
  if (!split) epoch_items = num_items;
  const std::uint64_t num_epochs = (num_items + epoch_items - 1) / epoch_items;
  // Shards sized to one epoch's staged queries (each epoch stages anew).
  const std::uint32_t shards =
      stage_shard_count(stage_shards, epoch_items * stage_items_factor);

  stats.epochs = static_cast<std::uint32_t>(num_epochs);
  stats.shards = shards;
  stats.epoch_items = epoch_items;
  cur->resize(shards);
  nxt->resize(shards);

  // Epoch 0 stages synchronously (nothing to overlap with yet). Later
  // epochs stage as a single-chunk background job whose nested
  // parallel_for shares the pool with apply — staging an epoch early is
  // safe because apply never changes what staging reads: bucket counts,
  // table handles, and liveness of vertices the earlier epoch did not
  // create. A pool with no workers runs the job inline at submit: the
  // degenerate (serial) pipeline.
  {
    const std::int64_t t0 = now_ns();
    stage(*cur, 0, epoch_items < num_items ? epoch_items : num_items, shards);
    stats.stage_seconds += static_cast<double>(now_ns() - t0) * 1e-9;
  }

  std::uint64_t total = 0;
  for (std::uint64_t e = 0; e < num_epochs; ++e) {
    simt::ThreadPool::JobHandle job;
    const std::uint64_t next_begin = (e + 1) * epoch_items;
    if (next_begin < num_items) {
      const std::uint64_t next_end =
          next_begin + epoch_items < num_items ? next_begin + epoch_items
                                               : num_items;
      job = pool.submit(1, [&stage, nxt, next_begin, next_end,
                            shards](std::uint64_t) {
        stage(*nxt, next_begin, next_end, shards);
      });
    }
    const std::int64_t apply_begin = now_ns();
    try {
      total += apply(cur->front(), /*overlapped=*/job != nullptr);
    } catch (MutationAbort& abort) {
      // The apply stage died mid-epoch (arena exhaustion / injected
      // fault). Wait out the staging job, then hand the caller the failing
      // epoch's exact outcome plus its input bounds so it can extend the
      // unapplied set with every later epoch's raw input.
      if (job) {
        try {
          pool.wait(job);
        } catch (...) {
        }
      }
      const std::uint64_t end_item =
          next_begin < num_items ? next_begin : num_items;
      throw PipelineAbort{std::move(abort), e * epoch_items, end_item, total};
    } catch (...) {
      if (job) {
        try {
          pool.wait(job);  // never unwind past an in-flight staging job
        } catch (...) {
        }
      }
      throw;
    }
    const std::int64_t apply_end = now_ns();
    ++stats.epochs_applied;
    stats.applied_total = total;
    stats.apply_seconds += static_cast<double>(apply_end - apply_begin) * 1e-9;
    if (job) {
      pool.wait(job);  // the epoch fence: stage(e+1) committed, apply(e) done
      const std::int64_t stage_begin = nxt->window_begin_ns();
      const std::int64_t stage_end = nxt->window_end_ns();
      if (stage_end > stage_begin) {
        stats.stage_seconds +=
            static_cast<double>(stage_end - stage_begin) * 1e-9;
        const std::int64_t lo =
            stage_begin > apply_begin ? stage_begin : apply_begin;
        const std::int64_t hi = stage_end < apply_end ? stage_end : apply_end;
        if (hi > lo) {
          stats.overlap_seconds += static_cast<double>(hi - lo) * 1e-9;
        }
      }
      std::swap(cur, nxt);
    }
  }
  return total;
}

}  // namespace sg::core
