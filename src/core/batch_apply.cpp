// Stage 3 of the batch engine (batch_engine.hpp): the per-run walks that
// call the slab format's bulk operations, instantiated once per layout.
#include <atomic>
#include <bit>
#include <mutex>
#include <vector>

#include "src/core/batch_engine.hpp"
#include "src/simt/atomics.hpp"
#include "src/simt/grid.hpp"
#include "src/simt/warp.hpp"
#include "src/slabhash/slab_hash.hpp"

namespace sg::core {

template <class Layout>
std::uint64_t apply_mutation_runs(memory::SlabArena& arena,
                                  VertexDictionary& dict,
                                  const BatchStaging& staged, bool erase,
                                  double rehash_keys_per_bucket,
                                  std::vector<VertexId>& rehash_due,
                                  bool overlapped) {
  using Ops = slabhash::SlabOps<Layout>;
  if (staged.runs.empty()) return 0;
  std::atomic<std::uint64_t> total{0};
  // Abort machinery (inserts only — erase never allocates): the first
  // chunk whose bulk op hits arena exhaustion flips the flag; every chunk
  // then stops applying and records its remaining staged pairs instead, so
  // the MutationAbort thrown after the launch carries exactly the pairs
  // that were NOT applied. Counters stay exact throughout: the bulk ops
  // return the precise applied count even on the failing call.
  std::atomic<bool> abort_flag{false};
  std::mutex merge_mutex;  // guards abort_unapplied and rehash_due
  std::vector<Edge> abort_unapplied;
  simt::LaunchConfig launch_cfg;
  // While a staging job shares the pool, smaller chunks let the scheduler
  // interleave the two jobs instead of parking workers on one of them.
  if (overlapped) launch_cfg.chunks_per_worker = 8;
  simt::launch_runs(
      staged.run_offsets,
      [&](std::uint64_t first, std::uint64_t last) {
        std::uint64_t chunk_total = 0;
        VertexId counter_src = 0;
        std::uint32_t counter_delta = 0;
        bool counting = false;
        std::vector<Edge> chunk_unapplied;
        std::vector<VertexId> chunk_rehash;
        // Runs are sorted by source (within a shard's range), so one atomic
        // counter update covers every consecutive run of the same vertex.
        // An insert's update also yields the source's new live count: past
        // the threshold, the source is noted for rebuild.
        const auto flush_counter = [&] {
          if (counting && counter_delta != 0) {
            if (erase) {
              simt::atomic_sub(dict.edge_count_word(counter_src),
                               counter_delta);
            } else {
              const std::uint32_t live =
                  simt::atomic_add(dict.edge_count_word(counter_src),
                                   counter_delta) +
                  counter_delta;
              if (rehash_keys_per_bucket > 0.0 &&
                  static_cast<double>(live) >
                      rehash_keys_per_bucket *
                          dict.table(counter_src).num_buckets) {
                chunk_rehash.push_back(counter_src);
              }
            }
            chunk_total += counter_delta;
          }
          counter_delta = 0;
        };
        simt::pipeline(
            last - first, kRunPrefetchDepth,
            [&](std::uint64_t i) {
              dict.prefetch(staged.runs[first + i].src);
            },
            [&](std::uint64_t i) {
              const QueryRun& run = staged.runs[first + i];
              simt::prefetch_slab(&arena.resolve(
                  dict.table(run.src).bucket_head(run.bucket)));
            },
            [&](std::uint64_t i) {
              const QueryRun& run = staged.runs[first + i];
              const std::uint64_t begin = staged.run_offsets[first + i];
              const std::uint64_t end = staged.run_offsets[first + i + 1];
              if (abort_flag.load(std::memory_order_relaxed)) {
                // A peer chunk aborted: record this run untouched.
                for (std::uint64_t k = begin; k < end; ++k) {
                  chunk_unapplied.push_back(Edge{run.src, staged.keys[k]});
                }
                return;
              }
              if (!counting || run.src != counter_src) {
                flush_counter();
                counter_src = run.src;
                counting = true;
              }
              const auto count = static_cast<std::uint32_t>(end - begin);
              const slabhash::TableRef table = dict.table(run.src);
              if (erase) {
                counter_delta += Ops::bulk_erase(
                    arena, table, run.bucket, staged.keys.data() + begin,
                    count);
              } else {
                slabhash::BulkStatus status;
                counter_delta += Ops::bulk_insert(
                    arena, table, run.bucket, staged.keys.data() + begin,
                    staged.values.empty() ? nullptr
                                          : staged.values.data() + begin,
                    count, run.src, &status);
                if (!status.ok) {
                  // Arena ran dry mid-run. The failure is not a prefix of
                  // the run (see BulkStatus): the failing wave's
                  // still-pending lanes plus every later key went
                  // unapplied.
                  for (std::uint32_t m = status.fail_pending; m; m &= m - 1) {
                    const std::uint64_t k =
                        begin + status.fail_base +
                        static_cast<std::uint32_t>(std::countr_zero(m));
                    chunk_unapplied.push_back(Edge{run.src, staged.keys[k]});
                  }
                  for (std::uint64_t k = begin + status.fail_base +
                                         simt::kWarpSize;
                       k < end; ++k) {
                    chunk_unapplied.push_back(Edge{run.src, staged.keys[k]});
                  }
                  abort_flag.store(true, std::memory_order_relaxed);
                }
              }
            });
        flush_counter();
        if (chunk_total != 0) {
          total.fetch_add(chunk_total, std::memory_order_relaxed);
        }
        if (!chunk_unapplied.empty() || !chunk_rehash.empty()) {
          std::lock_guard<std::mutex> lock(merge_mutex);
          abort_unapplied.insert(abort_unapplied.end(),
                                 chunk_unapplied.begin(),
                                 chunk_unapplied.end());
          rehash_due.insert(rehash_due.end(), chunk_rehash.begin(),
                            chunk_rehash.end());
        }
      },
      launch_cfg);
  if (abort_flag.load(std::memory_order_relaxed)) {
    MutationAbort abort;
    abort.applied = total.load(std::memory_order_relaxed);
    abort.unapplied = std::move(abort_unapplied);
    throw abort;
  }
  return total.load(std::memory_order_relaxed);
}

template <class Layout>
void search_apply_runs(const memory::SlabArena& arena,
                       const VertexDictionary& dict,
                       const BatchStaging& staged, std::uint8_t* found_out,
                       Weight* weights_out, bool overlapped) {
  using Ops = slabhash::SlabOps<Layout>;
  if (staged.runs.empty()) return;
  simt::LaunchConfig launch_cfg;
  // While a staging job shares the pool, smaller chunks let the scheduler
  // interleave the two jobs instead of parking workers on one of them.
  if (overlapped) launch_cfg.chunks_per_worker = 8;
  // Slice-local scratch; chunks write disjoint [run_offsets[first],
  // run_offsets[last]) ranges, so the shared vectors need no locks.
  std::vector<std::uint8_t> found(staged.keys.size());
  std::vector<std::uint32_t> values;
  if (weights_out != nullptr) values.resize(staged.keys.size());
  simt::launch_runs(
      staged.run_offsets,
      [&](std::uint64_t first, std::uint64_t last) {
        simt::pipeline(
            last - first, kRunPrefetchDepth,
            [&](std::uint64_t i) {
              dict.prefetch(staged.runs[first + i].src);
            },
            [&](std::uint64_t i) {
              const QueryRun& run = staged.runs[first + i];
              simt::prefetch_slab(&arena.resolve(
                  dict.table(run.src).bucket_head(run.bucket)));
            },
            [&](std::uint64_t i) {
              const QueryRun& run = staged.runs[first + i];
              const std::uint64_t begin = staged.run_offsets[first + i];
              const std::uint64_t end = staged.run_offsets[first + i + 1];
              const auto count = static_cast<std::uint32_t>(end - begin);
              const slabhash::TableRef table = dict.table(run.src);
              if constexpr (Ops::kHasValues) {
                if (weights_out != nullptr) {
                  Ops::bulk_search_values(arena, table, run.bucket,
                                          staged.keys.data() + begin, count,
                                          found.data() + begin,
                                          values.data() + begin);
                }
              }
              if (!Ops::kHasValues || weights_out == nullptr) {
                Ops::bulk_contains(arena, table, run.bucket,
                                   staged.keys.data() + begin, count,
                                   found.data() + begin);
              }
              for (std::uint64_t q = begin; q < end; ++q) {
                // Scatter to the input position through the staged sequence.
                if (found_out != nullptr) found_out[staged.seqs[q]] = found[q];
                if (weights_out != nullptr && found[q] != 0) {
                  weights_out[staged.seqs[q]] = values[q];
                }
              }
            });
      },
      launch_cfg);
}

template <class Layout>
void gather_emit(const memory::SlabArena& arena, const VertexDictionary& dict,
                 std::span<const VertexId> vertices,
                 std::span<const std::uint64_t> offsets, VertexId* out) {
  using Ops = slabhash::SlabOps<Layout>;
  if (vertices.empty()) return;
  const std::uint32_t capacity = dict.capacity();
  simt::launch_runs(offsets, [&](std::uint64_t first, std::uint64_t last) {
    simt::pipeline(
        last - first, kRunPrefetchDepth,
        [&](std::uint64_t i) { dict.prefetch(vertices[first + i]); },
        [&](std::uint64_t i) {
          const VertexId u = vertices[first + i];
          if (u < capacity && dict.has_table(u)) {
            simt::prefetch_slab(&arena.resolve(dict.table(u).bucket_head(0)));
          }
        },
        [&](std::uint64_t i) {
          const std::uint64_t slot = first + i;
          const std::uint64_t expect = offsets[slot + 1] - offsets[slot];
          if (expect == 0) return;  // unknown / deleted / isolated vertex
          Ops::gather(arena, dict.table(vertices[slot]), out + offsets[slot],
                      static_cast<std::uint32_t>(expect));
        });
  });
}

template std::uint64_t apply_mutation_runs<slabhash::MapLayout>(
    memory::SlabArena&, VertexDictionary&, const BatchStaging&, bool, double,
    std::vector<VertexId>&, bool);
template std::uint64_t apply_mutation_runs<slabhash::SetLayout>(
    memory::SlabArena&, VertexDictionary&, const BatchStaging&, bool, double,
    std::vector<VertexId>&, bool);
template void search_apply_runs<slabhash::MapLayout>(
    const memory::SlabArena&, const VertexDictionary&, const BatchStaging&,
    std::uint8_t*, Weight*, bool);
template void search_apply_runs<slabhash::SetLayout>(
    const memory::SlabArena&, const VertexDictionary&, const BatchStaging&,
    std::uint8_t*, Weight*, bool);
template void gather_emit<slabhash::MapLayout>(
    const memory::SlabArena&, const VertexDictionary&,
    std::span<const VertexId>, std::span<const std::uint64_t>, VertexId*);
template void gather_emit<slabhash::SetLayout>(
    const memory::SlabArena&, const VertexDictionary&,
    std::span<const VertexId>, std::span<const std::uint64_t>, VertexId*);

}  // namespace sg::core
