// Maintenance members of DynGraph: the auto-rehash policy, the manual
// rehash sweep, table rebuild and compaction, instantiated here for both
// policies. They stay out of dyn_graph_impl.hpp on purpose: cold code in
// the DynGraph translation unit changes GCC's inlining of the hot staging
// and apply paths (docs/PERF.md "Code placement").
#include <algorithm>
#include <stdexcept>
#include <vector>

#include "src/core/dyn_graph.hpp"
#include "src/simt/atomics.hpp"

namespace sg::core {

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

template void DynGraph<MapPolicy>::maybe_auto_rehash();
template bool DynGraph<MapPolicy>::maybe_rehash_table(VertexId, double);
template void DynGraph<MapPolicy>::rebuild_table(VertexId,
                                                const slabhash::TableRef&,
                                                std::uint32_t);
template std::uint32_t DynGraph<MapPolicy>::rehash_long_chains(double);
template DynGraph<MapPolicy>::CompactStats DynGraph<MapPolicy>::compact();

template void DynGraph<SetPolicy>::maybe_auto_rehash();
template bool DynGraph<SetPolicy>::maybe_rehash_table(VertexId, double);
template void DynGraph<SetPolicy>::rebuild_table(VertexId,
                                                const slabhash::TableRef&,
                                                std::uint32_t);
template std::uint32_t DynGraph<SetPolicy>::rehash_long_chains(double);
template DynGraph<SetPolicy>::CompactStats DynGraph<SetPolicy>::compact();

}  // namespace sg::core
