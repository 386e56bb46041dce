#include "src/shard/batch_router.hpp"

#include <utility>

namespace sg::shard {

namespace {

/// Carves `counts` (per-shard sizes) into the offsets prefix sum and
/// returns the total. `counts` becomes the per-shard write cursors.
template <typename T>
std::uint64_t carve(std::vector<std::uint64_t>& counts, RoutedBatch<T>& out) {
  const std::uint32_t shards = static_cast<std::uint32_t>(counts.size());
  out.offsets.assign(shards + 1, 0);
  std::uint64_t total = 0;
  for (std::uint32_t s = 0; s < shards; ++s) {
    out.offsets[s] = total;
    const std::uint64_t n = counts[s];
    counts[s] = total;  // becomes the emit cursor
    total += n;
  }
  out.offsets[shards] = total;
  return total;
}

/// The one mutation routing body: the mirror is the edge with its
/// endpoints swapped, so an insert's mirror keeps its weight. The count
/// pass records every emission's owner, so the emit pass hashes nothing.
template <typename T>
RoutedBatch<T> route_mutations(std::span<const T> edges, std::uint32_t shards,
                               bool mirror) {
  RoutedBatch<T> out;
  std::vector<std::uint64_t> counts(shards, 0);
  // Per edge: its source's owner, then (mirrored, non-loop) its mirror's.
  const std::size_t stride = mirror ? 2 : 1;
  std::vector<std::uint32_t> owners(edges.size() * stride);
  for (std::size_t i = 0; i < edges.size(); ++i) {
    const T& e = edges[i];
    ++counts[owners[i * stride] = owner_of(e.src, shards)];
    if (mirror && e.src != e.dst) {
      ++counts[owners[i * stride + 1] = owner_of(e.dst, shards)];
    }
  }
  out.items.resize(carve(counts, out));
  for (std::size_t i = 0; i < edges.size(); ++i) {
    const T& e = edges[i];
    out.items[counts[owners[i * stride]]++] = e;
    if (mirror && e.src != e.dst) {
      T& m = out.items[counts[owners[i * stride + 1]]++];
      m = e;
      std::swap(m.src, m.dst);
    }
  }
  return out;
}

}  // namespace

RoutedBatch<core::WeightedEdge> route_inserts(
    std::span<const core::WeightedEdge> edges, std::uint32_t shards,
    bool mirror) {
  return route_mutations(edges, shards, mirror);
}

RoutedBatch<core::Edge> route_erases(std::span<const core::Edge> edges,
                                     std::uint32_t shards, bool mirror) {
  return route_mutations(edges, shards, mirror);
}

RoutedBatch<core::Edge> route_queries(std::span<const core::Edge> queries,
                                      std::uint32_t shards) {
  RoutedBatch<core::Edge> out;
  std::vector<std::uint64_t> counts(shards, 0);
  std::vector<std::uint32_t> owners(queries.size());
  for (std::size_t i = 0; i < queries.size(); ++i) {
    ++counts[owners[i] = owner_of(queries[i].src, shards)];
  }
  const std::uint64_t total = carve(counts, out);
  out.items.resize(total);
  out.seq.resize(total);
  for (std::size_t i = 0; i < queries.size(); ++i) {
    const std::uint64_t slot = counts[owners[i]]++;
    out.items[slot] = queries[i];
    out.seq[slot] = static_cast<std::uint32_t>(i);
  }
  return out;
}

}  // namespace sg::shard
