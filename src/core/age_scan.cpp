#include "src/core/age_scan.hpp"

#include <algorithm>
#include <cstdint>
#include <mutex>
#include <utility>

#include "src/simt/grid.hpp"
#include "src/simt/warp.hpp"

namespace sg::core {

template <class Policy>
std::vector<Edge> scan_expired_edges(const memory::SlabArena& arena,
                                     const VertexDictionary& dict,
                                     Weight threshold, bool undirected) {
  std::vector<VertexId> live;
  std::vector<std::uint64_t> offsets{0};
  for (VertexId u = 0; u < dict.capacity(); ++u) {
    if (!dict.has_table(u) || dict.deleted(u) || dict.edge_count(u) == 0) {
      continue;
    }
    live.push_back(u);
    offsets.push_back(offsets.back() + dict.edge_count(u));
  }
  // Each chunk collects its expired edges locally, so scratch grows with
  // what expires (plus one adjacency list of keys), not with the window.
  std::vector<std::pair<std::uint64_t, std::vector<Edge>>> parts;
  std::mutex parts_mutex;
  simt::launch_runs(offsets, [&](std::uint64_t first, std::uint64_t last) {
    std::vector<Edge> expired;
    std::vector<VertexId> keys;
    simt::pipeline(
        last - first, kRunPrefetchDepth,
        [&](std::uint64_t i) { dict.prefetch(live[first + i]); },
        [&](std::uint64_t i) {
          simt::prefetch_slab(
              &arena.resolve(dict.table(live[first + i]).bucket_head(0)));
        },
        [&](std::uint64_t i) {
          const VertexId u = live[first + i];
          keys.resize(offsets[first + i + 1] - offsets[first + i]);
          const std::uint32_t n = Policy::scan_below(
              arena, dict.table(u), threshold, keys.data(),
              static_cast<std::uint32_t>(keys.size()));
          for (std::uint32_t k = 0; k < n; ++k) {
            if (undirected && u > keys[k]) continue;
            expired.push_back(Edge{u, keys[k]});
          }
        });
    std::lock_guard<std::mutex> lock(parts_mutex);
    parts.emplace_back(first, std::move(expired));
  });
  std::sort(parts.begin(), parts.end(), [](const auto& a, const auto& b) {
    return a.first < b.first;
  });
  std::vector<Edge> expired;
  for (const auto& part : parts) {
    expired.insert(expired.end(), part.second.begin(), part.second.end());
  }
  return expired;
}

template std::vector<Edge> scan_expired_edges<MapPolicy>(
    const memory::SlabArena&, const VertexDictionary&, Weight, bool);

}  // namespace sg::core
