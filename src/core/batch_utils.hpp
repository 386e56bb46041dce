// Host-side helpers shared by the batched mutation paths: batch validation
// and id range discovery. (Undirected mirroring happens in place on both
// the engine and oracle paths — no mirrored temp vector is ever built.)
#pragma once

#include <cstdint>
#include <span>
#include <stdexcept>
#include <type_traits>

#include "src/core/types.hpp"

namespace sg::core {

/// Largest vertex id referenced by a batch of edges (either endpoint) or
/// of vertex ids; 0 for an empty batch.
template <typename T>
VertexId max_vertex_id(std::span<const T> items) {
  VertexId max_id = 0;
  for (const T& item : items) {
    if constexpr (std::is_same_v<T, VertexId>) {
      if (item > max_id) max_id = item;
    } else {
      if (item.src > max_id) max_id = item.src;
      if (item.dst > max_id) max_id = item.dst;
    }
  }
  return max_id;
}

/// Throws std::invalid_argument if any id exceeds kMaxVertexId (ids that
/// would collide with the slab sentinels are unrepresentable); returns the
/// batch's largest id otherwise.
template <typename EdgeT>
VertexId validate_batch(std::span<const EdgeT> edges) {
  const VertexId max_id = max_vertex_id(edges);
  if (max_id > kMaxVertexId) {
    throw std::invalid_argument("edge batch contains an out-of-range vertex id");
  }
  return max_id;
}

}  // namespace sg::core
