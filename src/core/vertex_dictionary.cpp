#include "src/core/vertex_dictionary.hpp"

#include <bit>
#include <stdexcept>

namespace sg::core {

VertexDictionary::VertexDictionary(std::uint32_t capacity) {
  if (capacity == 0) capacity = 1;
  entries_.assign(capacity, Entry{});
}

void VertexDictionary::grow(std::uint32_t min_capacity) {
  if (min_capacity <= capacity()) return;
  if (min_capacity > kMaxVertexId) {
    throw std::length_error("vertex dictionary capacity overflow");
  }
  const std::uint32_t new_capacity = std::bit_ceil(min_capacity);
  // vector::resize preserves the prefix: this is exactly the shallow
  // pointer copy of §IV-A1 (adjacency storage is untouched).
  entries_.resize(new_capacity, Entry{});
  ++growth_count_;
}

std::uint64_t VertexDictionary::total_edges() const noexcept {
  std::uint64_t total = 0;
  for (const Entry& e : entries_) total += e.edge_count;
  return total;
}

}  // namespace sg::core
