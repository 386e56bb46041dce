#include "src/baselines/hornet/block_manager.hpp"

#include <bit>
#include <stdexcept>

namespace sg::baselines::hornet {

std::uint8_t BlockManager::class_for(std::uint32_t edges) noexcept {
  if (edges <= 1) return 0;
  return static_cast<std::uint8_t>(std::bit_width(edges - 1));
}

BlockHandle BlockManager::allocate(std::uint8_t size_class) {
  if (size_class > kMaxClass) {
    throw std::length_error("hornet: adjacency list exceeds max block size");
  }
  std::lock_guard<std::mutex> lock(mutex_);
  Pool& pool = pools_[size_class];
  BlockHandle handle;
  handle.size_class = size_class;
  handle.valid = true;
  if (!pool.free_blocks.empty()) {
    handle.index = *pool.free_blocks.begin();
    pool.free_blocks.erase(pool.free_blocks.begin());
  } else {
    handle.index = pool.next_block;
    const std::size_t segment = locate(handle).first;
    if (segment >= kMaxSegments) {
      throw std::length_error("hornet: block pool exhausted");
    }
    ++pool.next_block;
    if (!pool.dsts[segment]) {
      const std::size_t elements = (std::size_t{1} << segment) << size_class;
      pool.dsts[segment] = std::make_unique<core::VertexId[]>(elements);
      pool.weights[segment] = std::make_unique<core::Weight[]>(elements);
    }
    bytes_reserved_ += (sizeof(core::VertexId) + sizeof(core::Weight))
                       << size_class;
  }
  ++in_use_;
  return handle;
}

void BlockManager::free(BlockHandle handle) {
  if (!handle.valid) return;
  std::lock_guard<std::mutex> lock(mutex_);
  pools_[handle.size_class].free_blocks.insert(handle.index);
  --in_use_;
}

std::pair<std::size_t, std::size_t> BlockManager::locate(
    BlockHandle handle) noexcept {
  const std::uint64_t slot = std::uint64_t{handle.index} + 1;
  const std::size_t segment = std::bit_width(slot) - 1;
  const std::size_t block = slot - (std::uint64_t{1} << segment);
  return {segment, block << handle.size_class};
}

core::VertexId* BlockManager::dst(BlockHandle handle) noexcept {
  if (!handle.valid) return nullptr;
  const auto [segment, offset] = locate(handle);
  return pools_[handle.size_class].dsts[segment].get() + offset;
}

core::Weight* BlockManager::weight(BlockHandle handle) noexcept {
  if (!handle.valid) return nullptr;
  const auto [segment, offset] = locate(handle);
  return pools_[handle.size_class].weights[segment].get() + offset;
}

const core::VertexId* BlockManager::dst(BlockHandle handle) const noexcept {
  if (!handle.valid) return nullptr;
  const auto [segment, offset] = locate(handle);
  return pools_[handle.size_class].dsts[segment].get() + offset;
}

const core::Weight* BlockManager::weight(BlockHandle handle) const noexcept {
  if (!handle.valid) return nullptr;
  const auto [segment, offset] = locate(handle);
  return pools_[handle.size_class].weights[segment].get() + offset;
}

}  // namespace sg::baselines::hornet
