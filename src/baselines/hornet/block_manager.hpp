// Hornet's block memory manager (§II-B): "Hornet divides the allocated
// available memory into blocks that can store a number of edges up to a
// specific power of two. ... For each array of blocks, a B-Tree tracks the
// free and used ones. Memory management is done on the CPU."
//
// We keep one pool per power-of-two size class; free blocks of each class
// are tracked in an ordered (red-black, i.e. B-tree-family) index. Blocks
// hold destination + weight arrays (SoA, Hornet-style).
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <mutex>
#include <set>
#include <utility>

#include "src/core/types.hpp"

namespace sg::baselines::hornet {

/// Handle of one block: size class + index into that class's pool.
struct BlockHandle {
  std::uint8_t size_class = 0;     ///< block capacity = 1 << size_class
  std::uint32_t index = 0;
  bool valid = false;

  std::uint32_t capacity() const noexcept { return 1u << size_class; }
};

class BlockManager {
 public:
  static constexpr int kMaxClass = 24;  ///< up to 16M-edge adjacency lists

  BlockManager() = default;
  BlockManager(const BlockManager&) = delete;
  BlockManager& operator=(const BlockManager&) = delete;

  /// Smallest class whose capacity holds `edges` ("initially an adjacency
  /// list is stored inside the smallest power-of-two memory block that can
  /// contain it").
  static std::uint8_t class_for(std::uint32_t edges) noexcept;

  /// Allocates a block of the given class (reusing a freed one if any).
  /// Thread-safe; management is centralized, like Hornet's CPU-side manager.
  BlockHandle allocate(std::uint8_t size_class);

  void free(BlockHandle handle);

  /// Block storage of `handle`; nullptr for an invalid handle (a vertex
  /// with no block yet), so empty adjacency spans read no pool state.
  core::VertexId* dst(BlockHandle handle) noexcept;
  core::Weight* weight(BlockHandle handle) noexcept;
  const core::VertexId* dst(BlockHandle handle) const noexcept;
  const core::Weight* weight(BlockHandle handle) const noexcept;

  std::uint64_t blocks_in_use() const noexcept { return in_use_; }
  std::uint64_t bytes_reserved() const noexcept { return bytes_reserved_; }

 private:
  /// Pool storage is segmented: segment k holds 2^k blocks and, once
  /// allocated, never moves. allocate() runs while other threads write
  /// through dst()/weight() pointers (HornetGraph::insert_edges grows
  /// vertices in parallel), so growing a pool must not relocate blocks.
  static constexpr int kMaxSegments = 32;
  struct Pool {
    // Block i lives in segment bit_width(i + 1) - 1 (see locate()).
    std::array<std::unique_ptr<core::VertexId[]>, kMaxSegments> dsts;
    std::array<std::unique_ptr<core::Weight[]>, kMaxSegments> weights;
    std::uint32_t next_block = 0;
    std::set<std::uint32_t> free_blocks;  // the "B-Tree" of free blocks
  };
  /// Segment of `handle`'s block and the element offset of the block in it.
  static std::pair<std::size_t, std::size_t> locate(BlockHandle handle) noexcept;

  Pool pools_[kMaxClass + 1];
  mutable std::mutex mutex_;
  std::uint64_t in_use_ = 0;
  std::uint64_t bytes_reserved_ = 0;
};

}  // namespace sg::baselines::hornet
