// Reference models the correctness gate replays the workloads against.
// Both are deliberately simple and share no code with the library.
#pragma once

#include <algorithm>
#include <cstdint>
#include <deque>
#include <span>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/core/types.hpp"

namespace perfbench {

using sg::core::Edge;
using sg::core::VertexId;
using sg::core::Weight;
using sg::core::WeightedEdge;

/// Open-addressing map from a packed (src, dst) key to a weight: linear
/// probing with backward-shift deletion, so the model's replay costs about
/// one cache miss per operation. Never holds more than half its slots.
class FlatEdgeMap {
 public:
  explicit FlatEdgeMap(std::size_t expected) {
    std::size_t cap = 16;
    while (cap < 2 * expected) cap <<= 1;
    keys_.assign(cap, kEmpty);
    vals_.assign(cap, 0);
  }
  /// Inserts or overwrites; true when the key was new.
  bool put(std::uint64_t k, Weight w) {
    if (2 * (size_ + 1) > keys_.size()) grow();
    std::size_t i = slot(k);
    for (; keys_[i] != kEmpty; i = (i + 1) & mask()) {
      if (keys_[i] == k) {
        vals_[i] = w;
        return false;
      }
    }
    keys_[i] = k;
    vals_[i] = w;
    ++size_;
    return true;
  }
  bool erase(std::uint64_t k) {
    std::size_t i = slot(k);
    for (; keys_[i] != k; i = (i + 1) & mask()) {
      if (keys_[i] == kEmpty) return false;
    }
    // Backward shift: pull later entries of the probe run into the hole.
    for (std::size_t j = (i + 1) & mask(); keys_[j] != kEmpty;
         j = (j + 1) & mask()) {
      const std::size_t home = slot(keys_[j]);
      if (((j - home) & mask()) >= ((j - i) & mask())) {
        keys_[i] = keys_[j];
        vals_[i] = vals_[j];
        i = j;
      }
    }
    keys_[i] = kEmpty;
    --size_;
    return true;
  }
  const Weight* find(std::uint64_t k) const {
    for (std::size_t i = slot(k); keys_[i] != kEmpty; i = (i + 1) & mask()) {
      if (keys_[i] == k) return &vals_[i];
    }
    return nullptr;
  }
  std::size_t size() const noexcept { return size_; }

 private:
  static constexpr std::uint64_t kEmpty = ~std::uint64_t{0};
  std::size_t mask() const noexcept { return keys_.size() - 1; }
  std::size_t slot(std::uint64_t k) const noexcept {
    k ^= k >> 33;
    k *= 0xff51afd7ed558ccdULL;
    k ^= k >> 33;
    return static_cast<std::size_t>(k) & mask();
  }
  void grow() {
    std::vector<std::uint64_t> keys(keys_.size() * 2, kEmpty);
    std::vector<Weight> vals(keys_.size() * 2, 0);
    keys.swap(keys_);
    vals.swap(vals_);
    size_ = 0;
    for (std::size_t i = 0; i < keys.size(); ++i) {
      if (keys[i] != kEmpty) put(keys[i], vals[i]);
    }
  }

  std::vector<std::uint64_t> keys_;
  std::vector<Weight> vals_;
  std::size_t size_ = 0;
};

/// Hash-map model of a directed edge map. Batch semantics follow DynGraph:
/// self-loops are dropped, the last occurrence of a duplicate wins, insert
/// returns new unique edges and erase returns edges actually removed. Split
/// into `parts` independent maps by src % parts so a replay can run one
/// part per thread; part p only ever sees its sources.
class EdgeMapModel {
 public:
  EdgeMapModel(std::uint32_t num_vertices, std::uint32_t part,
               std::uint32_t parts, std::size_t expected_edges)
      : part_(part),
        parts_(parts),
        map_(expected_edges / parts + 1),
        degree_(num_vertices, 0) {}

  bool owns(VertexId u) const noexcept { return u % parts_ == part_; }

  /// Applies the owned edges of `batch`; returns new edges added.
  std::uint64_t insert(std::span<const WeightedEdge> batch) {
    std::uint64_t added = 0;
    for (const WeightedEdge& e : batch) {
      if (e.src == e.dst || !owns(e.src)) continue;
      if (map_.put(key(e.src, e.dst), e.weight)) {
        ++degree_[e.src];
        ++added;
      }
    }
    return added;
  }
  /// Erases the owned edges of `batch`; returns edges removed.
  std::uint64_t erase(std::span<const Edge> batch) {
    std::uint64_t removed = 0;
    for (const Edge& e : batch) {
      if (owns(e.src) && map_.erase(key(e.src, e.dst))) {
        --degree_[e.src];
        ++removed;
      }
    }
    return removed;
  }
  bool contains(VertexId u, VertexId v) const {
    return map_.find(key(u, v)) != nullptr;
  }
  /// Weight of a live edge, or nothing.
  const Weight* find(VertexId u, VertexId v) const {
    return map_.find(key(u, v));
  }
  std::uint32_t degree(VertexId u) const { return degree_[u]; }
  std::uint64_t size() const noexcept { return map_.size(); }

 private:
  static std::uint64_t key(VertexId u, VertexId v) {
    return (std::uint64_t{u} << 32) | v;
  }
  std::uint32_t part_, parts_;
  FlatEdgeMap map_;
  std::vector<std::uint32_t> degree_;
};

/// Sliding-window model of a timestamped stream (weight = timestamp):
/// newest timestamp wins on re-insertion, aging retires ts < threshold.
class WindowModel {
 public:
  void insert(std::span<const WeightedEdge> batch) {
    for (const WeightedEdge& e : batch) {
      if (e.src == e.dst) continue;
      const std::uint64_t k = key(e.src, e.dst);
      Weight& ts = live_[k];
      ts = std::max(ts, e.weight);
      arrivals_.emplace_back(k, e.weight);
    }
  }
  void age_out(Weight threshold) {
    while (!arrivals_.empty() && arrivals_.front().second < threshold) {
      const auto [k, ts] = arrivals_.front();
      arrivals_.pop_front();
      const auto it = live_.find(k);
      if (it != live_.end() && it->second == ts) live_.erase(it);
    }
  }
  bool contains(VertexId u, VertexId v) const {
    return live_.count(key(u, v)) != 0;
  }
  /// Timestamp of a live edge, or nothing.
  const Weight* find(VertexId u, VertexId v) const {
    const auto it = live_.find(key(u, v));
    return it == live_.end() ? nullptr : &it->second;
  }
  std::uint64_t size() const noexcept { return live_.size(); }
  /// Live adjacency lists (for the scalar BFS reference).
  std::vector<std::vector<VertexId>> adjacency(std::uint32_t n) const {
    std::vector<std::vector<VertexId>> out(n);
    for (const auto& [k, ts] : live_) {
      out[k >> 32].push_back(static_cast<VertexId>(k));
    }
    return out;
  }

 private:
  static std::uint64_t key(VertexId u, VertexId v) {
    return (std::uint64_t{u} << 32) | v;
  }
  std::unordered_map<std::uint64_t, Weight> live_;
  std::deque<std::pair<std::uint64_t, Weight>> arrivals_;
};

}  // namespace perfbench
