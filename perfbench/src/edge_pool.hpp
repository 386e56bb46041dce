// Deterministic input source of the mutation workloads: tracks which
// dataset edges are in the graph, so deletions always hit, half the
// queries are known hits, and "new" inserts are really new. Half of the
// (shuffled) dataset starts present as the preload; the rest, plus every
// edge erased later, queues up as the source of new edges, so a workload
// that erases as many edges as it adds holds the graph at a steady size.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <vector>

#include "src/core/types.hpp"
#include "src/datasets/coo.hpp"
#include "src/util/prng.hpp"

namespace perfbench {

class EdgePool {
 public:
  EdgePool(const sg::datasets::Coo& coo, std::uint64_t seed)
      : rng_(sg::util::mix64(seed ^ 0xB0A7B0A7ULL)), nv_(coo.num_vertices) {
    std::vector<sg::core::WeightedEdge> edges = coo.edges;
    for (std::size_t i = edges.size(); i > 1; --i) {
      std::swap(edges[i - 1], edges[rng_.below(i)]);
    }
    const std::size_t half = edges.size() / 2;
    present_.assign(edges.begin(), edges.begin() + half);
    absent_.assign(edges.begin() + half, edges.end());
  }

  /// Edges present now (before any call: the preload).
  const std::vector<sg::core::WeightedEdge>& present() const {
    return present_;
  }

  /// An absent edge, now present with a fresh weight; a refresh when no
  /// absent edge is left.
  sg::core::WeightedEdge add() {
    if (head_ == absent_.size()) return refresh();
    sg::core::WeightedEdge e = absent_[head_++];
    e.weight = weight();
    present_.push_back(e);
    if (head_ > absent_.size() / 2) {  // keep the queue compact
      absent_.erase(absent_.begin(),
                    absent_.begin() + static_cast<std::ptrdiff_t>(head_));
      head_ = 0;
    }
    return e;
  }
  /// A present edge with a fresh weight.
  sg::core::WeightedEdge refresh() {
    sg::core::WeightedEdge& e = present_[any_present()];
    e.weight = weight();
    return e;
  }
  /// A present edge, now absent.
  sg::core::Edge erase() {
    const std::size_t k = any_present();
    const sg::core::Edge out{present_[k].src, present_[k].dst};
    absent_.push_back(present_[k]);
    present_[k] = present_.back();
    present_.pop_back();
    return out;
  }
  /// Even i: a present edge (a hit); odd i: a present source with a
  /// random destination (almost always a miss).
  sg::core::Edge query(std::size_t i) {
    const sg::core::WeightedEdge& e = present_[any_present()];
    return i % 2 == 0 ? sg::core::Edge{e.src, e.dst}
                      : sg::core::Edge{e.src, vertex()};
  }
  sg::core::VertexId vertex() {
    return static_cast<sg::core::VertexId>(rng_.below(nv_));
  }

 private:
  /// Index of a random present edge. A workload that erases more than the
  /// absent queue can give back (a --scale too small for its batches)
  /// empties the pool; that is an error, not a draw from nothing.
  std::size_t any_present() {
    if (present_.empty()) {
      throw std::length_error("edge pool exhausted: --scale too small");
    }
    return rng_.below(present_.size());
  }
  sg::core::Weight weight() {
    return static_cast<sg::core::Weight>(rng_.below(1u << 20) + 1);
  }

  sg::util::Xoshiro256 rng_;
  std::uint32_t nv_;
  std::vector<sg::core::WeightedEdge> present_;
  std::vector<sg::core::WeightedEdge> absent_;  ///< queue from head_
  std::size_t head_ = 0;
};

}  // namespace perfbench
