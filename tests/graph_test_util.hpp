// Shared helpers of the DynGraph differential suites: the one reference
// model every engine path is checked against (ReferenceGraph), the common
// random batch generator, the graph-equality predicates, and a scratch
// directory for the durability cases. Workload
// shapes that differ per suite (skew profiles, hub batches, query mixes)
// stay in their own files on purpose — merging them would change test
// inputs.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <set>
#include <span>
#include <stdexcept>
#include <string>
#include <system_error>
#include <tuple>
#include <vector>

#include "src/core/dyn_graph.hpp"
#include "src/util/prng.hpp"

namespace sg::core::testutil {

using EdgeSet = std::multiset<std::tuple<VertexId, VertexId, Weight>>;

/// Reference model in the style of DynoGraph's reference_impl.h: adjacency
/// as an ordered map of maps, with the paper's semantics — unique edges,
/// the most recent weight wins (batches apply in input order), self-loops
/// are dropped, and undirected edges are stored in both directions.
class ReferenceGraph {
 public:
  explicit ReferenceGraph(bool undirected = false) : undirected_(undirected) {}

  /// Returns the number of NEW unique directed edges, as insert_edges does.
  std::uint64_t insert(std::span<const WeightedEdge> batch) {
    std::uint64_t added = 0;
    for (const auto& e : batch) {
      if (e.src == e.dst) continue;
      added += insert_one(e.src, e.dst, e.weight);
      if (undirected_) added += insert_one(e.dst, e.src, e.weight);
    }
    return added;
  }

  /// Returns the number of directed edges removed, as delete_edges does.
  std::uint64_t erase(std::span<const Edge> batch) {
    std::uint64_t removed = 0;
    for (const auto& e : batch) {
      removed += erase_one(e.src, e.dst);
      if (undirected_) removed += erase_one(e.dst, e.src);
    }
    return removed;
  }

  /// Ages the model as delete_edges_older_than must age the graph: every
  /// stored edge with weight < threshold goes, mirrors included. Returns
  /// the directed edges removed.
  std::uint64_t age_out(Weight threshold) {
    std::vector<Edge> expired;
    for (const auto& [u, nbrs] : adj_) {
      for (const auto& [v, w] : nbrs) {
        if (w < threshold) expired.push_back({u, v});
      }
    }
    return erase(expired);
  }

  /// Removes the vertices and every edge pointing at them (Algorithm 2).
  void delete_vertices(std::span<const VertexId> ids) {
    for (VertexId v : ids) adj_.erase(v);
    for (auto& [u, nbrs] : adj_) {
      for (VertexId v : ids) nbrs.erase(v);
    }
  }

  bool edge_exists(VertexId u, VertexId v) const {
    auto it = adj_.find(u);
    return it != adj_.end() && it->second.count(v) > 0;
  }
  std::uint32_t degree(VertexId u) const {
    auto it = adj_.find(u);
    return it == adj_.end() ? 0 : static_cast<std::uint32_t>(it->second.size());
  }
  /// Stored weight of (u, v); 0 when absent (the engine's miss value).
  Weight weight(VertexId u, VertexId v) const {
    auto it = adj_.find(u);
    if (it == adj_.end()) return 0;
    auto jt = it->second.find(v);
    return jt == it->second.end() ? 0 : jt->second;
  }
  std::uint64_t num_edges() const {
    std::uint64_t total = 0;
    for (const auto& [u, nbrs] : adj_) total += nbrs.size();
    return total;
  }
  const std::map<VertexId, std::map<VertexId, Weight>>& adjacency() const {
    return adj_;
  }
  /// Every stored edge in graph_edges() form; weights are zeroed for
  /// models of the set variant (`with_weights = false`).
  EdgeSet edges(bool with_weights) const {
    EdgeSet out;
    for (const auto& [u, nbrs] : adj_) {
      for (const auto& [v, w] : nbrs) out.insert({u, v, with_weights ? w : 0});
    }
    return out;
  }
  /// Model answers to a batched existence query (edges_exist's output).
  std::vector<std::uint8_t> exist(std::span<const Edge> queries) const {
    std::vector<std::uint8_t> out(queries.size());
    for (std::size_t i = 0; i < queries.size(); ++i) {
      out[i] = edge_exists(queries[i].src, queries[i].dst) ? 1 : 0;
    }
    return out;
  }

 private:
  std::uint64_t insert_one(VertexId u, VertexId v, Weight w) {
    const auto [it, fresh] = adj_[u].insert_or_assign(v, w);
    return fresh ? 1 : 0;
  }
  std::uint64_t erase_one(VertexId u, VertexId v) {
    auto it = adj_.find(u);
    return it == adj_.end() ? 0 : it->second.erase(v);
  }

  bool undirected_;
  std::map<VertexId, std::map<VertexId, Weight>> adj_;
};

inline std::vector<WeightedEdge> random_batch(std::uint64_t seed,
                                              std::size_t count,
                                              std::uint32_t num_vertices) {
  util::Xoshiro256 rng(seed);
  std::vector<WeightedEdge> batch(count);
  for (auto& e : batch) {
    e = {static_cast<VertexId>(rng.below(num_vertices)),
         static_cast<VertexId>(rng.below(num_vertices)),
         static_cast<Weight>(rng.below(1u << 16))};
  }
  return batch;
}

/// The (src, dst) pairs of a weighted batch.
inline std::vector<Edge> pairs_of(std::span<const WeightedEdge> batch) {
  std::vector<Edge> out;
  out.reserve(batch.size());
  for (const auto& e : batch) out.push_back({e.src, e.dst});
  return out;
}

template <class Policy>
EdgeSet graph_edges(const DynGraph<Policy>& g) {
  EdgeSet edges;
  for (VertexId u = 0; u < g.vertex_capacity(); ++u) {
    g.for_each_neighbor(u, [&](VertexId v, Weight w) {
      edges.insert({u, v, Policy::kHasValues ? w : Weight{0}});
    });
  }
  return edges;
}

template <class Policy>
void expect_identical(const DynGraph<Policy>& a, const DynGraph<Policy>& b) {
  ASSERT_EQ(a.num_edges(), b.num_edges());
  for (VertexId u = 0; u < std::max(a.vertex_capacity(), b.vertex_capacity());
       ++u) {
    const std::uint32_t da = u < a.vertex_capacity() ? a.degree(u) : 0;
    const std::uint32_t db = u < b.vertex_capacity() ? b.degree(u) : 0;
    ASSERT_EQ(da, db) << "degree mismatch at vertex " << u;
  }
  EXPECT_EQ(graph_edges(a), graph_edges(b));
}

/// The graph holds exactly the model's edges: totals, every exact degree
/// counter, and the full (src, dst, weight) edge set.
template <class Policy>
void expect_matches_model(const DynGraph<Policy>& g, const ReferenceGraph& m) {
  ASSERT_EQ(g.num_edges(), m.num_edges());
  for (VertexId u = 0; u < g.vertex_capacity(); ++u) {
    ASSERT_EQ(g.degree(u), m.degree(u)) << "degree mismatch at vertex " << u;
  }
  EXPECT_EQ(graph_edges(g), m.edges(Policy::kHasValues));
}

/// Buckets of `u`'s table (0 when it has none): the base slabs the slab
/// iterator visits.
template <class Policy>
std::uint32_t bucket_count(const DynGraph<Policy>& g, VertexId u) {
  std::uint32_t buckets = 0;
  auto it = g.edge_iterator(u);
  while (it.next()) buckets += it.on_base_slab() ? 1 : 0;
  return buckets;
}

/// Unique scratch directory per test, removed on scope exit.
class TempDir {
 public:
  TempDir() {
    std::string tmpl =
        (std::filesystem::temp_directory_path() / "sg_test_XXXXXX").string();
    if (::mkdtemp(tmpl.data()) == nullptr) {
      throw std::runtime_error("mkdtemp failed");
    }
    path_ = tmpl;
  }
  ~TempDir() {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }
  TempDir(const TempDir&) = delete;
  TempDir& operator=(const TempDir&) = delete;

  std::string file(const std::string& name) const { return path_ + "/" + name; }

 private:
  std::string path_;
};

}  // namespace sg::core::testutil
