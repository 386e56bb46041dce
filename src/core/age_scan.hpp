// Window-aging scan behind DynGraph::delete_edges_older_than: one
// value-filtered slab scan per live adjacency list finds every edge whose
// stored timestamp is below the threshold, reading each timestamp in place.
//
// Defined in age_scan.cpp and instantiated there for MapPolicy, the only
// policy with values. Like the stage-3 walks (batch_apply.cpp), it is a hot
// slab walk kept out of the DynGraph unit: when it was built into that
// unit it changed GCC's inlining of the staging and apply paths and slowed
// batched inserts and queries on the power-law benchmark by 9-16%
// (docs/PERF.md).
#pragma once

#include <vector>

#include "src/core/batch_engine.hpp"
#include "src/core/dyn_graph.hpp"
#include "src/core/types.hpp"
#include "src/core/vertex_dictionary.hpp"
#include "src/memory/slab_arena.hpp"

namespace sg::core {

/// Every edge (u, v) of a live vertex u whose stored value is strictly
/// below `threshold`, in ascending order of u, so the result does not
/// depend on the pool width. Undirected graphs keep only u <= v (the
/// mirror carries the same timestamp). The vertices are balanced across
/// the pool by degree. Read-only: phase-serial with mutations, like a
/// gather.
template <class Policy>
std::vector<Edge> scan_expired_edges(const memory::SlabArena& arena,
                                     const VertexDictionary& dict,
                                     Weight threshold, bool undirected);

extern template std::vector<Edge> scan_expired_edges<MapPolicy>(
    const memory::SlabArena&, const VertexDictionary&, Weight, bool);

}  // namespace sg::core
