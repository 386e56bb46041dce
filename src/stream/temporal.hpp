// Temporal edge streams (DynoGraph-style): the workload side of the
// sliding-window streaming regime (docs/WORKLOADS.md "Sliding-window
// streaming").
//
// A stream is an edge list in ARRIVAL ORDER, each edge carrying a
// timestamp. The graph stores the timestamp as the edge's weight — the
// public types document w as "standing in for any per-edge meta-data"
// (src/core/types.hpp) — so most-recent-wins insertion gives re-inserted
// edges a refreshed timestamp for free, and
// DynGraph::delete_edges_older_than reads the timestamps in place with one
// value-filtered scan per adjacency list.
//
// Batch preparation follows dynograph_util's three modes:
//   * UNSORTED — the raw arrival-order slice (worst-case locality);
//   * PRESORT — the slice sorted by (src, dst) with cross-duplicate
//     resolution keeping the NEWEST timestamp (the engine's staging sort
//     gets pre-sorted input, isolating structure cost from sort cost);
//   * SNAPSHOT — the cumulative deduplicated prefix, for rebuild-per-epoch
//     baselines (bulk_build of each window, no incremental mutation).
//
// timestamp_for_window is dynograph_util's getTimestampForWindow: the
// aging threshold that keeps the most recent `window_frac` of the stream
// live once the stream has advanced past the window.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "src/core/types.hpp"
#include "src/datasets/coo.hpp"

namespace sg::stream {

/// One stream element: a directed edge observed at time `ts`.
struct TemporalEdge {
  core::VertexId src = 0;
  core::VertexId dst = 0;
  core::Weight ts = 0;

  friend bool operator==(const TemporalEdge&, const TemporalEdge&) = default;
};

/// Batch preparation mode (dynograph_util's sort_mode).
enum class SortMode : std::uint8_t {
  kUnsorted,  ///< raw arrival-order slice
  kPresort,   ///< slice sorted by (src, dst), duplicates keep newest ts
  kSnapshot,  ///< cumulative deduplicated prefix (rebuild-per-epoch)
};

/// A finite timestamped edge stream, replayed in fixed-size batches.
class Dataset {
 public:
  /// Takes a prepared stream. `batch_size` fixes the epoch granularity;
  /// the last batch may be short. Throws std::invalid_argument on an
  /// empty stream or zero batch size.
  Dataset(std::vector<TemporalEdge> edges, std::size_t batch_size);

  /// Wraps a static COO as a stream: edges arrive in storage order with
  /// ts = arrival index (dynograph_util does the same for untimestamped
  /// inputs). Undirected COOs carry both directions; both get the same
  /// arrival semantics the graph's undirected mode expects — pass each
  /// edge once and let the structure mirror.
  static Dataset from_coo(const datasets::Coo& coo, std::size_t batch_size);

  /// Generates a synthetic stream from the bench suite
  /// (datasets::make_dataset): the named analog's edges in generation
  /// order, ts = arrival index. Deterministic in (name, scale, seed).
  static Dataset from_rmat(const std::string& name, double scale,
                           std::uint64_t seed, std::size_t batch_size);

  /// Parses a whitespace-delimited edge file: `src dst [weight] [ts]`
  /// per line (the 4-column DynoGraph format, or 2/3 columns with ts
  /// defaulting to the arrival index). '#' or '%' lines are comments.
  /// Throws std::runtime_error on open failure or a malformed line.
  static Dataset from_file(const std::string& path, std::size_t batch_size);

  std::size_t num_edges() const noexcept { return edges_.size(); }
  std::size_t batch_size() const noexcept { return batch_size_; }
  std::size_t num_batches() const noexcept {
    return (edges_.size() + batch_size_ - 1) / batch_size_;
  }
  /// Largest vertex id appearing anywhere in the stream.
  core::VertexId max_vertex_id() const noexcept { return max_vertex_; }
  const std::vector<TemporalEdge>& edges() const noexcept { return edges_; }

  /// Materializes batch `id` under `mode` as the weighted-edge batch the
  /// graph ingests (weight = timestamp). kSnapshot returns the cumulative
  /// deduplicated prefix through the END of batch `id` (newest ts wins).
  std::vector<core::WeightedEdge> batch(std::size_t id, SortMode mode) const;

  /// dynograph_util::getTimestampForWindow: the aging threshold after
  /// batch `id` for a window of `window_frac` of the whole stream.
  /// Deleting ts < threshold keeps the newest window_frac * num_edges()
  /// stream positions live; while the stream is still shorter than the
  /// window, returns the oldest timestamp (nothing ages). `window_frac`
  /// outside (0, 1] throws std::invalid_argument.
  core::Weight timestamp_for_window(std::size_t id, double window_frac) const;

 private:
  std::vector<TemporalEdge> edges_;  ///< arrival order
  std::size_t batch_size_ = 0;
  core::VertexId max_vertex_ = 0;
};

}  // namespace sg::stream
