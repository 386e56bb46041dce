// stream::Harness — the DynoGraph-style epoch replay loop (ROADMAP item:
// temporal streaming; docs/WORKLOADS.md "Sliding-window streaming").
//
// The harness owns a DynGraphMap (timestamps ride the weight slots) and
// replays a temporal Dataset batch by batch, each epoch running the full
// streaming cycle through the SCHEDULED API so every step is fenced by the
// phase scheduler:
//
//   1. ingest     — submit_insert(batch)           (mutation phase)
//   2. age        — submit_age_out(window ts)      (maintenance, fenced)
//   3. analytics  — submit_analytics(hook)         (analytics phase)
//   4. compact    — submit_compact()               (maintenance, every
//                                                   `compact_every` slides)
//
// SNAPSHOT mode replaces 1-2 with rebuild-per-epoch: a fresh graph
// bulk_builds the cumulative deduplicated prefix (the DynoGraph baseline
// incremental structures are measured against); aging and compaction are
// no-ops there by construction.
//
// Per-epoch EpochStats record throughput, retirement volume, live size,
// arena chunks, and process RSS — micro_stream derives stream_epoch_rate
// and the steady-state memory gate from exactly these numbers.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "src/core/dyn_graph.hpp"
#include "src/stream/temporal.hpp"

namespace sg::stream {

struct HarnessConfig {
  /// Batch preparation mode (see stream::SortMode). kSnapshot switches the
  /// harness to rebuild-per-epoch.
  SortMode sort_mode = SortMode::kPresort;
  /// Sliding-window size as a fraction of the whole stream; edges older
  /// than the window retire after each ingest. 0 disables aging
  /// (append-only ingest). Must be in [0, 1].
  double window_frac = 0.5;
  /// Arena compaction cadence: compact() runs after every `compact_every`
  /// window slides (0 disables). Compaction is what keeps steady-state
  /// RSS flat instead of riding the high-water mark.
  std::uint32_t compact_every = 4;
  /// Construction-time knobs of the underlying graph. The harness forces
  /// nothing; every step runs through the fenced scheduled pipeline above.
  core::GraphConfig graph;
};

/// What one epoch did (one entry per replayed batch).
struct EpochStats {
  std::size_t batch_id = 0;
  std::uint64_t inserted = 0;       ///< new unique directed edges
  std::uint64_t aged_out = 0;       ///< directed edges retired by aging
  core::Weight age_threshold = 0;   ///< window threshold applied (0 = none)
  std::uint64_t released_chunks = 0;  ///< arena chunks returned by compact
  double insert_seconds = 0.0;
  double age_seconds = 0.0;
  double analytics_seconds = 0.0;
  double compact_seconds = 0.0;
  std::uint64_t live_edges = 0;     ///< graph size after the epoch
  std::uint64_t arena_chunks = 0;   ///< live 1 MiB arena chunks after
  std::uint64_t rss_bytes = 0;      ///< process RSS after (0 if unreadable)
};

class Harness {
 public:
  /// Read-only per-epoch analytics callback; runs inside a fenced
  /// analytics phase (submit_analytics), so bulk gathers and queries are
  /// safe without external locking.
  using AnalyticsHook = std::function<void(const core::DynGraphMap&)>;

  /// Takes the stream and the replay configuration. The graph is created
  /// up front (vertex capacity covering the stream) — except in kSnapshot
  /// mode, where each epoch rebuilds it.
  Harness(Dataset dataset, HarnessConfig config);

  /// Replays batch `id` (one epoch); `hook`, when set, runs fenced after
  /// ingest + aging. Epochs must be replayed in order.
  EpochStats run_epoch(std::size_t id, const AnalyticsHook& hook = {});

  /// Replays every batch in order; returns one EpochStats per batch.
  std::vector<EpochStats> run(const AnalyticsHook& hook = {});

  core::DynGraphMap& graph() { return *graph_; }
  const core::DynGraphMap& graph() const { return *graph_; }
  const Dataset& dataset() const { return dataset_; }
  const HarnessConfig& config() const { return config_; }

  /// Process resident-set size from /proc/self/statm (0 where
  /// unavailable) — the external memory ground truth micro_stream gates.
  static std::uint64_t process_rss_bytes();

 private:
  std::unique_ptr<core::DynGraphMap> make_graph() const;

  Dataset dataset_;
  HarnessConfig config_;
  std::unique_ptr<core::DynGraphMap> graph_;
  std::uint32_t slides_since_compact_ = 0;
};

}  // namespace sg::stream
