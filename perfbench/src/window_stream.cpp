// window-stream: DynoGraph-style sliding-window streaming through
// stream::Harness and the scheduled API. The soc-LiveJournal1 R-MAT analog
// (generated from --seed: here the stream is the operation sequence)
// arrives as a stream of unsorted 2^12-edge epochs with a window of 25% of
// the stream and compaction every 8 slides. Each epoch ingests, ages out,
// runs bfs_bulk from the source of its first stream edge as the fenced
// analytics hook, then answers a
// 2^12-probe submit_edges_exist (half hits); every 16th epoch also writes
// a snapshot. Filling the first window is set-up; timing starts once aging
// retires edges, so every timed epoch runs at a full window.
//
// A pass replays the rest of the stream on a fresh harness; a run repeats
// passes until --seconds of epochs have been timed. Every pass does the
// same work, so each per-epoch metric is the median over passes of the
// pass's median: a burst of interference from the host that covers fewer
// than half the passes leaves it unmoved. Each pass's fill is one more
// setup_s sample.
#include <algorithm>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "perfbench/src/model.hpp"
#include "perfbench/src/workloads.hpp"
#include "src/analytics/bfs.hpp"
#include "src/simt/thread_pool.hpp"
#include "src/stream/harness.hpp"
#include "src/util/prng.hpp"

namespace perfbench {
namespace {

using sg::core::DynGraphMap;
using sg::stream::EpochStats;

constexpr double kScale = 1.25;
constexpr std::size_t kBatch = std::size_t{1} << 12;
constexpr double kWindowFrac = 0.25;
constexpr std::uint32_t kCompactEvery = 8;
constexpr std::size_t kQueryProbes = std::size_t{1} << 12;
constexpr std::size_t kSnapshotEvery = 16;
constexpr std::size_t kBfsCheckEvery = 32;  // epochs whose BFS is checked
constexpr int kSetups = 3;

/// What one timed epoch answered, for the correctness gate.
struct EpochRecord {
  std::size_t id = 0;
  EpochStats stats;
  std::vector<Edge> probes;
  std::vector<std::uint8_t> answers;
  std::vector<std::uint32_t> bfs;  ///< kept on checked epochs only
};

/// The epoch's BFS source: the stream arrives in dataset order, so a fixed
/// vertex would leave the window; the epoch's first edge is always in it.
VertexId bfs_source(const sg::stream::Dataset& data, std::size_t id) {
  return data.edges()[id * data.batch_size()].src;
}

std::vector<Edge> make_probes(const std::vector<WeightedEdge>& batch,
                              std::uint32_t num_vertices,
                              sg::util::Xoshiro256& rng) {
  std::vector<Edge> probes(kQueryProbes);
  for (std::size_t i = 0; i < kQueryProbes; ++i) {
    const WeightedEdge& e = batch[rng.below(batch.size())];
    probes[i] = i % 2 == 0 ? Edge{e.src, e.dst}
                           : Edge{e.src, static_cast<VertexId>(
                                             rng.below(num_vertices))};
  }
  return probes;
}

/// Replays the stream against the window model: live size after every
/// epoch, every probe answer, sampled BFS levels against the scalar BFS on
/// the model, and the final edge set with timestamps.
void check(const sg::stream::Dataset& data, std::size_t fill_epochs,
           const std::vector<std::uint64_t>& fill_live,
           const std::vector<EpochRecord>& epochs, const DynGraphMap& g,
           Result& r) {
  const std::uint32_t nv = data.max_vertex_id() + 1;
  WindowModel model;
  auto step = [&](std::size_t id) {
    model.insert(data.batch(id, sg::stream::SortMode::kUnsorted));
    model.age_out(data.timestamp_for_window(id, kWindowFrac));
  };
  for (std::size_t id = 0; id < fill_epochs; ++id) {
    step(id);
    if (model.size() != fill_live[id]) {
      r.mismatch("fill epoch " + std::to_string(id) + ": live edges differ");
    }
  }
  for (const EpochRecord& e : epochs) {
    step(e.id);
    const std::string at = "epoch " + std::to_string(e.id) + ": ";
    if (model.size() != e.stats.live_edges) {
      r.mismatch(at + std::to_string(e.stats.live_edges) +
                 " live edges, window model has " +
                 std::to_string(model.size()));
    }
    for (std::size_t q = 0; q < e.probes.size(); ++q) {
      if (model.contains(e.probes[q].src, e.probes[q].dst) !=
          (e.answers[q] != 0)) {
        r.mismatch(at + "edges_exist answer " + std::to_string(q) +
                   " differs from the window model");
        break;
      }
    }
    if (!e.bfs.empty()) {
      const auto adj = model.adjacency(nv);
      const sg::analytics::NeighborFn neighbors =
          [&adj](VertexId u, const std::function<void(VertexId)>& visit) {
            for (const VertexId v : adj[u]) visit(v);
          };
      if (sg::analytics::bfs(nv, neighbors, bfs_source(data, e.id)) !=
          e.bfs) {
        r.mismatch(at + "bfs_bulk differs from scalar bfs on the model");
      }
    }
  }
  std::uint64_t seen = 0;
  for (VertexId u = 0; u < nv && r.correct; ++u) {
    g.for_each_neighbor(u, [&](VertexId v, Weight ts) {
      ++seen;
      const Weight* want = model.find(u, v);
      if ((want == nullptr || *want != ts) && r.correct) {
        r.mismatch("final edge (" + std::to_string(u) + ", " +
                   std::to_string(v) + ") or its timestamp differs from the "
                   "window model");
      }
    });
  }
  if (r.correct && seen != model.size()) {
    r.mismatch("final live edges " + std::to_string(seen) +
               " != window model " + std::to_string(model.size()));
  }
}

}  // namespace

Result run_window_stream(const Options& opt) {
  Result r;
  const sg::stream::Dataset data = sg::stream::Dataset::from_rmat(
      "soc-LiveJournal1", opt.scale > 0 ? opt.scale : kScale, opt.seed, kBatch);
  const std::uint32_t nv = data.max_vertex_id() + 1;
  const std::size_t fill_epochs = static_cast<std::size_t>(
      kWindowFrac * static_cast<double>(data.num_batches()));
  const ScratchDir scratch(opt, "window-stream");
  const std::string& dir = scratch.path();

  sg::stream::HarnessConfig hc;
  hc.sort_mode = sg::stream::SortMode::kUnsorted;
  hc.window_frac = kWindowFrac;
  hc.compact_every = kCompactEvery;

  std::unique_ptr<sg::stream::Harness> harness;
  std::vector<double> setups;
  std::vector<std::uint64_t> fill_live, live;
  const auto build = [&] {
    harness.reset();
    sg::stream::Dataset copy = data;
    live.clear();
    const std::int64_t t0 = now_ns();
    harness = std::make_unique<sg::stream::Harness>(std::move(copy), hc);
    for (std::size_t id = 0; id < fill_epochs; ++id) {
      live.push_back(harness->run_epoch(id).live_edges);
    }
    setups.push_back(seconds_between(t0, now_ns()));
    if (fill_live.empty()) {
      fill_live = live;
    } else if (live != fill_live) {
      r.mismatch("a rebuilt window differs from the first one");
    }
  };
  for (int i = 0; i < kSetups; ++i) build();
  const std::uint64_t arena_start =
      harness->graph().arena_stats().bytes_reserved();
  double fence_wait_s = 0;
  std::uint64_t phase_switches = 0, coalesced = 0, max_queue_depth = 0;

  Tracer off(false), on(true);
  Tracer* tr = &off;
  std::uint32_t epoch_span = 0;
  std::uint64_t epoch_op = 0;
  double gather_s = 0, bfs_s = 0;
  std::vector<std::uint32_t> last_bfs;
  std::uint32_t last_bfs_span = 0;
  const sg::stream::Harness::AnalyticsHook hook = [&](const DynGraphMap& gr) {
    const std::int64_t b0 = now_ns();
    const std::uint32_t bfs_span = tr->open("analytics", epoch_op, epoch_span);
    const sg::analytics::BulkNeighborFn gather =
        [&](std::span<const VertexId> sources,
            std::vector<std::uint64_t>& offsets,
            std::vector<VertexId>& neighbors) {
          const std::uint32_t span = tr->open("analytics", epoch_op);
          const std::int64_t t0 = now_ns();
          gr.gather_neighbors(sources, offsets, neighbors);
          gather_s += seconds_between(t0, now_ns());
          tr->close(span);
        };
    last_bfs = sg::analytics::bfs_bulk(nv, gather, bfs_source(data, epoch_op));
    tr->close(bfs_span);
    last_bfs_span = bfs_span;
    bfs_s += seconds_between(b0, now_ns());
  };

  sg::util::Xoshiro256 rng(sg::util::mix64(opt.seed ^ 0x57EA3ULL));
  std::vector<EpochRecord> epochs;
  std::vector<double> write_ms, read_ms, analytics_ms, epoch_ms, snapshot_ms;
  // Per-epoch rates; the median over passes of each pass's median is the
  // end-to-end rate.
  std::vector<double> insert_rate, age_rate, query_rate, bytes_per_edge;
  double epoch_total = 0, stage = 0, apply = 0, overlap = 0;
  std::uint64_t aged = 0, released = 0;
  double insert_s = 0, age_s = 0, analytics_s = 0, compact_s = 0;
  double parity_s[2] = {0, 0};
  std::size_t parity_n[2] = {0, 0};
  double spent = 0;
  std::size_t n = 0;  // timed epochs, over all passes
  EpochRecord again;  // an epoch of a later pass
  for (std::size_t pass = 0; pass == 0 || spent < opt.seconds; ++pass) {
    if (pass > 0) build();
    DynGraphMap& g = harness->graph();
    const sg::core::PhaseScheduleStats sched0 = g.last_schedule_stats();
    for (std::size_t id = fill_epochs; id < data.num_batches(); ++id, ++n) {
      const std::size_t k = id - fill_epochs;
      tr = opt.trace && n % 2 == 1 ? &on : &off;
      EpochRecord& rec = pass == 0 ? epochs.emplace_back() : again;
      rec.id = id;
      rec.bfs.clear();
      if (pass == 0) {
        rec.probes = make_probes(
            data.batch(id, sg::stream::SortMode::kUnsorted), nv, rng);
      }
      const std::vector<Edge>& probes = epochs[k].probes;
      const std::string snapshot_path =
          dir + "/epoch" + std::to_string(id) + ".snapshot";
      const bool snapshot = (k + 1) % kSnapshotEvery == 0;

      epoch_op = id;
      const std::uint32_t root = tr->open("", id, 0);
      epoch_span = tr->open("stream", id);
      const std::int64_t t0 = now_ns();
      rec.stats = harness->run_epoch(id, hook);
      const std::int64_t t1 = now_ns();
      tr->close(epoch_span);
      const sg::core::BatchPipelineStats aging = g.last_batch_stats();

      const std::uint32_t qspan = tr->open("core.phase_scheduler", id);
      const std::int64_t t2 = now_ns();
      rec.answers = g.submit_edges_exist(probes).get();
      const std::int64_t t3 = now_ns();
      tr->close(qspan);
      const sg::core::BatchPipelineStats query = g.last_query_stats();

      std::int64_t t5 = t3;
      if (snapshot) {
        const std::uint32_t span = tr->open("persist", id);
        g.submit_snapshot(snapshot_path).get();
        t5 = now_ns();
        tr->close(span);
        snapshot_ms.push_back(seconds_between(t3, t5) * 1e3);
        std::filesystem::remove(snapshot_path);
      }
      tr->close(root);

      if (tr->enabled()) {
        // The harness reports its steps' durations; they ran in this order
        // inside run_epoch. Aging's erase batch is the engine's last batch.
        const EpochStats& s = rec.stats;
        auto ns = [](double sec) {
          return static_cast<std::int64_t>(sec * 1e9);
        };
        std::int64_t at = t0 + ns(s.insert_seconds);
        tr->record("stream", t0, at, epoch_span, id);
        const std::uint32_t age_span =
            tr->record("stream", at, at + ns(s.age_seconds), epoch_span, id);
        const std::int64_t st = ns(aging.stage_seconds - aging.overlap_seconds);
        tr->record("core.batch_engine", at, at + st, age_span, id);
        tr->record("slabhash", at + st, at + st + ns(aging.apply_seconds),
                   age_span, id);
        at += ns(s.age_seconds);
        tr->record("memory", at, at + ns(s.compact_seconds), epoch_span, id);
        at += ns(s.compact_seconds);
        const std::uint32_t fence =
            tr->record("core.phase_scheduler", at, at + ns(s.analytics_seconds),
                       epoch_span, id);
        tr->reparent(last_bfs_span, fence);
        const std::int64_t qs = ns(query.stage_seconds - query.overlap_seconds);
        tr->record("core.batch_engine", t2, t2 + qs, qspan, id);
        tr->record("slabhash", t2 + qs, t2 + qs + ns(query.apply_seconds),
                   qspan, id);
      }
      if (k % kBfsCheckEvery == 0) rec.bfs = last_bfs;

      const EpochStats& s = rec.stats;
      const double epoch = seconds_between(t0, t1) + seconds_between(t2, t5);
      epoch_ms.push_back(epoch * 1e3);
      write_ms.push_back((s.insert_seconds + s.age_seconds) * 1e3);
      read_ms.push_back(seconds_between(t2, t3) * 1e3);
      analytics_ms.push_back(s.analytics_seconds * 1e3);
      epoch_total += epoch;
      insert_rate.push_back(kBatch / s.insert_seconds / 1e6);
      if (s.aged_out > 0) age_rate.push_back(s.aged_out / s.age_seconds / 1e6);
      query_rate.push_back(probes.size() / seconds_between(t2, t3) / 1e6);
      constexpr std::uint64_t kChunkBytes =
          sg::memory::SlabArena::kChunkSlabs * sizeof(sg::memory::Slab);
      if (pass == 0) {
        bytes_per_edge.push_back(
            static_cast<double>(s.arena_chunks * kChunkBytes) /
            static_cast<double>(std::max<std::uint64_t>(1, s.live_edges)));
      }
      aged += s.aged_out;
      released += s.released_chunks;
      insert_s += s.insert_seconds;
      age_s += s.age_seconds;
      analytics_s += s.analytics_seconds;
      compact_s += s.compact_seconds;
      stage += aging.stage_seconds + query.stage_seconds;
      apply += aging.apply_seconds + query.apply_seconds;
      overlap += aging.overlap_seconds + query.overlap_seconds;
      spent += epoch;
      parity_s[n % 2] += epoch;
      ++parity_n[n % 2];
      if (pass > 0) {
        const EpochRecord& first = epochs[k];
        const std::string at = "pass " + std::to_string(pass) + " epoch " +
                               std::to_string(id) + ": ";
        if (s.live_edges != first.stats.live_edges) {
          r.mismatch(at + "live edges differ from the first pass");
        }
        if (rec.answers != first.answers) {
          r.mismatch(at + "edges_exist differs from the first pass");
        }
        if (rec.bfs != first.bfs) {
          r.mismatch(at + "bfs_bulk differs from the first pass");
        }
      }
    }
    const sg::core::PhaseScheduleStats sched1 = g.last_schedule_stats();
    fence_wait_s += sched1.fence_wait_seconds - sched0.fence_wait_seconds;
    phase_switches += sched1.phase_switches - sched0.phase_switches;
    coalesced += sched1.coalesced_batches - sched0.coalesced_batches;
    max_queue_depth =
         std::max<std::uint64_t>(max_queue_depth, sched1.max_queue_depth);
  }
  DynGraphMap& g = harness->graph();
  r.attempted = 3 * n;  // epoch, query, and analytics hook
  const sg::memory::ArenaStats arena = g.arena_stats();
  if (!opt.trace) {
    r.e2e("setup_s", median(setups), "s");
    // One window per pass.
    const std::size_t w = epochs.size();
    r.e2e("insert_medges_s", windowed_median(insert_rate, w), "Medge/s");
    r.e2e("erase_medges_s",
          windowed_median(age_rate, age_rate.size() * w / n), "Medge/s");
    r.e2e("query_mq_s", windowed_median(query_rate, w), "MQuery/s");
    r.e2e("stream_medges_s", kBatch / windowed_median(epoch_ms, w) / 1e3,
          "Medge/s");
    latency_metric(r, "write_p50_ms", "write", write_ms, 50, true, w);
    latency_metric(r, "read_p50_ms", "read", read_ms, 50, true, w);
    latency_metric(r, "analytics_p50_ms", "analytics", analytics_ms, 50, true,
                   w);
    latency_metric(r, "epoch_p50_ms", "epoch", epoch_ms, 50, true, w);
    // Averaged over epochs: the arena steps down at every compaction, so
    // its size at any one epoch depends on where the run stopped.
    double bpe = 0;
    for (const double b : bytes_per_edge) bpe += b;
    r.e2e("bytes_per_edge", bpe / double(bytes_per_edge.size()), "B");
  } else {
    latency_metric(r, "write_p99_ms", "write", write_ms, 99, false);
    latency_metric(r, "epoch_p95_ms", "epoch", epoch_ms, 95, false);
    latency_metric(r, "read_p99_ms", "read", read_ms, 99, false);
    r.layer("samples.write", double(write_ms.size()), "count");
    r.layer("samples.read", double(read_ms.size()), "count");
    r.layer("samples.analytics", double(analytics_ms.size()), "count");
    r.layer("samples.epoch", double(epoch_ms.size()), "count");
    r.layer("stream.insert_s", insert_s, "s");
    r.layer("stream.age_s", age_s, "s");
    r.layer("stream.analytics_s", analytics_s, "s");
    r.layer("stream.compact_s", compact_s, "s");
    r.layer("stream.age_us_per_aged_edge", age_s / double(aged) * 1e6, "us");
    r.layer("stream.age_share", age_s / epoch_total, "ratio");
    r.layer("analytics.gather_s", gather_s, "s");
    r.layer("analytics.bfs_self_s", bfs_s - gather_s, "s");
    r.layer("persist.snapshot_ms", median(snapshot_ms), "ms");
    r.layer("core.batch_engine.stage_s", stage, "s");
    r.layer("slabhash.apply_s", apply, "s");
    r.layer("core.batch_engine.overlap_share",
            stage > 0 ? overlap / stage : 0.0, "ratio");
    r.layer("core.phase_scheduler.fence_wait_s", fence_wait_s, "s");
    r.layer("core.phase_scheduler.phase_switches", double(phase_switches),
            "count");
    r.layer("core.phase_scheduler.coalesced", double(coalesced), "count");
    r.layer("core.phase_scheduler.max_queue_depth", double(max_queue_depth),
            "count");
    r.layer("memory.bytes_reserved", double(arena.bytes_reserved()), "B");
    r.layer("memory.dynamic_slab_share",
            double(arena.dynamic_slabs) /
                double(std::max<std::uint64_t>(
                    1, arena.bulk_slabs + arena.dynamic_slabs)),
            "ratio");
    r.layer("memory.released_chunks", double(released), "count");
    r.layer("memory.steady_flatness",
            double(arena.bytes_reserved()) / double(arena_start), "ratio");
    r.layer("simt.pool_width",
            double(sg::simt::ThreadPool::instance().requested()), "count");
    report_trace(r, on, parity_s[0] / double(parity_n[0]),
                 parity_s[1] / double(std::max<std::size_t>(1, parity_n[1])));
  }

  g.schedule_drain();
  if (opt.corrupt && !epochs.empty()) epochs.front().answers[0] ^= 1;
  check(data, fill_epochs, fill_live, epochs, g, r);
  return r;
}

}  // namespace perfbench
