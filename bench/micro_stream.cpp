// micro_stream: the temporal streaming workload (src/stream/,
// docs/WORKLOADS.md "Sliding-window streaming").
//
// An rmat stream replays through stream::Harness in epochs: ingest one
// batch, age out everything older than the sliding window, run arena
// compaction on its cadence. Two sections:
//
//   epoch rate    end-to-end stream throughput by batch mode — UNSORTED
//                 (arrival order) and PRESORT (DynoGraph presorted
//                 batches) — counting stream edges through the full
//                 ingest+age+compact cycle.
//
//   steady state  memory flatness across the steady-state window: once
//                 the stream has advanced past the window, live chunks
//                 and RSS must be FLAT (within 10%), not monotonically
//                 growing — the property compaction exists to provide.
//                 The bench prints per-epoch live edges / chunks / RSS
//                 and reports max/min ratios over the steady tail.
//
// JSON metrics (tracked by bench/compare_bench.py):
//   stream_epoch_rate{mode}       Medges/s through the full epoch cycle
//   stream_aged_rate{mode}        Medges/s retired by window aging: aged
//                                 edges over the summed aging-step time
//                                 (EpochStats::age_seconds)
//   steady_chunk_flatness         min/max live arena chunks over the steady
//                                 tail — 1.0 = perfectly flat, gated like a
//                                 rate (a DROP means memory is trending)
//   steady_rss_bytes              process RSS after the last epoch
//                                 (recorded-but-ungated: absolute RSS is
//                                 box-dependent; the gated flatness signal
//                                 is steady_chunk_flatness)
//
//   ./build/micro_stream --json=BENCH_stream.json
//   flags: --scale=<f> --seed=<n> --quick
#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_common.hpp"
#include "src/datasets/generators.hpp"
#include "src/stream/harness.hpp"

namespace sg {
namespace {

stream::Dataset make_stream(const bench::BenchContext& ctx,
                            std::size_t* batch_size_out) {
  const std::uint32_t vertices = static_cast<std::uint32_t>(
      (ctx.quick ? (1u << 12) : (1u << 14)) * ctx.scale * 4);
  const datasets::Coo coo =
      datasets::make_rmat(vertices, std::uint64_t{16} * vertices, ctx.seed);
  // 32 epochs: enough slides for the steady-state tail to dominate.
  const std::size_t batch_size = std::max<std::size_t>(1, coo.edges.size() / 32);
  *batch_size_out = batch_size;
  return stream::Dataset::from_coo(coo, batch_size);
}

void run_stream(const bench::BenchContext& ctx) {
  std::size_t batch_size = 0;
  const stream::Dataset dataset = make_stream(ctx, &batch_size);

  util::Table rate_table({"Mode", "Epochs", "Stream edges", "Aged", "Total (ms)",
                          "Rate (Medges/s)", "Aged rate (Medges/s)"});
  util::Table steady_table(
      {"Mode", "Steady epochs", "Chunks max/min", "RSS max/min",
       "Live-edge max/min"});

  const struct {
    stream::SortMode mode;
    const char* label;
  } modes[] = {{stream::SortMode::kUnsorted, "unsorted"},
               {stream::SortMode::kPresort, "presort"}};
  for (const auto& m : modes) {
    stream::HarnessConfig cfg;
    cfg.sort_mode = m.mode;
    cfg.window_frac = 0.25;
    cfg.compact_every = 4;
    cfg.graph.undirected = false;
    stream::Harness harness(dataset, cfg);

    util::Timer timer;
    const std::vector<stream::EpochStats> epochs = harness.run();
    const double total_ms = timer.milliseconds();

    std::uint64_t aged = 0;
    double age_seconds = 0.0;
    for (const auto& e : epochs) {
      aged += e.aged_out;
      age_seconds += e.age_seconds;
    }
    const double rate = util::mitems_per_second(
        double(dataset.num_edges()), total_ms * 1e-3);
    const double aged_rate = util::mitems_per_second(double(aged), age_seconds);
    rate_table.add_row(
        {m.label, util::Table::fmt_int(static_cast<long long>(epochs.size())),
         util::Table::fmt_int(static_cast<long long>(dataset.num_edges())),
         util::Table::fmt_int(static_cast<long long>(aged)),
         util::Table::fmt(total_ms, 2), util::Table::fmt(rate),
         util::Table::fmt(aged_rate)});
    ctx.record("stream_epoch_rate", rate, "Medges/s", {{"mode", m.label}});
    ctx.record("stream_aged_rate", aged_rate, "Medges/s", {{"mode", m.label}});

    // Steady state = the last half of the replay: the window is full and
    // sliding, so size/memory must be flat. Ratios near 1.0 = flat; the
    // acceptance bar is 1.10.
    const std::size_t tail_begin = epochs.size() / 2;
    std::uint64_t chunks_min = UINT64_MAX, chunks_max = 0;
    std::uint64_t rss_min = UINT64_MAX, rss_max = 0;
    std::uint64_t live_min = UINT64_MAX, live_max = 0;
    for (std::size_t i = tail_begin; i < epochs.size(); ++i) {
      chunks_min = std::min(chunks_min, epochs[i].arena_chunks);
      chunks_max = std::max(chunks_max, epochs[i].arena_chunks);
      rss_min = std::min(rss_min, epochs[i].rss_bytes);
      rss_max = std::max(rss_max, epochs[i].rss_bytes);
      live_min = std::min(live_min, epochs[i].live_edges);
      live_max = std::max(live_max, epochs[i].live_edges);
    }
    const auto ratio = [](std::uint64_t max, std::uint64_t min) {
      return min == 0 ? 0.0 : double(max) / double(min);
    };
    steady_table.add_row(
        {m.label,
         util::Table::fmt_int(static_cast<long long>(epochs.size() - tail_begin)),
         util::Table::fmt(ratio(chunks_max, chunks_min), 3),
         util::Table::fmt(ratio(rss_max, rss_min), 3),
         util::Table::fmt(ratio(live_max, live_min), 3)});
    if (m.mode == stream::SortMode::kPresort) {
      // Inverted (min/max) so higher-is-better matches the gate's
      // direction: 1.0 = flat, sliding toward 0 = memory trending up.
      ctx.record("steady_chunk_flatness",
                 chunks_max == 0 ? 0.0 : double(chunks_min) / double(chunks_max),
                 "ratio");
      ctx.record("steady_rss_bytes", double(epochs.back().rss_bytes), "bytes");
    }
  }
  ctx.emit(rate_table, "Stream: epoch replay throughput by batch mode");
  ctx.emit(steady_table,
           "Steady state: memory flatness across the sliding window");
  bench::paper_shape_note(
      "sliding-window aging rides the bulk-erase engine and compaction "
      "returns emptied chunks, so the steady-state chunk count follows the "
      "live window (ratios ~1), not the high-water mark");
}

}  // namespace
}  // namespace sg

int main(int argc, char** argv) {
  const sg::util::Cli cli(argc, argv);
  const auto ctx = sg::bench::BenchContext::from_cli(cli, 0.25, "micro_stream");
  ctx.print_header("Temporal stream: sliding-window aging + compaction");
  sg::run_stream(ctx);
  ctx.write_json();
  return 0;
}
