// micro_pipeline: the sharded, double-buffered batch pipeline benchmark.
//
//   overlap   streams a sequence of insert batches through the engine at
//             several pool widths, once with the double buffer off (the
//             PR 2 single-buffer engine) and once on, reporting wall-clock
//             throughput, the measured stage/apply overlap window, and the
//             fraction of staging time hidden behind apply. At >= 2
//             threads the overlap must be > 0 — that is the pipeline
//             working; at 1 thread the pipeline degenerates and the two
//             configurations should tie.
//
// JSON metrics (tracked by bench/compare_bench.py):
//   pipeline_overlap{threads=T}       overlap seconds / stage seconds
//   pipeline_insert_rate{threads=T}   MEdge/s through the pipelined engine
//
//   ./build/micro_pipeline --json=BENCH_pipeline.json
//   flags: --batches=N --batch_exp=E --vertices_exp=E --threads=1,2,4 --quick
#include <cstdlib>
#include <string>
#include <vector>

#include "bench/bench_common.hpp"
#include "src/simt/thread_pool.hpp"
#include "src/util/prng.hpp"

namespace sg {
namespace {

std::vector<core::WeightedEdge> random_batch(std::uint64_t seed,
                                             std::size_t count,
                                             std::uint32_t num_vertices) {
  util::Xoshiro256 rng(seed);
  std::vector<core::WeightedEdge> batch(count);
  for (auto& e : batch) {
    e = {static_cast<core::VertexId>(rng.below(num_vertices)),
         static_cast<core::VertexId>(rng.below(num_vertices)),
         static_cast<core::Weight>(rng.below(1u << 16))};
  }
  return batch;
}

std::vector<unsigned> parse_thread_list(const util::Cli& cli) {
  std::vector<unsigned> threads;
  const std::string raw = cli.get("threads", "1,2,4");
  std::size_t pos = 0;
  while (pos < raw.size()) {
    const std::size_t comma = raw.find(',', pos);
    const std::string tok =
        raw.substr(pos, comma == std::string::npos ? raw.size() - pos
                                                   : comma - pos);
    if (!tok.empty()) {
      const long n = std::strtol(tok.c_str(), nullptr, 10);
      if (n > 0) threads.push_back(static_cast<unsigned>(n));
    }
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  return threads;
}

struct PipelineRun {
  double medges_per_s = 0.0;
  core::BatchPipelineStats stats;  // summed over batches
};

PipelineRun stream_batches(bool pipelined, std::uint32_t num_vertices,
                           const std::vector<std::vector<core::WeightedEdge>>&
                               batches) {
  core::GraphConfig cfg;
  cfg.vertex_capacity = num_vertices;
  // Single buffer: an epoch no batch reaches, so each runs as one epoch.
  cfg.pipeline_epoch_edges = UINT32_MAX;
  if (pipelined && !batches.empty()) {
    // Pin four epochs per batch so the quick grid pipelines too (auto mode
    // would run small batches as one epoch and measure nothing).
    cfg.pipeline_epoch_edges =
        static_cast<std::uint32_t>(batches.front().size() / 4);
  }
  core::DynGraphMap g(cfg);
  PipelineRun run;
  std::uint64_t total_edges = 0;
  util::Timer timer;
  for (const auto& batch : batches) {
    g.insert_edges(batch);
    const core::BatchPipelineStats& s = g.last_batch_stats();
    run.stats.epochs += s.epochs;
    run.stats.shards = s.shards;
    run.stats.stage_seconds += s.stage_seconds;
    run.stats.apply_seconds += s.apply_seconds;
    run.stats.overlap_seconds += s.overlap_seconds;
    total_edges += batch.size();
  }
  run.medges_per_s =
      util::mitems_per_second(double(total_edges), timer.seconds());
  return run;
}

void run_overlap(const bench::BenchContext& ctx,
                 const std::vector<unsigned>& threads, int vertices_exp,
                 int batch_exp, int num_batches) {
  const std::uint32_t num_vertices = 1u << vertices_exp;
  const std::size_t batch_size = std::size_t{1} << batch_exp;
  std::vector<std::vector<core::WeightedEdge>> batches;
  for (int b = 0; b < num_batches; ++b) {
    batches.push_back(random_batch(ctx.seed + b, batch_size, num_vertices));
  }

  util::Table table({"Threads", "Single-buf (MEdge/s)", "Pipelined (MEdge/s)",
                     "Stage (ms)", "Apply (ms)", "Overlap (ms)",
                     "Overlap frac"});
  for (const unsigned t : threads) {
    simt::ThreadPool::instance().resize(t);
    const PipelineRun single =
        stream_batches(false, num_vertices, batches);
    const PipelineRun piped = stream_batches(true, num_vertices, batches);
    const double overlap_frac =
        piped.stats.stage_seconds > 0.0
            ? piped.stats.overlap_seconds / piped.stats.stage_seconds
            : 0.0;
    table.add_row({std::to_string(t), util::Table::fmt(single.medges_per_s),
                   util::Table::fmt(piped.medges_per_s),
                   util::Table::fmt(piped.stats.stage_seconds * 1e3),
                   util::Table::fmt(piped.stats.apply_seconds * 1e3),
                   util::Table::fmt(piped.stats.overlap_seconds * 1e3),
                   util::Table::fmt(overlap_frac)});
    ctx.record("pipeline_insert_rate", piped.medges_per_s, "MEdge/s",
               {{"threads", std::to_string(t)},
                {"batch", "2^" + std::to_string(batch_exp)}});
    ctx.record("pipeline_overlap", overlap_frac, "fraction",
               {{"threads", std::to_string(t)},
                {"batch", "2^" + std::to_string(batch_exp)}});
  }
  simt::ThreadPool::instance().resize(0);
  ctx.emit(table, "Stage/apply overlap: " + std::to_string(num_batches) +
                      " batches of 2^" + std::to_string(batch_exp) +
                      " edges, V = 2^" + std::to_string(vertices_exp));
  bench::paper_shape_note(
      "overlap > 0 at >= 2 threads (staging hides behind apply); the "
      "1-thread pipeline degenerates and matches the single-buffer engine");
}

}  // namespace
}  // namespace sg

int main(int argc, char** argv) {
  const sg::util::Cli cli(argc, argv);
  const auto ctx =
      sg::bench::BenchContext::from_cli(cli, 1.0, "micro_pipeline");
  ctx.print_header("Batch pipeline: stage/apply overlap");
  const int vertices_exp = cli.get_int("vertices_exp", ctx.quick ? 15 : 17);
  const int batch_exp = cli.get_int("batch_exp", ctx.quick ? 14 : 16);
  const int num_batches = cli.get_int("batches", ctx.quick ? 4 : 8);
  sg::run_overlap(ctx, sg::parse_thread_list(cli), vertices_exp, batch_exp,
                  num_batches);
  ctx.write_json();
  return 0;
}
