#include <algorithm>
#include <filesystem>
#include <stdexcept>
#include <string>
#include <thread>

#include <unistd.h>

#include "perfbench/src/workloads.hpp"

namespace perfbench {

std::vector<MetricName> per_layer_metrics() {
  std::vector<MetricName> names = {
      {"core.batch_engine.stage_s", "s"},
      {"core.batch_engine.overlap_share", "ratio"},
      {"slabhash.apply_s", "s"},
      {"core.dyn_graph.other_s", "s"},
      {"slabhash.rehash_count", "count"},
      {"slabhash.rehash_s", "s"},
      {"slabhash.chain_slabs_mean", "slabs"},
      {"memory.bytes_reserved", "B"},
      {"memory.dynamic_slab_share", "ratio"},
      {"memory.released_chunks", "count"},
      {"memory.steady_flatness", "ratio"},
      {"shard.submit_us_p50", "us"},
      {"shard.submit_us_p99", "us"},
      {"shard.load_skew", "ratio"},
      {"core.phase_scheduler.fence_wait_s", "s"},
      {"core.phase_scheduler.phase_switches", "count"},
      {"core.phase_scheduler.coalesced", "count"},
      {"core.phase_scheduler.max_queue_depth", "count"},
      {"core.phase_scheduler.noop_fence_p50_ms", "ms"},
      {"persist.append_ms", "ms"},
      {"persist.journal_bytes_per_edge", "B"},
      {"persist.snapshot_ms", "ms"},
      {"stream.insert_s", "s"},
      {"stream.age_s", "s"},
      {"stream.analytics_s", "s"},
      {"stream.compact_s", "s"},
      {"stream.age_us_per_aged_edge", "us"},
      {"stream.age_share", "ratio"},
      {"analytics.gather_s", "s"},
      {"analytics.bfs_self_s", "s"},
      {"simt.pool_width", "count"},
      {"gen.late_p99_ms", "ms"},
      {"gen.backlog_end", "count"},
      {"gen.offered_share", "ratio"},
      {"epoch_p95_ms", "ms"},
      {"write_p99_ms", "ms"},
      {"read_p99_ms", "ms"},
      {"failed_share", "ratio"},
      {"samples.write", "count"},
      {"samples.read", "count"},
      {"samples.analytics", "count"},
      {"samples.epoch", "count"},
      {"trace.unattributed_share", "ratio"},
      {"trace.overhead_share", "ratio"},
  };
  for (const char* layer : kLayers) {
    names.push_back({std::string("trace.self_share.") + layer, "ratio"});
  }
  return names;
}

Result run_workload(const Options& opt) {
  if (opt.workload == "batch-powerlaw") return run_batch_powerlaw(opt);
  if (opt.workload == "tier-serve") return run_tier_serve(opt);
  if (opt.workload == "window-stream") return run_window_stream(opt);
  throw std::invalid_argument("unknown workload: " + opt.workload);
}

unsigned pool_width(const std::string& workload) {
  const unsigned nproc = std::max(1u, std::thread::hardware_concurrency());
  return workload == "tier-serve" ? tier_serve_pool_width(nproc) : nproc;
}

void report_trace(Result& r, const Tracer& tracer, double untraced_s_per_unit,
                  double traced_s_per_unit) {
  const Attribution a = attribute(tracer.spans());
  const double wall = a.wall_s > 0.0 ? a.wall_s : 1.0;
  for (const char* layer : kLayers) {
    const auto it = a.self_s.find(layer);
    r.layer(std::string("trace.self_share.") + layer,
            it == a.self_s.end() ? 0.0 : it->second / wall, "ratio");
  }
  r.layer("trace.unattributed_share", a.unattributed_s / wall, "ratio");
  r.layer("trace.overhead_share",
          untraced_s_per_unit > 0.0
              ? traced_s_per_unit / untraced_s_per_unit - 1.0
              : 0.0,
          "ratio");
}

ScratchDir::ScratchDir(const Options& opt, const char* tag)
    : path_((std::filesystem::path(opt.workdir) /
             (std::string(tag) + "-" + std::to_string(::getpid())))
                .string()) {
  std::filesystem::remove_all(path_);
  std::filesystem::create_directories(path_);
}

ScratchDir::~ScratchDir() {
  std::error_code ec;
  std::filesystem::remove_all(path_, ec);
}

}  // namespace perfbench
