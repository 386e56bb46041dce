// The three workloads of the repository benchmark and the metric names
// they report. The names are fixed: later changes cite them when they
// claim a gain (README.md has the definitions and the prediction table).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "perfbench/src/report.hpp"
#include "perfbench/src/trace.hpp"

namespace perfbench {

struct MetricName {
  std::string name;
  const char* unit;
};

/// Seed of the dataset analogs. A dataset stands in for a fixed real graph
/// (as in the paper's tables), so it does not change with --seed; --seed
/// drives every operation a workload applies to it.
inline constexpr std::uint64_t kDatasetSeed = 42;

/// Gated end-to-end metrics; every workload reports every one.
inline const std::vector<MetricName>& end_to_end_metrics() {
  static const std::vector<MetricName> names = {
      {"setup_s", "s"},           {"insert_medges_s", "Medge/s"},
      {"erase_medges_s", "Medge/s"}, {"query_mq_s", "MQuery/s"},
      {"write_p50_ms", "ms"},     {"read_p50_ms", "ms"},
      {"analytics_p50_ms", "ms"}, {"stream_medges_s", "Medge/s"},
      {"epoch_p50_ms", "ms"},     {"bytes_per_edge", "B"},
  };
  return names;
}

/// Per-layer metrics of the traced run. A workload that does not exercise
/// a layer, or lacks the samples a tail percentile needs, reports 0.
std::vector<MetricName> per_layer_metrics();

Result run_batch_powerlaw(const Options& opt);
Result run_tier_serve(const Options& opt);
Result run_window_stream(const Options& opt);

/// Dispatches on opt.workload; throws std::invalid_argument if unknown.
Result run_workload(const Options& opt);

/// Thread-pool width a workload runs with. Each shard of tier-serve has its
/// own conductor thread that runs the shard's batches, so the shards are
/// that workload's parallelism: its pool gets nproc / shards threads (1 =
/// inline on each conductor), which keeps the tier's busy threads at nproc.
/// Every other workload has one caller and a pool of nproc threads.
unsigned pool_width(const std::string& workload);
unsigned tier_serve_pool_width(unsigned nproc);

// ---- helpers shared by the workloads ----------------------------------

/// Ends a traced run: self-time shares of every layer, the
/// trace.unattributed_share, and trace.overhead_share from the wall time
/// per unit of work (round, epoch, cycle) with tracing on against off.
void report_trace(Result& r, const Tracer& tracer, double untraced_s_per_unit,
                  double traced_s_per_unit);

/// A directory under opt.workdir private to this run, created empty and
/// removed with everything in it on destruction.
class ScratchDir {
 public:
  ScratchDir(const Options& opt, const char* tag);
  ~ScratchDir();
  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;
  const std::string& path() const noexcept { return path_; }

 private:
  std::string path_;
};

}  // namespace perfbench
