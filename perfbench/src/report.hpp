// Shared plumbing of the repository benchmark: run options, the result a
// workload returns, latency percentiles, and the one-line result JSON.
// See perfbench/README.md for the workloads and metric definitions.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace perfbench {

/// Command-line options of one run.
struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Dataset scale override; 0 keeps the workload's default. Used by the
  /// self-tests (tiny inputs) and by the arena-vs-L3 anomaly baseline.
  double scale = 0.0;
  /// Self-test hook: corrupt one recorded answer before the correctness
  /// gate runs, which must then fail.
  bool corrupt = false;
  /// Scratch directory for journals and snapshots; the workload creates
  /// and deletes its own subdirectory here.
  std::string workdir = ".bench_build/tmp";
};

struct Metric {
  double value = 0.0;
  std::string unit;
};

/// What one workload run produced.
struct Result {
  bool correct = true;
  std::vector<std::string> mismatches;  ///< first few correctness failures
  std::uint64_t attempted = 0;          ///< operations in the timed region
  std::uint64_t failed = 0;  ///< rejected, shed, expired or thrown ones
  std::map<std::string, Metric> end_to_end;
  std::map<std::string, Metric> per_layer;
  /// Latency sample counts, by latency family (write, read, ...).
  std::map<std::string, std::uint64_t> samples;
  /// Reasons the run is invalid (generator fell behind, not Release, ...).
  std::vector<std::string> invalid;

  /// Records a correctness failure (keeps the first 8 messages).
  void mismatch(const std::string& what);
  void e2e(const std::string& name, double value, const char* unit) {
    end_to_end[name] = {value, unit};
  }
  void layer(const std::string& name, double value, const char* unit) {
    per_layer[name] = {value, unit};
  }
};

/// Nearest-rank percentile `p` (0 < p < 100) of `samples`, or nothing
/// unless at least `min_beyond` samples lie above the selected rank: a
/// tail percentile is only named when ten samples back it.
std::optional<double> percentile(std::vector<double> samples, double p,
                                 std::size_t min_beyond = 10);

/// Median of the samples (0 for none).
double median(std::vector<double> samples);

/// Median over consecutive windows of `window` samples (the last window
/// takes the remainder) of each window's median. With the samples in time
/// order, a burst of interference from the host that covers fewer than half
/// the windows leaves it unmoved, where the median of all samples would
/// shift.
double windowed_median(const std::vector<double>& samples, std::size_t window);

/// Records latency metric `name` (ms) at percentile `p` of `samples_ms`
/// with its sample count under `family`. An end-to-end metric without
/// enough samples marks the run invalid; a per-layer one reads 0. A p50
/// with `window` > 0 reads windowed_median(samples_ms, window).
void latency_metric(Result& r, const std::string& name, const char* family,
                    const std::vector<double>& samples_ms, double p,
                    bool end_to_end, std::size_t window = 0);

/// Monotonic clock in nanoseconds (steady_clock).
std::int64_t now_ns();
inline double seconds_between(std::int64_t a, std::int64_t b) {
  return static_cast<double>(b - a) * 1e-9;
}

/// The run-validity record: host and build facts stored with every result.
struct RunInfo {
  unsigned nproc = 0;
  unsigned pool_width = 0;
  std::string simd_backend;
  std::string build_type;
  std::string cxx_flags;
  std::string compiler;
  std::string git_commit;
};
RunInfo collect_run_info();

/// Prints the human-readable metric table and the validity record to
/// stdout, then the result JSON object as the last line.
void print_result(const Options& opt, const RunInfo& info, const Result& r);

}  // namespace perfbench
