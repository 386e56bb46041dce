// In-memory span recorder for the traced run (--trace 1).
//
// The benchmark opens a span around each call it makes into a layer of the
// library; where the library itself reports a layer's share of a call
// (stage/apply windows, EpochStats), the benchmark records that share as a
// derived child span inside the call. Spans stay in memory and are reduced
// once the run ends: a layer's self time is its spans' durations minus the
// time their child spans cover.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

/// Layer names of the library's request path (see README.md).
inline constexpr const char* kLayers[] = {
    "shard",  "core.phase_scheduler", "core.dyn_graph", "core.batch_engine",
    "slabhash", "memory", "persist", "stream", "analytics", "simt"};

struct Span {
  std::uint32_t id = 0;      ///< 1-based
  std::uint32_t parent = 0;  ///< 0 = none
  std::string layer;         ///< empty for the run's root span
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint64_t op = 0;  ///< round / epoch / submission id its spans share
};

class Tracer {
 public:
  static constexpr std::uint32_t kInherit = 0xFFFFFFFFu;

  explicit Tracer(bool enabled) : enabled_(enabled) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  bool enabled() const noexcept { return enabled_; }

  /// Opens a span now. Its parent is `parent`, or with kInherit the
  /// innermost span still open on the calling thread. Returns 0 when
  /// tracing is off.
  std::uint32_t open(const char* layer, std::uint64_t op,
                     std::uint32_t parent = kInherit);
  /// Closes span `id` now (no-op for 0).
  void close(std::uint32_t id);
  /// Records a finished span with explicit times: a layer's share of an
  /// enclosing call, as the library's own counters report it.
  std::uint32_t record(const char* layer, std::int64_t start_ns,
                       std::int64_t end_ns, std::uint32_t parent,
                       std::uint64_t op);
  /// Moves span `id` under `parent` (spans recorded on another thread
  /// before their parent's extent was known).
  void reparent(std::uint32_t id, std::uint32_t parent);
  std::vector<Span> spans() const;

 private:
  const bool enabled_;
  mutable std::mutex mutex_;
  std::vector<Span> spans_;  ///< guarded by mutex_; index = id - 1
};

/// Self-time reduction of a trace.
struct Attribution {
  double wall_s = 0.0;                   ///< summed root span durations
  std::map<std::string, double> self_s;  ///< by layer, below the roots
  double unattributed_s = 0.0;           ///< wall - sum of layer self times
};

/// A span's self time is its duration minus the union of its children's
/// intervals (clipped to it). Roots are the spans without a parent (one per
/// round, epoch or submission, so benchmark-side input generation between
/// them is not traced wall time); layer self times sum over their
/// descendants, and the rest of the roots' duration is unattributed.
Attribution attribute(const std::vector<Span>& spans);

}  // namespace perfbench
