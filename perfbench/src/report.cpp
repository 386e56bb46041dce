#include "perfbench/src/report.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <thread>

#include "src/simt/simd.hpp"
#include "src/simt/thread_pool.hpp"

namespace perfbench {

void Result::mismatch(const std::string& what) {
  correct = false;
  if (mismatches.size() < 8) mismatches.push_back(what);
}

std::optional<double> percentile(std::vector<double> samples, double p,
                                 std::size_t min_beyond) {
  const std::size_t n = samples.size();
  if (n == 0 || p <= 0.0 || p >= 100.0) return std::nullopt;
  auto rank = static_cast<std::size_t>(std::ceil(p / 100.0 * double(n)));
  rank = std::clamp<std::size_t>(rank, 1, n);
  if (n - rank < min_beyond) return std::nullopt;
  std::nth_element(samples.begin(), samples.begin() + (rank - 1),
                   samples.end());
  return samples[rank - 1];
}

double median(std::vector<double> samples) {
  if (samples.empty()) return 0.0;
  const std::size_t mid = samples.size() / 2;
  std::nth_element(samples.begin(), samples.begin() + mid, samples.end());
  if (samples.size() % 2 == 1) return samples[mid];
  const double hi = samples[mid];
  const double lo = *std::max_element(samples.begin(), samples.begin() + mid);
  return (lo + hi) / 2.0;
}

double windowed_median(const std::vector<double>& samples,
                       std::size_t window) {
  window = std::max<std::size_t>(1, window);
  const std::size_t count = std::max<std::size_t>(1, samples.size() / window);
  std::vector<double> medians;
  for (std::size_t w = 0; w < count; ++w) {
    const auto first = samples.begin() + std::ptrdiff_t(w * window);
    const auto last = w + 1 == count ? samples.end()
                                     : first + std::ptrdiff_t(window);
    medians.push_back(median({first, last}));
  }
  return median(medians);
}

void latency_metric(Result& r, const std::string& name, const char* family,
                    const std::vector<double>& samples_ms, double p,
                    bool end_to_end, std::size_t window) {
  r.samples[family] = samples_ms.size();
  std::optional<double> v = percentile(samples_ms, p);
  if (v && p == 50.0 && window > 0) v = windowed_median(samples_ms, window);
  if (end_to_end) {
    if (!v) {
      r.invalid.push_back(name + ": " + std::to_string(samples_ms.size()) +
                          " samples are too few for this percentile");
    }
    r.e2e(name, v.value_or(0.0), "ms");
  } else {
    r.layer(name, v.value_or(0.0), "ms");
  }
}

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

RunInfo collect_run_info() {
  RunInfo info;
  info.nproc = std::max(1u, std::thread::hardware_concurrency());
  info.pool_width = sg::simt::ThreadPool::instance().requested();
  info.simd_backend = sg::simt::probe_uses_simd() ? "avx2" : "portable";
  info.build_type = PERFBENCH_BUILD_TYPE;
  info.cxx_flags = PERFBENCH_CXX_FLAGS;
  info.compiler = PERFBENCH_COMPILER;
  const char* commit = std::getenv("PERFBENCH_GIT_COMMIT");
  info.git_commit = commit != nullptr && commit[0] != '\0' ? commit : "unknown";
  return info;
}

namespace {

/// JSON number (NaN/inf print as 0) and string helpers.
std::string json_number(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string metrics_json(const std::map<std::string, Metric>& metrics) {
  std::string out = "{";
  bool first = true;
  for (const auto& [name, m] : metrics) {
    if (!first) out += ", ";
    first = false;
    out += json_string(name) + ": {\"value\": " + json_number(m.value) +
           ", \"unit\": " + json_string(m.unit) + "}";
  }
  return out + "}";
}

}  // namespace

void print_result(const Options& opt, const RunInfo& info, const Result& r) {
  const auto& metrics = opt.trace ? r.per_layer : r.end_to_end;
  std::printf("workload %s  seed %llu  %s run\n", opt.workload.c_str(),
              static_cast<unsigned long long>(opt.seed),
              opt.trace ? "traced" : "timed");
  for (const auto& [name, m] : metrics) {
    std::printf("  %-44s %14.6g %s\n", name.c_str(), m.value, m.unit.c_str());
  }
  std::string samples;
  for (const auto& [family, n] : r.samples) {
    samples += (samples.empty() ? "" : ", ") + family + "=" +
               std::to_string(n);
  }
  std::printf("  latency samples: %s\n", samples.c_str());
  for (const auto& m : r.mismatches) std::printf("  MISMATCH: %s\n", m.c_str());

  std::string invalid = "[";
  for (std::size_t i = 0; i < r.invalid.size(); ++i) {
    invalid += (i ? ", " : "") + json_string(r.invalid[i]);
  }
  invalid += "]";
  std::printf(
      "run-info: {\"nproc\": %u, \"pool_width\": %u, \"simd\": %s, "
      "\"build_type\": %s, \"cxx_flags\": %s, \"compiler\": %s, "
      "\"git_commit\": %s, \"valid\": %s, \"invalid\": %s}\n",
      info.nproc, info.pool_width, json_string(info.simd_backend).c_str(),
      json_string(info.build_type).c_str(), json_string(info.cxx_flags).c_str(),
      json_string(info.compiler).c_str(), json_string(info.git_commit).c_str(),
      r.invalid.empty() ? "true" : "false", invalid.c_str());
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": %s}\n",
      r.correct ? "true" : "false",
      static_cast<unsigned long long>(r.attempted),
      static_cast<unsigned long long>(r.failed), metrics_json(metrics).c_str());
  std::fflush(stdout);
}

}  // namespace perfbench
