// perfbench: one run of one workload of the repository benchmark.
//
//   perfbench --workload <batch-powerlaw|tier-serve|window-stream>
//             --seed <n> --seconds <s> --trace <0|1> [--scale <x>]
//             [--workdir <dir>]
//
// Prints the metric table, the run-validity record, and as its last line
// the JSON object {"correct", "attempted", "failed", "metrics"}. Exit codes:
// 0 ok, 1 a correctness mismatch, 2 bad arguments or a failed run, 3 an
// invalid run (the measurement is not trustworthy; no JSON line).
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "perfbench/src/workloads.hpp"
#include "src/simt/thread_pool.hpp"

namespace {

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--scale <x>]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options opt;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* value = argv[i + 1];
    if (key == "--workload") {
      opt.workload = value;
    } else if (key == "--seed") {
      opt.seed = std::strtoull(value, nullptr, 10);
    } else if (key == "--seconds") {
      opt.seconds = std::strtod(value, nullptr);
    } else if (key == "--trace") {
      opt.trace = std::string(value) == "1";
    } else if (key == "--scale") {
      opt.scale = std::strtod(value, nullptr);
    } else if (key == "--workdir") {
      opt.workdir = value;
    } else {
      return usage(("unknown flag " + key).c_str());
    }
  }
  if (argc % 2 == 0) return usage("flags come in pairs");
  if (opt.workload.empty()) return usage("--workload is required");
  if (!(opt.seconds > 0.0)) return usage("--seconds must be positive");

  sg::simt::ThreadPool::instance().resize(perfbench::pool_width(opt.workload));

  perfbench::Result r;
  try {
    r = perfbench::run_workload(opt);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", opt.workload.c_str(),
                 e.what());
    return 2;
  }
  if (std::string(PERFBENCH_BUILD_TYPE) != "Release") {
    r.invalid.push_back(std::string("build type is ") + PERFBENCH_BUILD_TYPE +
                        ", not Release");
  }
  // Every workload reports every metric of the run's kind; a per-layer
  // metric a workload leaves unset reads 0 (layer not on its path).
  if (opt.trace) {
    for (const auto& m : perfbench::per_layer_metrics()) {
      if (!r.per_layer.count(m.name)) r.layer(m.name, 0.0, m.unit);
    }
  } else {
    for (const auto& m : perfbench::end_to_end_metrics()) {
      if (!r.end_to_end.count(m.name)) {
        r.invalid.push_back("workload did not report " + m.name);
      }
    }
  }
  const perfbench::RunInfo info = perfbench::collect_run_info();
  if (!r.invalid.empty() && r.correct) {
    for (const auto& why : r.invalid) {
      std::fprintf(stderr, "perfbench: invalid run: %s\n", why.c_str());
    }
    perfbench::print_result(opt, info, r);
    std::printf("INVALID run: not a measurement\n");
    return 3;
  }
  perfbench::print_result(opt, info, r);
  return r.correct ? 0 : 1;
}
