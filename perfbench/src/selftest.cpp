// Self-tests of the benchmark itself: percentile selection, the open-loop
// schedule, span self-time arithmetic, and each workload's correctness
// gate (passes on the library as built, fails on a deliberately wrong
// answer). Run with `python3 perfbench/run.py --selftest`.
#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "perfbench/src/open_loop.hpp"
#include "perfbench/src/trace.hpp"
#include "perfbench/src/workloads.hpp"
#include "src/simt/thread_pool.hpp"

namespace {

int g_failures = 0;
std::string g_workdir = ".bench_build/tmp";

void expect(bool ok, const std::string& what) {
  std::printf("%s  %s\n", ok ? "ok  " : "FAIL", what.c_str());
  if (!ok) ++g_failures;
}

bool near(double a, double b) { return std::fabs(a - b) < 1e-9; }

void test_percentiles() {
  using perfbench::percentile;
  std::vector<double> v;
  for (int i = 1; i <= 1000; ++i) v.push_back(1001 - i);  // unsorted input
  const auto p99 = percentile(v, 99);
  expect(p99 && *p99 == 990, "p99 of 1000 samples is rank 990, 10 beyond it");
  v.pop_back();
  expect(!percentile(v, 99), "p99 of 999 samples is refused (9 beyond)");
  std::vector<double> w(200);
  for (int i = 0; i < 200; ++i) w[i] = i;
  expect(percentile(w, 95) == 189.0, "p95 of 200 samples has 10 beyond it");
  w.resize(199);
  expect(!percentile(w, 95), "p95 of 199 samples is refused");
  expect(!percentile(std::vector<double>(19, 1.0), 50),
         "p50 of 19 samples is refused (9 beyond)");
  expect(perfbench::median({3, 1, 2}) == 2 &&
             perfbench::median({4, 1, 3, 2}) == 2.5,
         "median of odd and even counts");
}

void test_open_loop_does_not_slip() {
  const perfbench::OpenLoopSchedule schedule{1000, 100.0};
  std::int64_t clock = 0;
  std::vector<std::int64_t> dues, sends;
  int sleeps = 0;
  perfbench::drive_open_loop(
      schedule, 20, [&] { return clock; },
      [&](std::int64_t t) {
        ++sleeps;
        clock = t;
      },
      [&](std::uint64_t i, std::int64_t due) {
        dues.push_back(due);
        sends.push_back(clock);
        if (i == 3) clock += 1000;  // this submit stalls for 10 periods
      });
  bool fixed = true;
  for (std::size_t i = 0; i < dues.size(); ++i) {
    fixed = fixed && dues[i] == 1000 + 100 * std::int64_t(i);
  }
  expect(fixed, "due times stay on the schedule after a stalled submit");
  bool burst = true;
  for (std::size_t i = 4; i <= 13; ++i) burst = burst && sends[i] == 2300;
  expect(burst, "submissions behind the stall go out at once, unslept");
  expect(sends[14] == dues[14] && sends[19] == dues[19],
         "the generator is back on schedule once caught up");
  expect(sleeps == 4 + 6, "it sleeps only while ahead of the schedule");
}

void test_self_time() {
  perfbench::Tracer t(true);
  // Root 0..100 with children a = 10..50 and b = 40..70 (overlapping,
  // as concurrent calls are), and c = 20..30 inside a.
  const auto root = t.record("", 0, 100'000'000, 0, 1);
  const auto a = t.record("core.dyn_graph", 10'000'000, 50'000'000, root, 1);
  t.record("slabhash", 40'000'000, 70'000'000, root, 1);
  t.record("slabhash", 20'000'000, 30'000'000, a, 1);
  // A second root (another round) 200..210 with one child covering it.
  const auto root2 = t.record("", 200'000'000, 210'000'000, 0, 2);
  t.record("memory", 195'000'000, 215'000'000, root2, 2);  // overhangs
  const perfbench::Attribution at = perfbench::attribute(t.spans());
  expect(near(at.wall_s, 0.110), "traced wall sums the root spans");
  expect(near(at.self_s.at("core.dyn_graph"), 0.030),
         "self time = duration minus covered child time");
  expect(near(at.self_s.at("slabhash"), 0.040),
         "self times of one layer sum across spans");
  expect(near(at.self_s.at("memory"), 0.010),
         "a child counts only the part inside its parent");
  expect(near(at.unattributed_s, 0.110 - 0.030 - 0.040 - 0.010),
         "unattributed = wall minus the sum of layer self times");
}

void test_gate(const char* workload, double scale) {
  for (const bool corrupt : {false, true}) {
    perfbench::Options opt;
    opt.workload = workload;
    opt.seed = 7;
    opt.seconds = 0.5;
    opt.scale = scale;
    opt.corrupt = corrupt;
    opt.workdir = g_workdir;
    sg::simt::ThreadPool::instance().resize(perfbench::pool_width(workload));
    const perfbench::Result r = perfbench::run_workload(opt);
    expect(r.correct != corrupt,
           std::string(workload) +
               (corrupt ? ": a wrong answer trips the correctness gate"
                        : ": the gate passes on the library as built"));
  }
}

}  // namespace

int main(int argc, char** argv) {
  if (argc == 3 && std::strcmp(argv[1], "--workdir") == 0) g_workdir = argv[2];
  test_percentiles();
  test_open_loop_does_not_slip();
  test_self_time();
  test_gate("batch-powerlaw", 0.25);
  test_gate("tier-serve", 0.25);
  test_gate("window-stream", 0.25);
  std::printf("%d failure(s)\n", g_failures);
  return g_failures == 0 ? 0 : 1;
}
