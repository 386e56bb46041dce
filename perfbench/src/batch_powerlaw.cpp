// batch-powerlaw: the paper's workload (Tables II-IV) on the synchronous
// DynGraphMap API. Half of the soc-LiveJournal1 R-MAT analog is bulk-built
// as the preload; one caller then runs rounds of insert_edges (2^16: half
// new edges, half weight refreshes), edges_exist (2^16, half hits), a
// gather_neighbors read of 2^15 fixed vertices, and delete_edges (2^15
// live edges). Deleted edges return to the pool new edges are drawn from,
// so the edge count stays steady; the arena starts above the L3 cache.
//
// Deletions leave tombstones the arena does not reclaim and auto-rehash
// fires as chains grow, so the graph's state drifts with every round. A run
// therefore repeats one cycle: the preload is bulk-built afresh and the same
// kCycleRounds rounds are replayed. Every cycle does the same work from the
// same state, so the medians do not depend on how many rounds a run fits
// in its seconds, and each rebuild is one more setup_s sample.
#include <algorithm>
#include <array>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "perfbench/src/edge_pool.hpp"
#include "perfbench/src/model.hpp"
#include "perfbench/src/workloads.hpp"
#include "src/core/dyn_graph.hpp"
#include "src/datasets/suite.hpp"
#include "src/simt/thread_pool.hpp"

namespace perfbench {
namespace {

using sg::core::BatchPipelineStats;
using sg::core::DynGraphMap;
using sg::core::GraphConfig;

constexpr double kScale = 8.0;  // 524288 vertices; arena ~112 MiB
constexpr std::size_t kInsertBatch = std::size_t{1} << 16;
constexpr std::size_t kQueryBatch = std::size_t{1} << 16;
constexpr std::size_t kEraseBatch = std::size_t{1} << 15;
constexpr std::size_t kGatherVertices = std::size_t{1} << 15;
constexpr std::size_t kGatherCheckEvery = 16;  // rounds whose gather is kept
constexpr int kSetups = 1;  // each later cycle adds a sample
constexpr int kChainProbeEvery = 16;  // rounds between memory_stats reads
/// Rounds per cycle; bytes_per_edge is read at the end of the first cycle.
constexpr std::size_t kCycleRounds = 100;

struct Round {
  std::vector<WeightedEdge> insert;
  std::vector<Edge> query;
  std::vector<Edge> erase;
};

/// One cycle's inputs, drawn from an EdgePool: the preload, the fixed
/// vertex sample every round gathers, and kCycleRounds rounds.
struct Cycle {
  std::vector<WeightedEdge> preload;
  std::vector<VertexId> gather;
  std::vector<Round> rounds;
};

Cycle make_cycle(const sg::datasets::Coo& coo, std::uint64_t seed) {
  EdgePool pool(coo, seed);
  Cycle c;
  c.preload = pool.present();
  for (std::size_t i = 0; i < kGatherVertices; ++i) {
    c.gather.push_back(pool.vertex());
  }
  c.rounds.resize(kCycleRounds);
  for (Round& r : c.rounds) {
    r.insert.resize(kInsertBatch);
    for (std::size_t i = 0; i < kInsertBatch; ++i) {
      r.insert[i] = i % 2 == 0 ? pool.add() : pool.refresh();
    }
    r.query.resize(kQueryBatch);
    for (std::size_t i = 0; i < kQueryBatch; ++i) r.query[i] = pool.query(i);
    r.erase.resize(kEraseBatch);
    for (Edge& e : r.erase) e = pool.erase();
  }
  return c;
}

/// True when every vertex's neighbor list in `a` and `b` holds the same
/// set (the order within a list follows the slab layout, which may differ).
bool same_gather(const sg::core::GatherResult& a,
                 const sg::core::GatherResult& b) {
  if (a.offsets != b.offsets) return false;
  std::vector<VertexId> x, y;
  for (std::size_t k = 0; k + 1 < a.offsets.size(); ++k) {
    const auto sa = a.neighbors_of(k), sb = b.neighbors_of(k);
    x.assign(sa.begin(), sa.end());
    y.assign(sb.begin(), sb.end());
    std::sort(x.begin(), x.end());
    std::sort(y.begin(), y.end());
    if (x != y) return false;
  }
  return true;
}

double arena_bytes_per_edge(const DynGraphMap& g) {
  return static_cast<double>(g.arena_stats().bytes_reserved()) /
         static_cast<double>(std::max<std::uint64_t>(1, g.num_edges()));
}

/// What the correctness gate replays: every answer of the first cycle.
/// Later cycles repeat it, so their answers must equal these.
struct Answers {
  std::vector<std::uint64_t> inserted, erased;
  std::vector<std::vector<std::uint8_t>> exists;
  std::vector<sg::core::GatherResult> gathered;  ///< empty when not kept
};

/// Per-call layer split reported by the engine.
struct LayerSums {
  double stage = 0, apply = 0, overlap = 0, other = 0;
  double insert_stage = 0, insert_overlap = 0;
  std::vector<double> insert_other, rehash_other;
  std::uint64_t rehashes = 0;
  std::vector<double> chain_means;

  /// Folds one call of `wall` seconds, records derived child spans, and
  /// returns the call's time outside stage and apply.
  double add(const BatchPipelineStats& s, double wall, Tracer& tr,
             std::uint32_t call, std::int64_t t0) {
    stage += s.stage_seconds;
    apply += s.apply_seconds;
    overlap += s.overlap_seconds;
    const double busy = s.stage_seconds + s.apply_seconds - s.overlap_seconds;
    const double rest = std::max(0.0, wall - busy);
    other += rest;
    if (!tr.enabled()) return rest;
    const auto st = static_cast<std::int64_t>(s.stage_seconds * 1e9);
    const auto ap = static_cast<std::int64_t>(s.apply_seconds * 1e9);
    const auto ov = static_cast<std::int64_t>(s.overlap_seconds * 1e9);
    // Staging hidden behind apply (the double buffer's overlap) counts as
    // apply time, so the two spans tile the engine's busy window.
    tr.record("core.batch_engine", t0, t0 + st - ov, call, 0);
    tr.record("slabhash", t0 + st - ov, t0 + st - ov + ap, call, 0);
    return rest;
  }
};

/// Replays the first cycle against the model, one model part per thread.
void check(const sg::datasets::Coo& coo, const Cycle& cycle,
           const Answers& ans, const DynGraphMap& g, Result& r) {
  constexpr std::uint32_t kParts = 4;
  std::vector<EdgeMapModel> parts;
  for (std::uint32_t p = 0; p < kParts; ++p) {
    parts.emplace_back(coo.num_vertices, p, kParts, coo.edges.size());
  }
  std::array<std::string, kParts> errors;
  auto run_parts = [&](auto&& fn) {
    std::vector<std::jthread> workers;
    for (std::uint32_t p = 0; p < kParts; ++p) {
      workers.emplace_back([&, p] { fn(parts[p], errors[p]); });
    }
  };
  run_parts([&](EdgeMapModel& m, std::string&) { m.insert(cycle.preload); });

  const std::vector<VertexId>& gv = cycle.gather;
  for (std::size_t i = 0; i < cycle.rounds.size(); ++i) {
    const Round& cur = cycle.rounds[i];
    std::array<std::uint64_t, kParts> added{}, removed{};
    run_parts([&](EdgeMapModel& m, std::string& err) {
      const std::size_t p = &m - parts.data();
      added[p] = m.insert(cur.insert);
      for (std::size_t q = 0; q < cur.query.size() && err.empty(); ++q) {
        const Edge e = cur.query[q];
        if (m.owns(e.src) &&
            m.contains(e.src, e.dst) != (ans.exists[i][q] != 0)) {
          err = "edges_exist answer " + std::to_string(q) +
                " differs from the model";
        }
      }
      // A gathered slice equals the model's adjacency when it has the
      // model's degree, holds no duplicate, and every entry is live.
      std::vector<VertexId> got;
      const bool kept = !ans.gathered[i].offsets.empty();
      for (std::size_t k = 0; kept && k < gv.size() && err.empty(); ++k) {
        if (!m.owns(gv[k])) continue;
        const auto slice = ans.gathered[i].neighbors_of(k);
        got.assign(slice.begin(), slice.end());
        std::sort(got.begin(), got.end());
        bool same = got.size() == m.degree(gv[k]) &&
                    std::adjacent_find(got.begin(), got.end()) == got.end();
        for (std::size_t j = 0; same && j < got.size(); ++j) {
          same = m.contains(gv[k], got[j]);
        }
        if (!same) {
          err = "gather_neighbors of vertex " + std::to_string(gv[k]) +
                " differs from the model";
        }
      }
      removed[p] = m.erase(cur.erase);
    });
    const std::string at = "round " + std::to_string(i) + ": ";
    for (std::string& err : errors) {
      if (!err.empty()) r.mismatch(at + err);
      err.clear();
    }
    if (added[0] + added[1] + added[2] + added[3] != ans.inserted[i]) {
      r.mismatch(at + "insert_edges count differs from the model");
    }
    if (removed[0] + removed[1] + removed[2] + removed[3] != ans.erased[i]) {
      r.mismatch(at + "delete_edges count differs from the model");
    }
  }

  std::array<std::uint64_t, kParts> seen{};
  run_parts([&](EdgeMapModel& m, std::string& err) {
    const std::size_t p = &m - parts.data();
    for (VertexId u = static_cast<VertexId>(p);
         u < coo.num_vertices && err.empty(); u += kParts) {
      g.for_each_neighbor(u, [&](VertexId v, Weight w) {
        const Weight* want = m.find(u, v);
        ++seen[p];
        if ((want == nullptr || *want != w) && err.empty()) {
          err = "final edge (" + std::to_string(u) + ", " + std::to_string(v) +
                ") or its weight differs from the model";
        }
      });
    }
  });
  std::uint64_t model_size = 0, seen_total = 0;
  for (std::uint32_t p = 0; p < kParts; ++p) {
    if (!errors[p].empty()) r.mismatch(errors[p]);
    model_size += parts[p].size();
    seen_total += seen[p];
  }
  if (g.num_edges() != model_size || seen_total != model_size) {
    r.mismatch("final edge count " + std::to_string(g.num_edges()) +
               " (iterated " + std::to_string(seen_total) + ") != model " +
               std::to_string(model_size));
  }
}

}  // namespace

Result run_batch_powerlaw(const Options& opt) {
  Result r;
  const sg::datasets::Coo coo = sg::datasets::make_dataset(
      "soc-LiveJournal1", opt.scale > 0 ? opt.scale : kScale, kDatasetSeed);
  GraphConfig cfg;
  cfg.vertex_capacity = coo.num_vertices;

  const Cycle cyc = make_cycle(coo, opt.seed);
  std::unique_ptr<DynGraphMap> g;
  std::vector<double> setups;
  const auto build = [&] {
    g.reset();
    const std::int64_t t0 = now_ns();
    g = std::make_unique<DynGraphMap>(cfg);
    g->bulk_build(cyc.preload);
    setups.push_back(seconds_between(t0, now_ns()));
  };
  for (int i = 0; i < kSetups; ++i) build();
  const std::uint64_t arena_start = g->arena_stats().bytes_reserved();

  Tracer off(false), on(true);
  Answers ans;
  sg::core::GatherResult gathered;
  std::vector<std::uint8_t> exists;
  std::vector<double> insert_ms, erase_ms, write_ms, read_ms, gather_ms,
      round_ms;
  LayerSums layers;
  // A traced run traces odd rounds only; even rounds give the untraced
  // time per round that trace.overhead_share compares against.
  double parity_s[2] = {0, 0};
  std::size_t parity_n[2] = {0, 0};

  double spent = 0;
  double bytes_per_edge = 0;
  std::uint64_t n = 0;  // rounds run, over all cycles
  for (std::size_t cycle = 0; cycle == 0 || spent < opt.seconds; ++cycle) {
    if (cycle > 0) build();
    for (std::size_t i = 0; i < kCycleRounds; ++i, ++n) {
      Tracer& tr = opt.trace && n % 2 == 1 ? on : off;
      const Round& rd = cyc.rounds[i];
      const std::uint64_t rehash_before = g->auto_rehash_triggers();
      const std::uint32_t root = tr.open("", n, 0);

      std::uint32_t span = tr.open("core.dyn_graph", n);
      const std::int64_t t0 = now_ns();
      const std::uint64_t inserted = g->insert_edges(rd.insert);
      const std::int64_t t1 = now_ns();
      tr.close(span);
      const BatchPipelineStats is = g->last_batch_stats();
      const double other =
          layers.add(is, seconds_between(t0, t1), tr, span, t0);
      layers.insert_stage += is.stage_seconds;
      layers.insert_overlap += is.overlap_seconds;
      const std::uint64_t fired = g->auto_rehash_triggers() - rehash_before;
      layers.rehashes += fired;
      (fired ? layers.rehash_other : layers.insert_other).push_back(other);

      exists.resize(rd.query.size());
      span = tr.open("core.dyn_graph", n);
      const std::int64_t t2 = now_ns();
      g->edges_exist(rd.query, exists.data());
      const std::int64_t t3 = now_ns();
      tr.close(span);
      layers.add(g->last_query_stats(), seconds_between(t2, t3), tr, span, t2);

      span = tr.open("analytics", n);
      const std::int64_t t4 = now_ns();
      g->gather_neighbors(cyc.gather, gathered.offsets,
                          gathered.neighbors);
      const std::int64_t t5 = now_ns();
      tr.close(span);

      span = tr.open("core.dyn_graph", n);
      const std::int64_t t6 = now_ns();
      const std::uint64_t erased = g->delete_edges(rd.erase);
      const std::int64_t t7 = now_ns();
      tr.close(span);
      layers.add(g->last_batch_stats(), seconds_between(t6, t7), tr, span, t6);
      tr.close(root);

      insert_ms.push_back(seconds_between(t0, t1) * 1e3);
      erase_ms.push_back(seconds_between(t6, t7) * 1e3);
      write_ms.push_back(insert_ms.back() + erase_ms.back());
      read_ms.push_back(seconds_between(t2, t3) * 1e3);
      gather_ms.push_back(seconds_between(t4, t5) * 1e3);
      const double round = seconds_between(t0, t1) + seconds_between(t2, t3) +
                           seconds_between(t4, t5) + seconds_between(t6, t7);
      round_ms.push_back(round * 1e3);
      spent += round;
      // The first round of a cycle starts on a freshly built graph, and the
      // round after a memory_stats probe with caches the probe's full-table
      // walk evicted; neither counts toward either side.
      if (i != 0 && i % kChainProbeEvery != 1) {
        parity_s[n % 2] += round;
        ++parity_n[n % 2];
      }
      if (opt.trace && i % kChainProbeEvery == 0) {
        layers.chain_means.push_back(g->memory_stats().avg_chain_length());
      }

      const bool keep_gather = i % kGatherCheckEvery == 0;
      if (cycle == 0) {
        ans.inserted.push_back(inserted);
        ans.erased.push_back(erased);
        ans.exists.push_back(exists);
        ans.gathered.push_back(keep_gather ? gathered
                                           : sg::core::GatherResult{});
        continue;
      }
      const std::string at = "cycle " + std::to_string(cycle) + " round " +
                             std::to_string(i) + ": ";
      if (inserted != ans.inserted[i] || erased != ans.erased[i]) {
        r.mismatch(at + "a mutation count differs from the first cycle");
      }
      if (exists != ans.exists[i]) {
        r.mismatch(at + "edges_exist differs from the first cycle");
      }
      if (keep_gather && !same_gather(gathered, ans.gathered[i])) {
        r.mismatch(at + "gather_neighbors differs from the first cycle");
      }
    }
    if (cycle == 0) bytes_per_edge = arena_bytes_per_edge(*g);
  }

  r.attempted = 4 * n;
  const sg::memory::ArenaStats arena = g->arena_stats();
  if (!opt.trace) {
    r.e2e("setup_s", median(setups), "s");
    // One window per cycle.
    const std::size_t w = kCycleRounds;
    r.e2e("insert_medges_s",
          kInsertBatch / windowed_median(insert_ms, w) / 1e3, "Medge/s");
    r.e2e("erase_medges_s", kEraseBatch / windowed_median(erase_ms, w) / 1e3,
          "Medge/s");
    r.e2e("query_mq_s", kQueryBatch / windowed_median(read_ms, w) / 1e3,
          "MQuery/s");
    latency_metric(r, "write_p50_ms", "write", write_ms, 50, true, w);
    latency_metric(r, "read_p50_ms", "read", read_ms, 50, true, w);
    latency_metric(r, "analytics_p50_ms", "analytics", gather_ms, 50, true, w);
    latency_metric(r, "epoch_p50_ms", "epoch", round_ms, 50, true, w);
    r.e2e("stream_medges_s",
          (kInsertBatch + kEraseBatch) / windowed_median(round_ms, w) / 1e3,
          "Medge/s");
    r.e2e("bytes_per_edge", bytes_per_edge, "B");
  }

  if (opt.trace) {
    r.layer("core.batch_engine.stage_s", layers.stage, "s");
    r.layer("slabhash.apply_s", layers.apply, "s");
    r.layer("core.batch_engine.overlap_share",
            layers.insert_stage > 0
                ? layers.insert_overlap / layers.insert_stage
                : 0.0,
            "ratio");
    r.layer("core.dyn_graph.other_s", layers.other, "s");
    r.layer("slabhash.rehash_count", static_cast<double>(layers.rehashes),
            "count");
    const double base_other = median(layers.insert_other);
    double rehash_s = 0;
    for (const double o : layers.rehash_other) {
      rehash_s += std::max(0.0, o - base_other);
    }
    r.layer("slabhash.rehash_s", rehash_s, "s");
    double chain = 0;
    for (const double c : layers.chain_means) chain += c;
    r.layer("slabhash.chain_slabs_mean",
            layers.chain_means.empty()
                ? g->memory_stats().avg_chain_length()
                : chain / static_cast<double>(layers.chain_means.size()),
            "slabs");
    r.layer("memory.bytes_reserved",
            static_cast<double>(arena.bytes_reserved()), "B");
    r.layer("memory.dynamic_slab_share",
            static_cast<double>(arena.dynamic_slabs) /
                static_cast<double>(std::max<std::uint64_t>(
                    1, arena.bulk_slabs + arena.dynamic_slabs)),
            "ratio");
    r.layer("memory.steady_flatness",
            static_cast<double>(arena.bytes_reserved()) /
                static_cast<double>(std::max<std::uint64_t>(1, arena_start)),
            "ratio");
    r.layer("simt.pool_width",
            static_cast<double>(sg::simt::ThreadPool::instance().requested()),
            "count");
    latency_metric(r, "write_p99_ms", "write", write_ms, 99, false);
    latency_metric(r, "epoch_p95_ms", "epoch", round_ms, 95, false);
    latency_metric(r, "read_p99_ms", "read", read_ms, 99, false);
    r.layer("samples.write", static_cast<double>(write_ms.size()), "count");
    r.layer("samples.read", static_cast<double>(read_ms.size()), "count");
    r.layer("samples.analytics", static_cast<double>(gather_ms.size()),
            "count");
    r.layer("samples.epoch", static_cast<double>(round_ms.size()), "count");
    report_trace(r, on, parity_s[0] / static_cast<double>(parity_n[0]),
                 parity_s[1] / static_cast<double>(parity_n[1]));
  }

  if (opt.corrupt) ans.exists[0][0] ^= 1;
  check(coo, cyc, ans, *g, r);
  return r;
}

}  // namespace perfbench
