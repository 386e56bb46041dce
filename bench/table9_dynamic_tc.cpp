// Table IX: dynamic triangle counting over the road_usa and hollywood-2009
// analogs — three regimes on the same shuffled unique-edge stream:
//
//   incremental  the delta pipeline (exist → insert → analytics epochs);
//                each batch pays only for the triangles it closes.
//   recount      the paper's original regime: insert + full probing
//                recount every batch — the scalar-adjacency baseline the
//                delta pipeline gates ≥2x against.
//   hornet       insert + re-sort + intersect TC ("the overhead of
//                maintaining a sorted Hornet").
//
// The paper's shape (ours-recount vs Hornet): ours wins on the road-like
// graph (1.8x, insertion-dominated), Hornet wins slightly (0.9x) on
// hollywood where its faster TC covers the sorted-list upkeep. The delta
// pipeline then beats BOTH by skipping the recount entirely.
#include "bench/bench_common.hpp"

#include "bench/dynamic_triangle_count.hpp"

namespace sg {
namespace {

void run(const bench::BenchContext& ctx) {
  for (const std::string name : {"road_usa", "hollywood-2009"}) {
    const datasets::Coo coo = datasets::make_dataset(name, ctx.scale, ctx.seed);
    const int iterations = ctx.quick ? 3 : 5;
    // Small bounded batches against the preloaded half-graph: the
    // streaming regime (batch << graph) the delta pipeline targets.
    const std::size_t cap = 1ull << 13;  // unique undirected edges per batch
    const auto result = analytics::run_dynamic_tc(coo, iterations, cap);
    util::Table table({"Iter", "Incr Total", "Recount Insert", "Recount TC",
                       "Recount Total", "Hornet Total", "Vs-recount",
                       "Vs-hornet", "Triangles"});
    for (std::size_t i = 0; i < result.ours.size(); ++i) {
      const auto& o = result.ours[i];
      const auto& r = result.recount[i];
      const auto& h = result.hornet[i];
      if (o.triangles != r.triangles || o.triangles != h.triangles) {
        std::printf("!! dynamic TC mismatch on %s iter %d\n", name.c_str(),
                    o.iteration);
      }
      table.add_row({util::Table::fmt_int(o.iteration),
                     util::Table::fmt(o.cumulative_ms, 1),
                     util::Table::fmt(r.insert_ms, 1),
                     util::Table::fmt(r.tc_ms, 1),
                     util::Table::fmt(r.cumulative_ms, 1),
                     util::Table::fmt(h.cumulative_ms, 1),
                     util::Table::fmt(r.cumulative_ms / o.cumulative_ms, 2) +
                         "x",
                     util::Table::fmt(h.cumulative_ms / o.cumulative_ms, 2) +
                         "x",
                     util::Table::fmt_int(
                         static_cast<long long>(o.triangles))});
    }
    ctx.emit(table, "Table IX: cumulative dynamic TC on " + name +
                " (half-graph preload, batch cap 2^13 unique edges, ms)");
    if (!result.ours.empty()) {
      const double incr = result.ours.back().cumulative_ms;
      const double rec = result.recount.back().cumulative_ms;
      ctx.record("dynamic_tc_incr_speedup", incr > 0.0 ? rec / incr : 0.0,
                 "x", {{"dataset", name}});
    }
    std::printf("\n");
  }
  bench::paper_shape_note(
      "recount vs hornet keeps the paper's shape (road-like: ours ahead "
      "~1.8x, insertion-dominated; hollywood-like: Hornet competitive "
      "~0.9x); the incremental pipeline beats the recount on BOTH because "
      "a batch's delta pass touches only the batch endpoints' adjacency");
}

}  // namespace
}  // namespace sg

int main(int argc, char** argv) {
  const sg::util::Cli cli(argc, argv);
  const auto ctx = sg::bench::BenchContext::from_cli(cli, 0.25, "table9_dynamic_tc");
  ctx.print_header("Table IX: dynamic triangle counting");
  sg::run(ctx);
  ctx.write_json();
  return 0;
}
