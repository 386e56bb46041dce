// micro_shard: throughput scaling of the multi-shard serving tier
// (src/shard/sharded_graph.hpp) across shard counts.
//
// Two sections, both on the synchronous serving path (no submit_* call, so
// no shard conductor ever starts and the series isolates the router plus
// N independent engines from conductor effects):
//
//   insert    streams random insert batches through ShardedGraph tiers of
//             1/2/4/8 shards, same workload per point. 1 shard is the
//             degenerate tier (routing still runs), so the series prices
//             the partitioning itself: routing overhead at N=1, smaller
//             per-shard dictionaries and arenas as N grows.
//
//   query     preloads each tier with the same edge set, then streams
//             edges_exist probe batches; answers scatter back to input
//             order through the router's sequence numbers, so the measured
//             rate includes the full route -> probe -> scatter round trip.
//
// Each section also reports the router's load split (max/min routed items
// per shard — 1.00 is perfectly fair) for the uniform workload.
//
// JSON metrics (tracked by bench/compare_bench.py):
//   shard_insert_rate{shards=N}   Medges/s through insert_edges
//   shard_query_rate{shards=N}    Mprobes/s through edges_exist
//
//   ./build/micro_shard --json=BENCH_shard.json
//   flags: --batches=N --batch_exp=E --vertices_exp=E --threads=T --quick
#include <string>
#include <vector>

#include "bench/bench_common.hpp"
#include "src/shard/sharded_graph.hpp"
#include "src/simt/thread_pool.hpp"
#include "src/util/prng.hpp"

namespace sg {
namespace {

constexpr std::uint32_t kShardCounts[] = {1, 2, 4, 8};

std::vector<core::WeightedEdge> random_edges(std::uint64_t seed,
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

std::vector<core::Edge> query_probes(std::uint64_t seed, std::size_t count,
                                     std::uint32_t num_vertices) {
  util::Xoshiro256 rng(seed);
  std::vector<core::Edge> queries(count);
  for (auto& q : queries) {
    // ~half the probes miss: dst drawn from twice the insert range.
    q = {static_cast<core::VertexId>(rng.below(num_vertices)),
         static_cast<core::VertexId>(rng.below(num_vertices * 2))};
  }
  return queries;
}

shard::ShardConfig tier_config(std::uint32_t shards,
                               std::uint32_t num_vertices) {
  shard::ShardConfig sc;
  sc.shard_count = shards;
  sc.graph.vertex_capacity = num_vertices;
  return sc;
}

std::string fairness_of(const shard::RouterStats& stats) {
  std::uint64_t lo = UINT64_MAX, hi = 0;
  for (const std::uint64_t n : stats.per_shard_items) {
    lo = n < lo ? n : lo;
    hi = n > hi ? n : hi;
  }
  return lo == 0 ? "inf" : util::Table::fmt(double(hi) / double(lo));
}

void run_inserts(const bench::BenchContext& ctx, int vertices_exp,
                 int batch_exp, int num_batches) {
  const std::uint32_t num_vertices = 1u << vertices_exp;
  const std::size_t batch_size = std::size_t{1} << batch_exp;
  std::vector<std::vector<core::WeightedEdge>> batches;
  for (int b = 0; b < num_batches; ++b) {
    batches.push_back(random_edges(ctx.seed + b, batch_size, num_vertices));
  }
  const double total = double(batch_size) * num_batches;

  util::Table table(
      {"Shards", "Insert (Medges/s)", "Edges stored", "Load max/min"});
  for (const std::uint32_t shards : kShardCounts) {
    shard::ShardedGraphMap tier(tier_config(shards, num_vertices));
    util::Timer timer;
    for (const auto& batch : batches) tier.insert_edges(batch);
    const double rate = util::mitems_per_second(total, timer.seconds());
    table.add_row({std::to_string(shards), util::Table::fmt(rate),
                   std::to_string(tier.num_edges()),
                   fairness_of(tier.router_stats())});
    ctx.record("shard_insert_rate", rate, "Medges/s",
               {{"shards", std::to_string(shards)}});
  }
  ctx.emit(table, "Sharded insert scaling: " + std::to_string(num_batches) +
                      " batches of 2^" + std::to_string(batch_exp) +
                      ", V = 2^" + std::to_string(vertices_exp));
  bench::paper_shape_note(
      "shards = 1 prices the router alone; larger tiers trade a fixed "
      "routing pass for smaller per-shard dictionaries and chains");
}

void run_queries(const bench::BenchContext& ctx, int vertices_exp,
                 int batch_exp, int num_batches) {
  const std::uint32_t num_vertices = 1u << vertices_exp;
  const std::size_t batch_size = std::size_t{1} << batch_exp;
  const auto base =
      random_edges(ctx.seed, batch_size * num_batches, num_vertices);
  std::vector<std::vector<core::Edge>> probe_batches;
  for (int b = 0; b < num_batches; ++b) {
    probe_batches.push_back(
        query_probes(ctx.seed + 100 + b, batch_size, num_vertices));
  }
  const double total = double(batch_size) * num_batches;

  util::Table table({"Shards", "Query (Mprobes/s)", "Load max/min"});
  std::vector<std::uint8_t> found(batch_size);
  for (const std::uint32_t shards : kShardCounts) {
    shard::ShardedGraphMap tier(tier_config(shards, num_vertices));
    tier.insert_edges(base);
    util::Timer timer;
    for (const auto& probes : probe_batches) {
      tier.edges_exist(probes, found.data());
    }
    const double rate = util::mitems_per_second(total, timer.seconds());
    table.add_row({std::to_string(shards), util::Table::fmt(rate),
                   fairness_of(tier.router_stats())});
    ctx.record("shard_query_rate", rate, "Mprobes/s",
               {{"shards", std::to_string(shards)}});
  }
  ctx.emit(table, "Sharded edges_exist scaling: " +
                      std::to_string(num_batches) + " probe batches of 2^" +
                      std::to_string(batch_exp) + " against 2^" +
                      std::to_string(batch_exp) +
                      " x batches preloaded edges");
  bench::paper_shape_note(
      "probes route by owner(src) only — every row of u's adjacency lives "
      "on one shard — so the scatter-gather adds one pass over the answers");
}

}  // namespace
}  // namespace sg

int main(int argc, char** argv) {
  const sg::util::Cli cli(argc, argv);
  const auto ctx = sg::bench::BenchContext::from_cli(cli, 1.0, "micro_shard");
  ctx.print_header("Multi-shard serving tier: insert + query scaling");
  const int vertices_exp = cli.get_int("vertices_exp", ctx.quick ? 14 : 16);
  const int batch_exp = cli.get_int("batch_exp", ctx.quick ? 12 : 14);
  const int num_batches = cli.get_int("batches", ctx.quick ? 3 : 6);
  const int threads = cli.get_int("threads", 4);
  sg::simt::ThreadPool::instance().resize(
      static_cast<unsigned>(threads > 0 ? threads : 0));
  sg::run_inserts(ctx, vertices_exp, batch_exp, num_batches);
  sg::run_queries(ctx, vertices_exp, batch_exp, num_batches);
  sg::simt::ThreadPool::instance().resize(0);
  ctx.write_json();
  return 0;
}
