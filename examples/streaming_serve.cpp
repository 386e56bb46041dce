// Streaming serve — a many-client simulation against the multi-shard
// serving tier (src/shard/sharded_graph.hpp). Dozens of concurrent
// submitters hammer ONE ShardedGraph from plain std::threads:
//
//   * ingest clients   power-law-skewed insert batches (hub sources land
//                      on one shard far more often than the tail — the
//                      skew the per-shard fairness report measures), with
//                      periodic erases of earlier batches;
//   * probe clients    edges_exist batches mixing recently-inserted pairs
//                      (hits) with random pairs (misses), scatter-gathered
//                      back to input order;
//   * one analyst      periodic submit_analytics fences — each task sees
//                      an epoch-consistent cut of ALL shards at once and
//                      checks the tier-wide edge count is a whole number
//                      of committed batches.
//
// Every submission goes through the ShardedGraph's single admission
// point, so the mix is safe without any caller-side lock — the scenario
// docs/WORKLOADS.md "Mixed serve" prescribes, at tier scale. The closing
// report shows aggregate throughput, the router's per-shard load split,
// and the aggregated tier schedule stats (bench/micro_shard gates the
// single-threaded scaling series; this example is the concurrency story).
//
//   ./build/streaming_serve [--shards=4] [--ingest=16] [--probe=8]
//                           [--batches=12] [--batch=4096]
//                           [--vertices_exp=16] [--threads=4]
#include <atomic>
#include <chrono>
#include <cstdio>
#include <thread>
#include <vector>

#include "src/shard/sharded_graph.hpp"
#include "src/simt/thread_pool.hpp"
#include "src/util/cli.hpp"
#include "src/util/prng.hpp"
#include "src/util/timer.hpp"

namespace {

/// Power-law-ish source pick: cubing the uniform draw concentrates mass
/// near vertex 0, so a handful of hub sources dominate — and all of a
/// hub's rows land on ONE shard, the worst case for tier fairness.
sg::core::VertexId skewed_vertex(sg::util::Xoshiro256& rng,
                                 std::uint32_t num_vertices) {
  const double u = rng.uniform();
  return static_cast<sg::core::VertexId>(u * u * u * num_vertices);
}

}  // namespace

int main(int argc, char** argv) {
  const sg::util::Cli cli(argc, argv);
  const std::uint32_t shards =
      static_cast<std::uint32_t>(cli.get_int("shards", 4));
  const int ingest_clients = static_cast<int>(cli.get_int("ingest", 16));
  const int probe_clients = static_cast<int>(cli.get_int("probe", 8));
  const int batches_each = static_cast<int>(cli.get_int("batches", 12));
  const std::size_t batch_size =
      static_cast<std::size_t>(cli.get_int("batch", 4096));
  const std::uint32_t num_vertices =
      1u << static_cast<unsigned>(cli.get_int("vertices_exp", 16));
  sg::simt::ThreadPool::instance().resize(
      static_cast<unsigned>(cli.get_int("threads", 4)));

  sg::shard::ShardConfig config;
  config.shard_count = shards;
  config.graph.vertex_capacity = num_vertices;
  sg::shard::ShardedGraphMap tier(config);
  std::printf(
      "serving tier: %u shards, %d ingest + %d probe clients, %d batches "
      "of %zu each, V = %u\n",
      shards, ingest_clients, probe_clients, batches_each, batch_size,
      num_vertices);

  std::atomic<bool> ingest_done{false};
  std::atomic<std::uint64_t> edges_submitted{0};
  std::atomic<std::uint64_t> probes_answered{0};
  std::atomic<std::uint64_t> probes_hit{0};
  std::atomic<std::uint64_t> fence_cuts{0};
  sg::util::Timer wall;

  // Ingest clients: skewed insert batches; every 4th batch erases the
  // batch before it (the churny half of a serving workload).
  std::vector<std::thread> clients;
  for (int c = 0; c < ingest_clients; ++c) {
    clients.emplace_back([&, c] {
      sg::util::Xoshiro256 rng(100 + static_cast<std::uint64_t>(c));
      std::vector<sg::core::WeightedEdge> previous;
      for (int b = 0; b < batches_each; ++b) {
        std::vector<sg::core::WeightedEdge> batch(batch_size);
        for (auto& e : batch) {
          e = {skewed_vertex(rng, num_vertices),
               static_cast<sg::core::VertexId>(rng.below(num_vertices)),
               static_cast<sg::core::Weight>(rng.below(1u << 16))};
        }
        if (b % 4 == 3 && !previous.empty()) {
          std::vector<sg::core::Edge> erase(previous.size());
          for (std::size_t i = 0; i < previous.size(); ++i) {
            erase[i] = {previous[i].src, previous[i].dst};
          }
          tier.submit_erase(std::move(erase)).get();
        }
        edges_submitted.fetch_add(batch.size(), std::memory_order_relaxed);
        previous = batch;
        // The future's count carries coalesced-GROUP semantics (members of
        // a merged phase all observe the group total), so per-client sums
        // don't add up tier-wide — the report uses tier.num_edges().
        (void)tier.submit_insert(std::move(batch)).get();
      }
    });
  }

  // Probe clients: half the probes REPLAY one ingest client's
  // deterministic edge stream (seed 100 + c, same draw sequence), so they
  // target pairs that client has inserted or is about to insert — hits,
  // modulo timing and churn. The other half are uniform pairs (misses).
  // All answered while the ingest clients mutate every shard underneath.
  for (int c = 0; c < probe_clients; ++c) {
    clients.emplace_back([&, c] {
      sg::util::Xoshiro256 rng(900 + static_cast<std::uint64_t>(c));
      sg::util::Xoshiro256 replay(
          100 + static_cast<std::uint64_t>(c % ingest_clients));
      while (!ingest_done.load(std::memory_order_acquire)) {
        std::vector<sg::core::Edge> probes(batch_size);
        for (std::size_t i = 0; i < probes.size(); ++i) {
          if (i % 2 == 0) {
            // Mirror the ingest draw order: skewed src, dst, weight.
            const sg::core::VertexId src = skewed_vertex(replay, num_vertices);
            const auto dst =
                static_cast<sg::core::VertexId>(replay.below(num_vertices));
            (void)replay.below(1u << 16);  // the weight draw
            probes[i] = {src, dst};
          } else {
            probes[i] = {
                static_cast<sg::core::VertexId>(rng.below(num_vertices)),
                static_cast<sg::core::VertexId>(rng.below(num_vertices))};
          }
        }
        const auto hits = tier.submit_edges_exist(std::move(probes)).get();
        std::uint64_t hit = 0;
        for (const std::uint8_t h : hits) hit += h;
        probes_answered.fetch_add(hits.size(), std::memory_order_relaxed);
        probes_hit.fetch_add(hit, std::memory_order_relaxed);
      }
    });
  }

  // Analyst: epoch-consistent cuts of the whole tier while everything
  // above keeps submitting.
  std::thread analyst([&] {
    while (!ingest_done.load(std::memory_order_acquire)) {
      tier.submit_analytics([&] {
            // Inside the fence no mutation can commit on ANY shard, so the
            // tier-wide count is frozen for the duration of the task.
            const std::uint64_t before = tier.num_edges();
            std::this_thread::sleep_for(std::chrono::microseconds(200));
            const std::uint64_t after = tier.num_edges();
            if (before != after) {
              std::fprintf(stderr, "torn cut: %llu != %llu\n",
                           static_cast<unsigned long long>(before),
                           static_cast<unsigned long long>(after));
            }
            fence_cuts.fetch_add(1, std::memory_order_relaxed);
          })
          .get();
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  });

  for (int c = 0; c < ingest_clients; ++c) clients[c].join();
  ingest_done.store(true, std::memory_order_release);
  for (std::size_t c = ingest_clients; c < clients.size(); ++c) {
    clients[c].join();
  }
  analyst.join();
  tier.drain();
  const double seconds = wall.seconds();

  std::printf(
      "%.1f ms wall: %llu edges submitted (%.2f Medges/s), %llu probes "
      "answered (%.2f Mprobes/s, %.1f%% hits), %llu fenced cuts, %llu live "
      "edges\n",
      seconds * 1e3, static_cast<unsigned long long>(edges_submitted.load()),
      double(edges_submitted.load()) / seconds * 1e-6,
      static_cast<unsigned long long>(probes_answered.load()),
      double(probes_answered.load()) / seconds * 1e-6,
      100.0 * double(probes_hit.load()) /
          double(probes_answered.load() ? probes_answered.load() : 1),
      static_cast<unsigned long long>(fence_cuts.load()),
      static_cast<unsigned long long>(tier.num_edges()));

  // Fairness: the router's per-shard item split under the power-law keys.
  const auto router = tier.router_stats();
  std::uint64_t lo = router.per_shard_items.empty() ? 0 : UINT64_MAX, hi = 0;
  std::printf("router: %llu batches split into %llu items; per-shard ",
              static_cast<unsigned long long>(router.batches_routed),
              static_cast<unsigned long long>(router.items_routed));
  for (std::uint32_t s = 0; s < shards; ++s) {
    const std::uint64_t n = router.per_shard_items[s];
    lo = n < lo ? n : lo;
    hi = n > hi ? n : hi;
    std::printf("%s%.1f%%", s == 0 ? "[" : " ",
                100.0 * double(n) /
                    double(router.items_routed ? router.items_routed : 1));
  }
  std::printf("], max/min %.2f\n", lo == 0 ? 0.0 : double(hi) / double(lo));

  const sg::shard::TierStats stats = tier.tier_stats();
  std::printf(
      "tier: %llu mutations + %llu queries + %llu analytics admitted; "
      "fences %llu completed / %llu aborted; shard totals: %llu phases, "
      "%llu switches, %llu coalesced\n",
      static_cast<unsigned long long>(stats.tier_mutations),
      static_cast<unsigned long long>(stats.tier_queries),
      static_cast<unsigned long long>(stats.tier_analytics),
      static_cast<unsigned long long>(stats.fences_completed),
      static_cast<unsigned long long>(stats.fences_aborted),
      static_cast<unsigned long long>(stats.shard_totals.mutation_phases +
                                      stats.shard_totals.query_phases),
      static_cast<unsigned long long>(stats.shard_totals.phase_switches),
      static_cast<unsigned long long>(stats.shard_totals.coalesced_batches));
  sg::simt::ThreadPool::instance().resize(0);
  return 0;
}
