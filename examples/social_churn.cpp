// Social-network churn — the "flowing stream of edge AND vertex insertions
// and deletions" the paper argues real dynamic workloads contain (§I),
// replayed through the stream harness (docs/WORKLOADS.md "Sliding-window
// streaming" meets vertex churn):
//
//   * follow traffic is a TEMPORAL stream — seed follows, then waves of
//     new members whose follows arrive with fresh timestamps; the harness
//     ingests it epoch by epoch (members "join" when their first follow
//     arrives),
//   * unfollow traffic is the sliding window — follows not refreshed
//     within the window age out (submit_age_out inside the harness),
//     replacing the old hand-rolled unfollow batches,
//   * members leaving is still explicit Algorithm 2 vertex deletion
//     between epochs,
//   * analytics (reachability BFS from the hub, connected components) run
//     in the fenced per-epoch analytics hook.
//
//   ./build/social_churn [--rounds=N] [--scale=F]
#include <cstdio>
#include <vector>

#include "src/analytics/bfs.hpp"
#include "src/analytics/connected_components.hpp"
#include "src/datasets/suite.hpp"
#include "src/stream/harness.hpp"
#include "src/util/cli.hpp"
#include "src/util/prng.hpp"

namespace {

sg::analytics::NeighborFn neighbors_of(const sg::core::DynGraphMap& g) {
  return [&g](sg::core::VertexId u,
              const std::function<void(sg::core::VertexId)>& visit) {
    g.for_each_neighbor(
        u, [&](sg::core::VertexId v, sg::core::Weight) { visit(v); });
  };
}

}  // namespace

int main(int argc, char** argv) {
  const sg::util::Cli cli(argc, argv);
  const int rounds = static_cast<int>(cli.get_int("rounds", 4));
  const double scale = cli.get_double("scale", 0.1);
  sg::util::Xoshiro256 rng(2026);

  const auto seed_graph = sg::datasets::make_dataset("soc-LiveJournal1", scale);
  const std::uint32_t base_vertices = seed_graph.num_vertices;
  const std::uint32_t joiners_per_round = base_vertices / 20;

  // Build the whole follow stream up front (the harness replays streams,
  // it does not invent them): seed follows in arrival order, then one wave
  // of joiners per round, each new member following a few existing ones.
  std::vector<sg::stream::TemporalEdge> follows;
  sg::core::Weight ts = 0;
  for (const auto& e : seed_graph.edges) follows.push_back({e.src, e.dst, ts++});
  std::uint32_t next_member = base_vertices;
  for (int round = 1; round <= rounds; ++round) {
    for (std::uint32_t j = 0; j < joiners_per_round; ++j) {
      const sg::core::VertexId member = next_member++;
      const int fanout = 2 + static_cast<int>(rng.below(6));
      for (int f = 0; f < fanout; ++f) {
        follows.push_back(
            {member, static_cast<sg::core::VertexId>(rng.below(member)), ts++});
      }
    }
  }

  // One epoch per churn round, plus one for the seed prefix: the harness
  // slices the stream evenly, so joins spread across the later epochs.
  const std::size_t batch_size =
      follows.size() / static_cast<std::size_t>(rounds + 1) + 1;
  sg::stream::Dataset dataset(std::move(follows), batch_size);

  sg::stream::HarnessConfig config;
  config.window_frac = 0.6;  // follows lapse unless refreshed: unfollow churn
  config.compact_every = 2;
  config.graph.undirected = true;
  sg::stream::Harness harness(dataset, config);
  std::printf("social stream: %u seed members, %zu epochs of %zu follows\n",
              base_vertices, dataset.num_batches(), dataset.batch_size());

  for (std::size_t epoch = 0; epoch < dataset.num_batches(); ++epoch) {
    // Fenced analytics hook: hub reachability + component structure on the
    // exact post-ingest, post-aging state.
    sg::core::VertexId hub = 0;
    std::uint64_t reachable = 0;
    std::uint32_t components = 0;
    const auto stats = harness.run_epoch(
        epoch, [&](const sg::core::DynGraphMap& g) {
          const auto n = static_cast<sg::core::VertexId>(next_member);
          for (sg::core::VertexId v = 0; v < n; ++v) {
            if (g.degree(v) > g.degree(hub)) hub = v;
          }
          const auto dist = sg::analytics::bfs(n, neighbors_of(g), hub);
          for (auto d : dist) reachable += d != sg::analytics::kUnreached;
          components = sg::analytics::count_components(
              sg::analytics::connected_components(n, neighbors_of(g)));
        });

    // Members leaving: Algorithm 2 vertex deletion between epochs, on the
    // quiescent graph the harness hands back.
    std::vector<sg::core::VertexId> leavers;
    for (std::uint32_t l = 0; l < joiners_per_round / 4; ++l) {
      leavers.push_back(
          static_cast<sg::core::VertexId>(rng.below(next_member)));
    }
    harness.graph().delete_vertices(leavers);

    std::printf(
        "epoch %zu: +%llu follows, %llu lapsed (window), -%zu leavers | "
        "%llu edges in %llu chunks, hub %u reaches %llu members, %u "
        "components\n",
        epoch, static_cast<unsigned long long>(stats.inserted),
        static_cast<unsigned long long>(stats.aged_out), leavers.size(),
        static_cast<unsigned long long>(harness.graph().num_edges()),
        static_cast<unsigned long long>(stats.arena_chunks), hub,
        static_cast<unsigned long long>(reachable), components);
  }
  return 0;
}
