// Google-benchmark micro benchmarks for the SlabHash layer and the WCWS
// ablation: map vs set ops across load factors, and the batch engine's
// grouped insertion vs naive per-item insertion into the same tables.
//
//   ./build/micro_slabhash --json=BENCH_slabhash.json
#include <benchmark/benchmark.h>

#include <vector>

#include "bench/gbench_main.hpp"
#include "src/core/dyn_graph.hpp"
#include "src/memory/slab_arena.hpp"
#include "src/simt/thread_pool.hpp"
#include "src/slabhash/slab_hash.hpp"
#include "src/util/prng.hpp"

namespace {

constexpr std::uint32_t kKeys = 1u << 14;

std::vector<std::uint32_t> make_keys(std::uint64_t seed) {
  sg::util::Xoshiro256 rng(seed);
  std::vector<std::uint32_t> keys(kKeys);
  for (auto& k : keys) k = static_cast<std::uint32_t>(rng.below(1u << 28));
  return keys;
}

/// Buckets for kKeys at the load factor encoded as range(0)/100.
std::uint32_t buckets_at(const benchmark::State& state, int slot_capacity) {
  return sg::slabhash::buckets_for(kKeys, state.range(0) / 100.0, slot_capacity);
}

void BM_MapInsert(benchmark::State& state) {
  const auto keys = make_keys(1);
  for (auto _ : state) {
    state.PauseTiming();
    sg::memory::SlabArena arena;
    sg::slabhash::SlabHashMap map(
        arena, buckets_at(state, sg::slabhash::MapLayout::kSlotsPerSlab));
    state.ResumeTiming();
    for (std::uint32_t k : keys) map.insert(k, k);
  }
  state.SetItemsProcessed(state.iterations() * kKeys);
}
BENCHMARK(BM_MapInsert)->Arg(35)->Arg(70)->Arg(150)->Arg(300);

void BM_MapSearch(benchmark::State& state) {
  const auto keys = make_keys(2);
  sg::memory::SlabArena arena;
  sg::slabhash::SlabHashMap map(
      arena, buckets_at(state, sg::slabhash::MapLayout::kSlotsPerSlab));
  for (std::uint32_t k : keys) map.insert(k, k);
  for (auto _ : state) {
    std::uint64_t hits = 0;
    for (std::uint32_t k : keys) hits += map.search(k).found;
    benchmark::DoNotOptimize(hits);
  }
  state.SetItemsProcessed(state.iterations() * kKeys);
}
BENCHMARK(BM_MapSearch)->Arg(35)->Arg(70)->Arg(150)->Arg(300);

void BM_SetInsert(benchmark::State& state) {
  const auto keys = make_keys(3);
  for (auto _ : state) {
    state.PauseTiming();
    sg::memory::SlabArena arena;
    sg::slabhash::SlabHashSet set(
        arena, buckets_at(state, sg::slabhash::SetLayout::kSlotsPerSlab));
    state.ResumeTiming();
    for (std::uint32_t k : keys) set.insert(k);
  }
  state.SetItemsProcessed(state.iterations() * kKeys);
}
BENCHMARK(BM_SetInsert)->Arg(70)->Arg(300);

void BM_SetContains(benchmark::State& state) {
  const auto keys = make_keys(4);
  sg::memory::SlabArena arena;
  sg::slabhash::SlabHashSet set(
      arena, buckets_at(state, sg::slabhash::SetLayout::kSlotsPerSlab));
  for (std::uint32_t k : keys) set.insert(k);
  for (auto _ : state) {
    std::uint64_t hits = 0;
    for (std::uint32_t k : keys) hits += set.contains(k);
    benchmark::DoNotOptimize(hits);
  }
  state.SetItemsProcessed(state.iterations() * kKeys);
}
BENCHMARK(BM_SetContains)->Arg(70)->Arg(300);

/// Ablation: scalar Algorithm 1 (WCWS warp-grouped insertion) vs the staged
/// batch engine (stage -> run grouping -> bulk slab ops) vs inserting each
/// edge independently through the hash-table API.
std::vector<sg::core::WeightedEdge> insert_ablation_batch() {
  sg::util::Xoshiro256 rng(5);
  std::vector<sg::core::WeightedEdge> batch(1u << 14);
  for (auto& e : batch) {
    e = {static_cast<std::uint32_t>(rng.below(256)),
         static_cast<std::uint32_t>(rng.below(4096)), 1};
  }
  return batch;
}

void BM_BatchEngineInsert(benchmark::State& state) {
  const auto batch = insert_ablation_batch();
  for (auto _ : state) {
    state.PauseTiming();
    sg::core::GraphConfig cfg;
    cfg.vertex_capacity = 4096;
    sg::core::DynGraphMap graph(cfg);
    state.ResumeTiming();
    graph.insert_edges(batch);
  }
  state.SetItemsProcessed(state.iterations() * batch.size());
}
BENCHMARK(BM_BatchEngineInsert);

/// SG_THREADS sweep: the same batched insertion measured across pool
/// widths (the env default is restored afterwards). Arg(0) = one JSON
/// series per thread count via google-benchmark's per-arg records.
void BM_BatchEngineInsertThreads(benchmark::State& state) {
  sg::simt::ThreadPool::instance().resize(
      static_cast<unsigned>(state.range(0)));
  const auto batch = insert_ablation_batch();
  for (auto _ : state) {
    state.PauseTiming();
    sg::core::GraphConfig cfg;
    cfg.vertex_capacity = 4096;
    sg::core::DynGraphMap graph(cfg);
    state.ResumeTiming();
    graph.insert_edges(batch);
  }
  state.SetItemsProcessed(state.iterations() * batch.size());
  sg::simt::ThreadPool::instance().resize(0);  // back to the env default
}
BENCHMARK(BM_BatchEngineInsertThreads)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

void BM_NaivePerItemInsert(benchmark::State& state) {
  sg::util::Xoshiro256 rng(5);
  std::vector<sg::core::WeightedEdge> batch(1u << 14);
  for (auto& e : batch) {
    e = {static_cast<std::uint32_t>(rng.below(256)),
         static_cast<std::uint32_t>(rng.below(4096)), 1};
  }
  for (auto _ : state) {
    state.PauseTiming();
    sg::memory::SlabArena arena;
    std::vector<sg::slabhash::SlabHashMap> tables;
    tables.reserve(256);
    for (int v = 0; v < 256; ++v) tables.emplace_back(arena, 1);
    state.ResumeTiming();
    for (const auto& e : batch) {
      if (e.src != e.dst) tables[e.src].insert(e.dst, e.weight);
    }
  }
  state.SetItemsProcessed(state.iterations() * batch.size());
}
BENCHMARK(BM_NaivePerItemInsert);

}  // namespace

int main(int argc, char** argv) {
  return sg::bench::run_google_benchmarks(argc, argv);
}
