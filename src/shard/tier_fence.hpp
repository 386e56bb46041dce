// Cross-shard fence of the multi-shard serving tier (docs/ARCHITECTURE.md
// "Sharding").
//
// ShardedGraph::submit_analytics / submit_snapshot hand a barrier closure
// to EVERY shard as a maintenance-kind submission. Maintenance runs alone,
// INLINE on each shard's conductor thread (never as a pool job — N parked
// barriers cannot starve the ThreadPool that must finish the phases ahead
// of them). Arrivals park; the LAST arriver finds every shard's conductor
// simultaneously fenced — an epoch-consistent cut of the whole tier — and
// runs the user task against it.
//
// If a shard refuses its closure (kReject queue full, kBlock timeout,
// shutdown), an RAII participant token aborts the barrier: parked shards
// wake and return, no closure goes to the shards not yet reached, and the
// user future resolves to that shard's own SubmitRejected — every future
// resolves, nothing hangs, and the reason is the one the shard gave.
#pragma once

#include <atomic>
#include <cstdint>
#include <exception>
#include <functional>
#include <future>
#include <memory>
#include <utility>

namespace sg::shard {

/// Outcome counters of every fence one tier ran (TierStats::fences_*).
/// Co-owned by in-flight barrier closures, which the shard schedulers may
/// still hold (and reject) while the tier object is being destroyed.
struct FenceCounters {
  std::atomic<std::uint64_t> completed{0};
  std::atomic<std::uint64_t> aborted{0};
};

/// Ready future carrying `error` — how a synchronous refusal (a shard
/// submit that threw) joins the asynchronous ones in a combiner.
template <typename T>
std::future<T> ready_error(std::exception_ptr error) {
  std::promise<T> p;
  p.set_exception(std::move(error));
  return p.get_future();
}

/// Submits shard s's barrier closure; returns the shard's future for it.
using SubmitBarrier = std::function<std::future<std::uint64_t>(
    std::uint32_t shard, std::function<std::uint64_t()> closure)>;

/// Fences `shards` shards, in shard order, through `submit` — the caller
/// holds its admission mutex, so every shard sees the fence at the same
/// place in the tier's total order. The deferred future resolves when
/// `task` ran against the cut, carries the task's exception, or rethrows
/// the refusing shard's SubmitRejected if the fence aborted.
std::future<void> run_fence(std::uint32_t shards, std::function<void()> task,
                            std::shared_ptr<FenceCounters> counters,
                            const SubmitBarrier& submit);

}  // namespace sg::shard
