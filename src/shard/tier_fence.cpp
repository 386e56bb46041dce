#include "src/shard/tier_fence.hpp"

#include <chrono>
#include <condition_variable>
#include <mutex>
#include <utility>
#include <vector>

#include "src/core/errors.hpp"

namespace sg::shard {

namespace {

/// Shared state of one fence, co-owned by the participant tokens and the
/// user's future, so it survives until the last shard's closure ran or was
/// refused and the user read the outcome.
struct Fence {
  std::mutex m;
  std::condition_variable cv;
  std::uint32_t expected = 0;  ///< shard count at submission
  std::uint32_t arrived = 0;
  bool done = false;     ///< task ran (or threw); parked shards may leave
  bool aborted = false;  ///< a shard refused its closure; task never runs
  std::function<void()> task;
  std::exception_ptr task_error;
  std::shared_ptr<FenceCounters> counters;

  /// One shard's conductor reaches the barrier: parks until the fence
  /// completes or aborts, or — as the last arriver — runs the task.
  void arrive() {
    std::unique_lock<std::mutex> lock(m);
    if (++arrived == expected && !aborted) {
      // Every other shard's conductor is parked here and this shard's
      // conductor is here: the whole tier is simultaneously inside a
      // maintenance window. Run the task against that cut.
      try {
        task();
      } catch (...) {
        task_error = std::current_exception();
      }
      done = true;
      counters->completed.fetch_add(1, std::memory_order_relaxed);
      cv.notify_all();
    } else {
      cv.wait(lock, [this] { return done || aborted; });
    }
  }

  /// A shard refused its closure: the fence can never be whole.
  void abort() {
    std::lock_guard<std::mutex> lock(m);
    if (done || aborted) return;
    aborted = true;
    counters->aborted.fetch_add(1, std::memory_order_relaxed);
    cv.notify_all();
  }

  bool is_aborted() {
    std::lock_guard<std::mutex> lock(m);
    return aborted;
  }

  /// Blocks until the fence completed or aborted; returns `aborted`.
  bool settle() {
    std::unique_lock<std::mutex> lock(m);
    cv.wait(lock, [this] { return done || aborted; });
    return aborted;
  }
};

/// RAII participation marker captured by each shard's barrier closure. A
/// closure destroyed UNRUN (its scheduler refused it at admission or
/// rejected it at shutdown) aborts the fence from here — the one hook that
/// runs however the closure dies — so parked shards wake instead of
/// waiting for an arrival that can never come.
struct Token {
  std::shared_ptr<Fence> fence;
  bool ran = false;

  ~Token() {
    if (!ran) fence->abort();
  }
};

}  // namespace

std::future<void> run_fence(std::uint32_t shards, std::function<void()> task,
                            std::shared_ptr<FenceCounters> counters,
                            const SubmitBarrier& submit) {
  auto fence = std::make_shared<Fence>();
  fence->expected = shards;
  fence->task = std::move(task);
  fence->counters = std::move(counters);
  std::vector<std::future<std::uint64_t>> arrivals;
  arrivals.reserve(shards);
  for (std::uint32_t s = 0; s < shards && !fence->is_aborted(); ++s) {
    auto token = std::make_shared<Token>();
    token->fence = fence;
    try {
      arrivals.push_back(submit(s, [token]() -> std::uint64_t {
        token->ran = true;
        token->fence->arrive();
        return 0;
      }));
    } catch (...) {
      // The shard's scheduler is stopping and threw; its closure died
      // unrun, so the token has already aborted the fence.
      arrivals.push_back(ready_error<std::uint64_t>(std::current_exception()));
    }
  }
  return std::async(
      std::launch::deferred,
      [fence, arrivals = std::move(arrivals)]() mutable {
        if (fence->settle()) {
          // A scheduler resolves a refused closure's future before the
          // closure dies, so the refusing shard's future is ready by the
          // time the fence aborts: rethrow its own reason. Shards that
          // parked and woke resolve to 0 and are skipped.
          for (auto& arrival : arrivals) {
            if (arrival.wait_for(std::chrono::seconds(0)) ==
                std::future_status::ready) {
              arrival.get();
            }
          }
          throw core::SubmitRejected(core::RejectReason::kShutdown);
        }
        if (fence->task_error) std::rethrow_exception(fence->task_error);
      });
}

}  // namespace sg::shard
