#include "src/core/phase_scheduler.hpp"

#include <chrono>
#include <iterator>
#include <stdexcept>
#include <type_traits>
#include <utility>

#include "src/simt/thread_pool.hpp"
#include "src/util/fault_injection.hpp"
#include "src/util/timer.hpp"

namespace sg::core {

namespace {
std::exception_ptr rejection(RejectReason reason) {
  return std::make_exception_ptr(SubmitRejected(reason));
}

/// Applies one same-op group of mutation submissions as ONE engine batch:
/// a lone submission applies in place, a longer group is concatenated in
/// submission order first.
template <typename Submission, typename T, typename Apply>
std::uint64_t apply_merged(std::span<Submission> group,
                           std::vector<T> Submission::*items,
                           const Apply& apply) {
  if (group.size() == 1) return apply(group[0].*items);
  std::size_t total = 0;
  for (const Submission& s : group) total += (s.*items).size();
  std::vector<T> merged;
  merged.reserve(total);
  for (const Submission& s : group) {
    merged.insert(merged.end(), (s.*items).begin(), (s.*items).end());
  }
  return apply(merged);
}
}  // namespace

PhaseScheduleStats& PhaseScheduleStats::operator+=(
    const PhaseScheduleStats& other) {
  submitted_mutations += other.submitted_mutations;
  submitted_queries += other.submitted_queries;
  submitted_analytics += other.submitted_analytics;
  submitted_snapshots += other.submitted_snapshots;
  submitted_maintenance += other.submitted_maintenance;
  mutation_phases += other.mutation_phases;
  query_phases += other.query_phases;
  analytics_phases += other.analytics_phases;
  phase_switches += other.phase_switches;
  coalesced_batches += other.coalesced_batches;
  fence_wait_seconds += other.fence_wait_seconds;
  rejected_submissions += other.rejected_submissions;
  shed_queries += other.shed_queries;
  expired_queries += other.expired_queries;
  blocked_ns += other.blocked_ns;
  if (other.max_queue_depth > max_queue_depth) {
    max_queue_depth = other.max_queue_depth;
  }
  return *this;
}

PhaseScheduler::PhaseScheduler(Ops ops)
    : PhaseScheduler(std::move(ops), Limits{}) {}

PhaseScheduler::PhaseScheduler(Ops ops, Limits limits)
    : ops_(std::move(ops)), limits_(limits) {
  conductor_ = std::thread([this] { conductor_loop(); });
}

PhaseScheduler::~PhaseScheduler() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  cv_submit_.notify_all();
  cv_space_.notify_all();  // blocked submitters resolve to kShutdown
  conductor_.join();       // finishes the open phase, rejects the rest
}

std::uint64_t PhaseScheduler::submission_items(const Submission& s) {
  return s.inserts.size() + s.edges.size();
}

void PhaseScheduler::fail(Submission& s, std::exception_ptr error) noexcept {
  std::visit(
      [&error](auto& promise) {
        if constexpr (!std::is_same_v<std::decay_t<decltype(promise)>,
                                      std::monostate>) {
          try {
            promise.set_exception(error);
          } catch (const std::future_error&) {
            // Already satisfied before the failure: keep its real result.
          }
        }
      },
      s.result);
}

bool PhaseScheduler::fits_locked(std::uint64_t items) const {
  // An empty queue always admits: a single submission larger than
  // max_pending_edges must not wedge forever (GraphConfig documents this).
  if (queue_.empty()) return true;
  if (limits_.max_pending_submissions != 0 &&
      queue_.size() >= limits_.max_pending_submissions) {
    return false;
  }
  if (limits_.max_pending_edges != 0 &&
      pending_edges_ + items > limits_.max_pending_edges) {
    return false;
  }
  return true;
}

bool PhaseScheduler::admit_locked(std::unique_lock<std::mutex>& lock,
                                  Submission& s, std::uint64_t items) {
  while (!fits_locked(items)) {
    switch (limits_.backpressure) {
      case BackpressurePolicy::kReject:
        ++stats_.rejected_submissions;
        fail(s, rejection(RejectReason::kQueueFull));
        return false;
      case BackpressurePolicy::kShedOldestQueries: {
        // Evict the oldest pending QUERIES until the newcomer fits.
        // Mutations are never shed: dropping one would silently change the
        // state every later submission runs against.
        bool shed_any = false;
        for (auto it = queue_.begin();
             it != queue_.end() && !fits_locked(items);) {
          if (it->kind != Kind::kQuery) {
            ++it;
            continue;
          }
          pending_edges_ -= submission_items(*it);
          ++stats_.shed_queries;
          fail(*it, rejection(RejectReason::kShed));
          it = queue_.erase(it);
          shed_any = true;
        }
        if (shed_any) cv_space_.notify_all();
        if (!fits_locked(items)) {
          // Nothing sheddable left (the queue is all mutations).
          ++stats_.rejected_submissions;
          fail(s, rejection(RejectReason::kQueueFull));
          return false;
        }
        break;
      }
      case BackpressurePolicy::kBlock: {
        const auto wait_begin = std::chrono::steady_clock::now();
        const auto pred = [this, items] { return stop_ || fits_locked(items); };
        bool woke = true;
        if (limits_.submit_timeout_ms != 0) {
          woke = cv_space_.wait_until(
              lock,
              wait_begin + std::chrono::milliseconds(limits_.submit_timeout_ms),
              pred);
        } else {
          cv_space_.wait(lock, pred);
        }
        stats_.blocked_ns += static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                std::chrono::steady_clock::now() - wait_begin)
                .count());
        if (stop_) {
          ++stats_.rejected_submissions;
          fail(s, rejection(RejectReason::kShutdown));
          return false;
        }
        if (!woke) {
          ++stats_.rejected_submissions;
          fail(s, rejection(RejectReason::kTimeout));
          return false;
        }
        break;
      }
    }
  }
  return true;
}

void PhaseScheduler::enqueue(Submission&& s) {
  const std::uint64_t items = submission_items(s);
  {
    std::unique_lock<std::mutex> lock(mutex_);
    if (stop_) {
      throw SubmitRejected(RejectReason::kShutdown);
    }
    // Admission control: on rejection the submission's future has already
    // been resolved to SubmitRejected — nothing more to do here.
    if (!admit_locked(lock, s, items)) return;
    if (s.kind == Kind::kMutation) {
      if (s.maintenance) {
        ++stats_.submitted_maintenance;
      } else {
        ++stats_.submitted_mutations;
      }
    } else if (s.kind == Kind::kAnalytics) {
      if (s.snapshot) {
        ++stats_.submitted_snapshots;
      } else {
        ++stats_.submitted_analytics;
      }
    } else {
      ++stats_.submitted_queries;
    }
    queue_.push_back(std::move(s));
    pending_edges_ += items;
    if (queue_.size() > stats_.max_queue_depth) {
      stats_.max_queue_depth = queue_.size();
    }
  }
  cv_submit_.notify_one();
}

template <typename R>
std::future<R> PhaseScheduler::submit(Submission s) {
  std::future<R> f = s.result.emplace<std::promise<R>>().get_future();
  enqueue(std::move(s));
  return f;
}

PhaseScheduler::Submission PhaseScheduler::query(std::vector<Edge> queries,
                                                 std::uint32_t deadline_ms) {
  Submission s;
  s.kind = Kind::kQuery;
  if (deadline_ms != 0) {
    s.has_deadline = true;
    s.deadline = std::chrono::steady_clock::now() +
                 std::chrono::milliseconds(deadline_ms);
  }
  s.edges = std::move(queries);
  return s;
}

std::future<std::uint64_t> PhaseScheduler::submit_insert(
    std::vector<WeightedEdge> edges) {
  Submission s;
  s.kind = Kind::kMutation;
  s.inserts = std::move(edges);
  return submit<std::uint64_t>(std::move(s));
}

std::future<std::uint64_t> PhaseScheduler::submit_erase(
    std::vector<Edge> edges) {
  Submission s;
  s.kind = Kind::kMutation;
  s.erase = true;
  s.edges = std::move(edges);
  return submit<std::uint64_t>(std::move(s));
}

std::future<std::vector<std::uint8_t>> PhaseScheduler::submit_edges_exist(
    std::vector<Edge> queries, std::uint32_t deadline_ms) {
  return submit<std::vector<std::uint8_t>>(
      query(std::move(queries), deadline_ms));
}

std::future<EdgeWeightBatch> PhaseScheduler::submit_edge_weights(
    std::vector<Edge> queries, std::uint32_t deadline_ms) {
  if (!ops_.edge_weights) {
    throw std::logic_error(
        "PhaseScheduler: this graph has no edge_weights operation");
  }
  return submit<EdgeWeightBatch>(query(std::move(queries), deadline_ms));
}

std::future<void> PhaseScheduler::submit_analytics(std::function<void()> task) {
  Submission s;
  s.kind = Kind::kAnalytics;
  s.task = std::move(task);
  return submit<void>(std::move(s));
}

std::future<void> PhaseScheduler::submit_snapshot(std::function<void()> task) {
  Submission s;
  s.kind = Kind::kAnalytics;  // a snapshot is a fenced read of the structure
  s.snapshot = true;
  s.task = std::move(task);
  return submit<void>(std::move(s));
}

std::future<std::uint64_t> PhaseScheduler::submit_maintenance(
    std::function<std::uint64_t()> task) {
  Submission s;
  s.kind = Kind::kMutation;  // it writes: it must own the write window
  s.maintenance = std::move(task);
  return submit<std::uint64_t>(std::move(s));
}

void PhaseScheduler::drain() {
  std::unique_lock<std::mutex> lock(mutex_);
  cv_drained_.wait(lock, [this] { return queue_.empty() && !phase_open_; });
}

PhaseScheduleStats PhaseScheduler::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

void PhaseScheduler::conductor_loop() {
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    cv_submit_.wait(lock, [this] { return stop_ || !queue_.empty(); });
    if (stop_) {
      // Shutdown REJECTS pending work instead of silently dropping it (or
      // running it against a graph mid-destruction): every still-queued
      // future resolves to SubmitRejected{kShutdown}.
      std::vector<Submission> doomed;
      doomed.swap(queue_);
      pending_edges_ = 0;
      stats_.rejected_submissions += doomed.size();
      lock.unlock();
      const std::exception_ptr shutdown = rejection(RejectReason::kShutdown);
      for (Submission& s : doomed) fail(s, shutdown);
      lock.lock();
      cv_drained_.notify_all();
      return;
    }
    // Admit the longest same-kind PREFIX of the queue into one phase.
    // Taking a prefix (never cherry-picking around an opposite-kind
    // submission) preserves global FIFO order — the guarantee that a
    // thread's own submissions apply in its program order — while still
    // coalescing every burst of same-kind submissions into a shared phase.
    // FIFO admission is also the fairness policy: neither kind can starve
    // the other, because the queue head always opens the next phase.
    const Kind kind = queue_.front().kind;
    std::size_t count = 1;
    while (count < queue_.size() && queue_[count].kind == kind) ++count;
    std::vector<Submission> batch;
    batch.reserve(count);
    batch.insert(batch.end(),
                 std::make_move_iterator(queue_.begin()),
                 std::make_move_iterator(queue_.begin() +
                                         static_cast<std::ptrdiff_t>(count)));
    queue_.erase(queue_.begin(),
                 queue_.begin() + static_cast<std::ptrdiff_t>(count));
    for (const Submission& s : batch) pending_edges_ -= submission_items(s);
    cv_space_.notify_all();  // the admitted prefix freed queue space
    if (kind == Kind::kQuery) {
      // Deadline sweep at phase admission: a query whose deadline passed
      // while it sat behind earlier phases is rejected, not run — its
      // phase-consistent answer would arrive too late to matter.
      const auto now = std::chrono::steady_clock::now();
      std::size_t kept = 0;
      for (std::size_t i = 0; i < batch.size(); ++i) {
        if (batch[i].has_deadline && batch[i].deadline <= now) {
          ++stats_.expired_queries;
          fail(batch[i], rejection(RejectReason::kDeadlineExpired));
        } else {
          if (kept != i) batch[kept] = std::move(batch[i]);
          ++kept;
        }
      }
      batch.resize(kept);
      if (batch.empty()) {
        cv_drained_.notify_all();
        continue;
      }
    }
    phase_open_ = true;
    if (have_last_kind_ && kind != last_kind_) ++stats_.phase_switches;
    have_last_kind_ = true;
    last_kind_ = kind;
    if (kind == Kind::kMutation) {
      ++stats_.mutation_phases;
    } else if (kind == Kind::kAnalytics) {
      ++stats_.analytics_phases;
    } else {
      ++stats_.query_phases;
    }
    stats_.coalesced_batches += batch.size() - 1;

    lock.unlock();
    SG_FAULT_DELAY(kConductorPhase);
    double fence_seconds = 0.0;
    try {
      fence_seconds = kind == Kind::kMutation ? run_mutation_phase(batch)
                                              : run_concurrent_phase(batch);
    } catch (...) {
      // The phase runners route per-submission errors to the futures; what
      // lands here is infrastructure failure (e.g. bad_alloc submitting a
      // job). The conductor must survive it — fail the batch's unresolved
      // promises instead of escaping the thread into std::terminate.
      const std::exception_ptr error = std::current_exception();
      for (Submission& s : batch) fail(s, error);
    }
    lock.lock();
    stats_.fence_wait_seconds += fence_seconds;
    phase_open_ = false;
    cv_drained_.notify_all();
  }
}

double PhaseScheduler::run_mutation_phase(std::vector<Submission>& batch) {
  // Consecutive same-operation submissions merge into ONE engine batch:
  // concatenation preserves submission order, and the engine's
  // most-recent-wins dedup (sequence = position) resolves cross-submission
  // duplicates exactly as applying the submissions back to back would.
  // The merged batch rides the engine's double-buffered epoch pipeline, so
  // many small ingest submissions stage and apply like one large batch.
  std::size_t i = 0;
  while (i < batch.size()) {
    std::size_t j = i + 1;
    // Maintenance tasks (aged erase, compaction) run alone: they are
    // arbitrary structure mutations, so neither they nor their neighbors
    // may merge across them.
    if (!batch[i].maintenance) {
      while (j < batch.size() && !batch[j].maintenance &&
             batch[j].erase == batch[i].erase) {
        ++j;
      }
    }
    try {
      const std::span<Submission> group(batch.data() + i, j - i);
      const std::uint64_t applied =
          batch[i].maintenance ? batch[i].maintenance()
          : batch[i].erase
              ? apply_merged(group, &Submission::edges, ops_.delete_edges)
              : apply_merged(group, &Submission::inserts, ops_.insert_edges);
      // Every member of the group observes the group total (documented in
      // submit_insert): per-submission counts are not separable once the
      // group applied as one deduped batch.
      for (std::size_t k = i; k < j; ++k) {
        batch[k].promise<std::uint64_t>().set_value(applied);
      }
    } catch (...) {
      const std::exception_ptr err = std::current_exception();
      for (std::size_t k = i; k < j; ++k) fail(batch[k], err);
    }
    i = j;
  }
  // Mutation groups run inline on the conductor (the engine parallelizes
  // internally through the shared pool): the phase closes the moment the
  // last group returns, so there is no residual fence to wait out.
  return 0.0;
}

double PhaseScheduler::run_concurrent_phase(std::vector<Submission>& batch) {
  // Every admitted query batch or analytics task runs as its own pool job,
  // concurrently with the others: both only read the graph, against a
  // phase-consistent state (no mutation phase can open until the fence
  // below closes), and each query batch is internally pipelined as usual.
  // The wait_all is the phase fence: the next phase cannot open until
  // every job of this one has completed.
  auto& pool = simt::ThreadPool::instance();
  std::vector<simt::ThreadPool::JobHandle> jobs;
  jobs.reserve(batch.size());
  try {
    for (Submission& s : batch) {
      jobs.push_back(
          pool.submit(1, [this, &s](std::uint64_t) { run_concurrent(s); }));
    }
  } catch (...) {
    // A failed submit (allocation) must not unwind past jobs already in
    // flight — they reference `batch`. Wait them out, then let the
    // conductor fail the unresolved promises.
    try {
      pool.wait_all(jobs);
    } catch (...) {
    }
    throw;
  }
  util::Timer fence_timer;
  pool.wait_all(jobs);  // the phase fence
  return fence_timer.seconds();
}

void PhaseScheduler::run_concurrent(Submission& s) {
  try {
    if (s.kind == Kind::kAnalytics) {
      s.task();
      s.promise<void>().set_value();
    } else if (std::holds_alternative<std::promise<EdgeWeightBatch>>(
                   s.result)) {
      EdgeWeightBatch result;
      result.weights.assign(s.edges.size(), Weight{0});
      result.found.assign(s.edges.size(), 0);
      ops_.edge_weights(s.edges, result.weights.data(), result.found.data());
      s.promise<EdgeWeightBatch>().set_value(std::move(result));
    } else {
      std::vector<std::uint8_t> out(s.edges.size(), 0);
      ops_.edges_exist(s.edges, out.data());
      s.promise<std::vector<std::uint8_t>>().set_value(std::move(out));
    }
  } catch (...) {
    fail(s, std::current_exception());
  }
}

}  // namespace sg::core
