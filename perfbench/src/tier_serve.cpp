// tier-serve: an open loop against a 4-shard ShardedGraphMap preloaded with
// half of the road_usa analog (scale 2). Every shard journals every batch
// (see kJournalSync for the flush policy) into a private directory the run
// deletes; admission is a bounded queue with
// kReject, so overload shows up as failed submissions, not as an unbounded
// queue. One generator thread submits on a fixed schedule, cycling
// 8 x submit_insert (2^14), 3 x submit_erase (2^13), 8 x submit_edges_exist
// (2^14) and 1 x submit_analytics (a gather of 4096 fixed vertices across
// the tier cut); a collector thread resolves the futures in submission
// order. Latency runs from each submission's due time to its resolution.
//
// Open-loop segments alternate with closed-loop ones, which submit the same
// mix grouped by kind (all inserts of a cycle, wait; all queries, wait;
// ...) to measure the tier's capacity per kind. The traced run traces the
// closed loop.
#include <algorithm>
#include <array>
#include <cmath>
#include <condition_variable>
#include <deque>
#include <filesystem>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "perfbench/src/edge_pool.hpp"
#include "perfbench/src/model.hpp"
#include "perfbench/src/open_loop.hpp"
#include "perfbench/src/workloads.hpp"
#include "src/core/errors.hpp"
#include "src/datasets/suite.hpp"
#include "src/persist/journal.hpp"
#include "src/shard/sharded_graph.hpp"
#include "src/simt/thread_pool.hpp"

namespace perfbench {
namespace {

using sg::core::PhaseScheduleStats;
using sg::shard::ShardedGraphMap;

constexpr std::uint32_t kShards = 4;
constexpr double kScale = 2.0;
/// Offered load in submissions per second, about a sixth of the
/// closed-loop capacity measured on a 4-core AVX2 box (README.md) and
/// reported per run as gen.offered_share. On a shared box the capacity
/// itself varies with the CPU time the host lends the guest; nearer
/// saturation that swings the queueing delay too far for the latency
/// metrics to hold their bounds.
constexpr double kRate = 120.0;
/// Share of --seconds spent in the open loop (the rest is the closed loop).
constexpr double kOpenShare = 0.7;
/// The run alternates segments of open loop (this many cycles, about 1.7 s
/// at kRate) and closed loop (in proportion to kOpenShare). Every p50 and
/// capacity is the median over segments of its per-segment value, so a
/// burst of interference from the host that covers fewer than half the
/// segments leaves it unmoved.
constexpr std::size_t kSegmentCycles = 10;
/// Submissions per latency epoch (half a cycle): at 25 s the open loop
/// gives 220 epochs, enough for epoch_p95_ms.
constexpr std::size_t kEpochSubs = 10;
/// Submission sizes. At 2^12 edges a submission's thread hand-offs
/// (generator, four conductors, collector) cost as much as its work: in
/// back-to-back runs of the same code the write p50 varied by 9% about its
/// mean, against 2% at 2^14, where the work dominates.
constexpr std::size_t kInsertSub = std::size_t{1} << 14;
constexpr std::size_t kEraseSub = std::size_t{1} << 13;
constexpr std::size_t kQuerySub = std::size_t{1} << 14;
/// New edges per insert submission: 8 x 3072 = 3 x 8192 erased per cycle,
/// so the graph holds a steady size; the rest are weight refreshes.
constexpr std::size_t kNewPerInsert = 3072;
constexpr char kCycle[] = "IQIQEIQIQIQEIQIQEIQA";
constexpr std::size_t kCycleLen = sizeof kCycle - 1;
/// A closed-loop round submits the mix of this many cycles grouped by kind
/// (all inserts, wait; all queries, wait; ...). Four cycles make the erase
/// burst 12 submissions, long enough to time steadily.
constexpr std::size_t kBurstCycles = 4;
/// Submissions of `kind` per cycle.
constexpr std::size_t per_cycle(char kind) {
  std::size_t n = 0;
  for (std::size_t i = 0; i < kCycleLen; ++i) n += kCycle[i] == kind;
  return n;
}
constexpr std::uint32_t kQueueCap = 64;  // pending submissions per shard
/// The tier's journal flush policy. Every batch is appended (write(2) to
/// the page cache) but not fsynced: on a shared virtual disk fsync latency
/// swung the open-loop latencies up to 5x between runs of the same code.
/// persist.append_ms prices the fsync of kEachBatch separately.
constexpr auto kJournalSync = sg::core::JournalSyncPolicy::kNone;
constexpr std::size_t kProbeVertices = 4096;
/// The generator sleeps until this long before a submission is due and
/// spins the rest: a timer wake-up on a virtual machine runs about 0.1 ms
/// late, more while the host is busy, and latency counts from the due time.
constexpr std::int64_t kSpinNs = 300'000;
constexpr int kSetups = 7;
constexpr int kAppendSamples = 64;
/// The generator fell behind when sends ran this late, or this many
/// submissions were still outstanding at the end of the schedule.
constexpr double kMaxLateP99Ms = 50.0;
constexpr std::uint64_t kMaxBacklog = 2 * kCycleLen;

struct Sub {
  char kind = 'I';
  std::vector<WeightedEdge> ins;
  std::vector<Edge> edges;
};

/// Deterministic submission inputs, in submission order.
class SubGen {
 public:
  SubGen(const sg::datasets::Coo& coo, std::uint64_t seed) : pool_(coo, seed) {
    for (std::size_t i = 0; i < kProbeVertices; ++i) {
      probe_.push_back(pool_.vertex());
    }
  }
  const std::vector<WeightedEdge>& present() const { return pool_.present(); }
  const std::vector<VertexId>& probe_vertices() const { return probe_; }

  void make(char kind, Sub& s) {
    s.kind = kind;
    s.ins.clear();
    s.edges.clear();
    if (kind == 'I') {
      for (std::size_t i = 0; i < kInsertSub; ++i) {
        s.ins.push_back(i < kNewPerInsert ? pool_.add() : pool_.refresh());
      }
    } else if (kind == 'E') {
      for (std::size_t i = 0; i < kEraseSub; ++i) {
        s.edges.push_back(pool_.erase());
      }
    } else if (kind == 'Q') {
      for (std::size_t i = 0; i < kQuerySub; ++i) {
        s.edges.push_back(pool_.query(i));
      }
    }
  }

 private:
  EdgePool pool_;
  std::vector<VertexId> probe_;
};

enum class Outcome : std::uint8_t {
  kPending,
  kOk,
  kPartial,
  kRejected,
  kError
};

/// One submission as the correctness gate and the latency metrics see it.
struct Record {
  char kind = 'I';
  std::int64_t due = 0, sent = 0, resolved = 0;
  Outcome outcome = Outcome::kPending;
  std::vector<std::uint8_t> answers;              ///< 'Q'
  std::vector<std::vector<VertexId>> gathered;    ///< 'A'
  std::vector<Edge> unapplied;                    ///< kPartial
  std::string error;
};

/// A submitted operation's future (one of the three shapes).
struct Pending {
  Record* rec = nullptr;
  std::future<std::uint64_t> count;
  std::future<std::vector<std::uint8_t>> exists;
  std::future<void> done;
  std::shared_ptr<std::vector<std::vector<VertexId>>> gathered;
};

/// Waits for `p` and files its outcome; never throws.
void resolve(Pending& p) {
  Record& r = *p.rec;
  try {
    if (r.kind == 'I' || r.kind == 'E') {
      p.count.get();
    } else if (r.kind == 'Q') {
      r.answers = p.exists.get();
    } else {
      p.done.get();
      r.gathered = std::move(*p.gathered);
    }
    r.outcome = Outcome::kOk;
  } catch (const sg::core::PartialBatchError& e) {
    r.outcome = Outcome::kPartial;
    r.unapplied = e.unapplied();
  } catch (const sg::core::SubmitRejected&) {
    r.outcome = Outcome::kRejected;
  } catch (const std::exception& e) {
    r.outcome = Outcome::kError;
    r.error = e.what();
  }
  r.resolved = now_ns();
}

std::unique_ptr<ShardedGraphMap> make_tier(const std::string& dir,
                                           std::uint32_t num_vertices) {
  sg::shard::ShardConfig sc;
  sc.shard_count = kShards;
  sc.graph.vertex_capacity = num_vertices;
  sc.graph.max_pending_submissions = kQueueCap;
  sc.graph.backpressure = sg::core::BackpressurePolicy::kReject;
  sc.graph.journal_sync = kJournalSync;
  sc.per_shard = [dir](std::uint32_t s, sg::core::GraphConfig& gc) {
    gc.journal_path = dir + "/shard" + std::to_string(s) + ".journal";
  };
  return std::make_unique<ShardedGraphMap>(std::move(sc));
}

/// Submits `sub` (filed as `rec`) to the tier.
Pending submit(ShardedGraphMap& tier, Sub& sub, Record& rec,
               const std::vector<VertexId>& probe) {
  Pending p;
  p.rec = &rec;
  if (sub.kind == 'I') {
    p.count = tier.submit_insert(std::move(sub.ins));
  } else if (sub.kind == 'E') {
    p.count = tier.submit_erase(std::move(sub.edges));
  } else if (sub.kind == 'Q') {
    p.exists = tier.submit_edges_exist(std::move(sub.edges));
  } else {
    p.gathered = std::make_shared<std::vector<std::vector<VertexId>>>();
    p.done = tier.submit_analytics([&tier, &probe, out = p.gathered] {
      // One gather per shard, over the probe vertices it owns.
      out->resize(probe.size());
      std::vector<VertexId> mine;
      std::vector<std::size_t> at;
      for (std::uint32_t s = 0; s < kShards; ++s) {
        mine.clear();
        at.clear();
        for (std::size_t k = 0; k < probe.size(); ++k) {
          if (tier.owner(probe[k]) == s) {
            mine.push_back(probe[k]);
            at.push_back(k);
          }
        }
        const auto g = tier.shard(s).gather_neighbors(mine);
        for (std::size_t j = 0; j < mine.size(); ++j) {
          const auto slice = g.neighbors_of(j);
          (*out)[at[j]].assign(slice.begin(), slice.end());
        }
      }
    });
  }
  return p;
}

/// Resolves futures in submission order on its own thread.
class Collector {
 public:
  Collector() : thread_([this] { run(); }) {}
  ~Collector() { finish(); }
  Collector(const Collector&) = delete;
  Collector& operator=(const Collector&) = delete;

  void push(Pending p) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      queue_.push_back(std::move(p));
      ++pushed_;
    }
    cv_.notify_one();
  }
  std::uint64_t outstanding() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return pushed_ - resolved_;
  }
  /// Resolves everything pushed so far, then stops the thread.
  void finish() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      closed_ = true;
    }
    cv_.notify_one();
    if (thread_.joinable()) thread_.join();
  }

 private:
  void run() {
    for (;;) {
      Pending p;
      {
        std::unique_lock<std::mutex> lock(mutex_);
        cv_.wait(lock, [this] { return closed_ || !queue_.empty(); });
        if (queue_.empty()) return;
        p = std::move(queue_.front());
        queue_.pop_front();
      }
      resolve(p);
      std::lock_guard<std::mutex> lock(mutex_);
      ++resolved_;
    }
  }

  mutable std::mutex mutex_;
  std::condition_variable cv_;
  std::deque<Pending> queue_;  // guarded by mutex_
  std::uint64_t pushed_ = 0, resolved_ = 0;  // guarded by mutex_
  bool closed_ = false;                      // guarded by mutex_
  std::thread thread_;  // last: starts after the members it uses
};

/// Standalone journal append cost at the per-shard size of one insert
/// submission, fsync included (persist.append_ms).
double journal_append_ms(const std::string& dir, std::uint64_t seed) {
  const std::string path = dir + "/standalone.journal";
  sg::persist::Journal journal(path, sg::core::JournalSyncPolicy::kEachBatch);
  sg::util::Xoshiro256 rng(seed);
  std::vector<WeightedEdge> batch(kInsertSub / kShards);
  std::vector<double> ms;
  for (int i = 0; i < kAppendSamples; ++i) {
    for (auto& e : batch) {
      e = {static_cast<VertexId>(rng.below(1u << 20)),
           static_cast<VertexId>(rng.below(1u << 20)),
           static_cast<Weight>(rng.below(1u << 20))};
    }
    const std::int64_t t0 = now_ns();
    journal.append_insert(batch);
    ms.push_back(seconds_between(t0, now_ns()) * 1e3);
  }
  return median(ms);
}

/// Applies the outcome of mutation `rec` to the model.
template <class Batch, class Apply>
void apply_mutation(const Record& rec, Batch batch, Apply&& apply) {
  if (rec.outcome == Outcome::kOk) {
    apply(batch);
  } else if (rec.outcome == Outcome::kPartial) {
    const std::set<std::pair<VertexId, VertexId>> skip = [&] {
      std::set<std::pair<VertexId, VertexId>> s;
      for (const Edge& e : rec.unapplied) s.emplace(e.src, e.dst);
      return s;
    }();
    std::erase_if(batch, [&](const auto& e) {
      return skip.count({e.src, e.dst}) != 0;
    });
    apply(batch);
  }
}

/// Serial replay in submission order, one model part per thread (each
/// regenerates the inputs and keeps the sources it owns): every read must
/// match the model at its position, and the final tier must equal the
/// model.
void check(const sg::datasets::Coo& coo, std::uint64_t seed,
           const std::deque<Record>& log, const ShardedGraphMap& tier,
           Result& r) {
  constexpr std::uint32_t kParts = 4;
  std::array<std::string, kParts> errors;
  std::array<std::uint64_t, kParts> model_size{}, seen{};
  const auto replay = [&](std::uint32_t part) {
    std::string& err = errors[part];
    SubGen gen(coo, seed);
    EdgeMapModel model(coo.num_vertices, part, kParts, coo.edges.size());
    model.insert(gen.present());
    Sub sub;
    std::vector<VertexId> got;
    for (std::size_t i = 0; i < log.size() && err.empty(); ++i) {
      const Record& rec = log[i];
      gen.make(rec.kind, sub);
      const std::string at = "submission " + std::to_string(i) + ": ";
      if (rec.outcome == Outcome::kPending) {
        err = at + "future never resolved";
      } else if (rec.outcome == Outcome::kError) {
        err = at + "failed: " + rec.error;
      } else if (rec.kind == 'I') {
        apply_mutation(rec, sub.ins, [&](const std::vector<WeightedEdge>& b) {
          model.insert(b);
        });
      } else if (rec.kind == 'E') {
        apply_mutation(rec, sub.edges,
                       [&](const std::vector<Edge>& b) { model.erase(b); });
      } else if (rec.kind == 'Q' && rec.outcome == Outcome::kOk) {
        for (std::size_t q = 0; q < sub.edges.size(); ++q) {
          const Edge e = sub.edges[q];
          if (model.owns(e.src) &&
              model.contains(e.src, e.dst) != (rec.answers[q] != 0)) {
            err = at + "edges_exist answer " + std::to_string(q) +
                  " differs from serial execution";
            break;
          }
        }
      } else if (rec.kind == 'A' && rec.outcome == Outcome::kOk) {
        // A gathered list equals the model's adjacency when it has the
        // model's degree, holds no duplicate, and every entry is live.
        const auto& probe = gen.probe_vertices();
        for (std::size_t k = 0; k < probe.size(); ++k) {
          const VertexId u = probe[k];
          if (!model.owns(u)) continue;
          got = rec.gathered[k];
          std::sort(got.begin(), got.end());
          bool same = got.size() == model.degree(u) &&
                      std::adjacent_find(got.begin(), got.end()) == got.end();
          for (std::size_t j = 0; same && j < got.size(); ++j) {
            same = model.contains(u, got[j]);
          }
          if (!same) {
            err = at + "analytics read of vertex " + std::to_string(u) +
                  " differs from serial execution";
            break;
          }
        }
      }
    }
    for (VertexId u = part; u < coo.num_vertices && err.empty(); u += kParts) {
      tier.shard(tier.owner(u)).for_each_neighbor(u, [&](VertexId v, Weight w) {
        const Weight* want = model.find(u, v);
        ++seen[part];
        if ((want == nullptr || *want != w) && err.empty()) {
          err = "final edge (" + std::to_string(u) + ", " + std::to_string(v) +
                ") or its weight differs from serial execution";
        }
      });
    }
    model_size[part] = model.size();
  };
  {
    std::vector<std::jthread> workers;
    for (std::uint32_t p = 0; p < kParts; ++p) workers.emplace_back(replay, p);
  }
  std::uint64_t want = 0, iterated = 0;
  for (std::uint32_t p = 0; p < kParts; ++p) {
    if (!errors[p].empty()) r.mismatch(errors[p]);
    want += model_size[p];
    iterated += seen[p];
  }
  if (tier.num_edges() != want || iterated != want) {
    r.mismatch("final edge count " + std::to_string(tier.num_edges()) +
               " (iterated " + std::to_string(iterated) +
               ") != serial execution " + std::to_string(want));
  }
}

std::uint64_t dir_bytes(const std::string& dir, const char* suffix) {
  std::uint64_t total = 0;
  for (const auto& f : std::filesystem::directory_iterator(dir)) {
    if (f.path().string().ends_with(suffix)) total += f.file_size();
  }
  return total;
}

}  // namespace

unsigned tier_serve_pool_width(unsigned nproc) {
  return std::max(1u, nproc / kShards);
}

Result run_tier_serve(const Options& opt) {
  Result r;
  const sg::datasets::Coo coo = sg::datasets::make_dataset(
      "road_usa", opt.scale > 0 ? opt.scale : kScale, kDatasetSeed);
  const ScratchDir scratch(opt, "tier-serve");
  const std::string& dir = scratch.path();

  SubGen gen(coo, opt.seed);
  std::unique_ptr<ShardedGraphMap> tier;
  std::vector<double> setups;
  for (int i = 0; i < kSetups; ++i) {
    tier.reset();
    for (const auto& f : std::filesystem::directory_iterator(dir)) {
      std::filesystem::remove(f.path());
    }
    const std::int64_t t0 = now_ns();
    tier = make_tier(dir, coo.num_vertices);
    tier->insert_edges(gen.present());
    setups.push_back(seconds_between(t0, now_ns()));
  }
  std::uint64_t mutation_edges = gen.present().size();
  const auto arena_bytes = [&] {
    std::uint64_t bytes = 0;
    for (std::uint32_t s = 0; s < kShards; ++s) {
      bytes += tier->shard(s).arena_stats().bytes_reserved();
    }
    return bytes;
  };
  const std::uint64_t arena_start = arena_bytes();

  // ---- segments: open loop, then closed loop --------------------------
  std::deque<Record> log;
  std::vector<std::size_t> open_recs;  // log indices of open-loop records
  const std::size_t segments = std::max<std::size_t>(
      1, static_cast<std::size_t>(std::lround(
             opt.seconds * kOpenShare * kRate /
             double(kSegmentCycles * kCycleLen))));
  const double closed_seg_s = double(kSegmentCycles * kCycleLen) / kRate *
                              (1.0 - kOpenShare) / kOpenShare;
  double fence_wait_s = 0;
  std::uint64_t phase_switches = 0, coalesced = 0, max_queue_depth = 0;
  std::vector<double> late_ms, submit_us;
  std::uint64_t backlog_end = 0;
  double open_bytes_per_edge = 0;
  Sub sub;

  Tracer off(false), on(true);
  // Per-segment medians of the per-burst rates by kind (I, Q, E), and of
  // the segments' mutation throughput.
  std::vector<double> kind_rate[3], seg_rate[3], mutation_rate;
  double closed_wall = 0;
  double engine_stage = 0, engine_apply = 0, engine_overlap = 0;
  double parity_s[2] = {0, 0};
  std::size_t parity_n[2] = {0, 0};
  std::vector<double> noop_ms;
  std::vector<Sub> group(per_cycle('I') * kBurstCycles);
  std::size_t c = 0;  // closed-loop rounds, over all segments

  for (std::size_t seg = 0; seg < segments; ++seg) {
    const std::uint64_t count = kSegmentCycles * kCycleLen;
    const PhaseScheduleStats sched0 = tier->tier_stats().shard_totals;
    {
      Collector collector;
      gen.make(kCycle[0], sub);
      const OpenLoopSchedule schedule{now_ns() + 1'000'000, 1e9 / kRate};
      drive_open_loop(
          schedule, count, now_ns,
          [](std::int64_t t) {
            std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
                std::chrono::nanoseconds(t - kSpinNs)));
            while (now_ns() < t) {
            }
          },
          [&](std::uint64_t i, std::int64_t due) {
            open_recs.push_back(log.size());
            Record& rec = log.emplace_back();
            rec.kind = sub.kind;
            rec.due = due;
            rec.sent = now_ns();
            if (sub.kind == 'I') mutation_edges += sub.ins.size();
            if (sub.kind == 'E') mutation_edges += sub.edges.size();
            Pending p = submit(*tier, sub, rec, gen.probe_vertices());
            const std::int64_t back = now_ns();
            collector.push(std::move(p));
            late_ms.push_back(seconds_between(due, rec.sent) * 1e3);
            submit_us.push_back(seconds_between(rec.sent, back) * 1e6);
            if (i + 1 == count) {
              backlog_end = std::max(backlog_end, collector.outstanding());
            } else {
              gen.make(kCycle[(i + 1) % kCycleLen], sub);
            }
          });
      collector.finish();
    }
    const PhaseScheduleStats sched1 = tier->tier_stats().shard_totals;
    fence_wait_s += sched1.fence_wait_seconds - sched0.fence_wait_seconds;
    phase_switches += sched1.phase_switches - sched0.phase_switches;
    coalesced += sched1.coalesced_batches - sched0.coalesced_batches;
    max_queue_depth = std::max<std::uint64_t>(max_queue_depth,
                                              sched1.max_queue_depth);
    // After a fixed amount of work, so a faster build is not charged for
    // running more closed-loop rounds.
    if (seg == 0) {
      open_bytes_per_edge =
          static_cast<double>(arena_bytes()) /
          static_cast<double>(std::max<std::uint64_t>(1, tier->num_edges()));
    }

    // Closed loop: rounds of the mix grouped by kind, each burst waited for.
    double seg_wall = 0;
    std::uint64_t seg_edges = 0;
    for (; seg_wall < closed_seg_s; ++c) {
      Tracer& tr = opt.trace && c % 2 == 1 ? on : off;
      double cycle_s = 0;
      for (const char kind : {'I', 'Q', 'E', 'A'}) {
        const std::size_t n = per_cycle(kind) * kBurstCycles;
        for (std::size_t k = 0; k < n; ++k) {
          gen.make(kind, group[k]);
          if (kind == 'I') mutation_edges += group[k].ins.size();
          if (kind == 'E') mutation_edges += group[k].edges.size();
        }
        const std::uint64_t op = log.size();
        const std::uint32_t root = tr.open("", op, 0);
        const std::int64_t t0 = now_ns();
        std::vector<Pending> pending;
        for (std::size_t k = 0; k < n; ++k) {
          Record& rec = log.emplace_back();
          rec.kind = kind;
          const std::uint32_t span = tr.open("shard", op);
          rec.due = rec.sent = now_ns();
          pending.push_back(
              submit(*tier, group[k], rec, gen.probe_vertices()));
          tr.close(span);
        }
        const std::uint32_t wait = tr.open("core.phase_scheduler", op);
        const std::int64_t w0 = now_ns();
        for (Pending& p : pending) resolve(p);
        const std::int64_t t1 = now_ns();
        tr.close(wait);
        tr.close(root);
        const double burst = seconds_between(t0, t1);
        cycle_s += burst;
        if (kind == 'A') continue;
        const std::size_t items = n * (kind == 'I'   ? kInsertSub
                                       : kind == 'Q' ? kQuerySub
                                                     : kEraseSub);
        seg_rate[kind == 'I' ? 0 : kind == 'Q' ? 1 : 2].push_back(
            double(items) / burst / 1e6);
        if (kind != 'Q') seg_edges += items;
        // The engine's share of the wait: the last engine batch of the
        // slowest shard (its stage/apply windows, as the shard reports
        // them).
        sg::core::BatchPipelineStats worst;
        for (std::uint32_t s = 0; s < kShards; ++s) {
          const auto st = kind == 'Q' ? tier->shard(s).last_query_stats()
                                      : tier->shard(s).last_batch_stats();
          if (st.stage_seconds + st.apply_seconds - st.overlap_seconds >
              worst.stage_seconds + worst.apply_seconds -
                  worst.overlap_seconds) {
            worst = st;
          }
        }
        engine_stage += worst.stage_seconds;
        engine_apply += worst.apply_seconds;
        engine_overlap += worst.overlap_seconds;
        const auto st = static_cast<std::int64_t>(
            (worst.stage_seconds - worst.overlap_seconds) * 1e9);
        const auto ap = static_cast<std::int64_t>(worst.apply_seconds * 1e9);
        tr.record("core.batch_engine", w0, std::min(t1, w0 + st), wait, op);
        tr.record("slabhash", std::min(t1, w0 + st),
                  std::min(t1, w0 + st + ap), wait, op);
      }
      seg_wall += cycle_s;
      parity_s[c % 2] += cycle_s;
      ++parity_n[c % 2];
      if (opt.trace) {
        const std::int64_t t0 = now_ns();
        tier->submit_analytics([] {}).get();
        noop_ms.push_back(seconds_between(t0, now_ns()) * 1e3);
      }
    }
    closed_wall += seg_wall;
    for (int k = 0; k < 3; ++k) {
      kind_rate[k].push_back(median(seg_rate[k]));
      seg_rate[k].clear();
    }
    mutation_rate.push_back(double(seg_edges) / seg_wall / 1e6);
  }
  const double capacity = static_cast<double>(parity_n[0] + parity_n[1]) *
                          double(kCycleLen * kBurstCycles) / closed_wall;

  // An epoch's latency is the mean due-to-resolved latency of its
  // submissions (failed ones included).
  std::vector<double> write_ms, read_ms, analytics_ms, epoch_ms;
  double epoch_sum = 0;
  for (std::size_t i = 0; i < open_recs.size(); ++i) {
    const Record& rec = log[open_recs[i]];
    const double ms = seconds_between(rec.due, rec.resolved) * 1e3;
    epoch_sum += ms;
    if ((i + 1) % kEpochSubs == 0) {
      epoch_ms.push_back(epoch_sum / kEpochSubs);
      epoch_sum = 0;
    }
    if (rec.outcome != Outcome::kOk) continue;  // failures carry no latency
    (rec.kind == 'Q'   ? read_ms
     : rec.kind == 'A' ? analytics_ms
                       : write_ms)
        .push_back(ms);
  }

  // ---- metrics ----------------------------------------------------------
  std::uint64_t failed = 0;
  for (const Record& rec : log) failed += rec.outcome != Outcome::kOk;
  r.attempted = log.size();
  r.failed = failed;
  // With too few samples for a p99, the latest send stands in for it.
  const double late_p99 = percentile(late_ms, 99).value_or(
      *std::max_element(late_ms.begin(), late_ms.end()));
  if (late_p99 > kMaxLateP99Ms || backlog_end > kMaxBacklog) {
    r.invalid.push_back("the generator fell behind its schedule (late p99 " +
                        std::to_string(late_p99) + " ms, backlog " +
                        std::to_string(backlog_end) + ")");
  }
  if (!opt.trace) {
    r.e2e("setup_s", median(setups), "s");
    r.e2e("insert_medges_s", median(kind_rate[0]), "Medge/s");
    r.e2e("query_mq_s", median(kind_rate[1]), "MQuery/s");
    r.e2e("erase_medges_s", median(kind_rate[2]), "Medge/s");
    r.e2e("stream_medges_s", median(mutation_rate), "Medge/s");
    // One window per segment (exact unless submissions failed).
    latency_metric(r, "write_p50_ms", "write", write_ms, 50, true,
                   kSegmentCycles * (per_cycle('I') + per_cycle('E')));
    latency_metric(r, "read_p50_ms", "read", read_ms, 50, true,
                   kSegmentCycles * per_cycle('Q'));
    latency_metric(r, "analytics_p50_ms", "analytics", analytics_ms, 50, true,
                   kSegmentCycles * per_cycle('A'));
    latency_metric(r, "epoch_p50_ms", "epoch", epoch_ms, 50, true,
                   kSegmentCycles * kCycleLen / kEpochSubs);
    r.e2e("bytes_per_edge", open_bytes_per_edge, "B");
  } else {
    latency_metric(r, "write_p99_ms", "write", write_ms, 99, false);
    latency_metric(r, "epoch_p95_ms", "epoch", epoch_ms, 95, false);
    latency_metric(r, "read_p99_ms", "read", read_ms, 99, false);
    r.layer("samples.write", double(write_ms.size()), "count");
    r.layer("samples.read", double(read_ms.size()), "count");
    r.layer("samples.analytics", double(analytics_ms.size()), "count");
    r.layer("samples.epoch", double(epoch_ms.size()), "count");
    r.layer("failed_share", double(failed) / double(log.size()), "ratio");
    r.layer("gen.late_p99_ms", late_p99, "ms");
    r.layer("gen.backlog_end", double(backlog_end), "count");
    r.layer("gen.offered_share", kRate / capacity, "ratio");
    r.layer("shard.submit_us_p50", percentile(submit_us, 50).value_or(0), "us");
    r.layer("shard.submit_us_p99", percentile(submit_us, 99).value_or(0), "us");
    const sg::shard::RouterStats rs = tier->router_stats();
    const std::uint64_t most =
        *std::max_element(rs.per_shard_items.begin(), rs.per_shard_items.end());
    std::uint64_t total = 0;
    for (const std::uint64_t n : rs.per_shard_items) total += n;
    r.layer("shard.load_skew", double(most) * kShards / double(total), "ratio");
    r.layer("core.phase_scheduler.fence_wait_s", fence_wait_s, "s");
    r.layer("core.phase_scheduler.phase_switches", double(phase_switches),
            "count");
    r.layer("core.phase_scheduler.coalesced", double(coalesced), "count");
    r.layer("core.phase_scheduler.max_queue_depth", double(max_queue_depth),
            "count");
    r.layer("core.phase_scheduler.noop_fence_p50_ms", median(noop_ms), "ms");
    r.layer("core.batch_engine.stage_s", engine_stage, "s");
    r.layer("slabhash.apply_s", engine_apply, "s");
    r.layer("core.batch_engine.overlap_share",
            engine_stage > 0 ? engine_overlap / engine_stage : 0.0, "ratio");
    r.layer("persist.append_ms", journal_append_ms(dir, opt.seed), "ms");
    r.layer("persist.journal_bytes_per_edge",
            double(dir_bytes(dir, ".journal") -
                   std::filesystem::file_size(dir + "/standalone.journal")) /
                double(mutation_edges),
            "B");
    std::uint64_t dyn = 0, all = 0;
    for (std::uint32_t s = 0; s < kShards; ++s) {
      const auto a = tier->shard(s).arena_stats();
      dyn += a.dynamic_slabs;
      all += a.bulk_slabs + a.dynamic_slabs;
    }
    r.layer("memory.bytes_reserved", double(arena_bytes()), "B");
    r.layer("memory.dynamic_slab_share", double(dyn) / double(all), "ratio");
    r.layer("memory.steady_flatness",
            double(arena_bytes()) / double(arena_start), "ratio");
    r.layer("simt.pool_width",
            double(sg::simt::ThreadPool::instance().requested()), "count");
    report_trace(r, on, parity_s[0] / double(parity_n[0]),
                 parity_s[1] / double(std::max<std::size_t>(1, parity_n[1])));
  }

  tier->drain();
  if (opt.corrupt) {
    for (Record& rec : log) {
      if (rec.kind == 'Q' && rec.outcome == Outcome::kOk) {
        rec.answers[0] ^= 1;
        break;
      }
    }
  }
  check(coo, opt.seed, log, *tier, r);
  return r;
}

}  // namespace perfbench
