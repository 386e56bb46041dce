#include "perfbench/src/trace.hpp"

#include <algorithm>

#include "perfbench/src/report.hpp"

namespace perfbench {

namespace {
/// Spans open on this thread, innermost last.
thread_local std::vector<std::uint32_t> t_open;
}  // namespace

std::uint32_t Tracer::open(const char* layer, std::uint64_t op,
                           std::uint32_t parent) {
  if (!enabled_) return 0;
  if (parent == kInherit) parent = t_open.empty() ? 0 : t_open.back();
  const std::int64_t start = now_ns();
  std::uint32_t id = 0;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    id = static_cast<std::uint32_t>(spans_.size() + 1);
    spans_.push_back({id, parent, layer, start, start, op});
  }
  t_open.push_back(id);
  return id;
}

void Tracer::close(std::uint32_t id) {
  if (id == 0) return;
  const std::int64_t end = now_ns();
  {
    std::lock_guard<std::mutex> lock(mutex_);
    spans_[id - 1].end_ns = end;
  }
  const auto it = std::find(t_open.rbegin(), t_open.rend(), id);
  if (it != t_open.rend()) t_open.erase(std::next(it).base());
}

std::uint32_t Tracer::record(const char* layer, std::int64_t start_ns,
                             std::int64_t end_ns, std::uint32_t parent,
                             std::uint64_t op) {
  if (!enabled_) return 0;
  std::lock_guard<std::mutex> lock(mutex_);
  const auto id = static_cast<std::uint32_t>(spans_.size() + 1);
  spans_.push_back({id, parent, layer, start_ns, end_ns, op});
  return id;
}

void Tracer::reparent(std::uint32_t id, std::uint32_t parent) {
  if (id == 0) return;
  std::lock_guard<std::mutex> lock(mutex_);
  spans_[id - 1].parent = parent;
}

std::vector<Span> Tracer::spans() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return spans_;
}

Attribution attribute(const std::vector<Span>& spans) {
  Attribution out;
  std::vector<std::vector<std::uint32_t>> children(spans.size() + 1);
  for (const Span& s : spans) {
    if (s.parent == 0) {
      out.wall_s += seconds_between(s.start_ns, s.end_ns);
    } else if (s.parent <= spans.size()) {
      children[s.parent].push_back(s.id);
    }
  }
  // Each visited span carries its interval clipped to its ancestors.
  struct Visit {
    std::uint32_t id;
    std::int64_t start, end;
  };
  std::vector<Visit> stack;
  for (const Span& s : spans) {
    if (s.parent == 0) stack.push_back({s.id, s.start_ns, s.end_ns});
  }
  double attributed = 0.0;
  std::vector<std::pair<std::int64_t, std::int64_t>> iv;
  while (!stack.empty()) {
    const Visit v = stack.back();
    stack.pop_back();
    iv.clear();
    for (const std::uint32_t c : children[v.id]) {
      const Span& k = spans[c - 1];
      const std::int64_t a = std::max(k.start_ns, v.start);
      const std::int64_t b = std::min(k.end_ns, v.end);
      if (b <= a) continue;
      iv.emplace_back(a, b);
      stack.push_back({c, a, b});
    }
    std::sort(iv.begin(), iv.end());
    std::int64_t covered = 0, cur_a = 0, cur_b = 0;
    bool have = false;
    for (const auto& [a, b] : iv) {
      if (have && a <= cur_b) {
        cur_b = std::max(cur_b, b);
        continue;
      }
      if (have) covered += cur_b - cur_a;
      cur_a = a;
      cur_b = b;
      have = true;
    }
    if (have) covered += cur_b - cur_a;
    const Span& s = spans[v.id - 1];
    if (s.parent == 0) continue;  // a root's own time is unattributed
    const double self = seconds_between(v.start, v.end) - covered * 1e-9;
    out.self_s[s.layer] += self;
    attributed += self;
  }
  out.unattributed_s = out.wall_s - attributed;
  return out;
}

}  // namespace perfbench
