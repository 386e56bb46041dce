// Fixed-rate open-loop schedule: submission i is due at start + i * period,
// however late earlier submissions went out, so a stall delays the sends
// behind it (they go out back to back until caught up) but never moves a
// due time. Latency is measured from the due time.
#pragma once

#include <cmath>
#include <cstdint>

namespace perfbench {

struct OpenLoopSchedule {
  std::int64_t start_ns = 0;
  double period_ns = 0.0;

  std::int64_t due(std::uint64_t i) const {
    return start_ns +
           static_cast<std::int64_t>(std::llround(double(i) * period_ns));
  }
};

/// Sends `count` submissions on `schedule`: sleeps until each is due
/// unless already behind, then calls send(i, due_ns). `now()` and
/// `sleep_until(ns)` are parameters so the self-tests can fake the clock.
template <class Now, class SleepUntil, class Send>
void drive_open_loop(const OpenLoopSchedule& schedule, std::uint64_t count,
                     Now&& now, SleepUntil&& sleep_until, Send&& send) {
  for (std::uint64_t i = 0; i < count; ++i) {
    const std::int64_t due = schedule.due(i);
    if (now() < due) sleep_until(due);
    send(i, due);
  }
}

}  // namespace perfbench
