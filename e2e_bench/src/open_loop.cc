#include "open_loop.h"

#include <cmath>
#include <thread>

namespace e2e {

void run_schedule(const std::vector<ScheduledFrame>& frames,
                  const std::vector<std::uint8_t>& bytes, std::size_t conns,
                  FrameSink& sink, std::int64_t start_ns,
                  std::vector<std::int64_t>& sent_ns) {
  // nanosleep overshoots by tens of microseconds; sleep only when the next
  // frame is further away than that, and spin for the rest.
  constexpr std::int64_t kSpinNs = 80'000;
  sent_ns.assign(frames.size(), 0);
  std::vector<std::vector<std::uint8_t>> batch(conns);
  std::vector<std::size_t> batch_frames;
  std::size_t next = 0;
  while (next < frames.size()) {
    const std::int64_t due = start_ns + frames[next].due_ns;
    std::int64_t now = now_ns();
    if (due - now > kSpinNs) {
      std::this_thread::sleep_for(
          std::chrono::nanoseconds(due - now - kSpinNs));
      continue;
    }
    while (now < due) now = now_ns();
    batch_frames.clear();
    while (next < frames.size() && start_ns + frames[next].due_ns <= now) {
      const ScheduledFrame& f = frames[next];
      batch[f.conn].insert(batch[f.conn].end(), bytes.begin() + static_cast<std::ptrdiff_t>(f.offset),
                           bytes.begin() + static_cast<std::ptrdiff_t>(f.offset + f.size));
      batch_frames.push_back(next);
      ++next;
    }
    const std::int64_t sent = now_ns();
    for (std::size_t i : batch_frames) sent_ns[i] = sent;
    for (std::size_t c = 0; c < conns; ++c) {
      if (batch[c].empty()) continue;
      sink.send(static_cast<std::uint32_t>(c), batch[c].data(),
                batch[c].size());
      batch[c].clear();
    }
  }
}

OpenLoopReport account(const std::vector<ScheduledFrame>& frames,
                       std::int64_t start_ns,
                       const std::vector<std::int64_t>& sent_ns,
                       const std::vector<std::int64_t>& ack_ns) {
  OpenLoopReport report;
  std::vector<double> ack, close, lag;
  std::int64_t last_ack = start_ns;
  std::int64_t last_due = start_ns;
  for (std::size_t i = 0; i < frames.size(); ++i) {
    const std::int64_t due = start_ns + frames[i].due_ns;
    last_due = std::max(last_due, due);
    lag.push_back(static_cast<double>(sent_ns[i] - due) * 1e-6);
    if (ack_ns[i] < 0) {
      ++report.unanswered;
      continue;
    }
    last_ack = std::max(last_ack, ack_ns[i]);
    const double ms = static_cast<double>(ack_ns[i] - due) * 1e-6;
    (frames[i].closes_day ? close : ack).push_back(ms);
  }
  report.ack_ms = summarize_tail(std::move(ack));
  report.close_ms = summarize_tail(std::move(close));
  report.lag_ms = summarize_tail(std::move(lag));
  report.drain_ms = static_cast<double>(last_ack - last_due) * 1e-6;
  return report;
}

double search_max_rate(const std::function<bool(double)>& meets, double lo,
                       double hi, int steps) {
  if (!meets(lo)) return lo;
  if (meets(hi)) return hi;
  for (int i = 0; i < steps; ++i) {
    const double mid = std::sqrt(lo * hi);
    (meets(mid) ? lo : hi) = mid;
  }
  return lo;
}

}  // namespace e2e
