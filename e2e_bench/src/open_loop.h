// Open-loop load generation: frames go out at their scheduled due time
// whether or not earlier ones were answered, and every latency is taken
// from the due time, so a stall in the system (or in the generator) counts
// against every frame that should have been sent during it.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#include "common.h"

namespace e2e {

/// One pre-encoded frame of the schedule.
struct ScheduledFrame {
  std::int64_t due_ns = 0;  ///< offset from the schedule's start
  std::uint32_t conn = 0;
  std::uint32_t household = 0;
  std::size_t offset = 0;  ///< into the schedule's byte buffer
  std::size_t size = 0;
  bool closes_day = false;
};

/// Where the generator writes; the serve phase wraps sockets, the
/// self-tests wrap a fake.
class FrameSink {
 public:
  virtual ~FrameSink() = default;
  virtual void send(std::uint32_t conn, const std::uint8_t* data,
                    std::size_t size) = 0;
};

/// Sends `frames` (sorted by due time) at start_ns + due_ns. Frames that are
/// already due go out back to back, coalesced per connection. sent_ns[i]
/// receives the absolute time frame i was handed to the sink.
void run_schedule(const std::vector<ScheduledFrame>& frames,
                  const std::vector<std::uint8_t>& bytes, std::size_t conns,
                  FrameSink& sink, std::int64_t start_ns,
                  std::vector<std::int64_t>& sent_ns);

/// Latency and generator-lag accounting of one open-loop run. ack_ns[i] < 0
/// marks frame i unanswered; it counts as failed and as missing every
/// latency limit (it is left out of the latency sample).
struct OpenLoopReport {
  TailSummary ack_ms;    ///< frames that do not close a day
  TailSummary close_ms;  ///< frames that close a day
  TailSummary lag_ms;    ///< how late the generator sent
  std::size_t unanswered = 0;
  double drain_ms = 0.0;  ///< last answer minus last due time
};

OpenLoopReport account(const std::vector<ScheduledFrame>& frames,
                       std::int64_t start_ns,
                       const std::vector<std::int64_t>& sent_ns,
                       const std::vector<std::int64_t>& ack_ns);

/// Highest rate in [lo, hi] for which `meets` holds: probes lo and hi,
/// then bisects geometrically `steps` times, assuming `meets` is monotone
/// (true below capacity). Returns lo when even lo fails.
double search_max_rate(const std::function<bool(double)>& meets, double lo,
                       double hi, int steps);

}  // namespace e2e
