// Serving half of a workload: open-loop traffic against an in-process
// rlblh_serve daemon (default config) over unix sockets.
//
// All traffic is generated and encoded before any clock starts. Households
// are multiplexed over at most `threads` connections, the way a head-end
// aggregator forwards meters; one sender thread writes frames at their due
// times and one receiver thread matches acks to frames. Afterwards every
// household's final Stats and checkpoint file are compared with an offline
// HouseholdSession replay of the same readings. The traced run replays a
// subset of the recorded frames offline, with no sockets, through the
// codec, HouseholdSession and CheckpointStore with each call timed, and
// searches the highest offered rate that meets a latency limit.
#include <sys/epoll.h>
#include <unistd.h>

#include <atomic>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "open_loop.h"
#include "phases.h"
#include "serve/checkpoint.h"
#include "serve/net.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "serve/session.h"
#include "sim/scenario.h"
#include "util/rng.h"

namespace e2e {

namespace fs = std::filesystem;
using namespace rlblh::serve;

std::string compare_checkpoint(const std::string& path,
                               const std::string& expected) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return "missing checkpoint " + path;
  std::ostringstream content;
  content << in.rdbuf();
  const std::string actual = content.str();
  if (actual == expected) return "";
  std::size_t at = 0;
  while (at < actual.size() && at < expected.size() &&
         actual[at] == expected[at]) {
    ++at;
  }
  return path + " differs from the offline replay at byte " +
         std::to_string(at) + " (" + std::to_string(actual.size()) + " vs " +
         std::to_string(expected.size()) + " bytes)";
}

namespace {

constexpr std::size_t kIntervals = 1440;
// Rate probe: latency limit, geometric search range and per-trial size.
constexpr double kRateLimitMs = 50.0;
constexpr double kRateLo = 20'000.0;
constexpr double kRateHi = 320'000.0;
constexpr int kRateSteps = 6;
constexpr double kProbeSeconds = 0.5;

struct Household {
  std::uint64_t id = 0;
  std::string spec;
  std::uint32_t conn = 0;
  double jitter = 0.0;  ///< fixed offset inside its slot or minute, in [0, 1)
  std::unique_ptr<rlblh::TraceSource> source;
  std::vector<double> usage;        ///< consecutive days, day-major
  std::size_t preroll = 0;          ///< day-0 intervals sent before the clock
  std::size_t cursor = 0;           ///< next interval (over all days) to send
  std::vector<std::size_t> frames;  ///< its scheduled frames, in order
  std::size_t final_days = 0;       ///< days closed by its last frame

  /// Synthesizes usage until global interval `g` exists.
  void extend_usage(std::size_t g) {
    rlblh::DayTrace day(kIntervals);
    while (usage.size() <= g) {
      source->next_day_into(day);
      usage.insert(usage.end(), day.values().begin(), day.values().end());
    }
  }
};

struct FrameMeta {
  std::uint32_t household = 0;
  std::uint32_t day = 0;
  std::uint32_t first = 0;
  std::uint32_t count = 0;
};

/// Every frame the run sends, in scheduling order. Frames are appended as
/// each open-loop run is generated (before its clock starts).
struct Traffic {
  std::vector<Household> households;
  std::vector<ScheduledFrame> frames;
  std::vector<FrameMeta> meta;         ///< parallel to frames
  std::vector<std::int64_t> due_abs;   ///< absolute due time once scheduled
  std::vector<std::uint8_t> bytes;
  std::size_t closes = 0;
};

struct Pending {
  ScheduledFrame frame;
  FrameMeta meta;
};

double unit_draw(std::uint64_t seed, std::uint64_t index) {
  return static_cast<double>(rlblh::derive_stream_seed(seed, index) >> 11) *
         0x1.0p-53;
}

std::span<const double> frame_values(const Household& hh,
                                     const FrameMeta& m) {
  return std::span<const double>(hh.usage).subspan(
      static_cast<std::size_t>(m.day) * kIntervals + m.first, m.count);
}

/// Encodes `pending` (sorted by due time here) onto the end of the
/// traffic; returns the index of the first appended frame.
std::size_t append_frames(Traffic& t, std::vector<Pending>& pending) {
  std::stable_sort(pending.begin(), pending.end(),
                   [](const Pending& a, const Pending& b) {
                     return a.frame.due_ns < b.frame.due_ns;
                   });
  const std::size_t first = t.frames.size();
  for (Pending& p : pending) {
    Household& hh = t.households[p.meta.household];
    ReadingsMsg msg;
    msg.household_id = hh.id;
    msg.day = p.meta.day;
    msg.first_interval = p.meta.first;
    const std::span<const double> values = frame_values(hh, p.meta);
    msg.values.assign(values.begin(), values.end());
    p.frame.offset = t.bytes.size();
    encode_readings(t.bytes, msg);
    p.frame.size = t.bytes.size() - p.frame.offset;
    p.frame.conn = hh.conn;
    p.frame.household = p.meta.household;
    hh.frames.push_back(t.frames.size());
    if (p.frame.closes_day) {
      ++t.closes;
      hh.final_days = p.meta.day + 1;
    }
    t.frames.push_back(p.frame);
    t.meta.push_back(p.meta);
    t.due_abs.push_back(-1);
  }
  return first;
}

/// Per-minute frames (one interval each): every household sends its next
/// `per_household` intervals, one per compressed minute, at `rate` frames/s
/// over all households. Returns the index of the first appended frame.
std::size_t append_stream(Traffic& t, double rate, std::size_t per_household) {
  const double minute_s =
      static_cast<double>(t.households.size()) / rate;
  std::vector<Pending> pending;
  for (std::size_t h = 0; h < t.households.size(); ++h) {
    Household& hh = t.households[h];
    hh.extend_usage(hh.cursor + per_household);
    for (std::size_t k = 0; k < per_household; ++k) {
      const std::size_t g = hh.cursor + k;
      Pending p;
      p.frame.due_ns = static_cast<std::int64_t>(
          (static_cast<double>(k) + hh.jitter) * minute_s * 1e9);
      p.frame.closes_day = g % kIntervals == kIntervals - 1;
      p.meta = {static_cast<std::uint32_t>(h),
                static_cast<std::uint32_t>(g / kIntervals),
                static_cast<std::uint32_t>(g % kIntervals), 1};
      pending.push_back(p);
    }
    hh.cursor += per_household;
  }
  return append_frames(t, pending);
}

/// Saturation burst: every household's next day in frames of at most
/// `frame_intervals` readings (none straddles a day boundary), all
/// due at once and interleaved so frame k of every household precedes
/// frame k + 1 of any. Returns the index of the first appended frame.
std::size_t append_burst(Traffic& t, std::size_t frame_intervals) {
  std::vector<Pending> pending;
  for (std::size_t h = 0; h < t.households.size(); ++h) {
    Household& hh = t.households[h];
    const std::size_t end = hh.cursor + kIntervals;
    hh.extend_usage(end - 1);
    std::size_t k = 0;
    for (std::size_t g = hh.cursor; g < end; ++k) {
      const std::size_t count =
          std::min(frame_intervals, kIntervals - g % kIntervals);
      Pending p;
      p.frame.due_ns = static_cast<std::int64_t>(k);
      p.frame.closes_day = (g + count) % kIntervals == 0;
      p.meta = {static_cast<std::uint32_t>(h),
                static_cast<std::uint32_t>(g / kIntervals),
                static_cast<std::uint32_t>(g % kIntervals),
                static_cast<std::uint32_t>(count)};
      pending.push_back(p);
      g += count;
    }
    hh.cursor = end;
  }
  return append_frames(t, pending);
}

Traffic make_traffic(const ServeShape& shape, std::uint64_t seed,
                     std::size_t conns) {
  Traffic t;
  const std::size_t n = shape.households;
  for (std::size_t h = 0; h < n; ++h) {
    Household hh;
    hh.id = h + 1;
    hh.spec = shape.blueprints[h % shape.blueprints.size()] + ";seed=" +
              std::to_string(rlblh::derive_stream_seed(seed, h) >> 20);
    hh.conn = static_cast<std::uint32_t>(h % conns);
    hh.jitter = unit_draw(seed ^ 0x6a09e667f3bcc909ULL, h);
    hh.source =
        rlblh::make_scenario_source(rlblh::ScenarioSpec::parse(hh.spec));
    // Stream shape: staggered day phases spread the day closes evenly.
    if (shape.slot_s == 0.0) hh.preroll = h * kIntervals / n;
    hh.cursor = hh.preroll;
    hh.extend_usage(hh.preroll);
    t.households.push_back(std::move(hh));
  }
  if (shape.slot_s == 0.0) {
    append_stream(t, shape.stream_rate, shape.stream_frames);
    return t;
  }
  // Midnight shape: slot s of day d is due at (24 d + s + 0.9 jitter) slots,
  // so every household's closing frame falls in the day's last slot.
  const std::size_t slots = kIntervals / shape.frame_intervals;
  std::vector<Pending> pending;
  for (std::size_t h = 0; h < n; ++h) {
    Household& hh = t.households[h];
    hh.extend_usage(shape.days * kIntervals - 1);
    for (std::size_t d = 0; d < shape.days; ++d) {
      for (std::size_t s = 0; s < slots; ++s) {
        Pending p;
        p.frame.due_ns = static_cast<std::int64_t>(
            (static_cast<double>(d * slots + s) + 0.9 * hh.jitter) *
            shape.slot_s * 1e9);
        p.frame.closes_day = s + 1 == slots;
        p.meta = {static_cast<std::uint32_t>(h),
                  static_cast<std::uint32_t>(d),
                  static_cast<std::uint32_t>(s * shape.frame_intervals),
                  static_cast<std::uint32_t>(shape.frame_intervals)};
        pending.push_back(p);
      }
    }
    hh.cursor = shape.days * kIntervals;
  }
  append_frames(t, pending);
  return t;
}

class SocketSink final : public FrameSink {
 public:
  explicit SocketSink(const std::vector<int>& fds) : fds_(fds) {}
  void send(std::uint32_t conn, const std::uint8_t* data,
            std::size_t size) override {
    send_all(fds_[conn], data, size);
  }

 private:
  const std::vector<int>& fds_;
};

/// Blocking read of exactly `count` frames from one connection.
std::vector<Frame> read_frames(int fd, FrameReader& reader,
                               std::size_t count) {
  std::vector<Frame> frames;
  std::vector<std::uint8_t> payload;
  std::uint8_t buf[65536];
  while (frames.size() < count) {
    if (reader.take(payload)) {
      frames.push_back(decode_payload(payload.data(), payload.size()));
      continue;
    }
    const std::size_t got = recv_some(fd, buf, sizeof buf);
    if (got == 0) throw rlblh::DataError("daemon closed the connection");
    reader.append(buf, got);
  }
  return frames;
}

/// Matches ReadingsAcks to frames: per household, replies arrive in the
/// order its frames were sent (one connection, one shard).
class Receiver {
 public:
  Receiver(const Traffic& traffic, const std::vector<int>& fds,
           std::vector<FrameReader>& readers)
      : traffic_(traffic),
        fds_(fds),
        readers_(readers),
        next_(traffic.households.size(), 0) {}

  /// Reads until every frame scheduled so far is answered (or failed),
  /// until the deadline, or until stop(). A transport or decode failure
  /// ends the read; the frames it leaves unanswered count as failed.
  void run(std::int64_t deadline_ns) {
    ack_ns_.resize(traffic_.frames.size(), -1);
    const int ep = epoll_create1(0);
    try {
      read_until(ep, deadline_ns);
    } catch (const std::exception&) {
      ++errors_;
    }
    close(ep);
  }

  void stop() { stop_ = true; }

  const std::vector<std::int64_t>& ack_ns() const { return ack_ns_; }
  std::size_t unanswered() const {
    return static_cast<std::size_t>(
        std::count(ack_ns_.begin(), ack_ns_.end(), std::int64_t{-1}));
  }
  std::size_t errors() const { return errors_; }
  std::size_t mismatches() const { return mismatches_; }

 private:
  void read_until(int ep, std::int64_t deadline_ns) {
    for (std::size_t c = 0; c < fds_.size(); ++c) {
      epoll_event ev{};
      ev.events = EPOLLIN;
      ev.data.u64 = c;
      epoll_ctl(ep, EPOLL_CTL_ADD, fds_[c], &ev);
    }
    std::vector<std::uint8_t> payload;
    std::vector<std::uint8_t> buf(1 << 16);
    epoll_event events[16];
    while (answered_ + errors_ < traffic_.frames.size() &&
           now_ns() < deadline_ns && !stop_) {
      const int ready = epoll_wait(ep, events, 16, 20);
      for (int e = 0; e < ready; ++e) {
        const std::size_t c = events[e].data.u64;
        const std::size_t got = recv_some(fds_[c], buf.data(), buf.size());
        if (got == 0) {
          ++errors_;
          continue;
        }
        const std::int64_t at = now_ns();
        readers_[c].append(buf.data(), got);
        while (readers_[c].take(payload)) handle(payload, at);
      }
    }
  }

  void handle(const std::vector<std::uint8_t>& payload, std::int64_t at) {
    const Frame frame = decode_payload(payload.data(), payload.size());
    if (frame.type != MessageType::kReadingsAck) {
      ++errors_;
      return;
    }
    const ReadingsAckMsg& ack = frame.readings_ack;
    const std::size_t h = ack.household_id - 1;
    if (h >= next_.size() || next_[h] >= traffic_.households[h].frames.size()) {
      ++mismatches_;
      return;
    }
    const std::size_t i = traffic_.households[h].frames[next_[h]++];
    const FrameMeta& m = traffic_.meta[i];
    const bool closes = traffic_.frames[i].closes_day;
    const std::uint32_t day = closes ? m.day + 1 : m.day;
    const std::uint32_t next = closes ? 0 : m.first + m.count;
    if (ack.day != day || ack.next_interval != next ||
        (ack.day_completed != 0) != closes) {
      ++mismatches_;
      return;
    }
    ack_ns_[i] = at;
    ++answered_;
  }

  const Traffic& traffic_;
  const std::vector<int>& fds_;
  std::vector<FrameReader>& readers_;
  std::vector<std::int64_t> ack_ns_;
  std::vector<std::size_t> next_;
  std::size_t answered_ = 0;
  std::size_t errors_ = 0;
  std::size_t mismatches_ = 0;
  std::atomic<bool> stop_{false};
};

struct Daemon {
  std::unique_ptr<ServeServer> server;
  std::vector<int> fds;
  std::vector<FrameReader> readers;

  void close_all() {
    for (int fd : fds) close_quietly(fd);
    fds.clear();
    readers.clear();
    if (server) server->stop();
    server.reset();
  }
};

/// Starts a daemon and says Hello for every household; returns seconds.
double start_daemon(const Traffic& traffic, const std::string& work,
                    std::size_t conns, Daemon& d) {
  const std::string ckpt = work + "/ckpt";
  fs::remove_all(ckpt);
  const std::int64_t t0 = now_ns();
  ServeConfig config;
  config.listen = "unix:" + work + "/d.sock";
  config.checkpoint_dir = ckpt;
  d.server = std::make_unique<ServeServer>(config);
  d.server->start();
  std::vector<std::vector<std::uint8_t>> hellos(conns);
  std::vector<std::size_t> per_conn(conns, 0);
  for (const Household& hh : traffic.households) {
    encode_hello(hellos[hh.conn], HelloMsg{hh.id, hh.spec});
    ++per_conn[hh.conn];
  }
  d.readers.resize(conns);
  for (std::size_t c = 0; c < conns; ++c) {
    d.fds.push_back(connect_endpoint(d.server->endpoint()));
  }
  for (std::size_t c = 0; c < conns; ++c) {
    send_all(d.fds[c], hellos[c].data(), hellos[c].size());
  }
  for (std::size_t c = 0; c < conns; ++c) {
    for (const Frame& f : read_frames(d.fds[c], d.readers[c], per_conn[c])) {
      if (f.type != MessageType::kHelloAck) {
        throw rlblh::DataError("daemon refused a Hello: " + f.error.message);
      }
    }
  }
  return seconds_since(t0);
}

/// Sends one request frame per household (built by `encode`) and collects
/// the replies in household order.
template <typename Encode>
std::vector<Frame> round_trip_all(const Traffic& traffic, Daemon& d,
                                  Encode encode) {
  const std::size_t conns = d.fds.size();
  std::vector<std::vector<std::uint8_t>> out(conns);
  std::vector<std::vector<std::size_t>> order(conns);
  for (std::size_t h = 0; h < traffic.households.size(); ++h) {
    const Household& hh = traffic.households[h];
    if (!encode(out[hh.conn], hh)) continue;
    order[hh.conn].push_back(h);
  }
  std::vector<Frame> replies(traffic.households.size());
  for (std::size_t c = 0; c < conns; ++c) {
    if (out[c].empty()) continue;
    send_all(d.fds[c], out[c].data(), out[c].size());
  }
  for (std::size_t c = 0; c < conns; ++c) {
    const std::vector<Frame> got =
        read_frames(d.fds[c], d.readers[c], order[c].size());
    for (std::size_t k = 0; k < got.size(); ++k) {
      // Replies for different households on one connection may interleave
      // across shards; place each by its id.
      const Frame& f = got[k];
      std::uint64_t id = 0;
      if (f.type == MessageType::kReadingsAck) id = f.readings_ack.household_id;
      if (f.type == MessageType::kStatsAck) id = f.stats_ack.household_id;
      if (id == 0 || id > replies.size()) {
        throw rlblh::DataError("daemon answered with an error: " +
                               f.error.message);
      }
      replies[id - 1] = f;
    }
  }
  return replies;
}

void put(Metrics& m, const std::string& name, double value, const char* unit) {
  m[name] = Metric{value, unit};
}

struct RunReport {
  OpenLoopReport report;
  std::size_t frames = 0;
  std::size_t closes = 0;
  double wall_s = 0.0;  ///< first due time to the last answer
};

/// Sends frames [first, end) of the traffic open-loop and waits for their
/// answers.
RunReport run_open_loop(Traffic& t, std::size_t first, Receiver& receiver,
                        Daemon& d) {
  const std::vector<ScheduledFrame> slice(
      t.frames.begin() + static_cast<std::ptrdiff_t>(first), t.frames.end());
  const std::int64_t start = now_ns() + 10'000'000;
  const std::int64_t last_due = slice.back().due_ns;
  std::thread rx([&] { receiver.run(start + last_due + 60'000'000'000LL); });
  SocketSink sink(d.fds);
  std::vector<std::int64_t> sent_ns;
  try {
    run_schedule(slice, t.bytes, d.fds.size(), sink, start, sent_ns);
  } catch (...) {
    receiver.stop();
    rx.join();
    throw;
  }
  rx.join();
  const std::vector<std::int64_t> acks(
      receiver.ack_ns().begin() + static_cast<std::ptrdiff_t>(first),
      receiver.ack_ns().end());
  RunReport r;
  r.report = account(slice, start, sent_ns, acks);
  r.frames = slice.size();
  for (std::size_t i = 0; i < slice.size(); ++i) {
    t.due_abs[first + i] = start + slice[i].due_ns;
    r.closes += slice[i].closes_day ? 1 : 0;
  }
  r.wall_s = static_cast<double>(last_due) * 1e-9 + r.report.drain_ms * 1e-3;
  return r;
}

/// Offline replay of every household's readings through an eager
/// HouseholdSession, compared with the daemon's final Stats and checkpoint.
/// Returns the number of households that differ.
std::size_t check_against_replay(const Traffic& traffic,
                                 const std::vector<Frame>& stats,
                                 const CheckpointStore& store,
                                 std::size_t threads, Outcome& out) {
  const std::size_t n = traffic.households.size();
  std::vector<std::string> problems(n);
  std::vector<std::thread> workers;
  for (std::size_t t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      for (std::size_t h = t; h < n; h += threads) {
        const Household& hh = traffic.households[h];
        try {
          HouseholdSession s(hh.id, hh.spec);
          if (hh.preroll > 0) {
            s.apply_readings(0, 0, std::span<const double>(hh.usage).first(
                                       hh.preroll));
          }
          // The daemon's file holds the state as of the household's last
          // day close (the run may end mid-day).
          std::ostringstream expected;
          for (std::size_t i : hh.frames) {
            if (s.apply_readings(traffic.meta[i].day, traffic.meta[i].first,
                                 frame_values(hh, traffic.meta[i])) &&
                s.days_completed() == hh.final_days) {
              s.save(expected);
            }
          }
          const StatsAckMsg& got = stats[h].stats_ack;
          if (got.days_completed != s.days_completed() ||
              !same_bits(got.savings_cents, s.savings_cents()) ||
              !same_bits(got.bill_cents, s.bill_cents()) ||
              !same_bits(got.usage_cost_cents, s.usage_cost_cents()) ||
              !same_bits(got.battery_level_kwh, s.battery_level())) {
            problems[h] = "Stats of household " + std::to_string(hh.id) +
                          " differ from the offline replay";
            continue;
          }
          if (hh.final_days == 0) {
            if (fs::exists(store.path_for(hh.id))) {
              problems[h] = "checkpoint for a household that closed no day";
            }
          } else {
            problems[h] = compare_checkpoint(store.path_for(hh.id),
                                             expected.str());
          }
        } catch (const std::exception& e) {
          problems[h] = std::string("replay failed: ") + e.what();
        }
      }
    });
  }
  for (std::thread& w : workers) w.join();
  std::size_t bad = 0;
  for (const std::string& p : problems) {
    if (p.empty()) continue;
    ++bad;
    if (bad <= 5) out.notes.push_back("FAILED: " + p);
  }
  return bad;
}

}  // namespace

double run_serve_phase(const ServeShape& shape, const PhaseContext& ctx,
                       Outcome& out) {
  char line[240];
  const std::size_t conns = std::max<std::size_t>(
      1, std::min(ctx.threads, shape.households));
  Traffic traffic = make_traffic(shape, ctx.seed, conns);
  const std::size_t timed_end = traffic.frames.size();
  fs::create_directories(ctx.work_dir);

  // --- set-up, repeated; the last daemon stays up for the timed run -----
  std::vector<double> setups;
  Daemon daemon;
  reset_peak_rss();  // the serving phase's own peak, serve.peak_rss_mb
  for (std::size_t rep = 0; rep < kSetupReps; ++rep) {
    if (rep > 0) daemon.close_all();
    setups.push_back(start_daemon(traffic, ctx.work_dir, conns, daemon));
  }
  // Stream shape: bring each household to its staggered day phase.
  {
    const std::vector<Frame> acks = round_trip_all(
        traffic, daemon,
        [](std::vector<std::uint8_t>& buf, const Household& hh) {
          if (hh.preroll == 0) return false;
          ReadingsMsg msg;
          msg.household_id = hh.id;
          msg.values.assign(hh.usage.begin(),
                            hh.usage.begin() +
                                static_cast<std::ptrdiff_t>(hh.preroll));
          encode_readings(buf, msg);
          return true;
        });
    for (std::size_t h = 0; h < traffic.households.size(); ++h) {
      const Household& hh = traffic.households[h];
      if (hh.preroll == 0) continue;
      ++out.attempted;
      if (acks[h].type != MessageType::kReadingsAck ||
          acks[h].readings_ack.next_interval != hh.preroll) {
        out.fail("stagger frame of household " + std::to_string(hh.id) +
                 " was not acked at its cursor");
      }
    }
  }

  // --- timed open-loop run -----------------------------------------------
  Receiver receiver(traffic, daemon.fds, daemon.readers);
  const RunReport timed = run_open_loop(traffic, 0, receiver, daemon);
  const OpenLoopReport& report = timed.report;
  const std::size_t days_completed = daemon.server->days_completed();
  const std::size_t batch_days = daemon.server->batch_days_completed();
  const std::size_t checkpoints = daemon.server->checkpoints_written();

  // --- saturation bursts: serving throughput -----------------------------
  // The open-loop schedule fixes its own rate, so throughput is timed on
  // bursts instead: the daemon reads every frame at once and works through
  // its queues at its own pace, and household-days over the time to the
  // last answer is its capacity. Median over the bursts. Traced runs only:
  // the figure is too noisy to gate (see README), so it is a layer metric.
  std::vector<double> burst_rates;
  for (std::size_t b = 0; ctx.trace && b < shape.bursts; ++b) {
    const std::size_t first = append_burst(
        traffic, std::max<std::size_t>(1, shape.frame_intervals));
    const RunReport burst = run_open_loop(traffic, first, receiver, daemon);
    burst_rates.push_back(static_cast<double>(burst.closes) / burst.wall_s);
  }

  // --- highest rate meeting the latency limit ----------------------------
  // Per-minute frames from every resident household at a trial rate for
  // kProbeSeconds; a trial meets the limit when its p99 (all frames) and
  // its drain time (last answer after the last due time) both stay within
  // kRateLimitMs. Households parked at a day boundary (the midnight shape)
  // are first staggered across the day, so probe day closes spread evenly
  // as they do in the stream shape.
  double max_rate = 0.0;
  std::size_t probe_frames = 0;
  if (ctx.trace) {
    if (shape.slot_s > 0.0) {
      std::vector<Pending> stagger;
      for (std::size_t h = 1; h < traffic.households.size(); ++h) {
        Household& hh = traffic.households[h];
        const std::size_t count = h * kIntervals / traffic.households.size();
        hh.extend_usage(hh.cursor + count);
        Pending p;
        p.meta = {static_cast<std::uint32_t>(h),
                  static_cast<std::uint32_t>(hh.cursor / kIntervals), 0,
                  static_cast<std::uint32_t>(count)};
        stagger.push_back(p);
        hh.cursor += count;
      }
      run_open_loop(traffic, append_frames(traffic, stagger), receiver,
                    daemon);
    }
    max_rate = search_max_rate(
        [&](double rate) {
          const auto per_household = static_cast<std::size_t>(std::ceil(
              rate * kProbeSeconds /
              static_cast<double>(traffic.households.size())));
          const std::size_t first =
              append_stream(traffic, rate, per_household);
          const RunReport trial =
              run_open_loop(traffic, first, receiver, daemon);
          probe_frames += traffic.frames.size() - first;
          const double tail = std::max(trial.report.ack_ms.tail,
                                       trial.report.close_ms.tail);
          std::snprintf(line, sizeof line,
                        "  rate probe %.0f frames/s: p%.1f %.3f ms, drain "
                        "%.3f ms, %zu unanswered",
                        rate, trial.report.ack_ms.tail_pct, tail,
                        trial.report.drain_ms, trial.report.unanswered);
          out.notes.emplace_back(line);
          return trial.report.unanswered == 0 && tail <= kRateLimitMs &&
                 trial.report.drain_ms <= kRateLimitMs;
        },
        kRateLo, kRateHi, kRateSteps);
  }
  out.attempted += traffic.frames.size();
  const std::size_t lost = receiver.unanswered() + receiver.mismatches();
  if (lost + receiver.errors() > 0) {
    out.failed += lost + receiver.errors();
    out.notes.push_back(
        "FAILED: serve: " + std::to_string(receiver.unanswered()) +
        " unanswered frames, " + std::to_string(receiver.mismatches()) +
        " mismatched acks, " + std::to_string(receiver.errors()) +
        " error replies");
  }

  // --- output oracle -----------------------------------------------------
  const std::vector<Frame> stats = round_trip_all(
      traffic, daemon, [](std::vector<std::uint8_t>& buf, const Household& hh) {
        encode_stats(buf, StatsMsg{hh.id});
        return true;
      });
  const CheckpointStore store(ctx.work_dir + "/ckpt");
  daemon.close_all();
  out.attempted += traffic.households.size();
  const std::size_t bad =
      check_against_replay(traffic, stats, store, ctx.threads, out);
  out.failed += bad;
  const double serve_peak = peak_rss_mb();

  std::snprintf(line, sizeof line,
                "serve %s: %zu households on %zu connections, %zu frames "
                "(%zu close a day) over %.2f s; daemon closed %zu days, %zu "
                "as batch lanes, wrote %zu checkpoints; %zu households differ "
                "from the offline replay; rate probe sent %zu frames",
                shape.name.c_str(), traffic.households.size(), conns,
                timed.frames, timed.closes, timed.wall_s,
                days_completed, batch_days, checkpoints, bad, probe_frames);
  out.notes.emplace_back(line);
  std::snprintf(line, sizeof line,
                "  frame ack ms: p50 %.3f p%.1f %.3f (n=%zu); day close ms: "
                "mean %.3f p50 %.3f p%.1f %.3f (n=%zu); generator lag ms "
                "p%.1f %.3f",
                report.ack_ms.p50, report.ack_ms.tail_pct, report.ack_ms.tail,
                report.ack_ms.samples, report.close_ms.mean,
                report.close_ms.p50,
                report.close_ms.tail_pct, report.close_ms.tail,
                report.close_ms.samples, report.lag_ms.tail_pct,
                report.lag_ms.tail);
  out.notes.emplace_back(line);
  // Serving figures are layer metrics, reported ungated: a sub-millisecond
  // median follows thread wake-up latency, a tail follows the host's
  // slowest seconds, close-storm latencies sit near saturation, where a host
  // slowdown moves them far more than it moves throughput, and the burst
  // throughput itself moved with the host's speed; each varied from run to
  // run or hour to hour by more than any allowed bound.
  Metrics& m = out.per_layer;
  put(m, "day_close_mean_ms", report.close_ms.mean, "ms");
  put(m, "serve.peak_rss_mb", serve_peak, "MB");
  if (ctx.trace) {
    std::string burst_line = "  one-day saturation bursts, household-days/s:";
    for (double r : burst_rates) {
      burst_line += " " + std::to_string(std::lround(r));
    }
    out.notes.push_back(burst_line);
    put(m, "serve.burst_household_days_per_s", median(burst_rates), "1/s");
  }
  put(m, "frame_ack_p50_ms", report.ack_ms.p50, "ms");
  put(m, "frame_ack_p99_ms", report.ack_ms.tail, "ms");
  put(m, "day_close_p50_ms", report.close_ms.p50, "ms");
  put(m, "day_close_p99_ms", report.close_ms.tail, "ms");
  put(m, "frame_ack.samples", static_cast<double>(report.ack_ms.samples),
      "count");
  put(m, "frame_ack.tail_pct", report.ack_ms.tail_pct, "%");
  put(m, "day_close.samples", static_cast<double>(report.close_ms.samples),
      "count");
  put(m, "day_close.tail_pct", report.close_ms.tail_pct, "%");
  put(m, "gen.lag_p50_ms", report.lag_ms.p50, "ms");
  put(m, "gen.lag_p99_ms", report.lag_ms.tail, "ms");
  put(m, "serve.batch_close_share",
      days_completed == 0 ? 0.0
                          : static_cast<double>(batch_days) /
                                static_cast<double>(days_completed),
      "ratio");
  put(m, "serve.checkpoints_written", static_cast<double>(checkpoints),
      "count");
  if (ctx.trace) put(m, "serve.max_rate_frames_per_s", max_rate, "1/s");

  if (ctx.trace) {
    // --- offline replay of a household subset, untraced then traced -----
    std::vector<std::size_t> subset;
    for (std::size_t h = 0; h < traffic.households.size();
         h += shape.trace_stride) {
      subset.push_back(h);
    }
    auto new_session = [&](const Household& hh) {
      auto s = std::make_unique<HouseholdSession>(hh.id, hh.spec);
      if (hh.preroll > 0) {
        s->apply_readings(
            0, 0, std::span<const double>(hh.usage).first(hh.preroll));
      }
      return s;
    };
    // Each subset household is replayed twice from fresh sessions: once
    // untraced and once traced, alternating which goes first so neither
    // side systematically gets the warmer caches. Per-frame service time
    // of the traced replay feeds the queue-wait estimate.
    const CheckpointStore plain_store(ctx.work_dir + "/replay-plain");
    const CheckpointStore traced_store(ctx.work_dir + "/replay-traced");
    std::vector<std::uint8_t> payload;
    Tracer tracer;
    std::vector<double> queue_wait_ms;
    double checkpoint_bytes = 0.0;
    std::int64_t plain_ns = 0;
    std::int64_t traced_ns = 0;
    auto replay_plain = [&](const Household& hh) {
      std::unique_ptr<HouseholdSession> session = new_session(hh);
      FrameReader reader;
      const std::int64_t t0 = now_ns();
      for (std::size_t i : hh.frames) {
        if (i >= timed_end) break;  // rate-probe frames are not replayed
        const ScheduledFrame& f = traffic.frames[i];
        reader.append(traffic.bytes.data() + f.offset, f.size);
        reader.take(payload);
        const Frame frame = decode_payload(payload.data(), payload.size());
        const ReadingsMsg& r = frame.readings;
        if (session->apply_readings(r.day, r.first_interval, r.values)) {
          plain_store.save(*session);
        }
      }
      plain_ns += now_ns() - t0;
    };
    auto replay_traced = [&](const Household& hh) {
      std::unique_ptr<HouseholdSession> session = new_session(hh);
      FrameReader reader;
      const std::int64_t t0 = now_ns();
      for (std::size_t i : hh.frames) {
        if (i >= timed_end) break;  // rate-probe frames are not replayed
        const ScheduledFrame& f = traffic.frames[i];
        const std::int64_t s0 = now_ns();
        Frame frame;
        {
          Tracer::Span span(tracer, Layer::kProtocol);
          reader.append(traffic.bytes.data() + f.offset, f.size);
          reader.take(payload);
          frame = decode_payload(payload.data(), payload.size());
        }
        const ReadingsMsg& r = frame.readings;
        bool closed = false;
        {
          Tracer::Span span(tracer, f.closes_day ? Layer::kSessionClose
                                                 : Layer::kSessionApply);
          closed = session->apply_readings(r.day, r.first_interval, r.values);
        }
        if (closed) {
          Tracer::Span span(tracer, Layer::kCheckpoint);
          traced_store.save(*session);
        }
        const std::int64_t service = now_ns() - s0;
        if (closed) {
          checkpoint_bytes += static_cast<double>(
              fs::file_size(traced_store.path_for(hh.id)));
        }
        if (receiver.ack_ns()[i] >= 0) {
          queue_wait_ms.push_back(
              static_cast<double>(receiver.ack_ns()[i] - traffic.due_abs[i] -
                                  service) *
              1e-6);
        }
      }
      traced_ns += now_ns() - t0;
    };
    for (std::size_t k = 0; k < subset.size(); ++k) {
      const Household& hh = traffic.households[subset[k]];
      if (k % 2 == 0) {
        replay_plain(hh);
        replay_traced(hh);
      } else {
        replay_traced(hh);
        replay_plain(hh);
      }
    }
    std::snprintf(line, sizeof line,
                  "serve %s offline replay (every %zu-th household, %zu "
                  "households)",
                  shape.name.c_str(), shape.trace_stride, subset.size());
    print_layer_table(line, tracer,
                      {Layer::kProtocol, Layer::kSessionApply,
                       Layer::kSessionClose, Layer::kCheckpoint},
                      traced_ns, out.notes);
    auto self_ms = [&](Layer l) {
      return static_cast<double>(tracer.row(l).self_ns()) * 1e-6;
    };
    auto per_call = [&](Layer l, double scale) {
      const std::size_t c = tracer.row(l).calls;
      return c == 0 ? 0.0 : self_ms(l) * scale / static_cast<double>(c);
    };
    const std::size_t saves = tracer.row(Layer::kCheckpoint).calls;
    put(m, "protocol.decode_us_per_frame", per_call(Layer::kProtocol, 1e3),
        "us");
    put(m, "session.apply_us_per_frame", per_call(Layer::kSessionApply, 1e3),
        "us");
    put(m, "session.close_ms", per_call(Layer::kSessionClose, 1.0), "ms");
    put(m, "checkpoint.save_ms", per_call(Layer::kCheckpoint, 1.0), "ms");
    put(m, "checkpoint.bytes",
        saves == 0 ? 0.0 : checkpoint_bytes / static_cast<double>(saves),
        "bytes");
    const TailSummary wait = summarize_tail(queue_wait_ms);
    put(m, "serve.queue_wait_ms_p50", wait.p50, "ms");
    put(m, "serve.queue_wait_ms_p99", wait.tail, "ms");
    put(m, "serve.trace_overhead_share",
        static_cast<double>(traced_ns - plain_ns) /
            static_cast<double>(plain_ns),
        "ratio");
    put(m, "serve.coverage",
        static_cast<double>(tracer.covered_ns()) /
            static_cast<double>(traced_ns),
        "ratio");
  }
  fs::remove_all(ctx.work_dir);
  return median(setups);
}

}  // namespace e2e
