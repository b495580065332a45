// The benchmark's own checks: its percentile rules, its open-loop
// accounting (against a fake sink with an injected stall), the max-rate
// search (against a synthetic capacity), and both output oracles firing on
// a perturbed expectation. They run before every workload and on their own
// with --selftest.
#include <cmath>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>

#include "open_loop.h"
#include "phases.h"
#include "self_test.h"
#include "serve/checkpoint.h"
#include "serve/session.h"
#include "sim/scenario.h"

namespace e2e {

namespace {

struct Checker {
  std::vector<std::string>& notes;
  std::size_t failures = 0;
  void expect(bool ok, const std::string& what) {
    if (!ok) {
      ++failures;
      notes.push_back("FAILED self-test: " + what);
    }
  }
};

std::vector<double> one_to(std::size_t n) {
  std::vector<double> v;
  for (std::size_t i = 1; i <= n; ++i) v.push_back(static_cast<double>(i));
  return v;
}

void test_percentiles(Checker& c) {
  const std::vector<double> hundred = one_to(100);
  c.expect(nearest_rank(hundred, 50) == 50, "nearest-rank p50 of 1..100");
  c.expect(nearest_rank(hundred, 99) == 99, "nearest-rank p99 of 1..100");
  c.expect(nearest_rank(hundred, 99.5) == 100, "nearest-rank p99.5 rounds up");
  c.expect(nearest_rank({7.0}, 1) == 7, "nearest-rank of one sample");
  c.expect(samples_beyond(100, 99) == 1, "one sample beyond p99 of 100");
  // 100 samples: p90 is the highest percentile with ten beyond it.
  TailSummary t = summarize_tail(one_to(100));
  c.expect(t.tail_pct == 90.0 && t.tail == 90 && t.p50 == 50,
           "tail rule picks p90 for 100 samples");
  t = summarize_tail(one_to(1000));
  c.expect(t.tail_pct == 99.0 && t.tail == 990, "tail rule p99 at 1000");
  t = summarize_tail(one_to(500));
  c.expect(t.tail_pct == 98.0 && t.tail == 490, "tail rule p98 at 500");
  t = summarize_tail(one_to(10));
  c.expect(t.tail_pct == 0.0 && t.samples == 10,
           "no tail percentile below 11 samples");
}

/// Answers each frame as soon as it is written; stalls once on the frame
/// whose index is `stall_at`.
class StallingSink final : public FrameSink {
 public:
  StallingSink(std::size_t frames, std::uint32_t stall_at,
               std::int64_t stall_ns)
      : ack_ns(frames, -1), stall_at_(stall_at), stall_ns_(stall_ns) {}
  void send(std::uint32_t, const std::uint8_t* data,
            std::size_t size) override {
    for (std::size_t at = 0; at + 4 <= size; at += 4) {
      std::uint32_t index = 0;
      std::memcpy(&index, data + at, 4);
      if (index == stall_at_) {
        std::this_thread::sleep_for(std::chrono::nanoseconds(stall_ns_));
      }
      ack_ns[index] = now_ns();
    }
  }
  std::vector<std::int64_t> ack_ns;

 private:
  std::uint32_t stall_at_;
  std::int64_t stall_ns_;
};

void test_open_loop(Checker& c) {
  constexpr std::size_t kFrames = 80;
  constexpr std::int64_t kGap = 1'000'000;     // one frame per ms
  constexpr std::int64_t kStall = 30'000'000;  // 30 ms stall at frame 10
  std::vector<ScheduledFrame> frames(kFrames);
  std::vector<std::uint8_t> bytes;
  for (std::uint32_t i = 0; i < kFrames; ++i) {
    frames[i].due_ns = i * kGap;
    frames[i].offset = bytes.size();
    frames[i].size = 4;
    frames[i].closes_day = i % 10 == 9;
    bytes.resize(bytes.size() + 4);
    std::memcpy(bytes.data() + frames[i].offset, &i, 4);
  }
  StallingSink sink(kFrames, 10, kStall);
  std::vector<std::int64_t> sent;
  const std::int64_t start = now_ns() + 1'000'000;
  run_schedule(frames, bytes, 1, sink, start, sent);
  // Frame 11 was due 1 ms after the stall began and could not be answered
  // before it ended: its latency from due must show ~29 ms of waiting,
  // although the fake answers each frame the moment it is written.
  const double frame11_ms =
      static_cast<double>(sink.ack_ns[11] - (start + frames[11].due_ns)) *
      1e-6;
  c.expect(frame11_ms >= 28.0, "open-loop latency counts from the due time");
  std::vector<std::int64_t> acks = sink.ack_ns;
  acks[kFrames - 1] = -1;  // one frame never answered
  const OpenLoopReport r = account(frames, start, sent, acks);
  c.expect(r.unanswered == 1, "an unanswered frame is counted");
  c.expect(r.ack_ms.samples + r.close_ms.samples == kFrames - 1,
           "answered frames split into ack and close samples");
  double worst_lag = 0.0;
  for (std::size_t i = 0; i < kFrames; ++i) {
    worst_lag = std::max(
        worst_lag, static_cast<double>(sent[i] - start - frames[i].due_ns) *
                       1e-6);
  }
  // Frames due just after the one that stalled are sent only when the
  // stall ends, whatever the host's scheduling did to the sender before it.
  c.expect(worst_lag >= 28.0, "generator lag shows the stall");
  // The last frame is due well after the stall ends: a generator that
  // caught up sends it less than one stall late.
  c.expect(static_cast<double>(sent[kFrames - 1] - start -
                               frames[kFrames - 1].due_ns) *
                   1e-6 <
               29.0,
           "generator catches up after the stall");
}

void test_max_rate(Checker& c) {
  const double capacity = 1234.5;
  int probes = 0;
  const double found = search_max_rate(
      [&](double rate) {
        ++probes;
        return rate <= capacity;
      },
      100.0, 5000.0, 12);
  // 12 geometric halvings of [100, 5000] resolve a ratio of 50^(1/4096).
  c.expect(found <= capacity && found > capacity / 1.001,
           "max-rate search converges below a synthetic capacity");
  c.expect(probes == 14, "max-rate search probes ends plus each halving");
  c.expect(search_max_rate([](double) { return false; }, 10, 20, 5) == 10,
           "max-rate search reports the floor when nothing meets the limit");
}

void test_fleet_oracle(Checker& c) {
  rlblh::ScenarioSpec spec = rlblh::ScenarioSpec::parse(
      "policy=stepping;household=default;pricing=srp;battery=5");
  spec.train_days = 1;
  spec.eval_days = 2;
  const rlblh::TouSchedule prices = rlblh::make_scenario_pricing(spec);
  const rlblh::EvaluationResult a = rlblh::run_spec(spec, prices);
  const rlblh::EvaluationResult b = rlblh::run_spec(spec, prices);
  c.expect(same_result(a, b), "fleet oracle accepts an identical rerun");
  rlblh::EvaluationResult perturbed = b;
  perturbed.normalized_mi = std::nextafter(perturbed.normalized_mi, 1.0);
  c.expect(!same_result(a, perturbed),
           "fleet oracle fires on a one-ulp MI change");
  perturbed = b;
  perturbed.battery_violations += 1;
  c.expect(!same_result(a, perturbed),
           "fleet oracle fires on a violation-count change");
  c.expect(!same_bits(0.0, -0.0), "bitwise compare tells -0.0 from 0.0");
}

void test_serve_oracle(Checker& c, const std::string& work_dir) {
  namespace fs = std::filesystem;
  const std::string dir = work_dir + "/selftest-ckpt";
  const std::string spec = "policy=rlblh;household=default;pricing=srp;seed=3";
  rlblh::serve::HouseholdSession live(1, spec);
  rlblh::serve::HouseholdSession replay(1, spec);
  auto source = rlblh::make_scenario_source(rlblh::ScenarioSpec::parse(spec));
  const rlblh::DayTrace day = source->next_day();
  live.apply_readings(0, 0, day.values());
  replay.apply_readings(0, 0, day.values());
  const rlblh::serve::CheckpointStore store(dir);
  store.save(live);
  std::ostringstream expected;
  replay.save(expected);
  std::string bytes = expected.str();
  c.expect(compare_checkpoint(store.path_for(1), bytes).empty(),
           "serve oracle accepts an identical replay");
  bytes[bytes.size() / 2] ^= 1;
  c.expect(!compare_checkpoint(store.path_for(1), bytes).empty(),
           "serve oracle fires on a one-bit checkpoint change");
  c.expect(!compare_checkpoint(store.path_for(2), bytes).empty(),
           "serve oracle fires on a missing checkpoint");
  fs::remove_all(dir);
}

}  // namespace

std::size_t run_self_tests(const std::string& work_dir,
                           std::vector<std::string>& notes) {
  Checker c{notes};
  test_percentiles(c);
  test_open_loop(c);
  test_max_rate(c);
  test_fleet_oracle(c);
  test_serve_oracle(c, work_dir);
  return c.failures;
}

}  // namespace e2e
