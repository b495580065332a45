#include "sim/stream_engine.h"

#include <algorithm>
#include <cmath>
#include <span>

#include "obs/obs.h"
#include "util/error.h"

namespace rlblh {

// Bitwise contract: every arithmetic expression below, and the order of the
// three += accumulations, is copied verbatim from SimEngine::run_day
// (engine.cc). A change to either file that is not mirrored in the other
// breaks the streamed-vs-batch differential proptest.

void StreamEngine::begin_day(const TouSchedule& prices, Battery& battery,
                             BlhPolicy& policy) {
  RLBLH_REQUIRE(!day_open_, "StreamEngine: begin_day() with a day open");
  const std::size_t n_m = prices.intervals();

  DayResult& result = scratch_;
  if (result.usage.intervals() != n_m) {
    result.usage = DayTrace(n_m);
  }
  if (result.readings.intervals() != n_m) {
    result.readings = DayTrace(n_m);
  }
  result.battery_levels.resize(n_m);
  result.savings_cents = 0.0;
  result.bill_cents = 0.0;
  result.usage_cost_cents = 0.0;
  result.battery_violations = 0;

  prices_ = &prices;
  battery_ = &battery;
  policy_ = &policy;
  violations_before_ = battery.violation_count();

  policy.begin_day(prices);
  pulse_ = policy.pulse_width();
  passthrough_ = policy.passthrough();

  n_m_ = n_m;
  n_ = 0;
  seg_ = 0;
  block_n0_ = 0;
  block_end_ = 0;
  block_y_ = 0.0;
  block_level_ = 0.0;
  blocks_ = 0;
  savings_cents_ = 0.0;
  bill_cents_ = 0.0;
  usage_cost_cents_ = 0.0;
  day_open_ = true;
}

void StreamEngine::push(double usage) {
  RLBLH_REQUIRE(day_open_, "StreamEngine: push() with no day open");
  RLBLH_REQUIRE(n_ < n_m_, "StreamEngine: push() past the end of the day");
  RLBLH_REQUIRE(std::isfinite(usage) && usage >= 0.0,
                "StreamEngine: usage must be finite and >= 0");

  const std::size_t n = n_;
  double* const x = scratch_.usage.mutable_data();
  double* const readings = scratch_.readings.mutable_data();
  double* const levels = scratch_.battery_levels.data();
  x[n] = usage;
  const double x_n = usage;

  if (pulse_ == 0) {
    // Per-interval reference path: reading() does not see x_n, so calling
    // it at arrival time is the same call SimEngine makes up front.
    levels[n] = battery_->level();
    double effective_reading;
    if (passthrough_) {
      (void)policy_->reading(n, battery_->level());
      effective_reading = x_n;
    } else {
      const double y = policy_->reading(n, battery_->level());
      const BatteryStep step = battery_->step(y, x_n);
      effective_reading = y + step.grid_extra;
    }
    readings[n] = effective_reading;
    policy_->observe_usage(n, x_n);

    const double rate = prices_->rate(n);
    savings_cents_ += rate * (x_n - effective_reading);
    bill_cents_ += rate * effective_reading;
    usage_cost_cents_ += rate * x_n;
  } else {
    if (n == block_end_) {
      // Block boundary: the pulse magnitude commits before any of the
      // block's usage exists — the causal ordering the paper's Algorithm 1
      // requires and SimEngine merely simulates.
      const std::size_t width = std::min(pulse_, n_m_ - n);
      block_n0_ = n;
      block_end_ = n + width;
      block_y_ = policy_->fill_block(n, width, battery_->level());
      if (passthrough_) block_level_ = battery_->level();
    }
    const std::vector<PriceZone>& segments = prices_->segments();
    while (segments[seg_].end <= n) ++seg_;
    const double rate = segments[seg_].rate;
    if (passthrough_) {
      levels[n] = block_level_;
      readings[n] = x_n;
      savings_cents_ += rate * (x_n - x_n);
      bill_cents_ += rate * x_n;
      usage_cost_cents_ += rate * x_n;
    } else {
      levels[n] = battery_->level();
      const BatteryStep step = battery_->step(block_y_, x_n);
      const double effective_reading = block_y_ + step.grid_extra;
      readings[n] = effective_reading;
      savings_cents_ += rate * (x_n - effective_reading);
      bill_cents_ += rate * effective_reading;
      usage_cost_cents_ += rate * x_n;
    }
    if (n + 1 == block_end_) {
      policy_->observe_block(
          block_n0_, ConstTraceLane(x + block_n0_, block_end_ - block_n0_));
      ++blocks_;
    }
  }
  n_ = n + 1;
}

const DayResult& StreamEngine::finish_day() {
  RLBLH_REQUIRE(day_open_, "StreamEngine: finish_day() with no day open");
  RLBLH_REQUIRE(n_ == n_m_,
                "StreamEngine: finish_day() before every interval arrived");
  policy_->end_day();

  DayResult& result = scratch_;
  result.savings_cents = savings_cents_;
  result.bill_cents = bill_cents_;
  result.usage_cost_cents = usage_cost_cents_;
  result.battery_violations =
      battery_->violation_count() - violations_before_;
  if (invariant_config_.has_value()) {
    InvariantChecker(*invariant_config_)
        .enforce_day(result, *prices_, battery_->level());
  }
  RLBLH_OBS_COUNT("sim.days", 1);
  RLBLH_OBS_COUNT("sim.intervals", n_m_);
  RLBLH_OBS_COUNT("sim.battery_violations", result.battery_violations);
  if (pulse_ != 0) RLBLH_OBS_COUNT("sim.blocks", blocks_);

  day_open_ = false;
  prices_ = nullptr;
  battery_ = nullptr;
  policy_ = nullptr;
  return result;
}

void StreamEngine::abandon_day() {
  day_open_ = false;
  prices_ = nullptr;
  battery_ = nullptr;
  policy_ = nullptr;
}

void StreamEngine::enable_invariant_checks(
    const InvariantCheckConfig& config) {
  InvariantChecker checker(config);
  invariant_config_ = checker.config();
}

}  // namespace rlblh
