#include "sim/engine.h"

#include <algorithm>
#include <chrono>
#include <span>

#include "obs/obs.h"
#include "util/error.h"

namespace rlblh {

const DayResult& SimEngine::run_day(TraceSource& source,
                                    const TouSchedule& prices,
                                    Battery& battery, BlhPolicy& policy) {
  const std::size_t n_m = source.intervals();
  RLBLH_REQUIRE(prices.intervals() == n_m,
                "SimEngine: price schedule length must match the day length");
  // Reuse the scratch record's buffers: after the first day the loop below
  // overwrites them in place instead of reallocating, and in-place trace
  // sources fill the usage buffer without a per-day allocation either.
  DayResult& result = scratch_;
  source.next_day_into(result.usage);
  RLBLH_REQUIRE(result.usage.intervals() == n_m,
                "SimEngine: trace source produced a day of the wrong length");
  if (result.readings.intervals() != n_m) {
    result.readings = DayTrace(n_m);
  }
  result.battery_levels.resize(n_m);
  result.savings_cents = 0.0;
  result.bill_cents = 0.0;
  result.usage_cost_cents = 0.0;

  // Resize-once raw views: the loops below fill every slot exactly once.
  // Values written are battery levels (in [0, capacity]) and effective
  // readings (y + shortfall, both >= 0 and finite), so DayTrace's
  // finite/>= 0 invariant holds without the per-interval checked set().
  const double* const x = result.usage.values().data();
  double* const readings = result.readings.mutable_data();
  double* const levels = result.battery_levels.data();
  const std::size_t violations_before = battery.violation_count();

  policy.begin_day(prices);
  const std::size_t pulse = policy.pulse_width();
  const bool is_passthrough = policy.passthrough();
  if (pulse == 0) {
    // Per-interval reference path for policies without block support. The
    // arithmetic below is the contract the blocked path must reproduce
    // bitwise: same expressions, same per-interval accumulation order.
    for (std::size_t n = 0; n < n_m; ++n) {
      levels[n] = battery.level();
      const double x_n = x[n];
      double effective_reading;
      if (is_passthrough) {
        // No-battery reference: the meter measures usage directly.
        (void)policy.reading(n, battery.level());
        effective_reading = x_n;
      } else {
        const double y = policy.reading(n, battery.level());
        const BatteryStep step = battery.step(y, x_n);
        // Energy the battery could not supply is drawn from the grid on
        // top of the scheduled reading, so the meter sees y + shortfall.
        effective_reading = y + step.grid_extra;
      }
      readings[n] = effective_reading;
      policy.observe_usage(n, x_n);

      const double rate = prices.rate(n);
      result.savings_cents += rate * (x_n - effective_reading);
      result.bill_cents += rate * effective_reading;
      result.usage_cost_cents += rate * x_n;
    }
  } else {
    // Pulse-blocked path: one fill_block/observe_block virtual pair per
    // pulse, a tight non-virtual scalar loop in between, and the price
    // looked up once per constant-rate segment instead of per interval.
    // Every per-interval expression and the order of the += chains match
    // the reference path above exactly, so the results are bitwise equal.
    RLBLH_OBS_NOW(blocks_start);
    const std::vector<PriceZone>& segments = prices.segments();
    std::size_t seg = 0;
    std::size_t blocks = 0;
    double savings_cents = 0.0;
    double bill_cents = 0.0;
    double usage_cost_cents = 0.0;
    for (std::size_t n0 = 0; n0 < n_m;) {
      const std::size_t width = std::min(pulse, n_m - n0);
      const std::size_t block_end = n0 + width;
      const double y = policy.fill_block(n0, width, battery.level());
      std::size_t n = n0;
      if (is_passthrough) {
        // No battery transfer: the meter measures usage directly and the
        // level holds for the whole block.
        const double level = battery.level();
        while (n < block_end) {
          while (segments[seg].end <= n) ++seg;
          const double rate = segments[seg].rate;
          const std::size_t run_end = std::min(block_end, segments[seg].end);
          for (; n < run_end; ++n) {
            levels[n] = level;
            const double x_n = x[n];
            readings[n] = x_n;
            savings_cents += rate * (x_n - x_n);
            bill_cents += rate * x_n;
            usage_cost_cents += rate * x_n;
          }
        }
      } else {
        while (n < block_end) {
          while (segments[seg].end <= n) ++seg;
          const double rate = segments[seg].rate;
          const std::size_t run_end = std::min(block_end, segments[seg].end);
          for (; n < run_end; ++n) {
            levels[n] = battery.level();
            const double x_n = x[n];
            const BatteryStep step = battery.step(y, x_n);
            const double effective_reading = y + step.grid_extra;
            readings[n] = effective_reading;
            savings_cents += rate * (x_n - effective_reading);
            bill_cents += rate * effective_reading;
            usage_cost_cents += rate * x_n;
          }
        }
      }
      // A width-1 block's observe degenerates to one observe_usage call.
      // observe_block overrides are contractually identical to the
      // per-interval loop, so this is the same observable sequence while
      // sparing pulse_width()==1 policies (stepping) a per-interval
      // virtual block call — measured ~2x on the stepping day loop.
      if (width == 1) {
        policy.observe_usage(n0, x[n0]);
      } else {
        policy.observe_block(n0, ConstTraceLane(x + n0, width));
      }
      ++blocks;
      n0 = block_end;
    }
    result.savings_cents = savings_cents;
    result.bill_cents = bill_cents;
    result.usage_cost_cents = usage_cost_cents;
    RLBLH_OBS_COUNT("sim.blocks", blocks);
    RLBLH_OBS_COUNT_NS_SINCE("sim.block_ns", blocks_start);
  }
  policy.end_day();

  result.battery_violations = battery.violation_count() - violations_before;
  if (invariant_config_.has_value()) {
    RLBLH_OBS_NOW(check_start);
    InvariantChecker(*invariant_config_)
        .enforce_day(result, prices, battery.level());
    RLBLH_OBS_COUNT_NS_SINCE("sim.invariant_check_ns", check_start);
    RLBLH_OBS_COUNT("sim.invariant_checked_days", 1);
  }
  RLBLH_OBS_COUNT("sim.days", 1);
  RLBLH_OBS_COUNT("sim.intervals", n_m);
  RLBLH_OBS_COUNT("sim.battery_violations", result.battery_violations);
  return result;
}

const DayResult& SimEngine::run_days(TraceSource& source,
                                     const TouSchedule& prices,
                                     Battery& battery, BlhPolicy& policy,
                                     std::size_t days,
                                     const DayCallback& on_day) {
  RLBLH_REQUIRE(days >= 1, "SimEngine: days must be >= 1");
  RLBLH_OBS_SPAN("sim.run_days");
  for (std::size_t d = 0; d < days; ++d) {
    const DayResult& day = run_day(source, prices, battery, policy);
    if (on_day) on_day(d, day);
  }
  return scratch_;
}

void SimEngine::enable_invariant_checks(const InvariantCheckConfig& config) {
  // Construct a checker up front so a bad config fails here, not mid-run.
  InvariantChecker checker(config);
  invariant_config_ = checker.config();
}

}  // namespace rlblh
