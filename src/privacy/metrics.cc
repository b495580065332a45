#include "privacy/metrics.h"

#include "util/error.h"

namespace rlblh {

double daily_savings_cents(ConstTraceLane usage, ConstTraceLane readings,
                           const TouSchedule& prices) {
  RLBLH_REQUIRE(usage.size() == readings.size() &&
                    usage.size() == prices.intervals(),
                "daily_savings_cents: series lengths must match");
  double s = 0.0;
  for (std::size_t n = 0; n < usage.size(); ++n) {
    s += prices.rate(n) * (usage[n] - readings[n]);
  }
  return s;
}

double daily_bill_cents(ConstTraceLane readings, const TouSchedule& prices) {
  // Same in-order rate * value accumulation as TouSchedule::cost —
  // term-for-term the same sum.
  RLBLH_REQUIRE(readings.size() == prices.intervals(),
                "daily_bill_cents: series length must match the schedule");
  double total = 0.0;
  for (std::size_t n = 0; n < readings.size(); ++n) {
    total += prices.rate(n) * readings[n];
  }
  return total;
}

double daily_usage_cost_cents(ConstTraceLane usage, const TouSchedule& prices) {
  RLBLH_REQUIRE(usage.size() == prices.intervals(),
                "daily_usage_cost_cents: series length must match the "
                "schedule");
  double total = 0.0;
  for (std::size_t n = 0; n < usage.size(); ++n) {
    total += prices.rate(n) * usage[n];
  }
  return total;
}

void SavingRatioAccumulator::observe_day(ConstTraceLane usage,
                                         ConstTraceLane readings,
                                         const TouSchedule& prices) {
  const double cost = daily_usage_cost_cents(usage, prices);
  if (cost <= 0.0) return;
  const double savings = daily_savings_cents(usage, readings, prices);
  ratio_stats_.add(savings / cost);
  savings_stats_.add(savings);
}

double SavingRatioAccumulator::saving_ratio() const {
  if (ratio_stats_.count() == 0) return 0.0;
  return ratio_stats_.mean();
}

double SavingRatioAccumulator::mean_daily_savings_cents() const {
  if (savings_stats_.count() == 0) return 0.0;
  return savings_stats_.mean();
}

}  // namespace rlblh
