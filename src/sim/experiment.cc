#include "sim/experiment.h"

#include <utility>

#include "meter/household_registry.h"
#include "util/error.h"

namespace rlblh {

EvaluationAccumulator::EvaluationAccumulator(std::size_t intervals,
                                             std::size_t mi_levels,
                                             double usage_cap)
    : mi_(intervals, mi_levels, usage_cap, usage_cap) {}

void EvaluationAccumulator::reset(std::size_t intervals, std::size_t mi_levels,
                                  double usage_cap) {
  sr_.reset();
  cc_.reset();
  mi_ = PairwiseMiEstimator(intervals, mi_levels, usage_cap, usage_cap);
  bill_cents_total_ = 0.0;
  usage_cost_cents_total_ = 0.0;
  battery_violations_ = 0;
  days_ = 0;
}

void EvaluationAccumulator::observe_day(const DayResult& day,
                                        const TouSchedule& prices) {
  observe_day(day.usage, day.readings, day.bill_cents, day.usage_cost_cents,
              day.battery_violations, prices);
}

void EvaluationAccumulator::observe_day(ConstTraceLane usage,
                                        ConstTraceLane readings,
                                        double bill_cents,
                                        double usage_cost_cents,
                                        std::size_t battery_violations,
                                        const TouSchedule& prices) {
  sr_.observe_day(usage, readings, prices);
  cc_.observe_day(usage, readings);
  mi_.observe_day(usage, readings);
  battery_violations_ += battery_violations;
  bill_cents_total_ += bill_cents;
  usage_cost_cents_total_ += usage_cost_cents;
  ++days_;
}

EvaluationResult EvaluationAccumulator::result() const {
  RLBLH_REQUIRE(days_ >= 1,
                "EvaluationAccumulator: need at least one observed day");
  const auto days = static_cast<double>(days_);
  EvaluationResult result;
  result.saving_ratio = sr_.saving_ratio();
  result.mean_cc = cc_.mean_cc();
  result.normalized_mi = mi_.normalized_mi();
  result.mean_daily_savings_cents = sr_.mean_daily_savings_cents();
  result.mean_daily_bill_cents = bill_cents_total_ / days;
  result.mean_daily_usage_cost_cents = usage_cost_cents_total_ / days;
  result.battery_violations = battery_violations_;
  return result;
}

EvaluationResult evaluate_policy(Simulator& simulator, BlhPolicy& policy,
                                 const EvaluationConfig& config) {
  RLBLH_REQUIRE(config.eval_days >= 1,
                "evaluate_policy: need at least one evaluation day");
  if (config.train_days > 0) {
    simulator.run_days(policy, config.train_days);
  }

  EvaluationAccumulator accumulator(simulator.source().intervals(),
                                    config.mi_levels,
                                    simulator.source().usage_cap());
  simulator.run_days(policy, config.eval_days,
                     [&](std::size_t, const DayResult& day) {
                       accumulator.observe_day(day, simulator.prices());
                     });
  return accumulator.result();
}

Simulator make_household_simulator(const HouseholdConfig& household,
                                   TouSchedule prices,
                                   double battery_capacity_kwh,
                                   std::uint64_t seed) {
  auto source = std::make_unique<HouseholdTraceSource>(household, seed);
  Battery battery(battery_capacity_kwh, battery_capacity_kwh / 2.0);
  return Simulator(std::move(source), std::move(prices), battery);
}

Simulator make_household_simulator(const std::string& household,
                                   const SpecParams& params,
                                   TouSchedule prices,
                                   double battery_capacity_kwh,
                                   std::uint64_t seed) {
  auto source = make_trace_source(household, params, seed);
  Battery battery(battery_capacity_kwh, battery_capacity_kwh / 2.0);
  return Simulator(std::move(source), std::move(prices), battery);
}

}  // namespace rlblh
