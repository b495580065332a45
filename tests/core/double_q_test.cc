#include <algorithm>

#include <gtest/gtest.h>

#include "battery/battery.h"
#include "core/rlblh_policy.h"
#include "util/rng.h"

namespace rlblh {
namespace {

RlBlhConfig small_config(bool double_q) {
  RlBlhConfig config;
  config.intervals_per_day = 48;
  config.decision_interval = 4;
  config.usage_cap = 0.08;
  config.battery_capacity = 1.0;
  config.num_actions = 4;
  config.seed = 5;
  config.double_q = double_q;
  config.enable_reuse = false;
  config.enable_synthetic = false;
  return config;
}

void run_day(RlBlhPolicy& policy, Battery& battery,
             const std::vector<double>& usage, const TouSchedule& prices) {
  policy.begin_day(prices);
  for (std::size_t n = 0; n < usage.size(); ++n) {
    const double y = policy.reading(n, battery.level());
    battery.step(y, usage[n]);
    policy.observe_usage(n, usage[n]);
  }
  policy.end_day();
}

std::vector<double> random_usage(Rng& rng) {
  std::vector<double> usage(48);
  for (auto& x : usage) x = rng.uniform(0.0, 0.08);
  return usage;
}

double weight_norm(const PerActionLinearQ& q) {
  double norm = 0.0;
  for (std::size_t a = 0; a < q.num_actions(); ++a) {
    for (const double w : q.weights(a)) norm += w * w;
  }
  return norm;
}

TEST(DoubleQ, BothTablesTrainUnderDoubleQ) {
  RlBlhPolicy policy(small_config(true));
  Battery battery(1.0, 0.5);
  Rng rng(1);
  const TouSchedule prices = TouSchedule::two_zone(48, 34, 7.0, 21.0);
  for (int day = 0; day < 20; ++day) {
    run_day(policy, battery, random_usage(rng), prices);
  }
  EXPECT_GT(weight_norm(policy.q()), 0.0);
  EXPECT_GT(weight_norm(policy.q2()), 0.0);
  // The two tables see different random halves of the updates, so they
  // must differ.
  const auto w1 = policy.q().weights(0);
  const auto w2 = policy.q2().weights(0);
  EXPECT_FALSE(std::equal(w1.begin(), w1.end(), w2.begin(), w2.end()));
}

TEST(DoubleQ, SecondTableStaysZeroUnderPlainQ) {
  RlBlhPolicy policy(small_config(false));
  Battery battery(1.0, 0.5);
  Rng rng(2);
  const TouSchedule prices = TouSchedule::two_zone(48, 34, 7.0, 21.0);
  for (int day = 0; day < 10; ++day) {
    run_day(policy, battery, random_usage(rng), prices);
  }
  EXPECT_GT(weight_norm(policy.q()), 0.0);
  EXPECT_DOUBLE_EQ(weight_norm(policy.q2()), 0.0);
}

TEST(DoubleQ, RespectsConstraintsAndBatteryBounds) {
  RlBlhPolicy policy(small_config(true));
  Battery battery(1.0, 0.5);
  Rng rng(3);
  const TouSchedule prices = TouSchedule::two_zone(48, 34, 7.0, 21.0);
  for (int day = 0; day < 50; ++day) {
    run_day(policy, battery, random_usage(rng), prices);
  }
  EXPECT_EQ(battery.violation_count(), 0u);
}

TEST(DoubleQ, VirtualTrainingUpdatesBothTables) {
  RlBlhPolicy policy(small_config(true));
  Battery battery(1.0, 0.5);
  Rng rng(4);
  const TouSchedule prices = TouSchedule::two_zone(48, 34, 7.0, 21.0);
  run_day(policy, battery, random_usage(rng), prices);
  for (int i = 0; i < 50; ++i) {
    policy.train_virtual_day(std::vector<double>(48, 0.03), 0.5);
  }
  EXPECT_GT(weight_norm(policy.q()), 0.0);
  EXPECT_GT(weight_norm(policy.q2()), 0.0);
}

}  // namespace
}  // namespace rlblh
