#include "core/rlblh_policy.h"

#include <cmath>
#include <limits>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "battery/battery.h"
#include "util/error.h"
#include "util/rng.h"

namespace rlblh {
namespace {

/// Small, fast geometry: 48 intervals/day, pulses of 4, 12 decisions/day.
RlBlhConfig small_config() {
  RlBlhConfig config;
  config.intervals_per_day = 48;
  config.decision_interval = 4;
  config.usage_cap = 0.08;
  config.battery_capacity = 1.0;  // guards at 0.32 / 0.68
  config.num_actions = 4;
  config.seed = 5;
  // Keep heuristics cheap for unit tests.
  config.reuse_days = 2;
  config.reuse_repeats = 3;
  config.synthetic_period = 2;
  config.synthetic_last_day = 4;
  config.synthetic_repeats = 3;
  return config;
}

TouSchedule small_prices() { return TouSchedule::two_zone(48, 34, 7.0, 21.0); }

/// Drives one full day: returns the readings.
std::vector<double> run_day(RlBlhPolicy& policy, Battery& battery,
                            const std::vector<double>& usage,
                            const TouSchedule& prices) {
  std::vector<double> readings;
  policy.begin_day(prices);
  for (std::size_t n = 0; n < usage.size(); ++n) {
    const double y = policy.reading(n, battery.level());
    battery.step(y, usage[n]);
    policy.observe_usage(n, usage[n]);
    readings.push_back(y);
  }
  policy.end_day();
  return readings;
}

std::vector<double> row(const PerActionLinearQ& q, std::size_t a) {
  const auto weights = q.weights(a);
  return {weights.begin(), weights.end()};
}

/// The policy's full checkpoint (weights, RNG stream, statistics, counters).
std::string checkpoint(const RlBlhPolicy& policy) {
  std::ostringstream out;
  policy.save_state(out);
  return out.str();
}

std::vector<double> random_usage(std::size_t n, double cap, Rng& rng) {
  std::vector<double> u(n);
  for (auto& v : u) v = rng.uniform(0.0, cap);
  return u;
}

TEST(RlBlhPolicy, ConstructorValidatesConfig) {
  RlBlhConfig bad = small_config();
  bad.battery_capacity = 0.1;
  EXPECT_THROW(RlBlhPolicy{bad}, ConfigError);
}

TEST(RlBlhPolicy, AllowedActionsFollowSectionIIIB) {
  RlBlhPolicy policy(small_config());
  const double low = policy.config().low_guard();    // 0.32
  const double high = policy.config().high_guard();  // 0.68
  // Above the high guard: only the zero pulse.
  EXPECT_EQ(policy.allowed_actions(high + 1e-9), (std::vector<std::size_t>{0}));
  EXPECT_EQ(policy.allowed_actions(1.0), (std::vector<std::size_t>{0}));
  // Below the low guard: only the maximum pulse.
  EXPECT_EQ(policy.allowed_actions(low - 1e-9), (std::vector<std::size_t>{3}));
  EXPECT_EQ(policy.allowed_actions(0.0), (std::vector<std::size_t>{3}));
  // In between: everything (the paper's inequalities are strict, so the
  // guard levels themselves are unrestricted).
  EXPECT_EQ(policy.allowed_actions(0.5),
            (std::vector<std::size_t>{0, 1, 2, 3}));
  EXPECT_EQ(policy.allowed_actions(low).size(), 4u);
  EXPECT_EQ(policy.allowed_actions(high).size(), 4u);
}

TEST(RlBlhPolicy, ReadingsAreRectangularPulses) {
  RlBlhPolicy policy(small_config());
  Battery battery(1.0, 0.5);
  Rng rng(1);
  const auto usage = random_usage(48, 0.08, rng);
  const auto readings = run_day(policy, battery, usage, small_prices());
  for (std::size_t n = 0; n < readings.size(); ++n) {
    // Constant within each decision interval of width 4.
    EXPECT_DOUBLE_EQ(readings[n], readings[n - n % 4]);
  }
}

TEST(RlBlhPolicy, ReadingsAreQuantizedToActionMagnitudes) {
  RlBlhPolicy policy(small_config());
  Battery battery(1.0, 0.5);
  Rng rng(2);
  for (int day = 0; day < 5; ++day) {
    const auto usage = random_usage(48, 0.08, rng);
    for (const double y : run_day(policy, battery, usage, small_prices())) {
      bool matches = false;
      for (std::size_t a = 0; a < 4; ++a) {
        if (std::abs(y - policy.action_magnitude(a)) < 1e-12) matches = true;
      }
      ASSERT_TRUE(matches) << "reading " << y << " is not a pulse magnitude";
    }
  }
}

TEST(RlBlhPolicy, LosslessBatteryNeverViolatesBounds) {
  RlBlhPolicy policy(small_config());
  Battery battery(1.0, 0.5);
  Rng rng(3);
  for (int day = 0; day < 50; ++day) {
    const auto usage = random_usage(48, 0.08, rng);
    run_day(policy, battery, usage, small_prices());
  }
  // The Section III-B feasibility rule guarantees zero clipping.
  EXPECT_EQ(battery.violation_count(), 0u);
}

TEST(RlBlhPolicy, ProtocolViolationsThrow) {
  RlBlhPolicy policy(small_config());
  const TouSchedule prices = small_prices();
  EXPECT_THROW(policy.reading(0, 0.5), ConfigError);       // before begin_day
  EXPECT_THROW(policy.observe_usage(0, 0.01), ConfigError);
  EXPECT_THROW(policy.end_day(), ConfigError);

  policy.begin_day(prices);
  EXPECT_THROW(policy.begin_day(prices), ConfigError);     // double begin
  EXPECT_THROW(policy.reading(1, 0.5), ConfigError);       // wrong order
  (void)policy.reading(0, 0.5);
  EXPECT_THROW(policy.reading(1, 0.5), ConfigError);       // usage not observed
  EXPECT_THROW(policy.observe_usage(1, 0.01), ConfigError);
  policy.observe_usage(0, 0.01);
  EXPECT_THROW(policy.observe_usage(0, 0.01), ConfigError);  // double observe
  EXPECT_THROW(policy.end_day(), ConfigError);             // day incomplete
}

TEST(RlBlhPolicy, RejectsMismatchedPriceSchedule) {
  RlBlhPolicy policy(small_config());
  EXPECT_THROW(policy.begin_day(TouSchedule::flat(10, 1.0)), ConfigError);
}

TEST(RlBlhPolicy, DayStatsAreRecorded) {
  RlBlhConfig config = small_config();
  config.enable_reuse = false;
  config.enable_synthetic = false;
  RlBlhPolicy policy(config);
  Battery battery(1.0, 0.5);
  Rng rng(4);
  const auto usage = random_usage(48, 0.08, rng);
  const auto readings = run_day(policy, battery, usage, small_prices());
  ASSERT_EQ(policy.day_stats().size(), 1u);
  EXPECT_EQ(policy.days_completed(), 1u);
  // Realized savings in the stats must equal sum r_n (x_n - y_n).
  double expected = 0.0;
  const TouSchedule prices = small_prices();
  for (std::size_t n = 0; n < 48; ++n) {
    expected += prices.rate(n) * (usage[n] - readings[n]);
  }
  EXPECT_NEAR(policy.day_stats()[0].realized_savings, expected, 1e-9);
  EXPECT_GT(policy.day_stats()[0].mean_abs_td_error, 0.0);
}

TEST(RlBlhPolicy, EpisodeCountingIncludesReplays) {
  RlBlhConfig config = small_config();
  config.enable_reuse = true;     // 3 replays for first 2 days
  config.enable_synthetic = true; // 3 replays every 2nd day (day 2, 4)
  RlBlhPolicy policy(config);
  Battery battery(1.0, 0.5);
  Rng rng(5);
  run_day(policy, battery, random_usage(48, 0.08, rng), small_prices());
  // Day 1: 1 real + 3 reuse.
  EXPECT_EQ(policy.episodes_completed(), 4u);
  run_day(policy, battery, random_usage(48, 0.08, rng), small_prices());
  // Day 2: + 1 real + 3 reuse + 3 synthetic.
  EXPECT_EQ(policy.episodes_completed(), 11u);
  EXPECT_EQ(policy.usage_stats().days_observed(), 2u);
}

TEST(RlBlhPolicy, DecayRespectsFloors) {
  RlBlhConfig config = small_config();
  config.alpha = 0.05;
  config.alpha_floor = 0.01;
  config.epsilon = 0.1;
  config.epsilon_floor = 0.02;
  config.decay_by_episodes = false;
  config.enable_reuse = false;
  config.enable_synthetic = false;
  RlBlhPolicy policy(config);
  EXPECT_DOUBLE_EQ(policy.current_alpha(), 0.05);  // day 1
  EXPECT_DOUBLE_EQ(policy.current_epsilon(), 0.1);
  Battery battery(1.0, 0.5);
  Rng rng(6);
  for (int day = 0; day < 200; ++day) {
    run_day(policy, battery, random_usage(48, 0.08, rng), small_prices());
  }
  EXPECT_DOUBLE_EQ(policy.current_alpha(), 0.01);   // floored
  EXPECT_DOUBLE_EQ(policy.current_epsilon(), 0.02); // floored
}

TEST(RlBlhPolicy, DecayWithoutDecayFlagIsConstant) {
  RlBlhConfig config = small_config();
  config.decay_hyperparams = false;
  RlBlhPolicy policy(config);
  Battery battery(1.0, 0.5);
  Rng rng(7);
  run_day(policy, battery, random_usage(48, 0.08, rng), small_prices());
  EXPECT_DOUBLE_EQ(policy.current_alpha(), config.alpha);
  EXPECT_DOUBLE_EQ(policy.current_epsilon(), config.epsilon);
}

TEST(RlBlhPolicy, LearningDisabledFreezesWeights) {
  RlBlhPolicy policy(small_config());
  policy.set_learning_enabled(false);
  Battery battery(1.0, 0.5);
  Rng rng(8);
  run_day(policy, battery, random_usage(48, 0.08, rng), small_prices());
  for (std::size_t a = 0; a < 4; ++a) {
    for (const double w : policy.q().weights(a)) {
      EXPECT_DOUBLE_EQ(w, 0.0);
    }
  }
  EXPECT_EQ(policy.episodes_completed(), 0u);
}

TEST(RlBlhPolicy, LearningChangesWeights) {
  RlBlhPolicy policy(small_config());
  Battery battery(1.0, 0.5);
  Rng rng(9);
  run_day(policy, battery, random_usage(48, 0.08, rng), small_prices());
  double norm = 0.0;
  for (std::size_t a = 0; a < 4; ++a) {
    for (const double w : policy.q().weights(a)) norm += w * w;
  }
  EXPECT_GT(norm, 0.0);
}

TEST(RlBlhPolicy, ExplorationDisabledIsDeterministic) {
  RlBlhConfig config = small_config();
  config.enable_reuse = false;
  config.enable_synthetic = false;
  RlBlhPolicy a(config);
  RlBlhPolicy b(config);
  b.set_exploration_enabled(false);
  a.set_exploration_enabled(false);
  a.set_learning_enabled(false);
  b.set_learning_enabled(false);
  Battery battery_a(1.0, 0.5);
  Battery battery_b(1.0, 0.5);
  Rng rng(10);
  const auto usage = random_usage(48, 0.08, rng);
  const auto ra = run_day(a, battery_a, usage, small_prices());
  const auto rb = run_day(b, battery_b, usage, small_prices());
  EXPECT_EQ(ra, rb);
}

TEST(RlBlhPolicy, TrainVirtualDayRequiresAPriceSchedule) {
  RlBlhPolicy policy(small_config());
  EXPECT_THROW(policy.train_virtual_day(std::vector<double>(48, 0.01), 0.5),
               ConfigError);
}

TEST(RlBlhPolicy, TrainVirtualDayValidatesLength) {
  RlBlhPolicy policy(small_config());
  Battery battery(1.0, 0.5);
  Rng rng(11);
  run_day(policy, battery, random_usage(48, 0.08, rng), small_prices());
  EXPECT_THROW(policy.train_virtual_day(std::vector<double>(10, 0.01), 0.5),
               ConfigError);
  EXPECT_NO_THROW(
      policy.train_virtual_day(std::vector<double>(48, 0.01), 0.5));
}

TEST(RlBlhPolicy, TrainVirtualDayUpdatesWeights) {
  RlBlhConfig config = small_config();
  config.enable_reuse = false;
  config.enable_synthetic = false;
  RlBlhPolicy policy(config);
  Battery battery(1.0, 0.5);
  Rng rng(12);
  run_day(policy, battery, random_usage(48, 0.08, rng), small_prices());
  const auto before = row(policy.q(), 3);
  for (int i = 0; i < 20; ++i) {
    policy.train_virtual_day(std::vector<double>(48, 0.05), 0.1);
  }
  // Starting at 0.1 (below the low guard) forces action 3; its weights move.
  EXPECT_NE(row(policy.q(), 3), before);
}

TEST(RlBlhPolicy, TrainVirtualDayRejectsNonFiniteInputBeforeAnyChange) {
  // std::clamp passes NaN through, so an unchecked NaN would reach every
  // weight. Rejection must come before the RNG, the tables or the episode
  // counter move: the checkpoint bytes are unchanged.
  RlBlhConfig config = small_config();
  config.double_q = true;
  RlBlhPolicy policy(config);
  Battery battery(1.0, 0.5);
  Rng rng(13);
  run_day(policy, battery, random_usage(48, 0.08, rng), small_prices());
  const std::string before = checkpoint(policy);
  for (const double bad : {std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity(),
                           -std::numeric_limits<double>::infinity()}) {
    for (const std::size_t n : {std::size_t{0}, std::size_t{17},
                                std::size_t{47}}) {
      std::vector<double> usage(48, 0.01);
      usage[n] = bad;
      EXPECT_THROW(policy.train_virtual_day(usage, 0.5), ConfigError)
          << "value " << bad << " at interval " << n;
      EXPECT_EQ(checkpoint(policy), before);
    }
  }
  EXPECT_THROW(policy.train_virtual_day(
                   std::vector<double>(48, 0.01),
                   std::numeric_limits<double>::quiet_NaN()),
               ConfigError);
  EXPECT_EQ(checkpoint(policy), before);
  for (const double w : policy.q().weights(0)) EXPECT_TRUE(std::isfinite(w));
}

TEST(RlBlhPolicy, ObserveRejectsNonFiniteUsageWithoutSideEffects) {
  // A rejected observation leaves the day as if it had not been offered: a
  // twin that never saw it ends the day (REUSE and SYN replays included)
  // with identical weights, RNG stream and statistics.
  const TouSchedule prices = small_prices();
  Rng rng(14);
  const auto usage = random_usage(48, 0.08, rng);
  for (const double bad : {std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity()}) {
    // Per-interval protocol.
    RlBlhPolicy twin(small_config());
    RlBlhPolicy policy(small_config());
    Battery twin_battery(1.0, 0.5);
    run_day(twin, twin_battery, usage, prices);
    Battery battery(1.0, 0.5);
    policy.begin_day(prices);
    for (std::size_t n = 0; n < usage.size(); ++n) {
      const double y = policy.reading(n, battery.level());
      battery.step(y, usage[n]);
      if (n == 21) {
        EXPECT_THROW(policy.observe_usage(n, bad), ConfigError);
      }
      policy.observe_usage(n, usage[n]);
    }
    policy.end_day();
    EXPECT_EQ(checkpoint(policy), checkpoint(twin));

    // Block protocol: the bad value sits inside a pulse-wide block.
    RlBlhPolicy block_policy(small_config());
    Battery block_battery(1.0, 0.5);
    block_policy.begin_day(prices);
    for (std::size_t n0 = 0; n0 < usage.size(); n0 += 4) {
      const double y = block_policy.fill_block(n0, 4, block_battery.level());
      for (std::size_t n = n0; n < n0 + 4; ++n) block_battery.step(y, usage[n]);
      if (n0 == 20) {
        std::vector<double> poisoned(usage.begin() + 20, usage.begin() + 24);
        poisoned[2] = bad;
        EXPECT_THROW(block_policy.observe_block(
                         n0, ConstTraceLane(poisoned.data(), 1, 4)),
                     ConfigError);
      }
      block_policy.observe_block(
          n0, ConstTraceLane(usage.data() + n0, 1, 4));
    }
    block_policy.end_day();
    EXPECT_EQ(checkpoint(block_policy), checkpoint(twin));
  }
}

class GuardSweep : public ::testing::TestWithParam<
                       std::tuple<std::size_t, double>> {};

TEST_P(GuardSweep, ForcedActionsKeepLosslessBatteryInBounds) {
  const auto [n_d, capacity] = GetParam();
  RlBlhConfig config;
  config.intervals_per_day = 48;
  config.decision_interval = n_d;
  config.usage_cap = 0.08;
  config.battery_capacity = capacity;
  config.num_actions = 4;
  config.seed = 99;
  config.enable_reuse = false;
  config.enable_synthetic = false;
  RlBlhPolicy policy(config);
  Battery battery(capacity, capacity / 2.0);
  Rng rng(13);
  const TouSchedule prices = small_prices();
  for (int day = 0; day < 30; ++day) {
    // Adversarial usage: blocks of zero usage and blocks of max usage, the
    // worst cases for overflow and shortage respectively.
    std::vector<double> usage(48);
    for (std::size_t n = 0; n < 48; ++n) {
      usage[n] = (n / 8) % 2 == 0 ? 0.0 : 0.08;
    }
    run_day(policy, battery, usage, prices);
    ASSERT_EQ(battery.violation_count(), 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, GuardSweep,
    ::testing::Combine(::testing::Values(2, 4, 6, 8),
                       ::testing::Values(1.3, 2.0, 4.0)));

}  // namespace
}  // namespace rlblh
