// Round-trip tests for the checkpoint primitives that rlblh_serve stacks
// into a household snapshot: RNG engine state, battery dynamic state, and
// the policy's full save_state/load_state. The property that matters
// everywhere is bitwise: a restored object's future behavior must be
// indistinguishable from the original's.
#include <bit>
#include <cstdint>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "battery/battery.h"
#include "core/config.h"
#include "core/rlblh_policy.h"
#include "core/serialize.h"
#include "meter/trace.h"
#include "pricing/tou.h"
#include "sim/engine.h"
#include "util/error.h"
#include "util/rng.h"

namespace rlblh {
namespace {

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

TEST(RngCheckpointTest, RoundTripContinuesBitwise) {
  Rng original(0xfeedface);
  // Age the stream so the state is mid-sequence, not fresh-seeded.
  for (int i = 0; i < 1000; ++i) original.uniform();

  std::stringstream buffer;
  save_rng(buffer, original);
  Rng restored = load_rng(buffer);

  for (int i = 0; i < 1000; ++i) {
    ASSERT_TRUE(same_bits(original.uniform(), restored.uniform()))
        << "draw " << i << " diverged";
  }
}

TEST(RngCheckpointTest, RejectsMalformedInput) {
  std::stringstream bad("not-rng 1 2 3");
  EXPECT_THROW(load_rng(bad), DataError);
}

/// The state text after "rng ", split into its 312 words and the position.
std::vector<std::string> state_fields(const Rng& rng) {
  std::stringstream buffer;
  save_rng(buffer, rng);
  std::string header;
  buffer >> header;
  std::vector<std::string> fields;
  for (std::string field; buffer >> field;) fields.push_back(field);
  return fields;
}

std::string join(const std::vector<std::string>& fields) {
  std::string line = "rng";
  for (const std::string& field : fields) line += ' ' + field;
  return line + '\n';
}

TEST(RngCheckpointTest, RejectsPositionPastTheEnd) {
  Rng rng(3);
  rng.uniform();
  std::vector<std::string> fields = state_fields(rng);
  ASSERT_EQ(fields.size(), 313u);
  for (const char* position : {"313", "1000", "18446744073709551615", "-1"}) {
    fields.back() = position;
    std::stringstream in(join(fields));
    EXPECT_THROW(load_rng(in), DataError) << "position " << position;
  }
  fields.back() = "312";
  std::stringstream at_end(join(fields));
  EXPECT_NO_THROW(load_rng(at_end));
}

TEST(RngCheckpointTest, RejectsTruncatedWordList) {
  Rng rng(4);
  const std::vector<std::string> fields = state_fields(rng);
  // 311 words and a position, followed by a line of numbers that a
  // token-by-token reader would have taken as the missing word.
  std::vector<std::string> short_list(fields.begin() + 1, fields.end());
  std::stringstream in(join(short_list) + "7 8 9\n");
  EXPECT_THROW(load_rng(in), DataError);
  // Cut mid-line at end of input.
  std::vector<std::string> cut(fields.begin(), fields.begin() + 100);
  std::string text = join(cut);
  text.pop_back();
  std::stringstream cut_in(text);
  EXPECT_THROW(load_rng(cut_in), DataError);
  std::stringstream header_only("rng\n");
  EXPECT_THROW(load_rng(header_only), DataError);
  // A token after the position is not part of any engine state.
  std::vector<std::string> extra = fields;
  extra.push_back("5");
  std::stringstream extra_in(join(extra));
  EXPECT_THROW(load_rng(extra_in), DataError);
}

TEST(RngCheckpointTest, StdEngineTextLoadsAndContinuesWithStdWords) {
  // Checkpoints written while Rng wrapped std::mt19937_64 hold that engine's
  // operator<< text. Fresh (position 312), one draw rewound to position 0
  // (twisted words not yet drawn from, reachable only through text), 311,
  // 312 after a full pass, and past the first refill.
  for (const std::size_t drawn : {std::size_t{0}, std::size_t{1},
                                  std::size_t{311}, std::size_t{312},
                                  std::size_t{313}, std::size_t{1000}}) {
    std::mt19937_64 theirs(0xc0ffee);
    for (std::size_t i = 0; i < drawn; ++i) theirs();
    std::ostringstream text;
    text << theirs;
    std::string state = text.str();
    if (drawn == 1) {
      // Rewind to position 0 over the same, already twisted words.
      state.replace(state.rfind(' ') + 1, std::string::npos, "0");
      std::istringstream rewound(state);
      ASSERT_TRUE(rewound >> theirs);
    }
    std::stringstream in("rng " + state + "\n");
    Rng ours = load_rng(in);
    for (int i = 0; i < 1000; ++i) {
      ASSERT_EQ(ours.engine()(), theirs()) << drawn << " drawn, word " << i;
    }
  }
}

TEST(RngCheckpointTest, SavedTextLoadsIntoStdEngine) {
  for (const std::size_t drawn : {std::size_t{0}, std::size_t{311},
                                  std::size_t{312}, std::size_t{700}}) {
    Rng ours(0xbeef);
    for (std::size_t i = 0; i < drawn; ++i) ours.engine()();
    std::stringstream buffer;
    save_rng(buffer, ours);
    std::string header;
    std::mt19937_64 theirs(1);
    ASSERT_TRUE(buffer >> header >> theirs) << drawn << " drawn";
    for (int i = 0; i < 1000; ++i) {
      ASSERT_EQ(ours.engine()(), theirs()) << drawn << " drawn, word " << i;
    }
  }
}

TEST(BatteryCheckpointTest, RoundTripRestoresStateExactly) {
  Battery original(13.5, 4.2, 0.95, 0.9);
  Rng rng(7);
  for (int i = 0; i < 500; ++i) {
    original.step(rng.uniform(0.0, 2.0), rng.uniform(0.0, 2.0));
  }

  std::stringstream buffer;
  save_battery(buffer, original);
  Battery restored(13.5, 0.0, 0.95, 0.9);
  load_battery(buffer, restored);

  EXPECT_TRUE(same_bits(original.level(), restored.level()));
  EXPECT_EQ(original.violation_count(), restored.violation_count());
  EXPECT_TRUE(same_bits(original.total_wasted_charge(),
                        restored.total_wasted_charge()));
  EXPECT_TRUE(
      same_bits(original.total_grid_extra(), restored.total_grid_extra()));
}

TEST(BatteryCheckpointTest, RejectsConfigurationMismatch) {
  Battery original(10.0, 5.0);
  std::stringstream buffer;
  save_battery(buffer, original);
  Battery wrong_capacity(12.0, 5.0);
  EXPECT_THROW(load_battery(buffer, wrong_capacity), DataError);
}

RlBlhConfig small_config() {
  RlBlhConfig config;
  config.intervals_per_day = 96;
  config.decision_interval = 8;
  config.seed = 99;
  return config;
}

/// Runs `days` simulated days, returning the last day's savings.
double run_days(RlBlhPolicy& policy, Battery& battery,
                const TouSchedule& prices, std::size_t days,
                std::uint64_t trace_seed) {
  Rng rng(trace_seed);
  const std::size_t n_m = prices.intervals();
  double last_savings = 0.0;
  for (std::size_t d = 0; d < days; ++d) {
    policy.begin_day(prices);
    double savings = 0.0;
    for (std::size_t n0 = 0; n0 < n_m;) {
      const std::size_t width = std::min(policy.pulse_width(), n_m - n0);
      const double y = policy.fill_block(n0, width, battery.level());
      std::vector<double> usage(width);
      for (double& u : usage) u = rng.uniform(0.0, 1.0);
      for (std::size_t i = 0; i < width; ++i) {
        const BatteryStep step = battery.step(y, usage[i]);
        savings += prices.rate(n0 + i) *
                   (usage[i] - (y + step.grid_extra));
      }
      policy.observe_block(n0, usage);
      n0 += width;
    }
    policy.end_day();
    last_savings = savings;
  }
  return last_savings;
}

TEST(PolicyCheckpointTest, RestoredPolicyContinuesBitwise) {
  const RlBlhConfig config = small_config();
  const TouSchedule prices =
      TouSchedule::two_zone(config.intervals_per_day, 64, 7.04, 21.09);

  RlBlhPolicy original(config);
  Battery original_battery(config.battery_capacity,
                           config.battery_capacity / 2.0);
  run_days(original, original_battery, prices, 5, 1234);

  std::stringstream buffer;
  original.save_state(buffer);
  RlBlhPolicy restored(config);
  restored.load_state(buffer);
  Battery restored_battery(config.battery_capacity, 0.0);
  {
    std::stringstream battery_buffer;
    save_battery(battery_buffer, original_battery);
    load_battery(battery_buffer, restored_battery);
  }

  EXPECT_EQ(original.days_completed(), restored.days_completed());
  EXPECT_EQ(original.episodes_completed(), restored.episodes_completed());

  // Same future inputs must produce bitwise-identical futures.
  const double original_future =
      run_days(original, original_battery, prices, 3, 5678);
  const double restored_future =
      run_days(restored, restored_battery, prices, 3, 5678);
  EXPECT_TRUE(same_bits(original_future, restored_future));

  // And the two end states serialize identically.
  std::stringstream a, b;
  original.save_state(a);
  restored.save_state(b);
  EXPECT_EQ(a.str(), b.str());
}

TEST(PolicyCheckpointTest, SaveMidDayThrows) {
  const RlBlhConfig config = small_config();
  const TouSchedule prices = TouSchedule::flat(config.intervals_per_day, 10.0);
  RlBlhPolicy policy(config);
  policy.begin_day(prices);
  std::stringstream buffer;
  EXPECT_THROW(policy.save_state(buffer), ConfigError);
}

TEST(PolicyCheckpointTest, LoadRejectsWrongDimensions) {
  const RlBlhConfig config = small_config();
  RlBlhPolicy policy(config);
  std::stringstream buffer;
  policy.save_state(buffer);

  RlBlhConfig other = config;
  other.num_actions = config.num_actions + 1;
  RlBlhPolicy victim(other);
  EXPECT_THROW(victim.load_state(buffer), DataError);
}

TEST(PolicyCheckpointTest, BaselinePoliciesReportNotCheckpointable) {
  const RlBlhConfig config = small_config();
  RlBlhPolicy policy(config);
  EXPECT_TRUE(policy.checkpointable());
}

}  // namespace
}  // namespace rlblh
