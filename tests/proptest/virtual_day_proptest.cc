// Differential property suite for the virtual training day.
//
// RlBlhPolicy::train_virtual_day carries per-action Q values from one
// decision's bootstrap into the next decision's acting argmax and TD error,
// and reads the flat Q table through unchecked dot products. Its contract
// is bitwise equality with the plain per-call loop: every decision
// re-evaluates Q through PerActionLinearQ's checked accessors, acts through
// epsilon_greedy, and bootstraps through argmax/max_value. This suite keeps
// that loop as test-only reference code, built from public pieces of the
// policy (its configuration, tables, feasible sets and schedule) plus the
// RNG recovered from a checkpoint, and runs both over random
// configurations, toggles, start levels and replayed days: REUSE replays of
// the last real day, SYN days sampled from the policy's usage statistics,
// and out-of-band days that exercise the clamps. Both weight tables, the
// returned mean |Delta Q|, the episode count and the next RNG draws must
// match bit for bit.
//
// Labeled `proptest` in CTest; filter with `ctest -LE proptest` to skip, or
// scale the case count with RLBLH_PROPTEST_ITERS.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "battery/battery.h"
#include "core/features.h"
#include "core/qfunction.h"
#include "core/rlblh_policy.h"
#include "core/serialize.h"
#include "meter/trace.h"
#include "pricing/tou.h"
#include "rl/egreedy.h"
#include "sim/proptest_domains.h"
#include "util/proptest.h"

namespace rlblh {
namespace {

using proptest::for_all;
using proptest::PropertyOptions;

PropertyOptions suite_options(std::uint64_t stream) {
  PropertyOptions options;
  options.iterations = 100;
  options.base_seed = 0x7d1a7da4ull + stream;
  return options;
}

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

/// The policy's RNG, recovered from a between-days checkpoint (the header
/// and counters lines, both weight tables, then the engine state).
Rng policy_rng(const RlBlhPolicy& policy) {
  std::stringstream state;
  policy.save_state(state);
  std::string line;
  std::getline(state, line);
  std::getline(state, line);
  (void)load_weights(state);
  (void)load_weights(state);
  return load_rng(state);
}

/// Acting argmax over the mean of the tables (double-Q) or plain Q.
std::size_t reference_acting_argmax(const PerActionLinearQ& q,
                                    const PerActionLinearQ& q2, bool double_q,
                                    std::span<const double> features,
                                    const std::vector<std::size_t>& allowed) {
  if (!double_q) return q.argmax(features, allowed);
  std::size_t best = allowed.front();
  double best_value = q.value(features, best) + q2.value(features, best);
  for (std::size_t i = 1; i < allowed.size(); ++i) {
    const double v =
        q.value(features, allowed[i]) + q2.value(features, allowed[i]);
    if (v > best_value) {
      best_value = v;
      best = allowed[i];
    }
  }
  return best;
}

/// Bootstrap max_a' Q(next): plain max, or double-Q selection/evaluation.
double reference_bootstrap(const PerActionLinearQ& q,
                           const PerActionLinearQ& q2, bool double_q,
                           std::span<const double> features,
                           const std::vector<std::size_t>& allowed,
                           bool use_first) {
  if (!double_q) return q.max_value(features, allowed);
  const PerActionLinearQ& selector = use_first ? q : q2;
  const PerActionLinearQ& evaluator = use_first ? q2 : q;
  return evaluator.value(features, selector.argmax(features, allowed));
}

/// State the reference loop evolves in place of the policy's.
struct ReferenceState {
  PerActionLinearQ q;
  PerActionLinearQ q2;
  Rng rng;
};

/// The per-call virtual-day loop: every Q value is re-evaluated where it
/// is used. This is the behaviour the cached kernel must reproduce.
double reference_virtual_day(const RlBlhPolicy& policy,
                             const TouSchedule& prices,
                             const std::vector<double>& usage,
                             double initial_level, ReferenceState& state) {
  const RlBlhConfig& config = policy.config();
  const FeatureBasis basis(config.decisions_per_day(),
                           config.battery_capacity);
  const double alpha_now = policy.current_alpha();
  const double epsilon_now =
      policy.exploration_enabled() ? policy.current_epsilon() : 0.0;
  const std::size_t k_max = config.decisions_per_day();
  const std::size_t n_d = config.decision_interval;

  double level = std::clamp(initial_level, 0.0, config.battery_capacity);
  double abs_error = 0.0;
  for (std::size_t k = 0; k < k_max; ++k) {
    const auto features = basis.at(k, level);
    const auto& allowed = policy.allowed_actions(level);
    const std::size_t greedy = reference_acting_argmax(
        state.q, state.q2, config.double_q, features, allowed);
    const std::size_t action =
        epsilon_greedy(allowed, greedy, epsilon_now, state.rng);
    const double magnitude = config.action_magnitude(action);

    double savings = 0.0;
    const std::size_t width = config.decision_width(k);
    for (std::size_t i = 0; i < width; ++i) {
      const std::size_t n = k * n_d + i;
      const double x = std::clamp(usage[n], 0.0, config.usage_cap);
      savings += prices.rate(n) * (x - magnitude);
      level += magnitude - x;
    }
    level = std::clamp(level, 0.0, config.battery_capacity);

    const bool use_first =
        config.double_q ? state.rng.bernoulli(0.5) : true;
    PerActionLinearQ& learner = use_first ? state.q : state.q2;
    double target = savings;
    if (k + 1 < k_max) {
      const auto next_features = basis.at(k + 1, level);
      target += reference_bootstrap(state.q, state.q2, config.double_q,
                                    next_features,
                                    policy.allowed_actions(level), use_first);
    }
    const double delta_q = target - learner.value(features, action);
    if (policy.learning_enabled()) {
      learner.sgd_update(action, features, delta_q, alpha_now);
    }
    abs_error += std::abs(delta_q);
  }
  return abs_error / static_cast<double>(k_max);
}

/// Drives one real day through the per-interval protocol.
std::vector<double> run_real_day(RlBlhPolicy& policy, Battery& battery,
                                 const DayTrace& day,
                                 const TouSchedule& prices) {
  policy.begin_day(prices);
  for (std::size_t n = 0; n < day.intervals(); ++n) {
    const double y = policy.reading(n, battery.level());
    battery.step(y, day.at(n));
    policy.observe_usage(n, day.at(n));
  }
  policy.end_day();
  return day.values();
}

/// A day with values outside [0, x_M] (negative and above the cap), so the
/// kernel's per-interval clamp is exercised.
std::vector<double> out_of_band_day(std::size_t intervals, double cap,
                                    Rng& rng) {
  std::vector<double> day(intervals);
  for (double& x : day) x = rng.uniform(-0.5 * cap, 2.0 * cap);
  return day;
}

/// Start levels covering all three feasibility regimes (only the maximum
/// action below the low guard, every action between the guards, only
/// action 0 above the high guard) and the clamp outside [0, b_M].
double gen_start_level(const RlBlhConfig& config, Rng& rng) {
  const double capacity = config.battery_capacity;
  switch (rng.uniform_int(0, 4)) {
    case 0:
      return rng.uniform(0.0, config.low_guard());
    case 1:
      return rng.uniform(config.high_guard(), capacity);
    case 2:
      return rng.uniform(-0.5 * capacity, 1.5 * capacity);
    default:
      return rng.uniform(0.0, capacity);
  }
}

constexpr int kVirtualDaysPerCase = 5;

TEST(VirtualDayProptest, CachedKernelMatchesPerCallReference) {
  const auto result = for_all(
      "train_virtual_day == per-call reference",
      proptest::rlblh_config_domain(),
      [](const RlBlhConfig& sampled, Rng& rng) {
        RlBlhConfig config = sampled;
        config.double_q = rng.bernoulli(0.5);
        // Small usage statistics keep the checkpoints that carry the RNG
        // out cheap; SYN days still sample both reservoir and histogram.
        config.stats_bins = static_cast<std::size_t>(rng.uniform_int(2, 8));
        config.stats_reservoir =
            static_cast<std::size_t>(rng.uniform_int(1, 4));
        RlBlhPolicy policy(config);
        const TouSchedule prices =
            proptest::gen_tou_schedule(config.intervals_per_day, rng);
        Battery battery(config.battery_capacity,
                        rng.uniform(0.0, config.battery_capacity));

        // Real days give the policy a schedule, nonzero weights and usage
        // statistics to sample SYN days from.
        std::vector<double> last_day;
        const int real_days = rng.uniform_int(1, 2);
        for (int d = 0; d < real_days; ++d) {
          const DayTrace day = proptest::gen_usage_trace(
              config.intervals_per_day, config.usage_cap, rng);
          last_day = run_real_day(policy, battery, day, prices);
        }

        // The reference evolves its own copy of the learned state, in
        // lockstep with the policy as long as the two agree.
        ReferenceState ref{policy.q(), policy.q2(), policy_rng(policy)};
        for (int v = 0; v < kVirtualDaysPerCase; ++v) {
          policy.set_learning_enabled(rng.uniform() < 0.85);
          policy.set_exploration_enabled(rng.uniform() < 0.85);
          std::vector<double> usage;
          const int source = rng.uniform_int(0, 2);
          if (source == 0) {
            usage = last_day;  // REUSE
          } else if (source == 1) {
            policy.usage_stats().sample_day_into(rng, usage);  // SYN
          } else {
            usage = out_of_band_day(config.intervals_per_day,
                                    config.usage_cap, rng);
          }
          const double start = gen_start_level(config, rng);

          const double ref_error =
              reference_virtual_day(policy, prices, usage, start, ref);
          const std::size_t episodes = policy.episodes_completed();
          const double error = policy.train_virtual_day(usage, start);

          const std::string where = "virtual day " + std::to_string(v) +
                                    " (source " + std::to_string(source) +
                                    ")";
          PROPTEST_CHECK(same_bits(error, ref_error),
                         "mean |dQ| diverged on " + where);
          PROPTEST_CHECK(
              policy.episodes_completed() ==
                  episodes + (policy.learning_enabled() ? 1u : 0u),
              "episode count diverged on " + where);
          const auto check_table = [&](const PerActionLinearQ& got,
                                       const PerActionLinearQ& want,
                                       const char* name) {
            for (std::size_t a = 0; a < got.num_actions(); ++a) {
              for (std::size_t i = 0; i < got.dimension(); ++i) {
                PROPTEST_CHECK(same_bits(got.weights(a)[i],
                                         want.weights(a)[i]),
                               std::string(name) + " weight (" +
                                   std::to_string(a) + ", " +
                                   std::to_string(i) + ") diverged on " +
                                   where);
              }
            }
          };
          check_table(policy.q(), ref.q, "q");
          check_table(policy.q2(), ref.q2, "q2");
          Rng after = policy_rng(policy);
          Rng expected = ref.rng;
          for (int draw = 0; draw < 4; ++draw) {
            PROPTEST_CHECK(same_bits(after.uniform(), expected.uniform()),
                           "RNG stream diverged on " + where);
          }
        }
      },
      suite_options(1));
  ASSERT_TRUE(result.success) << result.message;
  EXPECT_GE(result.iterations_run, 1u);
}

}  // namespace
}  // namespace rlblh
