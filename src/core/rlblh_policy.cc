#include "core/rlblh_policy.h"

#include <algorithm>
#include <cmath>
#include <istream>
#include <ostream>
#include <sstream>
#include <string>
#include <utility>

#include "core/serialize.h"
#include "obs/obs.h"
#include "rl/decay.h"
#include "rl/egreedy.h"
#include "util/error.h"

namespace rlblh {

namespace {
RlBlhConfig validated(RlBlhConfig config) {
  config.validate();
  return config;
}

/// L2 norm over every weight of the table (the manifest's convergence
/// proxy: a plateauing norm with shrinking TD error means the approximator
/// has settled).
[[maybe_unused]] double weight_norm(const PerActionLinearQ& q) {
  double sum_sq = 0.0;
  for (std::size_t a = 0; a < q.num_actions(); ++a) {
    for (const double w : q.weights(a)) {
      sum_sq += w * w;
    }
  }
  return std::sqrt(sum_sq);
}
}  // namespace

RlBlhPolicy::RlBlhPolicy(RlBlhConfig config)
    : config_(validated(config)),
      basis_(config_.decisions_per_day(), config_.battery_capacity),
      q_(config_.num_actions, FeatureBasis::kDim),
      q2_(config_.num_actions, FeatureBasis::kDim),
      stats_(config_.intervals_per_day, config_.usage_cap, config_.stats_bins,
             config_.stats_reservoir),
      rng_(config_.seed),
      actions_all_(config_.num_actions),
      actions_zero_only_{0},
      actions_max_only_{config_.num_actions - 1},
      q_values_(config_.num_actions, 0.0),
      q2_values_(config_.num_actions, 0.0) {
  for (std::size_t a = 0; a < actions_all_.size(); ++a) actions_all_[a] = a;
  day_stats_.reserve(256);
}

double RlBlhPolicy::current_alpha() const {
  if (!config_.decay_hyperparams) return config_.alpha;
  const std::size_t d = config_.decay_by_episodes ? episodes_ : day_;
  return std::max(config_.alpha_floor,
                  InverseSqrtDecay(config_.alpha).at(d + 1));
}

double RlBlhPolicy::current_epsilon() const {
  if (!config_.decay_hyperparams) return config_.epsilon;
  const std::size_t d = config_.decay_by_episodes ? episodes_ : day_;
  return std::max(config_.epsilon_floor,
                  InverseSqrtDecay(config_.epsilon).at(d + 1));
}

const std::vector<std::size_t>& RlBlhPolicy::allowed_actions(
    double battery_level) const {
  // Section III-B feasibility: above the high guard only a zero pulse is
  // safe (the battery could otherwise overflow if usage stays at zero);
  // below the low guard only the full pulse is safe (usage could stay at
  // x_M and drain the battery).
  if (battery_level > config_.high_guard()) {
    return actions_zero_only_;
  }
  if (battery_level < config_.low_guard()) {
    return actions_max_only_;
  }
  return actions_all_;
}

std::size_t RlBlhPolicy::acting_argmax(
    std::span<const double> features,
    const std::vector<std::size_t>& allowed) const {
  if (!config_.double_q) return q_.argmax(features, allowed);
  // Act on the mean of the two tables (standard double-Q practice).
  RLBLH_ASSERT(!allowed.empty());
  std::size_t best = allowed.front();
  double best_value = q_.value(features, best) + q2_.value(features, best);
  for (std::size_t i = 1; i < allowed.size(); ++i) {
    const double v = q_.value(features, allowed[i]) +
                     q2_.value(features, allowed[i]);
    if (v > best_value) {
      best_value = v;
      best = allowed[i];
    }
  }
  return best;
}

double RlBlhPolicy::bootstrap_value(std::span<const double> features,
                                    const std::vector<std::size_t>& allowed,
                                    bool use_first) const {
  if (!config_.double_q) return q_.max_value(features, allowed);
  // Select the successor action with the table being updated, evaluate it
  // with the other one: decorrelates selection and evaluation noise.
  const PerActionLinearQ& selector = use_first ? q_ : q2_;
  const PerActionLinearQ& evaluator = use_first ? q2_ : q_;
  return evaluator.value(features, selector.argmax(features, allowed));
}

std::size_t RlBlhPolicy::choose_action(std::size_t k, double battery_level,
                                       double epsilon_now) {
  const auto& allowed = allowed_actions(battery_level);
  const auto features = basis_.at(k, battery_level);
  const std::size_t greedy = acting_argmax(features, allowed);
  const std::size_t chosen =
      epsilon_greedy(allowed, greedy, epsilon_now, rng_);
  pending_explored_ = chosen != greedy;
  return chosen;
}

void RlBlhPolicy::finalize_pending(std::size_t next_k, double next_level,
                                   bool terminal, double alpha_now) {
  RLBLH_ASSERT(pending_active_);
  const bool use_first = config_.double_q ? rng_.bernoulli(0.5) : true;
  PerActionLinearQ& learner = use_first ? q_ : q2_;
  double target = pending_savings_;
  if (!terminal) {
    const auto next_features = basis_.at(next_k, next_level);
    target += bootstrap_value(next_features, allowed_actions(next_level),
                              use_first);
  }
  const double delta_q =
      target - learner.value(pending_features_, pending_action_);
  if (learning_) {
    learner.sgd_update(pending_action_, pending_features_, delta_q,
                       alpha_now);
  }
  abs_error_sum_ += std::abs(delta_q);
  signed_error_sum_ += delta_q;
  savings_sum_ += pending_savings_;
  ++decisions_done_;
  if (pending_explored_) ++explored_count_;
  pending_active_ = false;
}

void RlBlhPolicy::begin_day(const TouSchedule& prices) {
  RLBLH_REQUIRE(prices.intervals() == config_.intervals_per_day,
                "RlBlhPolicy: price schedule length must equal n_M");
  RLBLH_REQUIRE(!day_open_, "RlBlhPolicy: previous day not ended");
  prices_ = prices;
  day_open_ = true;
  next_reading_n_ = 0;
  next_observe_n_ = 0;
  today_usage_.clear();
  today_usage_.reserve(config_.intervals_per_day);
  pending_active_ = false;
  abs_error_sum_ = 0.0;
  signed_error_sum_ = 0.0;
  savings_sum_ = 0.0;
  decisions_done_ = 0;
  explored_count_ = 0;
}

double RlBlhPolicy::reading(std::size_t n, double battery_level) {
  RLBLH_REQUIRE(day_open_, "RlBlhPolicy: reading() before begin_day()");
  RLBLH_REQUIRE(n == next_reading_n_,
                "RlBlhPolicy: readings must be requested in interval order");
  RLBLH_REQUIRE(n == next_observe_n_,
                "RlBlhPolicy: interval n-1 usage not yet observed");
  RLBLH_REQUIRE(n < config_.intervals_per_day,
                "RlBlhPolicy: interval index out of range");

  if (n % config_.decision_interval == 0) {
    const std::size_t k = n / config_.decision_interval;
    if (n == 0) initial_level_today_ = battery_level;
    const double alpha_now = current_alpha();
    if (pending_active_) {
      finalize_pending(k, battery_level, /*terminal=*/false, alpha_now);
    }
    const double epsilon_now = exploration_ ? current_epsilon() : 0.0;
    const std::size_t action = choose_action(k, battery_level, epsilon_now);
    pending_active_ = true;
    pending_k_ = k;
    pending_action_ = action;
    pending_savings_ = 0.0;
    pending_features_ = basis_.at(k, battery_level);
  }
  next_reading_n_ = n + 1;
  return config_.action_magnitude(pending_action_);
}

double RlBlhPolicy::fill_block(std::size_t n0, std::size_t width,
                               double battery_level) {
  // One decision boundary per block: replicates the n % n_D == 0 branch of
  // reading() exactly (same RNG draw order: the finalize's bernoulli under
  // double-Q, then the epsilon-greedy draw), then advances the interval
  // cursor past the whole block in one step.
  RLBLH_REQUIRE(day_open_, "RlBlhPolicy: fill_block() before begin_day()");
  RLBLH_REQUIRE(n0 == next_reading_n_ && n0 == next_observe_n_,
                "RlBlhPolicy: blocks must be requested in interval order");
  RLBLH_REQUIRE(n0 % config_.decision_interval == 0,
                "RlBlhPolicy: block must start on a decision boundary");
  const std::size_t k = n0 / config_.decision_interval;
  RLBLH_REQUIRE(width == config_.decision_width(k),
                "RlBlhPolicy: block width must match the decision width");

  if (n0 == 0) initial_level_today_ = battery_level;
  const double alpha_now = current_alpha();
  if (pending_active_) {
    finalize_pending(k, battery_level, /*terminal=*/false, alpha_now);
  }
  const double epsilon_now = exploration_ ? current_epsilon() : 0.0;
  const std::size_t action = choose_action(k, battery_level, epsilon_now);
  pending_active_ = true;
  pending_k_ = k;
  pending_action_ = action;
  pending_savings_ = 0.0;
  pending_features_ = basis_.at(k, battery_level);
  next_reading_n_ = n0 + width;
  return config_.action_magnitude(pending_action_);
}

void RlBlhPolicy::observe_usage(std::size_t n, double usage) {
  RLBLH_REQUIRE(day_open_, "RlBlhPolicy: observe_usage() before begin_day()");
  RLBLH_REQUIRE(n == next_observe_n_ && n + 1 == next_reading_n_,
                "RlBlhPolicy: usage must be observed right after reading()");
  RLBLH_REQUIRE(std::isfinite(usage) && usage >= 0.0,
                "RlBlhPolicy: usage must be finite and >= 0");
  today_usage_.push_back(usage);
  // S_k(a) accumulation (paper Eq. 7).
  pending_savings_ +=
      prices_->rate(n) *
      (usage - config_.action_magnitude(pending_action_));
  next_observe_n_ = n + 1;
}

void RlBlhPolicy::observe_block(std::size_t n0, ConstTraceLane usage) {
  RLBLH_REQUIRE(day_open_, "RlBlhPolicy: observe_block() before begin_day()");
  RLBLH_REQUIRE(n0 == next_observe_n_ &&
                    n0 + usage.size() == next_reading_n_,
                "RlBlhPolicy: block must be observed right after "
                "fill_block()");
  // S_k(a) accumulation (paper Eq. 7): the same expression and the same
  // per-interval += order as observe_usage(), with the loop-invariant rate
  // lookup and pulse magnitude hoisted (identical values, identical FP op
  // sequence, so the accumulated sum is bitwise equal). The view may be a
  // strided lane of the batch engine's interval-major day — only the load
  // addresses differ from the contiguous case.
  const double magnitude = config_.action_magnitude(pending_action_);
  const double* const rates = prices_->rates().data();
  const double* const values = usage.data();
  const std::size_t stride = usage.stride();
  // The whole block is validated before any of it is recorded, so a
  // rejected block leaves the day as if it had not been offered.
  for (std::size_t i = 0; i < usage.size(); ++i) {
    const double x = values[i * stride];
    RLBLH_REQUIRE(std::isfinite(x) && x >= 0.0,
                  "RlBlhPolicy: usage must be finite and >= 0");
  }
  double pending = pending_savings_;
  for (std::size_t i = 0; i < usage.size(); ++i) {
    const double x = values[i * stride];
    today_usage_.push_back(x);
    pending += rates[n0 + i] * (x - magnitude);
  }
  pending_savings_ = pending;
  next_observe_n_ = n0 + usage.size();
}

void RlBlhPolicy::fill_lanes(std::span<BlhPolicy* const> lanes,
                             std::size_t n0, std::size_t width,
                             const double* levels, double* y_out) {
  const std::size_t w = lanes.size();
  lane_rngs_.resize(w);
  lane_eps_.resize(w);
  lane_coins_.resize(w);
  lane_allowed_.resize(w);
  lane_greedy_.resize(w);

  // Phase 1, per lane: the pre-coin half of fill_block — validation, the
  // pending decision's finalize (its bernoulli under double-Q drawn from
  // the lane's own engine, in its scalar stream position) and the greedy
  // argmax. The features are evaluated once and stored directly as the
  // pending features (a pure function of (k, level); the scalar path
  // computes the identical array twice).
  for (std::size_t k = 0; k < w; ++k) {
    auto& lane = static_cast<RlBlhPolicy&>(*lanes[k]);
    const double battery_level = levels[k];
    RLBLH_REQUIRE(lane.day_open_,
                  "RlBlhPolicy: fill_lanes() before begin_day()");
    RLBLH_REQUIRE(n0 == lane.next_reading_n_ && n0 == lane.next_observe_n_,
                  "RlBlhPolicy: blocks must be requested in interval order");
    RLBLH_REQUIRE(n0 % lane.config_.decision_interval == 0,
                  "RlBlhPolicy: block must start on a decision boundary");
    const std::size_t kk = n0 / lane.config_.decision_interval;
    RLBLH_REQUIRE(width == lane.config_.decision_width(kk),
                  "RlBlhPolicy: block width must match the decision width");
    if (n0 == 0) lane.initial_level_today_ = battery_level;
    const double alpha_now = lane.current_alpha();
    if (lane.pending_active_) {
      lane.finalize_pending(kk, battery_level, /*terminal=*/false, alpha_now);
    }
    lane_eps_[k] = lane.exploration_ ? lane.current_epsilon() : 0.0;
    const auto& allowed = lane.allowed_actions(battery_level);
    const auto features = lane.basis_.at(kk, battery_level);
    lane_allowed_[k] = &allowed;
    lane_greedy_[k] = lane.acting_argmax(features, allowed);
    lane.pending_features_ = features;
    lane.pending_k_ = kk;
    lane_rngs_[k] = &lane.rng_;
  }

  // Phase 2: every lane's epsilon coin in one lane-batched pass.
  fill_uniform_lanes(lane_rngs_, lane_coins_);

  // Phase 3, per lane: resolve epsilon-greedy (exploring lanes draw their
  // index from their own engine, right after their coin — the scalar
  // order) and publish the pending decision.
  for (std::size_t k = 0; k < w; ++k) {
    auto& lane = static_cast<RlBlhPolicy&>(*lanes[k]);
    const std::vector<std::size_t>& allowed = *lane_allowed_[k];
    std::size_t chosen = lane_greedy_[k];
    if (lane_coins_[k] < lane_eps_[k]) {
      const auto i = static_cast<std::size_t>(
          lane.rng_.uniform_int(0, static_cast<int>(allowed.size() - 1)));
      chosen = allowed[i];
    }
    lane.pending_explored_ = chosen != lane_greedy_[k];
    lane.pending_active_ = true;
    lane.pending_action_ = chosen;
    lane.pending_savings_ = 0.0;
    lane.next_reading_n_ = n0 + width;
    y_out[k] = lane.config_.action_magnitude(chosen);
  }
}

void RlBlhPolicy::observe_lanes(std::span<BlhPolicy* const> lanes,
                                std::size_t n0, const LaneBlock& usage) {
  // One virtual call for the block; the per-lane observes devirtualize
  // (RlBlhPolicy is final) and read their strided lane views in place.
  for (std::size_t k = 0; k < lanes.size(); ++k) {
    static_cast<RlBlhPolicy&>(*lanes[k]).observe_block(n0, usage.lane(k));
  }
}

void RlBlhPolicy::end_day() {
  RLBLH_REQUIRE(day_open_, "RlBlhPolicy: end_day() before begin_day()");
  RLBLH_REQUIRE(next_observe_n_ == config_.intervals_per_day,
                "RlBlhPolicy: day ended before all intervals were observed");
  finalize_pending(0, 0.0, /*terminal=*/true, current_alpha());

  RlBlhDayStats stats;
  stats.mean_abs_td_error =
      decisions_done_ == 0
          ? 0.0
          : abs_error_sum_ / static_cast<double>(decisions_done_);
  stats.signed_td_error = signed_error_sum_;
  stats.realized_savings = savings_sum_;
  stats.exploring_decisions = explored_count_;
  day_stats_.push_back(stats);

  // Learning-progress telemetry (end_day is far off the interval hot path;
  // the weight-norm pass is guarded so dormant observability costs one
  // branch). Instrumentation only reads values — the Rng is never touched,
  // keeping obs-on runs bitwise identical to obs-off runs.
  RLBLH_OBS_COUNT("rl.real_days", 1);
  RLBLH_OBS_COUNT("rl.decisions", decisions_done_);
  RLBLH_OBS_COUNT("rl.explored_decisions", explored_count_);
  RLBLH_OBS_OBSERVE("rl.day_mean_abs_td_error", stats.mean_abs_td_error);
  RLBLH_OBS_OBSERVE("rl.day_realized_savings_cents", stats.realized_savings);
  RLBLH_OBS_GAUGE("rl.signed_td_error", stats.signed_td_error);
  RLBLH_OBS_GAUGE("rl.exploration_rate",
                  exploration_ ? current_epsilon() : 0.0);
  RLBLH_OBS_GAUGE("rl.learning_rate", current_alpha());
  if (obs::enabled()) {
    RLBLH_OBS_GAUGE("rl.weight_norm", weight_norm(q_));
    if (config_.double_q) {
      RLBLH_OBS_GAUGE("rl.weight_norm_q2", weight_norm(q2_));
    }
  }

  // Per-interval statistics feed the SYN heuristic. The buffer was already
  // validated interval by interval as it was observed, so a view suffices —
  // no day-sized copy on the batch hot path.
  stats_.observe_day(ConstTraceLane(today_usage_.data(), 1,
                                    today_usage_.size()),
                     rng_);

  ++day_;
  if (learning_) ++episodes_;
  day_open_ = false;

  if (!learning_) return;
  const std::size_t d = day_;  // 1-based day index, as in Algorithm 1
  const auto replay_start = [this] {
    return config_.replay_random_start
               ? rng_.uniform(0.0, config_.battery_capacity)
               : initial_level_today_;
  };
  if (config_.enable_reuse && d <= config_.reuse_days) {
    for (std::size_t v = 0; v < config_.reuse_repeats; ++v) {
      train_virtual_day(today_usage_, replay_start());
    }
  }
  if (config_.enable_synthetic && d % config_.synthetic_period == 0 &&
      d <= config_.synthetic_last_day) {
    for (std::size_t v = 0; v < config_.synthetic_repeats; ++v) {
      stats_.sample_day_into(rng_, synthetic_day_);
      train_virtual_day(synthetic_day_, replay_start());
    }
  }
}

double RlBlhPolicy::train_virtual_day(const std::vector<double>& usage,
                                      double initial_level) {
  RLBLH_REQUIRE(prices_.has_value(),
                "RlBlhPolicy: no price schedule yet (run a real day first)");
  RLBLH_REQUIRE(usage.size() == config_.intervals_per_day,
                "RlBlhPolicy: virtual day must have n_M usage values");
  // std::clamp passes NaN through, so a non-finite value would reach the
  // level, the features and then every weight; reject it up front.
  RLBLH_REQUIRE(std::all_of(usage.begin(), usage.end(),
                            [](double x) { return std::isfinite(x); }),
                "RlBlhPolicy: virtual day usage must be finite");
  RLBLH_REQUIRE(!std::isnan(initial_level),
                "RlBlhPolicy: virtual day initial level must not be NaN");
  const double alpha_now = current_alpha();
  const double epsilon_now = exploration_ ? current_epsilon() : 0.0;
  RLBLH_REQUIRE(epsilon_now >= 0.0 && epsilon_now <= 1.0,
                "RlBlhPolicy: epsilon must be in [0,1]");
  const std::size_t k_max = config_.decisions_per_day();
  const std::size_t n_d = config_.decision_interval;
  const double usage_cap = config_.usage_cap;
  const double capacity = config_.battery_capacity;
  const double* const rates = prices_->rates().data();
  const bool double_q = config_.double_q;

  // Decision k needs Q(k, B_k, a) for every allowed a: for its acting
  // argmax, and for the chosen action's TD error. Decision k-1's bootstrap
  // already evaluated both tables at exactly (k, B_k) over exactly that
  // allowed set, and its SGD step changed one row of one table since. So
  // the caches below carry those values across the boundary and only the
  // updated row is re-evaluated: every value read is the one a fresh
  // per-call evaluation would return, bit for bit. Indices come from the
  // precomputed feasible sets, so the per-call range checks are moot.
  const auto evaluate = [&](const std::array<double, FeatureBasis::kDim>& f,
                            const std::vector<std::size_t>& allowed) {
    for (const std::size_t a : allowed) q_values_[a] = q_.dot(a, f.data());
    if (double_q) {
      for (const std::size_t a : allowed) q2_values_[a] = q2_.dot(a, f.data());
    }
  };
  // Acting value: Q, or Q1 + Q2 under double-Q (act on the mean).
  const auto acting = [&](std::size_t a) {
    return double_q ? q_values_[a] + q2_values_[a] : q_values_[a];
  };
  // First allowed action with the largest value (ties toward the earlier
  // entry), as PerActionLinearQ::argmax orders its comparisons.
  const auto best_of = [](const std::vector<std::size_t>& allowed,
                          const auto& value_of) {
    std::size_t best = allowed.front();
    double best_value = value_of(best);
    for (std::size_t i = 1; i < allowed.size(); ++i) {
      const double v = value_of(allowed[i]);
      if (v > best_value) {
        best_value = v;
        best = allowed[i];
      }
    }
    return best;
  };

  double level = std::clamp(initial_level, 0.0, capacity);
  auto features = basis_.at(0, level);
  const std::vector<std::size_t>* allowed = &allowed_actions(level);
  evaluate(features, *allowed);
  double abs_error = 0.0;

  for (std::size_t k = 0; k < k_max; ++k) {
    // Epsilon-greedy with epsilon_greedy()'s draw order: the coin, then
    // the index only when exploring.
    const std::size_t greedy = best_of(*allowed, acting);
    std::size_t action = greedy;
    if (rng_.uniform() < epsilon_now) {
      const auto i = static_cast<std::size_t>(
          rng_.uniform_int(0, static_cast<int>(allowed->size() - 1)));
      action = (*allowed)[i];
    }
    const double magnitude = config_.action_magnitude(action);

    double savings = 0.0;
    const std::size_t n0 = k * n_d;
    const std::size_t width = config_.decision_width(k);
    for (std::size_t n = n0; n < n0 + width; ++n) {
      const double x = std::clamp(usage[n], 0.0, usage_cap);
      savings += rates[n] * (x - magnitude);
      level += magnitude - x;
    }
    // The feasibility rule keeps a lossless battery within bounds; clamp
    // defensively so replayed data with out-of-band values cannot corrupt
    // the state normalization.
    level = std::clamp(level, 0.0, capacity);

    const bool use_first = double_q ? rng_.bernoulli(0.5) : true;
    PerActionLinearQ& learner = use_first ? q_ : q2_;
    std::vector<double>& learner_values = use_first ? q_values_ : q2_values_;
    const double learner_q = learner_values[action];
    double target = savings;
    const bool terminal = k + 1 == k_max;
    std::array<double, FeatureBasis::kDim> next_features{};
    if (!terminal) {
      next_features = basis_.at(k + 1, level);
      allowed = &allowed_actions(level);
      evaluate(next_features, *allowed);
      // max_a' Q(next): select with the table being updated and, under
      // double-Q, evaluate with the other one.
      const std::vector<double>& evaluator =
          double_q && use_first ? q2_values_ : q_values_;
      target += evaluator[best_of(
          *allowed, [&](std::size_t a) { return learner_values[a]; })];
    }
    const double delta_q = target - learner_q;
    if (learning_) {
      learner.sgd_update(action, features, delta_q, alpha_now);
      if (!terminal) {
        learner_values[action] = learner.dot(action, next_features.data());
      }
    }
    abs_error += std::abs(delta_q);
    features = next_features;
  }
  if (learning_) ++episodes_;
  RLBLH_OBS_COUNT("rl.virtual_days", 1);
  return abs_error / static_cast<double>(k_max);
}

void RlBlhPolicy::save_state(std::ostream& out) const {
  // Between end_day() and begin_day() the day-scoped members are all at
  // their rest values and the pending decision is resolved, so the
  // persistent state below is the complete behavioral state: every future
  // draw, decision and update is a pure function of it plus future inputs.
  RLBLH_REQUIRE(!day_open_,
                "RlBlhPolicy::save_state: checkpoint only between days");
  out << "rlblh-policy v1\n";
  out << "day " << day_ << " episodes " << episodes_ << " learning "
      << (learning_ ? 1 : 0) << " exploration " << (exploration_ ? 1 : 0)
      << '\n';
  save_weights(out, q_);
  save_weights(out, q2_);
  save_rng(out, rng_);
  stats_.save(out);
  out << "end rlblh-policy\n";
}

void RlBlhPolicy::load_state(std::istream& in) {
  std::string line;
  if (!std::getline(in, line) || line != "rlblh-policy v1") {
    throw DataError("rlblh-policy: missing or wrong header (expected "
                    "'rlblh-policy v1')");
  }
  std::size_t day = 0, episodes = 0;
  int learning = 0, exploration = 0;
  if (!std::getline(in, line)) {
    throw DataError("rlblh-policy: truncated file (no counters line)");
  }
  {
    std::string day_word, episodes_word, learning_word, exploration_word;
    std::istringstream counters(line);
    if (!(counters >> day_word >> day >> episodes_word >> episodes >>
          learning_word >> learning >> exploration_word >> exploration) ||
        day_word != "day" || episodes_word != "episodes" ||
        learning_word != "learning" || exploration_word != "exploration" ||
        (learning != 0 && learning != 1) ||
        (exploration != 0 && exploration != 1)) {
      throw DataError("rlblh-policy: malformed counters line '" + line + "'");
    }
  }
  // Parse into temporaries first: a malformed tail must not leave the
  // policy half-restored.
  PerActionLinearQ q = load_weights(in);
  PerActionLinearQ q2 = load_weights(in);
  if (q.num_actions() != q_.num_actions() || q.dimension() != q_.dimension() ||
      q2.num_actions() != q2_.num_actions() ||
      q2.dimension() != q2_.dimension()) {
    throw DataError(
        "rlblh-policy: weight table dimensions do not match the "
        "configuration");
  }
  Rng rng = load_rng(in);
  UsageStatsTracker stats(config_.intervals_per_day, config_.usage_cap,
                          config_.stats_bins, config_.stats_reservoir);
  stats.load(in);
  std::string end_word, end_name;
  if (!(in >> end_word >> end_name) || end_word != "end" ||
      end_name != "rlblh-policy") {
    throw DataError("rlblh-policy: missing end marker");
  }

  q_ = std::move(q);
  q2_ = std::move(q2);
  rng_ = rng;
  stats_ = std::move(stats);
  day_ = day;
  episodes_ = episodes;
  learning_ = learning == 1;
  exploration_ = exploration == 1;

  // Day-scoped state returns to its rest values (begin_day() re-derives
  // everything else); the diagnostic history is not checkpointed.
  prices_.reset();
  day_open_ = false;
  next_reading_n_ = 0;
  next_observe_n_ = 0;
  today_usage_.clear();
  initial_level_today_ = 0.0;
  pending_active_ = false;
  abs_error_sum_ = 0.0;
  signed_error_sum_ = 0.0;
  savings_sum_ = 0.0;
  decisions_done_ = 0;
  explored_count_ = 0;
  day_stats_.clear();
}

}  // namespace rlblh
