// Per-action linear action-value function (paper Eq. 13).
//
// One weight vector w^(a) per action; Q(s, a) = w^(a) . f(s). With the
// paper's defaults (a_M = 8 actions, 6 features) the whole learned state is
// 48 numbers — the complexity argument of Section VIII. The table is one
// contiguous action-major array, and every accessor is inline: the virtual
// training day evaluates it ~10 times per decision.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "util/error.h"

namespace rlblh {

/// A family of linear functionals indexed by action, stored as one
/// num_actions x dimension row-major table.
class PerActionLinearQ {
 public:
  /// num_actions >= 1 zero-initialized rows of dimension >= 1.
  PerActionLinearQ(std::size_t num_actions, std::size_t dimension);

  /// Number of actions.
  std::size_t num_actions() const { return num_actions_; }

  /// Feature dimension.
  std::size_t dimension() const { return dimension_; }

  /// Total number of learned parameters (a_M * 6 = 40-48 in the paper's
  /// complexity discussion).
  std::size_t parameter_count() const { return weights_.size(); }

  /// Q value of action a at the given features (span size = dimension()).
  double value(std::span<const double> features, std::size_t a) const {
    check_action(a);
    check_features(features);
    return dot(a, features.data());
  }

  /// Action with the largest Q value among `allowed` (nonempty; ties break
  /// toward the earlier entry).
  std::size_t argmax(std::span<const double> features,
                     const std::vector<std::size_t>& allowed) const {
    RLBLH_REQUIRE(!allowed.empty(), "PerActionLinearQ: empty action set");
    std::size_t best = allowed.front();
    double best_value = value(features, best);
    for (std::size_t i = 1; i < allowed.size(); ++i) {
      const double v = value(features, allowed[i]);
      if (v > best_value) {
        best_value = v;
        best = allowed[i];
      }
    }
    return best;
  }

  /// max_{a in allowed} Q(features, a).
  double max_value(std::span<const double> features,
                   const std::vector<std::size_t>& allowed) const {
    return value(features, argmax(features, allowed));
  }

  /// SGD step on action a's weights: w += step * error * features (Eq. 18).
  void sgd_update(std::size_t a, std::span<const double> features,
                  double error, double step) {
    check_action(a);
    check_features(features);
    double* const w = weights_.data() + a * dimension_;
    for (std::size_t i = 0; i < dimension_; ++i) {
      w[i] += step * error * features[i];
    }
  }

  /// Unchecked w^(a) . features over dimension() values, accumulated in
  /// ascending index order from 0 — the arithmetic behind value(). For hot
  /// loops that validated `a` and the feature length once up front.
  double dot(std::size_t a, const double* features) const {
    const double* const w = weights_.data() + a * dimension_;
    double v = 0.0;
    for (std::size_t i = 0; i < dimension_; ++i) v += w[i] * features[i];
    return v;
  }

  /// Read access to action a's weights (dimension() values).
  std::span<const double> weights(std::size_t a) const {
    check_action(a);
    return {weights_.data() + a * dimension_, dimension_};
  }

  /// Overwrites action a's weights (span size must equal dimension()).
  void set_weights(std::size_t a, std::span<const double> weights);

 private:
  void check_action(std::size_t a) const {
    RLBLH_REQUIRE(a < num_actions_,
                  "PerActionLinearQ: action index out of range");
  }

  void check_features(std::span<const double> features) const {
    RLBLH_REQUIRE(features.size() == dimension_,
                  "PerActionLinearQ: feature dimension mismatch");
  }

  std::size_t num_actions_;
  std::size_t dimension_;
  std::vector<double> weights_;  ///< row a at [a * dimension_, +dimension_)
};

}  // namespace rlblh
