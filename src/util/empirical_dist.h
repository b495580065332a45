// Streaming empirical distribution with sampling support.
//
// The synthetic-data heuristic (paper Section V-A) tracks, for every
// measurement interval n, "the sample distribution of x_n" and later draws
// synthetic usage values from it. EmpiricalDistribution implements that
// tracker: it keeps a bounded reservoir of observed values plus a histogram,
// and can sample either an exact observed value (reservoir) or a smoothed
// value (histogram cell with intra-cell jitter).
#pragma once

#include <cstddef>
#include <iosfwd>
#include <vector>

#include "util/histogram.h"
#include "util/rng.h"

namespace rlblh {

/// One-dimensional empirical distribution over [lo, hi].
class EmpiricalDistribution {
 public:
  /// Creates an empty distribution covering [lo, hi] with the given histogram
  /// resolution and reservoir capacity. Requires bins >= 1, lo < hi and
  /// reservoir_capacity >= 1.
  EmpiricalDistribution(double lo, double hi, std::size_t bins = 32,
                        std::size_t reservoir_capacity = 64);

  /// Folds in one observation. Values are clamped to [lo, hi].
  void add(double x, Rng& rng);

  /// Number of observations folded in so far.
  std::size_t count() const { return count_; }

  /// Sample mean of all observations; 0 when empty.
  double mean() const;

  /// Draws a value distributed like the observed data. With probability
  /// `reservoir_fraction` (default 0.5) an exact retained observation is
  /// returned; otherwise a histogram cell is drawn by mass and a uniform
  /// point inside it is returned. Requires count() >= 1. Inline: the SYN
  /// heuristic draws one sample per interval of every synthetic day.
  double sample(Rng& rng) const {
    RLBLH_REQUIRE(count_ >= 1,
                  "EmpiricalDistribution: cannot sample when empty");
    if (!reservoir_.empty() && rng.uniform() < reservoir_fraction_) {
      const auto i = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<int>(reservoir_.size() - 1)));
      return reservoir_[i];
    }
    // Draw a histogram cell proportionally to its mass, then jitter within
    // it.
    double target = rng.uniform() * hist_.total();
    std::size_t cell = hist_.bins() - 1;
    for (std::size_t i = 0; i < hist_.bins(); ++i) {
      target -= hist_.count(i);
      if (target <= 0.0) {
        cell = i;
        break;
      }
    }
    const double width =
        (hist_.hi() - hist_.lo()) / static_cast<double>(hist_.bins());
    const double left = hist_.lo() + static_cast<double>(cell) * width;
    return left + rng.uniform() * width;
  }

  /// Read access to the underlying histogram (used by tests and diagnostics).
  const Histogram& histogram() const { return hist_; }

  /// Fraction of samples served from the exact-value reservoir; in [0, 1].
  void set_reservoir_fraction(double f);

  /// Writes the full sampling state (histogram mass, reservoir contents,
  /// count/sum/fraction) at full precision: a load() into a distribution of
  /// identical geometry reproduces sample() draws bitwise.
  void save(std::ostream& out) const;

  /// Restores state written by save(). Throws DataError on malformed input
  /// or geometry mismatch.
  void load(std::istream& in);

 private:
  Histogram hist_;
  std::vector<double> reservoir_;
  std::size_t reservoir_capacity_;
  std::size_t count_ = 0;
  double sum_ = 0.0;
  double reservoir_fraction_ = 0.5;
};

}  // namespace rlblh
