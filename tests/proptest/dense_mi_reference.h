// Test-only reference for PairwiseMiEstimator: the dense-table estimator.
//
// Per interval it keeps a levels^2 X-pair count table and a levels^4 joint
// (X-pair, Y-pair) count table, plus a first-touch list of the joint cells
// that went nonzero, so reset() zeroes only touched cells. Entropies are
// plug-in sums over the occupied cells in ascending cell index with
// p = c / N, and the Miller-Madow correction is applied per entropy. This
// is the estimator the day-code implementation replaced; the
// mi_oracle_proptests pin every returned bit of the two against each other.
//
// Memory is (intervals - 1) x levels^4 x 4 bytes: 23.6 MB at 1440 intervals
// and 8 levels, 377 MB at 1440 intervals and 16 levels — size cases
// accordingly.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <numbers>
#include <vector>

#include "meter/trace.h"
#include "util/quantizer.h"

namespace rlblh::reference {

class DenseMiReference {
 public:
  DenseMiReference(std::size_t intervals, std::size_t levels, double x_cap,
                   double y_cap)
      : intervals_(intervals), levels_(levels), pair_cells_(levels * levels),
        joint_cells_(pair_cells_ * pair_cells_), qx_(levels, 0.0, x_cap),
        qy_(levels, 0.0, y_cap) {
    x_counts_.assign((intervals - 1) * pair_cells_, 0);
    joint_counts_.assign((intervals - 1) * joint_cells_, 0);
    joint_touched_.resize(intervals - 1);
  }

  void set_bias_correction(bool enabled) { bias_correction_ = enabled; }

  std::size_t days() const { return days_; }

  void observe_day(ConstTraceLane usage, ConstTraceLane readings) {
    for (std::size_t n = 0; n + 1 < intervals_; ++n) {
      const std::size_t xi = qx_.index(usage[n]) * levels_ +
                             qx_.index(usage[n + 1]);
      const std::size_t yi = qy_.index(readings[n]) * levels_ +
                             qy_.index(readings[n + 1]);
      ++x_counts_[n * pair_cells_ + xi];
      const std::size_t cell = xi * pair_cells_ + yi;
      std::uint32_t& joint = joint_counts_[n * joint_cells_ + cell];
      if (joint == 0) {
        joint_touched_[n].push_back(static_cast<std::uint32_t>(cell));
      }
      ++joint;
    }
    ++days_;
  }

  void reset() {
    std::fill(x_counts_.begin(), x_counts_.end(), 0);
    for (std::size_t n = 0; n + 1 < intervals_; ++n) {
      std::uint32_t* const joint_row = joint_counts_.data() + n * joint_cells_;
      for (const std::uint32_t cell : joint_touched_[n]) joint_row[cell] = 0;
      joint_touched_[n].clear();
    }
    days_ = 0;
  }

  double normalized_mi_at(std::size_t n) const {
    if (days_ == 0) return 0.0;
    const auto total = static_cast<double>(days_);
    const Entropy ex =
        entropy(x_counts_.data() + n * pair_cells_, pair_cells_, total);
    if (ex.bits <= 0.0) return 0.0;
    const std::uint32_t* const joint_row =
        joint_counts_.data() + n * joint_cells_;
    std::vector<std::uint32_t>& touched = joint_touched_[n];
    std::sort(touched.begin(), touched.end());
    std::vector<std::uint32_t> y_counts(pair_cells_, 0);
    for (const std::uint32_t cell : touched) {
      y_counts[cell % pair_cells_] += joint_row[cell];
    }
    const Entropy ey = entropy(y_counts.data(), pair_cells_, total);
    Entropy exy;
    for (const std::uint32_t cell : touched) {
      add_cell(exy, joint_row[cell], total);
    }
    double hx = ex.bits;
    double h_x_given_y = exy.bits - ey.bits;
    if (bias_correction_) {
      hx = miller_madow(ex, total);
      h_x_given_y = miller_madow(exy, total) - miller_madow(ey, total);
    }
    const double mi = (hx - h_x_given_y) / hx;
    return std::clamp(mi, 0.0, 1.0);
  }

  double normalized_mi() const {
    if (days_ == 0) return 0.0;
    double sum = 0.0;
    for (std::size_t n = 0; n + 1 < intervals_; ++n) {
      sum += normalized_mi_at(n);
    }
    return sum / static_cast<double>(intervals_ - 1);
  }

  double usage_entropy_at(std::size_t n) const {
    return entropy(x_counts_.data() + n * pair_cells_, pair_cells_,
                   static_cast<double>(days_))
        .bits;
  }

 private:
  struct Entropy {
    double bits = 0.0;
    std::size_t occupied = 0;
  };

  static void add_cell(Entropy& e, std::uint32_t c, double total) {
    if (c == 0) return;
    ++e.occupied;
    const double p = static_cast<double>(c) / total;
    e.bits -= p * std::log2(p);
  }

  static Entropy entropy(const std::uint32_t* counts, std::size_t cells,
                         double total) {
    Entropy out;
    if (total <= 0.0) return out;
    for (std::size_t i = 0; i < cells; ++i) add_cell(out, counts[i], total);
    return out;
  }

  static double miller_madow(const Entropy& e, double samples) {
    if (samples <= 0.0 || e.occupied == 0) return e.bits;
    return e.bits + static_cast<double>(e.occupied - 1) /
                        (2.0 * samples * std::numbers::ln2);
  }

  std::size_t intervals_;
  std::size_t levels_;
  std::size_t pair_cells_;
  std::size_t joint_cells_;
  Quantizer qx_;
  Quantizer qy_;
  std::size_t days_ = 0;
  bool bias_correction_ = true;
  std::vector<std::uint32_t> x_counts_;
  std::vector<std::uint32_t> joint_counts_;
  mutable std::vector<std::vector<std::uint32_t>> joint_touched_;
};

}  // namespace rlblh::reference
