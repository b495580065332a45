#include "privacy/mutual_information.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <numbers>

#include "util/error.h"

namespace rlblh {

namespace {

/// Plug-in Shannon entropy in bits, plus the number of occupied cells
/// (needed for the Miller-Madow bias correction).
struct EntropyEstimate {
  double bits = 0.0;
  std::size_t occupied = 0;
};

/// Miller-Madow first-order bias correction: the plug-in estimator
/// under-estimates entropy by ~ (K - 1) / (2 N ln 2) bits for K occupied
/// cells and N samples.
double miller_madow(const EntropyEstimate& e, double samples) {
  if (samples <= 0.0 || e.occupied == 0) return e.bits;
  return e.bits + static_cast<double>(e.occupied - 1) /
                      (2.0 * samples * std::numbers::ln2);
}

/// The X-pair cell of a sorted (X-pair << 16) | Y-pair key.
std::uint32_t x_cell(std::uint32_t key) { return key >> 16; }

}  // namespace

/// Per-query scratch: the entropy terms of every count (computed once per
/// query) and one interval's keys, sorted to visit cells in ascending order.
struct PairwiseMiEstimator::Query {
  /// Precomputes p = c / days and log2(p) for every count c in 1..days.
  explicit Query(std::size_t days)
      : p(days + 1, 0.0), log2p(days + 1, 0.0), keys(days), ys(days) {
    const auto total = static_cast<double>(days);
    for (std::size_t c = 1; c <= days; ++c) {
      p[c] = static_cast<double>(c) / total;
      log2p[c] = std::log2(p[c]);
    }
  }

  /// Entropy of the histogram a sorted key sequence describes: each run of
  /// equal cell(key) is one occupied cell, so cells are visited in
  /// ascending order and each term is the dense scan's p * log2(p).
  template <typename Key, typename Cell>
  EntropyEstimate entropy(const std::vector<Key>& sorted, Cell cell) const {
    EntropyEstimate out;
    std::size_t i = 0;
    while (i < sorted.size()) {
      const auto current = cell(sorted[i]);
      std::size_t j = i + 1;
      while (j < sorted.size() && cell(sorted[j]) == current) ++j;
      ++out.occupied;
      out.bits -= p[j - i] * log2p[j - i];
      i = j;
    }
    return out;
  }

  std::vector<double> p;
  std::vector<double> log2p;
  /// Per day (X-pair code << 16) | Y-pair code: ascending keys are the
  /// joint cells (X-pair major) in the dense table's cell order.
  std::vector<std::uint32_t> keys;
  /// Per day the Y-pair code, sorted.
  std::vector<std::uint16_t> ys;
};

PairwiseMiEstimator::PairwiseMiEstimator(std::size_t intervals,
                                         std::size_t levels, double x_cap,
                                         double y_cap)
    : intervals_(intervals), levels_(levels), qx_(levels, 0.0, x_cap),
      qy_(levels, 0.0, y_cap) {
  RLBLH_REQUIRE(intervals >= 2, "PairwiseMiEstimator: need >= 2 intervals");
  RLBLH_REQUIRE(levels >= 2, "PairwiseMiEstimator: need >= 2 levels");
  RLBLH_REQUIRE(levels <= 256, "PairwiseMiEstimator: need <= 256 levels");
}

void PairwiseMiEstimator::observe_day(ConstTraceLane usage,
                                      ConstTraceLane readings) {
  RLBLH_REQUIRE(usage.size() == intervals_ && readings.size() == intervals_,
                "PairwiseMiEstimator: day length mismatch");
  for (std::size_t n = 0; n < intervals_; ++n) {
    RLBLH_REQUIRE(!std::isnan(usage[n]) && !std::isnan(readings[n]),
                  "PairwiseMiEstimator: NaN in an observed day");
  }
  const std::size_t pairs = intervals_ - 1;
  const std::size_t row = days_ * pairs;
  x_codes_.resize(row + pairs);
  y_codes_.resize(row + pairs);
  std::uint16_t* const x_row = x_codes_.data() + row;
  std::uint16_t* const y_row = y_codes_.data() + row;
  std::size_t xi = qx_.index(usage[0]);
  std::size_t yi = qy_.index(readings[0]);
  for (std::size_t n = 0; n < pairs; ++n) {
    const std::size_t x_next = qx_.index(usage[n + 1]);
    const std::size_t y_next = qy_.index(readings[n + 1]);
    x_row[n] = static_cast<std::uint16_t>(xi * levels_ + x_next);
    y_row[n] = static_cast<std::uint16_t>(yi * levels_ + y_next);
    xi = x_next;
    yi = y_next;
  }
  ++days_;
}

void PairwiseMiEstimator::reset() {
  x_codes_.clear();
  y_codes_.clear();
  days_ = 0;
}

void PairwiseMiEstimator::sort_keys(std::size_t n, Query& query) const {
  const std::size_t pairs = intervals_ - 1;
  for (std::size_t d = 0; d < days_; ++d) {
    query.keys[d] = (std::uint32_t{x_codes_[d * pairs + n]} << 16) |
                    std::uint32_t{y_codes_[d * pairs + n]};
  }
  std::sort(query.keys.begin(), query.keys.end());
}

double PairwiseMiEstimator::interval_mi(std::size_t n, Query& query) const {
  sort_keys(n, query);
  const EntropyEstimate ex = query.entropy(query.keys, x_cell);
  if (ex.bits <= 0.0) return 0.0;  // deterministic usage pair: nothing leaks
  const EntropyEstimate exy = query.entropy(query.keys, std::identity{});
  for (std::size_t d = 0; d < days_; ++d) {
    query.ys[d] = static_cast<std::uint16_t>(query.keys[d]);
  }
  std::sort(query.ys.begin(), query.ys.end());
  const EntropyEstimate ey = query.entropy(query.ys, std::identity{});
  const auto total = static_cast<double>(days_);
  double hx = ex.bits;
  double h_x_given_y = exy.bits - ey.bits;
  if (bias_correction_) {
    // With few evaluation days the plug-in H(X|Y) is biased low (every
    // rarely-seen Y value looks perfectly informative), inflating MI. The
    // Miller-Madow correction cancels the leading bias term of each
    // entropy; without it the metric overstates leakage substantially.
    hx = miller_madow(ex, total);
    h_x_given_y = miller_madow(exy, total) - miller_madow(ey, total);
  }
  const double mi = (hx - h_x_given_y) / hx;
  // The correction (and floating-point cancellation) can push the ratio
  // slightly outside [0, 1]; clamp to the metric's defined range.
  return std::clamp(mi, 0.0, 1.0);
}

double PairwiseMiEstimator::normalized_mi_at(std::size_t n) const {
  RLBLH_REQUIRE(n + 1 < intervals_,
                "PairwiseMiEstimator: interval out of range");
  if (days_ == 0) return 0.0;
  Query query(days_);
  return interval_mi(n, query);
}

double PairwiseMiEstimator::normalized_mi() const {
  if (days_ == 0) return 0.0;
  Query query(days_);
  double sum = 0.0;
  for (std::size_t n = 0; n + 1 < intervals_; ++n) {
    sum += interval_mi(n, query);
  }
  return sum / static_cast<double>(intervals_ - 1);
}

double PairwiseMiEstimator::usage_entropy_at(std::size_t n) const {
  RLBLH_REQUIRE(n + 1 < intervals_,
                "PairwiseMiEstimator: interval out of range");
  Query query(days_);
  sort_keys(n, query);
  return query.entropy(query.keys, x_cell).bits;
}

}  // namespace rlblh
