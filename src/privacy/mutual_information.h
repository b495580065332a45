// Normalized mutual information over length-two windows (paper Eq. 20).
//
// Load signatures are detected from high-frequency variation, "especially by
// watching two successive values". The paper therefore measures how much
// observing Y_n = (y_n, y_{n+1}) reveals about X_n = (x_n, x_{n+1}):
//
//     MI = (1/(n_M - 1)) * sum_n [ H(X_n) - H(X_n | Y_n) ] / H(X_n)
//
// Continuous values are quantized to a fixed number of levels for the
// entropy estimates (prior BLH work does the same; the controller itself
// never quantizes). Intervals where H(X_n) = 0 — the usage pair is
// deterministic, so there is nothing to leak — contribute 0 and are
// documented as such.
//
// Storage is one row of pair codes per observed day: for every interval n
// the quantized X-pair code and Y-pair code, each below levels^2. Memory is
// O(days x intervals) and independent of the levels^4 joint alphabet. A
// query rebuilds interval n's X, Y and joint histograms from its days'
// codes by sorting them, so every entropy sum visits the occupied cells in
// ascending cell index — the same nonzero counts, in the same order, that
// a scan of dense count tables visits — and each p * log2(p) term is the
// same double (it depends only on the count and the day total). Every
// returned bit therefore equals the dense-table estimator's.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "meter/trace.h"
#include "util/quantizer.h"

namespace rlblh {

/// Streaming estimator of the paper's normalized MI metric. Observes paired
/// (usage, reading) days, recording each interval's quantized pairs;
/// normalized_mi() then evaluates Eq. 20.
class PairwiseMiEstimator {
 public:
  /// `intervals` slots per day (>= 2); `levels` quantization levels
  /// (2..256) applied to both streams; values live in [0, x_cap] /
  /// [0, y_cap].
  PairwiseMiEstimator(std::size_t intervals, std::size_t levels, double x_cap,
                      double y_cap);

  /// Folds in one evaluation day of usage x and meter readings y (read-only
  /// day views; a DayTrace converts implicitly). Throws ConfigError on a
  /// length mismatch or
  /// a NaN in either stream, leaving the estimator unchanged. Values
  /// outside the caps (±inf included) clamp to the end levels.
  void observe_day(ConstTraceLane usage, ConstTraceLane readings);

  /// Number of days observed.
  std::size_t days() const { return days_; }

  /// Normalized MI averaged over intervals (Eq. 20), in [0, 1].
  double normalized_mi() const;

  /// Normalized MI of one interval index n in [0, intervals-2]; 0 when
  /// H(X_n) = 0.
  double normalized_mi_at(std::size_t n) const;

  /// Entropy H(X_n) in bits at interval n (diagnostic, plug-in estimate).
  double usage_entropy_at(std::size_t n) const;

  /// Enables/disables the Miller-Madow bias correction (on by default).
  /// With finitely many evaluation days the plug-in conditional entropy is
  /// biased low, which overstates leakage; the correction removes the
  /// leading (K-1)/(2N ln 2) term of each entropy estimate.
  void set_bias_correction(bool enabled) { bias_correction_ = enabled; }

  /// Returns the estimator to its freshly-constructed state (same geometry
  /// and caps), keeping the code rows' capacity.
  void reset();

 private:
  /// Per-query scratch: the p and log2(p) of every count 1..days and one
  /// interval's sorted keys.
  struct Query;

  /// Fills query.keys with interval n's per-day keys, ascending.
  void sort_keys(std::size_t n, Query& query) const;
  double interval_mi(std::size_t n, Query& query) const;

  std::size_t intervals_;
  std::size_t levels_;
  Quantizer qx_;
  Quantizer qy_;
  std::size_t days_ = 0;
  bool bias_correction_ = true;
  // Day-major pair codes: day d's X-pair code for interval n is
  // x_codes_[d * (intervals_ - 1) + n] (likewise y_codes_), each
  // i * levels + j for the quantized values i, j of slots n and n + 1.
  std::vector<std::uint16_t> x_codes_;
  std::vector<std::uint16_t> y_codes_;
};

}  // namespace rlblh
