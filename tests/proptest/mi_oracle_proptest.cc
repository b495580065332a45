// Differential property suite for the pairwise MI estimator.
//
// PairwiseMiEstimator stores one row of quantized pair codes per observed
// day and rebuilds each interval's histograms by sorting those codes at
// query time. Its contract is bitwise equality with the dense-table
// estimator it replaced (kept here as reference::DenseMiReference): every
// entropy visits the occupied cells in ascending cell index with the same
// p * log2(p) terms. This suite observes the same random days into both and
// compares normalized_mi(), every normalized_mi_at(n) and every
// usage_entropy_at(n) bit for bit, then resets both, reuses them on a second
// batch of days and compares again.
//
// Cases cover 2-64 intervals at 2-16 levels and 1440 intervals at 2-8
// levels (the reference holds levels^4 counts per interval), 1-200 days
// (so more days than levels^2 pair cells), bias correction on and off, and
// day streams that are uniform, constant, identical (x == y), drawn from a
// few discrete values, out of range or +-inf.
//
// Labeled `proptest` in CTest; filter with `ctest -LE proptest` to skip, or
// scale the case count with RLBLH_PROPTEST_ITERS.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "dense_mi_reference.h"
#include "meter/trace.h"
#include "privacy/mutual_information.h"
#include "util/proptest.h"

namespace rlblh {
namespace {

using proptest::Domain;
using proptest::for_all;
using proptest::PropertyOptions;

struct MiCase {
  std::size_t intervals = 2;
  std::size_t levels = 2;
  std::size_t days_before = 1;  ///< days observed before the reset
  std::size_t days_after = 1;   ///< days observed after it
  bool bias_correction = true;
  double x_cap = 1.0;
  double y_cap = 1.0;
};

std::string describe(const MiCase& c) {
  std::ostringstream out;
  out << "intervals=" << c.intervals << " levels=" << c.levels
      << " days=" << c.days_before << "+" << c.days_after
      << " bias=" << c.bias_correction
      << " caps=" << c.x_cap << "," << c.y_cap;
  return out.str();
}

Domain<MiCase> mi_case_domain() {
  Domain<MiCase> domain;
  domain.generate = [](Rng& rng) {
    MiCase c;
    if (rng.bernoulli(0.1)) {
      c.intervals = 1440;
      c.levels = static_cast<std::size_t>(rng.uniform_int(2, 8));
    } else {
      c.intervals = static_cast<std::size_t>(rng.uniform_int(2, 64));
      c.levels = static_cast<std::size_t>(rng.uniform_int(2, 16));
    }
    c.days_before = static_cast<std::size_t>(rng.uniform_int(1, 200));
    c.days_after = static_cast<std::size_t>(rng.uniform_int(1, 200));
    c.bias_correction = rng.bernoulli(0.5);
    c.x_cap = rng.uniform(0.5, 5.0);
    c.y_cap = rng.bernoulli(0.5) ? c.x_cap : rng.uniform(0.5, 5.0);
    return c;
  };
  domain.shrink = [](const MiCase& c) {
    std::vector<MiCase> out;
    if (c.days_before > 1) {
      out.push_back(c);
      out.back().days_before /= 2;
    }
    if (c.days_after > 1) {
      out.push_back(c);
      out.back().days_after /= 2;
    }
    if (c.intervals > 2) {
      out.push_back(c);
      out.back().intervals = std::max<std::size_t>(2, c.intervals / 2);
    }
    if (c.levels > 2) {
      out.push_back(c);
      --out.back().levels;
    }
    return out;
  };
  domain.describe = describe;
  return domain;
}

/// One value of a day stream. `kind` picks the shape of the whole day.
double stream_value(int kind, double cap, double x, Rng& rng) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  switch (kind) {
    case 0:  // uniform over the quantizer's range
      return rng.uniform(0.0, cap);
    case 1:  // a few discrete values, so pair cells repeat across days
      return cap * static_cast<double>(rng.uniform_int(0, 3)) / 3.0;
    case 2:  // out of range on both sides
      return rng.uniform(-cap, 2.0 * cap);
    case 3: {  // +-inf and the range ends
      const int pick = rng.uniform_int(0, 4);
      if (pick == 0) return kInf;
      if (pick == 1) return -kInf;
      if (pick == 2) return 0.0;
      if (pick == 3) return cap;
      return rng.uniform(0.0, cap);
    }
    default:  // constant for the whole day
      return x;
  }
}

/// Observes `days` random days into both estimators. Each day draws its
/// usage and reading shapes independently; readings may also copy usage.
void observe_days(PairwiseMiEstimator& mi, reference::DenseMiReference& ref,
                  const MiCase& c, std::size_t days, Rng& rng) {
  for (std::size_t d = 0; d < days; ++d) {
    const int x_kind = rng.uniform_int(0, 4);
    const int y_kind = rng.uniform_int(0, 5);  // 5: identical to usage
    const double x_const = rng.uniform(0.0, c.x_cap);
    const double y_const = rng.uniform(0.0, c.y_cap);
    std::vector<double> x(c.intervals);
    std::vector<double> y(c.intervals);
    for (std::size_t n = 0; n < c.intervals; ++n) {
      x[n] = stream_value(x_kind, c.x_cap, x_const, rng);
      y[n] = y_kind == 5 ? x[n] : stream_value(y_kind, c.y_cap, y_const, rng);
    }
    mi.observe_day(x, y);
    ref.observe_day(x, y);
  }
}

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

/// Fails the property unless `actual` and `expected` (what(n) of the two
/// estimators) have the same bits.
void check_same(double actual, double expected, const std::string& phase,
                const char* what, std::size_t n) {
  if (same_bits(actual, expected)) return;
  std::ostringstream out;
  out.precision(17);
  out << phase << ": " << what << "(" << n << ") " << actual << " vs "
      << expected;
  throw proptest::PropertyFailure(out.str());
}

void expect_equal(const PairwiseMiEstimator& mi,
                  const reference::DenseMiReference& ref, const MiCase& c,
                  const std::string& phase) {
  PROPTEST_CHECK(mi.days() == ref.days(), phase + ": days differ");
  PROPTEST_CHECK(same_bits(mi.normalized_mi(), ref.normalized_mi()),
                 phase + ": normalized_mi");
  for (std::size_t n = 0; n + 1 < c.intervals; ++n) {
    check_same(mi.normalized_mi_at(n), ref.normalized_mi_at(n), phase,
               "normalized_mi_at", n);
    check_same(mi.usage_entropy_at(n), ref.usage_entropy_at(n), phase,
               "usage_entropy_at", n);
  }
}

PropertyOptions suite_options() {
  PropertyOptions options;
  options.iterations = 100;
  options.base_seed = 0x4d1e57a7ull;
  return options;
}

TEST(MiOracle, DayCodesMatchDenseTablesBitForBit) {
  const auto result = for_all(
      "day-code MI equals the dense-table reference", mi_case_domain(),
      [](const MiCase& c, Rng& rng) {
        PairwiseMiEstimator mi(c.intervals, c.levels, c.x_cap, c.y_cap);
        reference::DenseMiReference ref(c.intervals, c.levels, c.x_cap,
                                        c.y_cap);
        mi.set_bias_correction(c.bias_correction);
        ref.set_bias_correction(c.bias_correction);
        expect_equal(mi, ref, c, "empty");
        observe_days(mi, ref, c, c.days_before, rng);
        expect_equal(mi, ref, c, "first window");
        mi.reset();
        ref.reset();
        expect_equal(mi, ref, c, "after reset");
        observe_days(mi, ref, c, c.days_after, rng);
        expect_equal(mi, ref, c, "reused window");
      },
      suite_options());
  ASSERT_TRUE(result.success) << result.message;
}

}  // namespace
}  // namespace rlblh
