#include "util/histogram.h"

#include <algorithm>
#include <cmath>
#include <istream>
#include <ostream>

namespace rlblh {

Histogram::Histogram(std::size_t bins, double lo, double hi)
    : lo_(lo), hi_(hi), width_((hi - lo) / static_cast<double>(bins)),
      counts_(bins, 0.0) {
  RLBLH_REQUIRE(bins >= 1, "Histogram: need at least one bin");
  RLBLH_REQUIRE(lo < hi, "Histogram: lo must be < hi");
}

void Histogram::add(double x) { add_weighted(x, 1.0); }

void Histogram::add_weighted(double x, double weight) {
  RLBLH_REQUIRE(weight >= 0.0, "Histogram: weight must be >= 0");
  counts_[bin_index(x)] += weight;
  total_ += weight;
}

std::size_t Histogram::bin_index(double x) const {
  if (x <= lo_) return 0;
  if (x >= hi_) return counts_.size() - 1;
  const auto i = static_cast<std::size_t>((x - lo_) / width_);
  return std::min(i, counts_.size() - 1);
}

double Histogram::bin_center(std::size_t i) const {
  RLBLH_REQUIRE(i < counts_.size(), "Histogram: bin index out of range");
  return lo_ + (static_cast<double>(i) + 0.5) * width_;
}

double Histogram::probability(std::size_t i) const {
  if (total_ == 0.0) return 0.0;
  return count(i) / total_;
}

double Histogram::entropy_bits() const {
  if (total_ == 0.0) return 0.0;
  double h = 0.0;
  for (const double c : counts_) {
    if (c <= 0.0) continue;
    const double p = c / total_;
    h -= p * std::log2(p);
  }
  return h;
}

void Histogram::reset() {
  std::fill(counts_.begin(), counts_.end(), 0.0);
  total_ = 0.0;
}

void Histogram::save(std::ostream& out) const {
  const auto precision = out.precision(17);
  out << "hist " << counts_.size() << ' ' << lo_ << ' ' << hi_ << ' '
      << total_ << '\n';
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    if (i > 0) out << ' ';
    out << counts_[i];
  }
  out << '\n';
  out.precision(precision);
}

void Histogram::load(std::istream& in) {
  std::string word;
  std::size_t bins = 0;
  double lo = 0.0, hi = 0.0, total = 0.0;
  if (!(in >> word >> bins >> lo >> hi >> total) || word != "hist") {
    throw DataError("Histogram::load: malformed header");
  }
  if (bins != counts_.size() || lo != lo_ || hi != hi_) {
    throw DataError("Histogram::load: geometry mismatch");
  }
  std::vector<double> counts(bins, 0.0);
  for (std::size_t i = 0; i < bins; ++i) {
    if (!(in >> counts[i]) || counts[i] < 0.0) {
      throw DataError("Histogram::load: malformed count");
    }
  }
  if (total < 0.0) throw DataError("Histogram::load: negative total");
  counts_ = std::move(counts);
  total_ = total;
}

}  // namespace rlblh
