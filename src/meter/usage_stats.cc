#include "meter/usage_stats.h"

#include <cmath>
#include <istream>
#include <ostream>
#include <string>
#include <utility>

#include "util/error.h"

namespace rlblh {

UsageStatsTracker::UsageStatsTracker(std::size_t intervals, double usage_cap,
                                     std::size_t bins, std::size_t reservoir)
    : cap_(usage_cap) {
  RLBLH_REQUIRE(intervals >= 1, "UsageStatsTracker: need >= 1 interval");
  RLBLH_REQUIRE(usage_cap > 0.0, "UsageStatsTracker: usage cap must be > 0");
  dists_.reserve(intervals);
  for (std::size_t n = 0; n < intervals; ++n) {
    dists_.emplace_back(0.0, usage_cap, bins, reservoir);
  }
}

void UsageStatsTracker::observe_day(ConstTraceLane day, Rng& rng) {
  RLBLH_REQUIRE(day.size() == dists_.size(),
                "UsageStatsTracker: day length mismatch");
  for (std::size_t n = 0; n < dists_.size(); ++n) {
    dists_[n].add(day[n], rng);
  }
  ++days_;
}

DayTrace UsageStatsTracker::sample_day(Rng& rng) const {
  std::vector<double> values;
  sample_day_into(rng, values);
  return DayTrace(std::move(values));
}

void UsageStatsTracker::sample_day_into(Rng& rng,
                                        std::vector<double>& out) const {
  RLBLH_REQUIRE(days_ >= 1,
                "UsageStatsTracker: cannot sample before observing a day");
  out.resize(dists_.size());
  for (std::size_t n = 0; n < dists_.size(); ++n) {
    const double x = dists_[n].sample(rng);
    RLBLH_REQUIRE(std::isfinite(x) && x >= 0.0,
                  "UsageStatsTracker: sampled usage must be finite and >= 0");
    out[n] = x;
  }
}

double UsageStatsTracker::mean_at(std::size_t n) const {
  RLBLH_REQUIRE(n < dists_.size(), "UsageStatsTracker: interval out of range");
  return dists_[n].mean();
}

void UsageStatsTracker::save(std::ostream& out) const {
  out << "usage-stats " << dists_.size() << ' ' << days_ << '\n';
  for (const EmpiricalDistribution& dist : dists_) dist.save(out);
}

void UsageStatsTracker::load(std::istream& in) {
  std::string word;
  std::size_t intervals = 0, days = 0;
  if (!(in >> word >> intervals >> days) || word != "usage-stats") {
    throw DataError("UsageStatsTracker::load: malformed header");
  }
  if (intervals != dists_.size()) {
    throw DataError("UsageStatsTracker::load: interval count mismatch");
  }
  for (EmpiricalDistribution& dist : dists_) dist.load(in);
  days_ = days;
}

const EmpiricalDistribution& UsageStatsTracker::distribution(
    std::size_t n) const {
  RLBLH_REQUIRE(n < dists_.size(), "UsageStatsTracker: interval out of range");
  return dists_[n];
}

}  // namespace rlblh
