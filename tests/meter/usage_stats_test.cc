#include "meter/usage_stats.h"

#include <vector>

#include <gtest/gtest.h>

#include "meter/household.h"
#include "util/error.h"
#include "util/running_stats.h"

namespace rlblh {
namespace {

TEST(UsageStatsTracker, RejectsBadConstruction) {
  EXPECT_THROW(UsageStatsTracker(0, 0.08), ConfigError);
  EXPECT_THROW(UsageStatsTracker(10, 0.0), ConfigError);
}

TEST(UsageStatsTracker, CannotSampleBeforeObserving) {
  UsageStatsTracker tracker(10, 0.08);
  Rng rng(1);
  EXPECT_THROW(tracker.sample_day(rng), ConfigError);
  std::vector<double> buffer;
  EXPECT_THROW(tracker.sample_day_into(rng, buffer), ConfigError);
}

TEST(UsageStatsTracker, RejectsMismatchedDayLength) {
  UsageStatsTracker tracker(10, 0.08);
  Rng rng(1);
  EXPECT_THROW(tracker.observe_day(DayTrace(5), rng), ConfigError);
}

TEST(UsageStatsTracker, TracksPerIntervalMeans) {
  UsageStatsTracker tracker(3, 1.0);
  Rng rng(2);
  tracker.observe_day(DayTrace(std::vector<double>{0.1, 0.5, 0.9}), rng);
  tracker.observe_day(DayTrace(std::vector<double>{0.3, 0.5, 0.7}), rng);
  EXPECT_EQ(tracker.days_observed(), 2u);
  EXPECT_NEAR(tracker.mean_at(0), 0.2, 1e-12);
  EXPECT_NEAR(tracker.mean_at(1), 0.5, 1e-12);
  EXPECT_NEAR(tracker.mean_at(2), 0.8, 1e-12);
  EXPECT_THROW(tracker.mean_at(3), ConfigError);
}

TEST(UsageStatsTracker, SampledDayHasCorrectShape) {
  UsageStatsTracker tracker(5, 0.08);
  Rng rng(3);
  tracker.observe_day(DayTrace(std::vector<double>(5, 0.04)), rng);
  const DayTrace sample = tracker.sample_day(rng);
  EXPECT_EQ(sample.intervals(), 5u);
  for (std::size_t n = 0; n < 5; ++n) {
    EXPECT_GE(sample.at(n), 0.0);
    EXPECT_LE(sample.at(n), 0.08);
  }
}

TEST(UsageStatsTracker, SampleDayIntoDrawsWhatSampleDayDraws) {
  // The buffer form reuses one caller-owned vector across days; the values
  // and the RNG stream position are sample_day()'s.
  HouseholdModel model(HouseholdConfig{}, 22);
  UsageStatsTracker tracker(kIntervalsPerDay, kDefaultUsageCap);
  Rng observe_rng(5);
  for (int day = 0; day < 5; ++day) {
    tracker.observe_day(model.generate_day(), observe_rng);
  }
  Rng a(6);
  Rng b(6);
  std::vector<double> buffer(3, -1.0);
  for (int day = 0; day < 3; ++day) {
    tracker.sample_day_into(a, buffer);
    EXPECT_EQ(buffer, tracker.sample_day(b).values());
  }
  EXPECT_EQ(a.uniform(), b.uniform());
}

TEST(UsageStatsTracker, SyntheticDaysMatchSourceStatistics) {
  // The heart of the SYN heuristic (paper Section V-A): synthetic days must
  // be statistically close to the observed ones, per interval.
  HouseholdModel model(HouseholdConfig{}, 21);
  UsageStatsTracker tracker(kIntervalsPerDay, kDefaultUsageCap);
  Rng rng(4);
  RunningStats real_total;
  for (int day = 0; day < 60; ++day) {
    const DayTrace t = model.generate_day();
    real_total.add(t.total());
    tracker.observe_day(t, rng);
  }
  RunningStats syn_total;
  for (int day = 0; day < 60; ++day) {
    syn_total.add(tracker.sample_day(rng).total());
  }
  // Totals agree within 10% (independence across intervals narrows the
  // variance but must preserve the mean).
  EXPECT_NEAR(syn_total.mean(), real_total.mean(), 0.1 * real_total.mean());
  // Per-interval means agree on a few probe intervals.
  RunningStats probe_real, probe_syn;
  for (int day = 0; day < 60; ++day) {
    probe_syn.add(tracker.sample_day(rng).at(700));
  }
  EXPECT_NEAR(probe_syn.mean(), tracker.mean_at(700),
              0.35 * tracker.mean_at(700) + 0.002);
}

TEST(UsageStatsTracker, DistributionAccessor) {
  UsageStatsTracker tracker(4, 1.0);
  Rng rng(5);
  tracker.observe_day(DayTrace(std::vector<double>{0.1, 0.2, 0.3, 0.4}), rng);
  EXPECT_EQ(tracker.distribution(2).count(), 1u);
  EXPECT_THROW(tracker.distribution(4), ConfigError);
  EXPECT_EQ(tracker.intervals(), 4u);
  EXPECT_DOUBLE_EQ(tracker.usage_cap(), 1.0);
}

}  // namespace
}  // namespace rlblh
