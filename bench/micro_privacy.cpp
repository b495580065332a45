// Micro-benchmarks of the evaluation machinery: privacy metrics, the NALM
// attack, and the household trace generator. These bound how long the
// figure benches spend measuring (as opposed to simulating).
#include <benchmark/benchmark.h>

#include "bench_main.h"
#include "meter/household.h"
#include "meter/household_registry.h"
#include "privacy/correlation.h"
#include "privacy/mutual_information.h"
#include "privacy/nalm.h"

namespace {

using namespace rlblh;

DayTrace sample_day(unsigned seed) {
  HouseholdModel household(make_household_config("default", {}), seed);
  return household.generate_day();
}

void BM_HouseholdGenerateDay(benchmark::State& state) {
  HouseholdModel household(make_household_config("default", {}), 11);
  for (auto _ : state) {
    benchmark::DoNotOptimize(household.generate_day().total());
  }
}
BENCHMARK(BM_HouseholdGenerateDay);

void BM_PearsonDay(benchmark::State& state) {
  const DayTrace x = sample_day(1);
  const DayTrace y = sample_day(2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(pearson_correlation(x, y));
  }
}
BENCHMARK(BM_PearsonDay);

// The fleet's shape: each household observes a 14-day evaluation window
// into an estimator that is reset between households. One iteration is one
// observed day; every 14th also resets, so memory stays bounded however
// many iterations google-benchmark runs.
constexpr int kEvalWindowDays = 14;

void BM_MiObserveDay(benchmark::State& state) {
  PairwiseMiEstimator mi(kIntervalsPerDay, 8, kDefaultUsageCap,
                         kDefaultUsageCap);
  const DayTrace x = sample_day(3);
  const DayTrace y = sample_day(4);
  for (auto _ : state) {
    if (mi.days() == kEvalWindowDays) mi.reset();
    mi.observe_day(x, y);
  }
  benchmark::DoNotOptimize(mi.days());
}
BENCHMARK(BM_MiObserveDay);

/// An estimator holding `days` days of distinct usage and readings (two
/// independently seeded households).
PairwiseMiEstimator observed_window(int days) {
  PairwiseMiEstimator mi(kIntervalsPerDay, 8, kDefaultUsageCap,
                         kDefaultUsageCap);
  HouseholdModel usage(make_household_config("default", {}), 5);
  HouseholdModel readings(make_household_config("default", {}), 6);
  for (int d = 0; d < days; ++d) {
    mi.observe_day(usage.generate_day(), readings.generate_day());
  }
  return mi;
}

void BM_MiQuery(benchmark::State& state) {
  const PairwiseMiEstimator mi =
      observed_window(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(mi.normalized_mi());
  }
}
BENCHMARK(BM_MiQuery)->Arg(7)->Arg(kEvalWindowDays);

// Each iteration restores a full window untimed (an ~80 KB copy), so the
// iteration count is fixed rather than grown to the minimum run time.
void BM_MiReset(benchmark::State& state) {
  PairwiseMiEstimator mi = observed_window(kEvalWindowDays);
  const PairwiseMiEstimator window = mi;
  for (auto _ : state) {
    state.PauseTiming();
    mi = window;
    state.ResumeTiming();
    mi.reset();
    benchmark::DoNotOptimize(mi.days());
  }
}
BENCHMARK(BM_MiReset)->Iterations(2000);

void BM_NalmDetectDay(benchmark::State& state) {
  const DayTrace day = sample_day(6);
  for (auto _ : state) {
    benchmark::DoNotOptimize(nalm_detect(day).size());
  }
}
BENCHMARK(BM_NalmDetectDay);

}  // namespace

namespace rlblh::bench {

const char* const kBenchName = "micro_privacy";

// The harness supplies main(); google-benchmark gets the passthrough args
// and the harness records total wall time into BENCH_micro_privacy.json.
void bench_body(BenchContext& ctx) {
  int argc = ctx.passthrough_argc();
  benchmark::Initialize(&argc, ctx.passthrough_argv());
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
}

}  // namespace rlblh::bench
