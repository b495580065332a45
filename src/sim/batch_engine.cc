#include "sim/batch_engine.h"

#include <algorithm>
#include <typeinfo>

#if defined(RLBLH_SIMD) && defined(__x86_64__) && defined(__GNUC__)
#include <immintrin.h>
#endif

#include "obs/obs.h"
#include "util/error.h"

namespace rlblh {

void BatchDay::extract_lane(std::size_t k, DayResult& out) const {
  RLBLH_REQUIRE(k < width, "BatchDay: lane out of range");
  // Resize-once raw views, exactly like SimEngine's scratch handling: every
  // slot is overwritten below with values that satisfy DayTrace's
  // finite/>= 0 invariant (they were produced under the same contract).
  if (out.usage.intervals() != intervals) out.usage = DayTrace(intervals);
  if (out.readings.intervals() != intervals) out.readings = DayTrace(intervals);
  out.battery_levels.resize(intervals);
  double* u = out.usage.mutable_data();
  double* r = out.readings.mutable_data();
  double* l = out.battery_levels.data();
  const double* soa_usage = usage.data() + k;
  const double* soa_readings = readings.data() + k;
  const double* soa_levels = levels.data() + k;
  for (std::size_t n = 0; n < intervals; ++n) {
    u[n] = soa_usage[n * width];
    r[n] = soa_readings[n * width];
    l[n] = soa_levels[n * width];
  }
  out.savings_cents = savings_cents[k];
  out.bill_cents = bill_cents[k];
  out.usage_cost_cents = usage_cost_cents[k];
  out.battery_violations = battery_violations[k];
}

namespace {

/// Everything a constant-rate segment run needs, bundled so the portable
/// and SIMD kernels share one signature. Series pointers are interval-major
/// ([n * width + k]); `y`, `level` and the accumulators are per-lane.
struct SegmentArgs {
  const double* usage;
  double* readings;
  double* levels;
  const double* y;
  double* level;
  std::size_t* violations;
  double* savings;
  double* bill;
  double* cost;
  std::size_t width;
  double capacity;
  double charge_eff;
  double discharge_eff;
};

/// Advances lanes [k0, k1) over intervals [n0, n1) at constant `rate`.
/// Per lane this is exactly SimEngine's blocked inner loop: level recorded
/// before the step, effective reading = y + shortfall, and the three money
/// accumulators bumped in the same order — the lane dimension is the only
/// thing that changed, so each lane's arithmetic is bitwise the scalar
/// engine's. Lanes run k-outer so the level/money accumulators live in
/// registers across the whole run instead of round-tripping through memory
/// every interval (the loop-carried level dependence otherwise stalls on
/// store-to-load forwarding); lane order is free to change because lanes
/// never mix.
void run_segment_portable(const SegmentArgs& a, std::size_t k0, std::size_t k1,
                          std::size_t n0, std::size_t n1, double rate) {
  for (std::size_t k = k0; k < k1; ++k) {
    const double y = a.y[k];
    const double* x = a.usage + k;
    double* lv = a.levels + k;
    double* rd = a.readings + k;
    double level = a.level[k];
    double savings = a.savings[k];
    double bill = a.bill[k];
    double cost = a.cost[k];
    std::size_t violations = 0;
    for (std::size_t n = n0; n < n1; ++n) {
      lv[n * a.width] = level;
      const double x_n = x[n * a.width];
      const BatteryLaneStep step = battery_lane_step(
          level, y, x_n, a.capacity, a.charge_eff, a.discharge_eff);
      const double effective_reading = y + step.grid_extra;
      rd[n * a.width] = effective_reading;
      violations += step.violated ? std::size_t{1} : std::size_t{0};
      savings += rate * (x_n - effective_reading);
      bill += rate * effective_reading;
      cost += rate * x_n;
      level = step.level_after;
    }
    a.level[k] = level;
    a.savings[k] = savings;
    a.bill[k] = bill;
    a.cost[k] = cost;
    a.violations[k] += violations;
  }
}

#if defined(RLBLH_SIMD) && defined(__x86_64__) && defined(__GNUC__)

/// Explicit AVX2 segment kernel, engaged at runtime when the CPU has AVX2
/// (see run_segment below). Four lanes per vector, accumulators held in
/// registers across the run; every operation is the portable loop's
/// expression element-wise — separate multiply and add throughout, never
/// _mm256_fmadd_pd, because the scalar engine is built without FP
/// contraction and a fused step would round differently. The function
/// carries its own target attribute instead of the TU being compiled with
/// -mavx2, so the compiler cannot re-codegen (and re-contract) the portable
/// paths of this file differently from engine.cc.
__attribute__((target("avx2"))) void run_segment_avx2(const SegmentArgs& a,
                                                      std::size_t k0,
                                                      std::size_t k1,
                                                      std::size_t n0,
                                                      std::size_t n1,
                                                      double rate) {
  const __m256d vcap = _mm256_set1_pd(a.capacity);
  const __m256d vde = _mm256_set1_pd(a.discharge_eff);
  const __m256d vce = _mm256_set1_pd(a.charge_eff);
  const __m256d vrate = _mm256_set1_pd(rate);
  const __m256d vzero = _mm256_setzero_pd();
  const __m256d vsignbit = _mm256_set1_pd(-0.0);
  std::size_t k = k0;
  for (; k + 4 <= k1; k += 4) {
    const __m256d vy = _mm256_loadu_pd(a.y + k);
    const __m256d vcharge = _mm256_mul_pd(vce, vy);
    __m256d vlevel = _mm256_loadu_pd(a.level + k);
    __m256d vsav = _mm256_loadu_pd(a.savings + k);
    __m256d vbill = _mm256_loadu_pd(a.bill + k);
    __m256d vcost = _mm256_loadu_pd(a.cost + k);
    for (std::size_t n = n0; n < n1; ++n) {
      _mm256_storeu_pd(a.levels + n * a.width + k, vlevel);
      const __m256d vx = _mm256_loadu_pd(a.usage + n * a.width + k);
      // delta = ce * y - x / de;  next = level + delta
      const __m256d vnext = _mm256_add_pd(
          vlevel, _mm256_sub_pd(vcharge, _mm256_div_pd(vx, vde)));
      const __m256d vover = _mm256_cmp_pd(vnext, vcap, _CMP_GT_OQ);
      const __m256d vunder = _mm256_cmp_pd(vnext, vzero, _CMP_LT_OQ);
      // grid_extra = under ? (-next) * de : 0.0 — the AND with the mask
      // zeroes the untaken lanes exactly (+0.0), matching the scalar select.
      const __m256d vge = _mm256_and_pd(
          vunder, _mm256_mul_pd(_mm256_xor_pd(vnext, vsignbit), vde));
      vlevel = _mm256_blendv_pd(_mm256_blendv_pd(vnext, vcap, vover), vzero,
                                vunder);
      const __m256d veff = _mm256_add_pd(vy, vge);
      _mm256_storeu_pd(a.readings + n * a.width + k, veff);
      vsav = _mm256_add_pd(vsav, _mm256_mul_pd(vrate, _mm256_sub_pd(vx, veff)));
      vbill = _mm256_add_pd(vbill, _mm256_mul_pd(vrate, veff));
      vcost = _mm256_add_pd(vcost, _mm256_mul_pd(vrate, vx));
      const int clipped = _mm256_movemask_pd(_mm256_or_pd(vover, vunder));
      if (clipped != 0) {  // feasible policies never clip: keep it off-path
        a.violations[k + 0] += static_cast<std::size_t>(clipped & 1);
        a.violations[k + 1] += static_cast<std::size_t>((clipped >> 1) & 1);
        a.violations[k + 2] += static_cast<std::size_t>((clipped >> 2) & 1);
        a.violations[k + 3] += static_cast<std::size_t>((clipped >> 3) & 1);
      }
    }
    _mm256_storeu_pd(a.level + k, vlevel);
    _mm256_storeu_pd(a.savings + k, vsav);
    _mm256_storeu_pd(a.bill + k, vbill);
    _mm256_storeu_pd(a.cost + k, vcost);
  }
  if (k < k1) run_segment_portable(a, k, k1, n0, n1, rate);
}

#endif  // RLBLH_SIMD && __x86_64__

using SegmentFn = void (*)(const SegmentArgs&, std::size_t, std::size_t,
                           std::size_t, std::size_t, double);

SegmentFn resolve_segment_fn() {
#if defined(RLBLH_SIMD) && defined(__x86_64__) && defined(__GNUC__)
  if (__builtin_cpu_supports("avx2")) return run_segment_avx2;
#endif
  return run_segment_portable;
}

/// Resolved once per process; both choices compute bitwise-equal results
/// (batch_diff_proptests run against whichever this build selects).
const SegmentFn g_run_segment = resolve_segment_fn();

/// Interval-tile size for long segment runs. The kernels walk lanes
/// k-outer, so a run of R intervals touches R strided cache lines per lane
/// per array; tiling bounds the tile working set (kSegmentTile * width * 8
/// bytes per array, ~4 arrays) to L1 so successive lanes rehit the same
/// lines. Tiling is bitwise invisible: each lane still sees its intervals
/// in order, only with the register accumulators spilled and reloaded at
/// tile edges (loads of the exact values just stored).
constexpr std::size_t kSegmentTile = 32;

/// Runs [n0, n1) at constant rate through the resolved kernel, tiled.
void run_segment_tiled(const SegmentArgs& a, std::size_t n0, std::size_t n1,
                       double rate) {
  for (std::size_t n = n0; n < n1; n += kSegmentTile) {
    g_run_segment(a, 0, a.width, n, std::min(n1, n + kSegmentTile), rate);
  }
}

}  // namespace

const BatchDay& BatchEngine::run_day(std::span<TraceSource* const> sources,
                                     const TouSchedule& prices,
                                     BatteryLanes& batteries,
                                     std::span<BlhPolicy* const> policies) {
  const std::size_t width = batteries.width();
  RLBLH_REQUIRE(width >= 1, "BatchEngine: need at least one lane");
  RLBLH_REQUIRE(sources.size() == width && policies.size() == width,
                "BatchEngine: sources/policies must match the lane width");
  const std::size_t n_m = sources[0]->intervals();
  RLBLH_REQUIRE(prices.intervals() == n_m,
                "BatchEngine: price schedule length must match the day length");
  // The homogeneity checks back the lane-native protocol: the batched
  // policy entry points (fill_lanes, observe_lanes) run on lane 0, whose
  // native override may static_cast the peers to its own concrete type.
  const std::size_t pulse = policies[0]->pulse_width();
  RLBLH_REQUIRE(pulse > 0,
                "BatchEngine: policies must support the pulse-block protocol");
  const bool is_passthrough = policies[0]->passthrough();
  const std::string_view policy_name = policies[0]->name();
  for (std::size_t k = 1; k < width; ++k) {
    RLBLH_REQUIRE(policies[k]->name() == policy_name,
                  "BatchEngine: lanes must share one policy type");
    RLBLH_REQUIRE(policies[k]->pulse_width() == pulse,
                  "BatchEngine: lanes must share one pulse width");
    RLBLH_REQUIRE(policies[k]->passthrough() == is_passthrough,
                  "BatchEngine: lanes must share the passthrough mode");
    RLBLH_REQUIRE(sources[k]->intervals() == n_m,
                  "BatchEngine: lanes must share one day length");
    RLBLH_REQUIRE(typeid(*sources[k]) == typeid(*sources[0]),
                  "BatchEngine: lanes must share one trace source type");
  }

  BatchDay& day = scratch_;
  day.width = width;
  day.intervals = n_m;
  day.usage.resize(width * n_m);

  // Synthesis: one lane-native call fills the whole interval-major block.
  // The default writes each lane straight into its strided slot (its own
  // RNG, the exact scalar draw order — only the store addresses differ from
  // a contiguous day); native overrides may reorder the stores, never the
  // values. No engine-side staging buffer, no transpose; the observe path
  // reads the same layout back through strided lane views.
  sources[0]->next_days_into_lanes(sources, day.usage.data(), n_m);

  day.readings.resize(width * n_m);
  day.levels.resize(width * n_m);
  day.savings_cents.assign(width, 0.0);
  day.bill_cents.assign(width, 0.0);
  day.usage_cost_cents.assign(width, 0.0);
  day.battery_violations.assign(width, 0);
  block_y_.resize(width);

  for (std::size_t k = 0; k < width; ++k) policies[k]->begin_day(prices);

  RLBLH_OBS_NOW(blocks_start);
  const std::vector<PriceZone>& segments = prices.segments();
  SegmentArgs args{day.usage.data(),
                   day.readings.data(),
                   day.levels.data(),
                   block_y_.data(),
                   batteries.levels(),
                   day.battery_violations.data(),
                   day.savings_cents.data(),
                   day.bill_cents.data(),
                   day.usage_cost_cents.data(),
                   width,
                   batteries.capacity(),
                   batteries.charge_efficiency(),
                   batteries.discharge_efficiency()};
  double* y = block_y_.data();
  std::size_t seg = 0;
  std::size_t blocks = 0;
  for (std::size_t n0 = 0; n0 < n_m;) {
    const std::size_t block_width = std::min(pulse, n_m - n0);
    const std::size_t block_end = n0 + block_width;
    // One lane-native virtual call decides every lane's pulse height.
    policies[0]->fill_lanes(policies, n0, block_width, args.level, y);
    for (std::size_t k = 0; k < width; ++k) {
      RLBLH_REQUIRE(y[k] >= 0.0,
                    "BatchEngine: policy produced a negative reading");
    }
    std::size_t n = n0;
    if (is_passthrough) {
      // No battery transfer: the meter measures usage directly and every
      // lane's level holds for the whole block (SimEngine's passthrough
      // blocked path, widened).
      while (n < block_end) {
        while (segments[seg].end <= n) ++seg;
        const double rate = segments[seg].rate;
        const std::size_t run_end = std::min(block_end, segments[seg].end);
        // k-outer with register accumulators, interval-tiled like the
        // non-passthrough kernel; lanes never mix, so order is free.
        for (std::size_t t = n; t < run_end; t += kSegmentTile) {
          const std::size_t tile_end = std::min(run_end, t + kSegmentTile);
          for (std::size_t k = 0; k < width; ++k) {
            const double held_level = args.level[k];
            const double* x = args.usage + k;
            double* lv = args.levels + k;
            double* rd = args.readings + k;
            double savings = args.savings[k];
            double bill = args.bill[k];
            double cost = args.cost[k];
            for (std::size_t i = t; i < tile_end; ++i) {
              lv[i * width] = held_level;
              const double x_n = x[i * width];
              rd[i * width] = x_n;
              savings += rate * (x_n - x_n);
              bill += rate * x_n;
              cost += rate * x_n;
            }
            args.savings[k] = savings;
            args.bill[k] = bill;
            args.cost[k] = cost;
          }
        }
        n = run_end;
      }
    } else {
      while (n < block_end) {
        while (segments[seg].end <= n) ++seg;
        const double rate = segments[seg].rate;
        const std::size_t run_end = std::min(block_end, segments[seg].end);
        run_segment_tiled(args, n, run_end, rate);
        n = run_end;
      }
    }
    // One lane-native virtual call reports every lane's realized usage,
    // straight from the interval-major buffer (no per-lane copy).
    policies[0]->observe_lanes(
        policies, n0,
        LaneBlock{day.usage.data() + n0 * width, width, block_width});
    ++blocks;
    n0 = block_end;
  }
  for (std::size_t k = 0; k < width; ++k) policies[k]->end_day();

  std::size_t total_violations = 0;
  std::size_t* cumulative = batteries.violations();
  for (std::size_t k = 0; k < width; ++k) {
    total_violations += day.battery_violations[k];
    cumulative[k] += day.battery_violations[k];
  }

  RLBLH_OBS_COUNT("sim.blocks", blocks * width);
  RLBLH_OBS_COUNT_NS_SINCE("sim.block_ns", blocks_start);
  RLBLH_OBS_COUNT("sim.days", width);
  RLBLH_OBS_COUNT("sim.intervals", n_m * width);
  RLBLH_OBS_COUNT("sim.battery_violations", total_violations);
  RLBLH_OBS_COUNT("sim.batch_days", width);
  return day;
}

}  // namespace rlblh
