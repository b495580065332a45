// BatchEngine — W same-blueprint households simulated in lockstep as
// structure-of-arrays (DESIGN.md §14).
//
// The scalar SimEngine lays one household's day out at a time; at fleet
// scale the remaining cost is per-interval arithmetic that the compiler
// cannot vectorize across households. BatchEngine transposes the layout:
// usage, battery levels, meter readings and money accumulators all become
// contiguous W-wide lanes indexed [n * W + k] (interval-major) so the
// per-interval work of all W lanes is one vector op. Usage is synthesized
// straight into its interval-major slot through a strided TraceLane (no
// lane-major staging buffer, no daily transpose), and policies read it back
// through strided ConstTraceLane views — the whole day is one layout.
//
// The policy side is lane-native (core/policy.h): per block the engine
// makes ONE fill_lanes() and ONE observe_lanes() virtual call on lane 0
// with the full lane span, so a batch day costs O(n_M / n_D) virtual calls
// instead of O(W * n_M / n_D).
//
// Bit-identity contract: lane k of a batch day is bitwise equal to a
// scalar SimEngine::run_day of household k — same RNG draw order (each
// lane owns its source/policy with their own RNGs; per-lane call order
// inside a day is exactly the scalar order), same FP expression shapes and
// the same per-interval accumulation order per lane (lanes only ever
// combine along the vector dimension, never reassociate along time).
// tests/proptest/batch_diff_proptest.cc enforces this per lane against the
// scalar engine; the fleet layer relies on it to make batching invisible.
//
// Requirements: every lane must share one day geometry and one battery
// model, every policy must advertise the same name(), the same
// pulse_width() > 0 (policies without block support take the scalar engine
// instead), and the same passthrough mode — the name check is what lets a
// native fill_lanes/observe_lanes static_cast its peer lanes. Per-day
// invariant checking is not offered here — run the scalar engine when
// auditing.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "battery/battery.h"
#include "core/policy.h"
#include "meter/trace.h"
#include "pricing/tou.h"
#include "sim/day_result.h"

namespace rlblh {

/// One simulated day of W lockstep lanes, structure-of-arrays.
/// References returned by BatchEngine::run_day stay valid until the next
/// run_day call on that engine (all buffers are reused across days).
struct BatchDay {
  std::size_t width = 0;      ///< W, number of lanes
  std::size_t intervals = 0;  ///< n_M, measurement intervals per day

  /// Usage x_n, interval-major ([n * width + k]) — the only usage layout.
  std::vector<double> usage;
  /// Effective meter readings, interval-major.
  std::vector<double> readings;
  /// Battery level at the *start* of interval n, interval-major.
  std::vector<double> levels;

  std::vector<double> savings_cents;     ///< per lane: sum r_n (x_n - y_n)
  std::vector<double> bill_cents;        ///< per lane: sum r_n y_n
  std::vector<double> usage_cost_cents;  ///< per lane: sum r_n x_n
  std::vector<std::size_t> battery_violations;  ///< per lane, this day only

  /// Lane k's usage series as a strided read-only view.
  ConstTraceLane usage_lane(std::size_t k) const {
    return ConstTraceLane(usage.data() + k, width, intervals);
  }

  /// Lane k's effective meter readings as a strided read-only view.
  ConstTraceLane readings_lane(std::size_t k) const {
    return ConstTraceLane(readings.data() + k, width, intervals);
  }

  /// Copies lane k into a scalar day record (the evaluation path feeds
  /// per-lane accumulators with these). `out`'s buffers are reused.
  void extract_lane(std::size_t k, DayResult& out) const;
};

/// Runs days of W lockstep lanes over borrowed per-lane state.
class BatchEngine {
 public:
  /// Runs one full day for all lanes. `sources`, `policies` and the lanes
  /// of `batteries` are index-aligned, one entry per lane; all spans must
  /// have the same nonzero size as batteries.width(). The price schedule
  /// length must match the sources' day length. Returns the engine's
  /// reused SoA day record.
  const BatchDay& run_day(std::span<TraceSource* const> sources,
                          const TouSchedule& prices, BatteryLanes& batteries,
                          std::span<BlhPolicy* const> policies);

 private:
  BatchDay scratch_;
  std::vector<double> block_y_;  ///< per-lane pulse height of current block
};

}  // namespace rlblh
