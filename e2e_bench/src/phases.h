// The two halves of every workload: a batch fleet job and an open-loop
// serving run against an in-process daemon.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common.h"
#include "sim/experiment.h"

namespace e2e {

/// A fleet job: households cycle through `mixes` (ScenarioSpec strings).
struct FleetShape {
  std::string name;
  std::vector<std::string> mixes;
  std::size_t households = 0;
  std::size_t train_days = 0;
  std::size_t eval_days = 0;
  std::size_t rounds = 1;  ///< fleet runs per process, each its own seed
  /// Traced replay covers households h with h % trace_stride == 0. A
  /// stride coprime with the mix count samples every mix evenly.
  std::size_t trace_stride = 1;
};

/// Open-loop traffic against the daemon.
struct ServeShape {
  std::string name;
  std::vector<std::string> blueprints;  ///< household h runs h % size
  std::size_t households = 0;
  /// Midnight shape: readings per frame (the stream shape sends one).
  std::size_t frame_intervals = 0;
  /// Midnight shape: seconds per compressed hour slot; every household's
  /// day-closing frame falls in the last slot of the day. 0 = stream shape.
  double slot_s = 0.0;
  std::size_t days = 0;  ///< midnight shape: days per household
  /// Stream shape: offered frames/s over all households (day phases are
  /// staggered so day closes spread evenly), and frames per household.
  double stream_rate = 0.0;
  std::size_t stream_frames = 0;
  /// Saturation bursts timed for throughput (traced runs), each one day of
  /// every household sent at once.
  std::size_t bursts = 8;
  std::size_t trace_stride = 1;  ///< offline traced replay subset
};

struct PhaseContext {
  std::uint64_t seed = 1;
  bool trace = false;
  std::size_t threads = 1;   ///< worker threads / client connections cap
  std::string work_dir;      ///< working directory inside the checkout
};

/// Each phase appends its metrics and verdicts to `out` and returns its
/// set-up seconds (median over kSetupReps repetitions).
double run_fleet_phase(const FleetShape& shape, const PhaseContext& ctx,
                       Outcome& out);
double run_serve_phase(const ServeShape& shape, const PhaseContext& ctx,
                       Outcome& out);

// --- output oracles (exposed for the self-tests) -----------------------

/// Bitwise equality of two evaluation results (every field).
bool same_result(const rlblh::EvaluationResult& a,
                 const rlblh::EvaluationResult& b);

/// Byte equality of a checkpoint file with an expected serialization;
/// returns an empty string when equal, else a short description.
std::string compare_checkpoint(const std::string& path,
                               const std::string& expected);

/// Bitwise equality of two doubles (NaN-safe, distinguishes -0.0).
bool same_bits(double a, double b);

}  // namespace e2e
