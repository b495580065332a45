// Fleet-scale simulation: N heterogeneous households batched over threads.
//
// A fleet is a vector of ScenarioSpecs — one per household, freely mixing
// policies, household presets and pricing plans. FleetSimulator batches
// households into chunks of K (one SweepRunner cell per chunk, not per
// household), runs every household's full train/eval schedule, and reports
// per-household EvaluationResults plus fleet aggregates (mean / p50 / p95
// of SR, CC and MI).
//
// Chunked execution exists because per-household fixed cost used to drown
// the day loop at fleet scale: each cell leases a RunArena whose SimEngine
// day buffers and EvaluationAccumulator are reused across the chunk's
// households, and the seed-independent parts of each distinct spec — the
// resolved household preset and the policy parameter bag
// (ScenarioBlueprint), plus the price schedule — are resolved once before
// the fan-out and shared read-only by every cell.
//
// Determinism contract (same as SweepRunner's, extended to chunking):
// results are bitwise identical across thread counts AND chunk sizes. Each
// household is a pure function of (its spec blueprint, the shared price
// schedule, its RNG streams): streams are splitmix-derived from
// (fleet_seed, household index) — never from chunk geometry — and arena
// reuse is invisible because every leased buffer is either fully rewritten
// per day (engine scratch) or reset to fresh-constructed state per
// household (accumulator). Chunk results are collected and folded in grid
// order on the calling thread.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "sim/experiment.h"
#include "sim/scenario.h"

namespace rlblh {

/// Execution knobs for a fleet run.
struct FleetOptions {
  /// Worker count; 0 resolves to ThreadPool::default_thread_count().
  std::size_t threads = 0;
  /// Households per work unit; 0 picks a size targeting ~16 chunks per
  /// worker (capped at 4096) so stragglers rebalance. Any value produces
  /// bitwise-identical results — chunking is an execution detail.
  std::size_t chunk = 0;
  /// When false, FleetResult::households stays empty and only the
  /// aggregates are produced — the memory-lean mode for very large fleets
  /// (no O(N) result vector survives the run).
  bool keep_households = true;
  /// Lockstep batch width W: within a chunk, households sharing a blueprint
  /// are grouped into batches of exactly W and run through the SoA
  /// BatchEngine; the remainder (and any width <= 1) takes the scalar
  /// engine. Bitwise invisible — every width produces identical results;
  /// each lane holds its own EvaluationAccumulator. Defaults to 0 (scalar).
  std::size_t batch_width = 0;
};

/// Mean and percentiles of one metric over the fleet's households.
struct MetricSummary {
  double mean = 0.0;
  double p50 = 0.0;
  double p95 = 0.0;
};

/// Outcome of one fleet run.
struct FleetResult {
  /// Per-household evaluation, index-aligned with the fleet's specs.
  /// Empty when FleetOptions::keep_households is false.
  std::vector<EvaluationResult> households;
  MetricSummary saving_ratio;
  MetricSummary mean_cc;
  MetricSummary normalized_mi;
  /// Total battery clipping events over all households' eval windows.
  std::size_t battery_violations = 0;
};

/// Linear-interpolation quantile of `values` at q in [0, 1] (sorts a copy;
/// the deterministic definition the fleet aggregates use). Requires a
/// nonempty input of finite values; a single value is every quantile of
/// itself.
double fleet_quantile(std::vector<double> values, double q);

/// Runs a heterogeneous batch of scenarios with per-household RNG streams.
class FleetSimulator {
 public:
  /// Takes the household specs by value. The specs' own seed fields are
  /// treated as placeholders: run() re-seeds every household from
  /// (fleet_seed, index) so fleets are reproducible from one number.
  explicit FleetSimulator(std::vector<ScenarioSpec> specs,
                          FleetOptions options = {});

  /// Household specs as given (seeds unresolved).
  const std::vector<ScenarioSpec>& specs() const { return specs_; }

  /// Number of households.
  std::size_t size() const { return specs_.size(); }

  /// The spec household `index` actually runs under `fleet_seed`: the given
  /// spec with its policy seed and household seed replaced by the derived
  /// per-household streams. Exposed so tests can reproduce any single
  /// household through the plain Simulator path.
  static ScenarioSpec resolved_spec(ScenarioSpec spec,
                                    std::uint64_t fleet_seed,
                                    std::size_t index);

  /// Runs every household's full schedule and aggregates. Bitwise
  /// deterministic in (specs, fleet_seed) regardless of thread count or
  /// chunk size.
  FleetResult run(std::uint64_t fleet_seed);

 private:
  std::vector<ScenarioSpec> specs_;
  FleetOptions options_;
};

}  // namespace rlblh
