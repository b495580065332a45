// Scenario assembly: from a spec string to a runnable experiment.
//
// A ScenarioSpec is the complete, serializable description of one run —
// which policy, household and pricing plan (by registry name), the shared
// geometry (battery, nd), the RNG seeds and the train/eval schedule:
//
//   policy=rlblh;household=weekday_heavy;pricing=tou2;battery=13.5;seed=7
//
// Dotted keys (`policy.alpha=0.01`, `household.scale=1.2`,
// `pricing.rate=11`) are routed to the named component's factory; every
// other key must be one of the top-level keys below. The spec round-trips
// through canonical(): parse(s.canonical()) describes the same run.
//
// Component construction goes through the per-family registries
// (policy_registry, household_registry, pricing_registry), so this is the
// single place that decides how the geometry is shared between them:
// the policy's parameter bag receives battery/nd/seed before the dotted
// `policy.*` overrides, the trace source is seeded with the household seed
// (hseed, default seed + 1000 — the convention simulate_cli has always
// used), and the battery starts at half charge.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "battery/battery.h"
#include "core/policy.h"
#include "core/registry.h"
#include "meter/household.h"
#include "meter/trace.h"
#include "pricing/tou.h"
#include "sim/batch_engine.h"
#include "sim/engine.h"
#include "sim/experiment.h"
#include "sim/simulator.h"

namespace rlblh {

/// Parsed scenario description. Field defaults mirror simulate_cli's
/// historical defaults, so an empty spec is the paper's small smoke run.
struct ScenarioSpec {
  std::string policy = "rlblh";       ///< policy registry name
  std::string household = "default";  ///< household registry name (or csv)
  std::string pricing = "srp";        ///< pricing registry name
  double battery_kwh = 5.0;           ///< b_M; battery starts at b_M / 2
  std::size_t nd = 15;                ///< n_D, minutes per decision interval
  std::uint64_t seed = 7;             ///< policy/exploration seed
  std::optional<std::uint64_t> hseed; ///< household seed; default seed + 1000
  std::size_t train_days = 30;        ///< days run before measurement
  std::size_t eval_days = 30;         ///< days over which metrics accumulate
  std::size_t mi_levels = 8;          ///< MI quantization levels

  SpecParams policy_params;     ///< dotted `policy.*` slice
  SpecParams household_params;  ///< dotted `household.*` slice
  SpecParams pricing_params;    ///< dotted `pricing.*` slice

  /// Effective household/trace seed.
  std::uint64_t household_seed() const { return hseed.value_or(seed + 1000); }

  /// Parses the `k=v;k2=v2` grammar. Unknown top-level keys and unknown
  /// dotted prefixes raise ConfigError.
  static ScenarioSpec parse(const std::string& spec);

  /// Canonical spec string: parse(canonical()) describes the same run.
  /// hseed is printed only when it was set explicitly, preserving the
  /// seed + 1000 coupling under seed changes.
  std::string canonical() const;
};

/// The spec's price schedule, via the pricing registry.
TouSchedule make_scenario_pricing(const ScenarioSpec& spec);

/// The spec's trace source, via the household registry, seeded with the
/// household seed.
std::unique_ptr<TraceSource> make_scenario_source(const ScenarioSpec& spec);

/// The spec's policy, via the policy registry, with the shared geometry
/// (battery, nd, seed) merged into the parameter bag before the dotted
/// `policy.*` overrides (so `policy.seed=...` wins over the top-level seed).
std::unique_ptr<BlhPolicy> make_scenario_policy(const ScenarioSpec& spec);

/// Pre-trains policies that need an offline usage model before they can act
/// (the mdp baseline): feeds max(train_days, 1) days drawn from an
/// independent trainer stream — derive_stream_seed(household_seed(), 1), so
/// the model never consumes the evaluation household's own days — then
/// solves. No-op for every online policy.
void pretrain_if_needed(const ScenarioSpec& spec, const TouSchedule& prices,
                        BlhPolicy& policy);

/// A fully assembled scenario: the spec plus its live components. Movable;
/// the policy outlives the simulator runs that borrow it.
struct Scenario {
  ScenarioSpec spec;
  std::unique_ptr<BlhPolicy> policy;
  Simulator simulator;

  /// The policy downcast to a concrete type (nullptr when it is not one),
  /// for callers needing policy-specific hooks (weights I/O, day stats).
  template <typename T>
  T* policy_as() {
    return dynamic_cast<T*>(policy.get());
  }
};

/// Builds the scenario's components through the registries.
Scenario build_scenario(const ScenarioSpec& spec);

/// Runs the spec's full schedule on an assembled scenario: offline
/// pre-training when needed, train_days of (online-learning) days, then
/// eval_days accumulated into the paper's metrics.
EvaluationResult run_scenario(Scenario& scenario);

/// As run_scenario, but constructs every per-run component itself and
/// borrows the price schedule — the fleet path, where one immutable
/// TouSchedule is shared by every household on the same plan. Bitwise
/// equivalent to build_scenario + run_scenario for the same spec.
EvaluationResult run_spec(const ScenarioSpec& spec, const TouSchedule& prices);

/// The seed-independent part of a spec, resolved once and shared by every
/// household that runs the same spec text (fleets repeat a handful of spec
/// blueprints across thousands of households, so registry lookup, preset
/// construction and geometry merging must not be per-household work).
struct ScenarioBlueprint {
  /// Resolved household preset with `household.*` overrides applied;
  /// nullopt for csv replay, which has no synthetic config (csv runs fall
  /// back to the registry factory, which ignores the seed anyway).
  std::optional<HouseholdConfig> household;
  /// Policy parameter bag with the shared geometry (battery, nd) and the
  /// dotted `policy.*` overrides merged. The `seed` entry is a placeholder
  /// unless the spec pinned it via `policy.seed=...`.
  SpecParams policy_bag;
  /// True when `policy.seed` was given explicitly — the per-household
  /// policy seed must NOT overwrite it (matching make_scenario_policy's
  /// merge order, where dotted overrides win over the top-level seed).
  bool policy_seed_pinned = false;
};

/// Resolves the spec's seed-independent state. Pure function of the spec's
/// non-seed fields: two specs differing only in seed/hseed share one
/// blueprint.
ScenarioBlueprint make_scenario_blueprint(const ScenarioSpec& spec);

/// The blueprint's trace source for one household seed. Bitwise equivalent
/// to make_trace_source(spec.household, spec.household_params, hseed).
std::unique_ptr<TraceSource> make_blueprint_source(const ScenarioSpec& spec,
                                                   const ScenarioBlueprint& bp,
                                                   std::uint64_t hseed);

/// Reusable per-worker scratch for repeated run_spec/run_blueprint calls:
/// the SimEngine (whose day buffers persist across households) and the
/// EvaluationAccumulator (reset between households). One arena serves one
/// worker thread; runs borrow it sequentially. Every buffer handed out is
/// either fully overwritten per day (engine scratch) or reset to
/// fresh-constructed state per run (accumulator), so reuse cannot leak
/// state between households — the chunking-invariance proptests pin this.
class RunArena {
 public:
  /// The arena's engine. Day buffers are reused across calls; SimEngine's
  /// contract is that every slot is rewritten each day.
  SimEngine& engine() { return engine_; }

  /// An accumulator reset for the given geometry: fresh state.
  EvaluationAccumulator& accumulator(std::size_t intervals,
                                     std::size_t mi_levels, double usage_cap);

  /// The arena's lockstep batch engine (SoA day buffers reused across
  /// batches, like the scalar engine's scratch).
  BatchEngine& batch_engine() { return batch_engine_; }

  /// The arena's SoA battery state; run_blueprint_batch resets it per batch.
  BatteryLanes& battery_lanes() { return battery_lanes_; }

  /// Lane `lane`'s accumulator, reset for the given geometry. A batched run
  /// holds one accumulator per lane live at once; each stores its MI pair
  /// codes, ~5.6 KB per evaluation day at 1440 intervals.
  EvaluationAccumulator& lane_accumulator(std::size_t lane,
                                          std::size_t intervals,
                                          std::size_t mi_levels,
                                          double usage_cap);

 private:
  SimEngine engine_;
  std::optional<EvaluationAccumulator> accumulator_;
  BatchEngine batch_engine_;
  BatteryLanes battery_lanes_;
  std::vector<std::unique_ptr<EvaluationAccumulator>> lane_accumulators_;
};

/// Runs one household from a resolved blueprint: the blueprint supplies the
/// spec-shared state, `policy_seed`/`household_seed` the per-household RNG
/// streams, and `arena` the reusable scratch. Bitwise equivalent to
/// run_spec on the spec with seed = policy_seed and hseed = household_seed.
EvaluationResult run_blueprint(const ScenarioSpec& spec,
                               const ScenarioBlueprint& bp,
                               const TouSchedule& prices,
                               std::uint64_t policy_seed,
                               std::uint64_t household_seed, RunArena& arena);

/// run_spec reusing a caller-owned arena instead of per-call scratch.
EvaluationResult run_spec(const ScenarioSpec& spec, const TouSchedule& prices,
                          RunArena& arena);

/// Runs W households of one blueprint in lockstep through the arena's
/// BatchEngine: `policy_seeds`, `household_seeds` and `out` are
/// index-aligned, one lane per household, all of size W >= 1. out[k] is
/// bitwise equal to run_blueprint(spec, bp, prices, policy_seeds[k],
/// household_seeds[k], arena) — the batch engine's lane contract plus
/// per-lane accumulators make batching an execution detail, which is what
/// lets the fleet group same-blueprint households freely. Policies without
/// pulse-block support (pulse_width() == 0) fall back to per-lane scalar
/// runs through the same code path run_blueprint uses.
void run_blueprint_batch(const ScenarioSpec& spec, const ScenarioBlueprint& bp,
                         const TouSchedule& prices,
                         std::span<const std::uint64_t> policy_seeds,
                         std::span<const std::uint64_t> household_seeds,
                         RunArena& arena, std::span<EvaluationResult> out);

}  // namespace rlblh
