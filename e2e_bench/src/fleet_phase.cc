// Fleet half of a workload.
//
// Untraced: set-up (spec vector + FleetSimulator constructor) is timed
// kSetupReps times, then a fixed number of fleet rounds run through
// FleetSimulator, each under its own seed derived from --seed. Traced: a deterministic subset of households is
// replayed single-threaded twice — once through run_blueprint (the fleet's
// own per-household entry point, untimed inside) and once through the same
// pipeline rebuilt from public factories with decorated trace sources and
// policies — and both must reproduce the timed run's entries bitwise.
#include <cstring>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "baselines/policy_registry.h"
#include "core/rlblh_policy.h"
#include "phases.h"
#include "sim/fleet.h"
#include "sim/scenario.h"
#include "util/rng.h"

namespace e2e {

using rlblh::BlhPolicy;
using rlblh::ConstTraceLane;
using rlblh::DayTrace;
using rlblh::EvaluationResult;
using rlblh::ScenarioSpec;
using rlblh::TouSchedule;
using rlblh::TraceSource;

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

bool same_result(const EvaluationResult& a, const EvaluationResult& b) {
  return same_bits(a.saving_ratio, b.saving_ratio) &&
         same_bits(a.mean_cc, b.mean_cc) &&
         same_bits(a.normalized_mi, b.normalized_mi) &&
         same_bits(a.mean_daily_savings_cents, b.mean_daily_savings_cents) &&
         same_bits(a.mean_daily_bill_cents, b.mean_daily_bill_cents) &&
         same_bits(a.mean_daily_usage_cost_cents,
                   b.mean_daily_usage_cost_cents) &&
         a.battery_violations == b.battery_violations;
}

namespace {

/// Times next_day/next_day_into of the wrapped source as `meter`.
class TracedSource final : public TraceSource {
 public:
  TracedSource(TraceSource& inner, Tracer& tracer)
      : inner_(inner), tracer_(tracer) {}
  DayTrace next_day() override {
    Tracer::Span span(tracer_, Layer::kMeter);
    return inner_.next_day();
  }
  void next_day_into(DayTrace& out) override {
    Tracer::Span span(tracer_, Layer::kMeter);
    inner_.next_day_into(out);
  }
  std::size_t intervals() const override { return inner_.intervals(); }
  double usage_cap() const override { return inner_.usage_cap(); }

 private:
  TraceSource& inner_;
  Tracer& tracer_;
};

/// Times every policy call as `core`, except an RL policy's end_day (its
/// outer-loop virtual training), which is `rl`.
class TracedPolicy final : public BlhPolicy {
 public:
  TracedPolicy(BlhPolicy& inner, Tracer& tracer)
      : inner_(inner),
        tracer_(tracer),
        end_day_layer_(dynamic_cast<rlblh::RlBlhPolicy*>(&inner) != nullptr
                           ? Layer::kRl
                           : Layer::kCore) {}

  void begin_day(const TouSchedule& prices) override {
    Tracer::Span span(tracer_, Layer::kCore);
    inner_.begin_day(prices);
  }
  double reading(std::size_t n, double level) override {
    Tracer::Span span(tracer_, Layer::kCore);
    return inner_.reading(n, level);
  }
  void observe_usage(std::size_t n, double usage) override {
    Tracer::Span span(tracer_, Layer::kCore);
    inner_.observe_usage(n, usage);
  }
  void end_day() override {
    Tracer::Span span(tracer_, end_day_layer_);
    inner_.end_day();
  }
  std::size_t pulse_width() const override { return inner_.pulse_width(); }
  double fill_block(std::size_t n0, std::size_t width, double level) override {
    Tracer::Span span(tracer_, Layer::kCore);
    return inner_.fill_block(n0, width, level);
  }
  void observe_block(std::size_t n0, ConstTraceLane usage) override {
    Tracer::Span span(tracer_, Layer::kCore);
    inner_.observe_block(n0, usage);
  }
  std::string_view name() const override { return inner_.name(); }
  bool passthrough() const override { return inner_.passthrough(); }

 private:
  BlhPolicy& inner_;
  Tracer& tracer_;
  Layer end_day_layer_;
};

std::vector<ScenarioSpec> build_specs(const FleetShape& shape) {
  std::vector<ScenarioSpec> mixes;
  for (const std::string& text : shape.mixes) {
    ScenarioSpec spec = ScenarioSpec::parse(text);
    spec.train_days = shape.train_days;
    spec.eval_days = shape.eval_days;
    mixes.push_back(std::move(spec));
  }
  std::vector<ScenarioSpec> specs;
  specs.reserve(shape.households);
  for (std::size_t h = 0; h < shape.households; ++h) {
    specs.push_back(mixes[h % mixes.size()]);
  }
  return specs;
}

struct TracedCounts {
  std::size_t households = 0;
  std::size_t blueprints = 0;
  std::size_t rl_real_days = 0;
  std::size_t virtual_days = 0;
};

/// One household through run_blueprint's pipeline, rebuilt from public
/// factories with every layer call timed.
EvaluationResult traced_household(
    const ScenarioSpec& spec, const rlblh::ScenarioBlueprint& bp,
    const TouSchedule& prices, std::uint64_t fleet_seed, std::size_t index,
    Tracer& tracer, rlblh::SimEngine& engine,
    std::optional<rlblh::EvaluationAccumulator>& accumulator,
    TracedCounts& counts) {
  const ScenarioSpec resolved =
      rlblh::FleetSimulator::resolved_spec(spec, fleet_seed, index);
  std::unique_ptr<TraceSource> source;
  std::unique_ptr<BlhPolicy> policy;
  {
    Tracer::Span span(tracer, Layer::kScenarioBuild);
    source = rlblh::make_blueprint_source(spec, bp, resolved.household_seed());
    rlblh::SpecParams bag = bp.policy_bag;
    if (!bp.policy_seed_pinned) bag.set("seed", resolved.seed);
    policy = rlblh::make_policy(spec.policy, bag);
  }
  {
    Tracer::Span span(tracer, Layer::kPretrain);
    rlblh::pretrain_if_needed(resolved, prices, *policy);
  }
  TracedSource traced_source(*source, tracer);
  TracedPolicy traced_policy(*policy, tracer);
  rlblh::Battery battery(spec.battery_kwh, spec.battery_kwh / 2.0);
  for (std::size_t d = 0; d < spec.train_days; ++d) {
    Tracer::Span span(tracer, Layer::kSimDay);
    engine.run_day(traced_source, prices, battery, traced_policy);
  }
  {
    Tracer::Span span(tracer, Layer::kPrivacyReset);
    if (accumulator.has_value()) {
      accumulator->reset(source->intervals(), spec.mi_levels,
                         source->usage_cap());
    } else {
      accumulator.emplace(source->intervals(), spec.mi_levels,
                          source->usage_cap());
    }
  }
  for (std::size_t d = 0; d < spec.eval_days; ++d) {
    const rlblh::DayResult* day = nullptr;
    {
      Tracer::Span span(tracer, Layer::kSimDay);
      day = &engine.run_day(traced_source, prices, battery, traced_policy);
    }
    Tracer::Span span(tracer, Layer::kPrivacyObserve);
    accumulator->observe_day(*day, prices);
  }
  EvaluationResult result;
  {
    Tracer::Span span(tracer, Layer::kPrivacyQuery);
    result = accumulator->result();
  }
  ++counts.households;
  if (auto* rl = dynamic_cast<rlblh::RlBlhPolicy*>(policy.get())) {
    counts.rl_real_days += rl->days_completed();
    counts.virtual_days += rl->episodes_completed() - rl->days_completed();
  }
  return result;
}

void put(Metrics& m, const std::string& name, double value, const char* unit) {
  m[name] = Metric{value, unit};
}

double per(double total, std::size_t count) {
  return count == 0 ? 0.0 : total / static_cast<double>(count);
}

}  // namespace

double run_fleet_phase(const FleetShape& shape, const PhaseContext& ctx,
                       Outcome& out) {
  char line[200];
  // --- set-up: spec vector plus FleetSimulator constructor, repeated -----
  std::vector<double> setups;
  for (std::size_t rep = 0; rep < kSetupReps; ++rep) {
    const std::int64_t t0 = now_ns();
    rlblh::FleetSimulator fleet(build_specs(shape),
                                rlblh::FleetOptions{ctx.threads});
    setups.push_back(seconds_since(t0));
  }
  // --- untraced rounds -------------------------------------------------
  // Each round is a fresh fleet under its own seed, derived from --seed, so
  // the quality means cover rounds x households households while staying
  // deterministic per seed. The replays below check round 0.
  std::vector<double> rates;
  std::vector<double> walls;
  rlblh::FleetResult first;
  double sr = 0.0, cc = 0.0, mi = 0.0;
  const std::uint64_t seed0 = rlblh::derive_stream_seed(ctx.seed, 0);
  for (std::size_t round = 0; round < shape.rounds; ++round) {
    // peak_rss_mb is the first round's peak: it runs in a process that has
    // run no fleet yet, as a user's one fleet would. Later rounds' peaks,
    // and the serving phase's, varied by 20-30% from run to run with the
    // heap the earlier work left, trimmed or not.
    if (round == 0) reset_peak_rss();
    rlblh::FleetSimulator fleet(build_specs(shape),
                                rlblh::FleetOptions{ctx.threads});
    const std::int64_t t1 = now_ns();
    rlblh::FleetResult result =
        fleet.run(rlblh::derive_stream_seed(ctx.seed, round));
    const double wall = seconds_since(t1);
    walls.push_back(wall);
    rates.push_back(
        static_cast<double>(shape.households *
                            (shape.train_days + shape.eval_days)) /
        wall);
    out.attempted += shape.households;
    sr += result.saving_ratio.mean / static_cast<double>(shape.rounds);
    cc += result.mean_cc.mean / static_cast<double>(shape.rounds);
    mi += result.normalized_mi.mean / static_cast<double>(shape.rounds);
    if (round == 0) {
      put(out.end_to_end, "peak_rss_mb", peak_rss_mb(), "MB");
      first = std::move(result);
    }
  }
  const double fleet_wall = median(walls);
  std::snprintf(line, sizeof line,
                "fleet %s: %zu rounds of %zu households x %zu+%zu days, "
                "median wall %.3f s on %zu threads",
                shape.name.c_str(), shape.rounds, shape.households,
                shape.train_days, shape.eval_days, fleet_wall, ctx.threads);
  out.notes.emplace_back(line);
  std::string round_rates = "  household-days/s per round:";
  for (double r : rates) {
    round_rates += ' ';
    round_rates += std::to_string(std::lround(r));
  }
  out.notes.push_back(round_rates);
  put(out.end_to_end, "fleet_household_days_per_s", median(rates), "1/s");
  put(out.end_to_end, "saving_ratio", sr, "ratio");
  put(out.end_to_end, "mean_cc", cc, "ratio");
  put(out.end_to_end, "normalized_mi", mi, "ratio");
  for (double v : {sr, cc, mi}) {
    if (!std::isfinite(v)) out.fail("fleet aggregate is not finite");
  }

  // --- replays of the traced subset ------------------------------------
  // One household per mix through run_blueprint in every mode (a cheap
  // oracle for untraced runs); the whole stride subset when tracing.
  const std::vector<ScenarioSpec> specs = build_specs(shape);
  std::map<std::string, TouSchedule> plans;
  std::map<std::string, rlblh::ScenarioBlueprint> blueprints;
  auto plan_for = [&](const ScenarioSpec& spec) -> const TouSchedule& {
    const std::string key = spec.pricing + "|" + spec.pricing_params.canonical();
    auto it = plans.find(key);
    if (it == plans.end()) {
      it = plans.emplace(key, rlblh::make_scenario_pricing(spec)).first;
    }
    return it->second;
  };
  std::vector<std::size_t> subset;
  const std::size_t stride = ctx.trace ? shape.trace_stride : 1;
  const std::size_t limit = ctx.trace ? shape.households : shape.mixes.size();
  for (std::size_t h = 0; h < std::min(limit, shape.households); h += stride) {
    subset.push_back(h);
  }

  // Each subset household runs untraced through run_blueprint (the fleet's
  // own per-household entry point) and, when tracing, again through the
  // decorated pipeline; the two alternate which goes first so neither side
  // systematically gets the warmer caches.
  rlblh::RunArena arena;
  std::map<std::string, rlblh::ScenarioBlueprint> plain_blueprints;
  Tracer tracer;
  rlblh::SimEngine engine;
  std::optional<rlblh::EvaluationAccumulator> accumulator;
  TracedCounts counts;
  std::int64_t plain_ns = 0;
  std::int64_t traced_ns = 0;
  auto blueprint_key = [](ScenarioSpec spec) {
    spec.seed = 0;
    spec.hseed.reset();
    return spec.canonical();
  };
  auto replay_plain = [&](std::size_t h) {
    const std::int64_t t0 = now_ns();
    const ScenarioSpec& spec = specs[h];
    auto it = plain_blueprints.find(blueprint_key(spec));
    if (it == plain_blueprints.end()) {
      it = plain_blueprints
               .emplace(blueprint_key(spec), rlblh::make_scenario_blueprint(spec))
               .first;
    }
    const std::uint64_t base = rlblh::derive_stream_seed(seed0, h);
    const EvaluationResult r = rlblh::run_blueprint(
        spec, it->second, plan_for(spec), rlblh::derive_stream_seed(base, 0),
        rlblh::derive_stream_seed(base, 1), arena);
    plain_ns += now_ns() - t0;
    ++out.attempted;
    if (!same_result(r, first.households[h])) {
      out.fail("run_blueprint replay of household " + std::to_string(h) +
               " differs from the fleet run");
    }
  };
  auto replay_traced = [&](std::size_t h) {
    const std::int64_t t0 = now_ns();
    const ScenarioSpec& spec = specs[h];
    auto it = blueprints.find(blueprint_key(spec));
    if (it == blueprints.end()) {
      Tracer::Span span(tracer, Layer::kScenarioBlueprint);
      it = blueprints
               .emplace(blueprint_key(spec), rlblh::make_scenario_blueprint(spec))
               .first;
      ++counts.blueprints;
    }
    const EvaluationResult r =
        traced_household(spec, it->second, plan_for(spec), seed0, h,
                         tracer, engine, accumulator, counts);
    traced_ns += now_ns() - t0;
    ++out.attempted;
    if (!same_result(r, first.households[h])) {
      out.fail("traced replay of household " + std::to_string(h) +
               " differs from the fleet run");
    }
  };
  for (std::size_t k = 0; k < subset.size(); ++k) {
    if (!ctx.trace) {
      replay_plain(subset[k]);
    } else if (k % 2 == 0) {
      replay_plain(subset[k]);
      replay_traced(subset[k]);
    } else {
      replay_traced(subset[k]);
      replay_plain(subset[k]);
    }
  }
  if (!ctx.trace) return median(setups);

  const std::vector<Layer> layers = {
      Layer::kScenarioBlueprint, Layer::kScenarioBuild, Layer::kPretrain,
      Layer::kMeter,          Layer::kCore,           Layer::kRl,
      Layer::kSimDay,         Layer::kPrivacyObserve, Layer::kPrivacyQuery,
      Layer::kPrivacyReset};
  std::snprintf(line, sizeof line, "fleet %s traced subset (every %zu-th, %zu households)",
                shape.name.c_str(), shape.trace_stride, subset.size());
  print_layer_table(line, tracer, layers, traced_ns, out.notes);

  auto self_ms = [&](Layer l) {
    return static_cast<double>(tracer.row(l).self_ns()) * 1e-6;
  };
  auto calls = [&](Layer l) { return tracer.row(l).calls; };
  Metrics& m = out.per_layer;
  put(m, "meter.synth_days", static_cast<double>(calls(Layer::kMeter)),
      "count");
  put(m, "meter.synth_us_per_day",
      per(self_ms(Layer::kMeter) * 1e3, calls(Layer::kMeter)), "us");
  put(m, "core.block_calls", static_cast<double>(calls(Layer::kCore)),
      "count");
  put(m, "core.block_ns_per_call",
      per(self_ms(Layer::kCore) * 1e6, calls(Layer::kCore)), "ns");
  put(m, "rl.virtual_days", static_cast<double>(counts.virtual_days), "count");
  put(m, "rl.virtual_per_real_day",
      per(static_cast<double>(counts.virtual_days), counts.rl_real_days),
      "ratio");
  put(m, "rl.end_day_ms", per(self_ms(Layer::kRl), calls(Layer::kRl)), "ms");
  put(m, "rl.virtual_day_us",
      per(self_ms(Layer::kRl) * 1e3, counts.virtual_days), "us");
  put(m, "baselines.pretrain_ms", self_ms(Layer::kPretrain), "ms");
  put(m, "scenario.blueprint_us",
      per(self_ms(Layer::kScenarioBlueprint) * 1e3, counts.blueprints), "us");
  put(m, "scenario.household_build_us",
      per(self_ms(Layer::kScenarioBuild) * 1e3, counts.households), "us");
  put(m, "sim.days", static_cast<double>(calls(Layer::kSimDay)), "count");
  put(m, "sim.day_self_us",
      per(self_ms(Layer::kSimDay) * 1e3, calls(Layer::kSimDay)), "us");
  put(m, "privacy.observe_us_per_day",
      per(self_ms(Layer::kPrivacyObserve) * 1e3, calls(Layer::kPrivacyObserve)),
      "us");
  put(m, "privacy.query_ms",
      per(self_ms(Layer::kPrivacyQuery), calls(Layer::kPrivacyQuery)), "ms");
  put(m, "privacy.reset_us",
      per(self_ms(Layer::kPrivacyReset) * 1e3, calls(Layer::kPrivacyReset)),
      "us");
  // Busy time of the whole fleet, estimated from a single-threaded fleet
  // of the subset's specs, against the threads x wall the timed run had.
  std::vector<ScenarioSpec> subset_specs;
  for (std::size_t h : subset) subset_specs.push_back(specs[h]);
  rlblh::FleetSimulator single(std::move(subset_specs),
                               rlblh::FleetOptions{1});
  const std::int64_t single_start = now_ns();
  single.run(seed0);
  const double busy_s = seconds_since(single_start) *
                        static_cast<double>(shape.households) /
                        static_cast<double>(subset.size());
  put(m, "fleet.parallel_efficiency",
      busy_s / (fleet_wall * static_cast<double>(ctx.threads)), "ratio");
  put(m, "fleet.coverage",
      static_cast<double>(tracer.covered_ns()) / static_cast<double>(traced_ns),
      "ratio");
  put(m, "fleet.trace_overhead_share",
      static_cast<double>(traced_ns - plain_ns) / static_cast<double>(plain_ns),
      "ratio");
  return median(setups);
}

}  // namespace e2e
