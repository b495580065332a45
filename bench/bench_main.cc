#include "bench_main.h"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "obs/json_writer.h"
#include "obs/manifest.h"
#include "obs/metrics.h"
#include "obs/metrics_dump.h"
#include "obs/obs.h"
#include "obs/trace.h"

namespace rlblh::bench {

BenchContext::BenchContext(SweepOptions sweep_options, bool quick,
                           std::vector<char*> passthrough)
    : sweep_(sweep_options), quick_(quick), args_(std::move(passthrough)) {}

void BenchContext::metric(const std::string& key, double value) {
  metrics_.emplace_back(key, value);
}

namespace {

void print_usage(const char* program) {
  std::printf(
      "usage: %s [--threads N] [--quick] [--out PATH] [--no-json]\n"
      "          [--obs] [--obs-out PATH]\n"
      "  --threads N   sweep worker threads (default: RLBLH_THREADS env or "
      "hardware)\n"
      "  --quick       reduced day counts for CI smoke runs\n"
      "  --out PATH    JSON record path (default: BENCH_<name>.json)\n"
      "  --no-json     do not write the JSON record\n"
      "  --obs         record metrics + spans, write RUN_<name>.json and\n"
      "                print the metrics_dump tables (also enabled by a\n"
      "                non-empty RLBLH_OBS_OUT environment variable)\n"
      "  --obs-out P   manifest path (implies --obs; default: RLBLH_OBS_OUT\n"
      "                env or RUN_<name>.json)\n"
      "unrecognized arguments are passed through to the bench body.\n",
      program);
}

/// The "obs" sub-object embedded into BENCH_<name>.json when recording:
/// counters and gauges verbatim, histograms as summary statistics. Timing
/// values vary run to run, which is why this lives beside — never inside —
/// the deterministic "metrics" object the regression gate compares.
void write_obs_section(obs::JsonWriter& json) {
  json.key("obs");
  json.begin_object();

  json.key("counters");
  json.begin_object();
  for (const auto& [name, value] : obs::registry().counter_values()) {
    json.member(name, static_cast<long long>(value));
  }
  json.end_object();

  json.key("gauges");
  json.begin_object();
  for (const auto& [name, value] : obs::registry().gauge_values()) {
    json.member(name, value);
  }
  json.end_object();

  json.key("histograms");
  json.begin_object();
  for (const auto& [name, snap] : obs::registry().histogram_values()) {
    json.key(name);
    json.begin_object();
    json.member("count", static_cast<unsigned long long>(snap.count));
    json.member("mean", snap.mean());
    json.member("p50", snap.quantile(0.50));
    json.member("p90", snap.quantile(0.90));
    json.member("p99", snap.quantile(0.99));
    json.member("max", snap.max);
    json.end_object();
  }
  json.end_object();

  json.end_object();
}

/// Best-of-five seconds of a fixed workload that calls no project code: a
/// dependent walk over an L2-sized table of xorshift words, mixed into a
/// floating-point accumulator. Two records' ratio of this figure estimates
/// how much faster one machine is than the other without counting a change
/// to the bench's own code as machine speed (bench_compare.py scales its
/// wall budgets by it).
double calibration_seconds() {
  constexpr std::size_t kWords = std::size_t{1} << 15;  // 256 KiB
  constexpr std::uint64_t kSteps = std::uint64_t{1} << 21;
  std::vector<std::uint64_t> table(kWords);
  std::uint64_t word = 0x9e3779b97f4a7c15ull;
  for (std::uint64_t& slot : table) {
    word ^= word << 13;
    word ^= word >> 7;
    word ^= word << 17;
    slot = word;
  }
  double best = 0.0;
  volatile double sink = 0.0;
  for (int round = 0; round < 5; ++round) {
    const auto start = std::chrono::steady_clock::now();
    std::uint64_t h = static_cast<std::uint64_t>(round);
    double acc = 1.0;
    for (std::uint64_t i = 0; i < kSteps; ++i) {
      h = (h ^ (table[h & (kWords - 1)] + i)) * 0xff51afd7ed558ccdull;
      acc = acc * 0.999999 + static_cast<double>(h >> 11) * 0x1p-53;
    }
    const double seconds = std::chrono::duration<double>(
                               std::chrono::steady_clock::now() - start)
                               .count();
    best = round == 0 ? seconds : std::min(best, seconds);
    sink = sink + acc;
  }
  return best;
}

bool write_json(const std::string& path, const BenchContext& context,
                bool quick, double wall_seconds, double calibration,
                bool obs_recording) {
  std::ofstream file(path);
  if (!file) {
    std::fprintf(stderr, "bench: cannot write %s\n", path.c_str());
    return false;
  }
  const auto cells = static_cast<double>(context.total_cells());
  const auto days = static_cast<double>(context.total_days());

  obs::JsonWriter json(file);
  json.begin_object();
  json.member("bench", kBenchName);
  json.member("threads", context.threads());
  // Where the numbers came from: lets the comparer spot baselines recorded
  // on machines that cannot show parallel scaling (e.g. single-core CI).
  json.member("hardware_concurrency",
              static_cast<std::size_t>(std::thread::hardware_concurrency()));
  json.member("quick", quick);
  json.member("wall_seconds", wall_seconds);
  json.member("cells", context.total_cells());
  json.member("cells_per_sec", wall_seconds > 0.0 ? cells / wall_seconds : 0.0);
  json.member("simulated_days", context.total_days());
  json.member("days_per_sec", wall_seconds > 0.0 ? days / wall_seconds : 0.0);
  json.member("calibration_seconds", calibration);
  json.key("metrics");
  json.begin_object();
  for (const auto& [key, value] : context.metrics()) {
    json.member(key, value);
  }
  json.end_object();
  if (obs_recording) {
    write_obs_section(json);
  }
  json.end_object();
  json.finish();
  return file.good();
}

}  // namespace

}  // namespace rlblh::bench

int main(int argc, char** argv) {
  using namespace rlblh::bench;

  rlblh::SweepOptions sweep_options;
  bool quick = false;
  bool json = true;
  bool obs_requested = false;
  std::string out_path = std::string("BENCH_") + kBenchName + ".json";
  std::string obs_out_path;
  std::vector<char*> passthrough;
  passthrough.push_back(argv[0]);

  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strcmp(arg, "--threads") == 0 && i + 1 < argc) {
      const long parsed = std::strtol(argv[++i], nullptr, 10);
      if (parsed < 1) {
        std::fprintf(stderr, "bench: --threads needs a positive integer\n");
        return 2;
      }
      sweep_options.threads = static_cast<std::size_t>(parsed);
    } else if (std::strcmp(arg, "--quick") == 0) {
      quick = true;
    } else if (std::strcmp(arg, "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    } else if (std::strcmp(arg, "--no-json") == 0) {
      json = false;
    } else if (std::strcmp(arg, "--obs") == 0) {
      obs_requested = true;
    } else if (std::strcmp(arg, "--obs-out") == 0 && i + 1 < argc) {
      obs_requested = true;
      obs_out_path = argv[++i];
    } else if (std::strcmp(arg, "--help") == 0 ||
               std::strcmp(arg, "-h") == 0) {
      print_usage(argv[0]);
      return 0;
    } else {
      passthrough.push_back(argv[i]);
    }
  }

  if (const char* env = std::getenv("RLBLH_OBS_OUT")) {
    if (env[0] != '\0') obs_requested = true;
  }
  if (obs_requested) {
    if (!rlblh::obs::compiled_in()) {
      std::fprintf(stderr,
                   "bench %s: observability compiled out (RLBLH_OBS=OFF); "
                   "manifest will carry build info only\n",
                   kBenchName);
    }
    rlblh::obs::registry().reset();
    rlblh::obs::Tracer::instance().reset();
    rlblh::obs::set_enabled(true);
    if (obs_out_path.empty()) {
      obs_out_path = rlblh::obs::default_manifest_path(kBenchName);
    }
  }

  // Timed before the body, on an idle machine state, and only when a record
  // is written.
  const double calibration = json ? calibration_seconds() : 0.0;
  BenchContext context(sweep_options, quick, std::move(passthrough));
  const auto start = std::chrono::steady_clock::now();
  try {
    RLBLH_OBS_SPAN("bench.body");
    bench_body(context);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "bench %s failed: %s\n", kBenchName, error.what());
    return 1;
  }
  const double wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  if (obs_requested) {
    // Join the sweep workers so every worker-side metric write is visible
    // to the snapshots below (the join is the synchronization point).
    context.sweep().shutdown();
  }

  const std::size_t cells = context.total_cells();
  const std::size_t days = context.total_days();
  std::printf(
      "\n[bench %s] %zu cells, %zu simulated days in %.2f s wall "
      "(%.2f cells/s, %.0f days/s) with %zu thread%s%s\n",
      kBenchName, cells, days, wall_seconds,
      wall_seconds > 0.0 ? static_cast<double>(cells) / wall_seconds : 0.0,
      wall_seconds > 0.0 ? static_cast<double>(days) / wall_seconds : 0.0,
      context.threads(), context.threads() == 1 ? "" : "s",
      quick ? " (quick mode)" : "");

  if (json) {
    if (!write_json(out_path, context, quick, wall_seconds, calibration,
                    obs_requested)) {
      return 1;
    }
    std::printf("[bench %s] wrote %s\n", kBenchName, out_path.c_str());
  }

  if (obs_requested) {
    rlblh::obs::RunInfo info;
    info.name = kBenchName;
    info.command.assign(argv, argv + argc);
    info.config = {
        {"threads", std::to_string(context.threads())},
        {"quick", quick ? "true" : "false"},
        {"wall_seconds", std::to_string(wall_seconds)},
    };
    if (!rlblh::obs::write_manifest_file(obs_out_path, info)) return 1;
    std::printf("[bench %s] wrote %s\n", kBenchName, obs_out_path.c_str());
    rlblh::obs::dump_all(std::cout);
  }
  return 0;
}
