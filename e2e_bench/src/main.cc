// rlblh end-to-end benchmark program (see ../README.md).
//
//   rlblh_e2e --workload learn|steady --seed N --seconds S --trace 0|1
//   rlblh_e2e --selftest
//
// Each workload runs a fleet job and then an open-loop serving run in this
// one process. --trace 0 prints the end-to-end metrics; --trace 1 repeats
// the untraced work (the oracles and the queue-wait estimate need it) and
// adds the traced replays and the serving rate probe, printing the
// per-layer metrics and tables. The last stdout line is the JSON result.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <thread>
#include <unistd.h>

#include "obs/obs.h"
#include "phases.h"
#include "self_test.h"

namespace e2e {
namespace {

struct Workload {
  FleetShape fleet;
  ServeShape serve;
};

// Steady RL households: REUSE and SYN replay off, so no virtual training.
constexpr const char* kSteadyRl = ";policy.reuse=0;policy.syn=0";

Workload learn_workload() {
  Workload w;
  // The fleet_scaling mix: REUSE/SYN-on rlblh, lowpass, stepping, none,
  // random_pulse, rtp pricing and a pretrained mdp. One training week and
  // one evaluation week per household, so MI is nonzero.
  w.fleet.name = "fleet_learn";
  w.fleet.mixes = {
      "policy=rlblh;household=default;pricing=srp;battery=5",
      "policy=lowpass;household=weekday_heavy;pricing=tou2;battery=3",
      "policy=stepping;household=night_owl;pricing=tou3;battery=5",
      "policy=rlblh;household=ev_owner;pricing=srp;battery=7",
      "policy=none;household=apartment;pricing=flat",
      "policy=random_pulse;household=vacationer;pricing=srp;battery=4",
      "policy=rlblh;household=weekday_heavy;pricing=rtp;battery=5;"
      "pricing.seed=5",
      "policy=mdp;household=default;pricing=srp;battery=3;"
      "policy.levels=16;policy.usage_levels=8",
  };
  // Six rounds: the seed-to-seed spread of the fleet's mean saving ratio
  // shrinks with the number of households (three rounds spread ~4%).
  w.fleet.households = 320;
  w.fleet.rounds = 6;
  w.fleet.train_days = 7;
  w.fleet.eval_days = 7;
  w.fleet.trace_stride = 5;
  // Midnight close storm: hourly frames, every household's closing frame
  // in the day's last slot. One blueprint in eight is a fresh household
  // with REUSE/SYN on; the rest are steady.
  w.serve.name = "serve_midnight";
  w.serve.blueprints = {
      "policy=rlblh;household=default;pricing=srp;battery=5",
      std::string("policy=rlblh;household=weekday_heavy;pricing=tou2;"
                  "battery=5") + kSteadyRl,
      std::string("policy=rlblh;household=night_owl;pricing=tou3;battery=5") +
          kSteadyRl,
      std::string("policy=rlblh;household=ev_owner;pricing=srp;battery=7") +
          kSteadyRl,
      std::string("policy=rlblh;household=apartment;pricing=flat;battery=3") +
          kSteadyRl,
      std::string("policy=rlblh;household=vacationer;pricing=srp;battery=4") +
          kSteadyRl,
      std::string("policy=rlblh;household=default;pricing=tou2;battery=5") +
          kSteadyRl,
      std::string("policy=rlblh;household=weekday_heavy;pricing=srp;"
                  "battery=5") + kSteadyRl,
  };
  w.serve.households = 64;
  w.serve.frame_intervals = 60;
  w.serve.slot_s = 3.0 / 24;
  w.serve.days = 4;
  w.serve.trace_stride = 5;
  return w;
}

Workload steady_workload() {
  Workload w;
  // Steady state: no virtual training, short training, two evaluation
  // weeks; the day kernel, synthesis, block decisions and MI observe work.
  w.fleet.name = "fleet_steady";
  w.fleet.mixes = {
      std::string("policy=rlblh;household=default;pricing=srp;battery=5") +
          kSteadyRl,
      std::string("policy=rlblh;household=weekday_heavy;pricing=tou2;"
                  "battery=5") + kSteadyRl,
      std::string("policy=rlblh;household=night_owl;pricing=tou3;battery=5") +
          kSteadyRl,
      std::string("policy=rlblh;household=ev_owner;pricing=srp;battery=7") +
          kSteadyRl,
      std::string("policy=rlblh;household=apartment;pricing=flat;battery=3") +
          kSteadyRl,
      "policy=lowpass;household=weekday_heavy;pricing=tou2;battery=3",
      "policy=stepping;household=night_owl;pricing=tou3;battery=5",
      "policy=none;household=vacationer;pricing=srp",
  };
  w.fleet.households = 1024;
  w.fleet.rounds = 8;
  w.fleet.train_days = 2;
  w.fleet.eval_days = 14;
  w.fleet.trace_stride = 9;
  // Per-minute frames at a fixed offered rate; staggered day phases spread
  // the day closes evenly.
  w.serve.name = "serve_stream";
  w.serve.blueprints = {
      std::string("policy=rlblh;household=default;pricing=srp;battery=5") +
          kSteadyRl,
      std::string("policy=rlblh;household=weekday_heavy;pricing=tou2;"
                  "battery=5") + kSteadyRl,
      std::string("policy=rlblh;household=night_owl;pricing=tou3;battery=5") +
          kSteadyRl,
      std::string("policy=rlblh;household=ev_owner;pricing=srp;battery=7") +
          kSteadyRl,
  };
  w.serve.households = 64;
  w.serve.stream_rate = 26000.0;
  w.serve.stream_frames = 6094;
  w.serve.trace_stride = 3;
  return w;
}

void put(Metrics& m, const std::string& name, double value, const char* unit) {
  m[name] = Metric{value, unit};
}

void print_metrics_json(const Metrics& metrics, std::string& out) {
  out += "{";
  bool first = true;
  char buf[128];
  for (const auto& [name, metric] : metrics) {
    if (!first) out += ", ";
    first = false;
    const double v = std::isfinite(metric.value) ? metric.value : 0.0;
    std::snprintf(buf, sizeof buf, "%.17g", v);
    out += "\"" + name + "\": {\"value\": " + buf + ", \"unit\": \"" +
           metric.unit + "\"}";
  }
  out += "}";
}

int refuse_unfit_build() {
  const char* reason = nullptr;
#if defined(E2E_SANITIZED) || defined(__SANITIZE_ADDRESS__) || \
    defined(__SANITIZE_THREAD__)
  reason = "this is a sanitizer build";
#endif
#if !defined(__OPTIMIZE__)
  reason = "this is an unoptimised build";
#endif
  const std::string type = E2E_BUILD_TYPE;
  if (type != "Release" && type != "RelWithDebInfo") {
    reason = "build type is not Release or RelWithDebInfo";
  }
  if (reason != nullptr) {
    std::fprintf(stderr, "rlblh_e2e: refusing to time: %s\n", reason);
    return 2;
  }
  return 0;
}

int usage() {
  std::fprintf(stderr,
               "usage: rlblh_e2e --workload learn|steady --seed N "
               "--seconds S --trace 0|1 [--git-sha X] [--src-digest Y]\n"
               "       rlblh_e2e --selftest\n");
  return 2;
}

}  // namespace
}  // namespace e2e

int main(int argc, char** argv) {
  using namespace e2e;
  std::string workload, git_sha = "unknown", digest = "unknown";
  std::uint64_t seed = 1;
  double seconds = 25.0;
  int trace = 0;
  bool selftest_only = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument("missing value");
      return argv[++i];
    };
    try {
      if (arg == "--workload") workload = value();
      else if (arg == "--seed") seed = std::stoull(value());
      else if (arg == "--seconds") seconds = std::stod(value());
      else if (arg == "--trace") trace = std::stoi(value());
      else if (arg == "--git-sha") git_sha = value();
      else if (arg == "--src-digest") digest = value();
      else if (arg == "--selftest") selftest_only = true;
      else return usage();
    } catch (const std::exception&) {
      return usage();
    }
  }
  // Scratch space (sockets, checkpoints) inside the checkout's build tree.
  const std::string work_dir = std::string(".bench_build/run/") +
                               (workload.empty() ? "selftest" : workload) +
                               "-" + std::to_string(::getpid());
  std::filesystem::create_directories(work_dir);

  Outcome out;
  const std::size_t self_failures = run_self_tests(work_dir, out.notes);
  if (selftest_only) {
    for (const std::string& n : out.notes) std::printf("%s\n", n.c_str());
    std::printf("self-tests: %zu failures\n", self_failures);
    std::filesystem::remove_all(work_dir);
    return self_failures == 0 ? 0 : 1;
  }
  if (int rc = refuse_unfit_build(); rc != 0) return rc;
  Workload w;
  if (workload == "learn") {
    w = learn_workload();
  } else if (workload == "steady") {
    w = steady_workload();
  } else {
    return usage();
  }
  if (trace != 0 && trace != 1) return usage();
  out.attempted += 1;  // the self-test battery
  if (self_failures != 0) out.failed += 1;

  const std::size_t nproc = std::max(1L, ::sysconf(_SC_NPROCESSORS_ONLN));
  PhaseContext ctx;
  ctx.seed = seed;
  ctx.trace = trace == 1;
  ctx.threads = nproc;
  ctx.work_dir = work_dir;
  // Scale the measured work with --seconds (shapes are sized for 25 s on
  // 4 cores): fleet rounds take 8-16 s of it, the serving schedule 12-15 s;
  // traced runs add about 8 s of saturation bursts.
  const double scale = seconds / 25.0;
  auto scaled = [&](std::size_t n, std::size_t floor) {
    return std::max<std::size_t>(
        floor, static_cast<std::size_t>(std::lround(
                   static_cast<double>(n) * scale)));
  };
  w.fleet.rounds = scaled(w.fleet.rounds, 3);
  w.serve.bursts = scaled(w.serve.bursts, 3);
  if (w.serve.slot_s > 0.0) {
    w.serve.days = scaled(w.serve.days, 2);
  } else {
    w.serve.stream_frames = scaled(w.serve.stream_frames, 200);
  }

  const std::int64_t t0 = now_ns();
  double setup_s = 0.0;
  try {
    setup_s += run_fleet_phase(w.fleet, ctx, out);
    setup_s += run_serve_phase(w.serve, ctx, out);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "rlblh_e2e: workload %s failed: %s\n",
                 workload.c_str(), e.what());
    std::filesystem::remove_all(work_dir);
    return 1;
  }
  std::filesystem::remove_all(work_dir);

  put(out.end_to_end, "setup_s", setup_s, "s");
  if (ctx.trace) {
    Metrics& m = out.per_layer;
    // Tracing overhead over both traced replays, each against its own
    // untraced twin.
    put(m, "trace.overhead_share",
        0.5 * (m["fleet.trace_overhead_share"].value +
               m["serve.trace_overhead_share"].value),
        "ratio");
  }

  for (const std::string& n : out.notes) std::printf("%s\n", n.c_str());
  std::printf("error_rate %.6g (%zu failed of %zu attempted); run %.2f s\n",
              out.attempted == 0
                  ? 0.0
                  : static_cast<double>(out.failed) /
                        static_cast<double>(out.attempted),
              out.failed, out.attempted, seconds_since(t0));
  std::printf(
      "provenance {\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %g, "
      "\"trace\": %d, \"nproc\": %zu, \"hardware_concurrency\": %u, "
      "\"build_type\": \"%s\", \"git_sha\": \"%s\", \"src_digest\": \"%s\", "
      "\"obs_compiled_in\": %s, \"obs_enabled\": %s, \"fleet_threads\": %zu, "
      "\"client_connections\": %zu, \"client_threads\": 2, "
      "\"serve_offered_frames_per_s\": %g}\n",
      workload.c_str(), static_cast<unsigned long long>(seed), seconds, trace,
      nproc, std::thread::hardware_concurrency(), E2E_BUILD_TYPE,
      git_sha.c_str(), digest.c_str(),
      rlblh::obs::compiled_in() ? "true" : "false",
      rlblh::obs::enabled() ? "true" : "false", ctx.threads,
      std::min(ctx.threads, w.serve.households),
      w.serve.slot_s > 0.0
          ? static_cast<double>(w.serve.households) / w.serve.slot_s
          : w.serve.stream_rate);

  std::string json = "{\"correct\": ";
  json += out.failed == 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(out.attempted);
  json += ", \"failed\": " + std::to_string(out.failed);
  json += ", \"metrics\": ";
  print_metrics_json(ctx.trace ? out.per_layer : out.end_to_end, json);
  json += "}";
  std::printf("%s\n", json.c_str());
  return 0;
}
