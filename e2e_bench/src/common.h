// Shared pieces of the end-to-end benchmark: the result record, the
// percentile rules every timing is reported with, and the span tracer the
// traced runs time layer calls with (from the benchmark's own code, around
// calls into each module's public functions).
#pragma once

#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

namespace e2e {

/// Set-up is timed this many times per phase and reported as the median.
/// A daemon set-up (10-35 ms on 4 cores, the first few slowest) is nearly
/// all of setup_s; 41 keeps the warm-up reps from moving the median.
inline constexpr std::size_t kSetupReps = 41;

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Opens a new peak-resident-set window: the kernel resets the process's
/// high-water mark to its current resident set (Linux clear_refs "5").
inline void reset_peak_rss() {
  if (std::FILE* f = std::fopen("/proc/self/clear_refs", "w")) {
    std::fputs("5", f);
    std::fclose(f);
  }
}

/// Peak resident set since the last reset_peak_rss() or process start, MB.
inline double peak_rss_mb() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

inline double seconds_since(std::int64_t start_ns) {
  return static_cast<double>(now_ns() - start_ns) * 1e-9;
}

struct Metric {
  double value = 0.0;
  std::string unit;
};
using Metrics = std::map<std::string, Metric>;

/// What one workload run produced. `attempted`/`failed` count operations
/// (fleet households, served frames, output checks); a failed output check
/// counts as a failed operation.
struct Outcome {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  Metrics end_to_end;
  Metrics per_layer;
  std::vector<std::string> notes;  ///< human-readable lines (tables, checks)

  void fail(const std::string& why) {
    ++failed;
    notes.push_back("FAILED: " + why);
  }
};

// --- percentiles ------------------------------------------------------

/// Nearest-rank percentile of an ascending-sorted sample: the value at
/// 1-based rank ceil(p/100 * n). Requires a nonempty sample, 0 < p <= 100.
inline double nearest_rank(const std::vector<double>& sorted, double p) {
  const double n = static_cast<double>(sorted.size());
  auto rank = static_cast<std::size_t>(std::ceil(p / 100.0 * n - 1e-9));
  rank = std::clamp<std::size_t>(rank, 1, sorted.size());
  return sorted[rank - 1];
}

/// Samples strictly beyond the nearest-rank position of percentile p.
inline std::size_t samples_beyond(std::size_t n, double p) {
  auto rank = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(n) - 1e-9));
  rank = std::clamp<std::size_t>(rank, 1, n);
  return n - rank;
}

/// A timing reported the way the benchmark reports every timing: the
/// median, and the highest percentile (at most `max_pct`) that still has
/// at least ten samples beyond it, with the sample count.
struct TailSummary {
  std::size_t samples = 0;
  double mean = 0.0;
  double p50 = 0.0;
  double tail = 0.0;      ///< value at tail_pct
  double tail_pct = 0.0;  ///< 0 when fewer than 11 samples exist
};

inline TailSummary summarize_tail(std::vector<double> values,
                                  double max_pct = 99.0) {
  TailSummary out;
  out.samples = values.size();
  if (values.empty()) return out;
  std::sort(values.begin(), values.end());
  double sum = 0.0;
  for (double v : values) sum += v;
  out.mean = sum / static_cast<double>(values.size());
  out.p50 = nearest_rank(values, 50.0);
  // Walk down in 0.1-point steps: the first percentile with ten samples
  // beyond it is the highest one the sample supports.
  for (int tenths = static_cast<int>(std::lround(max_pct * 10)); tenths >= 500;
       --tenths) {
    const double p = tenths / 10.0;
    if (samples_beyond(values.size(), p) >= 10) {
      out.tail_pct = p;
      out.tail = nearest_rank(values, p);
      return out;
    }
  }
  return out;
}

inline double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

// --- layer spans ------------------------------------------------------

/// The layers a traced run attributes time to, named after the modules of
/// src/ they time.
enum class Layer : std::size_t {
  kScenarioBlueprint,
  kScenarioBuild,
  kPretrain,
  kSimDay,
  kMeter,
  kCore,
  kRl,
  kPrivacyObserve,
  kPrivacyQuery,
  kPrivacyReset,
  kProtocol,
  kSessionApply,
  kSessionClose,
  kCheckpoint,
  kCount,
};

inline const char* layer_name(Layer layer) {
  static constexpr std::array<const char*,
                              static_cast<std::size_t>(Layer::kCount)>
      kNames = {"scenario.blueprint", "scenario.household_build",
                "baselines.pretrain", "sim.day_self",
                "meter.synth",        "core.block_calls",
                "rl.end_day",         "privacy.observe",
                "privacy.query",      "privacy.reset",
                "protocol.decode",    "session.apply",
                "session.close",      "checkpoint.save"};
  return kNames[static_cast<std::size_t>(layer)];
}

/// Single-threaded span accumulator. A span's self time is its duration
/// minus the time of the spans opened inside it, so the self times of all
/// layers sum to the covered time, and covered + remainder = traced wall.
class Tracer {
 public:
  struct Row {
    std::int64_t total_ns = 0;
    std::int64_t child_ns = 0;
    std::size_t calls = 0;
    std::int64_t self_ns() const { return total_ns - child_ns; }
  };

  const Row& row(Layer layer) const {
    return rows_[static_cast<std::size_t>(layer)];
  }
  std::int64_t covered_ns() const { return covered_ns_; }

  class Span {
   public:
    Span(Tracer& tracer, Layer layer)
        : tracer_(tracer), layer_(layer), parent_(tracer.open_) {
      tracer_.open_ = static_cast<int>(layer);
      start_ = now_ns();
    }
    ~Span() {
      const std::int64_t dt = now_ns() - start_;
      Row& row = tracer_.rows_[static_cast<std::size_t>(layer_)];
      row.total_ns += dt;
      ++row.calls;
      if (parent_ >= 0) {
        tracer_.rows_[static_cast<std::size_t>(parent_)].child_ns += dt;
      } else {
        tracer_.covered_ns_ += dt;
      }
      tracer_.open_ = parent_;
    }
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

   private:
    Tracer& tracer_;
    Layer layer_;
    int parent_;
    std::int64_t start_ = 0;
  };

 private:
  std::array<Row, static_cast<std::size_t>(Layer::kCount)> rows_{};
  std::int64_t covered_ns_ = 0;
  int open_ = -1;
};

/// Formats a per-layer table whose rows (self times plus the remainder)
/// sum to `wall_ns`; appends the lines to `notes`.
inline void print_layer_table(const char* title, const Tracer& tracer,
                              const std::vector<Layer>& layers,
                              std::int64_t wall_ns,
                              std::vector<std::string>& notes) {
  char line[160];
  std::snprintf(line, sizeof line, "%s: traced wall %.3f s", title,
                static_cast<double>(wall_ns) * 1e-9);
  notes.emplace_back(line);
  std::snprintf(line, sizeof line, "  %-26s %12s %8s %10s", "layer",
                "self_ms", "share", "calls");
  notes.emplace_back(line);
  std::int64_t sum = 0;
  for (Layer layer : layers) {
    const Tracer::Row& row = tracer.row(layer);
    sum += row.self_ns();
    std::snprintf(line, sizeof line, "  %-26s %12.3f %7.2f%% %10zu",
                  layer_name(layer), static_cast<double>(row.self_ns()) * 1e-6,
                  100.0 * static_cast<double>(row.self_ns()) /
                      static_cast<double>(wall_ns),
                  row.calls);
    notes.emplace_back(line);
  }
  const std::int64_t remainder = wall_ns - sum;
  std::snprintf(line, sizeof line, "  %-26s %12.3f %7.2f%%", "(remainder)",
                static_cast<double>(remainder) * 1e-6,
                100.0 * static_cast<double>(remainder) /
                    static_cast<double>(wall_ns));
  notes.emplace_back(line);
  std::snprintf(line, sizeof line, "  %-26s %12.3f %7.2f%%", "(sum = wall)",
                static_cast<double>(sum + remainder) * 1e-6, 100.0);
  notes.emplace_back(line);
}

}  // namespace e2e
