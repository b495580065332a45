// Deterministic random number generation for reproducible simulations.
//
// Every stochastic component in the library draws through an rlblh::Rng that
// the caller seeds explicitly, so that an experiment is a pure function of
// (configuration, seed). There is no global RNG state.
#pragma once

#include <cstdint>
#include <random>
#include <span>

#include "util/error.h"

namespace rlblh {

/// SplitMix64 output function (Steele, Lea & Flood): a bijective 64-bit
/// finalizer whose outputs pass BigCrush even on sequential inputs. Used to
/// whiten structured seed material before it reaches an engine.
constexpr std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

/// Derives the seed of an independent per-entity RNG stream from a base
/// seed and an entity index (e.g. a fleet household). Two splitmix rounds
/// decorrelate both axes: adjacent base seeds and adjacent indices land in
/// unrelated regions of the 64-bit space, so a 10k-household fleet seeded
/// {base, 0..9999} shares no streams with the fleet at base+1. Pure
/// function — the same (base, index) always names the same stream.
constexpr std::uint64_t derive_stream_seed(std::uint64_t base,
                                           std::uint64_t index) {
  return splitmix64(splitmix64(base) ^ (index + 0xD1B54A32D192ED03ULL));
}

/// A seedable pseudo-random source wrapping std::mt19937_64 with the handful
/// of draw shapes the simulators need. Copyable; copies evolve independently.
/// The uniform and bernoulli draws are closed forms over canonical(), equal
/// bit for bit to the libstdc++ distributions they replace; uniform_int,
/// normal and exponential stay on the std:: distributions.
class Rng {
 public:
  /// Constructs a generator from a 64-bit seed.
  explicit Rng(std::uint64_t seed) : engine_(seed) {}

  /// The canonical [0, 1) draw for one 64-bit engine word: the word
  /// rounded once to the nearest double, scaled by 2^-64, and clamped below
  /// 1 (words >= 2^64 - 1024 round up to 2^64). Each 32-bit half converts
  /// to double exactly through a signed integer, so there is no sign-bit
  /// branch, and the sum rounds once: bit for bit the value libstdc++'s
  /// std::generate_canonical<double, 53> makes from a std::mt19937_64 word
  /// (pinned draw for draw, edge words included, by rng_canonical_test).
  static double canonical(std::uint64_t word) {
    const double high =
        static_cast<double>(static_cast<std::int64_t>(word >> 32));
    const double low =
        static_cast<double>(static_cast<std::int64_t>(word & 0xffffffffULL));
    const double u = (high * 0x1p32 + low) * 0x1p-64;
    return u < 1.0 ? u : 0x1.fffffffffffffp-1;  // nextafter(1.0, 0.0)
  }

  /// Uniform real in [0, 1).
  double uniform() { return canonical(engine_()); }

  /// Uniform real in [lo, hi). Requires lo <= hi. Computed as
  /// u * (hi - lo) + lo, std::uniform_real_distribution's expression.
  double uniform(double lo, double hi) {
    RLBLH_REQUIRE(lo <= hi, "Rng::uniform: lo must be <= hi");
    return uniform() * (hi - lo) + lo;
  }

  /// Fills `out` with uniform reals in [lo, hi). Requires lo <= hi. Each
  /// element is exactly what one uniform(lo, hi) call would return, so
  /// batched and one-at-a-time consumption of the stream yield
  /// bitwise-identical values.
  void fill_uniform(double lo, double hi, std::span<double> out) {
    RLBLH_REQUIRE(lo <= hi, "Rng::fill_uniform: lo must be <= hi");
    const double width = hi - lo;
    for (double& v : out) v = uniform() * width + lo;
  }

  /// Strided fill: writes `count` uniform reals in [lo, hi) to out[0],
  /// out[stride], ..., the lane-shaped counterpart of fill_uniform (a batch
  /// generator writing one household's draws straight into an interval-major
  /// SoA buffer). Draw-for-draw identical to `count` uniform(lo, hi) calls.
  void fill_uniform_strided(double lo, double hi, double* out,
                            std::size_t stride, std::size_t count) {
    RLBLH_REQUIRE(lo <= hi, "Rng::fill_uniform_strided: lo must be <= hi");
    RLBLH_REQUIRE(out != nullptr && stride >= 1,
                  "Rng::fill_uniform_strided: need a target with stride >= 1");
    const double width = hi - lo;
    for (std::size_t i = 0; i < count; ++i) {
      out[i * stride] = uniform() * width + lo;
    }
  }

  /// Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  int uniform_int(int lo, int hi) {
    RLBLH_REQUIRE(lo <= hi, "Rng::uniform_int: lo must be <= hi");
    return std::uniform_int_distribution<int>(lo, hi)(engine_);
  }

  /// Normal draw with the given mean and standard deviation (sigma >= 0).
  double normal(double mean, double sigma) {
    RLBLH_REQUIRE(sigma >= 0.0, "Rng::normal: sigma must be >= 0");
    if (sigma == 0.0) return mean;
    return std::normal_distribution<double>(mean, sigma)(engine_);
  }

  /// Exponential draw with the given rate (> 0); mean is 1/rate.
  double exponential(double rate) {
    RLBLH_REQUIRE(rate > 0.0, "Rng::exponential: rate must be > 0");
    return std::exponential_distribution<double>(rate)(engine_);
  }

  /// Bernoulli draw: true with probability p in [0, 1]. Always consumes one
  /// word (also at p = 0 or 1), as std::bernoulli_distribution does.
  bool bernoulli(double p) {
    RLBLH_REQUIRE(p >= 0.0 && p <= 1.0, "Rng::bernoulli: p must be in [0,1]");
    return uniform() < p;
  }

  /// Derives an independent child generator; useful for giving each
  /// subcomponent its own stream so draws in one do not perturb another.
  Rng fork() { return Rng(engine_()); }

  /// Access to the underlying engine for std::distributions not wrapped here.
  std::mt19937_64& engine() { return engine_; }

  /// Read access for state serialization (std::mt19937_64's stream operators
  /// round-trip the full 312-word state exactly).
  const std::mt19937_64& engine() const { return engine_; }

 private:
  std::mt19937_64 engine_;
};

/// Lane-batched uniform draws: out[k] is ONE uniform [0, 1) draw from
/// *rngs[k], in lane order. Each engine sees exactly the single draw it
/// would make in a scalar run — only the interleaving across lanes changes,
/// which is invisible because the engines are independent. This is the
/// primitive behind lane-native epsilon-greedy: all W exploration coins are
/// flipped in one pass instead of W virtual round-trips.
inline void fill_uniform_lanes(std::span<Rng* const> rngs,
                               std::span<double> out) {
  RLBLH_REQUIRE(rngs.size() == out.size(),
                "fill_uniform_lanes: lane counts must match");
  for (std::size_t k = 0; k < rngs.size(); ++k) {
    out[k] = rngs[k]->uniform();
  }
}

}  // namespace rlblh
