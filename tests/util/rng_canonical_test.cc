// Rng's uniform and bernoulli draws are closed forms over one 64-bit engine
// word, written to equal the libstdc++ distributions bit for bit (the
// goldens and every checkpoint depend on those exact doubles). Each test
// runs an Rng and a bare std::mt19937_64 from the same seed, the latter
// through the std:: distribution, and requires identical bits draw for
// draw — so a standard-library change that moves the std:: side fails
// here instead of silently drifting the goldens.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <random>
#include <vector>

#include "util/rng.h"

namespace rlblh {
namespace {

constexpr int kDraws = 1'000'000;

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

/// A URBG that yields one fixed word, to feed edge words to
/// std::generate_canonical.
struct FixedWord {
  using result_type = std::uint64_t;
  static constexpr result_type min() { return 0; }
  static constexpr result_type max() {
    return std::numeric_limits<result_type>::max();
  }
  result_type operator()() const { return word; }
  result_type word;
};

double std_canonical(std::uint64_t word) {
  FixedWord engine{word};
  return std::generate_canonical<double, 53>(engine);
}

TEST(RngCanonical, EdgeWordsMatchGenerateCanonical) {
  const std::uint64_t two63 = std::uint64_t{1} << 63;
  const std::uint64_t edges[] = {
      0,
      1,
      (std::uint64_t{1} << 53) + 1,
      two63 - 1,
      two63,
      std::numeric_limits<std::uint64_t>::max() - 1023,  // 2^64 - 1024
      std::numeric_limits<std::uint64_t>::max(),         // 2^64 - 1
      std::numeric_limits<std::uint64_t>::max() - 1024,
      0xffffffffULL,
      0x100000000ULL,
  };
  for (const std::uint64_t word : edges) {
    EXPECT_EQ(bits(Rng::canonical(word)), bits(std_canonical(word)))
        << "word " << word;
    EXPECT_LT(Rng::canonical(word), 1.0) << "word " << word;
  }
  // The top words round up to 2^64 and are clamped just below 1.
  EXPECT_EQ(Rng::canonical(std::numeric_limits<std::uint64_t>::max()),
            std::nextafter(1.0, 0.0));
  EXPECT_EQ(Rng::canonical(0), 0.0);
}

TEST(RngCanonical, RandomWordsMatchGenerateCanonical) {
  std::mt19937_64 words(11);
  for (int i = 0; i < kDraws; ++i) {
    const std::uint64_t word = words();
    ASSERT_EQ(bits(Rng::canonical(word)), bits(std_canonical(word)))
        << "word " << word;
  }
}

TEST(RngCanonical, UniformMatchesStdUniformRealDistribution) {
  Rng rng(21);
  std::mt19937_64 engine(21);
  std::uniform_real_distribution<double> dist(0.0, 1.0);
  for (int i = 0; i < kDraws; ++i) {
    ASSERT_EQ(bits(rng.uniform()), bits(dist(engine))) << "draw " << i;
  }
}

TEST(RngCanonical, UniformRangeMatchesStdAcrossBounds) {
  Rng rng(31);
  std::mt19937_64 engine(31);
  std::mt19937_64 bounds(32);
  std::uniform_real_distribution<double> offset(-1e3, 1e3);
  std::uniform_real_distribution<double> scale(0.0, 50.0);
  for (int i = 0; i < kDraws; ++i) {
    const double lo = i % 1000 == 0 ? 0.0 : offset(bounds);
    const double hi = i % 997 == 0 ? lo : lo + scale(bounds);
    ASSERT_EQ(bits(rng.uniform(lo, hi)),
              bits(std::uniform_real_distribution<double>(lo, hi)(engine)))
        << "draw " << i << " bounds [" << lo << ", " << hi << ")";
  }
}

TEST(RngCanonical, FillUniformMatchesStd) {
  Rng rng(41);
  std::mt19937_64 engine(41);
  std::vector<double> out(1000);
  for (int block = 0; block < kDraws / 1000; ++block) {
    const double lo = 0.01 * block;
    const double hi = lo + 0.5 + 0.001 * block;
    rng.fill_uniform(lo, hi, out);
    std::uniform_real_distribution<double> dist(lo, hi);
    for (std::size_t i = 0; i < out.size(); ++i) {
      ASSERT_EQ(bits(out[i]), bits(dist(engine)))
          << "block " << block << " element " << i;
    }
  }
}

TEST(RngCanonical, FillUniformStridedMatchesStd) {
  Rng rng(51);
  std::mt19937_64 engine(51);
  constexpr std::size_t kStride = 3;
  constexpr std::size_t kCount = 1000;
  std::vector<double> out(kStride * kCount, -1.0);
  for (int block = 0; block < kDraws / static_cast<int>(kCount); ++block) {
    const double lo = -0.02 * block;
    const double hi = 0.75;
    rng.fill_uniform_strided(lo, hi, out.data(), kStride, kCount);
    std::uniform_real_distribution<double> dist(lo, hi);
    for (std::size_t i = 0; i < kCount; ++i) {
      ASSERT_EQ(bits(out[i * kStride]), bits(dist(engine)))
          << "block " << block << " element " << i;
      ASSERT_EQ(out[i * kStride + 1], -1.0) << "wrote between strides";
    }
  }
}

TEST(RngCanonical, BernoulliMatchesStdAtFixedAndRandomP) {
  std::mt19937_64 probabilities(61);
  std::uniform_real_distribution<double> any_p(0.0, 1.0);
  const double fixed[] = {0.0, 0.5, 1.0};
  for (int mode = 0; mode < 4; ++mode) {
    Rng rng(62 + static_cast<std::uint64_t>(mode));
    std::mt19937_64 engine(62 + static_cast<std::uint64_t>(mode));
    for (int i = 0; i < kDraws; ++i) {
      const double p = mode < 3 ? fixed[mode] : any_p(probabilities);
      ASSERT_EQ(rng.bernoulli(p), std::bernoulli_distribution(p)(engine))
          << "mode " << mode << " draw " << i << " p " << p;
    }
    // Every draw consumed exactly one word on both sides, p = 0 and 1 too.
    EXPECT_EQ(rng.engine(), engine) << "mode " << mode;
  }
}

}  // namespace
}  // namespace rlblh
