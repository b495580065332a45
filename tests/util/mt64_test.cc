// Mt64 must be std::mt19937_64 in everything but speed: the same words from
// the same seed, the same state text after every draw, and text that loads
// in both directions. Each test runs both engines side by side, so a change
// to the twist, the tempering, the seeding or the stream format fails here
// instead of drifting the goldens and every checkpoint.
#include "util/mt64.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <random>
#include <sstream>
#include <string>

#include "util/rng.h"

namespace rlblh {
namespace {

constexpr std::size_t kN = Mt64::kStateSize;

template <typename Engine>
std::string text(const Engine& engine) {
  std::ostringstream out;
  out << engine;
  return out.str();
}

const std::uint64_t kSeeds[] = {
    0, 1, 5489, std::uint64_t{1} << 63,
    std::numeric_limits<std::uint64_t>::max()};

TEST(Mt64, MeetsUniformRandomBitGenerator) {
  static_assert(std::uniform_random_bit_generator<Mt64>);
  EXPECT_EQ(Mt64::min(), std::mt19937_64::min());
  EXPECT_EQ(Mt64::max(), std::mt19937_64::max());
  EXPECT_EQ(sizeof(Mt64), sizeof(std::mt19937_64));
}

TEST(Mt64, TenMillionWordsMatchStdAcrossSeeds) {
  constexpr int kWordsPerSeed = 2'000'000;  // 5 seeds: 10^7 words
  for (const std::uint64_t seed : kSeeds) {
    Mt64 ours(seed);
    std::mt19937_64 theirs(seed);
    for (int i = 0; i < kWordsPerSeed; ++i) {
      ASSERT_EQ(ours(), theirs()) << "seed " << seed << " word " << i;
    }
    EXPECT_EQ(text(ours), text(theirs)) << "seed " << seed;
  }
}

TEST(Mt64, EveryWordAndStateTextMatchStdAcrossRefills) {
  // Fresh, then each draw through four refills (the first twist happens on
  // the first draw), comparing the word and the whole state text each time.
  for (const std::uint64_t seed : kSeeds) {
    Mt64 ours(seed);
    std::mt19937_64 theirs(seed);
    ASSERT_EQ(text(ours), text(theirs)) << "seed " << seed << " fresh";
    for (std::size_t i = 0; i < 4 * kN + 3; ++i) {
      ASSERT_EQ(ours(), theirs()) << "seed " << seed << " word " << i;
      ASSERT_EQ(text(ours), text(theirs)) << "seed " << seed << " word " << i;
    }
  }
}

TEST(Mt64, StdTextLoadsAndContinuesWithStdWords) {
  for (const std::size_t drawn : {std::size_t{0}, std::size_t{1}, kN - 1, kN,
                                  kN + 1, 5 * kN + 17}) {
    std::mt19937_64 theirs(2024);
    for (std::size_t i = 0; i < drawn; ++i) theirs();
    std::istringstream in(text(theirs));
    Mt64 ours(1);
    ASSERT_TRUE(in >> ours) << "after " << drawn << " draws";
    EXPECT_EQ(text(ours), text(theirs));
    for (std::size_t i = 0; i < 2 * kN; ++i) {
      ASSERT_EQ(ours(), theirs()) << "after " << drawn << " draws, word " << i;
    }
  }
}

TEST(Mt64, OwnTextLoadsIntoStdAndContinuesWithTheSameWords) {
  for (const std::size_t drawn : {std::size_t{0}, kN - 1, kN, 3 * kN + 5}) {
    Mt64 ours(99);
    for (std::size_t i = 0; i < drawn; ++i) ours();
    std::istringstream in(text(ours));
    std::mt19937_64 theirs(1);
    ASSERT_TRUE(in >> theirs) << "after " << drawn << " draws";
    for (std::size_t i = 0; i < 2 * kN; ++i) {
      ASSERT_EQ(ours(), theirs()) << "after " << drawn << " draws, word " << i;
    }
  }
}

TEST(Mt64, TextIgnoresAndRestoresCallerFormatting) {
  // libstdc++ forces decimal, left-aligned output with a space fill and
  // restores the caller's flags; the bytes must not depend on them either.
  Mt64 ours(5);
  std::mt19937_64 theirs(5);
  ours();
  theirs();
  std::ostringstream a, b;
  a << std::hex << std::showbase << std::uppercase;
  b << std::hex << std::showbase << std::uppercase;
  a.fill('*');
  b.fill('*');
  a << ours << ' ' << 255;
  b << theirs << ' ' << 255;
  EXPECT_EQ(a.str(), b.str());
  EXPECT_EQ(a.fill(), '*');
  EXPECT_TRUE(a.flags() & std::ios_base::hex);

  std::istringstream in(text(ours) + " ff");
  in >> std::hex;
  Mt64 loaded(0);
  int after = 0;
  ASSERT_TRUE(in >> loaded >> after);
  EXPECT_EQ(text(loaded), text(ours));
  EXPECT_EQ(after, 255) << "the caller's hex flag was not restored";
}

TEST(Mt64, RejectsShortOrOutOfRangeStateAndKeepsItsOwn) {
  Mt64 fresh(8);
  fresh();
  const std::string good = text(fresh);
  const std::string words = good.substr(0, good.rfind(' '));

  const std::string bad[] = {
      words + " 313",                   // position past the end
      words + " 18446744073709551615",  // huge position
      words.substr(0, words.rfind(' ')) + " 5",  // 311 words + position
      "",
      words + " x",
      "1 2 3",
  };
  for (const std::string& input : bad) {
    Mt64 engine(8);
    engine();
    std::istringstream in(input);
    EXPECT_FALSE(in >> engine) << "accepted '" << input.substr(0, 40) << "'";
    EXPECT_EQ(text(engine), good) << "a failed read changed the engine";
  }

  std::istringstream in(words + " 312");
  Mt64 at_end(0);
  ASSERT_TRUE(in >> at_end);
  std::mt19937_64 theirs(0);
  std::istringstream their_in(words + " 312");
  ASSERT_TRUE(their_in >> theirs);
  for (std::size_t i = 0; i < kN + 1; ++i) ASSERT_EQ(at_end(), theirs());
}

TEST(Mt64, RngDistributionsMatchStdOnTheSameWords) {
  // uniform_int, normal and exponential stay on the std:: distributions; fed
  // Mt64's words they must return what they return on std::mt19937_64.
  Rng rng(71);
  std::mt19937_64 engine(71);
  for (int i = 0; i < 100'000; ++i) {
    ASSERT_EQ(rng.uniform_int(-3, 1000),
              std::uniform_int_distribution<int>(-3, 1000)(engine))
        << "draw " << i;
    ASSERT_EQ(rng.normal(2.0, 0.5),
              std::normal_distribution<double>(2.0, 0.5)(engine))
        << "draw " << i;
    ASSERT_EQ(rng.exponential(3.0),
              std::exponential_distribution<double>(3.0)(engine))
        << "draw " << i;
  }
  EXPECT_EQ(text(rng.engine()), text(engine));
}

}  // namespace
}  // namespace rlblh
