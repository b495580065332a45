// MT19937-64 with a branch-free twist.
//
// The 64-bit Mersenne Twister (Matsumoto & Nishimura) under every Rng draw.
// It produces std::mt19937_64's words and keeps libstdc++'s state layout and
// stream text, so checkpoints written through either engine load into the
// other. The reason it exists is the twist: libstdc++ writes the
// `(y & 1) ? a : 0` term as a conditional jump on a random bit, which
// mispredicts about half the time; here it is a mask.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <limits>

namespace rlblh {

/// Word-for-word std::mt19937_64: same seeding, same words, same
/// UniformRandomBitGenerator range, so the std:: distributions draw the same
/// values from it. The state is libstdc++'s: 312 untempered words plus the
/// position of the next one, and a word is tempered when it is drawn.
class Mt64 {
 public:
  using result_type = std::uint64_t;

  static constexpr std::size_t kStateSize = 312;

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() {
    return std::numeric_limits<result_type>::max();
  }

  /// Seeds as std::mt19937_64(seed) does.
  explicit Mt64(result_type seed) {
    x_[0] = seed;
    for (std::size_t i = 1; i < kStateSize; ++i) {
      const std::uint64_t prev = x_[i - 1];
      x_[i] = 6364136223846793005ULL * (prev ^ (prev >> 62)) + i;
    }
    p_ = kStateSize;
  }

  /// The next word.
  result_type operator()() {
    if (p_ >= kStateSize) twist();
    std::uint64_t z = x_[p_++];
    z ^= (z >> 29) & 0x5555555555555555ULL;
    z ^= (z << 17) & 0x71d67fffeda60000ULL;
    z ^= (z << 37) & 0xfff7eee000000000ULL;
    z ^= z >> 43;
    return z;
  }

  /// Writes the 312 state words and the position as space-separated
  /// decimals: byte for byte what libstdc++ writes for std::mt19937_64.
  friend std::ostream& operator<<(std::ostream& out, const Mt64& engine);

  /// Reads text written by either engine. Sets failbit, leaving the engine
  /// unchanged, on a short or malformed word list and on a position above
  /// 312 (which libstdc++ accepts unchecked).
  friend std::istream& operator>>(std::istream& in, Mt64& engine);

 private:
  /// Regenerates all 312 words and rewinds the position to 0.
  void twist();

  std::uint64_t x_[kStateSize];
  std::size_t p_;
};

}  // namespace rlblh
