#include "util/mt64.h"

#include <istream>
#include <ostream>

namespace rlblh {

namespace {
constexpr std::size_t kShift = 156;  // m: the partner word's distance
constexpr std::uint64_t kUpper = ~std::uint64_t{0} << 31;
constexpr std::uint64_t kLower = ~kUpper;
constexpr std::uint64_t kA = 0xb5026f5aa96619e9ULL;

/// One twisted word from the word itself, its successor and its partner m
/// places on. The low bit of y is the successor's, so the conditional xor
/// by `a` becomes an all-ones or all-zeros mask of that bit.
inline std::uint64_t twisted(std::uint64_t self, std::uint64_t next,
                             std::uint64_t far) {
  const std::uint64_t y = (self & kUpper) | (next & kLower);
  return far ^ (y >> 1) ^ ((0 - (next & 1)) & kA);
}
}  // namespace

void Mt64::twist() {
  constexpr std::size_t n = kStateSize;
  for (std::size_t k = 0; k < n - kShift; ++k) {
    x_[k] = twisted(x_[k], x_[k + 1], x_[k + kShift]);
  }
  for (std::size_t k = n - kShift; k < n - 1; ++k) {
    x_[k] = twisted(x_[k], x_[k + 1], x_[k + kShift - n]);
  }
  x_[n - 1] = twisted(x_[n - 1], x_[0], x_[kShift - 1]);
  p_ = 0;
}

std::ostream& operator<<(std::ostream& out, const Mt64& engine) {
  // libstdc++'s flags and fill, restored afterwards; a width set by the
  // caller applies to the first word, as it does there.
  const std::ios_base::fmtflags flags = out.flags();
  const char fill = out.fill();
  out.flags(std::ios_base::dec | std::ios_base::fixed | std::ios_base::left);
  out.fill(' ');
  for (const std::uint64_t word : engine.x_) out << word << ' ';
  out << engine.p_;
  out.flags(flags);
  out.fill(fill);
  return out;
}

std::istream& operator>>(std::istream& in, Mt64& engine) {
  const std::ios_base::fmtflags flags = in.flags();
  in.flags(std::ios_base::dec | std::ios_base::skipws);
  Mt64 read = engine;
  for (std::uint64_t& word : read.x_) in >> word;
  in >> read.p_;
  if (in && read.p_ > Mt64::kStateSize) in.setstate(std::ios_base::failbit);
  if (in) engine = read;
  in.flags(flags);
  return in;
}

}  // namespace rlblh
