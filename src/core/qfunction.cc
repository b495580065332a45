#include "core/qfunction.h"

#include <algorithm>

namespace rlblh {

namespace {
std::size_t checked_size(std::size_t num_actions, std::size_t dimension) {
  RLBLH_REQUIRE(num_actions >= 1, "PerActionLinearQ: need >= 1 action");
  RLBLH_REQUIRE(dimension >= 1, "PerActionLinearQ: dimension must be >= 1");
  return num_actions * dimension;
}
}  // namespace

PerActionLinearQ::PerActionLinearQ(std::size_t num_actions,
                                   std::size_t dimension)
    : num_actions_(num_actions),
      dimension_(dimension),
      weights_(checked_size(num_actions, dimension), 0.0) {}

void PerActionLinearQ::set_weights(std::size_t a,
                                   std::span<const double> weights) {
  check_action(a);
  RLBLH_REQUIRE(weights.size() == dimension_,
                "PerActionLinearQ: dimension mismatch");
  std::copy(weights.begin(), weights.end(),
            weights_.begin() + static_cast<std::ptrdiff_t>(a * dimension_));
}

}  // namespace rlblh
