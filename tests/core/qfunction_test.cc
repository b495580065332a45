#include "core/qfunction.h"

#include <array>
#include <vector>

#include <gtest/gtest.h>

#include "util/error.h"
#include "util/rng.h"

namespace rlblh {
namespace {

TEST(PerActionLinearQ, RejectsBadConstruction) {
  EXPECT_THROW(PerActionLinearQ(0, 6), ConfigError);
  EXPECT_THROW(PerActionLinearQ(4, 0), ConfigError);
}

TEST(PerActionLinearQ, RejectsEmptyWeightRow) {
  // A row has no zero-length form: the table refuses a zero feature
  // dimension, and a row write must carry exactly `dimension()` weights.
  EXPECT_THROW(PerActionLinearQ(1, 0), ConfigError);
  EXPECT_THROW(PerActionLinearQ(0, 0), ConfigError);
  PerActionLinearQ q(1, 3);
  EXPECT_THROW(q.set_weights(0, std::vector<double>{}), ConfigError);
}

TEST(PerActionLinearQ, ZeroInitialized) {
  const PerActionLinearQ q(2, 3);
  const std::array<double, 3> x{1.0, 2.0, 3.0};
  EXPECT_DOUBLE_EQ(q.value(x, 0), 0.0);
  EXPECT_DOUBLE_EQ(q.value(x, 1), 0.0);
  for (std::size_t a = 0; a < 2; ++a) {
    ASSERT_EQ(q.weights(a).size(), 3u);
    for (const double w : q.weights(a)) EXPECT_EQ(w, 0.0);
  }
}

TEST(PerActionLinearQ, ValueIsDotProduct) {
  PerActionLinearQ q(2, 3);
  q.set_weights(1, std::vector<double>{1.0, -2.0, 0.5});
  const std::array<double, 3> x{2.0, 1.0, 4.0};
  EXPECT_DOUBLE_EQ(q.value(x, 1), 2.0 - 2.0 + 2.0);
  EXPECT_DOUBLE_EQ(q.dot(1, x.data()), q.value(x, 1));
  EXPECT_DOUBLE_EQ(q.value(x, 0), 0.0);
}

TEST(PerActionLinearQ, FeatureDimensionMismatchThrows) {
  PerActionLinearQ q(2, 3);
  const std::array<double, 2> x{1.0, 2.0};
  EXPECT_THROW(q.value(x, 0), ConfigError);
  EXPECT_THROW(q.sgd_update(0, x, 1.0, 0.1), ConfigError);
  EXPECT_THROW(q.argmax(x, {0, 1}), ConfigError);
}

TEST(PerActionLinearQ, SgdUpdateMatchesEquation18) {
  // w_i <- w_i + alpha * delta * f_i, on the updated row only.
  PerActionLinearQ q(2, 2);
  q.set_weights(0, std::vector<double>{1.0, 1.0});
  q.set_weights(1, std::vector<double>{1.0, 1.0});
  const std::array<double, 2> x{2.0, -1.0};
  q.sgd_update(0, x, /*error=*/0.5, /*step=*/0.1);
  EXPECT_DOUBLE_EQ(q.weights(0)[0], 1.0 + 0.1 * 0.5 * 2.0);
  EXPECT_DOUBLE_EQ(q.weights(0)[1], 1.0 + 0.1 * 0.5 * -1.0);
  EXPECT_DOUBLE_EQ(q.weights(1)[0], 1.0);
  EXPECT_DOUBLE_EQ(q.weights(1)[1], 1.0);
}

TEST(PerActionLinearQ, SgdConvergesToLeastSquaresTarget) {
  // Supervised regression sanity check: y = 3 x0 - 2 x1 + 1.
  PerActionLinearQ q(1, 3);
  Rng rng(1);
  for (int step = 0; step < 20000; ++step) {
    const std::array<double, 3> x{1.0, rng.uniform(-1.0, 1.0),
                                  rng.uniform(-1.0, 1.0)};
    const double target = 1.0 + 3.0 * x[1] - 2.0 * x[2];
    q.sgd_update(0, x, target - q.value(x, 0), 0.05);
  }
  EXPECT_NEAR(q.weights(0)[0], 1.0, 0.05);
  EXPECT_NEAR(q.weights(0)[1], 3.0, 0.05);
  EXPECT_NEAR(q.weights(0)[2], -2.0, 0.05);
}

TEST(PerActionLinearQ, SetWeights) {
  PerActionLinearQ q(2, 2);
  q.set_weights(1, std::vector<double>{4.0, 5.0});
  const std::array<double, 2> x{1.0, 1.0};
  EXPECT_DOUBLE_EQ(q.value(x, 1), 9.0);
  EXPECT_DOUBLE_EQ(q.value(x, 0), 0.0);
  EXPECT_THROW(q.set_weights(1, std::vector<double>{1.0}), ConfigError);
  EXPECT_THROW(q.set_weights(2, std::vector<double>{1.0, 2.0}), ConfigError);
}

TEST(PerActionLinearQ, ParameterCountMatchesPaperClaim) {
  // Section VIII: "RL-BLH has to deal with only 40 unknowns" — the paper
  // counts w_i for i = 0..5 per action but quotes 40; with a_M = 8 actions
  // and 6 features the table is 48 weights. Either way it is O(10), not
  // O(10^7) like the MDP table.
  const PerActionLinearQ q(8, 6);
  EXPECT_EQ(q.parameter_count(), 48u);
  EXPECT_EQ(q.num_actions(), 8u);
  EXPECT_EQ(q.dimension(), 6u);
}

TEST(PerActionLinearQ, ActionsAreIndependent) {
  PerActionLinearQ q(3, 2);
  const std::array<double, 2> f{1.0, 2.0};
  q.sgd_update(1, f, 1.0, 0.5);  // w1 += 0.5 * 1.0 * f
  EXPECT_DOUBLE_EQ(q.value(f, 0), 0.0);
  EXPECT_DOUBLE_EQ(q.value(f, 1), 0.5 * (1.0 + 4.0));
  EXPECT_DOUBLE_EQ(q.value(f, 2), 0.0);
}

TEST(PerActionLinearQ, ArgmaxOverAllowedSubset) {
  PerActionLinearQ q(3, 1);
  const std::array<double, 1> f{1.0};
  q.set_weights(0, std::vector<double>{1.0});
  q.set_weights(1, std::vector<double>{3.0});
  q.set_weights(2, std::vector<double>{2.0});
  EXPECT_EQ(q.argmax(f, {0, 1, 2}), 1u);
  EXPECT_EQ(q.argmax(f, {0, 2}), 2u);   // best overall not allowed
  EXPECT_EQ(q.argmax(f, {0}), 0u);
  EXPECT_DOUBLE_EQ(q.max_value(f, {0, 2}), 2.0);
  EXPECT_THROW(q.argmax(f, {}), ConfigError);
}

TEST(PerActionLinearQ, ArgmaxTieBreaksTowardEarlierCandidate) {
  PerActionLinearQ q(2, 1);
  const std::array<double, 1> f{1.0};
  EXPECT_EQ(q.argmax(f, {0, 1}), 0u);  // both zero
  EXPECT_EQ(q.argmax(f, {1, 0}), 1u);
}

TEST(PerActionLinearQ, OutOfRangeActionThrows) {
  PerActionLinearQ q(2, 1);
  const std::array<double, 1> f{1.0};
  EXPECT_THROW(q.value(f, 2), ConfigError);
  EXPECT_THROW(q.sgd_update(2, f, 1.0, 0.1), ConfigError);
  EXPECT_THROW(q.weights(2), ConfigError);
}

}  // namespace
}  // namespace rlblh
