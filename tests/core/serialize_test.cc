#include "core/serialize.h"

#include <cstdio>
#include <sstream>
#include <vector>

#include <gtest/gtest.h>

#include "util/error.h"
#include "util/rng.h"

namespace rlblh {
namespace {

std::vector<double> row(const PerActionLinearQ& q, std::size_t a) {
  const auto weights = q.weights(a);
  return {weights.begin(), weights.end()};
}

PerActionLinearQ sample_q() {
  PerActionLinearQ q(3, 4);
  Rng rng(5);
  for (std::size_t a = 0; a < q.num_actions(); ++a) {
    std::vector<double> weights(q.dimension());
    for (auto& w : weights) w = rng.uniform(-10.0, 10.0);
    q.set_weights(a, weights);
  }
  return q;
}

TEST(Serialize, RoundTripsExactly) {
  const PerActionLinearQ original = sample_q();
  std::ostringstream out;
  save_weights(out, original);
  std::istringstream in(out.str());
  const PerActionLinearQ loaded = load_weights(in);
  ASSERT_EQ(loaded.num_actions(), original.num_actions());
  ASSERT_EQ(loaded.dimension(), original.dimension());
  for (std::size_t a = 0; a < original.num_actions(); ++a) {
    EXPECT_EQ(row(loaded, a), row(original, a));
  }
}

TEST(Serialize, RejectsWrongHeader) {
  std::istringstream in("not-a-weights-file\n");
  EXPECT_THROW(load_weights(in), DataError);
}

TEST(Serialize, RejectsMalformedDimensions) {
  std::istringstream in("rlblh-weights v1\nactions x features 6\n");
  EXPECT_THROW(load_weights(in), DataError);
  std::istringstream zero("rlblh-weights v1\nactions 0 features 6\n");
  EXPECT_THROW(load_weights(zero), DataError);
}

TEST(Serialize, RejectsTruncatedRows) {
  std::istringstream in("rlblh-weights v1\nactions 2 features 3\n1 2 3\n");
  EXPECT_THROW(load_weights(in), DataError);
}

TEST(Serialize, RejectsShortRow) {
  std::istringstream in(
      "rlblh-weights v1\nactions 1 features 3\n1 2\n");
  EXPECT_THROW(load_weights(in), DataError);
}

TEST(Serialize, RejectsOverlongRow) {
  std::istringstream in(
      "rlblh-weights v1\nactions 1 features 2\n1 2 3\n");
  EXPECT_THROW(load_weights(in), DataError);
}

TEST(Serialize, FileRoundTrip) {
  const std::string path = ::testing::TempDir() + "/weights_test.txt";
  const PerActionLinearQ original = sample_q();
  save_weights_file(path, original);
  const PerActionLinearQ loaded = load_weights_file(path);
  EXPECT_EQ(row(loaded, 2), row(original, 2));
  std::remove(path.c_str());
  EXPECT_THROW(load_weights_file(path), DataError);
  EXPECT_THROW(save_weights_file("/no/such/dir/w.txt", original), DataError);
}

TEST(Serialize, PreservesFullDoublePrecision) {
  PerActionLinearQ q(1, 2);
  q.set_weights(0, std::vector<double>{1.0 / 3.0, -2.0e-15});
  std::ostringstream out;
  save_weights(out, q);
  std::istringstream in(out.str());
  const PerActionLinearQ loaded = load_weights(in);
  EXPECT_DOUBLE_EQ(loaded.weights(0)[0], 1.0 / 3.0);
  EXPECT_DOUBLE_EQ(loaded.weights(0)[1], -2.0e-15);
}

}  // namespace
}  // namespace rlblh
