// Round-trip property for the weight-file format: deserialize(serialize(q))
// must reproduce every weight bit-for-bit, for any table shape and any
// finite weight values (the v1 text format writes 17 significant digits,
// which is lossless for IEEE-754 doubles).
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdlib>
#include <sstream>
#include <string>
#include <vector>

#include "core/qfunction.h"
#include "core/serialize.h"
#include "util/proptest.h"

namespace rlblh {
namespace {

/// Shape + weights of a Q table, as a plain value the domain can shrink.
struct QSpec {
  std::size_t actions = 1;
  std::size_t dimension = 1;
  std::vector<double> weights;  // actions * dimension, row-major
};

PerActionLinearQ materialize(const QSpec& spec) {
  PerActionLinearQ q(spec.actions, spec.dimension);
  for (std::size_t a = 0; a < spec.actions; ++a) {
    std::vector<double> row(spec.weights.begin() +
                                static_cast<std::ptrdiff_t>(a * spec.dimension),
                            spec.weights.begin() +
                                static_cast<std::ptrdiff_t>((a + 1) *
                                                            spec.dimension));
    q.set_weights(a, row);
  }
  return q;
}

/// Weight values spanning the magnitudes learning can reach, plus the
/// awkward corners of the decimal round-trip: zeros of both signs, tiny and
/// huge magnitudes, and values with no short decimal representation.
double gen_weight(Rng& rng) {
  switch (rng.uniform_int(0, 5)) {
    case 0:
      return 0.0;
    case 1:
      return -0.0;
    case 2:
      return rng.uniform(-1.0, 1.0);
    case 3:
      return rng.uniform(-1e3, 1e3);
    case 4:
      return rng.uniform(-1.0, 1.0) * 1e-300;
    default:
      return rng.uniform(-1.0, 1.0) * 1e300;
  }
}

proptest::Domain<QSpec> qspec_domain() {
  proptest::Domain<QSpec> domain;
  domain.generate = [](Rng& rng) {
    QSpec spec;
    spec.actions = static_cast<std::size_t>(rng.uniform_int(1, 16));
    spec.dimension = static_cast<std::size_t>(rng.uniform_int(1, 12));
    spec.weights.resize(spec.actions * spec.dimension);
    for (double& w : spec.weights) w = gen_weight(rng);
    return spec;
  };
  domain.shrink = [](const QSpec& from) {
    std::vector<QSpec> out;
    if (from.actions > 1) {
      QSpec c = from;
      c.actions = 1;
      c.weights.assign(from.weights.begin(),
                       from.weights.begin() +
                           static_cast<std::ptrdiff_t>(from.dimension));
      out.push_back(std::move(c));
    }
    if (from.dimension > 1) {
      QSpec c = from;
      c.dimension = 1;
      c.weights.clear();
      for (std::size_t a = 0; a < from.actions; ++a) {
        c.weights.push_back(from.weights[a * from.dimension]);
      }
      out.push_back(std::move(c));
    }
    // Zeroing all weights isolates shape bugs from value-format bugs.
    bool any_nonzero = false;
    for (const double w : from.weights) any_nonzero |= (w != 0.0);
    if (any_nonzero) {
      QSpec c = from;
      for (double& w : c.weights) w = 0.0;
      out.push_back(std::move(c));
    }
    return out;
  };
  domain.describe = [](const QSpec& spec) {
    std::ostringstream out;
    out.precision(17);
    out << "QSpec{actions=" << spec.actions << " dim=" << spec.dimension
        << " weights=[";
    for (std::size_t i = 0; i < spec.weights.size(); ++i) {
      if (i > 0) out << ", ";
      out << spec.weights[i];
    }
    out << "]}";
    return out.str();
  };
  return domain;
}

TEST(SerializeProptest, RoundTripIsBitwiseExact) {
  const auto result = for_all(
      "serialize round-trip", qspec_domain(),
      [](const QSpec& spec, Rng&) {
        const PerActionLinearQ original = materialize(spec);
        std::stringstream stream;
        save_weights(stream, original);
        const PerActionLinearQ loaded = load_weights(stream);

        PROPTEST_CHECK(loaded.num_actions() == original.num_actions(),
                       "action count changed across the round trip");
        PROPTEST_CHECK(loaded.dimension() == original.dimension(),
                       "feature dimension changed across the round trip");
        for (std::size_t a = 0; a < original.num_actions(); ++a) {
          const auto before = original.weights(a);
          const auto after = loaded.weights(a);
          for (std::size_t i = 0; i < before.size(); ++i) {
            const auto bits_before = std::bit_cast<std::uint64_t>(before[i]);
            const auto bits_after = std::bit_cast<std::uint64_t>(after[i]);
            if (bits_before != bits_after) {
              std::ostringstream what;
              what.precision(17);
              what << "weight [" << a << "][" << i << "] " << before[i]
                   << " reloaded as " << after[i] << " (bit patterns differ)";
              throw proptest::PropertyFailure(what.str());
            }
          }
        }
      });
  ASSERT_TRUE(result.success) << result.message;
  // 100 cases by default; RLBLH_PROPTEST_ITERS / RLBLH_PROPTEST_SEED scale
  // or pin the run deliberately.
  const bool scaled = std::getenv("RLBLH_PROPTEST_ITERS") != nullptr ||
                      std::getenv("RLBLH_PROPTEST_SEED") != nullptr;
  EXPECT_GE(result.iterations_run, scaled ? 1u : 100u);
}

}  // namespace
}  // namespace rlblh
