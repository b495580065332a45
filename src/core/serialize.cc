#include "core/serialize.h"

#include <fstream>
#include <sstream>
#include <vector>

#include "util/error.h"

namespace rlblh {

namespace {
constexpr const char* kMagic = "rlblh-weights v1";
}

void save_weights(std::ostream& out, const PerActionLinearQ& q) {
  out << kMagic << '\n';
  out << "actions " << q.num_actions() << " features " << q.dimension()
      << '\n';
  out.precision(17);
  for (std::size_t a = 0; a < q.num_actions(); ++a) {
    const auto weights = q.weights(a);
    for (std::size_t i = 0; i < weights.size(); ++i) {
      if (i > 0) out << ' ';
      out << weights[i];
    }
    out << '\n';
  }
}

PerActionLinearQ load_weights(std::istream& in) {
  std::string line;
  if (!std::getline(in, line) || line != kMagic) {
    throw DataError("weights: missing or wrong header (expected '" +
                    std::string(kMagic) + "')");
  }
  std::string actions_word, features_word;
  std::size_t actions = 0, dimension = 0;
  if (!std::getline(in, line)) {
    throw DataError("weights: truncated file (no dimensions line)");
  }
  {
    std::istringstream dims(line);
    if (!(dims >> actions_word >> actions >> features_word >> dimension) ||
        actions_word != "actions" || features_word != "features" ||
        actions == 0 || dimension == 0) {
      throw DataError("weights: malformed dimensions line '" + line + "'");
    }
  }
  PerActionLinearQ q(actions, dimension);
  for (std::size_t a = 0; a < actions; ++a) {
    if (!std::getline(in, line)) {
      throw DataError("weights: truncated file (expected " +
                      std::to_string(actions) + " weight rows)");
    }
    std::istringstream row(line);
    std::vector<double> weights(dimension, 0.0);
    for (std::size_t i = 0; i < dimension; ++i) {
      if (!(row >> weights[i])) {
        throw DataError("weights: malformed row for action " +
                        std::to_string(a));
      }
    }
    double extra = 0.0;
    if (row >> extra) {
      throw DataError("weights: too many values for action " +
                      std::to_string(a));
    }
    q.set_weights(a, weights);
  }
  return q;
}

void save_weights_file(const std::string& path, const PerActionLinearQ& q) {
  std::ofstream out(path);
  if (!out) throw DataError("weights: cannot open '" + path + "' for write");
  save_weights(out, q);
}

PerActionLinearQ load_weights_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw DataError("weights: cannot open '" + path + "'");
  return load_weights(in);
}

void save_rng(std::ostream& out, const Rng& rng) {
  // The engine writes the full 312-word state plus the position counter as
  // decimal integers (std::mt19937_64's text) — exact by construction.
  out << "rng " << rng.engine() << '\n';
}

Rng load_rng(std::istream& in) {
  std::string word;
  if (!(in >> word) || word != "rng") {
    throw DataError("rng: missing or wrong header (expected 'rng')");
  }
  // The state is the rest of the line, so a short word list cannot borrow
  // numbers from the lines after it.
  std::string line;
  std::getline(in, line);
  std::istringstream state(line);
  Rng rng(0);
  if (!(state >> rng.engine())) {
    throw DataError(
        "rng: malformed engine state (expected 312 words and a position in "
        "[0, 312])");
  }
  if (state >> word) {
    throw DataError("rng: unexpected '" + word + "' after the engine state");
  }
  return rng;
}

void save_battery(std::ostream& out, const Battery& battery) {
  const auto precision = out.precision(17);
  out << "battery " << battery.capacity() << ' '
      << battery.charge_efficiency() << ' ' << battery.discharge_efficiency()
      << ' ' << battery.level() << ' ' << battery.violation_count() << ' '
      << battery.total_wasted_charge() << ' ' << battery.total_grid_extra()
      << '\n';
  out.precision(precision);
}

void load_battery(std::istream& in, Battery& battery) {
  std::string word;
  double capacity = 0.0, charge_eff = 0.0, discharge_eff = 0.0, level = 0.0;
  std::size_t violations = 0;
  double wasted = 0.0, grid_extra = 0.0;
  if (!(in >> word >> capacity >> charge_eff >> discharge_eff >> level >>
        violations >> wasted >> grid_extra) ||
      word != "battery") {
    throw DataError("battery: malformed state line");
  }
  if (capacity != battery.capacity() ||
      charge_eff != battery.charge_efficiency() ||
      discharge_eff != battery.discharge_efficiency()) {
    throw DataError("battery: configuration mismatch (capacity/efficiency)");
  }
  battery.restore(level, violations, wasted, grid_extra);
}

}  // namespace rlblh
