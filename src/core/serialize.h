// Persistence for learned action-value functions.
//
// A deployed controller must survive restarts without relearning from
// scratch (the whole point of the 48-weight footprint is that the learned
// state is trivially small). The format is a line-oriented text file:
//
//     rlblh-weights v1
//     actions <a_M> features <dim>
//     <w_0> <w_1> ... <w_{dim-1}>      # one line per action, in order
//
// Loading validates the header and dimensions and fails loudly on any
// mismatch or malformed number.
#pragma once

#include <iosfwd>
#include <string>

#include "battery/battery.h"
#include "core/qfunction.h"
#include "util/rng.h"

namespace rlblh {

/// Writes the weight tables to a stream in the v1 text format.
void save_weights(std::ostream& out, const PerActionLinearQ& q);

/// Parses a v1 weight file. Throws DataError on malformed input.
PerActionLinearQ load_weights(std::istream& in);

/// File convenience wrappers. Throw DataError when the file cannot be
/// opened.
void save_weights_file(const std::string& path, const PerActionLinearQ& q);
PerActionLinearQ load_weights_file(const std::string& path);

// --- checkpoint primitives (daemon restart path) -------------------------
//
// rlblh_serve persists each household's full controller state at day
// boundaries; these are the shared building blocks. Everything is
// line-oriented text at max_digits10 precision, which round-trips IEEE
// doubles exactly — the same "bitwise through text" property the weight
// format has relied on since v1.

/// Writes the RNG engine state (312 untempered words plus the position) on
/// one line. Rng's engine is the in-repo branch-free MT19937-64, whose text
/// is byte for byte what libstdc++ writes for a std::mt19937_64 in the same
/// state, so `rlblh-policy v1` checkpoints are unchanged by the engine swap
/// and the line also loads into a std::mt19937_64.
void save_rng(std::ostream& out, const Rng& rng);

/// Restores an Rng whose subsequent draw stream is bitwise identical to the
/// saved generator's (or to that of the std::mt19937_64 whose text it is).
/// Throws DataError on malformed input: a short word list, a position above
/// 312, or anything else on the line.
Rng load_rng(std::istream& in);

/// Writes the battery's dynamic state: level and the cumulative violation
/// accounting. Capacity/efficiencies are configuration, echoed only for
/// validation on load.
void save_battery(std::ostream& out, const Battery& battery);

/// Restores state written by save_battery into a battery constructed with
/// the identical configuration. Throws DataError on mismatch.
void load_battery(std::istream& in, Battery& battery);

}  // namespace rlblh
