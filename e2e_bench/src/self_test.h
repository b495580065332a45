#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace e2e {

/// Runs the benchmark's self-tests; appends a line per failure to `notes`
/// and returns the number of failures. Temporary files go under `work_dir`.
std::size_t run_self_tests(const std::string& work_dir,
                           std::vector<std::string>& notes);

}  // namespace e2e
