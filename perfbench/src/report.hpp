#pragma once

#include <string>
#include <string_view>

#include "perfbench.hpp"

namespace perfbench {

/// `text` as a JSON string literal (quotes and backslashes escaped, control
/// characters blanked).
[[nodiscard]] std::string json_string(std::string_view text);

/// The host/build fingerprint every result is stamped with, as one JSON
/// object: workload and seed, nproc, CPU model, SIMD vector width, compiler,
/// build type, source id (git sha or source digest, from the caller),
/// backend and thread budget.
[[nodiscard]] std::string host_stamp_json(const Options& options, std::string_view source_id);

/// The result line: {"correct", "attempted", "failed", "metrics": {name:
/// {"value", "unit"}}}.  Values keep all their digits.
[[nodiscard]] std::string result_json(const Outcome& outcome);

/// The context line printed before the result: the stamp, the detail
/// counts and the error rate.
[[nodiscard]] std::string context_json(const Outcome& outcome, const std::string& stamp);

}  // namespace perfbench
