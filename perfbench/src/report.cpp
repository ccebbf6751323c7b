#include "report.hpp"

#include <cmath>
#include <cstdio>
#include <fstream>
#include <string>

#include "pandora/exec/backend.hpp"
#include "pandora/exec/executor.hpp"
#include "pandora/spatial/distance.hpp"
#include "perfbench.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

namespace {

std::string cpu_model() {
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) != 0) continue;
    const std::size_t colon = line.find(':');
    if (colon == std::string::npos) break;
    const std::size_t begin = line.find_first_not_of(' ', colon + 1);
    return begin == std::string::npos ? "" : line.substr(begin);
  }
  return "unknown";
}

std::string json_number(double value) {
  if (!std::isfinite(value)) return "null";  // never a valid metric value
  char buffer[32];
  std::snprintf(buffer, sizeof buffer, "%.17g", value);
  return buffer;
}

}  // namespace

std::string json_string(std::string_view text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string host_stamp_json(const Options& options, std::string_view source_id) {
  const pandora::exec::Executor exec(pandora::exec::default_backend(), hardware_threads());
  std::string out = "{";
  out += "\"workload\": " + json_string(options.workload);
  out += ", \"seed\": " + std::to_string(options.seed);
  out += ", \"trace\": " + std::string(options.trace ? "true" : "false");
  out += ", \"nproc\": " + std::to_string(hardware_threads());
  out += ", \"cpu_model\": " + json_string(cpu_model());
  out += ", \"simd_vector_width\": " +
         std::to_string(pandora::spatial::distance::simd_vector_width());
  out += ", \"compiler\": " + json_string(std::string("g++ ") + __VERSION__);
  out += ", \"build_type\": " + json_string(PERFBENCH_BUILD_TYPE);
  out += ", \"source\": " + json_string(source_id);
  out += ", \"backend\": " + json_string(exec.name());
  out += ", \"threads\": " + std::to_string(exec.num_threads());
  return out + "}";
}

std::string result_json(const Outcome& outcome) {
  std::string out = "{\"correct\": ";
  out += outcome.failed == 0 ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(outcome.attempted);
  out += ", \"failed\": " + std::to_string(outcome.failed);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < outcome.metrics.size(); ++i) {
    const Metric& metric = outcome.metrics[i];
    if (i > 0) out += ", ";
    out += json_string(metric.name) + ": {\"value\": " + json_number(metric.value) +
           ", \"unit\": " + json_string(metric.unit) + "}";
  }
  return out + "}}";
}

std::string context_json(const Outcome& outcome, const std::string& stamp) {
  std::string out = "{\"perfbench\": {\"stamp\": " + stamp + ", \"detail\": {";
  bool first = true;
  for (const auto& [name, value] : outcome.detail) {
    if (!first) out += ", ";
    first = false;
    out += json_string(name) + ": " + json_number(value);
  }
  const double error_rate = outcome.attempted > 0 ? static_cast<double>(outcome.failed) /
                                                        static_cast<double>(outcome.attempted)
                                                  : 1.0;
  return out + "}, \"error_rate\": " + json_number(error_rate) + "}}";
}

}  // namespace perfbench
