// The repository benchmark binary.  Runs one workload and prints two JSON
// lines on stdout: the context (host/build stamp, sample counts, error
// rate), then the result (correct, attempted, failed, metrics).  Exits 1
// when any op failed or its output check did not hold, 2 on a usage error.
//
//   perfbench --workload <hdbscan_cold|dendrogram_skew|batch_small|serve_churn>
//             --seed <n> --seconds <s> --trace <0|1>
//             [--trace-out <chrome trace path>] [--source <id>] [--corrupt]

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <map>
#include <string>

#include "perfbench.hpp"
#include "report.hpp"

namespace {

using perfbench::Options;
using perfbench::Outcome;

int usage(const char* message) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1> [--trace-out <path>] [--source <id>] [--corrupt]\n",
               message);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  const std::map<std::string, Outcome (*)(const Options&)> workloads = {
      {"hdbscan_cold", perfbench::run_hdbscan_cold},
      {"dendrogram_skew", perfbench::run_dendrogram_skew},
      {"batch_small", perfbench::run_batch_small},
      {"serve_churn", perfbench::run_serve_churn},
  };

  Options options;
  std::string source = "unknown";
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--corrupt") {
      options.corrupt = true;
      continue;
    }
    if (i + 1 >= argc) return usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), &end, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value.c_str(), &end);
    } else if (flag == "--trace") {
      options.trace = value == "1";
      if (value != "0" && value != "1") return usage("--trace takes 0 or 1");
    } else if (flag == "--trace-out") {
      options.trace_out = value;
    } else if (flag == "--source") {
      source = value;
    } else {
      return usage(("unknown flag " + flag).c_str());
    }
    if (end != nullptr && (*end != '\0' || value.empty()))
      return usage(("not a number: " + value).c_str());
  }
  const auto workload = workloads.find(options.workload);
  if (workload == workloads.end()) return usage("unknown or missing --workload");
  if (!(options.seconds > 0)) return usage("--seconds must be positive");

  Outcome outcome;
  try {
    outcome = workload->second(options);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", options.workload.c_str(), error.what());
    return 1;
  }
  for (const perfbench::Metric& metric : outcome.metrics)
    if (!perfbench::valid_metric_name(metric.name)) {
      std::fprintf(stderr, "perfbench: invalid metric name '%s'\n", metric.name.c_str());
      return 2;
    }

  std::printf("%s\n", perfbench::context_json(outcome, perfbench::host_stamp_json(options, source))
                          .c_str());
  std::printf("%s\n", perfbench::result_json(outcome).c_str());
  return outcome.failed == 0 && outcome.attempted > 0 ? 0 : 1;
}
