// Self-tests of the benchmark's own helpers: the percentile helper, the
// windowed throughput, the metric-name charset and the self-time arithmetic.  (The live output
// check — a corrupted parent must fail the run — is exercised end to end by
// `python3 perfbench/run.py --self-test`.)
// Exits non-zero on the first failed expectation.

#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "layers.hpp"
#include "perfbench.hpp"

namespace {

int failures = 0;

void expect(bool condition, const char* what) {
  if (condition) return;
  std::fprintf(stderr, "selftest FAILED: %s\n", what);
  ++failures;
}

bool near(double a, double b) { return std::fabs(a - b) <= 1e-9 * std::max(1.0, std::fabs(b)); }

void percentile_helper() {
  using perfbench::percentile;
  expect(percentile({}, 0.5) == 0.0, "empty sample -> 0");
  expect(percentile({7.0}, 0.9) == 7.0, "single sample");
  expect(near(percentile({3, 1, 2}, 0.5), 2.0), "median of unsorted input");
  expect(near(percentile({1, 2, 3, 4}, 0.5), 2.5), "median interpolates");
  std::vector<double> hundred;
  for (int i = 1; i <= 100; ++i) hundred.push_back(i);
  expect(near(percentile(hundred, 0.9), 90.1), "p90 of 1..100 (inclusive method)");
  expect(near(percentile(hundred, 0.0), 1.0) && near(percentile(hundred, 1.0), 100.0),
         "p0 / p100 are min / max");
  expect(near(percentile(hundred, 2.0), 100.0), "q clamps to [0, 1]");
}

void windowed_throughput() {
  using perfbench::windowed_throughput;
  expect(windowed_throughput({}, {}, 4) == 0.0, "no ops -> 0");
  // Windows of 2: (10 pts / 1 s), (10 / 2 s), (10 / 0.5 s); the trailing
  // partial window is dropped.  Median of {10, 5, 20} is 10.
  expect(near(windowed_throughput({0.5, 0.5, 1, 1, 0.25, 0.25, 9}, {5, 5, 5, 5, 5, 5, 5}, 2),
              10.0),
         "median over full windows");
  expect(near(windowed_throughput({1, 3}, {4, 4}, 8), 2.0), "a sole partial window counts");
  expect(near(windowed_throughput({2}, {6}, 0), 3.0), "window 0 acts as 1");
}

void metric_name_charset() {
  using perfbench::valid_metric_name;
  expect(valid_metric_name("latency_p50_ms"), "plain name");
  expect(valid_metric_name("layer.spatial.self_ms"), "dots");
  expect(valid_metric_name("a-b_c.9"), "dash, underscore, digit");
  expect(valid_metric_name("9lives"), "leading digit");
  expect(!valid_metric_name(""), "empty");
  expect(!valid_metric_name("_leading"), "leading underscore");
  expect(!valid_metric_name(".leading"), "leading dot");
  expect(!valid_metric_name("has space"), "space");
  expect(!valid_metric_name("slash/name"), "slash");
  expect(!valid_metric_name("brace{x}"), "braces");
  expect(!valid_metric_name(std::string(65, 'a')), "longer than 64");
  expect(valid_metric_name(std::string(64, 'a')), "64 characters");
}

void self_time() {
  // A 10 ms parent with two children covering [2, 5) and [4, 8) ms: the
  // union covers 6 ms, so the parent's layer keeps 4 ms of self time.
  perfbench::LayerTrace trace;
  using perfbench::Layer;
  trace.add({"parent", Layer::serve, 1, 0, 0, 10'000'000});
  trace.add({"child_a", Layer::dendrogram, 2, 1, 2'000'000, 5'000'000});
  trace.add({"child_b", Layer::dendrogram, 3, 1, 4'000'000, 8'000'000});
  const std::array<double, 7> self = trace.self_ms_by_layer();
  expect(near(self[static_cast<std::size_t>(Layer::serve)], 4.0), "parent self time");
  expect(near(self[static_cast<std::size_t>(Layer::dendrogram)], 7.0), "children self time");

  // Derived children are laid end to end from the cursor.
  std::uint64_t cursor = 0;
  trace.add({"root", Layer::snapshot, 10, 0, 0, 3'000'000});
  trace.add_derived(10, "phase_a", Layer::hdbscan, 0.001, &cursor);
  trace.add_derived(10, "phase_b", Layer::hdbscan, 0.001, &cursor);
  expect(cursor == 2'000'000, "derived spans advance the cursor");
  const std::array<double, 7> after = trace.self_ms_by_layer();
  expect(near(after[static_cast<std::size_t>(Layer::snapshot)], 1.0), "root keeps 1 ms");
  expect(near(trace.total_ms_by_name().at("phase_a"), 1.0), "total by name");
}

}  // namespace

int main() {
  percentile_helper();
  windowed_throughput();
  metric_name_charset();
  self_time();
  if (failures == 0) std::printf("perfbench selftest: all checks passed\n");
  return failures == 0 ? 0 : 1;
}
