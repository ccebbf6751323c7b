// dendrogram_skew: MST in, dendrogram out (the operation of the paper's
// Fig. 11).  One client thread runs closed-loop `pandora_dendrogram` calls
// on a default executor (nproc threads, caching on) over 250k-vertex trees
// whose shapes span the skewness range; the pool of distinct MSTs is larger
// than the ArtifactCache, so every call sorts afresh.

#include <algorithm>
#include <array>
#include <memory>
#include <numeric>
#include <string_view>

#include "layers.hpp"
#include "pandora/common/rng.hpp"
#include "pandora/data/tree_generators.hpp"
#include "pandora/dendrogram/contraction.hpp"
#include "pandora/dendrogram/pandora.hpp"
#include "pandora/dendrogram/sorted_edges.hpp"
#include "pandora/dendrogram/union_find_dendrogram.hpp"
#include "perfbench.hpp"

namespace perfbench {

namespace {

namespace px = pandora::exec;
namespace pdata = pandora::data;

// 250k, not 1M: at 1M the process holds ~1 GB (20 trees, their references
// and a cache full of 20 MB sorted-edge artifacts) and a run only ~170 ops,
// whose median swung more between runs; at 250k it holds 275 MB and ~900.
constexpr index_t kVertices = 250000;
constexpr int kPool = 20;  // > ArtifactCache::kDefaultSlots (16); 5 trees per shape
constexpr std::size_t kThroughputWindow = 2 * kPool;  // ops: whole passes, ~1.4 s

enum Shape { random_attachment, preferential, caterpillar, star, kShapes };
constexpr std::array<const char*, kShapes> kShapeNames = {"random", "preferential", "caterpillar",
                                                          "star"};

/// Shape i % 4 of pool entry i.  Deterministic topologies (caterpillar,
/// star) get distinct instances through random weights or a random vertex
/// relabelling, so no two pool entries share a fingerprint.
pandora::graph::EdgeList make_tree(Shape shape, std::uint64_t seed) {
  pandora::Rng rng(seed);
  pandora::graph::EdgeList tree;
  switch (shape) {
    case random_attachment:
      tree = pdata::random_attachment_tree(kVertices, rng);
      pdata::assign_random_weights(tree, rng);
      break;
    case preferential:
      tree = pdata::preferential_attachment_tree(kVertices, rng);
      pdata::assign_random_weights(tree, rng, 256);  // quantised: many ties
      break;
    case caterpillar:
      tree = pdata::caterpillar_tree(kVertices);
      pdata::assign_random_weights(tree, rng);
      break;
    case star: {
      // Increasing weights: the single-chain worst case of Theorem 4.
      tree = pdata::star_tree(kVertices);
      pdata::assign_increasing_weights(tree);
      std::vector<index_t> label(static_cast<std::size_t>(kVertices));
      std::iota(label.begin(), label.end(), index_t{0});
      for (std::size_t i = label.size() - 1; i > 0; --i)
        std::swap(label[i], label[static_cast<std::size_t>(rng.next_below(i + 1))]);
      for (auto& e : tree) {
        e.u = label[static_cast<std::size_t>(e.u)];
        e.v = label[static_cast<std::size_t>(e.v)];
      }
      break;
    }
    case kShapes:
      break;
  }
  return tree;
}

/// Levels of PANDORA's contraction hierarchy over `mst`.
double contraction_levels(const px::Executor& exec, const pandora::graph::EdgeList& mst) {
  const pandora::dendrogram::SortedEdges sorted =
      pandora::dendrogram::sort_edges(exec, mst, kVertices);
  return static_cast<double>(pandora::dendrogram::build_hierarchy(exec, sorted.u, sorted.v, {},
                                                                  kVertices, sorted.num_edges())
                                 .num_levels());
}

struct State {
  std::vector<pandora::graph::EdgeList> pool;
  px::Executor exec{px::default_backend(), hardware_threads()};
};

std::unique_ptr<State> make_state(std::uint64_t seed) {
  auto state = std::make_unique<State>();
  for (int i = 0; i < kPool; ++i)
    state->pool.push_back(make_tree(static_cast<Shape>(i % kShapes), derive_seed(seed, 2, i)));
  // Warm the arena on the last entry, which the loop reaches only after the
  // rest of the pool has cycled its sorted edges out of the cache.
  (void)pandora::dendrogram::pandora_dendrogram(state->exec, state->pool.back(), kVertices);
  return state;
}

}  // namespace

Outcome run_dendrogram_skew(const Options& options) {
  Outcome outcome;
  std::vector<double> setup_seconds;
  const std::unique_ptr<State> state =
      repeated_setup(options.trace, setup_seconds, [&] { return make_state(options.seed); });
  const px::Executor& exec = state->exec;

  // Union-find references, outside set-up and the timed window.
  std::vector<const pandora::graph::EdgeList*> trees;
  for (const auto& tree : state->pool) trees.push_back(&tree);
  const std::vector<std::vector<index_t>> references =
      union_find_references(trees, std::vector<index_t>(trees.size(), kVertices));

  std::unique_ptr<LayerTrace> trace = options.trace ? std::make_unique<LayerTrace>() : nullptr;
  // The traced run times union-find on its own cache-less executor, so its
  // sort neither hits nor fills the measured executor's cache.
  const px::Executor union_find_exec(px::default_backend(), hardware_threads());
  union_find_exec.set_artifact_caching(false);
  std::vector<double> op_seconds;
  std::array<std::vector<double>, kShapes> shape_seconds;
  std::vector<double> traced_seconds;
  std::vector<double> union_find_seconds;
  ExecCounters counters;

  const Clock::time_point start = Clock::now();
  for (std::size_t i = 0; keep_running(options, start, op_seconds.size()); ++i) {
    const std::size_t slot = i % state->pool.size();
    const pandora::graph::EdgeList& mst = state->pool[slot];
    const bool traced = traced_turn(options, i, state->pool.size());
    ++outcome.attempted;
    try {
      const ExecCounters before = ExecCounters::read();
      pandora::dendrogram::Dendrogram dendrogram;
      pandora::PhaseTimes times;
      std::uint64_t op_id = 0, op_start_ns = 0;
      const Clock::time_point op_start = Clock::now();
      if (!traced) {
        dendrogram = pandora::dendrogram::pandora_dendrogram(exec, mst, kVertices);
      } else {
        const px::ScopedTrace scoped(exec, &trace->recorder());
        const px::ScopedPhaseTimes phases(exec, &times);
        const Span op(trace.get(), exec, "dendrogram.op", Layer::dendrogram);
        op_id = op.id();
        op_start_ns = op.start_ns();
        dendrogram = pandora::dendrogram::pandora_dendrogram(exec, mst, kVertices);
      }
      const double seconds = seconds_since(op_start);
      counters += ExecCounters::read() - before;
      bool ok = parents_match(options, dendrogram, references[slot]);
      if (!traced) {
        op_seconds.push_back(seconds);
        shape_seconds[slot % kShapes].push_back(seconds);
      } else {
        traced_seconds.push_back(seconds);
        // The library's "sort" phase opens with the MST fingerprint (the
        // cache key of the sorted edges); a standalone call of the same
        // function on the same input times it, as a child of that phase.
        const Clock::time_point probe_start = Clock::now();
        (void)pandora::dendrogram::mst_fingerprint(exec, mst, kVertices);
        const double probe = seconds_since(probe_start);
        for (const SpanRecord& phase : trace->add_phases(op_id, op_start_ns, times))
          if (std::string_view(phase.name) == "dendrogram.sort") {
            std::uint64_t cursor = phase.start_ns;
            trace->add_derived(phase.id, "exec.fingerprint", Layer::exec,
                               std::min(probe, 1e-9 * static_cast<double>(phase.end_ns -
                                                                          phase.start_ns)),
                               &cursor);
          }

        const Clock::time_point union_find_start = Clock::now();
        const pandora::dendrogram::Dendrogram baseline =
            pandora::dendrogram::union_find_dendrogram(union_find_exec, mst, kVertices);
        union_find_seconds.push_back(seconds_since(union_find_start));
        ok = ok && baseline.parent == references[slot];
      }
      if (!ok) ++outcome.failed;
    } catch (const std::exception&) {
      ++outcome.failed;
    }
  }

  for (int s = 0; s < kShapes; ++s)
    outcome.detail[std::string("p50_ms.") + kShapeNames[s]] =
        1e3 * percentile(shape_seconds[s], 0.5);
  if (trace == nullptr) {
    add_end_to_end(outcome, setup_seconds, op_seconds,
                   std::vector<double>(op_seconds.size(), static_cast<double>(kVertices)),
                   kThroughputWindow);
    return outcome;
  }
  const auto ops = static_cast<double>(traced_seconds.size());
  add_span_metrics(outcome, *trace,
                   {"dendrogram.sort", "dendrogram.contraction", "dendrogram.expansion",
                    "exec.fingerprint"},
                   ops);
  // Hierarchy depth is a property of each input; count it once per pool
  // entry, outside the timed window.
  std::array<double, kShapes> shape_levels{};
  for (std::size_t e = 0; e < state->pool.size(); ++e)
    shape_levels[e % kShapes] += contraction_levels(union_find_exec, state->pool[e]);
  double levels_total = 0.0;
  for (int s = 0; s < kShapes; ++s) {
    const double levels = shape_levels[s] / static_cast<double>(kPool / kShapes);
    outcome.add(std::string("dendrogram.levels.") + kShapeNames[s], levels, "count");
    levels_total += levels;
  }
  outcome.add("dendrogram.levels", levels_total / static_cast<double>(kShapes), "count");
  outcome.add("dendrogram.union_find_ms", 1e3 * percentile(union_find_seconds, 0.5), "ms");
  const double pandora_p50 = percentile(op_seconds, 0.5);
  outcome.add("dendrogram.speedup_vs_union_find",
              pandora_p50 > 0 ? percentile(union_find_seconds, 0.5) / pandora_p50 : 0, "x");
  add_exec_metrics(outcome, counters, static_cast<double>(outcome.attempted));
  outcome.add("trace.overhead_frac", overhead_fraction(traced_seconds, op_seconds), "fraction");
  add_self_time_metrics(outcome, *trace, ops);
  outcome.detail["traced_samples"] = ops;
  outcome.detail["samples"] = static_cast<double>(op_seconds.size());
  write_trace(*trace, options.trace_out, outcome);
  return outcome;
}

}  // namespace perfbench
