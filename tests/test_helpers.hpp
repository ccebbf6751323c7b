#pragma once

#include <exception>
#include <functional>
#include <ostream>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "pandora/common/rng.hpp"
#include "pandora/data/tree_generators.hpp"
#include "pandora/dendrogram/expansion.hpp"
#include "pandora/dendrogram/pandora.hpp"
#include "pandora/graph/edge.hpp"
#include "pandora/serve/batch_executor.hpp"

namespace pandora::testing {

/// The tree topologies the property suites sweep over; they cover the
/// skewness spectrum from a single chain (star) to balanced.
enum class Topology {
  star,
  path,
  caterpillar,
  broom,
  balanced,
  random_attach,
  preferential,
};

inline const char* topology_name(Topology t) {
  switch (t) {
    case Topology::star: return "star";
    case Topology::path: return "path";
    case Topology::caterpillar: return "caterpillar";
    case Topology::broom: return "broom";
    case Topology::balanced: return "balanced";
    case Topology::random_attach: return "random_attach";
    case Topology::preferential: return "preferential";
  }
  return "?";
}

inline std::vector<Topology> all_topologies() {
  return {Topology::star,     Topology::path,          Topology::caterpillar,
          Topology::broom,    Topology::balanced,      Topology::random_attach,
          Topology::preferential};
}

/// Builds a weighted tree: `distinct_weights == 0` draws continuous weights,
/// positive values quantise them to stress tie handling.
inline graph::EdgeList make_tree(Topology topology, index_t num_vertices, std::uint64_t seed,
                                 int distinct_weights = 0) {
  Rng rng(seed);
  graph::EdgeList edges;
  switch (topology) {
    case Topology::star: edges = data::star_tree(num_vertices); break;
    case Topology::path: edges = data::path_tree(num_vertices); break;
    case Topology::caterpillar: edges = data::caterpillar_tree(num_vertices); break;
    case Topology::broom: edges = data::broom_tree(num_vertices); break;
    case Topology::balanced: edges = data::balanced_tree(num_vertices); break;
    case Topology::random_attach: edges = data::random_attachment_tree(num_vertices, rng); break;
    case Topology::preferential:
      edges = data::preferential_attachment_tree(num_vertices, rng);
      break;
  }
  data::assign_random_weights(edges, rng, distinct_weights);
  return edges;
}

/// One `serve::BatchExecutor::run_jobs` job per tree: builds the PANDORA
/// dendrogram of `mst` into `out` on the executor the scheduler assigns,
/// sized by the edge count (what the small/large split reads).  `mst` and
/// `out` must outlive the batch call.
inline serve::BatchExecutor::Job dendrogram_job(const graph::EdgeList& mst, index_t num_vertices,
                                                dendrogram::Dendrogram& out) {
  return {[&mst, num_vertices, &out](const exec::Executor& exec) {
            dendrogram::pandora_dendrogram_into(exec, mst, num_vertices, out);
          },
          static_cast<size_type>(mst.size())};
}

/// One wave of the serving workload: `batch.run_jobs(jobs)` with `update`
/// running on a writer thread beside it, so reader jobs (each pinning its
/// snapshot with `acquire()` when it starts) overlap the writer's publishes.
/// Returns the job outcomes once both have settled; an exception from
/// `update` is rethrown after the jobs settle.
inline std::vector<serve::JobResult> run_jobs_beside_writer(
    serve::BatchExecutor& batch, std::span<serve::BatchExecutor::Job> jobs,
    const std::function<void()>& update) {
  std::exception_ptr update_error;
  std::thread writer([&] {
    try {
      update();
    } catch (...) {
      update_error = std::current_exception();
    }
  });
  std::vector<serve::JobResult> results = batch.run_jobs(jobs);
  writer.join();
  if (update_error != nullptr) std::rethrow_exception(update_error);
  return results;
}

/// The two expansions of Section 3.3 as interchangeable MST -> dendrogram
/// builders: PANDORA's multilevel expansion and the single-level baseline.
/// The suites run both and demand bit-identical dendrograms.
struct Expansion {
  const char* name;
  dendrogram::Dendrogram (*build)(const exec::Executor&, const graph::EdgeList&, index_t);
};

inline std::vector<Expansion> both_expansions() {
  return {{"multilevel",
           [](const exec::Executor& exec, const graph::EdgeList& mst, index_t n) {
             return dendrogram::pandora_dendrogram(exec, mst, n);
           }},
          {"single_level", [](const exec::Executor& exec, const graph::EdgeList& mst, index_t n) {
             return dendrogram::single_level_dendrogram(exec, mst, n);
           }}};
}

inline void PrintTo(const Expansion& expansion, std::ostream* os) { *os << expansion.name; }

}  // namespace pandora::testing
