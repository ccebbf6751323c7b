#pragma once

// Layer tracing for the traced benchmark run.
//
// Spans are recorded from the benchmark's own code around each call into a
// layer's public function: one span around the very library call an
// untraced op makes.  Every span goes to two sinks: the library's
// `obs::TraceRecorder` (through `exec::ScopedSpan`, so it lands in the
// Chrome trace beside the library's own run_chunks spans) and this file's
// `LayerTrace`, which keeps the parent links needed to compute each layer's
// self time.  The stages inside a call are the phase times the library
// reports itself (`PhaseTimes`, through `exec::ScopedPhaseTimes`); they,
// registry histogram deltas and standalone probes become "derived" child
// spans laid end to end from their parent's start.

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "pandora/common/timer.hpp"
#include "pandora/exec/executor.hpp"
#include "pandora/obs/trace.hpp"
#include "perfbench.hpp"

namespace perfbench {

/// The repository's modules, as benchmark layers.
enum class Layer { spatial, hdbscan, dendrogram, exec, serve, dyn, snapshot };
inline constexpr std::array<const char*, 7> kLayerNames = {
    "spatial", "hdbscan", "dendrogram", "exec", "serve", "dyn", "snapshot"};

struct SpanRecord {
  const char* name = "";
  Layer layer = Layer::exec;
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  ///< 0 = a root span (one op)
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
};

class LayerTrace {
 public:
  LayerTrace();
  LayerTrace(const LayerTrace&) = delete;
  LayerTrace& operator=(const LayerTrace&) = delete;

  [[nodiscard]] pandora::obs::TraceRecorder& recorder() { return recorder_; }
  [[nodiscard]] std::uint64_t now_ns() const { return recorder_.now_ns(); }
  [[nodiscard]] std::uint64_t next_id() { return next_id_.fetch_add(1); }

  void add(const SpanRecord& span);

  /// Records a child of `parent` whose duration is known but whose interval
  /// is not (a library-reported phase, a registry delta, a probe): it is
  /// placed at `*cursor_ns`, which then advances past it.  Returns the span.
  SpanRecord add_derived(std::uint64_t parent, const char* name, Layer layer, double seconds,
                         std::uint64_t* cursor_ns);

  /// Derived children for every phase the library reported in `times`
  /// (tree_build, core_distance, mst, sort, contraction, expansion, condense,
  /// extract), laid end to end from `start_ns`.  Returns the spans added.
  std::vector<SpanRecord> add_phases(std::uint64_t parent, std::uint64_t start_ns,
                                     const pandora::PhaseTimes& times);

  /// Sum of span durations by span name, in milliseconds.
  [[nodiscard]] std::map<std::string, double> total_ms_by_name() const;
  /// Self time by layer in milliseconds: each span's duration minus the part
  /// of its interval covered by its children (on any thread).
  [[nodiscard]] std::array<double, 7> self_ms_by_layer() const;

 private:
  pandora::obs::TraceRecorder recorder_;
  std::atomic<std::uint64_t> next_id_{1};
  mutable std::mutex mutex_;  ///< guards spans_
  std::vector<SpanRecord> spans_;
};

/// RAII span around one call into a layer.  With `trace == nullptr` it is a
/// no-op.  The parent is the innermost open span on this thread unless
/// `parent` names one explicitly (a batch job's parent is the batch span on
/// the submitting thread).
class Span {
 public:
  Span(LayerTrace* trace, const pandora::exec::Executor& exec, const char* name, Layer layer,
       std::optional<std::uint64_t> parent = std::nullopt);
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  ~Span();

  [[nodiscard]] std::uint64_t id() const { return record_.id; }
  [[nodiscard]] std::uint64_t start_ns() const { return record_.start_ns; }

 private:
  LayerTrace* trace_;
  pandora::exec::ScopedSpan chrome_;
  SpanRecord record_;
  std::uint64_t saved_parent_ = 0;
};

/// Per-op milliseconds of the named spans (`total / ops`), emitted under
/// `<span name>_ms` for each name in `names` (0 when the span never ran).
void add_span_metrics(Outcome& outcome, const LayerTrace& trace,
                      const std::vector<std::string>& names, double ops);

/// layer.<name>.self_ms for every layer, per op.
void add_self_time_metrics(Outcome& outcome, const LayerTrace& trace, double ops);

/// Writes the Chrome trace of a traced run (no-op for an empty path).
void write_trace(LayerTrace& trace, const std::string& path, Outcome& outcome);

}  // namespace perfbench
