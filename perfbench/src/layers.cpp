#include "layers.hpp"

#include <algorithm>
#include <cstdio>
#include <tuple>
#include <utility>

namespace perfbench {

namespace {

/// Innermost open span on this thread (0 = none).
thread_local std::uint64_t t_current_span = 0;

}  // namespace

LayerTrace::LayerTrace()
    : recorder_(pandora::obs::TraceOptions{.events_per_thread = std::size_t{1} << 15,
                                           .max_threads = 64}) {}

void LayerTrace::add(const SpanRecord& span) {
  const std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(span);
}

SpanRecord LayerTrace::add_derived(std::uint64_t parent, const char* name, Layer layer,
                                   double seconds, std::uint64_t* cursor_ns) {
  const auto dur = static_cast<std::uint64_t>(std::max(0.0, seconds) * 1e9);
  SpanRecord span{name, layer, next_id(), parent, *cursor_ns, *cursor_ns + dur};
  *cursor_ns = span.end_ns;
  recorder_.record(name, span.start_ns, span.end_ns);
  add(span);
  return span;
}

std::vector<SpanRecord> LayerTrace::add_phases(std::uint64_t parent, std::uint64_t start_ns,
                                               const pandora::PhaseTimes& times) {
  // Library phase name -> the span name of the public function it times.
  static const std::array<std::tuple<const char*, const char*, Layer>, 8> kPhases = {{
      {"tree_build", "spatial.kdtree", Layer::spatial},
      {"core_distance", "hdbscan.core_distances", Layer::hdbscan},
      {"mst", "spatial.mst", Layer::spatial},
      {"sort", "dendrogram.sort", Layer::dendrogram},
      {"contraction", "dendrogram.contraction", Layer::dendrogram},
      {"expansion", "dendrogram.expansion", Layer::dendrogram},
      {"condense", "hdbscan.condense", Layer::hdbscan},
      {"extract", "hdbscan.extract", Layer::hdbscan},
  }};
  std::uint64_t cursor = start_ns;
  std::vector<SpanRecord> spans;
  for (const auto& [phase, name, layer] : kPhases) {
    const double seconds = times.get(phase);
    if (seconds > 0) spans.push_back(add_derived(parent, name, layer, seconds, &cursor));
  }
  return spans;
}

std::map<std::string, double> LayerTrace::total_ms_by_name() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::map<std::string, double> totals;
  for (const SpanRecord& span : spans_)
    totals[span.name] += 1e-6 * static_cast<double>(span.end_ns - span.start_ns);
  return totals;
}

std::array<double, 7> LayerTrace::self_ms_by_layer() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::map<std::uint64_t, std::vector<std::pair<std::uint64_t, std::uint64_t>>> children;
  for (const SpanRecord& span : spans_)
    if (span.parent != 0) children[span.parent].emplace_back(span.start_ns, span.end_ns);

  std::array<double, 7> self{};
  for (const SpanRecord& span : spans_) {
    std::uint64_t covered = 0;
    if (const auto it = children.find(span.id); it != children.end()) {
      std::vector<std::pair<std::uint64_t, std::uint64_t>> kids = it->second;
      std::sort(kids.begin(), kids.end());
      std::uint64_t reach = span.start_ns;  // union of child intervals, clipped
      for (auto [start, end] : kids) {
        start = std::max(start, reach);
        end = std::min(end, span.end_ns);
        if (end > start) {
          covered += end - start;
          reach = end;
        }
      }
    }
    const std::uint64_t duration = span.end_ns - span.start_ns;
    self[static_cast<std::size_t>(span.layer)] +=
        1e-6 * static_cast<double>(duration - std::min(covered, duration));
  }
  return self;
}

Span::Span(LayerTrace* trace, const pandora::exec::Executor& exec, const char* name, Layer layer,
           std::optional<std::uint64_t> parent)
    : trace_(trace), chrome_(exec, name) {
  if (trace_ == nullptr) return;
  record_ = {name, layer, trace_->next_id(), parent.value_or(t_current_span), trace_->now_ns(), 0};
  saved_parent_ = t_current_span;
  t_current_span = record_.id;
}

Span::~Span() {
  if (trace_ == nullptr) return;
  record_.end_ns = trace_->now_ns();
  t_current_span = saved_parent_;
  trace_->add(record_);
}

void add_span_metrics(Outcome& outcome, const LayerTrace& trace,
                      const std::vector<std::string>& names, double ops) {
  const std::map<std::string, double> totals = trace.total_ms_by_name();
  for (const std::string& name : names) {
    const auto it = totals.find(name);
    outcome.add(name + "_ms", it == totals.end() || ops <= 0 ? 0.0 : it->second / ops, "ms");
  }
}

void add_self_time_metrics(Outcome& outcome, const LayerTrace& trace, double ops) {
  const std::array<double, 7> self = trace.self_ms_by_layer();
  for (std::size_t i = 0; i < self.size(); ++i)
    outcome.add(std::string("layer.") + kLayerNames[i] + ".self_ms",
                ops > 0 ? self[i] / ops : 0.0, "ms");
}

void write_trace(LayerTrace& trace, const std::string& path, Outcome& outcome) {
  outcome.detail["trace_events"] = static_cast<double>(trace.recorder().events_recorded());
  outcome.detail["trace_events_dropped"] = static_cast<double>(trace.recorder().events_dropped());
  if (path.empty()) return;
  if (!trace.recorder().write_chrome_trace(path))
    std::fprintf(stderr, "perfbench: could not write the Chrome trace to %s\n", path.c_str());
}

}  // namespace perfbench
