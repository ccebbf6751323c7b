#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <utility>

#include "pandora/common/expect.hpp"
#include "pandora/common/timer.hpp"
#include "pandora/common/types.hpp"
#include "pandora/exec/artifact_cache.hpp"
#include "pandora/exec/backend.hpp"
#include "pandora/exec/cancellation.hpp"
#include "pandora/exec/failpoint.hpp"
#include "pandora/exec/memory.hpp"
#include "pandora/exec/workspace.hpp"
#include "pandora/obs/metrics.hpp"
#include "pandora/obs/trace.hpp"

/// The execution context of the library: `Executor`.
///
/// The paper's implementation expresses every kernel against Kokkos execution
/// space *instances* — objects carrying the backend choice, resources and
/// reusable scratch memory.  This reproduction mirrors that design: an
/// `Executor` owns (a) the execution `Backend` (serial / OpenMP / pinned
/// pool, extensible to a device backend — see backend.hpp), (b) a thread
/// budget, (c) a reusable `Workspace` arena (workspace.hpp) — allocating through the
/// backend's `MemoryResource` — that amortises scratch-buffer allocations
/// across repeated dendrogram / HDBSCAN* calls on same-sized inputs, (d) the
/// phase seam `phase()`, which times the drivers' phases into any open
/// `ScopedPhaseTimes` and the installed trace recorder, and (e) an
/// `ArtifactCache` (artifact_cache.hpp) that lets upper layers reuse derived
/// artifacts (e.g. the kd-tree of a point set, the dendrogram of an MST)
/// across calls through the get-or-build seam `cached_artifact`.  Every
/// kernel takes a `const Executor&`.  (The old two-value `Space` enum and its
/// bare-`Space` shims are fully retired; see the README migration table.)
namespace pandora::exec {

/// Below this trip count per-kernel dispatch overhead dominates; kernels run
/// serially.  (The Executor needs it to answer `parallelize(n)`.)
inline constexpr size_type kParallelForGrain = 2048;

namespace detail {

/// Pre-registered process-wide handles for the exec-layer metrics (see
/// pandora/obs/metrics.hpp).  The function-local static pins registration to
/// first use; after that a call is the init-guard check plus one relaxed
/// atomic RMW — cheap enough for the launch/lease hot paths, and
/// allocation-free, which the warm-query zero-heap gates rely on.
inline obs::Counter& run_chunks_metric() {
  static obs::Counter& metric = obs::registry().counter("pandora_exec_run_chunks_total");
  return metric;
}
inline obs::Counter& thread_grants_metric() {
  static obs::Counter& metric = obs::registry().counter("pandora_exec_thread_grants_total");
  return metric;
}
inline obs::Counter& thread_grants_clamped_metric() {
  static obs::Counter& metric =
      obs::registry().counter("pandora_exec_thread_grants_clamped_total");
  return metric;
}

}  // namespace detail

class Executor;

/// Scope guard collecting phase seconds into `times` for its lifetime: every
/// `Executor::phase` run on `executor` inside the scope adds its duration
/// under the phase name ("sort", "contraction", "expansion", "mst", ...).
/// Scopes nest: a phase reaches every scope open on the executor, and the
/// guard reinstates the enclosing scope on exit.  A null `times` makes the
/// guard a no-op.  PhaseTimes is unsynchronised, so a scope is bound to one
/// executor, which runs one kernel at a time; concurrent executors (batch
/// slots) each need their own scope.
class ScopedPhaseTimes {
 public:
  ScopedPhaseTimes(const Executor& executor, PhaseTimes* times);
  ScopedPhaseTimes(const ScopedPhaseTimes&) = delete;
  ScopedPhaseTimes& operator=(const ScopedPhaseTimes&) = delete;
  ~ScopedPhaseTimes();

 private:
  friend class Executor;
  const Executor& executor_;
  PhaseTimes* times_;
  const ScopedPhaseTimes* outer_;  ///< the enclosing scope, or nullptr
};

/// The reusable execution context every kernel takes by const reference.
///
/// Cheap to construct, but meant to be constructed once and reused: the
/// workspace arena and artifact cache only pay off across repeated calls.
/// The workspace, phase scopes, cache, trace recorder and cancellation token
/// are logically part of the execution *context*, not the kernel inputs, so
/// they are mutable behind the const interface (exactly like Kokkos
/// execution-space instances, whose scratch arenas are mutable too).
///
/// Not thread-safe: do not run two kernels on the same Executor concurrently
/// (parallelism happens inside kernels, governed by `num_threads`).
class Executor {
 public:
  /// An executor on `backend` (nullptr selects `default_backend()`) with an
  /// optional explicit thread budget (0 = the backend's default).  The
  /// Workspace arena allocates through the backend's MemoryResource.
  explicit Executor(std::shared_ptr<const Backend> backend, int num_threads = 0)
      : backend_(backend != nullptr ? std::move(backend) : default_backend()),
        requested_threads_(num_threads),
        workspace_(&backend_->memory_resource()) {}

  /// An executor on the default backend (openmp, or whatever PANDORA_BACKEND
  /// names) with its default thread budget.
  Executor() : Executor(std::shared_ptr<const Backend>{}, 0) {}

  /// An executor on the default backend with an explicit thread budget.
  explicit Executor(int num_threads) : Executor(std::shared_ptr<const Backend>{}, num_threads) {}

  /// The execution backend every kernel on this executor dispatches through.
  [[nodiscard]] const Backend& backend() const noexcept { return *backend_; }
  [[nodiscard]] const std::shared_ptr<const Backend>& backend_ptr() const noexcept {
    return backend_;
  }

  /// Human-readable backend name for benchmark tables.
  [[nodiscard]] const char* name() const { return backend_->name(); }

  /// The thread budget the backend granted this executor: the requested
  /// count (clamped by fixed-capacity backends) or the backend's default.
  /// Answered by the backend itself, never by global runtime state, so a
  /// nested executor (e.g. a batch serving slot) reports truthfully.
  [[nodiscard]] int num_threads() const {
    const int granted = backend_->grant_threads(requested_threads_);
    detail::thread_grants_metric().inc();
    if (requested_threads_ > 0 && granted < requested_threads_)
      detail::thread_grants_clamped_metric().inc();
    return granted;
  }

  /// The thread count the constructor requested (0 = backend default) —
  /// what a sub-executor should inherit as its own ceiling.
  [[nodiscard]] int requested_threads() const noexcept { return requested_threads_; }

  /// True when a kernel over `n` items should take its parallel path.
  [[nodiscard]] bool parallelize(size_type n) const {
    return n >= kParallelForGrain && num_threads() > 1;
  }

  /// The scratch-buffer arena (see Workspace).
  [[nodiscard]] Workspace& workspace() const noexcept { return workspace_; }

  /// The cross-call artifact cache (see ArtifactCache): the executor's own
  /// cache, or the shared cache installed by `use_shared_artifact_cache`.
  [[nodiscard]] ArtifactCache& artifact_cache() const noexcept {
    return shared_cache_ != nullptr ? *shared_cache_ : artifact_cache_;
  }

  /// Points this executor at an external ArtifactCache (non-owning; nullptr
  /// restores the own cache).  The batch serving layer installs the parent
  /// executor's cache on every slot executor, so concurrent queries share one
  /// artifact pool — safe because the ArtifactCache locks internally (see its
  /// locking contract).  The cache must outlive the executor's use of it.
  void use_shared_artifact_cache(ArtifactCache* cache) const noexcept {
    shared_cache_ = cache;
  }

  /// The currently installed shared cache (nullptr when the executor uses
  /// its own) — what a scope guard saves before re-pointing the executor at
  /// another cache, so nesting restores correctly.
  [[nodiscard]] ArtifactCache* shared_artifact_cache() const noexcept { return shared_cache_; }

  /// The pin group cache-filling kernels insert their artifacts under (see
  /// ArtifactCache::pin).  Defaults to 0 (none); the snapshot tier sets it
  /// for the duration of a pinned read.  Mutable behind const like the
  /// workspace: it is execution *context*, not kernel input.
  [[nodiscard]] std::uint64_t cache_pin_group() const noexcept { return cache_pin_group_; }
  void set_cache_pin_group(std::uint64_t group) const noexcept { cache_pin_group_ = group; }

  /// Whether cross-call artifact reuse (e.g. the SortedEdges cache keyed on
  /// the MST fingerprint) is enabled.  On by default; turn off to force every
  /// call to recompute — benchmarks comparing construction algorithms do.
  [[nodiscard]] bool artifact_caching() const noexcept { return artifact_caching_; }
  void set_artifact_caching(bool enabled) const noexcept { artifact_caching_ = enabled; }

  /// The installed cancellation token (nullptr = not cancellable).
  /// Non-owning; the token must outlive its installation.  Installed via
  /// `ScopedCancellation` by the Pipeline / batch layers; mutable behind
  /// const like the workspace — it is execution context, not kernel input.
  [[nodiscard]] const CancellationToken* cancellation_token() const noexcept {
    return cancellation_;
  }
  void set_cancellation_token(const CancellationToken* token) const noexcept {
    cancellation_ = token;
  }

  /// Throws pandora::Cancelled when the installed token has fired.  Kernels
  /// with long serial sections call this at their natural grain; everything
  /// dispatched through `run_chunks` below is covered automatically.
  void check_cancellation() const {
    if (cancellation_ != nullptr && cancellation_->cancelled()) throw_cancelled(*cancellation_);
  }

  /// Dispatches a bulk launch through the backend, honouring the installed
  /// cancellation token at chunk boundaries: once the token fires, remaining
  /// chunks are skipped (bodies must not throw — Backend contract) and the
  /// calling thread throws pandora::Cancelled after the launch returns, so
  /// cancellation latency is bounded by one chunk regardless of backend.
  /// With no token installed this is a direct backend dispatch (one branch).
  /// Kernels call this — never `backend().run_chunks` directly.
  void run_chunks(int num_chunks, int max_workers, ChunkBody body) const {
    PANDORA_FAILPOINT("exec.run_chunks");
    detail::run_chunks_metric().inc();
    // Manual span guard (ScopedSpan is declared below Executor): records the
    // launch even when a fired cancellation token unwinds it.
    struct SpanGuard {
      obs::TraceRecorder* recorder;
      std::uint64_t start_ns;
      ~SpanGuard() {
        if (recorder != nullptr) recorder->record("run_chunks", start_ns, recorder->now_ns());
      }
    } span{trace_, trace_ != nullptr ? trace_->now_ns() : 0};
    const CancellationToken* token = cancellation_;
    if (token == nullptr) {
      backend_->run_chunks(num_chunks, max_workers, body);
      return;
    }
    if (token->cancelled()) throw_cancelled(*token);
    auto guarded = [&](int chunk) {
      if (!token->cancelled()) body(chunk);
    };
    backend_->run_chunks(num_chunks, max_workers, guarded);
    if (token->cancelled()) throw_cancelled(*token);
  }

  /// The attached trace recorder, or nullptr (tracing off).  Non-owning;
  /// installed via `ScopedTrace`, mutable behind const like the workspace.
  /// When set, `phase` and `run_chunks` record spans into it.
  [[nodiscard]] obs::TraceRecorder* trace_recorder() const noexcept { return trace_; }
  void set_trace_recorder(obs::TraceRecorder* recorder) const noexcept { trace_ = recorder; }

  /// Run `f()` and record its duration under `phase_name`: into every open
  /// `ScopedPhaseTimes` on this executor, and as a span with the installed
  /// trace recorder.  This is the one way a library driver times a phase;
  /// with neither installed it is one branch around `f()`.
  template <class F>
  void phase(std::string_view phase_name, F&& f) const {
    if (phase_times_ == nullptr && trace_ == nullptr) {
      f();
      return;
    }
    obs::TraceRecorder* const recorder = trace_;
    const std::uint64_t span_start = recorder != nullptr ? recorder->now_ns() : 0;
    const Timer timer;
    f();
    const double seconds = timer.seconds();
    if (recorder != nullptr) recorder->record(phase_name, span_start, recorder->now_ns());
    if (phase_times_ == nullptr) return;
    const std::string key(phase_name);
    for (const ScopedPhaseTimes* scope = phase_times_; scope != nullptr; scope = scope->outer_)
      scope->times_->add(key, seconds);
  }

 private:
  friend class ScopedPhaseTimes;

  std::shared_ptr<const Backend> backend_;
  int requested_threads_;
  mutable Workspace workspace_;
  mutable ArtifactCache artifact_cache_;
  mutable ArtifactCache* shared_cache_ = nullptr;
  mutable std::uint64_t cache_pin_group_ = 0;
  mutable const ScopedPhaseTimes* phase_times_ = nullptr;  ///< innermost open scope
  mutable obs::TraceRecorder* trace_ = nullptr;
  mutable bool artifact_caching_ = true;
  mutable const CancellationToken* cancellation_ = nullptr;
};

/// The per-thread default executor on `default_backend()`.  Callers without
/// a long-lived executor of their own share its workspace, so they too
/// amortise allocations across calls; per-thread storage keeps it safe under
/// concurrent callers.
[[nodiscard]] const Executor& default_executor();

/// The per-thread default executor on a specific backend (one per (thread,
/// backend instance); the backend must outlive its use, which the shared
/// singletons of backend.hpp always do).
[[nodiscard]] const Executor& default_executor(const std::shared_ptr<const Backend>& backend);

inline ScopedPhaseTimes::ScopedPhaseTimes(const Executor& executor, PhaseTimes* times)
    : executor_(executor), times_(times), outer_(executor.phase_times_) {
  if (times_ != nullptr) executor_.phase_times_ = this;
}

inline ScopedPhaseTimes::~ScopedPhaseTimes() {
  if (times_ != nullptr) executor_.phase_times_ = outer_;
}

/// Scope guard installing a cache pin group on an executor for the duration
/// of a scope (a pinned snapshot read), restoring the previous group on exit
/// so nested scopes compose.
class ScopedPinGroup {
 public:
  ScopedPinGroup(const Executor& executor, std::uint64_t group)
      : executor_(executor), saved_(executor.cache_pin_group()) {
    executor_.set_cache_pin_group(group);
  }
  ScopedPinGroup(const ScopedPinGroup&) = delete;
  ScopedPinGroup& operator=(const ScopedPinGroup&) = delete;
  ~ScopedPinGroup() { executor_.set_cache_pin_group(saved_); }

 private:
  const Executor& executor_;
  std::uint64_t saved_;
};

/// Scope guard installing a cancellation token on an executor (a deadline'd
/// pipeline run, a batch job), restoring the previous token on exit so
/// nested scopes compose.  A null `token` leaves the executor's current
/// token in place (the guard is then a no-op), so callers can pass "maybe a
/// token" without branching.
class ScopedCancellation {
 public:
  ScopedCancellation(const Executor& executor, const CancellationToken* token)
      : executor_(executor), saved_(executor.cancellation_token()), active_(token != nullptr) {
    if (active_) executor_.set_cancellation_token(token);
  }
  ScopedCancellation(const ScopedCancellation&) = delete;
  ScopedCancellation& operator=(const ScopedCancellation&) = delete;
  ~ScopedCancellation() {
    if (active_) executor_.set_cancellation_token(saved_);
  }

 private:
  const Executor& executor_;
  const CancellationToken* saved_;
  bool active_;
};

/// Scope guard enabling trace-span recording on an executor for its
/// lifetime, restoring the previously installed recorder on exit so nested
/// scopes compose.  The recorder is non-owning and must outlive the guard.
/// A null recorder leaves the executor's current recorder in place.
class ScopedTrace {
 public:
  ScopedTrace(const Executor& executor, obs::TraceRecorder* recorder)
      : executor_(executor), saved_(executor.trace_recorder()), active_(recorder != nullptr) {
    if (active_) executor_.set_trace_recorder(recorder);
  }
  ScopedTrace(const ScopedTrace&) = delete;
  ScopedTrace& operator=(const ScopedTrace&) = delete;
  ~ScopedTrace() {
    if (active_) executor_.set_trace_recorder(saved_);
  }

 private:
  const Executor& executor_;
  obs::TraceRecorder* saved_;
  bool active_;
};

/// RAII span over an executor's installed trace recorder: the guard's
/// lifetime becomes one "X" event named `name` (which must outlive the guard
/// — string literals do).  With tracing off the guard costs two loads.
/// Upper layers use it for query-level spans around whole pipeline calls;
/// phases and run_chunks launches inside nest automatically.
class ScopedSpan {
 public:
  ScopedSpan(const Executor& executor, std::string_view name) noexcept
      : recorder_(executor.trace_recorder()),
        name_(name),
        start_ns_(recorder_ != nullptr ? recorder_->now_ns() : 0) {}
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  ~ScopedSpan() {
    if (recorder_ != nullptr) recorder_->record(name_, start_ns_, recorder_->now_ns());
  }

 private:
  obs::TraceRecorder* recorder_;
  std::string_view name_;
  std::uint64_t start_ns_;
};

}  // namespace pandora::exec
