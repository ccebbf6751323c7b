#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <typeinfo>
#include <unordered_map>
#include <utility>
#include <vector>

#include "pandora/exec/fingerprint.hpp"
#include "pandora/obs/metrics.hpp"

namespace pandora::exec {

namespace detail {

/// Pre-registered handles for the artifact-cache metrics (cf. the exec-layer
/// metrics in executor.hpp).
inline obs::Counter& cache_hits_metric() {
  static obs::Counter& metric = obs::registry().counter("pandora_cache_hits_total");
  return metric;
}
inline obs::Counter& cache_misses_metric() {
  static obs::Counter& metric = obs::registry().counter("pandora_cache_misses_total");
  return metric;
}
inline obs::Counter& cache_evictions_metric() {
  static obs::Counter& metric = obs::registry().counter("pandora_cache_evictions_total");
  return metric;
}
/// Live pinned entries summed over *all* ArtifactCache instances (each cache
/// still reports its own exact count via `stats()`).
inline obs::Gauge& cache_pinned_metric() {
  static obs::Gauge& metric = obs::registry().gauge("pandora_cache_pinned_slots");
  return metric;
}

}  // namespace detail

/// A small fingerprint-keyed cache of derived artifacts, attached to the
/// Executor so upper layers (dendrogram, hdbscan, spatial) can reuse
/// expensive intermediate results — the kd-tree, per-mpts core distances and
/// EMST of a point set, the PANDORA dendrogram replayed across
/// `min_cluster_size` sweeps — across calls without a layering inversion.  Entries are type-erased
/// shared_ptrs matched on (fingerprint, type); eviction is
/// least-recently-used over a fixed number of slots.  Library code reaches
/// it only through the get-or-build seam `cached_artifact` (bottom of this
/// header), which owns the key derivation and the find/insert pair.
///
/// Locking contract: every operation (find / insert / clear / stats) takes
/// the cache's internal mutex, so the cache may be shared by concurrent
/// queries — the batch serving layer points all of its slot executors at one
/// parent cache.  The contract the mutex enforces:
///  * `find` returns an owning shared_ptr, so a hit stays alive even if the
///    entry is concurrently evicted; callers never hold references into the
///    cache itself.
///  * cached values are immutable after insert — readers share them without
///    further synchronisation.  (The exception, the monotone validation
///    flag of the dendrogram entries, is an atomic.)
///  * two threads missing on the same fingerprint may both compute and both
///    insert; the last insert wins and the loser's value simply dies with
///    its shared_ptr.  Correctness never depends on single-insertion.
/// The uncontended lock costs nanoseconds next to the artifacts being cached
/// (sorts, tree builds), so the single-query path is unaffected.
///
/// One serving-tier refinement rides on top of plain LRU: **pin groups**.
/// `pin(g)` exempts every entry inserted with pin group `g` from eviction
/// until the last `unpin(g)`; `purge_group(g)` reclaims them.  The snapshot
/// tier pins one group per live snapshot so a reader's artifacts survive
/// concurrent inserts.  `cached_artifact` inserts under the executor's
/// current group (`Executor::cache_pin_group()`), so upper layers tag
/// artifacts without threading parameters through every kernel signature.
class ArtifactCache {
 public:
  /// Observability counters, readable without taking the cache lock (the
  /// counters are relaxed atomics; a snapshot of them is not required to be
  /// mutually consistent — they feed dashboards and benches, not logic).
  struct Stats {
    std::size_t hits = 0;
    std::size_t misses = 0;
    std::size_t evictions = 0;     ///< occupied entries displaced by a different key
    std::size_t pinned_slots = 0;  ///< entries currently belonging to pinned groups
  };

  static constexpr std::size_t kDefaultSlots = 16;

  explicit ArtifactCache(std::size_t slots = kDefaultSlots)
      : entries_(slots > 0 ? slots : std::size_t{1}),
        nominal_slots_(slots > 0 ? slots : std::size_t{1}) {}
  ArtifactCache(const ArtifactCache&) = delete;
  ArtifactCache& operator=(const ArtifactCache&) = delete;

  /// The cached artifact for `fingerprint`, or nullptr.  A hit performs no
  /// heap allocation (the shared_ptr copy only bumps a refcount).
  template <class T>
  [[nodiscard]] std::shared_ptr<T> find(std::uint64_t fingerprint) const {
    const std::lock_guard<std::mutex> lock(mutex_);
    for (Entry& entry : entries_) {
      if (entry.value != nullptr && entry.fingerprint == fingerprint &&
          *entry.type == typeid(T)) {
        entry.stamp = ++clock_;
        hits_.fetch_add(1, std::memory_order_relaxed);
        detail::cache_hits_metric().inc();
        return std::static_pointer_cast<T>(entry.value);
      }
    }
    misses_.fetch_add(1, std::memory_order_relaxed);
    detail::cache_misses_metric().inc();
    return nullptr;
  }

  /// Stores `value` under `fingerprint` in pin group `pin_group` (0 = none;
  /// see `pin`).  An existing (fingerprint, type) entry is replaced in place
  /// — callers that detect a stale value (e.g. the spatial caches'
  /// points-identity check) rely on their re-insert superseding it rather
  /// than shadowing it behind a duplicate.  Otherwise the victim is chosen
  /// in order:
  ///  * an empty slot;
  ///  * the least-recently-used entry outside every pinned group;
  ///  * when every slot belongs to a pinned group, the cache *grows* by one
  ///    overflow slot instead of evicting: a live snapshot's artifacts are
  ///    never dropped mid-read (`purge_group` reclaims the overflow when the
  ///    snapshot retires).
  template <class T>
  void insert(std::uint64_t fingerprint, std::shared_ptr<T> value, std::uint64_t pin_group = 0) {
    std::shared_ptr<void> doomed;  // evicted value released outside the lock
    const std::lock_guard<std::mutex> lock(mutex_);
    Entry* match = nullptr;
    Entry* empty = nullptr;
    Entry* lru = nullptr;  // least recent entry outside pinned groups
    for (Entry& entry : entries_) {
      if (entry.value == nullptr) {
        if (empty == nullptr) empty = &entry;
        continue;
      }
      if (entry.fingerprint == fingerprint && *entry.type == typeid(T)) {
        match = &entry;
        break;
      }
      if (pinned(entry)) continue;
      if (lru == nullptr || entry.stamp < lru->stamp) lru = &entry;
    }
    Entry* slot = match;
    if (slot == nullptr) {
      if (empty != nullptr) {
        slot = empty;
      } else if (lru != nullptr) {
        slot = lru;
      } else {
        // Every slot is occupied and pinned: soft overflow (see above).
        entries_.emplace_back();
        slot = &entries_.back();
      }
    }
    if (slot->value != nullptr) {
      if (slot != match) {
        evictions_.fetch_add(1, std::memory_order_relaxed);
        detail::cache_evictions_metric().inc();
      }
      if (pinned(*slot)) {
        pinned_count_.fetch_sub(1, std::memory_order_relaxed);
        detail::cache_pinned_metric().add(-1);
      }
    }
    doomed = std::move(slot->value);
    slot->fingerprint = fingerprint;
    slot->type = &typeid(T);
    slot->value = std::move(value);
    slot->stamp = ++clock_;
    slot->pin_group = pin_group;
    if (pinned(*slot)) {
      pinned_count_.fetch_add(1, std::memory_order_relaxed);
      detail::cache_pinned_metric().add(1);
    }
  }

  /// Declares `group` pinned (refcounted): entries inserted with
  /// pin group `group` are exempt from LRU eviction until the last
  /// `unpin(group)`.  The snapshot tier pins one group per live snapshot
  /// (keyed by its epoch fingerprint), so a reader mid-query can never lose
  /// an artifact to a colder query's insert.  Group 0 is reserved (never
  /// pinned).
  void pin(std::uint64_t group) {
    if (group == 0) return;
    const std::lock_guard<std::mutex> lock(mutex_);
    if (++pins_[group] == 1) {
      for (const Entry& entry : entries_) {
        if (entry.value != nullptr && entry.pin_group == group) {
          pinned_count_.fetch_add(1, std::memory_order_relaxed);
          detail::cache_pinned_metric().add(1);
        }
      }
    }
  }

  /// Drops one pin on `group`; at zero the group's entries become ordinary
  /// LRU citizens again (they are not removed — see `purge_group`).
  void unpin(std::uint64_t group) {
    if (group == 0) return;
    const std::lock_guard<std::mutex> lock(mutex_);
    const auto it = pins_.find(group);
    if (it == pins_.end()) return;
    if (--it->second == 0) {
      pins_.erase(it);
      for (const Entry& entry : entries_) {
        if (entry.value != nullptr && entry.pin_group == group) {
          pinned_count_.fetch_sub(1, std::memory_order_relaxed);
          detail::cache_pinned_metric().add(-1);
        }
      }
    }
  }

  /// Removes every entry of `group` (pinned or not) and releases any
  /// overflow slots past the nominal capacity that emptied.  The snapshot
  /// tier calls this when a retired snapshot's last reader drains: its
  /// epoch-keyed artifacts are unreachable (epoch fingerprints never repeat)
  /// and would otherwise squat in the LRU until aged out.
  void purge_group(std::uint64_t group) {
    std::vector<std::shared_ptr<void>> doomed;  // released outside the lock
    const std::lock_guard<std::mutex> lock(mutex_);
    const bool was_pinned = pins_.find(group) != pins_.end();
    for (Entry& entry : entries_) {
      if (entry.value == nullptr || entry.pin_group != group) continue;
      doomed.push_back(std::move(entry.value));
      entry = Entry{};
      if (was_pinned) {
        pinned_count_.fetch_sub(1, std::memory_order_relaxed);
        detail::cache_pinned_metric().add(-1);
      }
    }
    while (entries_.size() > nominal_slots_ && entries_.back().value == nullptr)
      entries_.pop_back();
  }

  void clear() {
    std::vector<Entry> doomed;  // destructors run outside the lock
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      doomed = std::move(entries_);
      entries_.assign(nominal_slots_, Entry{});
      const std::size_t pinned = pinned_count_.exchange(0, std::memory_order_relaxed);
      detail::cache_pinned_metric().add(-static_cast<std::int64_t>(pinned));
    }
  }

  [[nodiscard]] std::size_t num_slots() const noexcept {
    const std::lock_guard<std::mutex> lock(mutex_);
    return entries_.size();
  }

  [[nodiscard]] Stats stats() const noexcept {
    Stats out;
    out.hits = hits_.load(std::memory_order_relaxed);
    out.misses = misses_.load(std::memory_order_relaxed);
    out.evictions = evictions_.load(std::memory_order_relaxed);
    out.pinned_slots = pinned_count_.load(std::memory_order_relaxed);
    return out;
  }
  void reset_stats() noexcept {
    hits_.store(0, std::memory_order_relaxed);
    misses_.store(0, std::memory_order_relaxed);
    evictions_.store(0, std::memory_order_relaxed);
    // pinned_slots is a gauge, not a counter: it tracks live state.
  }

 private:
  struct Entry {
    std::uint64_t fingerprint = 0;
    const std::type_info* type = nullptr;
    std::shared_ptr<void> value;
    std::uint64_t stamp = 0;
    std::uint64_t pin_group = 0;
  };

  /// Call under mutex_.
  [[nodiscard]] bool pinned(const Entry& entry) const {
    return entry.pin_group != 0 && pins_.find(entry.pin_group) != pins_.end();
  }

  mutable std::mutex mutex_;
  mutable std::vector<Entry> entries_;
  std::size_t nominal_slots_ = kDefaultSlots;
  mutable std::uint64_t clock_ = 0;
  mutable std::unordered_map<std::uint64_t, std::size_t> pins_;  ///< group -> refcount
  mutable std::atomic<std::size_t> hits_{0};
  mutable std::atomic<std::size_t> misses_{0};
  mutable std::atomic<std::size_t> evictions_{0};
  mutable std::atomic<std::size_t> pinned_count_{0};
};

namespace detail {

/// The default `reusable` check of `cached_artifact`: every hit is served.
struct AnyEntry {
  template <class Entry>
  [[nodiscard]] bool operator()(const Entry& /*entry*/) const noexcept {
    return true;
  }
};

}  // namespace detail

/// The get-or-build seam every cached artifact of the library goes through.
///
///  * With `exec.artifact_caching()` off it returns `build()` — no key is
///    computed and nothing is inserted.
///  * Otherwise the key is `tagged_fingerprint(tag, base_key())`, where
///    `base_key()` fingerprints every input the artifact depends on (the
///    content hash folded with its parameters via `combine_fingerprint`).
///    A hit is returned when `reusable(entry)` accepts it (the spatial
///    caches reject entries built over another PointSet object).
///  * On a miss or a rejected hit it returns `build()`, inserted under the
///    key in `exec.cache_pin_group()`; a rejected entry is replaced in place.
///
/// `build()` returns a `std::shared_ptr<Entry>`.  `Exec` is deduced (it is
/// always `exec::Executor`, whose definition includes this header).
template <class Entry, class Exec, class BaseKey, class Build, class Reusable = detail::AnyEntry>
[[nodiscard]] std::shared_ptr<Entry> cached_artifact(const Exec& exec, ArtifactTag tag,
                                                     BaseKey&& base_key, Build&& build,
                                                     Reusable&& reusable = {}) {
  if (!exec.artifact_caching()) return build();
  const std::uint64_t key = tagged_fingerprint(tag, base_key());
  ArtifactCache& cache = exec.artifact_cache();
  std::shared_ptr<Entry> entry = cache.find<Entry>(key);
  if (entry != nullptr && reusable(std::as_const(*entry))) return entry;
  entry = build();
  cache.insert(key, entry, exec.cache_pin_group());
  return entry;
}

}  // namespace pandora::exec
