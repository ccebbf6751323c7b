#include "pandora/snapshot/snapshot.hpp"

#include <utility>

#include "pandora/common/expect.hpp"
#include "pandora/obs/metrics.hpp"

namespace pandora::snapshot {

namespace {

/// Epoch bundles currently alive — the writer's published snapshot plus
/// every epoch still pinned by a draining reader; a value stuck above 1
/// means readers are holding epochs back from reclamation.
obs::Gauge& live_epochs_metric() {
  static obs::Gauge& metric = obs::registry().gauge("pandora_snapshot_live_epochs");
  return metric;
}

obs::Counter& epochs_reclaimed_metric() {
  static obs::Counter& metric =
      obs::registry().counter("pandora_snapshot_epochs_reclaimed_total");
  return metric;
}

}  // namespace

/// Installs the reader context on a reader's executor for the duration of
/// one query: the serving cache (so every reader shares one artifact pool)
/// and the snapshot's pin group (so everything the query inserts is pinned
/// until the snapshot retires).  Previous state is restored on exit, so a
/// reader executor can serve interleaved snapshot and non-snapshot work.
class Snapshot::ReaderScope {
 public:
  ReaderScope(const exec::Executor& exec, const Snapshot& snapshot)
      : exec_(exec),
        saved_cache_(exec.shared_artifact_cache()),
        pin_guard_(exec, snapshot.fingerprint()) {
    if (snapshot.cache_ != nullptr) exec.use_shared_artifact_cache(snapshot.cache_.get());
  }
  ReaderScope(const ReaderScope&) = delete;
  ReaderScope& operator=(const ReaderScope&) = delete;
  ~ReaderScope() { exec_.use_shared_artifact_cache(saved_cache_); }

 private:
  const exec::Executor& exec_;
  exec::ArtifactCache* saved_cache_;
  exec::ScopedPinGroup pin_guard_;
};

Snapshot::Snapshot(std::shared_ptr<exec::ArtifactCache> cache, dyn::ArtifactBundle bundle)
    : cache_(std::move(cache)), bundle_(std::move(bundle)) {
  PANDORA_EXPECT(bundle_.points != nullptr && bundle_.emst != nullptr &&
                     bundle_.sorted_edges != nullptr && bundle_.dendrogram != nullptr,
                 "Snapshot requires a fully captured ArtifactBundle");
  if (cache_ != nullptr) cache_->pin(bundle_.fingerprint);
  live_epochs_metric().add(1);
}

Snapshot::~Snapshot() {
  // The destructor is RCU-style reclamation itself: it runs when the last
  // reader of this epoch drains (or the writer republishes an unread one).
  live_epochs_metric().add(-1);
  epochs_reclaimed_metric().inc();
  if (cache_ != nullptr) {
    // Purge before unpin: the entries leave the cache while still counted
    // as pinned, and the group refcount drops once nothing references it.
    cache_->purge_group(bundle_.fingerprint);
    cache_->unpin(bundle_.fingerprint);
  }
}

std::shared_ptr<const spatial::KdTree> Snapshot::tree(const exec::Executor& exec) const {
  PANDORA_EXPECT(size() > 0, "snapshot holds no points");
  // Held across the build so concurrent first readers wait for one build.
  // A build that throws (a reader's deadline fired mid-build) leaves
  // `tree_` empty, and the next reader retries it.
  const std::lock_guard<std::mutex> lock(tree_mutex_);
  if (tree_ == nullptr) {
    const ReaderScope scope(exec, *this);
    tree_ = spatial::kdtree_cached(exec, *bundle_.points, /*leaf_size=*/32,
                                   bundle_.fingerprint);
  }
  return tree_;
}

pandora::hdbscan::HdbscanResult Snapshot::hdbscan(
    const exec::Executor& exec, const pandora::hdbscan::HdbscanOptions& options) const {
  PANDORA_EXPECT(size() > 0, "snapshot holds no points");
  (void)tree(exec);  // concurrent first readers share one tree build
  const ReaderScope scope(exec, *this);
  return pandora::hdbscan::hdbscan(exec, *bundle_.points, options, bundle_.fingerprint);
}

pandora::hdbscan::MinClusterSizeSweep Snapshot::sweep_min_cluster_size(
    const exec::Executor& exec, std::span<const index_t> min_cluster_sizes,
    const pandora::hdbscan::HdbscanOptions& base) const {
  PANDORA_EXPECT(size() > 0, "snapshot holds no points");
  (void)tree(exec);
  const ReaderScope scope(exec, *this);
  return pandora::hdbscan::hdbscan_sweep_min_cluster_size(exec, *bundle_.points,
                                                          min_cluster_sizes, base,
                                                          bundle_.fingerprint);
}

std::vector<pandora::hdbscan::HdbscanResult> Snapshot::sweep_min_pts(
    const exec::Executor& exec, std::span<const int> min_pts_values,
    const pandora::hdbscan::HdbscanOptions& base) const {
  PANDORA_EXPECT(size() > 0, "snapshot holds no points");
  (void)tree(exec);
  const ReaderScope scope(exec, *this);
  return pandora::hdbscan::hdbscan_sweep_min_pts(exec, *bundle_.points, min_pts_values, base,
                                                 bundle_.fingerprint);
}

}  // namespace pandora::snapshot
