#include "pandora/graph/union_find.hpp"

#include <numeric>

namespace pandora::graph {

UnionFind::UnionFind(index_t n) : parent_(static_cast<std::size_t>(n)) {
  std::iota(parent_.begin(), parent_.end(), index_t{0});
}

index_t UnionFind::find(index_t x) {
  while (parent_[x] != x) {
    parent_[x] = parent_[parent_[x]];  // path halving
    x = parent_[x];
  }
  return x;
}

bool UnionFind::unite(index_t a, index_t b) {
  a = find(a);
  b = find(b);
  if (a == b) return false;
  if (a > b) std::swap(a, b);
  parent_[b] = a;
  return true;
}

index_t UnionFind::num_components() {
  index_t count = 0;
  for (index_t i = 0; i < size(); ++i)
    if (find(i) == i) ++count;
  return count;
}

ConcurrentUnionFind::ConcurrentUnionFind(index_t n) { reset(n); }

void ConcurrentUnionFind::reset(index_t n) {
  parent_.resize(static_cast<std::size_t>(n));
  std::iota(parent_.begin(), parent_.end(), index_t{0});
  view_ = ConcurrentUnionFindView(parent_);
}

index_t ConcurrentUnionFindView::find(index_t x) {
  // Pointer jumping.  Under unite, parents only ever decrease, so this
  // terminates even while other threads hook roots; over a static acyclic
  // forest every step moves to an ancestor.  Writing the grandparent back is
  // a benign race (all writers store values on the path to the same root).
  index_t p = std::atomic_ref<index_t>(parent_[x]).load(std::memory_order_relaxed);
  while (p != x) {
    index_t gp = std::atomic_ref<index_t>(parent_[p]).load(std::memory_order_relaxed);
    if (gp != p) std::atomic_ref<index_t>(parent_[x]).store(gp, std::memory_order_relaxed);
    x = p;
    p = gp;
  }
  return x;
}

void ConcurrentUnionFindView::unite(index_t a, index_t b) {
  while (true) {
    a = find(a);
    b = find(b);
    if (a == b) return;
    if (a > b) std::swap(a, b);  // a is the smaller id; b hooks under a
    index_t expected = b;
    if (std::atomic_ref<index_t>(parent_[b])
            .compare_exchange_strong(expected, a, std::memory_order_acq_rel)) {
      return;
    }
    // Lost the race: b gained a new parent; retry from the new roots.
  }
}

}  // namespace pandora::graph
