#pragma once

#include <array>
#include <bit>
#include <cstddef>
#include <span>
#include <type_traits>
#include <utility>
#include <vector>

#include "pandora/common/types.hpp"
#include "pandora/exec/memory.hpp"
#include "pandora/obs/metrics.hpp"

namespace pandora::exec {

namespace detail {

/// Pre-registered handles for the workspace metrics (cf. the exec-layer
/// metrics in executor.hpp): registration on first use, then one relaxed
/// atomic RMW per lease — allocation-free on the warm path.
inline obs::Counter& workspace_bytes_metric() {
  static obs::Counter& metric = obs::registry().counter("pandora_workspace_leased_bytes_total");
  return metric;
}
inline obs::Counter& workspace_miss_metric() {
  static obs::Counter& metric = obs::registry().counter("pandora_workspace_arena_misses_total");
  return metric;
}

}  // namespace detail

/// A size-class-aware byte arena handing out typed spans.
///
/// Kernels lease scratch with `take` / `take_uninit`; a lease is a typed view
/// over a recycled 64-byte-aligned block whose size is rounded up to the next
/// power of two (its *size class*).  When the lease goes out of scope the
/// block returns to its class's free list, so a second call with same-sized
/// inputs performs no heap allocation — and because blocks are raw bytes, one
/// block serves `index_t` scratch on this call and `double` scratch on the
/// next, which keeps retained memory low on mixed workloads (unlike the old
/// per-element-type pools).  Free lists are LIFO: identical call sequences
/// acquire identical blocks, preserving bit-for-bit determinism of anything
/// that (incorrectly) depended on buffer addresses.
///
/// Element types must be trivially copyable and trivially destructible (the
/// arena never runs constructors or destructors); `take_uninit` hands out the
/// block's previous bytes, `take` fills with a value.
///
/// Blocks come from a `MemoryResource` (the owning backend's, host memory by
/// default), so a device backend substitutes device buffers without touching
/// the lease/size-class logic here.
///
/// Not thread-safe: one Workspace belongs to one Executor and kernels on an
/// Executor run one at a time (parallelism happens *inside* kernels).
class Workspace {
 public:
  /// Allocation statistics, exposed so tests and the repeated-query benches
  /// can assert/report the steady-state "no new allocations" property.
  struct Stats {
    std::size_t takes = 0;   ///< leases served
    std::size_t hits = 0;    ///< served from a recycled free block
    std::size_t misses = 0;  ///< required a fresh heap allocation
  };

  /// RAII lease of a typed span over an arena block.  Default-constructed
  /// leases are empty.  A lease must not outlive its Workspace.
  template <class T>
  class Lease {
   public:
    Lease() = default;
    Lease(Lease&& other) noexcept
        : data_(std::exchange(other.data_, nullptr)),
          size_(std::exchange(other.size_, 0)),
          home_(std::exchange(other.home_, nullptr)),
          size_class_(other.size_class_) {}
    Lease& operator=(Lease&& other) noexcept {
      if (this != &other) {
        release();
        data_ = std::exchange(other.data_, nullptr);
        size_ = std::exchange(other.size_, 0);
        home_ = std::exchange(other.home_, nullptr);
        size_class_ = other.size_class_;
      }
      return *this;
    }
    Lease(const Lease&) = delete;
    Lease& operator=(const Lease&) = delete;
    ~Lease() { release(); }

    [[nodiscard]] T* data() noexcept { return data_; }
    [[nodiscard]] const T* data() const noexcept { return data_; }
    [[nodiscard]] std::size_t size() const noexcept { return size_; }
    [[nodiscard]] bool empty() const noexcept { return size_ == 0; }
    [[nodiscard]] T& operator[](std::size_t i) noexcept { return data_[i]; }
    [[nodiscard]] const T& operator[](std::size_t i) const noexcept { return data_[i]; }
    [[nodiscard]] T* begin() noexcept { return data_; }
    [[nodiscard]] T* end() noexcept { return data_ + size_; }
    [[nodiscard]] const T* begin() const noexcept { return data_; }
    [[nodiscard]] const T* end() const noexcept { return data_ + size_; }
    [[nodiscard]] std::span<T> span() noexcept { return {data_, size_}; }
    [[nodiscard]] std::span<const T> span() const noexcept { return {data_, size_}; }
    operator std::span<T>() noexcept { return {data_, size_}; }              // NOLINT
    operator std::span<const T>() const noexcept { return {data_, size_}; }  // NOLINT

   private:
    friend class Workspace;
    Lease(T* data, std::size_t size, Workspace* home, int size_class)
        : data_(data), size_(size), home_(home), size_class_(size_class) {}
    void release() {
      if (home_ != nullptr) {
        home_->release_block(data_, size_class_);
        home_ = nullptr;
      }
      data_ = nullptr;
      size_ = 0;
    }

    T* data_ = nullptr;
    std::size_t size_ = 0;
    Workspace* home_ = nullptr;
    int size_class_ = 0;
  };

  /// `memory == nullptr` selects the process-wide host resource.  The
  /// resource must outlive the Workspace and every lease taken from it.
  explicit Workspace(MemoryResource* memory = nullptr)
      : memory_(memory != nullptr ? memory : &host_memory_resource()) {}
  Workspace(const Workspace&) = delete;
  Workspace& operator=(const Workspace&) = delete;
  ~Workspace() { clear(); }

  [[nodiscard]] MemoryResource& memory_resource() const noexcept { return *memory_; }

  /// Lease a span over `n` elements with unspecified contents (the recycled
  /// block's previous bytes).  For scratch that is fully overwritten before
  /// being read.
  template <class T>
  [[nodiscard]] Lease<T> take_uninit(size_type n) {
    static_assert(std::is_trivially_copyable_v<T> && std::is_trivially_destructible_v<T>,
                  "the Workspace arena hands out raw byte blocks");
    ++stats_.takes;
    if (n <= 0) {
      ++stats_.hits;  // the empty lease costs nothing
      return Lease<T>();
    }
    int size_class = 0;
    void* block = acquire_block(static_cast<std::size_t>(n) * sizeof(T), size_class);
    return Lease<T>(static_cast<T*>(block), static_cast<std::size_t>(n), this, size_class);
  }

  /// Lease a span of `n` elements, every element set to `fill`.
  template <class T>
  [[nodiscard]] Lease<T> take(size_type n, const T& fill = T{}) {
    Lease<T> lease = take_uninit<T>(n);
    for (T& slot : lease) slot = fill;
    return lease;
  }

  [[nodiscard]] const Stats& stats() const noexcept { return stats_; }
  void reset_stats() noexcept { stats_ = {}; }

  /// Bytes currently held on the free lists (retained, reusable memory).
  [[nodiscard]] std::size_t retained_bytes() const noexcept {
    std::size_t total = 0;
    for (std::size_t c = 0; c < kNumClasses; ++c)
      total += free_[c].size() << (c + kMinClassLog2);
    return total;
  }

  /// Free every cached block — the arena returns to its empty state.  Leases
  /// still outstanding are unaffected and return their blocks afterwards.
  void clear() {
    for (std::size_t c = 0; c < kNumClasses; ++c) {
      for (void* block : free_[c]) deallocate_block(block, static_cast<int>(c));
      free_[c].clear();
      free_[c].shrink_to_fit();
    }
  }

 private:
  /// Classes are powers of two from 64 bytes (class 0) upward; class c holds
  /// blocks of exactly 1 << (c + kMinClassLog2) bytes.
  static constexpr std::size_t kMinClassLog2 = 6;
  static constexpr std::size_t kNumClasses = 42;
  static constexpr std::size_t kBlockAlignment = 64;

  [[nodiscard]] static int class_of(std::size_t bytes) {
    const int width = std::bit_width(bytes - 1);  // bytes >= 1
    return width <= static_cast<int>(kMinClassLog2)
               ? 0
               : width - static_cast<int>(kMinClassLog2);
  }

  [[nodiscard]] void* acquire_block(std::size_t bytes, int& size_class) {
    detail::workspace_bytes_metric().inc(bytes);
    const int wanted = class_of(bytes);
    // Exact class first, then the smallest larger class with a free block
    // (a shrinking workload reuses its big blocks instead of allocating).
    for (int c = wanted; c < static_cast<int>(kNumClasses); ++c) {
      auto& list = free_[static_cast<std::size_t>(c)];
      if (!list.empty()) {
        void* block = list.back();
        list.pop_back();
        ++stats_.hits;
        size_class = c;
        return block;
      }
    }
    ++stats_.misses;
    detail::workspace_miss_metric().inc();
    size_class = wanted;
    return memory_->allocate(
        std::size_t{1} << (static_cast<std::size_t>(wanted) + kMinClassLog2),
        kBlockAlignment);
  }

  void release_block(void* block, int size_class) {
    if (block != nullptr) free_[static_cast<std::size_t>(size_class)].push_back(block);
  }

  void deallocate_block(void* block, int size_class) const noexcept {
    memory_->deallocate(block,
                        std::size_t{1} << (static_cast<std::size_t>(size_class) + kMinClassLog2),
                        kBlockAlignment);
  }

  MemoryResource* memory_ = &host_memory_resource();
  std::array<std::vector<void*>, kNumClasses> free_;
  Stats stats_;
};

}  // namespace pandora::exec
