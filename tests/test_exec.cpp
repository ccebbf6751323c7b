#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <random>
#include <string>

#include "pandora/common/rng.hpp"
#include "pandora/exec/parallel.hpp"
#include "pandora/exec/scan.hpp"
#include "pandora/exec/sort.hpp"

namespace {

using namespace pandora;
using BackendPtr = std::shared_ptr<const exec::Backend>;

class ExecBothSpaces : public ::testing::TestWithParam<BackendPtr> {};

INSTANTIATE_TEST_SUITE_P(Backends, ExecBothSpaces,
                         ::testing::ValuesIn(exec::registered_backends()),
                         [](const auto& info) { return std::string(info.param->name()); });

TEST_P(ExecBothSpaces, ParallelForCoversEveryIndex) {
  const size_type n = 100000;
  std::vector<int> hits(n, 0);
  exec::parallel_for(exec::default_executor(GetParam()), n, [&](size_type i) { hits[static_cast<std::size_t>(i)]++; });
  EXPECT_TRUE(std::all_of(hits.begin(), hits.end(), [](int h) { return h == 1; }));
}

TEST_P(ExecBothSpaces, ParallelForEmptyAndTiny) {
  int count = 0;
  exec::parallel_for(exec::default_executor(GetParam()), 0, [&](size_type) { ++count; });
  EXPECT_EQ(count, 0);
  exec::parallel_for(exec::default_executor(GetParam()), 3, [&](size_type) { ++count; });
  EXPECT_EQ(count, 3);
}

TEST_P(ExecBothSpaces, ReduceSumMatchesSerial) {
  const size_type n = 250007;
  const auto sum = exec::parallel_sum(exec::default_executor(GetParam()), n, std::int64_t{0},
                                      [](size_type i) { return static_cast<std::int64_t>(i); });
  EXPECT_EQ(sum, n * (n - 1) / 2);
}

TEST_P(ExecBothSpaces, ReduceMaxMatchesSerial) {
  const size_type n = 99991;
  Rng rng(7);
  std::vector<std::int64_t> values(n);
  for (auto& v : values) v = static_cast<std::int64_t>(rng.next_below(1u << 30));
  const auto maxval = exec::parallel_reduce(
      exec::default_executor(GetParam()), n, std::int64_t{-1},
      [&](size_type i) { return values[static_cast<std::size_t>(i)]; },
      [](std::int64_t a, std::int64_t b) { return std::max(a, b); });
  EXPECT_EQ(maxval, *std::max_element(values.begin(), values.end()));
}

TEST_P(ExecBothSpaces, ExclusiveScanMatchesReference) {
  for (size_type n : {0, 1, 5, 4097, 250000}) {
    Rng rng(static_cast<std::uint64_t>(n));
    std::vector<index_t> in(static_cast<std::size_t>(n));
    for (auto& v : in) v = static_cast<index_t>(rng.next_below(100));
    std::vector<index_t> expected(in.size());
    index_t running = 0;
    for (std::size_t i = 0; i < in.size(); ++i) {
      expected[i] = running;
      running += in[i];
    }
    std::vector<index_t> out(in.size());
    const index_t total = exec::exclusive_scan<index_t>(exec::default_executor(GetParam()), in, out);
    EXPECT_EQ(total, running) << "n=" << n;
    EXPECT_EQ(out, expected) << "n=" << n;
  }
}

TEST_P(ExecBothSpaces, ExclusiveScanAliasesInPlace) {
  std::vector<index_t> data(100000, 1);
  const index_t total = exec::exclusive_scan<index_t>(exec::default_executor(GetParam()), data, data);
  EXPECT_EQ(total, 100000);
  EXPECT_EQ(data[0], 0);
  EXPECT_EQ(data[99999], 99999);
}

TEST_P(ExecBothSpaces, InclusiveScanMatchesReference) {
  const size_type n = 123457;
  std::vector<std::int64_t> in(static_cast<std::size_t>(n), 2);
  std::vector<std::int64_t> out(in.size());
  exec::inclusive_scan<std::int64_t>(exec::default_executor(GetParam()), in, out);
  EXPECT_EQ(out[0], 2);
  EXPECT_EQ(out.back(), 2 * n);
}

TEST_P(ExecBothSpaces, MergeSortSortsAndIsStable) {
  const size_type n = 200001;
  Rng rng(11);
  struct Item {
    int key;
    int tag;
  };
  std::vector<Item> items(static_cast<std::size_t>(n));
  for (std::size_t i = 0; i < items.size(); ++i)
    items[i] = {static_cast<int>(rng.next_below(1000)), static_cast<int>(i)};
  exec::merge_sort(exec::default_executor(GetParam()), std::span(items), [](const Item& a, const Item& b) { return a.key < b.key; });
  for (std::size_t i = 1; i < items.size(); ++i) {
    ASSERT_LE(items[i - 1].key, items[i].key);
    if (items[i - 1].key == items[i].key) {
      ASSERT_LT(items[i - 1].tag, items[i].tag);  // stability
    }
  }
}

TEST_P(ExecBothSpaces, RadixSortMatchesStdSort) {
  for (size_type n : {0, 1, 2, 4095, 4096, 250001}) {
    Rng rng(static_cast<std::uint64_t>(n) + 3);
    std::vector<std::uint64_t> keys(static_cast<std::size_t>(n));
    for (auto& k : keys) k = rng.next_u64();
    std::vector<std::uint64_t> expected = keys;
    std::sort(expected.begin(), expected.end());
    exec::radix_sort_u64(exec::default_executor(GetParam()), keys);
    EXPECT_EQ(keys, expected) << "n=" << n;
  }
}

TEST_P(ExecBothSpaces, RadixSortSkipsConstantBytesCorrectly) {
  // Keys confined to the low 20 bits: most passes are skipped.
  std::vector<std::uint64_t> keys;
  Rng rng(5);
  for (int i = 0; i < 300000; ++i) keys.push_back(rng.next_below(1u << 20));
  std::vector<std::uint64_t> expected = keys;
  std::sort(expected.begin(), expected.end());
  exec::radix_sort_u64(exec::default_executor(GetParam()), keys);
  EXPECT_EQ(keys, expected);
}

// parallel_reduce folds each thread's contiguous chunk locally and then
// combines the per-thread partials sequentially in thread-id order, i.e. the
// overall combine order is left-to-right over [0, n).  `combine` therefore
// only needs associativity, NOT commutativity; this test pins that contract
// with 2x2 matrix products (associative, famously non-commutative).  The old
// implementation merged partials inside an OpenMP critical section in thread
// *arrival* order, which breaks exactly this case.
TEST(ExecReduce, NonCommutativeCombineMatchesSequentialOrder) {
  struct Mat2 {
    std::int64_t a = 1, b = 0, c = 0, d = 1;  // identity
  };
  constexpr std::int64_t kMod = 1000000007;
  const auto multiply = [](const Mat2& x, const Mat2& y) {
    Mat2 r;
    r.a = (x.a * y.a + x.b * y.c) % kMod;
    r.b = (x.a * y.b + x.b * y.d) % kMod;
    r.c = (x.c * y.a + x.d * y.c) % kMod;
    r.d = (x.c * y.b + x.d * y.d) % kMod;
    return r;
  };
  const auto element = [](size_type i) {
    // A mix of upper- and lower-triangular factors: products of these are
    // order-sensitive.
    Mat2 m;
    if (i % 2 == 0) {
      m.b = (i % 97) + 1;
    } else {
      m.c = (i % 89) + 1;
    }
    return m;
  };

  const size_type n = 50000;
  Mat2 expected;
  for (size_type i = 0; i < n; ++i) expected = multiply(expected, element(i));

  // A 4-thread budget forces the parallel path even on small machines (the
  // OpenMP runtime oversubscribes happily).
  const exec::Executor executor(exec::openmp_backend(), 4);
  ASSERT_TRUE(executor.parallelize(n));
  const Mat2 got = exec::parallel_reduce(executor, n, Mat2{}, element, multiply);
  EXPECT_EQ(got.a, expected.a);
  EXPECT_EQ(got.b, expected.b);
  EXPECT_EQ(got.c, expected.c);
  EXPECT_EQ(got.d, expected.d);
}

TEST(ExecReduce, NonCommutativeCombineIsStableAcrossThreadBudgets) {
  const size_type n = 30000;
  const auto concat_digit = [](std::string acc, std::string next) { return acc + next; };
  const auto digit = [](size_type i) { return std::string(1, '0' + static_cast<char>(i % 10)); };
  std::string expected;
  for (size_type i = 0; i < n; ++i) expected += digit(i);
  for (const int threads : {1, 2, 3, 8}) {
    const exec::Executor executor(exec::openmp_backend(), threads);
    const auto got =
        exec::parallel_reduce(executor, n, std::string{}, digit, concat_digit);
    ASSERT_EQ(got, expected) << "threads=" << threads;
  }
}

TEST(ExecAtomics, FetchMinAdd) {
  index_t slot = 9;
  exec::atomic_fetch_min(slot, index_t{11});
  EXPECT_EQ(slot, 9);
  exec::atomic_fetch_min(slot, index_t{2});
  EXPECT_EQ(slot, 2);
  EXPECT_EQ(exec::atomic_fetch_add(slot, index_t{7}), 2);
  EXPECT_EQ(slot, 9);
}

TEST(ExecAtomics, ConcurrentMinFindsGlobalMin) {
  index_t slot = 1000003;
  const size_type n = 1 << 20;
  exec::parallel_for(exec::default_executor(), n, [&](size_type i) {
    exec::atomic_fetch_min(slot, static_cast<index_t>((i * 2654435761u + 1) % 1000003));
  });
  EXPECT_EQ(slot, 0);  // the residue range is fully covered for n > 10^6
}

TEST(ExecOrderBits, PreservesOrderForNonNegativeDoubles) {
  Rng rng(3);
  double prev = 0;
  for (int i = 0; i < 1000; ++i) {
    const double a = rng.next_double() * 1e9;
    const double b = rng.next_double() * 1e9;
    EXPECT_EQ(a < b, exec::order_preserving_bits(a) < exec::order_preserving_bits(b));
    prev = a;
  }
  (void)prev;
  EXPECT_LT(exec::order_preserving_bits(0.0), exec::order_preserving_bits(1e-300));
}

}  // namespace
