// Distance-kernel microbench: the scalar reference batch kernel against the
// runtime-dispatched SIMD kernel over dimension-blocked SoA storage, at the
// paper's Table 2 dimensionalities (2, 3, 5, 7).  Throughput is point-pairs
// per second (one squared distance each); speedup = scalar_median /
// simd_median.
//
// The JSON artifact (BENCH_distance_kernels.json) is the input of the
// check_regression.py --distance-json gate: when the build dispatches to a
// vector path (simd_width >= 4) the median speedup across rows must clear
// the configured floor; scalar builds (PANDORA_SIMD=OFF or no AVX2 cpu)
// record simd_width so the gate knows to skip.

#include <cstdio>

#include "bench_common.hpp"
#include "pandora/data/point_generators.hpp"
#include "pandora/spatial/distance.hpp"
#include "pandora/spatial/point_set.hpp"

using namespace pandora;

int main() {
  bench::print_header("SoA batch distance kernels: scalar vs SIMD dispatch",
                      "Section 6.5 kNN hot loop, Table 2 dimensionalities");
  bench::JsonReport json("distance_kernels");

  const int width = spatial::distance::simd_vector_width();
  std::printf("simd compiled: %s, runtime vector width: %d\n",
              spatial::distance::simd_compiled() ? "yes" : "no", width);
  std::printf("%4s %9s | %14s %14s | %8s\n", "dim", "npts", "scalar [Mp/s]", "simd [Mp/s]",
              "speedup");

  for (const int dim : {2, 3, 5, 7}) {
    const index_t n = bench::scaled(1 << 17);
    const spatial::PointSet points =
        data::uniform_points(n, dim, 2024 + static_cast<std::uint64_t>(dim));
    const spatial::SoaStore soa(points.coords().data(), n, dim);
    const std::vector<double> query(static_cast<std::size_t>(dim), 0.5);
    std::vector<double> out(static_cast<std::size_t>(n));

    // Checksum folded into a volatile sink so neither kernel's stores can be
    // dead-code-eliminated; also asserts the two paths agree bit-for-bit.
    volatile double sink = 0;
    const auto sweep = [&](auto&& kernel) {
      for (index_t b = 0; b < soa.num_blocks(); ++b)
        kernel(query.data(), soa.block(b), dim, soa.block_size(b), spatial::SoaStore::kLane,
               out.data() + b * spatial::SoaStore::kLane);
      sink = sink + out[static_cast<std::size_t>(n) / 2];
    };

    const int repeats = 9;
    const bench::Measurement m_scalar = bench::measure(
        repeats, [&] { sweep(spatial::distance::batch_squared_distances_scalar); });
    std::vector<double> scalar_out = out;
    const bench::Measurement m_simd = bench::measure(repeats, [&] {
      sweep([](const double* q, const double* block, int d, index_t count, index_t stride,
               double* o) {
        spatial::distance::batch_squared_distances(q, block, d, count, stride, o);
      });
    });
    if (scalar_out != out) {
      std::fprintf(stderr, "FATAL: scalar and dispatched kernels disagree at dim %d\n", dim);
      return 1;
    }

    const double scalar_mps = bench::mpoints_per_sec(points.size(), m_scalar.median());
    const double simd_mps = bench::mpoints_per_sec(points.size(), m_simd.median());
    const double speedup = m_simd.median() > 0 ? m_scalar.median() / m_simd.median() : 0.0;
    std::printf("%4d %9d | %14.1f %14.1f | %7.2fx\n", dim, points.size(), scalar_mps, simd_mps,
                speedup);

    json.field("dim", static_cast<std::int64_t>(dim))
        .field("n", points.size())
        .field("simd_width", static_cast<std::int64_t>(width))
        .timing("scalar", m_scalar)
        .timing("simd", m_simd)
        .field("scalar_mpoints_per_sec", scalar_mps)
        .field("simd_mpoints_per_sec", simd_mps)
        .field("speedup", speedup);
    json.end_row();
  }

  std::printf(
      "\nExpected shape: with AVX2 dispatched (width 4) the SIMD column clears the\n"
      "scalar one by well over the 1.2x CI floor at every Table 2 dimensionality;\n"
      "scalar builds report width 1 and identical columns (bit-identical kernels).\n");
  return 0;
}
