#include "layers.hpp"

#include <immintrin.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "core/add.hpp"
#include "core/kernels.hpp"
#include "core/tiled_matrix.hpp"
#include "layout/convert.hpp"
#include "util/aligned_buffer.hpp"
#include "util/rng.hpp"

namespace rlabench {
namespace {

/// Repeat `body` in rounds of at least `round_s` seconds, `rounds` times,
/// and return the median per-call time.
template <typename F>
double median_call_seconds(F&& body, double round_s, int rounds) {
  std::vector<double> per_call;
  for (int r = 0; r < rounds; ++r) {
    std::uint64_t calls = 0;
    const auto t0 = Clock::now();
    double elapsed = 0.0;
    do {
      body();
      ++calls;
      elapsed = seconds_since(t0);
    } while (elapsed < round_s);
    per_call.push_back(elapsed / static_cast<double>(calls));
  }
  return median(per_call);
}

void fill(rla::AlignedBuffer<double>& buf, std::uint64_t seed) {
  rla::Xoshiro256 rng(seed);
  for (double& v : buf) v = rng.next_double(-1.0, 1.0);
}

/// One thread of independent FMA chains: 16 accumulators hide the FMA
/// latency on two ports. Uses the widest vector FMA the build targets.
double fma_probe_gflops() {
  constexpr int kChains = 16;
  constexpr std::uint64_t kIters = 1 << 16;
  volatile double seed_x = 0.999999, seed_y = 1e-9;
  double sink = 0.0;
#if defined(__AVX512F__)
  constexpr int kLanes = 8;
  auto round = [&] {
    __m512d acc[kChains];
    const __m512d x = _mm512_set1_pd(seed_x), y = _mm512_set1_pd(seed_y);
    for (int j = 0; j < kChains; ++j) acc[j] = _mm512_set1_pd(1.0 + j);
    for (std::uint64_t i = 0; i < kIters; ++i)
      for (int j = 0; j < kChains; ++j) acc[j] = _mm512_fmadd_pd(acc[j], x, y);
    alignas(64) double out[8];
    for (int j = 0; j < kChains; ++j) {
      _mm512_store_pd(out, acc[j]);
      for (double v : out) sink += v;
    }
  };
#elif defined(__FMA__)
  constexpr int kLanes = 4;
  auto round = [&] {
    __m256d acc[kChains];
    const __m256d x = _mm256_set1_pd(seed_x), y = _mm256_set1_pd(seed_y);
    for (int j = 0; j < kChains; ++j) acc[j] = _mm256_set1_pd(1.0 + j);
    for (std::uint64_t i = 0; i < kIters; ++i)
      for (int j = 0; j < kChains; ++j) acc[j] = _mm256_fmadd_pd(acc[j], x, y);
    alignas(32) double out[4];
    for (int j = 0; j < kChains; ++j) {
      _mm256_store_pd(out, acc[j]);
      sink += out[0] + out[1] + out[2] + out[3];
    }
  };
#else
  constexpr int kLanes = 1;
  auto round = [&] {
    double acc[kChains];
    const double x = seed_x, y = seed_y;
    for (int j = 0; j < kChains; ++j) acc[j] = 1.0 + j;
    for (std::uint64_t i = 0; i < kIters; ++i)
      for (int j = 0; j < kChains; ++j) acc[j] = std::fma(acc[j], x, y);
    for (int j = 0; j < kChains; ++j) sink += acc[j];
  };
#endif
  const double t = median_call_seconds(round, 0.05, 5);
  volatile double keep = sink;
  (void)keep;
  return 2.0 * kLanes * kChains * static_cast<double>(kIters) / t * 1e-9;
}

constexpr std::size_t kCopyBytes = std::size_t{32} << 20;  // per array

double copy_probe_gbs() {
  rla::AlignedBuffer<double> src(kCopyBytes / sizeof(double), rla::kPageBytes);
  rla::AlignedBuffer<double> dst(kCopyBytes / sizeof(double), rla::kPageBytes);
  fill(src, 7);
  dst.zero();
  const double t = median_call_seconds(
      [&] { std::memcpy(dst.data(), src.data(), kCopyBytes); }, 0.05, 5);
  return 2.0 * static_cast<double>(kCopyBytes) / t * 1e-9;  // read + write
}

std::string mib(double bytes) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.0f MiB", bytes / (1024.0 * 1024.0));
  return buf;
}

/// Z-Morton geometry of 2^level x 2^level tiles of rows x cols elements.
rla::TileGeometry geometry(std::uint32_t rows, std::uint32_t cols, int level) {
  rla::TileGeometry g;
  g.tile_rows = rows;
  g.tile_cols = cols;
  g.depth = level;
  g.rows = rows << level;
  g.cols = cols << level;
  g.curve = rla::Curve::ZMorton;
  return g;
}

/// Quadrant add passes per call, as element-streams moved at each block
/// level (a pass over q elements reading s operands and writing one moves
/// (s + 1)·q element-streams). Index = block level of the pass (0..d-1).
std::vector<double> add_streams_by_level(const LayerShape& s) {
  std::vector<double> streams(static_cast<std::size_t>(std::max(s.depth, 0)), 0.0);
  const double te_a = static_cast<double>(s.tile_m) * s.tile_k;
  const double te_b = static_cast<double>(s.tile_k) * s.tile_n;
  const double te_c = static_cast<double>(s.tile_m) * s.tile_n;
  const bool fast = s.algorithm != rla::Algorithm::Standard;
  const double branch = fast ? 7.0 : 8.0;
  for (int L = 1; L <= s.depth; ++L) {
    const double nodes = std::pow(branch, s.depth - L);
    const double q = std::pow(4.0, L - 1);
    double per_node = 0.0;
    if (!fast) {
      per_node = 4 * 3 * q * te_c;  // four block_acc folds of the temporaries
    } else {
      // Ten pre-add set_adds (3 streams) on A and B quadrants; post-adds:
      // two 4-term (6 streams) and two 2-term (4 streams) accumulations.
      per_node = 5 * 3 * q * te_a + 5 * 3 * q * te_b + (2 * 6 + 2 * 4) * q * te_c;
    }
    streams[static_cast<std::size_t>(L - 1)] = nodes * per_node * s.pieces();
  }
  return streams;
}

}  // namespace

LayerShape shape_of(const rla::GemmProfile& p, rla::Algorithm alg, bool trans_a,
                    bool trans_b, double alpha, double beta) {
  LayerShape s;
  s.algorithm = alg;
  s.depth = std::max(p.depth, 0);
  s.tile_m = std::max<std::uint32_t>(p.tile_m, 1);
  s.tile_k = std::max<std::uint32_t>(p.tile_k, 1);
  s.tile_n = std::max<std::uint32_t>(p.tile_n, 1);
  s.splits = p.splits;
  s.trans_a = trans_a;
  s.trans_b = trans_b;
  s.alpha = alpha;
  s.beta = beta;
  return s;
}

double analytic_leaf_calls(const LayerShape& s) {
  const double branch = s.algorithm == rla::Algorithm::Standard ? 8.0 : 7.0;
  return std::pow(branch, s.depth) * s.pieces();
}

double analytic_tree_flops(const LayerShape& s) {
  // As the recursion charges them: 2·tm·tk·tn per leaf, and per internal
  // node one FLOP per destination element and summed term of each add pass.
  const double te_a = static_cast<double>(s.tile_m) * s.tile_k;
  const double te_b = static_cast<double>(s.tile_k) * s.tile_n;
  const double te_c = static_cast<double>(s.tile_m) * s.tile_n;
  const bool fast = s.algorithm != rla::Algorithm::Standard;
  const double branch = fast ? 7.0 : 8.0;
  double flops = analytic_leaf_calls(s) / s.pieces() * 2.0 * s.tile_m * s.tile_k * s.tile_n;
  for (int L = 1; L <= s.depth; ++L) {
    const double nodes = std::pow(branch, s.depth - L);
    const double q = std::pow(4.0, L - 1);
    flops += nodes * (fast ? (5 * q * te_a + 5 * q * te_b + 12 * q * te_c)
                           : 4 * q * te_c);
  }
  return flops * s.pieces();
}

void add_roofline_metrics(Sheet& sheet, SpanLog& spans, double& fma_gflops) {
  const int root = spans.open("roof", 0);
  int span = spans.open("roof.fma", 0, root);
  fma_gflops = fma_probe_gflops();
  spans.close(span);
  span = spans.open("roof.copy", 0, root);
  const double copy = copy_probe_gbs();
  spans.close(span);
  spans.close(root);

  const long llc = sysconf(_SC_LEVEL3_CACHE_SIZE);
  const long l2 = sysconf(_SC_LEVEL2_CACHE_SIZE);
  sheet.add("roof.fma_gflops", fma_gflops, "GF/s", "1 thread, independent vector FMA chains");
  std::string note = "1 thread memcpy, 2 x " + mib(kCopyBytes) + " arrays, bytes read+written";
  if (llc > 0) {
    note += "; LLC " + mib(static_cast<double>(llc)) + ", L2 " + mib(static_cast<double>(l2)) +
            (2.0 * kCopyBytes < 4.0 * static_cast<double>(llc)
                 ? ": arrays fit the LLC, so this is a cache-level rate, not DRAM"
                 : ": arrays exceed 4x LLC (DRAM rate)");
  }
  sheet.add("roof.copy_gbs", copy, "GB/s", note);
}

void add_replay_metrics(Sheet& sheet, SpanLog& spans, const LayerShape& s,
                        double compute_ms, double fma_gflops) {
  const int root = spans.open("replay", 0);

  // Leaf kernel on one cache-resident tile triple.
  int span = spans.open("replay.kernel", 0, root);
  rla::AlignedBuffer<double> a(std::size_t{s.tile_m} * s.tile_k, 64);
  rla::AlignedBuffer<double> b(std::size_t{s.tile_k} * s.tile_n, 64);
  rla::AlignedBuffer<double> c(std::size_t{s.tile_m} * s.tile_n, 64);
  fill(a, 11);
  fill(b, 12);
  c.zero();
  const double t_leaf = median_call_seconds(
      [&] {
        rla::leaf_mm_tile(rla::GemmConfig{}.kernel, s.tile_m, s.tile_n, s.tile_k,
                          a.data(), b.data(), c.data());
      },
      0.04, 5);
  spans.close(span);
  const double leaf_gflops = 2.0 * s.tile_m * s.tile_k * s.tile_n / t_leaf * 1e-9;
  char tile[64];
  std::snprintf(tile, sizeof tile, "tile %ux%ux%u", s.tile_m, s.tile_k, s.tile_n);
  sheet.add("kernels.leaf_gflops", leaf_gflops, "GF/s", std::string("leaf_mm_tile at ") + tile);
  sheet.add("kernels.peak_frac", leaf_gflops / fma_gflops, "ratio",
            "kernels.leaf_gflops / roof.fma_gflops");
  sheet.add("kernels.leaf_calls", analytic_leaf_calls(s), "count",
            "computed per call: (8 or 7)^depth x (splits + 1)");

  // Quadrant adds: block_acc at the quadrant sizes of depths 0..2, i.e.
  // block levels d-1, d-2, d-3 of the C tile grid.
  span = spans.open("replay.add", 0, root);
  const auto streams = add_streams_by_level(s);
  std::vector<double> rate_by_level(streams.size(), 0.0);  // element-streams/s
  double add_bytes = 0.0, add_time = 0.0;
  for (int depth = 0; depth < 3 && s.depth - 1 - depth >= 0; ++depth) {
    const int level = s.depth - 1 - depth;
    rla::TiledMatrix dst(geometry(s.tile_m, s.tile_n, level));
    rla::TiledMatrix src(geometry(s.tile_m, s.tile_n, level));
    dst.zero();
    src.zero();
    const double t = median_call_seconds(
        [&] { rla::block_acc(dst.root(), 1.0, src.root()); }, 0.02, 3);
    const double elems = static_cast<double>(dst.root().elems());
    rate_by_level[static_cast<std::size_t>(level)] = 3.0 * elems / t;
    add_bytes += 3.0 * elems * sizeof(double);
    add_time += t;
  }
  spans.close(span);
  // Levels below the smallest replayed size run at its rate.
  for (std::size_t L = rate_by_level.size(); L-- > 0;)
    if (rate_by_level[L] == 0.0 && L + 1 < rate_by_level.size())
      rate_by_level[L] = rate_by_level[L + 1];
  double add_est_s = 0.0;
  for (std::size_t L = 0; L < streams.size(); ++L)
    if (rate_by_level[L] > 0.0) add_est_s += streams[L] / rate_by_level[L];
  sheet.add("add.gbs", add_time > 0.0 ? add_bytes / add_time * 1e-9 : 0.0, "GB/s",
            "block_acc at the d0-d2 quadrant sizes, computed bytes (2 reads + 1 write)");
  sheet.add("add.share_est", compute_ms > 0.0 ? add_est_s * 1e3 / compute_ms : 0.0, "ratio",
            "analytic add passes x 1-thread replay time / gemm.compute_ms");

  // Layout conversion in (A, B and C with the call's transposes and
  // scaling) and out (C), at the geometry of one piece.
  span = spans.open("replay.convert", 0, root);
  const rla::TileGeometry ga = geometry(s.tile_m, s.tile_k, s.depth);
  const rla::TileGeometry gb = geometry(s.tile_k, s.tile_n, s.depth);
  const rla::TileGeometry gc = geometry(s.tile_m, s.tile_n, s.depth);
  rla::AlignedBuffer<double> ca(ga.total_elems(), rla::kPageBytes), ta(ga.total_elems(), rla::kPageBytes);
  rla::AlignedBuffer<double> cb(gb.total_elems(), rla::kPageBytes), tb(gb.total_elems(), rla::kPageBytes);
  rla::AlignedBuffer<double> cc(gc.total_elems(), rla::kPageBytes), tc(gc.total_elems(), rla::kPageBytes);
  fill(ca, 21);
  fill(cb, 22);
  fill(cc, 23);
  const std::size_t lda = s.trans_a ? ga.cols : ga.rows;
  const std::size_t ldb = s.trans_b ? gb.cols : gb.rows;
  const double t_conv = median_call_seconds(
      [&] {
        rla::canonical_to_tiled(ca.data(), lda, s.trans_a, s.alpha, ga, ta.data());
        rla::canonical_to_tiled(cb.data(), ldb, s.trans_b, 1.0, gb, tb.data());
        if (s.beta != 0.0) rla::canonical_to_tiled(cc.data(), gc.rows, false, s.beta, gc, tc.data());
        rla::tiled_to_canonical(tc.data(), gc, cc.data(), gc.rows);
      },
      0.05, 3);
  spans.close(span);
  const double elems = static_cast<double>(ga.total_elems() + gb.total_elems()) +
                       static_cast<double>(gc.total_elems()) * (s.beta != 0.0 ? 2 : 1);
  sheet.add("convert.gbs", 2.0 * elems * sizeof(double) / t_conv * 1e-9, "GB/s",
            "canonical_to_tiled (A, B, C if beta != 0) + tiled_to_canonical (C), one piece, "
            "computed bytes, 1 thread");
  spans.close(root);
}

double add_profile_metrics(Sheet& sheet, const std::vector<CallSample>& calls,
                           const LayerShape& shape) {
  std::vector<double> cin, cout, comp, ratio, tasks, steals, pops, failed, idle;
  for (const CallSample& c : calls) {
    const rla::GemmProfile& p = c.profile;
    cin.push_back(p.convert_in * 1e3);
    cout.push_back(p.convert_out * 1e3);
    comp.push_back(p.compute * 1e3);
    ratio.push_back((p.convert_in + p.compute + p.convert_out) / c.wall_s);
    tasks.push_back(static_cast<double>(p.sched.tasks));
    steals.push_back(static_cast<double>(p.sched.steals));
    pops.push_back(static_cast<double>(p.sched.injection_pops));
    failed.push_back(static_cast<double>(p.sched.failed_steals));
    idle.push_back(static_cast<double>(p.sched.idle_wakeups));
  }
  const bool split = shape.splits > 0;
  const char* summed = split ? "profile phase, summed over parallel split pieces" : "profile phase";
  sheet.add("convert.in_ms", median(cin), "ms", summed);
  sheet.add("convert.out_ms", median(cout), "ms", summed);
  sheet.add("gemm.compute_ms", median(comp), "ms", summed);
  sheet.add("gemm.depth", shape.depth, "count");
  sheet.add("gemm.tile_m", shape.tile_m, "count");
  sheet.add("gemm.splits", shape.splits, "count");
  sheet.add("gemm.phase_sum_over_wall", median(ratio), "ratio",
            "(convert_in + compute + convert_out) / bench wall time; > 1 is a known defect");
  sheet.add("sched.tasks_per_call", median(tasks), "count");
  sheet.add("sched.steals_per_call", median(steals), "count");
  sheet.add("sched.injection_pops_per_call", median(pops), "count");
  sheet.add("sched.failed_steals_per_call", median(failed), "count");
  sheet.add("sched.idle_wakeups_per_call", median(idle), "count");
  return median(comp);
}

void add_traced_profile_metrics(Sheet& sheet, const std::vector<CallSample>& calls) {
  std::vector<double> par, util, conservation;
  double depth_ns[4] = {0, 0, 0, 0};
  double all_ns = 0.0;
  for (const CallSample& c : calls) {
    const rla::GemmProfile& p = c.profile;
    if (p.measured && p.measured_span > 0.0) {
      par.push_back(p.measured_work / p.measured_span);
      if (p.compute > 0.0)
        util.push_back(p.measured_work / ((p.sched.workers + 1.0) * p.compute));
    }
    if (!p.tree_measured || p.tree_profile.empty()) continue;
    double flops = 0.0;
    for (const auto& node : p.tree_profile) {
      flops += static_cast<double>(node.flops);
      const int depth = std::atoi(node.key.c_str() + 1);  // "d<depth>[:path]"
      if (depth >= 0 && depth < 4) depth_ns[depth] += static_cast<double>(node.time_ns);
      all_ns += static_cast<double>(node.time_ns);
    }
    if (p.degradation_trail.empty())
      conservation.push_back(flops / analytic_tree_flops(c.shape));
  }
  sheet.add("sched.parallelism", median(par), "ratio", "measured_work / measured_span");
  sheet.add("sched.util", median(util), "ratio", "measured_work / (threads x compute)");
  for (int d = 0; d < 4; ++d)
    sheet.add("treeprof.d" + std::to_string(d) + ".share",
              all_ns > 0.0 ? depth_ns[d] / all_ns : 0.0, "ratio",
              "exclusive node time at this depth / all node time");
  sheet.add("treeprof.flops_conservation", median(conservation), "ratio",
            "sum of node FLOPs / analytic count at the run's thread count; "
            "1 is correct, below 1 is a known defect");
}

}  // namespace rlabench
