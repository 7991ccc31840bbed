#include "core/gemm.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <limits>
#include <optional>
#include <stdexcept>

#include "analysis/numerics/error_bound.hpp"
#include "analysis/numerics/fptrap.hpp"
#include "analysis/numerics/shadow.hpp"
#include "analysis/race_detect.hpp"
#include "core/canonical.hpp"
#include "core/kernels.hpp"
#include "core/recursion.hpp"
#include "core/work_span.hpp"
#include "core/zero_tree.hpp"
#include "layout/bits.hpp"
#include "layout/convert.hpp"
#include "obs/collector.hpp"
#include "obs/perf.hpp"
#include "obs/treeprof/treeprof.hpp"
#include "parallel/worker_pool.hpp"
#include "robust/error.hpp"
#include "robust/fault.hpp"
#include "robust/verify.hpp"
#include "support/sync.hpp"
#include "util/aligned_buffer.hpp"
#include "util/env.hpp"
#include "util/timer.hpp"

namespace rla {

namespace {

/// Anything past this is a config bug, not a big machine.
constexpr unsigned kMaxThreads = 4096;
/// Tile grids are 2^d × 2^d over uint32 extents; past 30 nothing is feasible.
constexpr int kMaxForcedDepth = 30;

/// Multiplexing-scaled perf sample -> the profile's named-field form.
GemmProfile::HwCounters to_hw_counters(const obs::perf::Sample& s) {
  GemmProfile::HwCounters hw;
  hw.cycles = s.value[obs::perf::kCycles];
  hw.instructions = s.value[obs::perf::kInstructions];
  hw.l1d_read_misses = s.value[obs::perf::kL1dReadMisses];
  hw.llc_misses = s.value[obs::perf::kLlcMisses];
  hw.dtlb_misses = s.value[obs::perf::kDtlbMisses];
  hw.task_clock_ns = s.value[obs::perf::kTaskClock];
  return hw;
}

/// Mutable accumulation wrapper so split pieces can report concurrently.
/// Also collects the degradation trail (kept internally so it is available
/// for rla::Error even when the caller passed no profile).
struct ProfileSink {
  GemmProfile* RLA_PT_GUARDED_BY(mutex) out = nullptr;
  Mutex mutex;  // lock-level: registry
  std::vector<std::string> trail RLA_GUARDED_BY(mutex);
  unsigned fp_mask RLA_GUARDED_BY(mutex) = 0;  ///< hazards noted so far
  /// Set right before a run first writes the caller's C. A failure after
  /// that point leaves C holding neither its input nor the product.
  std::atomic<bool> c_written{false};

  void writing_c() { c_written.store(true, std::memory_order_relaxed); }
  bool wrote_c() const { return c_written.load(std::memory_order_relaxed); }

  void add(double conv_in, double compute, double conv_out, int depth,
           std::uint32_t tm, std::uint32_t tk, std::uint32_t tn) {
    MutexLock lock(mutex);
    out->convert_in += conv_in;
    out->compute += compute;
    out->convert_out += conv_out;
    out->depth = depth;
    out->tile_m = tm;
    out->tile_k = tk;
    out->tile_n = tn;
  }

  void count_split() {
    MutexLock lock(mutex);
    ++out->splits;
  }

  void degrade(std::string step) {
    MutexLock lock(mutex);
    trail.push_back(std::move(step));
  }

  /// Record the a priori bound of one executed piece; the profile keeps the
  /// worst (largest) bound across split pieces.
  void set_bound(const numerics::ErrorBound& b) {
    MutexLock lock(mutex);
    if (b.constant >= out->bound_constant) {
      out->bound_constant = b.constant;
      out->error_bound = b.relative;
    }
    out->bound_fast_levels = std::max(out->bound_fast_levels, b.fast_levels);
  }

  /// Record an FP hazard with phase attribution ("fp:<phase>:<flags>").
  void note_fp(const char* phase, unsigned mask) {
    MutexLock lock(mutex);
    trail.push_back(std::string("fp:") + phase + ":" +
                    numerics::fp_describe(mask));
    fp_mask |= mask;
  }

  unsigned hazards() {
    MutexLock lock(mutex);
    return fp_mask;
  }

  /// Copy the trail into the caller's profile (call once, at quiescence).
  void flush_trail() {
    MutexLock lock(mutex);
    out->degradation_trail = trail;
    out->degradations = static_cast<int>(trail.size());
  }
};

/// Drain the FP-flag accumulator at a phase boundary and attribute anything
/// raised since the last drain to `phase`. One relaxed load when fp_check is
/// off.
void fp_phase(ProfileSink& sink, const char* phase) {
  if (!numerics::fp_capture_armed()) return;
  const unsigned mask = numerics::fp_drain();
  if (mask != 0) sink.note_fp(phase, mask);
}

/// Apply GemmConfig::error_budget to one piece before it runs: shrink the
/// fast-recursion levels (by raising the standard switchover) until the
/// certified bound fits, falling back to the classical algorithm — which is
/// run even when its own bound is over budget, with the infeasibility on
/// record (a result with a documented bound beats no result).
void apply_error_budget(GemmConfig& cfg, std::uint32_t m, std::uint32_t n,
                        std::uint32_t k, int depth, ProfileSink& sink) {
  if (cfg.error_budget <= 0.0) return;
  if (cfg.algorithm != Algorithm::Standard) {
    const int configured =
        std::clamp(depth - std::max(cfg.fast_cutoff_level, 0), 0, depth);
    const int allowed = numerics::max_fast_levels(cfg.algorithm, m, n, k, depth,
                                                  cfg.error_budget);
    if (allowed >= configured) return;
    if (allowed >= 1) {
      cfg.fast_cutoff_level = depth - allowed;
      sink.degrade("numerics:budget:fast-levels=" + std::to_string(configured) +
                   "->" + std::to_string(allowed));
      return;
    }
    cfg.algorithm = Algorithm::Standard;
    sink.degrade("numerics:budget->standard");
  }
  const numerics::ErrorBound classical =
      numerics::error_bound(Algorithm::Standard, m, n, k, depth);
  if (classical.relative > cfg.error_budget) {
    sink.degrade("numerics:budget-infeasible");
  }
}

/// Driver-level cancellation checkpoint: one relaxed load, then
/// rla::Error{Cancelled}. Placed at phase boundaries so a cancelled call
/// never converts a partially computed C back into the caller's array.
void throw_if_cancelled(const GemmConfig& cfg, std::uint32_t m, std::uint32_t n,
                        std::uint32_t k) {
  if (cfg.cancel != nullptr && cfg.cancel->load(std::memory_order_relaxed)) {
    throw Error(ErrorKind::Cancelled, "gemm", "cooperative cancellation requested",
                {m, n, k});
  }
}

/// The recursion-context fields both storages share: the call's config, its
/// pool, and `aborted` as the call-local cancellation flag.
void fill_context(bilinear::Context& ctx, const GemmConfig& cfg, WorkerPool& pool,
                  std::atomic<bool>& aborted) {
  ctx.kernel = cfg.kernel;
  ctx.standard_variant = cfg.standard_variant;
  ctx.fast_variant = cfg.fast_variant;
  ctx.pool = &pool;
  ctx.cancel = cfg.cancel;
  ctx.abort = &aborted;
  ctx.priority = cfg.priority;
}

struct Operand {
  const double* data;
  std::size_t ld;
  bool transpose;

  /// Pointer to logical element (i, j) of op(X).
  const double* at(std::uint32_t i, std::uint32_t j) const {
    return transpose ? data + static_cast<std::size_t>(i) * ld + j
                     : data + static_cast<std::size_t>(j) * ld + i;
  }
};

/// One squat gemm piece on the recursive layout, at the given shared depth.
/// The caller's C region is only written by the final remap, so any
/// exception thrown before that leaves C untouched — which is what makes
/// the retry ladder in run_piece_degrading safe.
void run_tiled_piece(std::uint32_t m, std::uint32_t n, std::uint32_t k,
                     double alpha, Operand a, Operand b, double beta, double* c,
                     std::size_t ldc, int depth, const GemmConfig& cfg,
                     WorkerPool& pool, ProfileSink& sink) {
  throw_if_cancelled(cfg, m, n, k);
  fault::maybe_fail_alloc(fault::Site::AllocTiled);
  const TileGeometry ga = make_geometry(m, k, depth, cfg.layout);
  const TileGeometry gb = make_geometry(k, n, depth, cfg.layout);
  const TileGeometry gc = make_geometry(m, n, depth, cfg.layout);

  // The three conversion buffers are the call's dominant allocations; a
  // service-managed allocator (GemmConfig::acquire_scratch) recycles them
  // across requests. The guard returns them on every exit path — including
  // the cancellation/fault throws below — so the arena never leaks a buffer.
  auto make_tiled = [&cfg](const TileGeometry& g) {
    return cfg.acquire_scratch ? TiledMatrix(g, cfg.acquire_scratch(g.total_elems()))
                               : TiledMatrix(g);
  };
  TiledMatrix ta = make_tiled(ga), tb = make_tiled(gb), tc = make_tiled(gc);
  struct ScratchReturn {
    const GemmConfig& cfg;
    TiledMatrix *a, *b, *c;
    ~ScratchReturn() {
      if (cfg.release_scratch) {
        cfg.release_scratch(a->take_buffer());
        cfg.release_scratch(b->take_buffer());
        cfg.release_scratch(c->take_buffer());
      }
    }
  } scratch_return{cfg, &ta, &tb, &tc};

  const std::uint64_t tiles = ga.tile_count();
  const std::uint64_t grain =
      std::max<std::uint64_t>(1, tiles / (8 * (pool.thread_count() + 1)));

  Timer timer;
  {
    obs::PhaseScope phase("convert.in");
    // Parallel remap (paper §4: "amenable to parallel execution"); α is
    // folded into A's remap and β into C's.
    pool.parallel_for(
        0, tiles, grain,
        [&](std::uint64_t s0, std::uint64_t s1) {
          canonical_to_tiled(a.data, a.ld, a.transpose, alpha, ga, ta.data(), s0, s1);
        },
        cfg.priority);
    pool.parallel_for(
        0, tiles, grain,
        [&](std::uint64_t s0, std::uint64_t s1) {
          canonical_to_tiled(b.data, b.ld, b.transpose, 1.0, gb, tb.data(), s0, s1);
        },
        cfg.priority);
    if (beta == 0.0) {
      tc.zero();
    } else {
      pool.parallel_for(
          0, tiles, grain,
          [&](std::uint64_t s0, std::uint64_t s1) {
            canonical_to_tiled(c, ldc, false, beta, gc, tc.data(), s0, s1);
          },
          cfg.priority);
    }
  }
  const double conv_in = timer.seconds();
  fp_phase(sink, "convert.in");
  throw_if_cancelled(cfg, m, n, k);

  timer.reset();
  // Piece-local cancellation: the first exception in this piece's recursion
  // prunes its sibling subtrees, the nested groups drain, and the exception
  // resurfaces here — with C still pristine, so the piece can be retried.
  std::atomic<bool> aborted{false};
  MulContext ctx;
  fill_context(ctx, cfg, pool, aborted);
  ctx.fast_cutoff_level = cfg.fast_cutoff_level;
  ctx.force_generic_additions = cfg.force_generic_additions;
  ZeroTree zero_a, zero_b;
  if (cfg.skip_zero_tiles && cfg.algorithm == Algorithm::Standard) {
    zero_a = ZeroTree::build(ta, &pool);
    zero_b = ZeroTree::build(tb, &pool);
    ctx.zero_a = &zero_a;
    ctx.zero_b = &zero_b;
  }
  {
    obs::PhaseScope phase("compute");
    mul_dispatch(ctx, cfg.algorithm, tc.root(), ta.root(), tb.root());
  }
  const double compute = timer.seconds();
  fp_phase(sink, "compute");
  // The recursion returns early (no exception) when externally cancelled, so
  // this check is what keeps a pruned, partially computed tc out of C.
  throw_if_cancelled(cfg, m, n, k);

  timer.reset();
  sink.writing_c();
  {
    obs::PhaseScope phase("convert.out");
    pool.parallel_for(
        0, tiles, grain,
        [&](std::uint64_t s0, std::uint64_t s1) {
          tiled_to_canonical(tc.data(), gc, c, ldc, s0, s1);
        },
        cfg.priority);
  }
  fp_phase(sink, "convert.out");
  sink.add(conv_in, compute, timer.seconds(), depth, ga.tile_rows, ga.tile_cols,
           gb.tile_cols);
  sink.set_bound(numerics::error_bound(cfg.algorithm, m, n, k, depth,
                                       cfg.fast_cutoff_level));
}

std::optional<int> choose_depth(std::uint32_t m, std::uint32_t n, std::uint32_t k,
                                const GemmConfig& cfg) {
  if (cfg.forced_depth >= 0) {
    // Explicit depth (Fig. 4 experiment). Honoured whenever it yields tiles
    // of at least one element per side.
    const std::uint32_t side = std::uint32_t{1} << cfg.forced_depth;
    if (side <= std::max({m, n, k})) return cfg.forced_depth;
    return std::nullopt;
  }
  const std::array<std::uint64_t, 3> dims{m, k, n};
  return common_depth(dims, cfg.tiles);
}

void run_canonical(std::uint32_t m, std::uint32_t n, std::uint32_t k, double alpha,
                   Operand a, Operand b, double beta, double* c, std::size_t ldc,
                   const GemmConfig& cfg, WorkerPool& pool, ProfileSink& sink);

/// Degradation ladder for one tiled piece: on std::bad_alloc (real or the
/// injected alloc.tiled / alloc.temp sites) retry with progressively less
/// memory-hungry configurations instead of propagating. C is untouched until
/// a piece attempt fully succeeds, so each retry restarts from clean state.
void run_piece_degrading(std::uint32_t m, std::uint32_t n, std::uint32_t k,
                         double alpha, Operand a, Operand b, double beta,
                         double* c, std::size_t ldc, int depth,
                         const GemmConfig& cfg, WorkerPool& pool,
                         ProfileSink& sink) {
  GemmConfig attempt = cfg;
  apply_error_budget(attempt, m, n, k, depth, sink);
  // 0 = as configured, 1 = fast serial-lowmem, 2 = allocation-free standard
  // recursion at a shallower depth, 3 = canonical in-place.
  int stage = 0;
  for (;;) {
    try {
      if (stage < 3) {
        run_tiled_piece(m, n, k, alpha, a, b, beta, c, ldc, depth, attempt, pool,
                        sink);
      } else {
        GemmConfig canon = attempt;
        canon.layout = Curve::ColMajor;
        canon.algorithm = Algorithm::Standard;
        run_canonical(m, n, k, alpha, a, b, beta, c, ldc, canon, pool, sink);
      }
      return;
    } catch (const std::bad_alloc&) {
      if (stage == 0 && attempt.algorithm != Algorithm::Standard &&
          attempt.fast_variant != FastVariant::SerialLowMem) {
        // One S/T/P buffer per recursion level instead of 17 per node.
        attempt.fast_variant = FastVariant::SerialLowMem;
        sink.degrade("alloc:fast->serial-lowmem");
        stage = 1;
        continue;
      }
      if (stage <= 1) {
        // The in-place standard recursion allocates nothing beyond the three
        // tiled operands; dropping a depth level also shrinks padding waste
        // for awkward extents.
        attempt.algorithm = Algorithm::Standard;
        attempt.standard_variant = StandardVariant::InPlace;
        attempt.skip_zero_tiles = false;
        if (depth > 0) {
          --depth;
          sink.degrade("alloc:standard-inplace,depth-1");
        } else {
          sink.degrade("alloc:standard-inplace");
        }
        stage = 2;
        continue;
      }
      if (stage == 2) {
        // Last resort: no tiled storage at all, multiply in place on the
        // caller's arrays.
        sink.degrade("alloc:canonical-inplace");
        stage = 3;
        continue;
      }
      throw;  // even the canonical path failed; gemm() wraps into rla::Error
    }
  }
}

/// Cut an extent near its midpoint, rounded to a multiple of t_max so the
/// resulting pieces tile cleanly.
std::uint32_t split_point(std::uint32_t x, const TileRange& tiles) {
  const std::uint32_t unit = tiles.t_max;
  std::uint32_t cut = (x / 2 / unit) * unit;
  if (cut == 0) cut = std::min(unit, x - 1);
  return cut;
}

void run_or_split(std::uint32_t m, std::uint32_t n, std::uint32_t k, double alpha,
                  Operand a, Operand b, double beta, double* c, std::size_t ldc,
                  const GemmConfig& cfg, WorkerPool& pool, ProfileSink& sink) {
  if (const auto depth = choose_depth(m, n, k, cfg)) {
    run_piece_degrading(m, n, k, alpha, a, b, beta, c, ldc, *depth, cfg, pool,
                        sink);
    return;
  }
  if (cfg.forced_depth >= 0) {
    throw std::invalid_argument("forced_depth infeasible for shape");
  }
  // Wide or lean shape (paper Fig. 3): split the largest extent and
  // reconstruct the product from squat pieces.
  sink.count_split();
  if (m >= n && m >= k) {
    const std::uint32_t cut = split_point(m, cfg.tiles);
    TaskGroup group(pool, nullptr, cfg.priority);
    group.spawn([=, &cfg, &pool, &sink] {
      run_or_split(cut, n, k, alpha, a, b, beta, c, ldc, cfg, pool, sink);
    });
    Operand a2{a.at(cut, 0), a.ld, a.transpose};
    group.run([=, &cfg, &pool, &sink] {
      run_or_split(m - cut, n, k, alpha, a2, b, beta, c + cut, ldc, cfg, pool, sink);
    });
    group.wait();
  } else if (n >= k) {
    const std::uint32_t cut = split_point(n, cfg.tiles);
    TaskGroup group(pool, nullptr, cfg.priority);
    group.spawn([=, &cfg, &pool, &sink] {
      run_or_split(m, cut, k, alpha, a, b, beta, c, ldc, cfg, pool, sink);
    });
    Operand b2{b.at(0, cut), b.ld, b.transpose};
    group.run([=, &cfg, &pool, &sink] {
      run_or_split(m, n - cut, k, alpha, a, b2, beta,
                   c + static_cast<std::size_t>(cut) * ldc, ldc, cfg, pool, sink);
    });
    group.wait();
  } else {
    // Inner-dimension split: the two pieces accumulate into the same C, so
    // they run sequentially (the second with β = 1).
    const std::uint32_t cut = split_point(k, cfg.tiles);
    run_or_split(m, n, cut, alpha, a, b, beta, c, ldc, cfg, pool, sink);
    Operand a2{a.at(0, cut), a.ld, a.transpose};
    Operand b2{b.at(cut, 0), b.ld, b.transpose};
    run_or_split(m, n, k - cut, alpha, a2, b2, 1.0, c, ldc, cfg, pool, sink);
  }
}

/// Canonical-layout baseline. The standard algorithm writes the caller's C
/// directly (materializing op/α copies only when needed); the fast
/// algorithms run on padded square copies.
void run_canonical(std::uint32_t m, std::uint32_t n, std::uint32_t k, double alpha,
                   Operand a, Operand b, double beta, double* c, std::size_t ldc,
                   const GemmConfig& cfg, WorkerPool& pool, ProfileSink& sink) {
  throw_if_cancelled(cfg, m, n, k);
  // Call-local cancellation: a fast node's temporary failing alloc.temp in a
  // forked task prunes its sibling subtrees before run_canonical_degrading
  // reruns the call as Standard.
  std::atomic<bool> aborted{false};
  CanonContext ctx;
  fill_context(ctx, cfg, pool, aborted);
  ctx.leaf = cfg.tiles.t_max;

  // The fast canonical recursion halves a padded square all the way to the
  // leaf (no cutoff knob), so the bound is modeled on the padded side: its
  // own padding model then matches the implementation exactly.
  Algorithm algo = cfg.algorithm;
  const std::uint32_t big = std::max({m, n, k, cfg.tiles.t_max});
  const int levels = static_cast<int>(
      bits::ceil_log2(bits::ceil_div(big, cfg.tiles.t_max)));
  const std::uint32_t side = static_cast<std::uint32_t>(
      bits::ceil_div(big, std::uint64_t{1} << levels) << levels);
  if (algo != Algorithm::Standard && cfg.error_budget > 0.0) {
    const numerics::ErrorBound fast_bound =
        numerics::error_bound(algo, side, side, side, levels);
    if (fast_bound.relative > cfg.error_budget) {
      sink.degrade("numerics:budget->standard");
      algo = Algorithm::Standard;
    }
  }

  Timer timer;
  if (algo == Algorithm::Standard) {
    const numerics::ErrorBound bound =
        numerics::error_bound(Algorithm::Standard, m, n, k, 0);
    if (cfg.error_budget > 0.0 && bound.relative > cfg.error_budget) {
      sink.degrade("numerics:budget-infeasible");
    }
    // Materialize op(A)/op(B) and fold α only when required.
    std::optional<Matrix> a_copy, b_copy;
    ConstMatrixView av{a.data, a.ld, m, k};
    if (a.transpose || alpha != 1.0) {
      a_copy.emplace(m, k);
      if (a.transpose) {
        strided_transpose(a_copy->data(), a_copy->ld(), a.data, a.ld, m, k);
      } else {
        strided_copy(a_copy->data(), a_copy->ld(), a.data, a.ld, m, k);
      }
      if (alpha != 1.0) strided_scale(a_copy->data(), a_copy->ld(), alpha, m, k);
      av = a_copy->view();
    }
    std::optional<Matrix> b_t;
    ConstMatrixView bv{b.data, b.ld, k, n};
    if (b.transpose) {
      b_t.emplace(k, n);
      strided_transpose(b_t->data(), b_t->ld(), b.data, b.ld, k, n);
      bv = b_t->view();
    }
    const double conv = timer.seconds();
    fp_phase(sink, "convert.in");
    timer.reset();
    sink.writing_c();
    {
      obs::PhaseScope phase("compute");
      if (beta != 1.0) strided_scale(c, ldc, beta, m, n);
      canon_standard(ctx, MatrixView{c, ldc, m, n}, av, bv);
    }
    fp_phase(sink, "compute");
    // In-place on the caller's C: a cancelled recursion has already written
    // partial sums, but the Cancelled error tells the caller C is dead.
    throw_if_cancelled(cfg, m, n, k);
    sink.add(conv, timer.seconds(), 0.0, 0, 0, 0, 0);
    sink.set_bound(bound);
    return;
  }

  // Fast algorithms: pad to a square whose side halves down to the leaf.
  // These three side² buffers draw the alloc.temp injection site once here;
  // each fast node's own temporaries draw it again (bilinear::temp).
  fault::maybe_fail_alloc(fault::Site::AllocTemp);

  Matrix pa(side, side), pb(side, side), pc(side, side);
  pa.zero();
  pb.zero();
  pc.zero();
  if (a.transpose) {
    strided_transpose(pa.data(), pa.ld(), a.data, a.ld, m, k);
  } else {
    strided_copy(pa.data(), pa.ld(), a.data, a.ld, m, k);
  }
  if (alpha != 1.0) strided_scale(pa.data(), pa.ld(), alpha, m, k);
  if (b.transpose) {
    strided_transpose(pb.data(), pb.ld(), b.data, b.ld, k, n);
  } else {
    strided_copy(pb.data(), pb.ld(), b.data, b.ld, k, n);
  }
  const double conv_in = timer.seconds();
  fp_phase(sink, "convert.in");

  timer.reset();
  {
    obs::PhaseScope phase("compute");
    if (algo == Algorithm::Strassen) {
      canon_strassen(ctx, pc.view(), pa.view(), pb.view());
    } else {
      canon_winograd(ctx, pc.view(), pa.view(), pb.view());
    }
  }
  const double compute = timer.seconds();
  fp_phase(sink, "compute");
  throw_if_cancelled(cfg, m, n, k);  // keep the pruned padded product out of C

  timer.reset();
  sink.writing_c();
  {
    obs::PhaseScope phase("convert.out");
    if (beta != 1.0) strided_scale(c, ldc, beta, m, n);
    strided_acc(c, ldc, 1.0, pc.data(), pc.ld(), m, n);
  }
  fp_phase(sink, "convert.out");
  sink.add(conv_in, compute, timer.seconds(), levels, side, side, side);
  sink.set_bound(numerics::error_bound(algo, side, side, side, levels));
}

/// Canonical entry with its own one-step ladder: on bad_alloc (the fast
/// algorithms' padded copies, or any node's temporaries) fall straight back
/// to the in-place standard algorithm, which allocates nothing. The standard
/// run writes C in place, so a failed one may be rerun only when β = 0
/// overwrites what it left; otherwise β would be applied twice.
void run_canonical_degrading(std::uint32_t m, std::uint32_t n, std::uint32_t k,
                             double alpha, Operand a, Operand b, double beta,
                             double* c, std::size_t ldc, const GemmConfig& cfg,
                             WorkerPool& pool, ProfileSink& sink) {
  try {
    run_canonical(m, n, k, alpha, a, b, beta, c, ldc, cfg, pool, sink);
  } catch (const std::bad_alloc&) {
    const bool standard = cfg.algorithm == Algorithm::Standard;
    if ((standard && cfg.standard_variant == StandardVariant::InPlace) ||
        (beta != 0.0 && sink.wrote_c())) {
      throw;
    }
    sink.degrade(standard ? "alloc:standard-inplace" : "alloc:canonical-standard");
    GemmConfig fallback = cfg;
    fallback.algorithm = Algorithm::Standard;
    fallback.standard_variant = StandardVariant::InPlace;  // allocates nothing
    run_canonical(m, n, k, alpha, a, b, beta, c, ldc, fallback, pool, sink);
  }
}

/// Reject configs whose downstream behavior would be confusing misbehavior
/// instead of a clear error.
void validate_config(const GemmConfig& cfg) {
  if (cfg.tiles.t_min == 0 || cfg.tiles.t_min > cfg.tiles.t_max) {
    throw std::invalid_argument(
        "gemm: invalid TileRange: t_min must satisfy 1 <= t_min <= t_max");
  }
  if (cfg.forced_depth < -1 || cfg.forced_depth > kMaxForcedDepth) {
    throw std::invalid_argument(
        "gemm: forced_depth must be in [-1, 30] (tile grid is 2^d per side)");
  }
  if (cfg.threads > kMaxThreads) {
    throw std::invalid_argument("gemm: threads exceeds the sane cap of 4096");
  }
  if (cfg.verify && (cfg.verify_probes < 1 || cfg.verify_probes > 64)) {
    throw std::invalid_argument("gemm: verify_probes must be in [1, 64]");
  }
  if (cfg.verify && !(cfg.verify_tolerance > 0.0)) {
    throw std::invalid_argument("gemm: verify_tolerance must be positive");
  }
  if (!(cfg.error_budget >= 0.0)) {  // also rejects NaN
    throw std::invalid_argument("gemm: error_budget must be >= 0 (0 = off)");
  }
}

/// ld-indexed accesses reach element (cols-1)·ld + rows; make sure that
/// byte offset cannot overflow std::size_t (a malformed ld otherwise turns
/// into a wild pointer, not an exception).
void check_ld_overflow(std::size_t ld, std::uint32_t cols, const char* name) {
  constexpr std::size_t kMaxElems =
      std::numeric_limits<std::size_t>::max() / sizeof(double);
  if (cols != 0 && ld > kMaxElems / cols) {
    throw std::invalid_argument(std::string("gemm: ld overflow for ") + name);
  }
}

/// Arm one process-wide instrument slot (perf, collector, treeprof) for this
/// call when `want` is set. A slot another call holds leaves `session` empty
/// and "<name>:busy" on the trail: the call runs uninstrumented instead of
/// corrupting the holder's results.
template <class Session>
void attach_or_degrade(std::optional<Session>& session, bool want,
                       const char* name, ProfileSink& sink) {
  if (!want) return;
  session.emplace();
  if (!session->try_attach()) {
    sink.degrade(std::string(name) + ":busy");
    session.reset();
  }
}

/// The pool's scheduler counters in the profile's form, minus `base` (the
/// reading at gemm() entry), so a long-lived external pool reports only this
/// call's activity; deque_high_water stays a pool-lifetime max.
GemmProfile::SchedStats sched_since(const WorkerPool& pool,
                                    const GemmProfile::SchedStats& base = {}) {
  const WorkerPool::SchedStats t = pool.sched_totals();
  return {pool.thread_count(),
          pool.tasks_executed() - base.tasks,
          t.steals - base.steals,
          t.failed_steals - base.failed_steals,
          t.idle_wakeups - base.idle_wakeups,
          t.injection_pops - base.injection_pops,
          t.deque_high_water};
}

}  // namespace

void gemm(std::uint32_t m, std::uint32_t n, std::uint32_t k, double alpha,
          const double* a, std::size_t lda, Op op_a, const double* b,
          std::size_t ldb, Op op_b, double beta, double* c, std::size_t ldc,
          const GemmConfig& cfg, GemmProfile* profile) {
  validate_config(cfg);
  if (c == nullptr || ldc < m) throw std::invalid_argument("gemm: bad C/ldc");
  check_ld_overflow(ldc, n, "C");
  if (m == 0 || n == 0) return;
  // Without a caller profile the driver fills a local one, so nothing below
  // needs a null check.
  GemmProfile local_profile;
  GemmProfile& prof = profile != nullptr ? *profile : local_profile;
  prof = GemmProfile{};

  Timer total;
  if (alpha == 0.0 || k == 0) {
    if (beta != 1.0) strided_scale(c, ldc, beta, m, n);
    prof.total = total.seconds();
    return;
  }
  if (a == nullptr || b == nullptr) throw std::invalid_argument("gemm: null A/B");
  if ((op_a == Op::None && lda < m) || (op_a == Op::Transpose && lda < k)) {
    throw std::invalid_argument("gemm: bad lda");
  }
  if ((op_b == Op::None && ldb < k) || (op_b == Op::Transpose && ldb < n)) {
    throw std::invalid_argument("gemm: bad ldb");
  }
  check_ld_overflow(lda, op_a == Op::None ? k : m, "A");
  check_ld_overflow(ldb, op_b == Op::None ? n : k, "B");
  if (cfg.layout == Curve::RowMajor) {
    throw std::invalid_argument("gemm: RowMajor is not a supported gemm layout");
  }

  throw_if_cancelled(cfg, m, n, k);  // don't even build a pool past a deadline

  fault::arm_from_env();
  std::optional<fault::ScopedPlan> scoped_plan;
  if (!cfg.fault_spec.empty()) scoped_plan.emplace(cfg.fault_spec);

  ProfileSink sink;
  sink.out = &prof;

  // Request-scoped trace id: explicit from the config, else whatever is
  // already ambient (a service executor running several pieces under one
  // request). Ambient for the whole call — TaskGroup::spawn stamps it into
  // every task, so trace events and flight records keep request identity
  // across steals — and recorded in the profile for joining artifacts.
  const std::uint64_t trace_id =
      cfg.trace_id != 0 ? cfg.trace_id : obs::current_trace_id();
  obs::TraceIdScope trace_id_scope(trace_id);
  prof.trace_id = trace_id;

  std::optional<WorkerPool> owned;
  WorkerPool* pool = cfg.pool;
  if (cfg.detect_races || cfg.analyze_numerics) {
    // SP-bags certification requires the serial depth-first schedule; one
    // race-free serial run covers every schedule of the same task DAG, so
    // overriding the configured parallelism loses nothing but wall-clock.
    // The shadow analyzer makes the same trade for a different reason: its
    // shadow map is thread-local and the serial schedule makes the measured
    // rounding history deterministic.
    if (pool != nullptr || cfg.threads > 1) {
      sink.degrade(cfg.detect_races ? "race-detect:serial-schedule"
                                    : "numerics:serial-schedule");
    }
    owned.emplace(0u);
    pool = &*owned;
  } else if (pool == nullptr) {
    const unsigned want = cfg.threads <= 1 ? 0u : cfg.threads;
    owned.emplace(want);
    pool = &*owned;
    if (pool->thread_count() < want) {
      sink.degrade("pool:requested=" + std::to_string(want) +
                   ",got=" + std::to_string(pool->thread_count()));
    }
  }

  // Hardware performance counters (perf_event_open). A kernel refusal
  // (paranoid level, seccomp, PMU-less VM) degrades the call to uncounted
  // instead of failing it, with the reason on record.
  std::optional<obs::perf::Session> perf_session;
  attach_or_degrade(perf_session, cfg.hw_counters || env_int("RLA_PERF", 0) != 0,
                    "perf", sink);
  if (perf_session && !perf_session->available()) {
    sink.degrade("perf:unavailable:" + perf_session->reason());
    perf_session->detach();
    perf_session.reset();
  }
  // Tracer / work-span measurement. Live HW counting and tree profiling
  // imply measurement: the counters ride on the same spans.
  const std::string trace_path =
      cfg.trace_path.empty() ? env_string("RLA_TRACE") : cfg.trace_path;
  const bool want_tree = cfg.tree_profile || env_int("RLA_TREEPROF", 0) != 0;
  std::optional<obs::Collector> collector;
  attach_or_degrade(collector,
                    cfg.measure || !trace_path.empty() || perf_session || want_tree,
                    "trace", sink);
  // Recursion-resolved profiling (obs/treeprof/), armed after the perf
  // session so frame transitions can read this call's counters.
  std::optional<obs::treeprof::Session> tree_session;
  attach_or_degrade(tree_session, want_tree, "treeprof", sink);
  // Root frame spanning every run below (degradation, FP and verify reruns
  // included): sequential reruns extend the measured critical path.
  std::optional<obs::ScopedRoot> obs_root;
  if (collector) obs_root.emplace("gemm");

  const GemmProfile::SchedStats sched_base = sched_since(*pool);

  std::optional<analysis::RaceDetector> detector;
  std::optional<analysis::ScopedDetection> detect_scope;
  if (cfg.detect_races) {
    detector.emplace();
    detect_scope.emplace(*detector);
  }

  std::optional<numerics::ShadowAnalyzer> shadow;
  std::optional<numerics::ScopedShadow> shadow_scope;
  if (cfg.analyze_numerics) {
    shadow.emplace();
    shadow_scope.emplace(*shadow);
  }

  std::optional<numerics::ScopedFpCapture> fp_capture;
  if (cfg.fp_check) fp_capture.emplace();

  const Operand oa{a, lda, op_a == Op::Transpose};
  const Operand ob{b, ldb, op_b == Op::Transpose};

  // Freivalds verification only guards the fast algorithms; the classical
  // recursion is the trusted fallback. FP-hazard capture shares the rerun
  // machinery (and therefore the C backup) on the same grounds.
  const bool verify_active = cfg.verify && cfg.algorithm != Algorithm::Standard;
  const bool fp_rerun_possible =
      cfg.fp_check && cfg.algorithm != Algorithm::Standard;
  std::optional<FreivaldsCheck> checker;
  AlignedBuffer<double> c_backup;  // packed m×n copy for the rerun (β ≠ 0)
  bool have_backup = false;
  if (verify_active) {
    checker.emplace(m, n, cfg.verify_probes, cfg.verify_seed);
    checker->capture(c, ldc, beta);
  }
  if ((verify_active || fp_rerun_possible) && beta != 0.0) {
    try {
      c_backup = AlignedBuffer<double>(static_cast<std::size_t>(m) * n);
      for (std::uint32_t j = 0; j < n; ++j) {
        const double* src = c + static_cast<std::size_t>(j) * ldc;
        double* dst = c_backup.data() + static_cast<std::size_t>(j) * m;
        std::copy(src, src + m, dst);
      }
      have_backup = true;
    } catch (const std::bad_alloc&) {
      sink.degrade("verify:no-backup");
    }
  }
  const bool can_restore = beta == 0.0 || have_backup;

  // Disarm every instrument and fold its results into the profile and the
  // trace's metrics; runs exactly once, on every exit. The order is the
  // data dependency: treeprof folds before perf detaches, because frame
  // flushes read perf's counters, and perf and the scheduler fold into the
  // collector's registry before it freezes.
  const auto teardown = [&] {
    prof.sched = sched_since(*pool, sched_base);
    if (tree_session) {
      tree_session->detach();  // quiescence barrier before the fold
      const std::vector<obs::treeprof::Node> tree_nodes = tree_session->fold();
      prof.tree_measured = true;
      for (const auto& node : tree_nodes) {
        prof.tree_profile.push_back({obs::treeprof::path_key(node.path),
                                     node.stats.time_ns, node.stats.flops,
                                     node.stats.tasks, node.stats.hw.mask != 0,
                                     to_hw_counters(node.stats.hw)});
      }
      if (collector) {
        // Per-depth aggregates into the trace's rla_metrics block (the
        // folded list is sorted by depth, so one linear sweep per level).
        obs::Registry& reg = collector->registry();
        reg.counter("treeprof.nodes").set(tree_nodes.size());
        std::size_t i = 0;
        while (i < tree_nodes.size()) {
          const int d = obs::treeprof::path_depth(tree_nodes[i].path);
          std::uint64_t t_ns = 0, flops = 0, tasks = 0;
          std::size_t j = i;
          for (; j < tree_nodes.size() &&
                 obs::treeprof::path_depth(tree_nodes[j].path) == d;
               ++j) {
            t_ns += tree_nodes[j].stats.time_ns;
            flops += tree_nodes[j].stats.flops;
            tasks += tree_nodes[j].stats.tasks;
          }
          const std::string prefix = "treeprof.d" + std::to_string(d) + ".";
          // metric-family: treeprof.*
          reg.counter(prefix + "time_ns").set(t_ns);
          reg.counter(prefix + "flops").set(flops);
          reg.counter(prefix + "tasks").set(tasks);
          i = j;
        }
      }
      tree_session.reset();
    }
    if (perf_session) {
      const obs::perf::Sample hw_total = perf_session->read_total();
      const auto hw_threads = perf_session->per_thread();
      const auto hw_phases = perf_session->phase_totals();
      perf_session->detach();
      if (collector) {
        obs::Registry& reg = collector->registry();
        for (int i = 0; i < obs::perf::kEventCount; ++i) {
          if (!hw_total.has(i)) continue;
          reg.counter(std::string("perf.total.") +  // metric-family: perf.total.*
                      obs::perf::event_name(i))
              .set(hw_total.value[i]);
        }
        for (const auto& tc : hw_threads) {
          for (int i = 0; i < obs::perf::kEventCount; ++i) {
            if (!tc.sample.has(i)) continue;
            reg.counter("perf." + tc.label + "." +  // metric-family: perf.*
                        obs::perf::event_name(i))
                .set(tc.sample.value[i]);
          }
        }
      }
      if (hw_total.mask != 0) {
        prof.hw_measured = true;
        prof.hw_scale = hw_total.scale;
        for (int i = 0; i < obs::perf::kEventCount; ++i) {
          if (hw_total.has(i)) prof.hw_events.emplace_back(obs::perf::event_name(i));
        }
        prof.hw_total = to_hw_counters(hw_total);
        for (const auto& [phase, sample] : hw_phases) {
          prof.hw_phases.emplace_back(phase, to_hw_counters(sample));
        }
      }
      perf_session.reset();
    }
    if (collector) {
      obs_root.reset();  // close the root span before freezing results
      // Publish this call's scheduler counters into the trace's metrics
      // snapshot (per steal slot; the trailing slot is external threads).
      obs::Registry& reg = collector->registry();
      const auto slots = pool->sched_snapshot();
      for (std::size_t i = 0; i < slots.size(); ++i) {
        const std::string prefix =
            i + 1 == slots.size() ? std::string("sched.external.")
                                  : "sched.w" + std::to_string(i) + ".";
        // metric-family: sched.w*.* sched.external.*
        reg.counter(prefix + "steals").set(slots[i].steals);
        reg.counter(prefix + "failed_steals").set(slots[i].failed_steals);
        reg.counter(prefix + "idle_wakeups").set(slots[i].idle_wakeups);
        reg.counter(prefix + "injection_pops").set(slots[i].injection_pops);
        reg.gauge(prefix + "deque_high_water").set(slots[i].deque_high_water);
      }
      publish_sched_totals(*pool, reg);
      if (trace_id != 0) {
        // Keyed into the trace's rla_metrics block so a metrics series and
        // a Chrome trace join on the same request id.
        reg.gauge("telemetry.trace_id")
            .set(static_cast<std::int64_t>(trace_id));
      }
      collector->detach();
      prof.measured = true;
      prof.measured_work = static_cast<double>(collector->work_ns()) / 1e9;
      prof.measured_span = static_cast<double>(collector->span_ns()) / 1e9;
      prof.achieved_parallelism = collector->achieved_parallelism();
      prof.parallel_slackness =
          prof.achieved_parallelism /
          static_cast<double>(std::max(1u, pool->thread_count()));
      prof.tasks_traced = collector->tasks();
      prof.trace_events_dropped = collector->events_dropped();
      const obs::Histogram& hist = collector->task_durations();
      int top = obs::Histogram::kBuckets;
      while (top > 0 && hist.bucket(top - 1) == 0) --top;
      for (int i = 0; i < top; ++i) prof.task_ns_hist.push_back(hist.bucket(i));
      try {
        // Cross-check against the a-priori DAG model of the *configured*
        // algorithm (degradations can make the executed DAG differ).
        const WorkSpan model = analyze_gemm(m, n, k, cfg);
        prof.model_work = model.work;
        prof.model_span = model.span;
        prof.model_parallelism = model.parallelism();
      } catch (const std::exception&) {
        // Shape requires splitting; the per-piece model does not compose
        // into one number, so the model fields stay zero.
      }
      if (!trace_path.empty()) {
        if (collector->write_chrome_trace_file(trace_path)) {
          prof.trace_file = trace_path;
        } else {
          sink.degrade("trace:write-failed");
        }
      }
      collector.reset();
    }
    detect_scope.reset();  // detach before reading results
    if (detector) {
      prof.races = static_cast<int>(detector->race_count());
      prof.race_certified = detector->certified();
      prof.race_cells = detector->cells_tracked();
      for (const auto& r : detector->races()) {
        prof.race_reports.push_back(r.to_string());
      }
    }
    shadow_scope.reset();  // stop mirroring before measuring
    if (shadow) {
      prof.numerics_analyzed = numerics::instrumented();
      const numerics::ShadowStats st = shadow->measure(c, ldc, m, n);
      prof.observed_abs_error = st.max_abs_error;
      prof.observed_rel_error = st.max_rel_error;
      prof.cancellations = shadow->cancellations();
      prof.shadow_cells = shadow->cells_tracked();
      prof.worst_cell_path = numerics::quadrant_path(st.worst_i, st.worst_j, m, n,
                                                     std::max(prof.depth, 0));
    }
    sink.flush_trail();
    prof.total = total.seconds();
  };

  // Tear down, then throw: the Error's trail then also holds what teardown
  // appended (e.g. "trace:write-failed").
  const auto fail = [&](ErrorKind kind, const char* what) {
    teardown();
    throw Error(kind, "gemm", what, {m, n, k}, sink.trail);
  };

  // Every run of the multiply. An allocation failure that outlived the
  // degradation ladder becomes rla::Error{Allocation}; any other failure
  // (task faults, injected ones included) propagates unchanged, but only
  // after teardown: the dying run's trace is what a post-mortem needs.
  // A failed run that had begun writing C says so on the trail, so a caller
  // knows whether C still holds its input.
  const auto run = [&](const GemmConfig& run_cfg, const char* alloc_what) {
    try {
      if (run_cfg.layout == Curve::ColMajor) {
        run_canonical_degrading(m, n, k, alpha, oa, ob, beta, c, ldc, run_cfg,
                                *pool, sink);
      } else {
        run_or_split(m, n, k, alpha, oa, ob, beta, c, ldc, run_cfg, *pool, sink);
      }
    } catch (const std::bad_alloc&) {
      if (sink.wrote_c()) sink.degrade(std::string(kTrailCWritten));
      fail(ErrorKind::Allocation, alloc_what);
    } catch (...) {
      if (sink.wrote_c()) sink.degrade(std::string(kTrailCWritten));
      teardown();
      throw;
    }
  };

  // The FP-hazard and Freivalds fallback: restore C and rerun with the
  // classical algorithm. Returns false, having run nothing, when β ≠ 0 and
  // C could not be backed up.
  const auto rerun_standard = [&](const char* reason, const char* alloc_what) {
    sink.degrade(reason);
    if (!can_restore) return false;
    if (have_backup) {
      for (std::uint32_t j = 0; j < n; ++j) {
        const double* src = c_backup.data() + static_cast<std::size_t>(j) * m;
        double* dst = c + static_cast<std::size_t>(j) * ldc;
        RLA_SHADOW_MOVE(dst, src, m);
        std::copy(src, src + m, dst);
      }
    }
    GemmConfig retry = cfg;
    retry.algorithm = Algorithm::Standard;
    run(retry, alloc_what);
    return true;
  };

  run(cfg, "allocation failed even after exhausting the degradation ladder");

  if (cfg.fp_check) {
    // Sweep up anything raised outside an attributed phase (e.g. on the
    // canonical ladder's materialization of op/α copies).
    const unsigned tail = numerics::fp_drain();
    if (tail != 0) sink.note_fp("other", tail);
    prof.fp_hazards = sink.hazards();
    if (prof.fp_hazards != 0 && fp_rerun_possible && can_restore) {
      // A fast-algorithm run raised INVALID/OVERFLOW/DIVBYZERO: rerun with
      // the classical algorithm, which cannot manufacture intermediate
      // overflows or Inf − Inf cancellations from finite inputs. (Without a
      // backup under β ≠ 0 the hazard stays on record but C is kept.)
      rerun_standard("fp:hazard->standard",
                     "allocation failed during the FP-hazard rerun");
      prof.fp_degraded = true;
      const unsigned rerun_mask = numerics::fp_drain();
      if (rerun_mask != 0) sink.note_fp("rerun", rerun_mask);
      prof.fp_hazards = sink.hazards();
    }
    // Stop monitoring before the Freivalds probes: their residual
    // arithmetic is diagnostic, not product computation.
    fp_capture.reset();
  }

  if (checker) {
    const bool at = op_a == Op::Transpose, bt = op_b == Op::Transpose;
    const auto check = [&] {
      obs::PhaseScope phase("verify");
      return checker->check(k, alpha, a, lda, at, b, ldb, bt, c, ldc,
                            cfg.verify_tolerance);
    };
    const VerifyResult result = check();
    prof.verify_probes = result.probes;
    prof.verify_max_residual = result.max_scaled_residual;
    if (!result.ok) {
      prof.verify_failed = true;
      if (!rerun_standard("verify:failed->standard",
                          "allocation failed during the verification rerun")) {
        fail(ErrorKind::VerificationFailed,
             "verification failed and C could not be restored for a rerun");
      }
      prof.verify_rerun = true;
      const VerifyResult recheck = check();
      prof.verify_max_residual =
          std::max(prof.verify_max_residual, recheck.max_scaled_residual);
      if (!recheck.ok) {
        fail(ErrorKind::VerificationFailed,
             "standard-algorithm rerun still fails verification");
      }
    }
  }
  teardown();
}

void multiply(Matrix& c, const Matrix& a, const Matrix& b, const GemmConfig& cfg,
              GemmProfile* profile) {
  if (a.cols() != b.rows() || c.rows() != a.rows() || c.cols() != b.cols()) {
    throw std::invalid_argument("multiply: shape mismatch");
  }
  gemm(c.rows(), c.cols(), a.cols(), 1.0, a.data(), a.ld(), Op::None, b.data(),
       b.ld(), Op::None, 0.0, c.data(), c.ld(), cfg, profile);
}

}  // namespace rla
