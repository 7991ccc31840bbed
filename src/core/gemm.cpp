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

  /// Mark the running attempt (`attempt`) and the call as writing C.
  void writing_c(bool& attempt) {
    attempt = true;
    c_written.store(true, std::memory_order_relaxed);
  }
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

/// The padded square the canonical fast algorithms run on, as {side,
/// levels}: its side halves `levels` times down to the leaf edge t_max.
std::pair<std::uint32_t, int> canon_square(std::uint32_t m, std::uint32_t n,
                                           std::uint32_t k, const TileRange& tiles) {
  const std::uint32_t big = std::max({m, n, k, tiles.t_max});
  const int levels = bits::ceil_log2(bits::ceil_div(big, tiles.t_max));
  const std::uint64_t side = bits::ceil_div(big, std::uint64_t{1} << levels) << levels;
  return {static_cast<std::uint32_t>(side), levels};
}

/// Apply GemmConfig::error_budget to one piece before it runs: shrink the
/// fast-recursion levels (by raising the standard switchover) until the
/// certified bound fits, falling back to the classical algorithm — which is
/// run even when its own bound is over budget, with the infeasibility on
/// record (a result with a documented bound beats no result). The canonical
/// fast recursion halves its padded square all the way to the leaf (no
/// cutoff knob), so there the bound is modeled on the padded side and the
/// choice is every fast level or none.
void apply_error_budget(GemmConfig& cfg, std::uint32_t m, std::uint32_t n,
                        std::uint32_t k, int depth, ProfileSink& sink) {
  if (cfg.error_budget <= 0.0) return;
  const bool canonical = cfg.layout == Curve::ColMajor;
  if (cfg.algorithm != Algorithm::Standard) {
    const auto [side, levels] = canon_square(m, n, k, cfg.tiles);
    const int configured =
        canonical ? levels
                  : std::clamp(depth - std::max(cfg.fast_cutoff_level, 0), 0, depth);
    const int allowed =
        canonical ? numerics::max_fast_levels(cfg.algorithm, side, side, side, levels,
                                              cfg.error_budget)
                  : numerics::max_fast_levels(cfg.algorithm, m, n, k, depth,
                                              cfg.error_budget);
    if (allowed >= configured) return;
    if (allowed >= 1 && !canonical) {
      cfg.fast_cutoff_level = depth - allowed;
      sink.degrade("numerics:budget:fast-levels=" + std::to_string(configured) +
                   "->" + std::to_string(allowed));
      return;
    }
    cfg.algorithm = Algorithm::Standard;
    sink.degrade("numerics:budget->standard");
  }
  const numerics::ErrorBound classical =
      numerics::error_bound(Algorithm::Standard, m, n, k, canonical ? 0 : depth);
  if (classical.relative > cfg.error_budget) {
    sink.degrade("numerics:budget-infeasible");
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

  /// The leading rows × cols block of dst ← s · op(X).
  void copy_to(Matrix& dst, std::uint32_t rows, std::uint32_t cols, double s) const {
    (transpose ? strided_transpose : strided_copy)(dst.data(), dst.ld(), data, ld,
                                                   rows, cols);
    if (s != 1.0) strided_scale(dst.data(), dst.ld(), s, rows, cols);
  }
};

/// The call's product, or one squat piece of it:
/// C (m×n, ldc) ← alpha · op(A) · op(B) + beta · C.
struct Piece {
  std::uint32_t m, n, k;
  double alpha;
  Operand a, b;
  double beta;
  double* c;
  std::size_t ldc;
};

/// Driver-level cancellation checkpoint: one relaxed load, then
/// rla::Error{Cancelled}. Placed at phase boundaries so a cancelled call
/// never converts a partially computed C back into the caller's array.
void throw_if_cancelled(const GemmConfig& cfg, const Piece& p) {
  if (cfg.cancel != nullptr && cfg.cancel->load(std::memory_order_relaxed)) {
    throw Error(ErrorKind::Cancelled, "gemm", "cooperative cancellation requested",
                {p.m, p.n, p.k});
  }
}

/// One squat gemm piece on the recursive layout, at the given shared depth.
/// The caller's C region is only written by the final remap, so any
/// exception thrown before that leaves C untouched.
void run_tiled_piece(const Piece& p, int depth, const GemmConfig& cfg,
                     WorkerPool& pool, ProfileSink& sink, bool& wrote) {
  throw_if_cancelled(cfg, p);
  fault::maybe_fail_alloc(fault::Site::AllocTiled);
  const TileGeometry ga = make_geometry(p.m, p.k, depth, cfg.layout);
  const TileGeometry gb = make_geometry(p.k, p.n, depth, cfg.layout);
  const TileGeometry gc = make_geometry(p.m, p.n, depth, cfg.layout);

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
      if (!cfg.release_scratch) return;
      for (TiledMatrix* t : {a, b, c}) cfg.release_scratch(t->take_buffer());
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
    const auto remap = [&](const Operand& x, double s, const TileGeometry& g,
                           TiledMatrix& t) {
      pool.parallel_for(
          0, tiles, grain,
          [&](std::uint64_t s0, std::uint64_t s1) {
            canonical_to_tiled(x.data, x.ld, x.transpose, s, g, t.data(), s0, s1);
          },
          cfg.priority);
    };
    remap(p.a, p.alpha, ga, ta);
    remap(p.b, 1.0, gb, tb);
    if (p.beta == 0.0) {
      tc.zero();
    } else {
      remap(Operand{p.c, p.ldc, false}, p.beta, gc, tc);
    }
  }
  const double conv_in = timer.seconds();
  fp_phase(sink, "convert.in");
  throw_if_cancelled(cfg, p);

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
  throw_if_cancelled(cfg, p);

  timer.reset();
  sink.writing_c(wrote);
  {
    obs::PhaseScope phase("convert.out");
    pool.parallel_for(
        0, tiles, grain,
        [&](std::uint64_t s0, std::uint64_t s1) {
          tiled_to_canonical(tc.data(), gc, p.c, p.ldc, s0, s1);
        },
        cfg.priority);
  }
  fp_phase(sink, "convert.out");
  sink.add(conv_in, compute, timer.seconds(), depth, ga.tile_rows, ga.tile_cols,
           gb.tile_cols);
  sink.set_bound(numerics::error_bound(cfg.algorithm, p.m, p.n, p.k, depth,
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

/// Where the wide/lean split (paper Fig. 3) cuts a shape with no feasible
/// depth, as {dim, at}: the largest extent (dim 0 = m, 1 = n, 2 = k) near
/// its midpoint, rounded to a multiple of t_max so the pieces tile cleanly.
std::pair<std::size_t, std::uint32_t> split_rule(std::uint32_t m, std::uint32_t n,
                                                 std::uint32_t k,
                                                 const TileRange& tiles) {
  const std::size_t dim = m >= n && m >= k ? 0 : n >= k ? 1 : 2;
  const std::uint32_t x = dim == 0 ? m : dim == 1 ? n : k;
  const std::uint32_t cut = (x / 2 / tiles.t_max) * tiles.t_max;
  return {dim, cut != 0 ? cut : std::min(tiles.t_max, x - 1)};
}

/// Canonical-layout baseline. The standard algorithm writes the caller's C
/// directly (materializing op/α copies only when needed); the fast
/// algorithms run on padded square copies.
void run_canonical(const Piece& p, const GemmConfig& cfg, WorkerPool& pool,
                   ProfileSink& sink, bool& wrote) {
  const auto [m, n, k, alpha, a, b, beta, c, ldc] = p;
  throw_if_cancelled(cfg, p);
  // Call-local cancellation: a fast node's temporary failing alloc.temp in a
  // forked task prunes its sibling subtrees before the ladder reruns.
  std::atomic<bool> aborted{false};
  CanonContext ctx;
  fill_context(ctx, cfg, pool, aborted);
  ctx.leaf = cfg.tiles.t_max;

  Timer timer;
  if (cfg.algorithm == Algorithm::Standard) {
    // Materialize op(A)/op(B) and fold α only when required.
    std::optional<Matrix> a_copy, b_copy;
    ConstMatrixView av{a.data, a.ld, m, k}, bv{b.data, b.ld, k, n};
    if (a.transpose || alpha != 1.0) {
      a.copy_to(a_copy.emplace(m, k), m, k, alpha);
      av = a_copy->view();
    }
    if (b.transpose) {
      b.copy_to(b_copy.emplace(k, n), k, n, 1.0);
      bv = b_copy->view();
    }
    const double conv = timer.seconds();
    fp_phase(sink, "convert.in");
    timer.reset();
    sink.writing_c(wrote);
    {
      obs::PhaseScope phase("compute");
      if (beta != 1.0) strided_scale(c, ldc, beta, m, n);
      canon_standard(ctx, MatrixView{c, ldc, m, n}, av, bv);
    }
    fp_phase(sink, "compute");
    // In-place on the caller's C: a cancelled recursion has already written
    // partial sums, but the Cancelled error tells the caller C is dead.
    throw_if_cancelled(cfg, p);
    sink.add(conv, timer.seconds(), 0.0, 0, 0, 0, 0);
    sink.set_bound(numerics::error_bound(Algorithm::Standard, m, n, k, 0));
    return;
  }

  // Fast algorithms: pad to a square whose side halves down to the leaf.
  // These three side² buffers draw the alloc.temp injection site once here;
  // each fast node's own temporaries draw it again (bilinear::temp).
  fault::maybe_fail_alloc(fault::Site::AllocTemp);
  const auto [side, levels] = canon_square(m, n, k, cfg.tiles);
  Matrix pa(side, side), pb(side, side), pc(side, side);
  pa.zero();
  pb.zero();
  pc.zero();
  a.copy_to(pa, m, k, alpha);
  b.copy_to(pb, k, n, 1.0);
  const double conv_in = timer.seconds();
  fp_phase(sink, "convert.in");

  timer.reset();
  {
    obs::PhaseScope phase("compute");
    if (cfg.algorithm == Algorithm::Strassen) {
      canon_strassen(ctx, pc.view(), pa.view(), pb.view());
    } else {
      canon_winograd(ctx, pc.view(), pa.view(), pb.view());
    }
  }
  const double compute = timer.seconds();
  fp_phase(sink, "compute");
  throw_if_cancelled(cfg, p);  // keep the pruned padded product out of C

  timer.reset();
  sink.writing_c(wrote);
  {
    obs::PhaseScope phase("convert.out");
    if (beta != 1.0) strided_scale(c, ldc, beta, m, n);
    strided_acc(c, ldc, 1.0, pc.data(), pc.ld(), m, n);
  }
  fp_phase(sink, "convert.out");
  sink.add(conv_in, compute, timer.seconds(), levels, side, side, side);
  sink.set_bound(numerics::error_bound(cfg.algorithm, side, side, side, levels));
}

/// Run one piece (tiled at `depth`, or canonical), degrading on
/// std::bad_alloc — real, or the injected alloc.tiled / alloc.temp sites:
/// each rerun takes the next kLadder rung that applies. The rerun is safe
/// unless this attempt had begun writing its part of C with β ≠ 0 (a rerun
/// would apply β twice); a sibling piece's writes to its own part of C do
/// not matter.
void run_degrading(const Piece& p, int depth, const GemmConfig& cfg,
                   WorkerPool& pool, ProfileSink& sink) {
  GemmConfig attempt = cfg;
  apply_error_budget(attempt, p.m, p.n, p.k, depth, sink);
  for (;;) {
    bool wrote = false;
    try {
      if (attempt.layout == Curve::ColMajor) {
        run_canonical(p, attempt, pool, sink, wrote);
      } else {
        run_tiled_piece(p, depth, attempt, pool, sink, wrote);
      }
      return;
    } catch (const std::bad_alloc&) {
      const Rung* rung = wrote && p.beta != 0.0 ? nullptr : take_rung(attempt);
      if (rung == nullptr) throw;  // gemm() wraps it into rla::Error
      sink.degrade("alloc:" + std::string(rung->name));
    }
  }
}

/// Run the call's product: canonical as a whole, tiled at the chosen depth,
/// or split into squat tiled pieces.
void run_or_split(const Piece& p, const GemmConfig& cfg, WorkerPool& pool,
                  ProfileSink& sink) {
  if (const auto depth = cfg.layout == Curve::ColMajor
                             ? std::optional<int>(0)
                             : choose_depth(p.m, p.n, p.k, cfg)) {
    run_degrading(p, *depth, cfg, pool, sink);
    return;
  }
  if (cfg.forced_depth >= 0) {
    throw std::invalid_argument("forced_depth infeasible for shape");
  }
  // Wide or lean shape (paper Fig. 3): split the largest extent and
  // reconstruct the product from squat pieces.
  sink.count_split();
  const auto [dim, cut] = split_rule(p.m, p.n, p.k, cfg.tiles);
  Piece lo = p, hi = p;
  if (dim == 0) {
    lo.m = cut;
    hi.m -= cut;
    hi.a.data = p.a.at(cut, 0);
    hi.c += cut;
  } else if (dim == 1) {
    lo.n = cut;
    hi.n -= cut;
    hi.b.data = p.b.at(0, cut);
    hi.c += static_cast<std::size_t>(cut) * p.ldc;
  } else {
    // Inner-dimension split: the two pieces accumulate into the same C, so
    // they run sequentially (the second with β = 1).
    lo.k = cut;
    hi.k -= cut;
    hi.a.data = p.a.at(0, cut);
    hi.b.data = p.b.at(cut, 0);
    hi.beta = 1.0;
    run_or_split(lo, cfg, pool, sink);
    run_or_split(hi, cfg, pool, sink);
    return;
  }
  TaskGroup group(pool, nullptr, cfg.priority);
  group.spawn([lo, &cfg, &pool, &sink] { run_or_split(lo, cfg, pool, sink); });
  group.run([hi, &cfg, &pool, &sink] { run_or_split(hi, cfg, pool, sink); });
  group.wait();
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

/// Elements of one root-to-leaf chain of recursion temporaries, split into
/// the fast-algorithm levels and the standard levels.
struct Chain {
  std::uint64_t fast = 0, standard = 0;
};

/// The chain of a tiled piece at `depth` with tm × tk × tn tiles, whose fast
/// levels end at `cutoff`. A fast node holds the row's S, T and seven P
/// quadrants (§5.1's schedule: one of each); a Temporaries standard node one
/// C-quadrant temporary per C quadrant.
Chain tiled_chain(const GemmConfig& cfg, int depth, int cutoff, std::uint64_t tm,
                  std::uint64_t tk, std::uint64_t tn) {
  Chain ch;
  const bilinear::Row* row = bilinear::row_for(cfg.algorithm);
  const bool lowmem = cfg.fast_variant == FastVariant::SerialLowMem;
  for (int level = depth; level >= 1; --level) {
    const std::uint64_t h2 = std::uint64_t{1} << (2 * (level - 1));  // quadrant tiles
    if (row != nullptr && level > cutoff) {
      ch.fast += h2 * (lowmem ? tm * tk + tk * tn + tm * tn
                              : row->s_temps * tm * tk + row->t_temps * tk * tn +
                                    7 * tm * tn);
    } else if (cfg.standard_variant == StandardVariant::Temporaries) {
      ch.standard += 4 * h2 * tm * tn;
    }
  }
  return ch;
}

/// Conversion-buffer elements of a tiled call, mirroring run_or_split: the
/// pieces of a row or column split may all be live at once, those of an
/// inner-dimension split run in turn. Folds each piece's chain into `worst`.
std::uint64_t tiled_buffers(std::uint32_t m, std::uint32_t n, std::uint32_t k,
                            const GemmConfig& cfg, Chain& worst) {
  if (const auto depth = choose_depth(m, n, k, cfg)) {
    const TileGeometry ga = make_geometry(m, k, *depth, cfg.layout);
    const TileGeometry gb = make_geometry(k, n, *depth, cfg.layout);
    const TileGeometry gc = make_geometry(m, n, *depth, cfg.layout);
    const Chain ch = tiled_chain(cfg, *depth, cfg.fast_cutoff_level, ga.tile_rows,
                                 ga.tile_cols, gb.tile_cols);
    worst = {std::max(worst.fast, ch.fast), std::max(worst.standard, ch.standard)};
    return ga.total_elems() + gb.total_elems() + gc.total_elems();
  }
  if (cfg.forced_depth >= 0) return 0;  // gemm() rejects the shape
  const auto [dim, cut] = split_rule(m, n, k, cfg.tiles);
  std::array<std::uint32_t, 3> lo{m, n, k}, hi{m, n, k};
  lo[dim] = cut;
  hi[dim] -= cut;
  const std::uint64_t first = tiled_buffers(lo[0], lo[1], lo[2], cfg, worst);
  const std::uint64_t second = tiled_buffers(hi[0], hi[1], hi[2], cfg, worst);
  return dim == 2 ? std::max(first, second) : first + second;
}

}  // namespace

const std::array<Rung, 3> kLadder{{
    {"fast->serial-lowmem",
     [](const GemmConfig& c) {
       return c.algorithm != Algorithm::Standard &&
              c.fast_variant != FastVariant::SerialLowMem;
     },
     [](GemmConfig& c) { c.fast_variant = FastVariant::SerialLowMem; }},
    {"standard-inplace",
     [](const GemmConfig& c) {
       return c.algorithm != Algorithm::Standard ||
              c.standard_variant != StandardVariant::InPlace ||
              (c.skip_zero_tiles && c.layout != Curve::ColMajor);
     },
     [](GemmConfig& c) {
       c.algorithm = Algorithm::Standard;
       c.standard_variant = StandardVariant::InPlace;
       c.skip_zero_tiles = false;
     }},
    {"canonical-inplace", [](const GemmConfig& c) { return c.layout != Curve::ColMajor; },
     [](GemmConfig& c) { c.layout = Curve::ColMajor; }},
}};

const Rung* take_rung(GemmConfig& cfg) {
  for (const Rung& rung : kLadder) {
    if (rung.applies(cfg)) {
      rung.apply(cfg);
      return &rung;
    }
  }
  return nullptr;
}

std::size_t footprint_bytes(std::uint32_t m, std::uint32_t n, std::uint32_t k,
                            const GemmConfig& cfg, unsigned workers, double alpha,
                            Op op_a, Op op_b) {
  if (m == 0 || n == 0 || k == 0 || alpha == 0.0) return 0;  // nothing runs
  try {
    validate_config(cfg);
  } catch (const std::invalid_argument&) {
    return 0;  // gemm() rejects the config before allocating
  }
  Chain chain;
  std::uint64_t elems = 0;
  const bool split = cfg.layout != Curve::ColMajor && !choose_depth(m, n, k, cfg);
  if (cfg.layout != Curve::ColMajor) {
    elems = tiled_buffers(m, n, k, cfg, chain);
  } else if (cfg.algorithm == Algorithm::Standard) {
    if (op_a == Op::Transpose || alpha != 1.0) elems += std::uint64_t{m} * k;
    if (op_b == Op::Transpose) elems += std::uint64_t{k} * n;
    // A Temporaries node that halves k holds temporaries tiling its C; the
    // chain follows the ceiling halves.
    const std::uint64_t leaf = cfg.tiles.t_max;
    std::uint64_t rows = m, cols = n, inner = k;
    while (cfg.standard_variant == StandardVariant::Temporaries && inner > leaf) {
      chain.standard += rows * cols;
      rows = rows > leaf ? (rows + 1) / 2 : rows;
      cols = cols > leaf ? (cols + 1) / 2 : cols;
      inner = (inner + 1) / 2;
    }
  } else {
    // The padded square, and a fast recursion to its leaf-sized blocks: the
    // tiled chain with side / 2^levels tiles and no cutoff.
    const auto [side, levels] = canon_square(m, n, k, cfg.tiles);
    const std::uint64_t leaf = side >> levels;
    elems = 3 * std::uint64_t{side} * side;
    chain = tiled_chain(cfg, levels, 0, leaf, leaf, leaf);
  }
  // One chain per thread where the schedule forks: the standard recursion
  // forks on any multi-thread pool, a fast one when Parallel or when the
  // split runs pieces side by side.
  const std::uint64_t threads = workers + std::uint64_t{1};
  const bool fast_forks = split || cfg.fast_variant == FastVariant::Parallel;
  elems += (fast_forks ? threads : 1) * chain.fast + threads * chain.standard;
  return static_cast<std::size_t>(elems * sizeof(double));
}

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

  const Piece whole{m, n, k, alpha, {a, lda, op_a == Op::Transpose},
                    {b, ldb, op_b == Op::Transpose}, beta, c, ldc};
  throw_if_cancelled(cfg, whole);  // don't even build a pool past a deadline

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
      run_or_split(whole, run_cfg, *pool, sink);
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
