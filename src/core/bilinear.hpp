#pragma once

// The quadrant recursions of paper §2 / Fig. 1, written once over any
// storage: the standard algorithm (Fig. 1(a)) and the fast ⟨2,2,2⟩
// algorithms (Fig. 1(b)/(c), §5.1), the latter as data — the
// coefficient-table view of Benson & Ballard's fast-matmul framework.
//
// A Row is one fast algorithm:
//
//   * a[i], b[i] — the A- and B-operand of product P(i+1) as ordered signed
//     sums of quadrants (A11 + A22, B12 - B22, a bare A11, ...);
//   * c[q]       — C quadrant q (C11, C12, C21, C22) as a signed sum of Ps;
//   * pre, post  — the parallel add program: waves of forked tasks, each an
//     ordered list of `dst = x + s·y` (set) or fused `dst += Σ sᵢ·srcᵢ`
//     (acc, at most four sources) steps. `pre` builds the S (A-side) and T
//     (B-side) temporaries, `post` folds the seven products into C. Explicit
//     programs let a row share subexpressions and accumulate in place
//     (Winograd's pre-add chains and U-chain); an empty program is derived
//     from the term lists (one task per temporary / per C quadrant).
//
// The k-th product whose A-operand has more than one term reads S(k), and
// likewise T(k) on the B side; single-term operands are read in place.
//
// run() runs a Row in either FastVariant:
//
//   * Parallel     — pre program, seven products forked at once into seven
//                    P temporaries, post program;
//   * SerialLowMem — §5.1's space-conserving schedule: one S, one T and one
//                    P buffer, each product's operands built from its term
//                    lists in stored order (first two terms by a set, the
//                    rest by accs) and the product folded into every C
//                    quadrant whose list names it.
//
// standard() runs the eight-product recursion in either StandardVariant
// (see its comment); the fast recursion hands its cutoff nodes to it.
//
// Storage comes in through an adapter (see the engine section below):
// recursion.cpp runs both engines over tiled blocks, canonical.cpp over
// strided column-major views. Adding a ⟨2,2,2⟩ algorithm is adding one Row.

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <utility>

#include "core/config.hpp"
#include "obs/collector.hpp"
#include "obs/treeprof/treeprof.hpp"
#include "parallel/worker_pool.hpp"
#include "robust/fault.hpp"

namespace rla::bilinear {

/// Operand slots of one recursion node: quadrants of A, B and C, and the
/// node's temporaries.
enum class Slot : std::uint8_t {
  None,
  A11, A12, A21, A22,
  B11, B12, B21, B22,
  C11, C12, C21, C22,
  S1, S2, S3, S4, S5,
  T1, T2, T3, T4, T5,
  P1, P2, P3, P4, P5, P6, P7,
};
inline constexpr std::size_t kSlots = static_cast<std::size_t>(Slot::P7) + 1;
inline constexpr std::size_t kMaxTemps = 5;  ///< S (and T) temporaries per row

constexpr std::size_t idx(Slot s) noexcept { return static_cast<std::size_t>(s); }

/// The k-th slot (0-based) of the group starting at `first` (A11, S1, P1, ...).
constexpr Slot nth(Slot first, std::size_t k) noexcept {
  return static_cast<Slot>(idx(first) + k);
}

/// Which operand shape a slot has (A quadrant, B quadrant or C quadrant).
enum class Side : std::uint8_t { A, B, C };
constexpr Side side(Slot s) noexcept {
  if ((s >= Slot::A11 && s <= Slot::A22) || (s >= Slot::S1 && s <= Slot::S5)) {
    return Side::A;
  }
  if ((s >= Slot::B11 && s <= Slot::B22) || (s >= Slot::T1 && s <= Slot::T5)) {
    return Side::B;
  }
  return Side::C;
}

/// Fixed-capacity list, so rows are compile-time constants.
template <typename T, std::size_t N>
struct List {
  std::array<T, N> items{};
  std::size_t n = 0;

  constexpr List() = default;
  constexpr List(std::initializer_list<T> init) {
    for (const T& x : init) push(x);
  }
  constexpr void push(const T& x) { items[n++] = x; }
  constexpr std::size_t size() const noexcept { return n; }
  constexpr bool empty() const noexcept { return n == 0; }
  constexpr const T& operator[](std::size_t i) const { return items[i]; }
  constexpr const T* begin() const noexcept { return items.data(); }
  constexpr const T* end() const noexcept { return items.data() + n; }
};

/// A signed slot.
struct Term {
  Slot x = Slot::None;
  double s = 0.0;
};

/// Ordered signed sum of at most four slots; a bare slot is a one-term sum.
struct Sum : List<Term, 4> {
  constexpr Sum() = default;
  constexpr Sum(std::initializer_list<Term> init) : List(init) {}
  constexpr Sum(Slot x) : List{Term{x, 1.0}} {}  // NOLINT: implicit by design
};

constexpr Sum operator+(Sum l, Slot r) {
  l.push({r, 1.0});
  return l;
}
constexpr Sum operator-(Sum l, Slot r) {
  l.push({r, -1.0});
  return l;
}
constexpr Sum operator+(Slot l, Slot r) { return Sum(l) + r; }
constexpr Sum operator-(Slot l, Slot r) { return Sum(l) - r; }

/// One add-program step (see the header comment).
struct Step {
  Slot dst = Slot::None;
  bool set = false;
  Sum sum;
};
constexpr Step set(Slot dst, Sum sum) { return {dst, true, sum}; }
constexpr Step acc(Slot dst, Sum sum) { return {dst, false, sum}; }

/// Element passes of one step over dst: a set is one, an acc one per source.
constexpr std::uint64_t passes(const Step& st) noexcept {
  return st.set ? 1 : st.sum.size();
}

using Task = List<Step, 3>;     ///< steps run in order by one forked task
using Wave = List<Task, 10>;    ///< tasks forked together, joined at the end
using Program = List<Wave, 2>;  ///< waves run one after another

struct Row {
  std::array<Sum, 7> a{};  ///< A-operand of P1..P7, in A quadrants
  std::array<Sum, 7> b{};  ///< B-operand of P1..P7, in B quadrants
  std::array<Sum, 4> c{};  ///< C11, C12, C21, C22, in Ps
  Program pre{};
  Program post{};
  // Derived by complete():
  std::array<Slot, 7> x{};  ///< slot each product reads its A-operand from
  std::array<Slot, 7> y{};  ///< ... and its B-operand from
  std::size_t s_temps = 0;  ///< S temporaries (multi-term A-operands)
  std::size_t t_temps = 0;  ///< T temporaries (multi-term B-operands)
};

/// Fill a row's derived fields and its empty programs (one set per S/T
/// temporary, all in one wave; one fused acc per C quadrant, in one wave).
constexpr Row complete(Row r) {
  Wave pre;
  for (std::size_t i = 0; i < 7; ++i) {
    r.x[i] = r.a[i].size() == 1 ? r.a[i][0].x : nth(Slot::S1, r.s_temps++);
    if (r.a[i].size() > 1) pre.push({set(r.x[i], r.a[i])});
  }
  for (std::size_t i = 0; i < 7; ++i) {
    r.y[i] = r.b[i].size() == 1 ? r.b[i][0].x : nth(Slot::T1, r.t_temps++);
    if (r.b[i].size() > 1) pre.push({set(r.y[i], r.b[i])});
  }
  if (r.pre.empty()) r.pre.push(pre);
  if (r.post.empty()) {
    Wave post;
    for (std::size_t q = 0; q < 4; ++q) post.push({acc(nth(Slot::C11, q), r.c[q])});
    r.post.push(post);
  }
  return r;
}

/// Structural checks the engine relies on (algebraic correctness is
/// tests/test_bilinear.cpp's job): a bare operand is a +1 quadrant of its
/// own matrix, sets are `x + s·y`, and each acc has one to four sources.
constexpr bool well_formed(const Row& r) {
  for (std::size_t i = 0; i < 7; ++i) {
    for (const Sum* sum : {&r.a[i], &r.b[i]}) {
      if (sum->empty() || (*sum)[0].s != 1.0) return false;
    }
    if (side(r.x[i]) != Side::A || side(r.y[i]) != Side::B) return false;
  }
  for (const Program* prog : {&r.pre, &r.post}) {
    for (const Wave& wave : *prog) {
      for (const Task& task : wave) {
        for (const Step& st : task) {
          if (st.set ? (st.sum.size() != 2 || st.sum[0].s != 1.0)
                     : (st.sum.empty() || st.sum.size() > 4)) {
            return false;
          }
        }
      }
    }
  }
  return r.s_temps <= kMaxTemps && r.t_temps <= kMaxTemps;
}

/// The rows (defined in bilinear.cpp).
extern const Row kStrassen;
extern const Row kWinograd;

/// Row of a fast algorithm; null for Algorithm::Standard.
const Row* row_for(Algorithm alg) noexcept;

// ---- the engines -------------------------------------------------------------

/// The recursion-context fields every storage shares. Each storage's
/// context (MulContext, CanonContext) extends it with its own fields.
struct Context {
  KernelKind kernel = KernelKind::TiledUnrolled;
  StandardVariant standard_variant = StandardVariant::Temporaries;
  FastVariant fast_variant = FastVariant::Parallel;
  WorkerPool* pool = nullptr;  ///< never null; a 0-thread pool is serial
  /// External cancellation (GemmConfig::cancel): set by another thread
  /// (deadline watchdog, shutdown). Nodes return without descending; the
  /// driver turns it into rla::Error{Cancelled} once the task tree drains.
  const std::atomic<bool>* cancel = nullptr;
  /// Call-local cancellation: every TaskGroup the engines fork sets it when
  /// a task throws, so one failure prunes every sibling subtree before the
  /// exception reaches the driver (which discards the partial result).
  std::atomic<bool>* abort = nullptr;
  /// Injection-queue priority of every forked TaskGroup (GemmConfig::priority;
  /// only matters when several requests share a pool).
  int priority = 0;
};

/// The node preamble of both engines: true when the recursion should return
/// (external or call-local cancellation); otherwise draws the task.throw
/// fault site. One relaxed load per flag when nothing is armed.
inline bool cancelled(const Context& ctx) {
  if ((ctx.cancel != nullptr && ctx.cancel->load(std::memory_order_relaxed)) ||
      (ctx.abort != nullptr && ctx.abort->load(std::memory_order_relaxed))) {
    return true;
  }
  fault::maybe_fail_task(fault::Site::TaskThrow);
  return false;
}

// An adapter `Ad` supplies the storage:
//
//   types   Ctx (derives from Context), View (writable block), CView
//           (readable block; a View converts to it), Temp (owning buffer,
//           default-constructible and movable)
//   node    parallel(ctx, c, a) (fork this node's children?),
//           at_cutoff(ctx, c) (fast recursion hands over to standard),
//           skip(ctx, a, b) (a zero operand annihilates the product),
//           is_leaf(ctx, c, a), leaf(ctx, c, a, b) (C += A·B, FLOPs credited)
//   blocks  quadrant(v, q) for View and CView (q: 0 NW, 1 NE, 2 SW, 3 SE),
//           split(ctx, c, a, b) (a standard node's pieces, see Split),
//           temp(like), view(temp), elems(v)
//   adds    zero(ctx, d), set_add(ctx, d, x, s, y),
//           acc(ctx, d, n, coeffs, srcs) (n in 1..4)
//
// The engines own, once for every adapter: the cancellation and task.throw
// check, the alloc.temp fault site, the TaskGroup wiring to ctx.abort, the
// treeprof paths (node frames; standard products as children mi*2+nj for
// the first k-half and 4+mi*2+nj for the second, fast products P1..P7 as
// children 0..6; add_flops on every add pass; forked add tasks on the
// node's own path) and the "adds" trace phases.

/// Run f via the group when parallel, inline otherwise.
template <typename F>
void fork(TaskGroup& group, bool parallel, F&& f) {
  if (parallel) {
    group.spawn(std::forward<F>(f));
  } else {
    f();
  }
}

/// A quadrant-sized temporary shaped like `like`, through the alloc.temp
/// fault site.
template <typename Ad>
typename Ad::Temp temp(const typename Ad::CView& like) {
  fault::maybe_fail_alloc(fault::Site::AllocTemp);
  return Ad::temp(like);
}

/// The pieces of one standard node. C splits into mp × np pieces and the
/// inner dimension into kp halves; C piece (i, j) is c[i*2+j], A piece
/// (i, l) is a[i*2+l] and B piece (l, j) is b[l*2+j] — the quadrant
/// numbering when every count is 2. Pieces past a count are unused.
template <typename Ad>
struct Split {
  std::size_t mp = 2, np = 2, kp = 2;
  std::array<typename Ad::View, 4> c{};
  std::array<typename Ad::CView, 4> a{}, b{};

  /// Whether C piece q (= i*2+j) exists.
  bool has(std::size_t q) const noexcept { return (q >> 1) < mp && (q & 1) < np; }
};

namespace detail {

/// One node's operand table: A and B quadrants readable; C quadrants and
/// temporaries writable (and readable).
template <typename Ad>
struct Operands {
  std::array<typename Ad::CView, 8> ab{};                      ///< A11..B22
  std::array<typename Ad::View, kSlots - idx(Slot::C11)> cv{};  ///< C11..P7

  const typename Ad::View& out(Slot s) const { return cv[idx(s) - idx(Slot::C11)]; }
  typename Ad::CView in(Slot s) const {
    return s < Slot::C11 ? ab[idx(s) - idx(Slot::A11)] : typename Ad::CView(out(s));
  }
  void bind(Slot s, const typename Ad::View& v) { cv[idx(s) - idx(Slot::C11)] = v; }
};

template <typename Ad>
void apply(const typename Ad::Ctx& ctx, const Operands<Ad>& ops, const Step& st) {
  const typename Ad::View& dst = ops.out(st.dst);
  if (st.set) {
    Ad::set_add(ctx, dst, ops.in(st.sum[0].x), st.sum[1].s, ops.in(st.sum[1].x));
  } else {
    std::array<double, 4> s{};
    std::array<typename Ad::CView, 4> src{};
    for (std::size_t i = 0; i < st.sum.size(); ++i) {
      s[i] = st.sum[i].s;
      src[i] = ops.in(st.sum[i].x);
    }
    Ad::acc(ctx, dst, st.sum.size(), s, src);
  }
  obs::treeprof::add_flops(passes(st) * Ad::elems(dst));
}

template <typename Ad>
void run_program(const typename Ad::Ctx& ctx, const Program& prog,
                 const Operands<Ad>& ops, bool par, std::uint64_t path) {
  // "adds" phases mark the serial joints between product waves in the
  // trace; only spawning nodes emit them (deep nodes would flood the ring).
  obs::PhaseScope adds_phase("adds", par);
  for (const Wave& wave : prog) {
    TaskGroup group(*ctx.pool, ctx.abort, ctx.priority);
    for (const Task& task : wave) {
      bilinear::fork(group, par, [&ctx, &ops, &task, path] {
        obs::treeprof::NodeScope add_node(path);
        for (const Step& st : task) apply(ctx, ops, st);
      });
    }
    group.wait();
  }
}

/// A standard Temporaries node's post-add wave: C piece q += temporary q.
/// Out of line so its phase and group stay out of standard()'s frame, which
/// every nested level of helping in TaskGroup::wait() repeats on the stack.
template <typename Ad>
[[gnu::noinline]] void add_temps(const typename Ad::Ctx& ctx, const Split<Ad>& s,
                                 std::array<typename Ad::Temp, 4>& t, bool par,
                                 std::uint64_t path) {
  // "adds" phases mark the serial joints between product waves in the
  // trace; only spawning nodes emit them (deep nodes would flood the ring).
  obs::PhaseScope adds_phase("adds", par);
  TaskGroup group(*ctx.pool, ctx.abort, ctx.priority);
  for (std::size_t q = 0; q < 4; ++q) {
    if (!s.has(q)) continue;
    fork(group, par, [&, q] {
      obs::treeprof::NodeScope add_node(path);
      Ad::acc(ctx, s.c[q], 1, {1.0}, {Ad::view(t[q])});
      obs::treeprof::add_flops(Ad::elems(s.c[q]));
    });
  }
  group.wait();
}

}  // namespace detail

/// C += A·B by the standard eight-product recursion (Fig. 1(a)), down to
/// Ad's leaves, in ctx.standard_variant's schedule:
///
///   * Temporaries — one wave: the first k-half's products into C, the
///     second's into zeroed temporaries; then one wave of post-adds;
///   * InPlace     — two waves, one per k-half, each product into C.
///
/// A node keeps its schedule whether or not it forks, so every element's
/// summation order is fixed by the variant alone: results are identical at
/// every thread count.
template <typename Ad>
void standard(const typename Ad::Ctx& ctx, const typename Ad::View& c,
              const typename Ad::CView& a, const typename Ad::CView& b,
              std::uint64_t path = obs::treeprof::kRootPath) {
  if (cancelled(ctx) || Ad::skip(ctx, a, b)) return;
  obs::treeprof::NodeScope node(path);
  if (Ad::is_leaf(ctx, c, a)) {
    Ad::leaf(ctx, c, a, b);
    return;
  }
  const Split<Ad> s = Ad::split(ctx, c, a, b);
  const bool par = Ad::parallel(ctx, c, a);
  const bool temps = ctx.standard_variant == StandardVariant::Temporaries && s.kp == 2;
  std::array<typename Ad::Temp, 4> t;
  if (temps) {
    for (std::size_t q = 0; q < 4; ++q) {
      if (s.has(q)) t[q] = temp<Ad>(s.c[q]);
    }
  }
  // The k-halves' products: one wave with temporaries, a wave each in place.
  const std::size_t halves_per_wave = temps ? s.kp : 1;
  for (std::size_t l0 = 0; l0 < s.kp; l0 += halves_per_wave) {
    TaskGroup group(*ctx.pool, ctx.abort, ctx.priority);
    for (std::size_t l = l0; l < l0 + halves_per_wave; ++l) {
      for (std::size_t q = 0; q < 4; ++q) {
        if (!s.has(q)) continue;
        const typename Ad::CView& x = s.a[(q & 2) + l];
        const typename Ad::CView& y = s.b[l * 2 + (q & 1)];
        const std::uint64_t child =
            obs::treeprof::child_path(path, static_cast<unsigned>(4 * l + q));
        if (l == 1 && temps) {
          fork(group, par, [&, q, child] {
            const typename Ad::View tq = Ad::view(t[q]);
            Ad::zero(ctx, tq);
            standard<Ad>(ctx, tq, x, y, child);
          });
        } else {
          fork(group, par, [&, q, child] { standard<Ad>(ctx, s.c[q], x, y, child); });
        }
      }
    }
    group.wait();
  }
  if (temps) detail::add_temps<Ad>(ctx, s, t, par, path);
}

/// C += A·B by `row`, recursing to Ad's cutoff and finishing with standard();
/// schedule per ctx.fast_variant.
template <typename Ad>
void run(const Row& row, const typename Ad::Ctx& ctx, const typename Ad::View& c,
         const typename Ad::CView& a, const typename Ad::CView& b,
         std::uint64_t path = obs::treeprof::kRootPath) {
  using detail::apply;
  if (Ad::at_cutoff(ctx, c)) {
    standard<Ad>(ctx, c, a, b, path);
    return;
  }
  if (cancelled(ctx)) return;
  obs::treeprof::NodeScope node(path);
  detail::Operands<Ad> ops;
  for (std::size_t q = 0; q < 4; ++q) {
    ops.ab[q] = Ad::quadrant(a, static_cast<int>(q));
    ops.ab[4 + q] = Ad::quadrant(b, static_cast<int>(q));
    ops.bind(nth(Slot::C11, q), Ad::quadrant(c, static_cast<int>(q)));
  }
  const typename Ad::CView a11 = ops.in(Slot::A11), b11 = ops.in(Slot::B11);
  const typename Ad::CView c11 = ops.in(Slot::C11);

  if (ctx.fast_variant == FastVariant::SerialLowMem) {
    typename Ad::Temp s_buf = temp<Ad>(a11), t_buf = temp<Ad>(b11);
    typename Ad::Temp p_buf = temp<Ad>(c11);
    ops.bind(Slot::S1, Ad::view(s_buf));
    ops.bind(Slot::T1, Ad::view(t_buf));
    ops.bind(Slot::P1, Ad::view(p_buf));
    // A bare operand is read in place; a sum is built in `buf` in stored
    // order: a set of its first two terms, then one acc per further term.
    auto operand = [&](const Sum& sum, Slot buf) {
      if (sum.size() == 1) return ops.in(sum[0].x);
      apply(ctx, ops, set(buf, Sum{sum[0], sum[1]}));
      for (std::size_t k = 2; k < sum.size(); ++k) apply(ctx, ops, acc(buf, Sum{sum[k]}));
      return ops.in(buf);
    };
    for (std::size_t i = 0; i < 7; ++i) {
      const typename Ad::CView x = operand(row.a[i], Slot::S1);
      const typename Ad::CView y = operand(row.b[i], Slot::T1);
      Ad::zero(ctx, ops.out(Slot::P1));
      run<Ad>(row, ctx, ops.out(Slot::P1), x, y,
              obs::treeprof::child_path(path, static_cast<unsigned>(i)));
      for (std::size_t q = 0; q < 4; ++q) {
        for (const Term& t : row.c[q]) {
          if (t.x != nth(Slot::P1, i)) continue;
          apply(ctx, ops, acc(nth(Slot::C11, q), Sum{{Slot::P1, t.s}}));
        }
      }
    }
    return;
  }

  const bool par = Ad::parallel(ctx, c, a);
  std::array<typename Ad::Temp, kMaxTemps> s_tmp, t_tmp;
  std::array<typename Ad::Temp, 7> p_tmp;
  for (std::size_t k = 0; k < row.s_temps; ++k) {
    s_tmp[k] = temp<Ad>(a11);
    ops.bind(nth(Slot::S1, k), Ad::view(s_tmp[k]));
  }
  for (std::size_t k = 0; k < row.t_temps; ++k) {
    t_tmp[k] = temp<Ad>(b11);
    ops.bind(nth(Slot::T1, k), Ad::view(t_tmp[k]));
  }
  for (std::size_t k = 0; k < 7; ++k) {
    p_tmp[k] = temp<Ad>(c11);
    ops.bind(nth(Slot::P1, k), Ad::view(p_tmp[k]));
  }
  detail::run_program(ctx, row.pre, ops, par, path);
  {
    // The seven products, all spawned at once (paper §2).
    TaskGroup group(*ctx.pool, ctx.abort, ctx.priority);
    for (std::size_t i = 0; i < 7; ++i) {
      fork(group, par, [&, i] {
        const typename Ad::View& p = ops.out(nth(Slot::P1, i));
        Ad::zero(ctx, p);
        run<Ad>(row, ctx, p, ops.in(row.x[i]), ops.in(row.y[i]),
                obs::treeprof::child_path(path, static_cast<unsigned>(i)));
      });
    }
    group.wait();
  }
  detail::run_program(ctx, row.post, ops, par, path);
}

}  // namespace rla::bilinear
