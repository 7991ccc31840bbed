// Closed-loop workloads: one caller issues one gemm at a time on a
// caller-owned WorkerPool of load_threads() - 1 workers (the caller helps in
// TaskGroup::wait, so load_threads() threads in all).

#include <cmath>
#include <cstring>
#include <limits>
#include <memory>

#include "core/gemm.hpp"
#include "core/matrix.hpp"
#include "layers.hpp"
#include "parallel/worker_pool.hpp"
#include "robust/verify.hpp"
#include "workloads.hpp"

namespace rlabench {
namespace {

constexpr int kSetups = 3;
constexpr int kWarmups = 1;
constexpr std::size_t kMinCalls = 3;
/// Share of the untraced window spent on single-thread baseline calls.
/// They are interleaved with the parallel calls, not run after them, so
/// both rates are medians over the same stretch of time: this host's speed
/// drifts by up to 2x over tens of seconds.
constexpr double kSerialShare = 1.0 / 3;

struct Problem {
  std::uint32_t m = 0, n = 0, k = 0;
  rla::Algorithm algorithm = rla::Algorithm::Standard;
  bool trans_b = false;
  double alpha = 1.0, beta = 0.0;
};

Problem problem_for(const Options& opt) {
  const std::uint32_t sq = opt.small ? 256 : 1024;
  if (opt.workload == "square_std") return {sq, sq, sq, rla::Algorithm::Standard, false, 1.0, 0.0};
  if (opt.workload == "square_strassen")
    return {sq, sq, sq, rla::Algorithm::Strassen, false, 1.0, 0.0};
  // panel_update: C <- C - A·B^T, the LU/Cholesky trailing-update shape.
  const std::uint32_t mn = opt.small ? 512 : 2048;
  return {mn, mn, 64, rla::Algorithm::Standard, true, -1.0, 1.0};
}

struct Operands {
  rla::Matrix a, b, c0, c;
};

std::unique_ptr<Operands> make_operands(const Problem& p, std::uint64_t seed) {
  auto o = std::make_unique<Operands>();
  o->a = rla::Matrix(p.m, p.k);
  o->b = p.trans_b ? rla::Matrix(p.n, p.k) : rla::Matrix(p.k, p.n);
  o->c0 = rla::Matrix(p.m, p.n);
  o->c = rla::Matrix(p.m, p.n);
  o->a.fill_random(seed * 4 + 1);
  o->b.fill_random(seed * 4 + 2);
  if (p.beta != 0.0) {
    o->c0.fill_random(seed * 4 + 3);
  } else {
    o->c0.zero();
  }
  return o;
}

/// Issues checked calls of one problem on one pool.
class Caller {
 public:
  Caller(const Problem& p, Operands& o, rla::WorkerPool& pool, Sheet& sheet,
         std::uint64_t seed)
      : p_(p), o_(o), pool_(pool), sheet_(sheet), seed_(seed) {}

  /// One call, Freivalds-checked outside the timed interval. False when it
  /// threw or failed the check; either counts as failed.
  bool call(rla::GemmConfig cfg, CallSample& out, SpanLog* spans = nullptr, int parent = -1) {
    const std::uint64_t id = ++calls_;
    ++sheet_.attempted;
    int span = spans ? spans->open("restore", id, parent) : -1;
    if (p_.beta != 0.0) std::memcpy(o_.c.data(), o_.c0.data(), o_.c.size() * sizeof(double));
    rla::FreivaldsCheck check(p_.m, p_.n, kProbes, seed_ * 1000003 + id);
    check.capture(o_.c.data(), o_.c.ld(), p_.beta);
    if (spans) spans->close(span);

    cfg.pool = &pool_;
    cfg.algorithm = p_.algorithm;
    span = spans ? spans->open("op", id, parent) : -1;
    const auto t0 = Clock::now();
    try {
      rla::gemm(p_.m, p_.n, p_.k, p_.alpha, o_.a.data(), o_.a.ld(), rla::Op::None,
                o_.b.data(), o_.b.ld(), p_.trans_b ? rla::Op::Transpose : rla::Op::None,
                p_.beta, o_.c.data(), o_.c.ld(), cfg, &out.profile);
    } catch (const std::exception&) {
      if (spans) spans->close(span);
      ++sheet_.failed;
      return false;
    }
    out.wall_s = seconds_since(t0);
    if (spans) spans->close(span);

    span = spans ? spans->open("verify", id, parent) : -1;
    const rla::VerifyResult r =
        check.check(p_.k, p_.alpha, o_.a.data(), o_.a.ld(), false, o_.b.data(), o_.b.ld(),
                    p_.trans_b, o_.c.data(), o_.c.ld(), kTolerance);
    if (spans) spans->close(span);
    out.shape = shape_of(out.profile, p_.algorithm, false, p_.trans_b, p_.alpha, p_.beta);
    if (!r.ok) ++sheet_.failed;
    return r.ok;
  }

 private:
  const Problem& p_;
  Operands& o_;
  rla::WorkerPool& pool_;
  Sheet& sheet_;
  std::uint64_t seed_;
  std::uint64_t calls_ = 0;
};

struct Window {
  std::vector<CallSample> calls;  ///< successful parallel calls only
  std::vector<double> serial_s;   ///< successful single-thread calls
  std::vector<double> gaps_s;     ///< previous call's return -> this call's start
  double seconds = 0.0;
};

/// Closed loop for `seconds`. With `serial`, a kSerialShare of the time
/// goes to single-thread calls interleaved with the parallel ones.
Window run_window(Caller& caller, Caller* serial, const rla::GemmConfig& cfg, double seconds,
                  SpanLog* spans) {
  Window w;
  const int root = spans ? spans->open("window", 0) : -1;
  const auto t0 = Clock::now();
  auto prev_end = t0;
  double serial_total = 0.0;
  std::size_t attempts = 0;
  while (seconds_since(t0) < seconds || w.calls.size() < kMinCalls ||
         (serial && w.serial_s.size() < kMinCalls)) {
    if (++attempts > kMinCalls && w.calls.empty() && seconds_since(t0) > 4 * seconds) break;
    CallSample s;
    const auto start = Clock::now();
    if (attempts > 1) w.gaps_s.push_back(std::chrono::duration<double>(start - prev_end).count());
    const bool one_thread = serial && serial_total < kSerialShare * seconds_since(t0);
    const bool ok = (one_thread ? *serial : caller).call(cfg, s, spans, root);
    prev_end = Clock::now();
    if (one_thread) {
      serial_total += std::chrono::duration<double>(prev_end - start).count();
      if (ok) w.serial_s.push_back(s.wall_s);
    } else if (ok) {
      w.calls.push_back(std::move(s));
    }
  }
  w.seconds = seconds_since(t0);
  if (spans) spans->close(root);
  return w;
}

std::vector<double> walls(const Window& w) {
  std::vector<double> v;
  for (const CallSample& c : w.calls) v.push_back(c.wall_s);
  return v;
}

/// Compare one call's C against reference_gemm within twice the driver's
/// certified bound (the reference carries classical rounding of its own).
bool oracle_check(const Problem& p, Operands& o, Caller& caller, Sheet& sheet) {
  CallSample s;
  if (!caller.call(rla::GemmConfig{}, s)) return false;
  // Reference with A transposed in memory, so its inner product reads
  // both operands with unit stride.
  rla::Matrix at(p.k, p.m);
  for (std::uint32_t j = 0; j < p.k; ++j)
    for (std::uint32_t i = 0; i < p.m; ++i) at(j, i) = o.a(i, j);
  rla::Matrix ref = o.c0;
  rla::reference_gemm(p.m, p.n, p.k, p.alpha, at.data(), at.ld(), true, o.b.data(),
                      o.b.ld(), p.trans_b, p.beta, ref.data(), ref.ld());
  const double u = std::numeric_limits<double>::epsilon() / 2;
  const double tol = 2.0 * s.profile.error_bound * std::abs(p.alpha) * rla::max_abs(o.a.view()) *
                         rla::max_abs(o.b.view()) +
                     4.0 * u * std::abs(p.beta) * rla::max_abs(o.c0.view());
  const double err = rla::max_abs_diff(o.c.view(), ref.view());
  char buf[160];
  std::snprintf(buf, sizeof buf, "oracle: max |C - reference| = %.3g, allowed %.3g", err, tol);
  sheet.notes.push_back(buf);
  return err <= tol;
}

/// Add the failure fractions once every operation of the run is counted.
Sheet& finish(Sheet& sheet) {
  sheet.add("fail_frac", sheet.fail_frac(), "ratio");
  return sheet;
}

}  // namespace

Sheet run_closed_loop(const Options& opt) {
  Sheet sheet;
  const Problem p = problem_for(opt);
  const unsigned threads = load_threads();
  const double flops = classical_flops(p.m, p.n, p.k);

  // Set-up: pool, operands and warm-up calls, repeated; the last one stays.
  std::unique_ptr<rla::WorkerPool> pool;
  std::unique_ptr<Operands> ops;
  std::unique_ptr<Caller> caller;
  std::vector<double> setup_s;
  for (int i = 0; i < kSetups; ++i) {
    caller.reset();
    pool.reset();
    ops.reset();
    const auto t0 = Clock::now();
    pool = std::make_unique<rla::WorkerPool>(threads - 1);
    ops = make_operands(p, opt.seed);
    double checks_s = 0.0;
    caller = std::make_unique<Caller>(p, *ops, *pool, sheet, opt.seed);
    for (int w = 0; w < kWarmups; ++w) {
      CallSample s;
      const auto c0 = Clock::now();
      caller->call(rla::GemmConfig{}, s);
      checks_s += seconds_since(c0) - s.wall_s;  // restore + verify, not set-up
    }
    setup_s.push_back(seconds_since(t0) - checks_s);
  }

  // Untraced window: the end-to-end numbers. A traced run splits its time
  // between an untraced and a traced window.
  const double untraced_s = opt.trace ? opt.seconds / 2 : opt.seconds;
  rla::WorkerPool serial_pool(0);
  Caller serial(p, *ops, serial_pool, sheet, opt.seed + 1);
  const Window w = run_window(*caller, &serial, rla::GemmConfig{}, untraced_s, nullptr);
  const double wall_med = median(walls(w));
  const double gflops = wall_med > 0.0 ? flops / wall_med * 1e-9 : 0.0;
  const Tail tail = tail_of(walls(w));

  const double gflops_1t = w.serial_s.empty() ? 0.0 : flops / median(w.serial_s) * 1e-9;

  sheet.oracle_ok = oracle_check(p, *ops, *caller, sheet);

  sheet.add("gflops", gflops, "GF/s", "classical 2mnk / median call wall time");
  sheet.add("gflops_1t", gflops_1t, "GF/s",
            "same problem on WorkerPool(0), calls interleaved with the parallel ones; " +
                std::to_string(w.serial_s.size()) + " calls");
  sheet.add("lat_p50_ms", wall_med * 1e3, "ms", "per call");
  sheet.add("lat_tail_ms", tail.value * 1e3, "ms", tail_note(tail));
  sheet.add("peak_rss_mb", peak_rss_mb(), "MB");
  sheet.add("setup_s", median(setup_s), "s", "median of 3 set-ups: pool, operands, one warm-up call");
  if (!opt.trace) return finish(sheet);

  // ---- traced run: per-layer metrics ----
  SpanLog spans;
  rla::GemmConfig traced;
  traced.measure = true;
  traced.tree_profile = true;
  const Window tw = run_window(*caller, nullptr, traced, opt.seconds / 2, &spans);
  const double traced_med = median(walls(tw));
  const LayerShape shape = w.calls.empty() ? LayerShape{} : w.calls.back().shape;
  const double compute_ms = add_profile_metrics(sheet, w.calls, shape);
  add_traced_profile_metrics(sheet, tw.calls);
  sheet.add("sched.scaling_eff", gflops_1t > 0 ? gflops / (gflops_1t * threads) : 0.0, "ratio",
            "gflops / (gflops_1t x threads)");
  sheet.add("trace.overhead_frac", traced_med > 0 ? 1.0 - wall_med / traced_med : 0.0, "ratio",
            "1 - traced gflops / untraced gflops");
  sheet.add("gen.lag_tail_ms", tail_of(w.gaps_s).value * 1e3, "ms",
            "closed loop: previous return -> next call (restore + check); " +
                tail_note(tail_of(w.gaps_s)));

  // The same problem submitted through a GemmService, one at a time.
  {
    rla::service::ServiceConfig sc;
    sc.threads = threads - 1;
    sc.executors = 1;
    rla::service::GemmService service(sc);
    std::vector<rla::service::Response> responses;
    for (int i = 0; i < (opt.small ? 2 : 3); ++i) {
      ++sheet.attempted;
      std::memcpy(ops->c.data(), ops->c0.data(), ops->c.size() * sizeof(double));
      rla::FreivaldsCheck check(p.m, p.n, kProbes, opt.seed * 7 + i);
      check.capture(ops->c.data(), ops->c.ld(), p.beta);
      rla::service::Request req;
      req.m = p.m;
      req.n = p.n;
      req.k = p.k;
      req.alpha = p.alpha;
      req.a = ops->a.data();
      req.lda = ops->a.ld();
      req.b = ops->b.data();
      req.ldb = ops->b.ld();
      req.op_b = p.trans_b ? rla::Op::Transpose : rla::Op::None;
      req.beta = p.beta;
      req.c = ops->c.data();
      req.ldc = ops->c.ld();
      req.cfg.algorithm = p.algorithm;
      rla::service::Response r = service.submit(req).get();
      const bool done = r.outcome == rla::service::Outcome::Completed ||
                        r.outcome == rla::service::Outcome::Degraded;
      if (!done || !check.check(p.k, p.alpha, ops->a.data(), ops->a.ld(), false, ops->b.data(),
                                ops->b.ld(), p.trans_b, ops->c.data(), ops->c.ld(), kTolerance)
                        .ok)
        ++sheet.failed;
      responses.push_back(std::move(r));
    }
    add_service_metrics(sheet, responses, service);
  }

  double fma = 0.0;
  add_roofline_metrics(sheet, spans, fma);
  add_replay_metrics(sheet, spans, shape, compute_ms, fma);

  finish_spans(sheet, spans, opt);
  return finish(sheet);
}

}  // namespace rlabench
