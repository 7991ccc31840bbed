// served_mixed: an open-loop Poisson stream of small and mid-size square
// requests, half Standard and half Strassen, into one GemmService. Requests
// are sent when due whatever the service is doing, and each is timed from
// its due time, so a stall is charged to every request it delays. Runnable
// but not gated: rlabench/METRICS.md gives the measured spreads.

#include <cmath>
#include <deque>
#include <memory>
#include <thread>

#include "core/gemm.hpp"
#include "core/matrix.hpp"
#include "layers.hpp"
#include "obs/json.hpp"
#include "parallel/worker_pool.hpp"
#include "robust/verify.hpp"
#include "util/rng.hpp"
#include "workloads.hpp"

namespace rlabench {
namespace {

namespace svc = rla::service;

constexpr int kSetups = 3;
constexpr unsigned kExecutors = 2;
constexpr int kSerialPasses = 3;  // before the window, and again after it

// The traffic mix. Weights put the median request well inside the 128
// class, away from the latency gap between two size classes, so the median
// does not jump between classes from one seed to the next.
constexpr std::uint32_t kSizes[] = {64, 96, 128, 192, 256, 384};
constexpr double kWeights[] = {0.10, 0.10, 0.50, 0.15, 0.10, 0.05};
constexpr int kClasses = 6;
constexpr double kRatePerS = 100.0;
constexpr double kDeadlineS = 0.100;

struct Arrival {
  double due_s = 0.0;
  int size_class = 0;
  rla::Algorithm algorithm = rla::Algorithm::Standard;
};

std::vector<Arrival> arrivals(std::uint64_t seed, double seconds, double rate) {
  rla::Xoshiro256 rng(seed * 0x9e3779b97f4a7c15ULL + 5);
  std::vector<Arrival> out;
  double t = 0.0;
  for (;;) {
    t += -std::log(1.0 - rng.next_double()) / rate;
    if (t >= seconds) break;
    Arrival a;
    a.due_s = t;
    double u = rng.next_double();
    while (a.size_class < kClasses - 1 && u >= kWeights[a.size_class]) u -= kWeights[a.size_class++];
    a.algorithm = rng.next_double() < 0.5 ? rla::Algorithm::Standard : rla::Algorithm::Strassen;
    out.push_back(a);
  }
  return out;
}

/// Per-class operands, shared by every request of the class (read-only).
struct Operands {
  rla::Matrix a[kClasses], b[kClasses];
  explicit Operands(std::uint64_t seed) {
    for (int c = 0; c < kClasses; ++c) {
      a[c] = rla::Matrix(kSizes[c], kSizes[c]);
      b[c] = rla::Matrix(kSizes[c], kSizes[c]);
      a[c].fill_random(seed * 16 + 2 * c);
      b[c].fill_random(seed * 16 + 2 * c + 1);
    }
  }
};

svc::Request request_for(const Operands& o, int cls, rla::Algorithm alg, double* c) {
  svc::Request r;
  r.m = r.n = r.k = kSizes[cls];
  r.a = o.a[cls].data();
  r.lda = kSizes[cls];
  r.b = o.b[cls].data();
  r.ldb = kSizes[cls];
  r.c = c;
  r.ldc = kSizes[cls];
  r.cfg.algorithm = alg;
  r.deadline = std::chrono::microseconds(static_cast<std::int64_t>(kDeadlineS * 1e6));
  return r;
}

bool verify(const Operands& o, int cls, const double* c, std::uint64_t seed) {
  const std::uint32_t n = kSizes[cls];
  rla::FreivaldsCheck check(n, n, kProbes, seed);
  return check.check(n, 1.0, o.a[cls].data(), n, false, o.b[cls].data(), n, false, c, n, kTolerance)
      .ok;
}

bool finished(const svc::Response& r) {
  return r.outcome == svc::Outcome::Completed || r.outcome == svc::Outcome::Degraded;
}

/// One request in flight: its C buffer lives until the response is checked.
struct InFlight {
  std::size_t index = 0;
  Arrival arrival;
  std::vector<double> c;
  Clock::time_point submitted;
  std::future<svc::Response> future;
};

struct Outcome {
  svc::Response response;
  CallSample sample;
  int size_class = 0;
  double latency_s = 0.0;  ///< due -> resolution
  bool on_time = false;
  bool ok = false;
};

struct Window {
  std::vector<Outcome> outcomes;
  std::vector<double> lag_s;  ///< send time - due time
  std::size_t offered = 0;
  double seconds = 0.0;
};

class Generator {
 public:
  Generator(svc::GemmService& service, const Operands& ops, Sheet& sheet, std::uint64_t seed)
      : service_(service), ops_(ops), sheet_(sheet), seed_(seed) {}

  Window run(const std::vector<Arrival>& plan, double seconds, bool traced, SpanLog* spans) {
    Window w;
    w.offered = plan.size();
    w.seconds = seconds;
    root_ = spans ? spans->open("window", 0) : -1;
    spans_ = spans;
    const auto t0 = Clock::now();
    std::deque<InFlight> pending;
    for (std::size_t i = 0; i < plan.size(); ++i) {
      const auto due = t0 + std::chrono::nanoseconds(static_cast<std::int64_t>(plan[i].due_s * 1e9));
      // Check resolved requests, oldest first, while there is time to spare.
      while (!pending.empty() && Clock::now() + std::chrono::milliseconds(1) < due &&
             pending.front().future.wait_for(std::chrono::seconds(0)) == std::future_status::ready) {
        collect(pending.front(), t0, w);
        pending.pop_front();
      }
      std::this_thread::sleep_until(due);
      InFlight f;
      f.index = i;
      f.arrival = plan[i];
      f.c.assign(std::size_t{kSizes[plan[i].size_class]} * kSizes[plan[i].size_class], 0.0);
      svc::Request req = request_for(ops_, plan[i].size_class, plan[i].algorithm, f.c.data());
      req.cfg.measure = traced;
      req.cfg.tree_profile = traced;
      ++sheet_.attempted;
      f.submitted = Clock::now();
      w.lag_s.push_back(std::chrono::duration<double>(f.submitted - due).count());
      f.future = service_.submit(req);
      pending.push_back(std::move(f));
    }
    while (!pending.empty()) {
      collect(pending.front(), t0, w);
      pending.pop_front();
    }
    if (spans) spans->close(root_);
    return w;
  }

 private:
  void collect(InFlight& f, Clock::time_point t0, Window& w) {
    Outcome o;
    o.response = f.future.get();
    const svc::Response& r = o.response;
    const double resolved_s = std::chrono::duration<double>(f.submitted - t0).count() +
                              r.queue_seconds + r.run_seconds;
    o.latency_s = resolved_s - f.arrival.due_s;
    const int v = spans_ ? spans_->open("verify", r.trace_id, root_) : -1;
    o.ok = finished(r) && verify(ops_, f.arrival.size_class, f.c.data(), seed_ * 1000003 + f.index);
    if (spans_) {
      spans_->close(v);
      const std::int64_t start = ns_of(f.submitted);
      spans_->record("op", r.trace_id, root_, start,
                     start + static_cast<std::int64_t>((r.queue_seconds + r.run_seconds) * 1e9));
    }
    // Cancelled (deadline) is a miss; everything else that did not finish
    // correctly is a failure.
    if (!o.ok && r.outcome != svc::Outcome::Cancelled) ++sheet_.failed;
    o.on_time = o.ok && o.latency_s <= kDeadlineS;
    o.size_class = f.arrival.size_class;
    o.sample.wall_s = r.run_seconds;
    o.sample.profile = r.profile;
    o.sample.shape = shape_of(r.profile, f.arrival.algorithm, false, false, 1.0, 0.0);
    w.outcomes.push_back(std::move(o));
  }

  svc::GemmService& service_;
  const Operands& ops_;
  Sheet& sheet_;
  std::uint64_t seed_;
  SpanLog* spans_ = nullptr;
  int root_ = -1;
};

svc::ServiceConfig service_config() {
  svc::ServiceConfig sc;
  sc.executors = kExecutors;
  // Pool workers plus executors make load_threads(); a worker count of 0
  // would mean hardware_concurrency - 1 to the service, so keep at least 1.
  sc.threads = load_threads() > kExecutors + 1 ? load_threads() - kExecutors : 1;
  return sc;
}

double flops_of(int cls) { return classical_flops(kSizes[cls], kSizes[cls], kSizes[cls]); }

/// Median per-request classical rate while running: 2n^3 / run time.
double request_gflops(const Window& w) {
  std::vector<double> v;
  for (const Outcome& o : w.outcomes)
    if (o.ok && o.sample.wall_s > 0.0) v.push_back(flops_of(o.size_class) / o.sample.wall_s * 1e-9);
  return median(v);
}

/// The mix on a serial pool: per class and algorithm, the median of calls
/// made in passes before and after the window (this host's speed drifts
/// over tens of seconds, so one pass would sample one instant), combined
/// as sum(weight x flops) / sum(weight x median time).
class SerialMix {
 public:
  SerialMix(const Operands& ops, Sheet& sheet, std::uint64_t seed)
      : ops_(ops), sheet_(sheet), seed_(seed) {}

  void pass() {
    for (int c = 0; c < kClasses; ++c) {
      for (int alg = 0; alg < 2; ++alg) {
        rla::GemmConfig cfg;
        cfg.pool = &pool_;
        cfg.algorithm = alg == 0 ? rla::Algorithm::Standard : rla::Algorithm::Strassen;
        std::vector<double> out(std::size_t{kSizes[c]} * kSizes[c], 0.0);
        ++sheet_.attempted;
        const auto t0 = Clock::now();
        try {
          rla::gemm(kSizes[c], kSizes[c], kSizes[c], 1.0, ops_.a[c].data(), kSizes[c],
                    rla::Op::None, ops_.b[c].data(), kSizes[c], rla::Op::None, 0.0, out.data(),
                    kSizes[c], cfg);
        } catch (const std::exception&) {
          ++sheet_.failed;
          continue;
        }
        times_[c][alg].push_back(seconds_since(t0));
        if (!verify(ops_, c, out.data(), seed_ + 31 * c + times_[c][alg].size())) ++sheet_.failed;
      }
    }
  }

  double gflops() const {
    double flops = 0.0, seconds = 0.0;
    for (int c = 0; c < kClasses; ++c)
      for (int alg = 0; alg < 2; ++alg) {
        flops += 0.5 * kWeights[c] * flops_of(c);
        seconds += 0.5 * kWeights[c] * median(times_[c][alg]);
      }
    return seconds > 0.0 ? flops / seconds * 1e-9 : 0.0;
  }

 private:
  const Operands& ops_;
  Sheet& sheet_;
  std::uint64_t seed_;
  rla::WorkerPool pool_{0};
  std::vector<double> times_[kClasses][2];
};

void add_end_to_end(Sheet& sheet, const Window& w) {
  std::vector<double> lat_ms;
  std::size_t on_time = 0;
  for (const Outcome& o : w.outcomes) {
    lat_ms.push_back(o.latency_s * 1e3);
    on_time += o.on_time ? 1 : 0;
  }
  const Tail t = tail_of(lat_ms);
  sheet.add("lat_p50_ms", median(lat_ms), "ms", "request due time -> resolution");
  sheet.add("lat_tail_ms", t.value, "ms", tail_note(t));
  sheet.add("goodput_rps", static_cast<double>(on_time) / w.seconds, "1/s",
            "requests correct within the deadline per second of the offered window");
  sheet.add("miss_frac",
            w.offered ? 1.0 - static_cast<double>(on_time) / static_cast<double>(w.offered) : 0.0,
            "ratio", "not correct within the deadline / offered");
}

}  // namespace

void add_service_metrics(Sheet& sheet, const std::vector<svc::Response>& responses,
                         const svc::GemmService& service) {
  std::vector<double> queue_ms, run_ms;
  double rejected = 0, degraded = 0;
  for (const svc::Response& r : responses) {
    queue_ms.push_back(r.queue_seconds * 1e3);
    run_ms.push_back(r.run_seconds * 1e3);
    if (r.outcome == svc::Outcome::Rejected) ++rejected;
    if (r.outcome == svc::Outcome::Degraded) ++degraded;
  }
  const double n = std::max<double>(1.0, static_cast<double>(responses.size()));
  const Tail qt = tail_of(queue_ms);
  sheet.add("service.queue_p50_ms", median(queue_ms), "ms", "Response::queue_seconds");
  sheet.add("service.queue_tail_ms", qt.value, "ms", tail_note(qt));
  sheet.add("service.run_p50_ms", median(run_ms), "ms", "Response::run_seconds");
  sheet.add("service.reject_frac", rejected / n, "ratio");
  sheet.add("service.degrade_frac", degraded / n, "ratio");

  double recycled = 0, allocations = 0;
  if (const auto doc = rla::obs::json::Value::parse(service.metrics_json())) {
    if (const auto* counters = doc->find("counters")) {
      if (const auto* v = counters->find("arena.recycled")) recycled = v->as_double();
      if (const auto* v = counters->find("arena.allocations")) allocations = v->as_double();
    }
  }
  sheet.add("arena.reuse_frac", recycled + allocations > 0 ? recycled / (recycled + allocations) : 0.0,
            "ratio", "arena.recycled / (recycled + allocations), from metrics_json()");
}

Sheet run_served(const Options& opt) {
  Sheet sheet;
  // Set-up: service, operands and one warm-up request per class and
  // algorithm, repeated; the last one stays.
  std::unique_ptr<Operands> ops;
  std::unique_ptr<svc::GemmService> service;
  std::vector<double> setup_s;
  for (int i = 0; i < kSetups; ++i) {
    service.reset();
    ops.reset();
    const auto t0 = Clock::now();
    service = std::make_unique<svc::GemmService>(service_config());
    ops = std::make_unique<Operands>(opt.seed);
    std::vector<std::vector<double>> cs;
    std::vector<std::future<svc::Response>> fs;
    for (int c = 0; c < kClasses; ++c)
      for (auto alg : {rla::Algorithm::Standard, rla::Algorithm::Strassen}) {
        cs.emplace_back(std::size_t{kSizes[c]} * kSizes[c], 0.0);
        ++sheet.attempted;
        svc::Request req = request_for(*ops, c, alg, cs.back().data());
        req.deadline = std::chrono::microseconds(0);  // a cold burst, not traffic
        fs.push_back(service->submit(req));
      }
    std::vector<svc::Response> rs;
    for (auto& f : fs) rs.push_back(f.get());
    setup_s.push_back(seconds_since(t0));
    for (std::size_t j = 0; j < rs.size(); ++j)
      if (!finished(rs[j]) || !verify(*ops, static_cast<int>(j / 2), cs[j].data(), opt.seed + j))
        ++sheet.failed;
  }

  const double untraced_s = opt.trace ? opt.seconds / 2 : opt.seconds;
  SerialMix serial(*ops, sheet, opt.seed);
  for (int i = 0; i < kSerialPasses; ++i) serial.pass();
  Generator gen(*service, *ops, sheet, opt.seed);
  const Window w = gen.run(arrivals(opt.seed, untraced_s, kRatePerS), untraced_s, false, nullptr);
  for (int i = 0; i < kSerialPasses; ++i) serial.pass();
  const double gflops = request_gflops(w);
  const double gflops_1t = serial.gflops();

  sheet.add("gflops", gflops, "GF/s", "median over requests of 2n^3 / Response::run_seconds");
  sheet.add("gflops_1t", gflops_1t, "GF/s", "the mix on WorkerPool(0), weighted by the mix; passes before and after the window");
  add_end_to_end(sheet, w);
  sheet.add("peak_rss_mb", peak_rss_mb(), "MB");
  sheet.add("setup_s", median(setup_s), "s",
            "median of 3 set-ups: service, operands, one warm-up request per class and algorithm");
  {
    char buf[160];
    std::snprintf(buf, sizeof buf, "offered %zu requests at %.0f/s for %.1f s, deadline %.0f ms, %u executors + %u pool workers",
                  w.offered, kRatePerS, w.seconds, kDeadlineS * 1e3, kExecutors, service_config().threads);
    sheet.notes.push_back(buf);
  }
  if (!opt.trace) {
    sheet.add("fail_frac", sheet.fail_frac(), "ratio");
    return sheet;
  }

  // ---- traced run: per-layer metrics ----
  SpanLog spans;
  const Window tw = gen.run(arrivals(opt.seed + 1, opt.seconds / 2, kRatePerS), opt.seconds / 2, true, &spans);
  std::vector<CallSample> calls, traced;
  std::vector<svc::Response> responses;
  // Replays run at the shape of the largest class under Strassen, the class
  // whose kernels, adds and temporaries weigh most in the mix.
  LayerShape shape;
  bool have_shape = false;
  for (const Outcome& o : w.outcomes) {
    responses.push_back(o.response);
    if (!o.ok) continue;
    calls.push_back(o.sample);
    if (o.size_class == kClasses - 1 && o.sample.shape.algorithm == rla::Algorithm::Strassen) {
      shape = o.sample.shape;
      have_shape = true;
    }
  }
  for (const Outcome& o : tw.outcomes)
    if (o.ok) traced.push_back(o.sample);
  if (!have_shape) sheet.notes.push_back("no completed 384 Strassen request; replays use a default shape");
  add_profile_metrics(sheet, calls, shape);
  add_traced_profile_metrics(sheet, traced);
  sheet.add("sched.scaling_eff", gflops_1t > 0 ? gflops / (gflops_1t * load_threads()) : 0.0, "ratio",
            "gflops / (gflops_1t x threads)");
  const double traced_gflops = request_gflops(tw);
  sheet.add("trace.overhead_frac", gflops > 0 ? 1.0 - traced_gflops / gflops : 0.0, "ratio",
            "1 - traced gflops / untraced gflops");
  const Tail lag = tail_of([&] {
    std::vector<double> v;
    for (double s : w.lag_s) v.push_back(s * 1e3);
    return v;
  }());
  sheet.add("gen.lag_tail_ms", lag.value, "ms", "send time - due time; " + tail_note(lag));
  add_service_metrics(sheet, responses, *service);

  double fma = 0.0;
  add_roofline_metrics(sheet, spans, fma);
  // The add share needs the replayed class's own compute phase, not the
  // mix median that gemm.compute_ms reports.
  std::vector<double> class_compute;
  for (const CallSample& c : calls)
    if (c.shape.depth == shape.depth && c.shape.tile_m == shape.tile_m &&
        c.shape.algorithm == shape.algorithm)
      class_compute.push_back(c.profile.compute * 1e3);
  const double compute_ms = median(class_compute);
  add_replay_metrics(sheet, spans, shape, compute_ms, fma);

  finish_spans(sheet, spans, opt);
  sheet.add("fail_frac", sheet.fail_frac(), "ratio");
  return sheet;
}

}  // namespace rlabench
