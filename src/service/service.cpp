#include "service/service.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <exception>
#include <stdexcept>
#include <thread>
#include <utility>

#include "obs/schema.hpp"
#include "obs/telemetry/exposition.hpp"
#include "obs/telemetry/trace_id.hpp"
#include "robust/error.hpp"
#include "robust/fault.hpp"
#include "util/env.hpp"
#include "util/rng.hpp"

namespace rla::service {

using FlightKind = obs::telemetry::FlightEventKind;

namespace {

using Clock = std::chrono::steady_clock;

std::int64_t ns_between(Clock::time_point a, Clock::time_point b) noexcept {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count();
}

/// SLO bucketing: three coarse priority classes keep the per-class
/// histogram count fixed and the series names enumerable.
const char* priority_class(int priority) noexcept {
  return priority < 0 ? "low" : priority > 0 ? "high" : "normal";
}

constexpr const char* kPriorityClasses[] = {"low", "normal", "high"};

}  // namespace

std::string_view outcome_name(Outcome o) noexcept {
  switch (o) {
    case Outcome::Completed:
      return "completed";
    case Outcome::Degraded:
      return "degraded";
    case Outcome::Rejected:
      return "rejected";
    case Outcome::Cancelled:
      return "cancelled";
    case Outcome::Failed:
      return "failed";
  }
  return "?";
}

ServiceConfig ServiceConfig::from_env() {
  ServiceConfig cfg;
  cfg.threads = static_cast<unsigned>(
      std::max<std::int64_t>(0, env_int("RLA_SERVICE_THREADS", 0)));
  cfg.executors = static_cast<unsigned>(
      std::max<std::int64_t>(1, env_int("RLA_SERVICE_EXECUTORS", 2)));
  cfg.max_inflight = static_cast<std::size_t>(
      std::max<std::int64_t>(1, env_int("RLA_SERVICE_MAX_INFLIGHT", 64)));
  cfg.arena_bytes = static_cast<std::size_t>(std::max<std::int64_t>(
                        0, env_int("RLA_SERVICE_ARENA_MB", 0))) *
                    (std::size_t{1} << 20);
  cfg.watchdog_period = std::chrono::milliseconds(
      std::max<std::int64_t>(1, env_int("RLA_SERVICE_WATCHDOG_MS", 10)));
  cfg.telemetry_period = std::chrono::milliseconds(
      std::max<std::int64_t>(0, env_int("RLA_TELEMETRY_PERIOD_MS", 0)));
  cfg.flight_dump_path = env_string("RLA_TELEMETRY_FLIGHT_DUMP");
  return cfg;
}

/// Everything the queue, an executor, the watchdog and the caller's future
/// share about one request. Owned by shared_ptr: whoever finalizes last
/// keeps it alive, so no path can observe a freed request.
struct GemmService::Pending {
  Request req;
  std::promise<Response> promise;
  std::uint64_t id = 0;
  std::uint64_t trace = 0;  ///< minted at submit; immutable afterwards

  /// The cooperative cancel token GemmConfig::cancel points at. Set by the
  /// watchdog on deadline expiry, or by nobody.
  std::atomic<bool> cancel{false};
  std::atomic<bool> done{false};             ///< finalize-once latch
  std::atomic<bool> deadline_flagged{false};  ///< deadline metric fired
  std::atomic<bool> stall_flagged{false};     ///< stall metric fired

  Clock::time_point submit_tp{};
  Clock::time_point deadline_tp{};  ///< epoch = no deadline
  Clock::time_point run_tp{};       ///< executor pickup (epoch = never ran)
  /// Publishes run_tp: dequeue() writes run_tp then stores true (release);
  /// finalize() pairs with an acquire load. An atomic rather than a
  /// service_mutex_-guarded bool because finalize() must read it without
  /// the service lock (it may run on the submit path, pre-admission) and
  /// GUARDED_BY cannot name another object's mutex anyway.
  std::atomic<bool> started{false};

  BufferArena::Reservation reservation;

  /// Service-level trail ("service:..." entries). Executor and watchdog both
  /// append; tiny dedicated mutex so the watchdog never waits on a gemm.
  Mutex trail_mutex;  // lock-level: registry
  std::vector<std::string> trail RLA_GUARDED_BY(trail_mutex);
  int attempts RLA_GUARDED_BY(trail_mutex) = 0;
  /// Ladder rungs taken: at admission by submit(), then on retries by the
  /// one executor running the request (the queue hand-off orders the two).
  int rungs = 0;

  void note(std::string entry) RLA_EXCLUDES(trail_mutex) {
    MutexLock lock(trail_mutex);
    trail.push_back(std::move(entry));
  }
  /// Rewrite req.cfg by the next rung of the driver's ladder (kLadder),
  /// note "service:degraded:<why>:<rung>" and, when `flight` is set, record
  /// a Degrade event valued at the rung's 1-based position. False when the
  /// config is already at the floor.
  bool degrade(const char* why, obs::telemetry::FlightRecorder* flight)
      RLA_EXCLUDES(trail_mutex) {
    const Rung* rung = take_rung(req.cfg);
    if (rung == nullptr) return false;
    ++rungs;
    note(std::string("service:degraded:") + why + ":" + std::string(rung->name));
    if (flight != nullptr) {
      flight->record(FlightKind::Degrade, id, trace, rung - kLadder.data() + 1);
    }
    return true;
  }
  bool has_deadline() const noexcept {
    return deadline_tp != Clock::time_point{};
  }
};

GemmService::GemmService(ServiceConfig cfg)
    : cfg_(cfg), arena_(cfg.arena_bytes) {
  unsigned threads = cfg_.threads;
  if (threads == 0) {
    const unsigned hw = std::thread::hardware_concurrency();
    threads = hw > 1 ? hw - 1 : 1;
  }
  cfg_.threads = threads;
  cfg_.executors = std::max(1u, cfg_.executors);
  cfg_.max_inflight = std::max<std::size_t>(1, cfg_.max_inflight);
  pool_ = std::make_unique<WorkerPool>(threads);
  registry_.gauge("service.workers").set(pool_->thread_count());
  registry_.gauge("service.executors").set(cfg_.executors);
  registry_.gauge("service.max_inflight")
      .set(static_cast<std::int64_t>(cfg_.max_inflight));
  // Pre-register every series the canonical schema (obs/schema.hpp) tags,
  // so an export after a quiet run (or one where nothing was
  // rejected/retried) still carries every series — tools/soak_check.py
  // validates against the full set.
  for (const obs::schema::Entry& e : obs::schema::kMetrics) {
    if (!e.preregister) continue;
    const std::string name(e.name);
    switch (e.kind) {
      case obs::schema::Kind::Counter:
        registry_.counter(name);  // metric-family: schema
        break;
      case obs::schema::Kind::Gauge:
        registry_.gauge(name);  // metric-family: schema
        break;
      case obs::schema::Kind::Histogram:
        registry_.histogram(name);  // metric-family: schema
        break;
    }
  }
  for (Outcome o : {Outcome::Completed, Outcome::Degraded, Outcome::Rejected,
                    Outcome::Cancelled, Outcome::Failed}) {
    registry_.counter(std::string("service.outcome.") +  // metric-family: service.outcome.*
                      std::string(outcome_name(o)));
  }
  for (const char* cls : kPriorityClasses) {
    registry_.histogram(std::string("service.priority.") +  // metric-family: service.priority.*
                        cls + ".total_ns");
  }
  executors_.reserve(cfg_.executors);
  for (unsigned e = 0; e < cfg_.executors; ++e) {
    executors_.emplace_back([this] { executor_main(); });
  }
  watchdog_ = std::thread([this] { watchdog_main(); });
  if (cfg_.telemetry_period.count() > 0) {
    obs::telemetry::Snapshotter::Options opts;
    opts.period = cfg_.telemetry_period;
    snapshotter_ = std::make_unique<obs::telemetry::Snapshotter>(
        [this] { return telemetry_sample(); }, opts);
  }
}

GemmService::~GemmService() { shutdown(); }

std::size_t GemmService::in_flight() const noexcept {
  MutexLock lock(service_mutex_);
  return inflight_;
}

std::future<Response> GemmService::submit(const Request& req) {
  auto p = std::make_shared<Pending>();
  p->req = req;
  p->submit_tp = Clock::now();
  if (req.deadline.count() > 0) p->deadline_tp = p->submit_tp + req.deadline;
  // Mint the request-scoped trace id before anything can fail: every
  // response — even a Rejected one — carries it, and the gemm driver makes
  // it ambient so trace events and the profile join back to this request.
  p->trace = obs::telemetry::mint_trace_id();
  p->req.cfg.trace_id = p->trace;
  std::future<Response> fut = p->promise.get_future();
  registry_.counter("service.submitted").add();

  bool slot_held = false;
  auto reject = [&](const char* reason) RLA_EXCLUDES(service_mutex_) {
    if (slot_held) {
      MutexLock lock(service_mutex_);
      --inflight_;
    }
    registry_.counter("service.rejected").add();
    Response r;
    r.outcome = Outcome::Rejected;
    r.reason = reason;
    r.id = p->id;
    r.trace_id = p->trace;
    p->done.store(true, std::memory_order_release);
    p->promise.set_value(std::move(r));
    return std::move(fut);
  };

  MutexLock lock(service_mutex_);
  if (stopping_) {
    lock.unlock();
    return reject("shutdown");
  }
  if (inflight_ >= cfg_.max_inflight) {
    lock.unlock();
    return reject("queue-full");
  }
  // Claim the inflight slot now so concurrent submits can't collectively
  // overshoot the bound during the (lock-free) arena admission below.
  ++inflight_;
  slot_held = true;
  p->id = next_id_++;
  lock.unlock();

  // Memory admission: reserve the footprint, taking one rung of the
  // driver's degradation ladder per failed reservation (the same ladder,
  // run *before* any allocation instead of after a failure). These rungs
  // stay out of the flight ring: the request is not admitted yet, and the
  // bundle-closure invariant only covers requests between their Admit and
  // Finalize events.
  const Request& q = p->req;
  BufferArena::Reservation res;
  while (!(res = arena_.try_reserve(footprint_bytes(
               q.m, q.n, q.k, q.cfg, pool_->thread_count(), q.alpha, q.op_a, q.op_b)))) {
    if (!q.allow_degradation || !p->degrade("arena", nullptr)) {
      registry_.counter("service.arena_rejections").add();
      return reject("arena-budget");
    }
    registry_.counter("service.degraded_admission").add();
  }
  p->reservation = std::move(res);

  lock.lock();
  if (stopping_) {
    lock.unlock();
    return reject("shutdown");
  }
  // Priority-ordered insert, FIFO within a priority (same back-scan as the
  // pool's injection queue: the common same-priority case is O(1)).
  auto it = queue_.end();
  while (it != queue_.begin() && (*std::prev(it))->req.priority < p->req.priority) {
    --it;
  }
  queue_.insert(it, p);
  registry_.counter("service.accepted").add();
  registry_.gauge("service.queue_depth_high_water")
      .fold_max(static_cast<std::int64_t>(queue_.size()));
  // Admit + Queue under the same hold that makes the request visible, and
  // the open_ insert with them: a bundle dump (one hold of this mutex) can
  // then prove closure — flight events without a Finalize imply a row in
  // the inflight table.
  open_.emplace(p->id, p);
  flight_.record(FlightKind::Admit, p->id, p->trace, p->req.priority);
  flight_.record(FlightKind::Queue, p->id, p->trace,
                 static_cast<std::int64_t>(queue_.size()));
  lock.unlock();
  work_cv_.notify_one();  // publishes: queue_ (one new Pending)
  return fut;
}

std::vector<std::future<Response>> GemmService::submit_batch(
    const std::vector<Request>& reqs) {
  std::vector<std::future<Response>> futures;
  futures.reserve(reqs.size());
  for (const Request& r : reqs) futures.push_back(submit(r));
  return futures;
}

std::shared_ptr<GemmService::Pending> GemmService::dequeue() {
  MutexLock lock(service_mutex_);
  work_cv_.wait(service_mutex_, lock, [this]() RLA_REQUIRES(service_mutex_) {
    return stopping_ || !queue_.empty();
  });
  if (queue_.empty()) return nullptr;  // stopping and drained
  std::shared_ptr<Pending> p = queue_.front();
  queue_.pop_front();
  p->run_tp = Clock::now();
  // Release-publishes run_tp to finalize()'s acquire load.
  p->started.store(true, std::memory_order_release);
  running_.push_back(p);
  flight_.record(FlightKind::Start, p->id, p->trace);
  return p;
}

void GemmService::finalize(const std::shared_ptr<Pending>& p, Outcome outcome,
                           std::string reason, GemmProfile profile) {
  if (p->done.exchange(true, std::memory_order_acq_rel)) return;
  const Clock::time_point now = Clock::now();

  Response r;
  r.outcome = outcome;
  r.reason = std::move(reason);
  r.profile = std::move(profile);
  r.id = p->id;
  r.trace_id = p->trace;
  {
    MutexLock lock(p->trail_mutex);
    r.degradation_trail = p->trail;
    r.attempts = p->attempts;
  }
  // Service events first, then the gemm driver's own trail from the final
  // attempt — one list tells the request's whole degradation story.
  r.degradation_trail.insert(r.degradation_trail.end(),
                             r.profile.degradation_trail.begin(),
                             r.profile.degradation_trail.end());
  // Acquire pairs with dequeue()'s release store, making run_tp visible
  // even when the finalizer is the watchdog or a shutdown path rather than
  // the executor that picked the request up.
  const bool started = p->started.load(std::memory_order_acquire);
  const Clock::time_point picked = started ? p->run_tp : now;
  const std::int64_t queue_ns = ns_between(p->submit_tp, picked);
  const std::int64_t run_ns = started ? ns_between(p->run_tp, now) : 0;
  r.queue_seconds = static_cast<double>(queue_ns) * 1e-9;
  r.run_seconds = static_cast<double>(run_ns) * 1e-9;

  p->reservation.release();

  {
    MutexLock lock(service_mutex_);
    --inflight_;
    // Remove from whichever list still holds it (queue for never-run
    // requests finalized by the watchdog or shutdown).
    auto rit = std::find(running_.begin(), running_.end(), p);
    if (rit != running_.end()) running_.erase(rit);
    auto qit = std::find(queue_.begin(), queue_.end(), p);
    if (qit != queue_.end()) queue_.erase(qit);
    // Finalize in the same hold as the open_ erase — the closing half of
    // the bundle invariant (see submit()).
    open_.erase(p->id);
    flight_.record(FlightKind::Finalize, p->id, p->trace,
                   static_cast<std::int64_t>(outcome));
  }

  registry_.counter(std::string("service.outcome.") +  // metric-family: service.outcome.*
                    std::string(outcome_name(outcome)))
      .add();
  registry_.histogram("service.queue_ns").record(queue_ns);
  registry_.histogram("service.run_ns").record(run_ns);
  // Tree-profiled requests (GemmConfig::tree_profile): nodes attributed
  // across the service lifetime; 0-increment otherwise, so the preregistered
  // family always exports.
  registry_.counter("treeprof.nodes").add(r.profile.tree_profile.size());
  const std::int64_t total_ns = ns_between(p->submit_tp, now);
  registry_.histogram("service.total_ns").record(total_ns);
  registry_.histogram(std::string("service.priority.") +  // metric-family: service.priority.*
                      priority_class(p->req.priority) + ".total_ns")
      .record(total_ns);

  p->promise.set_value(std::move(r));
  watchdog_cv_.notify_all();  // publishes: inflight_ (drain exits at zero)
}

void GemmService::run_request(const std::shared_ptr<Pending>& p) {
  // A request whose deadline lapsed while queued never runs.
  if (p->cancel.load(std::memory_order_relaxed) ||
      (p->has_deadline() && Clock::now() >= p->deadline_tp)) {
    p->note("service:deadline");
    if (!p->deadline_flagged.exchange(true)) {
      registry_.counter("service.deadline_expired").add();
      flight_.record(FlightKind::Deadline, p->id, p->trace);
    }
    finalize(p, Outcome::Cancelled, "deadline expired in queue", {});
    return;
  }

  // Injected stall (fault site "service.stall"): the executor goes dark in
  // 1 ms slices. The first 50 slices deliberately ignore cancellation — a
  // stall that bailed the instant the watchdog flagged its deadline would
  // exit before `deadline + grace` elapses and the stall detector could
  // never fire, making `service.stalls_detected` (and the flight-recorder
  // dump it triggers) untestable. The loop stays hard-bounded at 200 ms
  // either way, so the every-request-terminates guarantee is intact.
  if (fault::should_fail(fault::Site::ServiceStall)) {
    p->note("service:stall-injected");
    for (int i = 0; i < 200; ++i) {
      if (i >= 50 && p->cancel.load(std::memory_order_relaxed)) break;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }

  const int max_attempts = 1 + std::max(0, p->req.retry_budget);
  std::string last_error;
  for (int attempt = 0; attempt < max_attempts; ++attempt) {
    GemmConfig cfg = p->req.cfg;  // a retry may take a rung between tries
    // A request-scoped fault plan re-arms on every attempt. Reseed a retry's
    // plan from (seed, attempt), so it faces fresh faults instead of
    // replaying the pattern that just failed it (a later seed= clause wins).
    fault::FaultPlan plan;
    if (attempt > 0 && !cfg.fault_spec.empty() &&
        fault::parse_plan(cfg.fault_spec, plan)) {
      const auto salt = static_cast<std::uint64_t>(attempt);
      cfg.fault_spec += ";seed=" + std::to_string(Xoshiro256(plan.seed + salt).next_u64());
    }
    cfg.pool = pool_.get();
    cfg.threads = 0;
    cfg.cancel = &p->cancel;
    cfg.priority = p->req.priority;
    cfg.acquire_scratch = [this](std::size_t count) { return arena_.acquire(count); };
    cfg.release_scratch = [this](AlignedBuffer<double>&& buf) {
      arena_.release(std::move(buf));
    };

    GemmProfile profile;
    {
      MutexLock lock(p->trail_mutex);
      p->attempts = attempt + 1;
    }
    try {
      const Request& q = p->req;
      gemm(q.m, q.n, q.k, q.alpha, q.a, q.lda, q.op_a, q.b, q.ldb, q.op_b,
           q.beta, q.c, q.ldc, cfg, &profile);
      // Only config rewrites and retries make the outcome Degraded;
      // informational entries (e.g. "service:stall-injected") on an
      // otherwise clean run do not.
      const bool degraded = profile.degradations > 0 || p->rungs > 0 || attempt > 0;
      finalize(p, degraded ? Outcome::Degraded : Outcome::Completed, "",
               std::move(profile));
      return;
    } catch (const Error& e) {
      if (e.kind() == ErrorKind::Cancelled) {
        p->note("service:deadline");
        if (!p->deadline_flagged.exchange(true)) {
          registry_.counter("service.deadline_expired").add();
          flight_.record(FlightKind::Deadline, p->id, p->trace);
        }
        finalize(p, Outcome::Cancelled, e.what(), std::move(profile));
        return;
      }
      if (e.kind() == ErrorKind::Config) {
        // A malformed config (e.g. a bad fault spec) is deterministic: no
        // retry or degradation can make it parse. Fail fast like bad args.
        finalize(p, Outcome::Failed, e.what(), std::move(profile));
        return;
      }
      last_error = e.what();
    } catch (const std::invalid_argument& e) {
      // Bad arguments cannot succeed on retry; fail fast.
      finalize(p, Outcome::Failed, e.what(), std::move(profile));
      return;
    } catch (const std::exception& e) {
      last_error = e.what();
    }
    // The failed attempt had begun writing C (β·C plus partial products):
    // unless β = 0 overwrites it, a retry on that C would apply β twice.
    const std::vector<std::string>& gemm_trail = profile.degradation_trail;
    if (p->req.beta != 0.0 &&
        std::find(gemm_trail.begin(), gemm_trail.end(), kTrailCWritten) !=
            gemm_trail.end()) {
      finalize(p, Outcome::Failed, last_error, std::move(profile));
      return;
    }
    if (attempt + 1 < max_attempts) {
      registry_.counter("service.retries").add();
      p->note("service:retry:" + std::to_string(attempt + 1));
      flight_.record(FlightKind::Retry, p->id, p->trace, attempt + 1);
      // Each retry steps the config down one rung first (when permitted):
      // retrying the exact configuration that just failed is only useful
      // against transient faults, and cheaper paths dodge persistent ones.
      if (p->req.allow_degradation) p->degrade("retry", &flight_);
    }
  }
  finalize(p, Outcome::Failed, last_error, {});
}

void GemmService::executor_main() {
  while (std::shared_ptr<Pending> p = dequeue()) {
    run_request(p);
  }
}

void GemmService::watchdog_main() {
  for (;;) {
    std::vector<std::shared_ptr<Pending>> expired;
    {
      MutexLock lock(service_mutex_);
      // Predicate wait: wake early only for the drain condition; the
      // periodic deadline sweep runs on timeout. The predicate-less form
      // this replaces could absorb finalize()'s drain notify during a
      // sweep and push shutdown out by one period.
      const bool draining = watchdog_cv_.wait_for(
          service_mutex_, lock, cfg_.watchdog_period,
          [this]() RLA_REQUIRES(service_mutex_) {
            return stopping_ && inflight_ == 0;
          });
      if (draining) return;

      const Clock::time_point now = Clock::now();
      // Queued past their deadline: pull them out and finalize below
      // (outside the lock — finalize re-takes it).
      for (auto it = queue_.begin(); it != queue_.end();) {
        Pending& p = **it;
        if (p.has_deadline() && now >= p.deadline_tp) {
          p.cancel.store(true, std::memory_order_relaxed);
          expired.push_back(*it);
          it = queue_.erase(it);
        } else {
          ++it;
        }
      }
      for (const auto& sp : running_) {
        Pending& p = *sp;
        if (!p.has_deadline()) continue;
        if (now >= p.deadline_tp) {
          // Cooperative: set the flag; the driver raises Cancelled at its
          // next checkpoint and the executor finalizes.
          p.cancel.store(true, std::memory_order_relaxed);
          if (!p.deadline_flagged.exchange(true)) {
            registry_.counter("service.deadline_expired").add();
            flight_.record(FlightKind::Deadline, p.id, p.trace);
          }
        }
        // Stuck detection (fault site semantics, not preemption): a request
        // this far past its deadline means a checkpoint is overdue —
        // an injected stall, a wedged worker, or a cancellation bug.
        const auto grace = std::max<Clock::duration>(
            cfg_.watchdog_period,
            std::chrono::duration_cast<Clock::duration>(
                (cfg_.stall_factor - 1.0) * p.req.deadline));
        if (now >= p.deadline_tp + grace && !p.stall_flagged.exchange(true)) {
          registry_.counter("service.stalls_detected").add();
          p.note("service:stall-detected");
          flight_.record(FlightKind::Stall, p.id, p.trace);
          // First stall: capture the post-mortem bundle while the stalled
          // request is still in flight. Same lock hold as the sweep, so
          // the bundle is a consistent point-in-time cut.
          if (!cfg_.flight_dump_path.empty() && !stall_dumped_) {
            stall_dumped_ = true;
            dump_bundle_locked(cfg_.flight_dump_path.c_str());
          }
        }
      }
    }
    for (const auto& sp : expired) {
      sp->note("service:deadline");
      if (!sp->deadline_flagged.exchange(true)) {
        registry_.counter("service.deadline_expired").add();
        flight_.record(FlightKind::Deadline, sp->id, sp->trace);
      }
      finalize(sp, Outcome::Cancelled, "deadline expired in queue", {});
    }
  }
}

void GemmService::shutdown() {
  MutexLock shutdown_lock(shutdown_mutex_);
  {
    MutexLock lock(service_mutex_);  // lifecycle → service nesting
    if (stopping_ && executors_.empty()) return;  // already shut down
    stopping_ = true;
  }
  work_cv_.notify_all();      // publishes: stopping_
  watchdog_cv_.notify_all();  // publishes: stopping_
  // Graceful drain: new submits bounce with Rejected{shutdown}, but every
  // already-accepted request still runs to a terminal outcome — executors
  // keep dequeuing until the queue is empty, and the watchdog keeps
  // enforcing deadlines on whatever is left, so a drain can never hang on
  // a stalled or overdue request.
  for (std::thread& t : executors_) {
    if (t.joinable()) t.join();
  }
  executors_.clear();
  watchdog_cv_.notify_all();  // publishes: inflight_ (drained to zero above)
  if (watchdog_.joinable()) watchdog_.join();
  // Stop sampling after the drain so the final sample (stop() takes one)
  // shows the drained end state: in_flight 0, terminal outcome totals.
  if (snapshotter_) snapshotter_->stop();
}

void GemmService::fold_runtime_metrics() const {
  // Fold the point-in-time surfaces (queue, arena, scheduler, SLO) into the
  // registry before a snapshot. The sched.total.* and exceptions_swallowed
  // names match what the per-call collector exports, so trace_summary.py
  // reads both without a sched_snapshot call.
  obs::Registry& reg = registry_;
  {
    MutexLock lock(service_mutex_);  // service → registry nesting
    reg.gauge("service.in_flight").set(static_cast<std::int64_t>(inflight_));
    reg.gauge("service.queue_depth").set(static_cast<std::int64_t>(queue_.size()));
    reg.gauge("service.running").set(static_cast<std::int64_t>(running_.size()));
    // Queue-age SLO gauge: how stale is the oldest queued request right now.
    std::int64_t oldest_ns = 0;
    const Clock::time_point now = Clock::now();
    for (const auto& sp : queue_) {
      oldest_ns = std::max(oldest_ns, ns_between(sp->submit_tp, now));
    }
    reg.gauge("service.slo.queue_age_ns").set(oldest_ns);  // metric-family: service.slo.*
  }
  reg.gauge("arena.budget_bytes").set(static_cast<std::int64_t>(arena_.budget()));
  reg.gauge("arena.reserved_bytes")
      .set(static_cast<std::int64_t>(arena_.reserved_bytes()));
  reg.gauge("arena.cached_bytes")
      .set(static_cast<std::int64_t>(arena_.cached_bytes()));
  reg.gauge("arena.reserved_high_water")
      .set(static_cast<std::int64_t>(arena_.reserved_high_water()));
  reg.counter("arena.recycled").set(arena_.recycled());
  reg.counter("arena.allocations").set(arena_.allocations());
  reg.counter("arena.rejections").set(arena_.rejections());
  publish_sched_totals(*pool_, reg);
  // SLO surface: per-priority-class end-to-end latency quantiles (from the
  // log2 histograms finalize() feeds, interpolated inside the bucket) and
  // the deadline-miss rate in parts per million of accepted requests.
  for (const char* cls : kPriorityClasses) {
    obs::Histogram& h =
        reg.histogram(std::string("service.priority.") +  // metric-family: service.priority.*
                      cls + ".total_ns");
    const std::string base = std::string("service.slo.") + cls;
    reg.gauge(base + ".p50_ns")  // metric-family: service.slo.*
        .set(static_cast<std::int64_t>(h.quantile_interpolated(0.50)));
    reg.gauge(base + ".p95_ns")  // metric-family: service.slo.*
        .set(static_cast<std::int64_t>(h.quantile_interpolated(0.95)));
    reg.gauge(base + ".p99_ns")  // metric-family: service.slo.*
        .set(static_cast<std::int64_t>(h.quantile_interpolated(0.99)));
  }
  const std::uint64_t accepted = reg.counter("service.accepted").value();
  const std::uint64_t missed = reg.counter("service.deadline_expired").value();
  reg.gauge("service.slo.deadline_miss_ppm")  // metric-family: service.slo.*
      .set(accepted > 0
               ? static_cast<std::int64_t>(missed * 1000000 / accepted)
               : 0);
  reg.counter("telemetry.flight.events").set(flight_.recorded());
  reg.counter("telemetry.flight.dropped").set(flight_.dropped());
  reg.counter("telemetry.flight.dumps")
      .set(flight_dumps_.load(std::memory_order_relaxed));
}

std::string GemmService::metrics_json() const {
  fold_runtime_metrics();
  return registry_.snapshot().dump();
}

obs::json::Value GemmService::telemetry_sample() const {
  registry_.counter("telemetry.snapshots").add();
  fold_runtime_metrics();
  return registry_.snapshot();
}

std::string GemmService::telemetry_prometheus() const {
  fold_runtime_metrics();
  return obs::telemetry::prometheus_text(registry_.snapshot());
}

std::string GemmService::telemetry_jsonl() const {
  return snapshotter_ ? snapshotter_->jsonl() : std::string();
}

obs::json::Value GemmService::inflight_table_locked() const {
  using obs::json::Value;
  const Clock::time_point now = Clock::now();
  Value rows = Value::array();
  for (const auto& [id, sp] : open_) {
    const Pending& p = *sp;
    Value row = Value::object();
    row.set("id", Value::number(id));
    row.set("trace", Value::number(p.trace));
    row.set("priority", Value::number(p.req.priority));
    // "finalizing": finalize() latched done but has not erased the row yet
    // (it records Finalize in that same later critical section).
    const char* state = p.done.load(std::memory_order_acquire) ? "finalizing"
                        : p.started.load(std::memory_order_acquire)
                            ? "running"
                            : "queued";
    row.set("state", Value::string(state));
    row.set("age_ns", Value::number(ns_between(p.submit_tp, now)));
    rows.push_back(std::move(row));
  }
  return rows;
}

std::string GemmService::status_json() const {
  using obs::json::Value;
  Value o = Value::object();
  o.set("workers", Value::number(pool_->thread_count()));
  o.set("executors", Value::number(cfg_.executors));
  o.set("max_inflight", Value::number(cfg_.max_inflight));
  {
    MutexLock lock(service_mutex_);
    o.set("in_flight", Value::number(inflight_));
    o.set("queue_depth", Value::number(queue_.size()));
    o.set("running", Value::number(running_.size()));
    o.set("requests", inflight_table_locked());
  }
  o.set("flight_recorded", Value::number(flight_.recorded()));
  o.set("flight_dropped", Value::number(flight_.dropped()));
  o.set("flight_dumps",
        Value::number(flight_dumps_.load(std::memory_order_relaxed)));
  o.set("snapshots",
        Value::number(snapshotter_ ? snapshotter_->samples()
                                   : std::uint64_t{0}));
  return o.dump();
}

bool GemmService::dump_bundle_locked(const char* path) const {
  const int fd = ::open(path, O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) return false;
  bool ok = flight_.dump_fd(fd);
  // The inflight table rides in the same file, captured in the same
  // service_mutex_ hold as the event dump above — that single hold is what
  // makes the bundle closed (soak_check.py --flight asserts it).
  using obs::json::Value;
  std::string tail;
  const Value rows = inflight_table_locked();
  for (const Value& row : rows.items()) {
    Value line = row;
    line.set("kind", Value::string("inflight"));
    tail += line.dump();
    tail += '\n';
  }
  Value footer = Value::object();
  footer.set("kind", Value::string("bundle_end"));
  footer.set("open", Value::number(open_.size()));
  footer.set("recorded", Value::number(flight_.recorded()));
  footer.set("dropped", Value::number(flight_.dropped()));
  tail += footer.dump();
  tail += '\n';
  const char* data = tail.data();
  std::size_t left = tail.size();
  while (left > 0) {
    const ssize_t w = ::write(fd, data, left);
    if (w < 0) {
      if (errno == EINTR) continue;
      ok = false;
      break;
    }
    data += w;
    left -= static_cast<std::size_t>(w);
  }
  ::close(fd);
  flight_dumps_.fetch_add(1, std::memory_order_relaxed);
  return ok;
}

bool GemmService::dump_flight_bundle(const std::string& path) const {
  MutexLock lock(service_mutex_);
  return dump_bundle_locked(path.c_str());
}

}  // namespace rla::service
