#pragma once

// Gemm-as-a-service: a long-lived engine that owns one WorkerPool and one
// BufferArena and serves many concurrent gemm requests.
//
// Everything this repo built call-by-call — the degradation ladder, fault
// injection, Freivalds verification, the metrics registry, cooperative
// cancellation — becomes service policy here:
//
//   submit() ──► admission ──► queue (priority, FIFO within) ──► executor
//                  │                                               │
//                  │ queue full            deadline/stall          │ gemm()
//                  ▼                       (watchdog)              ▼
//               Rejected ◄─── expiry ──────────┘               finalize
//                                                     Completed / Degraded /
//                                                     Cancelled / Failed
//
// Guarantees (the soak harness asserts these under chaos):
//  * Every accepted request terminates with exactly one Outcome — never
//    hangs, never leaks, even when gemm faults or the deadline fires
//    mid-flight.
//  * Deadlines are enforced cooperatively: the watchdog sets the request's
//    cancel flag, the recursion prunes, and the driver raises Cancelled at
//    its next checkpoint.
//  * Admission is priority-aware and memory-aware: when the arena cannot
//    cover a request's footprint_bytes the service takes the driver's own
//    ladder rungs (kLadder: fast->serial-lowmem, standard-inplace,
//    canonical-inplace; each cheaper in memory) before rejecting.
//  * Backpressure: at most max_inflight requests queued+running; beyond
//    that submit() completes immediately with Rejected{reason="queue-full"}.
//
// Telemetry (DESIGN.md §15): submit() mints a request-scoped trace id that
// follows the request through the pool into every task span, trace event and
// the returned profile; an always-on flight recorder keeps a bounded ring of
// lifecycle events (admit/queue/start/degrade/retry/deadline/stall/finalize)
// that the watchdog dumps as a post-mortem bundle when it detects a stall;
// and an optional snapshotter thread folds the whole metrics surface —
// including per-priority latency quantiles and deadline-miss-rate SLO
// gauges — into a retained time series, exported as JSONL or Prometheus
// text exposition.
//
// Environment knobs (all optional; constructor arguments win):
//   RLA_SERVICE_THREADS        worker threads in the shared pool
//   RLA_SERVICE_EXECUTORS      concurrent request executors
//   RLA_SERVICE_MAX_INFLIGHT   backpressure bound (queued + running)
//   RLA_SERVICE_ARENA_MB       arena byte budget in MiB (0 = unlimited)
//   RLA_SERVICE_WATCHDOG_MS    watchdog sweep period
//   RLA_TELEMETRY_PERIOD_MS    snapshotter sample period (0 = no snapshotter)
//   RLA_TELEMETRY_FLIGHT_DUMP  bundle path armed for the watchdog stall dump

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "core/gemm.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/telemetry/flight_recorder.hpp"
#include "obs/telemetry/snapshotter.hpp"
#include "parallel/worker_pool.hpp"
#include "service/arena.hpp"
#include "support/sync.hpp"

namespace rla::service {

/// How one request ended. Exactly one of these per accepted request.
enum class Outcome : std::uint8_t {
  Completed,  ///< ran the configured path cleanly
  Degraded,   ///< completed, but on a cheaper path (see degradation_trail)
  Rejected,   ///< never ran: queue full, arena broke, or shutdown
  Cancelled,  ///< deadline expired while queued or running
  Failed,     ///< every attempt (including retries) raised a non-cancel error
};

std::string_view outcome_name(Outcome o) noexcept;

/// One gemm request. Operand pointers must stay valid until the returned
/// future resolves.
struct Request {
  std::uint32_t m = 0, n = 0, k = 0;
  double alpha = 1.0;
  const double* a = nullptr;
  std::size_t lda = 0;
  Op op_a = Op::None;
  const double* b = nullptr;
  std::size_t ldb = 0;
  Op op_b = Op::None;
  double beta = 0.0;
  double* c = nullptr;
  std::size_t ldc = 0;

  /// Per-request gemm configuration. `pool`, `cancel`, `threads` and
  /// `priority` are owned by the service and overwritten at admission.
  GemmConfig cfg;

  /// Larger runs first among queued requests (FIFO within a priority).
  int priority = 0;

  /// Wall-clock budget from submit(); 0 = none. An expired request is
  /// finalized Cancelled — from the queue immediately, from a running
  /// executor via the cooperative cancel flag.
  std::chrono::microseconds deadline{0};

  /// Attempts after the first on a non-cancellation failure (each retry may
  /// first take one more ladder rung, and reseeds a request-scoped
  /// fault_spec from (seed, attempt)). 0 = fail fast.
  int retry_budget = 1;

  /// Permit the admission/retry ladder to rewrite the config onto cheaper
  /// paths. When false a request that does not fit is rejected instead.
  bool allow_degradation = true;
};

/// Terminal record of one request.
struct Response {
  Outcome outcome = Outcome::Rejected;
  std::string reason;          ///< human-readable detail for non-Completed
  GemmProfile profile;         ///< profile of the final (successful) attempt
  /// Service-level events prepended to the gemm trail, e.g.
  /// "service:degraded:arena:fast->serial-lowmem", "service:retry:1",
  /// "service:degraded:retry:standard-inplace", "service:deadline". The
  /// gemm driver's own trail follows.
  std::vector<std::string> degradation_trail;
  int attempts = 0;            ///< gemm() invocations made (0 = rejected)
  std::uint64_t id = 0;        ///< service-assigned sequence number
  /// Request-scoped trace id, minted at submit() entry so even a Rejected
  /// response carries one. The same id appears in profile.trace_id, in every
  /// Chrome trace event of the request's gemm, and in its flight-recorder
  /// events — the join key across all observability surfaces.
  std::uint64_t trace_id = 0;
  double queue_seconds = 0.0;  ///< submit -> executor pickup
  double run_seconds = 0.0;    ///< executor pickup -> terminal
};

struct ServiceConfig {
  unsigned threads = 0;        ///< 0 = hardware_concurrency - 1
  unsigned executors = 2;      ///< concurrent requests actually running
  std::size_t max_inflight = 64;   ///< queued + running bound (backpressure)
  std::size_t arena_bytes = 0;     ///< 0 = unlimited
  std::chrono::milliseconds watchdog_period{10};
  /// A running request this far past its deadline (factor of the deadline,
  /// minimum one watchdog period) is reported stuck: the watchdog records a
  /// service.stalls_detected tick. Cancellation remains cooperative — the
  /// flag is already set — so this is detection, not preemption.
  double stall_factor = 2.0;

  /// Snapshotter sample period; 0 (the default) runs no snapshotter thread.
  std::chrono::milliseconds telemetry_period{0};
  /// When non-empty, the watchdog dumps the flight-recorder bundle here the
  /// first time it detects a stall (and the count lands in
  /// telemetry.flight.dumps). Empty = stall detection only, no auto-dump.
  std::string flight_dump_path;

  /// Overlay RLA_SERVICE_* / RLA_TELEMETRY_* environment variables onto the
  /// defaults.
  static ServiceConfig from_env();
};

/// The engine. Thread-safe: submit from any number of threads.
class GemmService {
 public:
  explicit GemmService(ServiceConfig cfg = ServiceConfig::from_env());

  /// Drains: every accepted request runs to a terminal outcome (deadlined
  /// ones still get cancelled by the watchdog) before the pool is torn down.
  ~GemmService();

  GemmService(const GemmService&) = delete;
  GemmService& operator=(const GemmService&) = delete;

  /// Submit one request. Always returns a future that resolves — with
  /// Rejected when backpressure or shutdown refused it.
  std::future<Response> submit(const Request& req)
      RLA_EXCLUDES(service_mutex_);

  /// Submit a batch; element i's future is result[i]. Elements are admitted
  /// independently — one rejected or faulting element does not disturb the
  /// rest (the batch-fault test pins this down).
  std::vector<std::future<Response>> submit_batch(const std::vector<Request>& reqs);

  /// Finish everything in flight, refuse new work. Idempotent; the
  /// destructor calls it.
  void shutdown() RLA_EXCLUDES(shutdown_mutex_, service_mutex_);

  /// Export queue/latency/outcome/arena/scheduler metrics (obs::Registry
  /// JSON snapshot, same shape trace_summary.py and bench_compare read).
  /// Includes the SLO surface: per-priority-class latency quantiles
  /// (service.slo.<class>.p50_ns/p95_ns/p99_ns), the deadline-miss rate and
  /// the oldest queued request's age.
  std::string metrics_json() const RLA_EXCLUDES(service_mutex_);

  /// The same metrics surface as metrics_json(), rendered as Prometheus
  /// text exposition (version 0.0.4) for scrape-style consumers.
  std::string telemetry_prometheus() const RLA_EXCLUDES(service_mutex_);

  /// The snapshotter's retained time series as JSONL (oldest first); empty
  /// string when no snapshotter is running (telemetry_period == 0).
  std::string telemetry_jsonl() const RLA_EXCLUDES(service_mutex_);

  /// Live introspection document: config, queue/running counts, and the
  /// inflight-request table (id, trace, priority, state, age). This is what
  /// the --serve SIGUSR1 status dump and the telemetry socket serve.
  std::string status_json() const RLA_EXCLUDES(service_mutex_);

  /// Write the post-mortem bundle (flight-recorder JSONL + inflight table +
  /// footer) to `path`. The events and the table are captured under one
  /// service_mutex_ hold, so the bundle is closed: every request with
  /// events but no finalize event appears in the inflight table. Returns
  /// false on I/O failure. The watchdog calls this on first stall when
  /// cfg.flight_dump_path is set; tests and operators may call it any time.
  bool dump_flight_bundle(const std::string& path) const
      RLA_EXCLUDES(service_mutex_);

  /// The always-on lifecycle event ring (for tests and external dumpers —
  /// e.g. wiring into install_fatal_dump).
  obs::telemetry::FlightRecorder& flight() const noexcept { return flight_; }

  std::size_t in_flight() const noexcept
      RLA_EXCLUDES(service_mutex_);  ///< queued + running now
  WorkerPool& pool() noexcept { return *pool_; }
  BufferArena& arena() noexcept { return arena_; }
  const ServiceConfig& config() const noexcept { return cfg_; }

 private:
  struct Pending;  // shared between queue, executor, watchdog, and future

  void executor_main() RLA_EXCLUDES(service_mutex_);
  void watchdog_main() RLA_EXCLUDES(service_mutex_);
  /// Blocks; null = stop.
  std::shared_ptr<Pending> dequeue() RLA_EXCLUDES(service_mutex_);
  void run_request(const std::shared_ptr<Pending>& p)
      RLA_EXCLUDES(service_mutex_);
  void finalize(const std::shared_ptr<Pending>& p, Outcome outcome,
                std::string reason, GemmProfile profile)
      RLA_EXCLUDES(service_mutex_);
  /// Fold every point-in-time surface (queue gauges, arena, scheduler
  /// totals, SLO quantiles, telemetry counters) into registry_.
  void fold_runtime_metrics() const RLA_EXCLUDES(service_mutex_);
  /// One snapshotter sample: fold + registry snapshot.
  obs::json::Value telemetry_sample() const RLA_EXCLUDES(service_mutex_);
  /// Inflight table rows from open_ (id/trace/priority/state/age_ns).
  obs::json::Value inflight_table_locked() const RLA_REQUIRES(service_mutex_);
  bool dump_bundle_locked(const char* path) const RLA_REQUIRES(service_mutex_);

  ServiceConfig cfg_;
  std::unique_ptr<WorkerPool> pool_;
  BufferArena arena_;
  /// mutable: metrics_json() folds point-in-time gauges in before snapshot.
  mutable obs::Registry registry_;
  /// Always-on lifecycle ring; mutable because const introspection paths
  /// (dump_flight_bundle) read it and record() is the writers' concern.
  mutable obs::telemetry::FlightRecorder flight_;
  /// Bundle dumps performed (watchdog auto-dump + explicit calls).
  mutable std::atomic<std::uint64_t> flight_dumps_{0};
  /// Serializes shutdown() callers. Ranked above service_mutex_: shutdown()
  /// nests the service lock inside it, never the reverse.
  Mutex shutdown_mutex_;  // lock-level: lifecycle

  mutable Mutex service_mutex_;  // lock-level: service
  CondVar work_cv_;  ///< executors: work queued / stopping
  /// The watchdog sleeps on its own CV: if it shared work_cv_, submit()'s
  /// notify_one could wake the watchdog instead of an executor, leaving a
  /// deadline-less request queued until the next periodic sweep.
  CondVar watchdog_cv_;
  /// Priority-ordered pending requests.
  std::deque<std::shared_ptr<Pending>> queue_ RLA_GUARDED_BY(service_mutex_);
  /// The watchdog's view of executing requests.
  std::vector<std::shared_ptr<Pending>> running_ RLA_GUARDED_BY(service_mutex_);
  /// Every admitted-but-not-finalized request, keyed by id. Inserted in the
  /// same lock hold that records the Admit flight event, erased in the one
  /// that records Finalize — so a bundle dump (also one lock hold) always
  /// sees a closed set: open flight requests ⊆ this table. Unlike queue_ and
  /// running_, membership here is exact across the watchdog's erase-then-
  /// finalize window.
  std::unordered_map<std::uint64_t, std::shared_ptr<Pending>> open_
      RLA_GUARDED_BY(service_mutex_);
  bool stopping_ RLA_GUARDED_BY(service_mutex_) = false;
  /// The watchdog's stall auto-dump fires once per service lifetime (the
  /// first bundle captures the interesting state; later stalls still record
  /// Stall events and operators can dump_flight_bundle() at will).
  mutable bool stall_dumped_ RLA_GUARDED_BY(service_mutex_) = false;
  /// queued + running (admission counter).
  std::size_t inflight_ RLA_GUARDED_BY(service_mutex_) = 0;
  std::uint64_t next_id_ RLA_GUARDED_BY(service_mutex_) = 1;

  std::vector<std::thread> executors_ RLA_GUARDED_BY(shutdown_mutex_);
  std::thread watchdog_ RLA_GUARDED_BY(shutdown_mutex_);
  /// Optional sampling thread (cfg.telemetry_period > 0). Constructed last
  /// and stopped by shutdown() after the drain, so its sampler — which
  /// reads pool_/arena_/service state — never outlives them.
  std::unique_ptr<obs::telemetry::Snapshotter> snapshotter_;
};

}  // namespace rla::service
