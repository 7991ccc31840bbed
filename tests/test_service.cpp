// Tests of the gemm service layer: admission, backpressure, priorities,
// deadlines, batch isolation, the buffer arena, and shutdown semantics.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <string>
#include <vector>

#include "core/rla.hpp"
#include "robust/fault.hpp"
#include "service/arena.hpp"
#include "service/service.hpp"
#include "test_common.hpp"

namespace rla::service {
namespace {

using rla::testing::random_matrix;
using namespace std::chrono_literals;

/// Operands plus the service request pointing at them (the request API keeps
/// caller ownership of the matrices, so tests bundle them).
struct Job {
  Matrix a, b, c, c_ref;
  Request req;

  Job(std::uint32_t m, std::uint32_t n, std::uint32_t k, std::uint64_t seed)
      : a(random_matrix(m, k, seed)),
        b(random_matrix(k, n, seed + 1)),
        c(m, n),
        c_ref(m, n) {
    c.zero();
    c_ref.zero();
    req.m = m;
    req.n = n;
    req.k = k;
    req.a = a.data();
    req.lda = a.ld();
    req.b = b.data();
    req.ldb = b.ld();
    req.c = c.data();
    req.ldc = c.ld();
  }

  double error() {
    reference_gemm(req.m, req.n, req.k, 1.0, a.data(), a.ld(), false, b.data(),
                   b.ld(), false, 0.0, c_ref.data(), c_ref.ld());
    return max_abs_diff(c.view(), c_ref.view());
  }
};

bool trail_contains(const Response& r, std::string_view needle) {
  for (const std::string& step : r.degradation_trail) {
    if (step.find(needle) != std::string::npos) return true;
  }
  return false;
}

ServiceConfig small_config() {
  ServiceConfig cfg;
  cfg.threads = 2;
  cfg.executors = 2;
  cfg.max_inflight = 64;
  cfg.watchdog_period = 5ms;
  return cfg;
}

// ---------------------------------------------------------------------------
// Happy path.

TEST(Service, SingleRequestCompletesCorrectly) {
  GemmService service(small_config());
  Job job(64, 64, 64, 1);
  Response r = service.submit(job.req).get();
  EXPECT_EQ(r.outcome, Outcome::Completed) << r.reason;
  EXPECT_EQ(r.attempts, 1);
  EXPECT_GT(r.id, 0u);
  EXPECT_GE(r.queue_seconds, 0.0);
  EXPECT_GT(r.run_seconds, 0.0);
  EXPECT_LT(job.error(), 1e-9);
}

TEST(Service, ConcurrentMixedRequestsAllCorrect) {
  GemmService service(small_config());
  std::vector<std::unique_ptr<Job>> jobs;
  std::vector<std::future<Response>> futures;
  const std::uint32_t sizes[] = {16, 48, 64, 96, 33, 80, 17, 128};
  for (int i = 0; i < 16; ++i) {
    auto job = std::make_unique<Job>(sizes[i % 8], sizes[(i + 3) % 8],
                                     sizes[(i + 5) % 8], 100 + i);
    job->req.priority = i % 3;
    futures.push_back(service.submit(job->req));
    jobs.push_back(std::move(job));
  }
  for (std::size_t i = 0; i < futures.size(); ++i) {
    Response r = futures[i].get();
    EXPECT_EQ(r.outcome, Outcome::Completed) << i << ": " << r.reason;
    EXPECT_LT(jobs[i]->error(), 1e-8) << i;
  }
}

TEST(Service, BatchSubmissionResolvesEveryElement) {
  GemmService service(small_config());
  std::vector<std::unique_ptr<Job>> jobs;
  std::vector<Request> reqs;
  for (int i = 0; i < 6; ++i) {
    jobs.push_back(std::make_unique<Job>(48, 48, 48, 200 + i));
    reqs.push_back(jobs.back()->req);
  }
  auto futures = service.submit_batch(reqs);
  ASSERT_EQ(futures.size(), reqs.size());
  for (std::size_t i = 0; i < futures.size(); ++i) {
    EXPECT_EQ(futures[i].get().outcome, Outcome::Completed);
    EXPECT_LT(jobs[i]->error(), 1e-9);
  }
}

// ---------------------------------------------------------------------------
// Satellite: a faulting batch element must not disturb its siblings.

TEST(Service, BatchWithOneFaultingElementCompletesRest) {
  GemmService service(small_config());
  std::vector<std::unique_ptr<Job>> jobs;
  std::vector<Request> reqs;
  for (int i = 0; i < 5; ++i) {
    jobs.push_back(std::make_unique<Job>(64, 64, 64, 300 + i));
    reqs.push_back(jobs.back()->req);
  }
  reqs[2].lda = 1;  // < m: gemm rejects the arguments, attempt cannot succeed
  auto futures = service.submit_batch(reqs);
  for (std::size_t i = 0; i < futures.size(); ++i) {
    Response r = futures[i].get();
    if (i == 2) {
      EXPECT_EQ(r.outcome, Outcome::Failed);
      EXPECT_NE(r.reason.find("lda"), std::string::npos);
      EXPECT_EQ(r.attempts, 1);  // bad arguments fail fast, no retry burn
    } else {
      EXPECT_EQ(r.outcome, Outcome::Completed) << i << ": " << r.reason;
      EXPECT_LT(jobs[i]->error(), 1e-9) << i;
    }
  }
}

// ---------------------------------------------------------------------------
// Deadlines and cancellation.

TEST(Service, ImpossibleDeadlineIsCancelledPromptly) {
  ServiceConfig cfg = small_config();
  GemmService service(cfg);
  Job job(512, 512, 512, 7);
  job.req.deadline = 1ms;  // a 512^3 multiply cannot finish in 1 ms
  const auto t0 = std::chrono::steady_clock::now();
  Response r = service.submit(job.req).get();
  const auto elapsed = std::chrono::steady_clock::now() - t0;
  EXPECT_EQ(r.outcome, Outcome::Cancelled) << r.reason;
  EXPECT_TRUE(trail_contains(r, "service:deadline"));
  // Cooperative cancellation plus one watchdog sweep, with CI slack; far
  // below the full multiply's runtime.
  EXPECT_LT(elapsed, 2s);
}

TEST(Service, DeadlineExpiryRacingNormalCompletionResolvesEitherWay) {
  // Satellite test: deadlines near the actual runtime race completion. Any
  // single request may land Completed OR Cancelled — both are valid — but
  // every future must resolve, outcomes must be terminal, and a cancelled
  // request must not have burned time past its budget unbounded.
  GemmService service(small_config());
  // Calibrate: one clean run of the shape.
  Job probe(160, 160, 160, 40);
  Response cal = service.submit(probe.req).get();
  ASSERT_EQ(cal.outcome, Outcome::Completed);
  const auto runtime =
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::duration<double>(std::max(cal.run_seconds, 1e-4)));

  std::vector<std::unique_ptr<Job>> jobs;
  std::vector<std::future<Response>> futures;
  for (int i = 0; i < 12; ++i) {
    auto job = std::make_unique<Job>(160, 160, 160, 500 + i);
    // Sweep deadlines through the completion window: some multiples of the
    // calibrated runtime land before it, some after.
    job->req.deadline = runtime * (i + 1) / 6;
    futures.push_back(service.submit(job->req));
    jobs.push_back(std::move(job));
  }
  int completed = 0, cancelled = 0;
  for (std::size_t i = 0; i < futures.size(); ++i) {
    Response r = futures[i].get();  // must resolve: no hung requests
    if (r.outcome == Outcome::Cancelled) {
      ++cancelled;
      EXPECT_TRUE(trail_contains(r, "service:deadline"));
    } else {
      ASSERT_EQ(r.outcome, Outcome::Completed) << i << ": " << r.reason;
      ++completed;
      EXPECT_LT(jobs[i]->error(), 1e-8);
    }
  }
  EXPECT_EQ(completed + cancelled, 12);
}

TEST(Service, QueuedRequestPastDeadlineNeverRuns) {
  // One executor, occupied by an injected 200 ms stall; a queued request
  // with a 10 ms deadline must be finalized by the watchdog from the queue,
  // long before the executor frees up.
  ServiceConfig cfg = small_config();
  cfg.executors = 1;
  GemmService service(cfg);
  fault::ScopedPlan stall("service.stall:nth=1");

  Job blocker(32, 32, 32, 1);
  auto blocker_future = service.submit(blocker.req);
  std::this_thread::sleep_for(20ms);  // let the executor enter the stall

  Job urgent(32, 32, 32, 2);
  urgent.req.deadline = 10ms;
  const auto t0 = std::chrono::steady_clock::now();
  Response r = service.submit(urgent.req).get();
  const auto elapsed = std::chrono::steady_clock::now() - t0;
  EXPECT_EQ(r.outcome, Outcome::Cancelled);
  EXPECT_EQ(r.attempts, 0);  // never picked up
  EXPECT_EQ(r.run_seconds, 0.0);
  EXPECT_LT(elapsed, 150ms);  // watchdog acted while the executor was dark
  const Response blocked = blocker_future.get();
  EXPECT_TRUE(blocked.outcome == Outcome::Completed ||
              blocked.outcome == Outcome::Degraded);
}

TEST(Service, SubmitWakeupReachesExecutorOnQuietService) {
  // Regression: the watchdog used to sleep on work_cv_ with a predicate-less
  // wait_for, so submit()'s notify_one could be consumed by the watchdog
  // instead of an executor and a deadline-less request would sit queued
  // indefinitely on a quiet service. With the watchdog period far longer
  // than the test, only a genuine executor wakeup can finish these in time.
  ServiceConfig cfg = small_config();
  cfg.executors = 1;
  cfg.watchdog_period = std::chrono::milliseconds(60'000);
  GemmService service(cfg);
  for (int i = 0; i < 20; ++i) {
    Job job(16, 16, 16, 1000 + i);
    auto f = service.submit(job.req);
    ASSERT_EQ(f.wait_for(5s), std::future_status::ready) << "request " << i;
    EXPECT_EQ(f.get().outcome, Outcome::Completed);
  }
}

// ---------------------------------------------------------------------------
// Priorities.

TEST(Service, HigherPriorityOvertakesQueueBacklog) {
  ServiceConfig cfg = small_config();
  cfg.executors = 1;  // serialize execution so queue order is completion order
  GemmService service(cfg);
  fault::ScopedPlan stall("service.stall:nth=1");

  Job blocker(32, 32, 32, 1);
  auto blocker_future = service.submit(blocker.req);
  std::this_thread::sleep_for(20ms);  // executor now dark in the stall

  Job low(96, 96, 96, 2), high(96, 96, 96, 3);
  low.req.priority = 0;
  high.req.priority = 5;
  auto low_future = service.submit(low.req);      // submitted FIRST
  auto high_future = service.submit(high.req);    // must overtake
  Response rl = low_future.get();
  Response rh = high_future.get();
  blocker_future.get();
  ASSERT_EQ(rl.outcome, Outcome::Completed);
  ASSERT_EQ(rh.outcome, Outcome::Completed);
  // Single executor: whichever ran first spent less time queued. High was
  // submitted after low, so overtaking shows as strictly less queue time.
  EXPECT_LT(rh.queue_seconds, rl.queue_seconds);
}

// ---------------------------------------------------------------------------
// Backpressure and admission control.

TEST(Service, BackpressureRejectsBeyondMaxInflight) {
  ServiceConfig cfg = small_config();
  cfg.executors = 1;
  cfg.max_inflight = 2;
  GemmService service(cfg);
  fault::ScopedPlan stall("service.stall:nth=1");

  std::vector<std::unique_ptr<Job>> jobs;
  std::vector<std::future<Response>> futures;
  for (int i = 0; i < 6; ++i) {
    jobs.push_back(std::make_unique<Job>(32, 32, 32, 700 + i));
    futures.push_back(service.submit(jobs.back()->req));
  }
  int rejected = 0;
  for (auto& f : futures) {
    Response r = f.get();
    if (r.outcome == Outcome::Rejected) {
      ++rejected;
      EXPECT_EQ(r.reason, "queue-full");
      EXPECT_EQ(r.attempts, 0);
    }
  }
  // 2 slots (1 stalled-running + 1 queued); at least the last 4 submits
  // bounced. Slots may free mid-loop, so assert the bound, not equality.
  EXPECT_GE(rejected, 3);
}

TEST(Service, ArenaPressureDegradesAdmission) {
  ServiceConfig cfg = small_config();
  cfg.arena_bytes = 64 << 10;  // far below the tiled footprint of 128^3
  GemmService service(cfg);
  Job job(128, 128, 128, 9);
  Response r = service.submit(job.req).get();
  EXPECT_EQ(r.outcome, Outcome::Degraded) << r.reason;
  EXPECT_TRUE(trail_contains(r, "service:degraded:arena"));
  EXPECT_LT(job.error(), 1e-9);  // degraded, still correct
}

TEST(Service, ArenaChargesCanonicalStandardTemporaries) {
  // ColMajor Standard runs on the caller's arrays, but its Temporaries
  // variant holds quadrant temporaries at every node: only InPlace is free.
  ServiceConfig cfg = small_config();
  cfg.arena_bytes = 64 << 10;  // below the temporaries of 128^2
  GemmService service(cfg);
  Job job(128, 128, 128, 34);
  job.req.cfg.layout = Curve::ColMajor;
  Response r = service.submit(job.req).get();
  EXPECT_EQ(r.outcome, Outcome::Degraded) << r.reason;
  EXPECT_TRUE(trail_contains(r, "service:degraded:arena:standard-inplace"));
  EXPECT_LT(job.error(), 1e-9);
}

TEST(Service, ArenaChargesTiledFastTemporaries) {
  // Z-Morton 128³ on two workers. Strassen Parallel holds seventeen quadrant
  // temporaries per node on each of three threads' chains; SerialLowMem
  // holds three per level on one chain; Standard InPlace holds none. A 1 MiB
  // budget lies between the two Strassen footprints and above InPlace's.
  constexpr std::size_t kBudget = std::size_t{1} << 20;
  ServiceConfig cfg = small_config();
  cfg.arena_bytes = kBudget;
  GemmService service(cfg);
  const unsigned workers = service.pool().thread_count();
  GemmConfig strassen;
  strassen.algorithm = Algorithm::Strassen;
  GemmConfig lowmem = strassen;
  lowmem.fast_variant = FastVariant::SerialLowMem;
  GemmConfig inplace;
  inplace.standard_variant = StandardVariant::InPlace;
  EXPECT_GT(footprint_bytes(128, 128, 128, strassen, workers), kBudget);
  EXPECT_LT(footprint_bytes(128, 128, 128, lowmem, workers), kBudget);
  EXPECT_LT(footprint_bytes(128, 128, 128, inplace, workers), kBudget);

  Job fast(128, 128, 128, 35);
  fast.req.cfg = strassen;
  Response r = service.submit(fast.req).get();
  EXPECT_EQ(r.outcome, Outcome::Degraded) << r.reason;
  std::vector<std::string> service_steps;
  for (const std::string& step : r.degradation_trail) {
    if (step.rfind("service:", 0) == 0) service_steps.push_back(step);
  }
  EXPECT_EQ(service_steps,
            std::vector<std::string>{"service:degraded:arena:fast->serial-lowmem"});
  EXPECT_LT(fast.error(), 1e-9);

  Job standard(128, 128, 128, 36);
  standard.req.cfg = inplace;
  Response s = service.submit(standard.req).get();
  EXPECT_EQ(s.outcome, Outcome::Completed) << s.reason;
  EXPECT_LT(standard.error(), 1e-9);
}

TEST(Service, DriverAndServiceWalkTheSameRungs) {
  // From one starting config, the driver's allocation ladder and the
  // service's admission ladder take the same rungs in the same order.
  GemmConfig start;
  start.algorithm = Algorithm::Strassen;

  Job driven(64, 64, 64, 37);
  GemmConfig faulty = start;
  faulty.fault_spec = "alloc.tiled:p=1";
  GemmProfile profile;
  gemm(64, 64, 64, 1.0, driven.a.data(), driven.a.ld(), Op::None, driven.b.data(),
       driven.b.ld(), Op::None, 0.0, driven.c.data(), driven.c.ld(), faulty, &profile);
  EXPECT_LT(driven.error(), 1e-9);
  std::vector<std::string> driver_rungs;
  for (const std::string& step : profile.degradation_trail) {
    if (step.rfind("alloc:", 0) == 0) driver_rungs.push_back(step.substr(6));
  }

  ServiceConfig cfg = small_config();
  cfg.arena_bytes = 1;  // only an allocation-free config fits
  GemmService service(cfg);
  Job served(64, 64, 64, 38);
  served.req.cfg = start;
  Response r = service.submit(served.req).get();
  EXPECT_EQ(r.outcome, Outcome::Degraded) << r.reason;
  EXPECT_LT(served.error(), 1e-9);
  const std::string prefix = "service:degraded:arena:";
  std::vector<std::string> service_rungs;
  for (const std::string& step : r.degradation_trail) {
    if (step.rfind(prefix, 0) == 0) service_rungs.push_back(step.substr(prefix.size()));
  }

  EXPECT_EQ(driver_rungs, (std::vector<std::string>{"fast->serial-lowmem",
                                                     "standard-inplace",
                                                     "canonical-inplace"}));
  EXPECT_EQ(service_rungs, driver_rungs);
}

TEST(Service, FootprintBoundsPeakScratchBytes) {
  // The conversion buffers gemm() draws through acquire_scratch, metered by
  // the hooks: their peak outstanding bytes stay within footprint_bytes on
  // an unsplit shape, a split shape and the LU trailing update's shape.
  struct Shape {
    std::uint32_t m, n, k;
    bool split;
  };
  for (const Shape& shape : {Shape{256, 256, 256, false}, Shape{512, 96, 64, true},
                             Shape{2048, 2048, 64, true}}) {
    for (const unsigned threads : {1u, 4u}) {
      SCOPED_TRACE(::testing::Message() << shape.m << "x" << shape.n << "x" << shape.k
                                      << " threads=" << threads);
      std::atomic<std::size_t> live{0}, peak{0};
      GemmConfig cfg;
      cfg.threads = threads;
      cfg.acquire_scratch = [&](std::size_t count) {
        const std::size_t now = live += count * sizeof(double);
        std::size_t seen = peak.load();
        while (seen < now && !peak.compare_exchange_weak(seen, now)) {
        }
        return AlignedBuffer<double>(count);
      };
      cfg.release_scratch = [&](AlignedBuffer<double>&& buf) {
        live -= buf.size() * sizeof(double);
      };
      const Matrix a = random_matrix(shape.m, shape.k, 39);
      const Matrix b = random_matrix(shape.k, shape.n, 40);
      Matrix c = random_matrix(shape.m, shape.n, 41);
      GemmProfile profile;
      gemm(shape.m, shape.n, shape.k, 1.0, a.data(), a.ld(), Op::None, b.data(),
           b.ld(), Op::None, 1.0, c.data(), c.ld(), cfg, &profile);
      EXPECT_EQ(profile.splits > 0, shape.split);
      EXPECT_EQ(live.load(), 0u);
      EXPECT_GT(peak.load(), 0u);
      EXPECT_LE(peak.load(), footprint_bytes(shape.m, shape.n, shape.k, cfg,
                                             threads <= 1 ? 0 : threads));
    }
  }
}

TEST(Service, ArenaPressureRejectsWhenDegradationForbidden) {
  ServiceConfig cfg = small_config();
  cfg.arena_bytes = 64 << 10;
  GemmService service(cfg);
  Job job(128, 128, 128, 10);
  job.req.allow_degradation = false;
  Response r = service.submit(job.req).get();
  EXPECT_EQ(r.outcome, Outcome::Rejected);
  EXPECT_EQ(r.reason, "arena-budget");
}

TEST(Service, ArenaRecyclesBuffersAcrossRequests) {
  GemmService service(small_config());
  for (int i = 0; i < 8; ++i) {
    Job job(64, 64, 64, 800 + i);
    ASSERT_EQ(service.submit(job.req).get().outcome, Outcome::Completed);
  }
  // Same shape 8 times: after the first request warmed the free lists, the
  // conversion buffers must come from the arena, not malloc.
  EXPECT_GT(service.arena().recycled(), 0u);
  EXPECT_LT(service.arena().allocations(), 3u * 8u);
}

// ---------------------------------------------------------------------------
// Retries.

TEST(Service, TransientFaultIsRetriedToCompletion) {
  GemmService service(small_config());
  // Process-global plan (not per-request fault_spec, which would re-arm and
  // re-fire on every attempt): the hit counter persists across attempts, so
  // nth=1 models a genuinely transient fault — first attempt dies, retry is
  // clean.
  fault::ScopedPlan transient("task.throw:nth=1");
  Job job(64, 64, 64, 11);
  job.req.retry_budget = 2;
  // Degradation rewrites would dodge the fault instead of exercising the
  // retry path; pin the config.
  job.req.allow_degradation = false;
  Response r = service.submit(job.req).get();
  EXPECT_EQ(r.outcome, Outcome::Degraded) << r.reason;  // retry is an event
  EXPECT_GE(r.attempts, 2);
  EXPECT_TRUE(trail_contains(r, "service:retry"));
  EXPECT_LT(job.error(), 1e-9);
}

TEST(Service, RetryNeverRunsOverAPartlyWrittenC) {
  // ColMajor Standard writes C in place. The process-global plan fails one
  // recursion node of the first attempt, after C was scaled by β and partly
  // accumulated. With β ≠ 0 the request must fail instead of retrying on
  // that C; with β = 0 the retry overwrites C and completes exactly.
  for (const double beta : {1.0, 0.0}) {
    SCOPED_TRACE(beta);
    GemmService service(small_config());
    fault::ScopedPlan transient("task.throw:nth=3");
    Job job(96, 96, 96, 31);
    job.c = random_matrix(96, 96, 33);
    Matrix c_ref = job.c;
    job.req.c = job.c.data();
    job.req.beta = beta;
    job.req.cfg.layout = Curve::ColMajor;
    job.req.retry_budget = 2;
    job.req.allow_degradation = false;
    Response r = service.submit(job.req).get();
    if (beta != 0.0) {
      EXPECT_EQ(r.outcome, Outcome::Failed) << r.reason;
      EXPECT_EQ(r.attempts, 1);
      EXPECT_TRUE(trail_contains(r, kTrailCWritten));
      EXPECT_FALSE(trail_contains(r, "service:retry"));
      continue;
    }
    EXPECT_EQ(r.outcome, Outcome::Degraded) << r.reason;
    EXPECT_EQ(r.attempts, 2);
    reference_gemm(96, 96, 96, 1.0, job.a.data(), job.a.ld(), false, job.b.data(),
                   job.b.ld(), false, beta, c_ref.data(), c_ref.ld());
    EXPECT_LT(max_abs_diff(job.c.view(), c_ref.view()), 1e-10);
  }
}

TEST(Service, ExhaustedRetriesFail) {
  GemmService service(small_config());
  Job job(64, 64, 64, 12);
  job.req.cfg.fault_spec = "task.throw:p=1";  // every attempt fails
  job.req.retry_budget = 1;
  job.req.allow_degradation = false;
  Response r = service.submit(job.req).get();
  EXPECT_EQ(r.outcome, Outcome::Failed);
  EXPECT_EQ(r.attempts, 2);
  EXPECT_FALSE(r.reason.empty());
}

TEST(Service, RetriesReseedRequestScopedFaults) {
  // A request-scoped fault plan re-arms on every attempt. Reseeded from
  // (seed, attempt), a retry faces fresh faults, so some requests that fail
  // their first attempt complete on a later one; a replayed seed would fail
  // every attempt the same way.
  ServiceConfig cfg = small_config();
  cfg.executors = 1;
  GemmService service(cfg);
  std::vector<std::unique_ptr<Job>> jobs;
  std::vector<std::future<Response>> futures;
  for (int i = 0; i < 40; ++i) {
    jobs.push_back(std::make_unique<Job>(64, 64, 64, 900 + i));
    Request& req = jobs.back()->req;
    req.cfg.fault_spec = "task.throw:p=0.01;seed=" + std::to_string(i);
    req.retry_budget = 2;
    req.allow_degradation = false;
    futures.push_back(service.submit(req));
  }
  int completed_on_retry = 0;
  for (std::size_t i = 0; i < futures.size(); ++i) {
    const Response r = futures[i].get();
    if (r.outcome == Outcome::Failed) continue;
    EXPECT_LT(jobs[i]->error(), 1e-9) << i;
    if (r.attempts >= 2) ++completed_on_retry;
  }
  EXPECT_GE(completed_on_retry, 1);
}

TEST(Service, MalformedFaultSpecFailsFastWithoutRetries) {
  // A config parse error is deterministic: retrying (or degrading) cannot
  // make it succeed, so it must fail on the first attempt like bad args.
  GemmService service(small_config());
  Job job(64, 64, 64, 22);
  job.req.cfg.fault_spec = "bogus.site:nth=1";  // rla-lint: bad-site-ok
  job.req.retry_budget = 3;
  Response r = service.submit(job.req).get();
  EXPECT_EQ(r.outcome, Outcome::Failed);
  EXPECT_EQ(r.attempts, 1);
  EXPECT_FALSE(trail_contains(r, "service:retry"));
  EXPECT_NE(r.reason.find("fault"), std::string::npos) << r.reason;
}

TEST(Service, InjectedStallAloneIsNotDegraded) {
  // An absorbed stall followed by a clean run on the original config is a
  // Completed outcome: only config rewrites and retries count as Degraded,
  // even though the stall leaves an informational trail entry.
  GemmService service(small_config());
  fault::ScopedPlan stall("service.stall:nth=1");
  Job job(32, 32, 32, 23);
  Response r = service.submit(job.req).get();
  EXPECT_EQ(r.outcome, Outcome::Completed) << r.reason;
  EXPECT_TRUE(trail_contains(r, "service:stall-injected"));
}

// ---------------------------------------------------------------------------
// Shutdown.

TEST(Service, ShutdownDrainsAndRefusesNewWork) {
  auto service = std::make_unique<GemmService>(small_config());
  Job before(64, 64, 64, 13);
  auto f = service->submit(before.req);
  service->shutdown();
  EXPECT_EQ(f.get().outcome, Outcome::Completed);  // accepted work finished

  Job after(32, 32, 32, 14);
  Response r = service->submit(after.req).get();
  EXPECT_EQ(r.outcome, Outcome::Rejected);
  EXPECT_EQ(r.reason, "shutdown");
  service.reset();  // double-shutdown via destructor must be a no-op
}

TEST(Service, DestructorFinalizesQueuedRequests) {
  std::vector<std::future<Response>> futures;
  std::vector<std::unique_ptr<Job>> jobs;
  {
    ServiceConfig cfg = small_config();
    cfg.executors = 1;
    GemmService service(cfg);
    fault::ScopedPlan stall("service.stall:nth=1");
    for (int i = 0; i < 4; ++i) {
      jobs.push_back(std::make_unique<Job>(32, 32, 32, 900 + i));
      futures.push_back(service.submit(jobs.back()->req));
    }
    // Destruction drains: whatever the stalled executor already picked up
    // completes once the bounded stall ends, and the queued rest run after.
  }
  int terminal = 0;
  for (auto& f : futures) {
    ASSERT_EQ(f.wait_for(0s), std::future_status::ready);  // nothing leaked
    Response r = f.get();
    EXPECT_TRUE(r.outcome == Outcome::Completed || r.outcome == Outcome::Degraded ||
                r.outcome == Outcome::Cancelled)
        << outcome_name(r.outcome);
    ++terminal;
  }
  EXPECT_EQ(terminal, 4);
}

TEST(Service, ShutdownPromptDespiteLongWatchdogPeriod) {
  // Regression: the watchdog used to nap in a predicate-less wait_for, so a
  // shutdown() that raced the start of a nap could miss the wakeup and sit
  // out a full period before noticing stopping_. With the predicate wait
  // (stopping_ && inflight_ == 0, re-checked under service_mutex_), the
  // drain must return promptly even when the period dwarfs the test.
  ServiceConfig cfg = small_config();
  cfg.watchdog_period = std::chrono::milliseconds(60'000);
  GemmService service(cfg);
  Job job(32, 32, 32, 21);
  ASSERT_EQ(service.submit(job.req).get().outcome, Outcome::Completed);
  const auto t0 = std::chrono::steady_clock::now();
  service.shutdown();
  EXPECT_LT(std::chrono::steady_clock::now() - t0, 5s);
}

TEST(Service, RunTimingsConsistentUnderDeadlineRaces) {
  // Regression: Pending::started was a plain bool written by the executor
  // after run_tp and read by the watchdog's finalize — a data race in which
  // finalize could observe started == true while run_tp was still the
  // epoch, turning run_seconds into a garbage machine-uptime-sized value.
  // The release store / acquire load now publishes (started, run_tp)
  // indivisibly; hammer deadline/execution races and assert every timing
  // stays sane. (attempts == 0 with a tiny run_seconds is legitimate: an
  // executor may pick a request up and find the deadline already gone.)
  ServiceConfig cfg = small_config();
  cfg.watchdog_period = 1ms;
  GemmService service(cfg);
  std::vector<std::unique_ptr<Job>> jobs;
  std::vector<std::future<Response>> futures;
  for (int i = 0; i < 48; ++i) {
    jobs.push_back(std::make_unique<Job>(24, 24, 24, 2000 + i));
    // Mix of no deadline, unmeetable, and race-window deadlines.
    jobs.back()->req.deadline = std::chrono::microseconds((i % 4) * 300);
    futures.push_back(service.submit(jobs.back()->req));
  }
  for (auto& f : futures) {
    const Response r = f.get();
    EXPECT_GE(r.queue_seconds, 0.0);
    EXPECT_GE(r.run_seconds, 0.0);
    // An epoch-based run_tp read through the old race would report the
    // host's uptime here; any honest value is bounded by the test itself.
    EXPECT_LT(r.queue_seconds, 60.0) << outcome_name(r.outcome);
    EXPECT_LT(r.run_seconds, 60.0) << outcome_name(r.outcome);
  }
}

// ---------------------------------------------------------------------------
// Metrics export (satellite: service SLO surface incl. scheduler stats).

TEST(Service, MetricsJsonCarriesServiceArenaAndSchedulerSeries) {
  GemmService service(small_config());
  Job job(64, 64, 64, 15);
  ASSERT_EQ(service.submit(job.req).get().outcome, Outcome::Completed);
  const std::string json = service.metrics_json();
  for (const char* key :
       {"service.submitted", "service.accepted", "service.outcome.completed",
        "service.queue_ns", "service.run_ns", "service.total_ns",
        "service.in_flight", "service.queue_depth", "arena.recycled",
        "arena.reserved_high_water", "sched.total.steals",
        "sched.total.tasks", "sched.exceptions_swallowed"}) {
    EXPECT_NE(json.find(key), std::string::npos) << key;
  }
}

// ---------------------------------------------------------------------------
// BufferArena unit behavior.

TEST(Arena, BudgetReservationsAdmitAndReject) {
  BufferArena arena(1024);
  auto r1 = arena.try_reserve(600);
  EXPECT_TRUE(static_cast<bool>(r1));
  auto r2 = arena.try_reserve(600);  // 1200 > 1024
  EXPECT_FALSE(static_cast<bool>(r2));
  EXPECT_EQ(arena.rejections(), 1u);
  r1.release();
  auto r3 = arena.try_reserve(1000);
  EXPECT_TRUE(static_cast<bool>(r3));
  EXPECT_EQ(arena.reserved_high_water(), 1000u);
}

TEST(Arena, ReservationReleasesOnDestruction) {
  BufferArena arena(100);
  {
    auto r = arena.try_reserve(100);
    EXPECT_TRUE(static_cast<bool>(r));
    EXPECT_EQ(arena.reserved_bytes(), 100u);
  }
  EXPECT_EQ(arena.reserved_bytes(), 0u);
}

TEST(Arena, AcquireRecyclesSizeClasses) {
  BufferArena arena(0);  // unlimited
  AlignedBuffer<double> buf = arena.acquire(100);
  EXPECT_GE(buf.size(), 100u);
  const double* data = buf.data();
  arena.release(std::move(buf));
  AlignedBuffer<double> again = arena.acquire(90);  // same 128-class
  EXPECT_EQ(again.data(), data);
  EXPECT_EQ(arena.recycled(), 1u);
  EXPECT_EQ(arena.allocations(), 1u);
}

TEST(Arena, AdmissionCountsCachedBytesAndEvictsToAdmit) {
  // Budget caps reserved + cached. A reservation that collides with idle
  // cache must evict the cache and then be admitted, not overshoot the
  // budget and not be rejected while evictable bytes exist.
  BufferArena arena(1024);
  AlignedBuffer<double> buf = arena.acquire(64);  // 64-double class = 512 B
  arena.release(std::move(buf));
  ASSERT_EQ(arena.cached_bytes(), 512u);

  auto r = arena.try_reserve(768);  // 512 cached + 768 > 1024, but fits alone
  EXPECT_TRUE(static_cast<bool>(r));
  EXPECT_EQ(arena.cached_bytes(), 0u);    // cache evicted to admit
  EXPECT_EQ(arena.reserved_bytes(), 768u);
  EXPECT_EQ(arena.rejections(), 0u);

  // Even after eviction this one cannot fit: reject.
  auto r2 = arena.try_reserve(512);
  EXPECT_FALSE(static_cast<bool>(r2));
  EXPECT_EQ(arena.rejections(), 1u);
}

TEST(Arena, CachedBuffersDroppedOverBudgetAndTrimmed) {
  BufferArena arena(256 * sizeof(double));
  AlignedBuffer<double> big = arena.acquire(512);  // over the whole budget
  arena.release(std::move(big));
  EXPECT_EQ(arena.cached_bytes(), 0u);  // dropped, not cached
  AlignedBuffer<double> small = arena.acquire(64);
  arena.release(std::move(small));
  EXPECT_GT(arena.cached_bytes(), 0u);
  arena.trim();
  EXPECT_EQ(arena.cached_bytes(), 0u);
}

}  // namespace
}  // namespace rla::service
