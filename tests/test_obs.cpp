// Tests of the observability subsystem (src/obs): scheduler counters, the
// task-span tracer and its Chrome-trace export, GemmProfile JSON round-trip,
// the disabled-path overhead guard, and composition with fault injection,
// cancellation and the analysis modes.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/gemm.hpp"
#include "obs/armed_slot.hpp"
#include "obs/collector.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "parallel/worker_pool.hpp"
#include "robust/error.hpp"
#include "test_common.hpp"

namespace rla {
namespace {

using rla::testing::random_matrix;

bool trail_contains(const GemmProfile& profile, std::string_view needle) {
  for (const std::string& step : profile.degradation_trail) {
    if (step.find(needle) != std::string::npos) return true;
  }
  return false;
}

/// One C = A·B on fresh random operands; returns the profile.
GemmProfile run_profiled(std::uint32_t n, GemmConfig cfg) {
  Matrix a = random_matrix(n, n, 7), b = random_matrix(n, n, 8);
  Matrix c(n, n);
  c.zero();
  GemmProfile profile;
  gemm(n, n, n, 1.0, a.data(), a.ld(), Op::None, b.data(), b.ld(), Op::None,
       0.0, c.data(), c.ld(), cfg, &profile);
  return profile;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

/// Parse a Chrome trace and count events by (ph, cat).
struct TraceShape {
  std::uint64_t tasks = 0, phases = 0, spawns = 0, total = 0;
  bool valid = false;
};

TraceShape parse_trace(const std::string& text) {
  TraceShape shape;
  auto doc = obs::json::Value::parse(text);
  if (!doc || doc->kind() != obs::json::Value::Kind::Object) return shape;
  const auto* events = doc->find("traceEvents");
  if (events == nullptr || events->kind() != obs::json::Value::Kind::Array)
    return shape;
  shape.valid = true;
  for (const auto& ev : events->items()) {
    ++shape.total;
    const auto* cat = ev.find("cat");
    if (cat == nullptr) continue;
    if (cat->as_string() == "task") ++shape.tasks;
    if (cat->as_string() == "phase") ++shape.phases;
    if (cat->as_string() == "spawn") ++shape.spawns;
  }
  return shape;
}

// ---------------------------------------------------------------------------
// Scheduler counters.

TEST(SchedStats, SerialPoolReportsZeroFailedStealsAndIdleWakeups) {
  WorkerPool pool(0);
  TaskGroup group(pool);
  for (int i = 0; i < 32; ++i) group.spawn([] {});
  group.wait();
  EXPECT_EQ(pool.failed_steals(), 0u);
  EXPECT_EQ(pool.idle_wakeups(), 0u);
  EXPECT_EQ(pool.injection_pops(), 0u);
  EXPECT_EQ(pool.steals(), 0u);
  // Serial pools expose only the external slot, and it never moved.
  const auto snapshot = pool.sched_snapshot();
  ASSERT_EQ(snapshot.size(), 1u);
  EXPECT_EQ(snapshot[0].steals, 0u);
  EXPECT_EQ(snapshot[0].failed_steals, 0u);
  EXPECT_EQ(snapshot[0].idle_wakeups, 0u);
  EXPECT_EQ(snapshot[0].deque_high_water, 0);
}

TEST(SchedStats, SnapshotHasOneSlotPerWorkerPlusExternal) {
  WorkerPool pool(2);
  std::atomic<int> ran{0};
  {
    TaskGroup group(pool);
    for (int i = 0; i < 64; ++i) group.spawn([&] { ++ran; });
    group.wait();
  }
  EXPECT_EQ(ran.load(), 64);
  EXPECT_EQ(pool.sched_snapshot().size(), pool.thread_count() + 1u);
  // The aggregate accessors are sums over the snapshot slots.
  std::uint64_t failed = 0, wakeups = 0, pops = 0;
  for (const auto& s : pool.sched_snapshot()) {
    failed += s.failed_steals;
    wakeups += s.idle_wakeups;
    pops += s.injection_pops;
  }
  EXPECT_EQ(failed, pool.failed_steals());
  EXPECT_EQ(wakeups, pool.idle_wakeups());
  EXPECT_EQ(pops, pool.injection_pops());
}

// ---------------------------------------------------------------------------
// Metrics primitives.

TEST(Metrics, HistogramBucketsAndQuantiles) {
  obs::Histogram h;
  for (std::uint64_t v : {1u, 2u, 3u, 100u, 1000u}) h.record(v);
  EXPECT_EQ(h.count(), 5u);
  EXPECT_EQ(h.sum(), 1106u);
  EXPECT_EQ(h.max(), 1000u);
  EXPECT_GE(h.quantile(0.99), 1000u);
  EXPECT_LE(h.quantile(0.0), 3u);
}

TEST(Metrics, RegistrySnapshotIsValidJson) {
  obs::Registry reg;
  reg.counter("c.one").add(41);
  reg.gauge("g.depth").fold_max(7);
  reg.histogram("h.ns").record(512);
  const auto snap = reg.snapshot();
  const std::string text = snap.dump();
  auto parsed = obs::json::Value::parse(text);
  ASSERT_TRUE(parsed.has_value());
  const auto* counters = parsed->find("counters");
  ASSERT_NE(counters, nullptr);
  ASSERT_NE(counters->find("c.one"), nullptr);
  EXPECT_EQ(counters->find("c.one")->as_int(), 41);
}

// ---------------------------------------------------------------------------
// GemmProfile JSON round-trip.

TEST(ProfileJson, RoundTripsEveryField) {
  GemmProfile p;
  p.convert_in = 0.125;
  p.compute = 2.5;
  p.convert_out = 0.0625;
  p.total = 2.6875;
  p.depth = 5;
  p.tile_m = 24;
  p.tile_k = 25;
  p.tile_n = 26;
  p.splits = 3;
  p.degradation_trail = {"alloc:fast->serial-lowmem", "trace:busy"};
  p.degradations = 2;
  p.verify_probes = 4;
  p.verify_max_residual = 1.5e-9;
  p.verify_failed = true;
  p.verify_rerun = true;
  p.races = 2;
  p.race_certified = true;
  p.race_cells = 77;
  p.race_reports = {"W-W c[0,0]", "R-W c[1,1]"};
  p.bound_constant = 640.0;
  p.error_bound = 7.1e-14;
  p.bound_fast_levels = 2;
  p.numerics_analyzed = true;
  p.observed_abs_error = 3e-13;
  p.observed_rel_error = 4.5e-15;
  p.cancellations = 12;
  p.shadow_cells = 4096;
  p.worst_cell_path = "R.NW.SE";
  p.fp_hazards = 5;
  p.fp_degraded = true;
  p.sched.workers = 4;
  p.sched.tasks = 1006;
  p.sched.steals = 13;
  p.sched.failed_steals = 99;
  p.sched.idle_wakeups = 17;
  p.sched.injection_pops = 33363;
  p.sched.deque_high_water = 21;
  p.measured = true;
  p.measured_work = 0.0884;
  p.measured_span = 0.0345;
  p.achieved_parallelism = 2.56;
  p.parallel_slackness = 0.64;
  p.tasks_traced = 1006;
  p.trace_events_dropped = 42;
  p.trace_file = "/tmp/t.json";
  p.task_ns_hist = {0, 1, 5, 9, 100};
  p.model_work = 1.0e9;
  p.model_span = 310000.0;
  p.model_parallelism = 3224.0;
  p.hw_measured = true;
  p.hw_scale = 0.75;
  p.hw_events = {"cycles", "l1d_read_misses", "task_clock_ns"};
  p.hw_total.cycles = 123456789;
  p.hw_total.instructions = 987654321;
  p.hw_total.l1d_read_misses = 4242;
  p.hw_total.llc_misses = 17;
  p.hw_total.dtlb_misses = 3;
  p.hw_total.task_clock_ns = 55555555;
  GemmProfile::HwCounters compute_hw;
  compute_hw.cycles = 100000000;
  compute_hw.l1d_read_misses = 4000;
  p.hw_phases = {{"convert.in", GemmProfile::HwCounters{}},
                 {"compute", compute_hw}};

  const std::string once = p.to_json();
  GemmProfile q;
  ASSERT_TRUE(GemmProfile::from_json(once, q));
  // Exact string equality: every field survived with its exact value, in
  // the same order — the documented to_json/from_json contract.
  EXPECT_EQ(q.to_json(), once);
  // Spot checks that parsing actually populated fields (not just echoed).
  EXPECT_EQ(q.sched.injection_pops, 33363u);
  EXPECT_EQ(q.degradation_trail.size(), 2u);
  EXPECT_EQ(q.worst_cell_path, "R.NW.SE");
  EXPECT_DOUBLE_EQ(q.achieved_parallelism, 2.56);
  ASSERT_EQ(q.task_ns_hist.size(), 5u);
  EXPECT_EQ(q.task_ns_hist[4], 100u);
  EXPECT_TRUE(q.hw_measured);
  EXPECT_DOUBLE_EQ(q.hw_scale, 0.75);
  ASSERT_EQ(q.hw_events.size(), 3u);
  EXPECT_EQ(q.hw_events[1], "l1d_read_misses");
  EXPECT_EQ(q.hw_total.cycles, 123456789u);
  EXPECT_EQ(q.hw_total.task_clock_ns, 55555555u);
  ASSERT_EQ(q.hw_phases.size(), 2u);
  EXPECT_EQ(q.hw_phases[1].first, "compute");
  EXPECT_EQ(q.hw_phases[1].second.l1d_read_misses, 4000u);
}

TEST(ProfileJson, DefaultProfileRoundTripsAndRejectsGarbage) {
  GemmProfile p;
  const std::string once = p.to_json();
  GemmProfile q;
  ASSERT_TRUE(GemmProfile::from_json(once, q));
  EXPECT_EQ(q.to_json(), once);
  GemmProfile untouched;
  untouched.depth = 123;
  EXPECT_FALSE(GemmProfile::from_json("not json", untouched));
  EXPECT_FALSE(GemmProfile::from_json("[1,2,3]", untouched));
  EXPECT_EQ(untouched.depth, 123);  // failed parse leaves *out alone
}

// ---------------------------------------------------------------------------
// Tracer: disabled-path guard, measured run, trace file, env arming.

TEST(Tracer, UntracedRunCreatesNoBuffers) {
  const std::uint64_t before = obs::Collector::buffers_created();
  GemmConfig cfg;
  cfg.threads = 2;
  const GemmProfile profile = run_profiled(96, cfg);
  EXPECT_FALSE(profile.measured);
  EXPECT_EQ(profile.tasks_traced, 0u);
  EXPECT_EQ(obs::Collector::buffers_created(), before);
}

TEST(Tracer, MeasuredRunReportsParallelismAndSchedStats) {
  GemmConfig cfg;
  cfg.threads = 4;
  cfg.measure = true;
  const GemmProfile profile = run_profiled(256, cfg);
  EXPECT_TRUE(profile.measured);
  EXPECT_GT(profile.tasks_traced, 10u);
  EXPECT_GT(profile.measured_work, 0.0);
  EXPECT_GT(profile.measured_span, 0.0);
  // The DAG's measured parallelism is schedule-independent (span folds over
  // the logical fork-join structure), so this holds even on one CPU.
  EXPECT_GT(profile.achieved_parallelism, 1.5);
  EXPECT_DOUBLE_EQ(
      profile.parallel_slackness,
      profile.achieved_parallelism / static_cast<double>(profile.sched.workers));
  EXPECT_EQ(profile.sched.workers, 4u);
  EXPECT_GT(profile.sched.tasks, 0u);
  EXPECT_FALSE(profile.task_ns_hist.empty());
  EXPECT_TRUE(profile.trace_file.empty());  // measure alone writes no file
}

TEST(Tracer, TraceFileIsValidChromeTraceWithPhases) {
  const std::string path = ::testing::TempDir() + "test_obs_trace.json";
  GemmConfig cfg;
  cfg.threads = 2;
  cfg.trace_path = path;
  const GemmProfile profile = run_profiled(128, cfg);
  EXPECT_TRUE(profile.measured);  // trace implies measure
  EXPECT_EQ(profile.trace_file, path);
  const TraceShape shape = parse_trace(slurp(path));
  ASSERT_TRUE(shape.valid);
  EXPECT_GT(shape.tasks, 0u);
  EXPECT_GT(shape.phases, 0u);
  EXPECT_GT(shape.spawns, 0u);
  // Complete trace: every closed task frame has its event in the ring.
  if (profile.trace_events_dropped == 0) {
    EXPECT_EQ(shape.tasks, profile.tasks_traced);
  }
  std::remove(path.c_str());
}

TEST(Tracer, RlaTraceEnvironmentVariableArmsTheCollector) {
  const std::string path = ::testing::TempDir() + "test_obs_env_trace.json";
  ASSERT_EQ(setenv("RLA_TRACE", path.c_str(), 1), 0);
  GemmConfig cfg;
  cfg.threads = 2;
  const GemmProfile profile = run_profiled(96, cfg);
  unsetenv("RLA_TRACE");
  EXPECT_TRUE(profile.measured);
  EXPECT_EQ(profile.trace_file, path);
  EXPECT_TRUE(parse_trace(slurp(path)).valid);
  std::remove(path.c_str());
}

TEST(Tracer, SecondCollectorRunsUntracedWithBusyTrail) {
  obs::Collector outer;
  ASSERT_TRUE(outer.try_attach());
  GemmConfig cfg;
  cfg.threads = 2;
  cfg.measure = true;
  const GemmProfile profile = run_profiled(96, cfg);
  outer.detach();
  EXPECT_FALSE(profile.measured);
  EXPECT_TRUE(trail_contains(profile, "trace:busy"));
}

// ---------------------------------------------------------------------------
// Composition: cancellation, injected faults, analysis modes.

TEST(Tracer, BalancedUnderTaskGroupCancellation) {
  obs::Collector collector;
  ASSERT_TRUE(collector.try_attach());
  {
    obs::ScopedRoot root("cancel-test");
    WorkerPool pool(2);
    std::atomic<bool> cancel{false};
    TaskGroup group(pool, &cancel);
    for (int i = 0; i < 16; ++i) {
      group.spawn([&group, i] {
        if (i == 3) throw std::runtime_error("boom");
        if (group.cancelled()) return;
      });
    }
    EXPECT_THROW(group.wait(), std::runtime_error);
    EXPECT_TRUE(cancel.load());
  }
  collector.detach();
  // Every span closed despite the throw: frames balanced, work recorded,
  // and the export is still well-formed JSON.
  EXPECT_GT(collector.tasks(), 0u);
  EXPECT_GE(collector.work_ns(), 0);
  EXPECT_GT(collector.span_ns(), 0);
  std::ostringstream out;
  collector.write_chrome_trace(out);
  const TraceShape shape = parse_trace(out.str());
  ASSERT_TRUE(shape.valid);
  EXPECT_EQ(shape.tasks, collector.tasks());
}

TEST(Tracer, TraceSurvivesInjectedTaskFault) {
  const std::string path = ::testing::TempDir() + "test_obs_fault_trace.json";
  GemmConfig cfg;
  cfg.threads = 2;
  cfg.trace_path = path;
  cfg.fault_spec = "task.throw:nth=5";
  Matrix a = random_matrix(96, 96, 1), b = random_matrix(96, 96, 2);
  Matrix c(96, 96);
  c.zero();
  GemmProfile profile;
  EXPECT_THROW(gemm(96, 96, 96, 1.0, a.data(), a.ld(), Op::None, b.data(),
                    b.ld(), Op::None, 0.0, c.data(), c.ld(), cfg, &profile),
               Error);
  // The driver's exit path still detached the collector and wrote the
  // trace; spans closed despite the unwinding tasks.
  EXPECT_TRUE(profile.measured);
  EXPECT_EQ(profile.trace_file, path);
  EXPECT_TRUE(parse_trace(slurp(path)).valid);
  std::remove(path.c_str());
  // The collector slot was released: a following traced run attaches fine.
  obs::Collector probe;
  EXPECT_TRUE(probe.try_attach());
  probe.detach();
}

TEST(Tracer, ComposesWithRaceDetectionAndFpCheck) {
  GemmConfig cfg;
  cfg.threads = 2;
  cfg.measure = true;
  cfg.detect_races = true;  // forces the serial schedule
  cfg.fp_check = true;
  const GemmProfile profile = run_profiled(64, cfg);
  EXPECT_TRUE(profile.measured);
  EXPECT_GT(profile.tasks_traced, 0u);
  // Serial schedule: measured parallelism is still the DAG's, not 1.0.
  EXPECT_GT(profile.achieved_parallelism, 1.0);
}

// ---------------------------------------------------------------------------
// Slot liveness: disarm/detach are bounded while other threads keep pinning
// (run alone in CI with --repeat until-fail:50).

TEST(SlotLiveness, ArmedSlotDisarmWaitsOnlyForPinsInFlight) {
  obs::ArmedSlot<int> slot;
  int owner = 0;
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> pinned{0};
  std::vector<std::thread> hooks;
  for (int t = 0; t < 3; ++t) {
    hooks.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        if (int* p = slot.pin()) {
          EXPECT_EQ(p, &owner);
          pinned.fetch_add(1, std::memory_order_relaxed);
          slot.unpin();
        }
      }
    });
  }
  for (int i = 0; i < 2000; ++i) {
    ASSERT_TRUE(slot.try_arm(&owner));
    EXPECT_FALSE(slot.try_arm(&owner));  // one owner at a time
    slot.disarm(&owner);
    EXPECT_EQ(slot.pin(), nullptr);  // nothing new pins a clear slot
  }
  stop.store(true);
  for (auto& th : hooks) th.join();
  EXPECT_EQ(slot.peek(), nullptr);
}

TEST(SlotLiveness, CollectorDetachUnderContinuousEmitters) {
  obs::Collector collector(64);
  std::atomic<bool> stop{false};
  std::vector<std::thread> emitters;
  for (int t = 0; t < 3; ++t) {
    emitters.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) obs::PhaseScope phase("hammer");
    });
  }
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(collector.try_attach());
    collector.detach();
  }
  stop.store(true);
  for (auto& th : emitters) th.join();
  EXPECT_FALSE(collector.attached());
}

}  // namespace
}  // namespace rla
