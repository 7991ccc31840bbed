// Tests of the observability subsystem (src/obs): scheduler counters, the
// task-span tracer and its Chrome-trace export, GemmProfile JSON round-trip,
// the disabled-path overhead guard, and composition with fault injection,
// cancellation and the analysis modes.

#include <gtest/gtest.h>

#include <algorithm>
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
  const WorkerPool::SchedStats totals = pool.sched_totals();
  EXPECT_EQ(totals.failed_steals, 0u);
  EXPECT_EQ(totals.idle_wakeups, 0u);
  EXPECT_EQ(totals.injection_pops, 0u);
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
  // The totals aggregate the slots each one covers. Idle workers keep
  // counting, so compare against totals read before and after the snapshot:
  // every counter is monotone, so t0 <= sum over slots <= t1 always holds.
  const WorkerPool::SchedStats t0 = pool.sched_totals();
  const auto slots = pool.sched_snapshot();
  const WorkerPool::SchedStats t1 = pool.sched_totals();
  ASSERT_EQ(slots.size(), pool.thread_count() + 1u);
  WorkerPool::SchedStats sum;
  for (std::size_t i = 0; i < slots.size(); ++i) {
    const bool worker = i + 1 < slots.size();  // the last slot is external
    sum.failed_steals += slots[i].failed_steals;
    sum.injection_pops += slots[i].injection_pops;
    if (worker) {
      sum.idle_wakeups += slots[i].idle_wakeups;
      sum.deque_high_water = std::max(sum.deque_high_water, slots[i].deque_high_water);
    }
  }
  EXPECT_LE(t0.failed_steals, sum.failed_steals);
  EXPECT_LE(sum.failed_steals, t1.failed_steals);
  EXPECT_LE(t0.idle_wakeups, sum.idle_wakeups);
  EXPECT_LE(sum.idle_wakeups, t1.idle_wakeups);
  EXPECT_LE(t0.injection_pops, sum.injection_pops);
  EXPECT_LE(sum.injection_pops, t1.injection_pops);
  EXPECT_LE(t0.deque_high_water, sum.deque_high_water);
  EXPECT_LE(sum.deque_high_water, t1.deque_high_water);
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

TEST(ProfileJson, GoldenEveryFieldNonDefault) {
  // Pins the exact serialization — key names, order and number formatting —
  // of a profile in which no field holds its default value.
  GemmProfile p;
  p.trace_id = 18446744073709551557u;
  p.convert_in = 0.125;
  p.compute = 2.5;
  p.convert_out = 0.0625;
  p.total = 2.6875;
  p.depth = 5;
  p.tile_m = 24;
  p.tile_k = 25;
  p.tile_n = 26;
  p.splits = 3;
  p.degradation_trail = {"alloc:fast->serial-lowmem", "trace:\"busy\""};
  p.degradations = 2;
  p.verify_probes = 4;
  p.verify_max_residual = 1.5e-9;
  p.verify_failed = true;
  p.verify_rerun = true;
  p.races = 2;
  p.race_certified = true;
  p.race_cells = 77;
  p.race_reports = {"W-W c[0,0]"};
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
  p.sched = {4, 1006, 13, 99, 17, 33363, -21};
  p.measured = true;
  p.measured_work = 0.0884;
  p.measured_span = 0.0345;
  p.achieved_parallelism = 2.56;
  p.parallel_slackness = 0.64;
  p.tasks_traced = 1006;
  p.trace_events_dropped = 42;
  p.trace_file = "/tmp/t.json";
  p.task_ns_hist = {0, 1, 5};
  p.model_work = 1.0e9;
  p.model_span = 310000.0;
  p.model_parallelism = 3224.0;
  p.hw_measured = true;
  p.hw_scale = 0.75;
  p.hw_events = {"cycles", "task_clock_ns"};
  p.hw_total = {1, 2, 3, 4, 5, 6};
  p.hw_phases = {{"convert.in", {7, 8, 9, 10, 11, 12}},
                 {"compute", {13, 14, 15, 16, 17, 18}}};
  p.tree_measured = true;
  p.tree_profile = {{"d0", 100, 200, 3, true, {19, 20, 21, 22, 23, 24}},
                    {"d1:6", 400, 500, 6, false, {}}};
  const std::string golden =
      R"({"trace_id":18446744073709551557,"convert_in":0.125,"compute":2.5,)"
      R"("convert_out":0.0625,"total":2.6875,"depth":5,"tile_m":24,"tile_k":25,)"
      R"("tile_n":26,"splits":3,"degradation_trail":["alloc:fast->serial-lowmem",)"
      R"("trace:\"busy\""],"degradations":2,"verify_probes":4,)"
      R"("verify_max_residual":1.5e-09,"verify_failed":true,)"
      R"("verify_rerun":true,"races":2,"race_certified":true,"race_cells":77,)"
      R"("race_reports":["W-W c[0,0]"],"bound_constant":640,)"
      R"("error_bound":7.1e-14,"bound_fast_levels":2,)"
      R"("numerics_analyzed":true,"observed_abs_error":2.9999999999999998e-13,)"
      R"("observed_rel_error":4.4999999999999998e-15,"cancellations":12,)"
      R"("shadow_cells":4096,"worst_cell_path":"R.NW.SE","fp_hazards":5,)"
      R"("fp_degraded":true,"sched":{"workers":4,"tasks":1006,"steals":13,)"
      R"("failed_steals":99,"idle_wakeups":17,"injection_pops":33363,)"
      R"("deque_high_water":-21},"measured":true,"measured_work":0.088400000000000006,)"
      R"("measured_span":0.034500000000000003,"achieved_parallelism":2.5600000000000001,)"
      R"("parallel_slackness":0.64000000000000001,"tasks_traced":1006,)"
      R"("trace_events_dropped":42,"trace_file":"/tmp/t.json",)"
      R"("task_ns_hist":[0,1,5],"model_work":1000000000,"model_span":310000,)"
      R"("model_parallelism":3224,"hw_measured":true,"hw_scale":0.75,)"
      R"("hw_events":["cycles","task_clock_ns"],"hw_total":{"cycles":1,)"
      R"("instructions":2,"l1d_read_misses":3,"llc_misses":4,"dtlb_misses":5,)"
      R"("task_clock_ns":6},"hw_phases":[{"phase":"convert.in","cycles":7,)"
      R"("instructions":8,"l1d_read_misses":9,"llc_misses":10,"dtlb_misses":11,)"
      R"("task_clock_ns":12},{"phase":"compute","cycles":13,"instructions":14,)"
      R"("l1d_read_misses":15,"llc_misses":16,"dtlb_misses":17,)"
      R"("task_clock_ns":18}],"tree_measured":true,"tree_profile":[{"key":"d0",)"
      R"("time_ns":100,"flops":200,"tasks":3,"hw_valid":true,"cycles":19,)"
      R"("instructions":20,"l1d_read_misses":21,"llc_misses":22,)"
      R"("dtlb_misses":23,"task_clock_ns":24},{"key":"d1:6","time_ns":400,)"
      R"("flops":500,"tasks":6,"hw_valid":false,"cycles":0,"instructions":0,)"
      R"("l1d_read_misses":0,"llc_misses":0,"dtlb_misses":0,"task_clock_ns":0}]})";
  EXPECT_EQ(p.to_json(), golden);
  GemmProfile q;
  ASSERT_TRUE(GemmProfile::from_json(golden, q));
  EXPECT_EQ(q.to_json(), golden);
  // Wrongly typed values are skipped, keeping the default (or, inside
  // arrays, dropping the item); a non-object entry of an object array too.
  GemmProfile r;
  ASSERT_TRUE(GemmProfile::from_json(
      R"({"depth":"x","sched":[1],"task_ns_hist":[1,"a",2],"hw_total":7,)"
      R"("verify_failed":1,"trace_file":3,"hw_phases":[5,{"phase":"compute",)"
      R"("cycles":"9","instructions":4}],"tree_profile":{"key":"d0"}})",
      r));
  EXPECT_EQ(r.depth, -1);
  EXPECT_EQ(r.sched.workers, 0u);
  EXPECT_EQ(r.task_ns_hist, (std::vector<std::uint64_t>{1, 2}));
  EXPECT_EQ(r.hw_total.cycles, 0u);
  EXPECT_FALSE(r.verify_failed);
  EXPECT_TRUE(r.trace_file.empty());
  ASSERT_EQ(r.hw_phases.size(), 1u);
  EXPECT_EQ(r.hw_phases[0].first, "compute");
  EXPECT_EQ(r.hw_phases[0].second.cycles, 0u);
  EXPECT_EQ(r.hw_phases[0].second.instructions, 4u);
  EXPECT_TRUE(r.tree_profile.empty());
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
  // The work/span model of the configured DAG offers the parallelism; the
  // measured figure charges queue latency to the span, which grows when the
  // host is busy, so it is bounded by the model rather than from below.
  EXPECT_GT(profile.model_parallelism, 1.5);
  EXPECT_GT(profile.achieved_parallelism, 0.0);
  EXPECT_LE(profile.achieved_parallelism, profile.model_parallelism);
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

TEST(Tracer, UnwritableTracePathKeepsTheResult) {
  // A failed export is a degradation, not an error: C is still delivered.
  const std::uint32_t n = 96;
  Matrix a = random_matrix(n, n, 7), b = random_matrix(n, n, 8);
  Matrix c(n, n), c_ref(n, n);
  c.zero();
  c_ref.zero();
  GemmConfig cfg;
  cfg.threads = 2;
  cfg.trace_path = ::testing::TempDir() + "no_such_dir_for_rla/trace.json";
  GemmProfile profile;
  gemm(n, n, n, 1.0, a.data(), a.ld(), Op::None, b.data(), b.ld(), Op::None,
       0.0, c.data(), c.ld(), cfg, &profile);
  reference_gemm(n, n, n, 1.0, a.data(), a.ld(), false, b.data(), b.ld(), false,
                 0.0, c_ref.data(), c_ref.ld());
  EXPECT_LT(max_abs_diff(c.view(), c_ref.view()), 1e-9);
  EXPECT_TRUE(trail_contains(profile, "trace:write-failed"));
  EXPECT_TRUE(profile.trace_file.empty());
}

TEST(Tracer, TreeProfiledTraceCarriesTreeAndTraceIdMetrics) {
  const std::string path = ::testing::TempDir() + "test_obs_tree_trace.json";
  constexpr std::uint64_t kTraceId = 0x5eed1234;
  GemmConfig cfg;
  cfg.threads = 2;
  cfg.trace_path = path;
  cfg.tree_profile = true;
  cfg.trace_id = kTraceId;
  const GemmProfile profile = run_profiled(128, cfg);
  ASSERT_EQ(profile.trace_file, path);
  ASSERT_TRUE(profile.tree_measured);
  const auto doc = obs::json::Value::parse(slurp(path));
  ASSERT_TRUE(doc && doc->is_object());
  const obs::json::Value* metrics = doc->find("rla_metrics");
  ASSERT_NE(metrics, nullptr);
  const obs::json::Value* counters = metrics->find("counters");
  const obs::json::Value* gauges = metrics->find("gauges");
  ASSERT_TRUE(counters != nullptr && gauges != nullptr);
  const obs::json::Value* nodes = counters->find("treeprof.nodes");
  ASSERT_NE(nodes, nullptr);
  EXPECT_EQ(nodes->as_uint(), profile.tree_profile.size());
  const obs::json::Value* d0_flops = counters->find("treeprof.d0.flops");
  ASSERT_NE(d0_flops, nullptr);
  EXPECT_GT(d0_flops->as_uint(), 0u);
  const obs::json::Value* id = gauges->find("telemetry.trace_id");
  ASSERT_NE(id, nullptr);
  EXPECT_EQ(id->as_uint(), kTraceId);
  std::remove(path.c_str());
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
