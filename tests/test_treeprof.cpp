// Tests of the recursion-resolved profiler (obs/treeprof/, DESIGN.md §16):
// path encoding, arming and the busy degradation, per-depth reconciliation
// against the compute phase, depth-cap rollup, behaviour under injected
// degradation and mid-tree task faults, the JSON round-trip of the folded
// tree, and the flamegraph folded-stack renderer.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "core/gemm.hpp"
#include "obs/collector.hpp"
#include "obs/treeprof/treeprof.hpp"
#include "robust/error.hpp"
#include "test_common.hpp"

namespace rla {
namespace {

using rla::testing::random_matrix;
namespace treeprof = obs::treeprof;

/// One C = A·B against the naive reference; returns max deviation and fills
/// *profile. Same shape as test_fault.cpp's runner.
double run_vs_reference(std::uint32_t n, const GemmConfig& cfg,
                        GemmProfile* profile, std::uint64_t seed = 7) {
  Matrix a = random_matrix(n, n, seed);
  Matrix b = random_matrix(n, n, seed + 1);
  Matrix c(n, n);
  c.zero();
  Matrix c_ref = c;
  gemm(n, n, n, 1.0, a.data(), a.ld(), Op::None, b.data(), b.ld(), Op::None,
       0.0, c.data(), c.ld(), cfg, profile);
  reference_gemm(n, n, n, 1.0, a.data(), a.ld(), false, b.data(), b.ld(),
                 false, 0.0, c_ref.data(), c_ref.ld());
  return max_abs_diff(c.view(), c_ref.view());
}

bool trail_contains(const GemmProfile& profile, std::string_view needle) {
  for (const std::string& step : profile.degradation_trail) {
    if (step.find(needle) != std::string::npos) return true;
  }
  return false;
}

int key_depth(const std::string& key) {
  return std::atoi(key.c_str() + 1);  // "d3:021" -> 3
}

std::uint64_t tree_time_ns(const GemmProfile& profile) {
  std::uint64_t total = 0;
  for (const auto& node : profile.tree_profile) total += node.time_ns;
  return total;
}

std::uint64_t tree_flops(const GemmProfile& profile) {
  std::uint64_t total = 0;
  for (const auto& node : profile.tree_profile) total += node.flops;
  return total;
}

// ---------------------------------------------------------------------------
// Path encoding.

TEST(TreeprofPath, EncodingAndRendering) {
  EXPECT_EQ(treeprof::path_depth(treeprof::kRootPath), 0);
  EXPECT_EQ(treeprof::path_key(treeprof::kRootPath), "d0");

  const std::uint64_t c2 = treeprof::child_path(treeprof::kRootPath, 2);
  EXPECT_EQ(c2, 0b1'010u);
  EXPECT_EQ(treeprof::path_depth(c2), 1);
  EXPECT_EQ(treeprof::path_digit(c2, 0), 2u);
  EXPECT_EQ(treeprof::path_key(c2), "d1:2");

  // Digits render root-first: child 0 of child 2 of child 1.
  std::uint64_t p = treeprof::kRootPath;
  p = treeprof::child_path(p, 1);
  p = treeprof::child_path(p, 2);
  p = treeprof::child_path(p, 0);
  EXPECT_EQ(treeprof::path_depth(p), 3);
  EXPECT_EQ(treeprof::path_key(p), "d3:120");
  EXPECT_EQ(treeprof::path_digit(p, 0), 1u);
  EXPECT_EQ(treeprof::path_digit(p, 1), 2u);
  EXPECT_EQ(treeprof::path_digit(p, 2), 0u);
}

TEST(TreeprofPath, MaxDepthPathStillRoundTrips) {
  std::uint64_t p = treeprof::kRootPath;
  std::string digits;
  for (int i = 0; i < treeprof::kMaxPathDepth; ++i) {
    const unsigned d = static_cast<unsigned>(i % 7);
    p = treeprof::child_path(p, d);
    digits += static_cast<char>('0' + d);
  }
  EXPECT_EQ(treeprof::path_depth(p), treeprof::kMaxPathDepth);
  EXPECT_EQ(treeprof::path_key(p),
            "d" + std::to_string(treeprof::kMaxPathDepth) + ":" + digits);
}

TEST(TreeprofPath, FoldedStacksRendering) {
  const std::string out = treeprof::folded_stacks(
      {{"d0", 10}, {"d1:2", 20}, {"d3:021", 5}});
  EXPECT_EQ(out, "gemm 10\ngemm;2 20\ngemm;0;2;1 5\n");
}

// ---------------------------------------------------------------------------
// Disarmed and busy paths.

TEST(TreeprofGemm, DisarmedRunLeavesTreeEmpty) {
  GemmConfig cfg;
  cfg.layout = Curve::ZMorton;
  GemmProfile profile;
  EXPECT_LT(run_vs_reference(96, cfg, &profile), 1e-10);
  EXPECT_FALSE(profile.tree_measured);
  EXPECT_TRUE(profile.tree_profile.empty());
}

TEST(TreeprofGemm, BusySlotDegradesToUnprofiled) {
  treeprof::Session outer;
  ASSERT_TRUE(outer.try_attach());
  GemmConfig cfg;
  cfg.layout = Curve::ZMorton;
  cfg.tree_profile = true;
  GemmProfile profile;
  EXPECT_LT(run_vs_reference(96, cfg, &profile), 1e-10);
  EXPECT_FALSE(profile.tree_measured);
  EXPECT_TRUE(profile.tree_profile.empty());
  EXPECT_TRUE(trail_contains(profile, "treeprof:busy"));
  outer.detach();

  // Slot released: the next armed run profiles normally.
  GemmProfile clean;
  EXPECT_LT(run_vs_reference(96, cfg, &clean), 1e-10);
  EXPECT_TRUE(clean.tree_measured);
  EXPECT_FALSE(clean.tree_profile.empty());
}

// ---------------------------------------------------------------------------
// Reconciliation: the per-depth exclusive sums cover the compute phase.

TEST(TreeprofGemm, SerialExclusiveTimesReconcileWithComputePhase) {
  GemmConfig cfg;
  cfg.layout = Curve::ZMorton;
  cfg.algorithm = Algorithm::Standard;
  cfg.threads = 1;
  cfg.tree_profile = true;
  GemmProfile profile;
  EXPECT_LT(run_vs_reference(256, cfg, &profile), 1e-9);
  ASSERT_TRUE(profile.tree_measured);
  ASSERT_FALSE(profile.tree_profile.empty());

  // Exclusive sums on one thread cannot exceed the compute wall time (same
  // clock, frames nest), and the frames should cover nearly all of it. The
  // lower bound is deliberately loose against CI scheduling noise.
  const double compute_ns = profile.compute * 1e9;
  const double tree_ns = static_cast<double>(tree_time_ns(profile));
  EXPECT_LE(tree_ns, compute_ns * 1.02 + 2e6);
  EXPECT_GE(tree_ns, compute_ns * 0.70);

  // Leaf multiplies alone contribute 2n^3 FLOPs; block-add passes only add.
  EXPECT_GE(tree_flops(profile), 2ull * 256 * 256 * 256);

  // Folded list is sorted by (depth, path): depths never decrease, the root
  // comes first, and no node exceeds the session cap.
  EXPECT_EQ(profile.tree_profile.front().key, "d0");
  int prev = 0;
  for (const auto& node : profile.tree_profile) {
    const int d = key_depth(node.key);
    EXPECT_GE(d, prev);
    EXPECT_LE(d, treeprof::default_max_depth());
    prev = d;
  }
}

TEST(TreeprofGemm, DepthCapRollsDeepCostIntoAncestors) {
  ::setenv("RLA_TREEPROF_MAX_DEPTH", "1", 1);
  GemmConfig cfg;
  cfg.layout = Curve::ZMorton;
  cfg.algorithm = Algorithm::Standard;
  cfg.threads = 1;
  cfg.tree_profile = true;
  GemmProfile profile;
  const double err = run_vs_reference(128, cfg, &profile);
  ::unsetenv("RLA_TREEPROF_MAX_DEPTH");
  EXPECT_LT(err, 1e-10);
  ASSERT_TRUE(profile.tree_measured);
  ASSERT_FALSE(profile.tree_profile.empty());
  int max_depth = 0;
  for (const auto& node : profile.tree_profile) {
    max_depth = std::max(max_depth, key_depth(node.key));
  }
  EXPECT_LE(max_depth, 1);
  // Rollup conserves cost: the capped tree still carries every leaf FLOP.
  EXPECT_GE(tree_flops(profile), 2ull * 128 * 128 * 128);
}

TEST(TreeprofGemm, ParallelStrassenTreeCoversLeafWork) {
  GemmConfig cfg;
  cfg.layout = Curve::ZMorton;
  cfg.algorithm = Algorithm::Strassen;
  cfg.threads = 4;
  cfg.tree_profile = true;
  // An outer collector receives every frame as a node span on the lane of
  // the thread that ran it, which the per-thread check below reads.
  obs::Collector lanes;
  ASSERT_TRUE(lanes.try_attach());
  GemmProfile profile;
  EXPECT_LT(run_vs_reference(256, cfg, &profile), 1e-9);
  lanes.detach();
  ASSERT_TRUE(profile.tree_measured);
  ASSERT_FALSE(profile.tree_profile.empty());
  // Exclusive time is CPU time summed across the threads that hold frames:
  // the pool's workers and the calling thread, which runs the root and
  // helps while it waits. So it is bounded by the compute wall time times
  // workers + 1, and nonzero.
  const unsigned workers = std::max(1u, profile.sched.workers);
  const double budget_ns = profile.compute * 1e9 * (workers + 1);
  const double tree_ns = static_cast<double>(tree_time_ns(profile));
  EXPECT_GT(tree_ns, 0.0);
  EXPECT_LE(tree_ns, budget_ns * 1.05 + 2e6);
  // Frames on one thread nest and pause each other, so no thread's
  // exclusive time can exceed the compute wall time: a frame counted twice
  // would show here. The threads are the pool's workers and the caller.
  const double compute_ns = profile.compute * 1e9;
  std::uint64_t lanes_with_frames = 0, lane_tree_ns = 0;
  for (const auto& buf : lanes.thread_buffers()) {
    ASSERT_LE(buf->written, buf->ring.size()) << "ring wrapped on " << buf->label;
    std::uint64_t lane_ns = 0;
    for (std::uint64_t i = 0; i < buf->written; ++i) {
      const obs::TraceEvent& e = buf->ring[i];
      if (e.kind == obs::TraceEvent::Kind::Node) {
        lane_ns += static_cast<std::uint64_t>(e.excl_ns);
      }
    }
    if (lane_ns == 0) continue;
    ++lanes_with_frames;
    lane_tree_ns += lane_ns;
    EXPECT_LE(static_cast<double>(lane_ns), compute_ns * 1.05 + 2e6) << buf->label;
  }
  EXPECT_LE(lanes_with_frames, workers + 1u);
  EXPECT_EQ(lane_tree_ns, tree_time_ns(profile));
  // Strassen at depth >= 1 shows seven children of the root.
  bool saw_child = false;
  for (const auto& node : profile.tree_profile) {
    if (key_depth(node.key) == 1) saw_child = true;
  }
  EXPECT_TRUE(saw_child);
}

// ---------------------------------------------------------------------------
// FLOP conservation: Σ node FLOPs equals the executed algorithm's count.

/// Leaf multiplies plus quadrant add passes of a recursion `depth` levels
/// deep over square `tile`-edge leaves, with `fanout` children and `passes`
/// quadrant-sized add passes per inner node.
std::uint64_t analytic_flops(std::uint64_t fanout, std::uint64_t passes, int depth,
                             std::uint64_t tile) {
  auto pow = [](std::uint64_t b, int e) {
    std::uint64_t r = 1;
    for (int i = 0; i < e; ++i) r *= b;
    return r;
  };
  std::uint64_t total = pow(fanout, depth) * 2 * tile * tile * tile;
  for (int level = 1; level <= depth; ++level) {
    const std::uint64_t half = tile << (level - 1);
    total += pow(fanout, depth - level) * passes * half * half;
  }
  return total;
}

TEST(TreeprofGemm, FlopsConserveExactlyAtEveryThreadCount) {
  // 256 over 8-element tiles is five levels, two below the default frame
  // cap of 3, so capped nodes run as stolen tasks at 2 and 4 threads.
  // Add passes per inner node: standard temporaries 4 (the post-adds, on
  // every node whether or not it forks), standard in place 0, Strassen
  // 10 pre + 12 post under either schedule, Winograd 8 + 11 in parallel and
  // 14 + 14 with its U-chains expanded.
  constexpr std::uint32_t kN = 256, kTile = 8;
  constexpr int kDepth = 5;
  struct Case {
    Curve layout;
    Algorithm alg;
    FastVariant variant;
    std::uint64_t fanout, passes;
    StandardVariant standard = StandardVariant::Temporaries;
  };
  const Case cases[] = {
      {Curve::ZMorton, Algorithm::Standard, FastVariant::Parallel, 8, 4},
      {Curve::ZMorton, Algorithm::Standard, FastVariant::SerialLowMem, 8, 4},
      {Curve::ZMorton, Algorithm::Standard, FastVariant::Parallel, 8, 0,
       StandardVariant::InPlace},
      {Curve::ColMajor, Algorithm::Standard, FastVariant::Parallel, 8, 4},
      {Curve::ColMajor, Algorithm::Standard, FastVariant::Parallel, 8, 0,
       StandardVariant::InPlace},
      {Curve::ZMorton, Algorithm::Strassen, FastVariant::Parallel, 7, 22},
      {Curve::ZMorton, Algorithm::Strassen, FastVariant::SerialLowMem, 7, 22},
      {Curve::ZMorton, Algorithm::Winograd, FastVariant::Parallel, 7, 19},
      {Curve::ZMorton, Algorithm::Winograd, FastVariant::SerialLowMem, 7, 28},
      {Curve::ColMajor, Algorithm::Strassen, FastVariant::Parallel, 7, 22},
      {Curve::ColMajor, Algorithm::Strassen, FastVariant::SerialLowMem, 7, 22},
      {Curve::ColMajor, Algorithm::Winograd, FastVariant::Parallel, 7, 19},
      {Curve::ColMajor, Algorithm::Winograd, FastVariant::SerialLowMem, 7, 28},
  };
  for (const Case& c : cases) {
    const std::uint64_t expected = analytic_flops(c.fanout, c.passes, kDepth, kTile);
    for (unsigned threads : {1u, 2u, 4u}) {
      GemmConfig cfg;
      cfg.layout = c.layout;
      cfg.algorithm = c.alg;
      cfg.fast_variant = c.variant;
      cfg.standard_variant = c.standard;
      cfg.tiles = {kTile, kTile, kTile};
      cfg.threads = threads;
      cfg.tree_profile = true;
      GemmProfile profile;
      EXPECT_LT(run_vs_reference(kN, cfg, &profile), 1e-9);
      ASSERT_TRUE(profile.tree_measured);
      EXPECT_EQ(tree_flops(profile), expected)
          << "layout " << static_cast<int>(c.layout) << " alg "
          << static_cast<int>(c.alg) << " variant " << static_cast<int>(c.variant)
          << " standard " << static_cast<int>(c.standard) << " threads " << threads;
    }
  }
}

// ---------------------------------------------------------------------------
// Slot liveness: detach() is bounded while other threads keep opening
// scopes (run alone in CI with --repeat until-fail:50).

TEST(SlotLiveness, TreeprofDetachUnderContinuousScopes) {
  treeprof::Session session(1);
  std::atomic<bool> stop{false};
  std::vector<std::thread> workers;
  for (int t = 0; t < 3; ++t) {
    workers.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        treeprof::NodeScope node(treeprof::child_path(treeprof::kRootPath, 1));
        treeprof::add_flops(1);
      }
    });
  }
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(session.try_attach());
    session.detach();
  }
  stop.store(true);
  for (auto& th : workers) th.join();
  EXPECT_FALSE(session.attached());
}

// ---------------------------------------------------------------------------
// Degradation and faults.

TEST(TreeprofGemm, TreeSurvivesAllocDegradationLadder) {
  // Persistent tiled-alloc failure walks the ladder down to the canonical
  // in-place path; the tree must still be measured and reconcile — the
  // instrumentation rides the nodes that actually executed.
  GemmConfig cfg;
  cfg.layout = Curve::ZMorton;
  cfg.algorithm = Algorithm::Strassen;
  cfg.threads = 1;
  cfg.tree_profile = true;
  cfg.fault_spec = "alloc.tiled:p=1";
  GemmProfile profile;
  EXPECT_LT(run_vs_reference(128, cfg, &profile), 1e-9);
  EXPECT_TRUE(trail_contains(profile, "alloc:standard-inplace"));
  ASSERT_TRUE(profile.tree_measured);
  ASSERT_FALSE(profile.tree_profile.empty());
  // The final successful pass alone multiplies 2n^3; aborted attempts only
  // add on top.
  EXPECT_GE(tree_flops(profile), 2ull * 128 * 128 * 128);
  EXPECT_GT(tree_time_ns(profile), 0u);
}

TEST(TreeprofGemm, MidTreeTaskFaultReleasesTheSessionSlot) {
  GemmConfig cfg;
  cfg.layout = Curve::ZMorton;
  cfg.tree_profile = true;
  cfg.fault_spec = "task.throw:nth=3";
  Matrix a = random_matrix(64, 64, 1), b = random_matrix(64, 64, 2);
  Matrix c(64, 64);
  c.zero();
  EXPECT_THROW(gemm(64, 64, 64, 1.0, a.data(), a.ld(), Op::None, b.data(),
                    b.ld(), Op::None, 0.0, c.data(), c.ld(), cfg),
               Error);
  // The throw unwound through the armed session; the global slot must be
  // free again or every later profiled run degrades to "treeprof:busy".
  GemmConfig clean = cfg;
  clean.fault_spec.clear();
  GemmProfile profile;
  EXPECT_LT(run_vs_reference(96, clean, &profile), 1e-10);
  EXPECT_TRUE(profile.tree_measured);
  EXPECT_FALSE(profile.tree_profile.empty());
  EXPECT_FALSE(trail_contains(profile, "treeprof:busy"));
}

// ---------------------------------------------------------------------------
// JSON round-trip.

TEST(TreeprofGemm, TreeProfileRoundTripsThroughJson) {
  GemmConfig cfg;
  cfg.layout = Curve::ZMorton;
  cfg.algorithm = Algorithm::Standard;
  cfg.threads = 1;
  cfg.tree_profile = true;
  GemmProfile profile;
  EXPECT_LT(run_vs_reference(128, cfg, &profile), 1e-10);
  ASSERT_TRUE(profile.tree_measured);
  ASSERT_FALSE(profile.tree_profile.empty());

  const std::string text = profile.to_json();
  GemmProfile parsed;
  ASSERT_TRUE(GemmProfile::from_json(text, parsed));
  EXPECT_EQ(parsed.to_json(), text);
  EXPECT_TRUE(parsed.tree_measured);
  ASSERT_EQ(parsed.tree_profile.size(), profile.tree_profile.size());
  for (std::size_t i = 0; i < parsed.tree_profile.size(); ++i) {
    EXPECT_EQ(parsed.tree_profile[i].key, profile.tree_profile[i].key);
    EXPECT_EQ(parsed.tree_profile[i].time_ns, profile.tree_profile[i].time_ns);
    EXPECT_EQ(parsed.tree_profile[i].flops, profile.tree_profile[i].flops);
    EXPECT_EQ(parsed.tree_profile[i].tasks, profile.tree_profile[i].tasks);
    EXPECT_EQ(parsed.tree_profile[i].hw_valid,
              profile.tree_profile[i].hw_valid);
  }
}

}  // namespace
}  // namespace rla
