// Tests of the fault-injection harness, the graceful-degradation ladder in
// the gemm driver, the work-stealing runtime's failure semantics, and the
// Freivalds verification pass.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <new>
#include <stdexcept>
#include <vector>

#include "core/gemm.hpp"
#include "parallel/worker_pool.hpp"
#include "robust/error.hpp"
#include "robust/fault.hpp"
#include "robust/verify.hpp"
#include "test_common.hpp"

namespace rla {
namespace {

using rla::testing::random_matrix;

/// Run cfg against the naive reference on a fresh random problem; returns
/// the max elementwise deviation. Mirrors gemm_vs_reference but keeps the
/// profile so tests can assert on the degradation trail.
double run_vs_reference(std::uint32_t m, std::uint32_t n, std::uint32_t k,
                        double alpha, double beta, const GemmConfig& cfg,
                        GemmProfile* profile = nullptr, std::uint64_t seed = 42) {
  Matrix a = random_matrix(m, k, seed);
  Matrix b = random_matrix(k, n, seed + 1);
  Matrix c = random_matrix(m, n, seed + 2);
  Matrix c_ref = c;
  gemm(m, n, k, alpha, a.data(), a.ld(), Op::None, b.data(), b.ld(), Op::None,
       beta, c.data(), c.ld(), cfg, profile);
  reference_gemm(m, n, k, alpha, a.data(), a.ld(), false, b.data(), b.ld(),
                 false, beta, c_ref.data(), c_ref.ld());
  return max_abs_diff(c.view(), c_ref.view());
}

bool trail_contains(const GemmProfile& profile, std::string_view needle) {
  for (const std::string& step : profile.degradation_trail) {
    if (step.find(needle) != std::string::npos) return true;
  }
  return false;
}

// ---------------------------------------------------------------------------
// Plan parsing and arming.

TEST(FaultPlan, ParsesSitesTriggersAndSeed) {
  fault::FaultPlan plan;
  ASSERT_TRUE(fault::parse_plan(
      "alloc.tiled:nth=3;kernel.corrupt:p=0.25;seed=99", plan));
  EXPECT_EQ(plan.at(fault::Site::AllocTiled).mode, fault::Trigger::Mode::Nth);
  EXPECT_EQ(plan.at(fault::Site::AllocTiled).nth, 3u);
  EXPECT_EQ(plan.at(fault::Site::KernelCorrupt).mode,
            fault::Trigger::Mode::Probability);
  EXPECT_DOUBLE_EQ(plan.at(fault::Site::KernelCorrupt).probability, 0.25);
  EXPECT_EQ(plan.seed, 99u);
  EXPECT_EQ(plan.at(fault::Site::TaskThrow).mode, fault::Trigger::Mode::Off);
  EXPECT_FALSE(plan.empty());
}

TEST(FaultPlan, RejectsMalformedSpecs) {
  fault::FaultPlan plan;
  std::string error;
  EXPECT_FALSE(fault::parse_plan("bogus.site:nth=1", plan, &error));  // rla-lint: bad-site-ok
  EXPECT_NE(error.find("unknown site"), std::string::npos);
  EXPECT_FALSE(fault::parse_plan("alloc.tiled", plan, &error));
  EXPECT_FALSE(fault::parse_plan("alloc.tiled:nth=0", plan, &error));
  EXPECT_FALSE(fault::parse_plan("alloc.tiled:p=1.5", plan, &error));
  EXPECT_FALSE(fault::parse_plan("alloc.tiled:whenever", plan, &error));
  EXPECT_FALSE(fault::parse_plan("seed=notanumber", plan, &error));
  try {
    fault::ScopedPlan bad("nope:nth=1");  // rla-lint: bad-site-ok
    FAIL() << "expected rla::Error{Config}";
  } catch (const Error& e) {
    EXPECT_EQ(e.kind(), ErrorKind::Config);
    EXPECT_EQ(e.site(), "fault.spec");
  }
}

TEST(FaultPlan, RejectsOutOfDomainTriggersInsteadOfClamping) {
  fault::FaultPlan plan;
  std::string error;
  // Negative and >1 probabilities must be rejected, not clamped — a clamped
  // p=-0.3 silently becomes "never fires" and p=1.5 "always fires", both of
  // which falsify what the chaos schedule claims to have tested.
  EXPECT_FALSE(fault::parse_plan("alloc.tiled:p=-0.3", plan, &error));
  EXPECT_NE(error.find("probability"), std::string::npos);
  EXPECT_FALSE(fault::parse_plan("alloc.tiled:p=1.0001", plan, &error));
  EXPECT_FALSE(fault::parse_plan("alloc.tiled:p=nan", plan, &error));
  EXPECT_FALSE(fault::parse_plan("alloc.tiled:p=inf", plan, &error));
  // Non-numeric counts must not strtoull-wrap into huge positives.
  EXPECT_FALSE(fault::parse_plan("alloc.tiled:nth=-1", plan, &error));
  EXPECT_FALSE(fault::parse_plan("alloc.tiled:nth=1x", plan, &error));
  EXPECT_FALSE(fault::parse_plan("seed=-7", plan, &error));
  // Domain edges stay accepted.
  EXPECT_TRUE(fault::parse_plan("alloc.tiled:p=0", plan));
  EXPECT_TRUE(fault::parse_plan("alloc.tiled:p=1", plan));
}

TEST(FaultPlan, ProbabilisticTriggersAreStatelessPerHitIndex) {
  // The decision for hit i must be a pure function of (seed, site, i): two
  // arms of the same plan replay the identical fault pattern, which is what
  // makes concurrent chaos schedules reproducible.
  std::vector<bool> first, second;
  {
    fault::ScopedPlan guard("task.throw:p=0.5;seed=1234");
    for (int i = 0; i < 64; ++i) {
      first.push_back(fault::should_fail(fault::Site::TaskThrow));
    }
  }
  {
    fault::ScopedPlan guard("task.throw:p=0.5;seed=1234");
    for (int i = 0; i < 64; ++i) {
      second.push_back(fault::should_fail(fault::Site::TaskThrow));
    }
  }
  EXPECT_EQ(first, second);
  EXPECT_NE(std::count(first.begin(), first.end(), true), 0);
  EXPECT_NE(std::count(first.begin(), first.end(), false), 0);
  // A different seed produces a different pattern (with 2^-64 luck).
  std::vector<bool> reseeded;
  {
    fault::ScopedPlan guard("task.throw:p=0.5;seed=99");
    for (int i = 0; i < 64; ++i) {
      reseeded.push_back(fault::should_fail(fault::Site::TaskThrow));
    }
  }
  EXPECT_NE(first, reseeded);
}

TEST(FaultPlan, DisarmedSitesNeverFire) {
  fault::disarm();
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(fault::should_fail(fault::Site::AllocTiled));
  }
}

TEST(FaultPlan, NthTriggerFiresExactlyOnce) {
  fault::ScopedPlan guard("task.throw:nth=3");
  int fired = 0;
  for (int i = 0; i < 10; ++i) {
    if (fault::should_fail(fault::Site::TaskThrow)) ++fired;
  }
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(fault::hits(fault::Site::TaskThrow), 10u);
}

// ---------------------------------------------------------------------------
// Allocation-failure degradation in the gemm driver.

TEST(FaultGemm, AllocTiledFailureDegradesAndStaysCorrect) {
  GemmConfig cfg;
  cfg.layout = Curve::ZMorton;
  cfg.fault_spec = "alloc.tiled:nth=1";
  GemmProfile profile;
  EXPECT_LT(run_vs_reference(96, 96, 96, 1.0, 0.5, cfg, &profile), 1e-10);
  EXPECT_GE(profile.degradations, 1);
  EXPECT_TRUE(trail_contains(profile, "alloc:"));
}

TEST(FaultGemm, AllocTempFailureFallsBackToSerialLowMem) {
  GemmConfig cfg;
  cfg.layout = Curve::ZMorton;
  cfg.algorithm = Algorithm::Strassen;
  cfg.fault_spec = "alloc.temp:nth=1";
  GemmProfile profile;
  EXPECT_LT(run_vs_reference(80, 80, 80, 1.0, 0.0, cfg, &profile), 1e-9);
  EXPECT_TRUE(trail_contains(profile, "alloc:fast->serial-lowmem"));
}

TEST(FaultGemm, PersistentAllocFailureWalksWholeLadder) {
  // p=1 keeps every tiled-piece attempt failing, so the driver must walk all
  // the way down to the canonical in-place path — and still be right.
  GemmConfig cfg;
  cfg.layout = Curve::Hilbert;
  cfg.algorithm = Algorithm::Strassen;
  cfg.fault_spec = "alloc.tiled:p=1";
  GemmProfile profile;
  EXPECT_LT(run_vs_reference(64, 64, 64, 1.0, 1.0, cfg, &profile), 1e-10);
  EXPECT_EQ(profile.degradations, 3);
  EXPECT_TRUE(trail_contains(profile, "alloc:fast->serial-lowmem"));
  EXPECT_TRUE(trail_contains(profile, "alloc:standard-inplace"));
  EXPECT_TRUE(trail_contains(profile, "alloc:canonical-inplace"));
}

/// The degradation-trail entries of the form "alloc:<rung>", with any
/// ",..." qualifier dropped, in the order the driver took them.
std::vector<std::string> alloc_rungs(const GemmProfile& profile) {
  std::vector<std::string> rungs;
  for (const std::string& step : profile.degradation_trail) {
    if (step.rfind("alloc:", 0) == 0) rungs.push_back(step.substr(0, step.find(',')));
  }
  return rungs;
}

TEST(FaultGemm, SplitPieceDegradesAfterASiblingWroteC) {
  // A scaled-down panel update (m = n ≫ k) splits into squat pieces that
  // run one after another on the serial pool. The first piece writes its
  // part of C; the second piece's tiled allocation then fails. C outside
  // that piece is no concern of its retry, so the piece must still degrade
  // rather than fail the call over a sibling's write.
  GemmConfig cfg;
  cfg.layout = Curve::ZMorton;
  cfg.fault_spec = "alloc.tiled:nth=2";
  GemmProfile profile;
  EXPECT_LT(run_vs_reference(128, 128, 16, 1.0, 1.0, cfg, &profile), 1e-10);
  EXPECT_GT(profile.splits, 0);
  EXPECT_TRUE(trail_contains(profile, "alloc:"));
  EXPECT_FALSE(trail_contains(profile, kTrailCWritten));
}

TEST(FaultGemm, PersistentAllocFailureWalksWholeLadderOnEachSplitPiece) {
  // Every split piece walks the same three rungs, in the same order.
  GemmConfig cfg;
  cfg.layout = Curve::Hilbert;
  cfg.algorithm = Algorithm::Strassen;
  cfg.fault_spec = "alloc.tiled:p=1";
  GemmProfile profile;
  EXPECT_LT(run_vs_reference(128, 128, 16, 1.0, 1.0, cfg, &profile), 1e-10);
  ASSERT_GT(profile.splits, 0);
  std::vector<std::string> expected;
  for (int piece = 0; piece <= profile.splits; ++piece) {
    for (const char* rung : {"alloc:fast->serial-lowmem", "alloc:standard-inplace",
                             "alloc:canonical-inplace"}) {
      expected.emplace_back(rung);
    }
  }
  EXPECT_EQ(alloc_rungs(profile), expected);
}

TEST(FaultGemm, ParallelAllocFailureCancelsSiblingsAndRetries) {
  // The bad_alloc fires inside a spawned task: the piece's cancellation flag
  // must prune the sibling subtrees, the groups drain, and the driver
  // retries the piece — result still exact.
  GemmConfig cfg;
  cfg.layout = Curve::ZMorton;
  cfg.algorithm = Algorithm::Strassen;
  cfg.threads = 4;
  cfg.fault_spec = "alloc.temp:nth=5";
  GemmProfile profile;
  EXPECT_LT(run_vs_reference(128, 128, 128, 1.0, 0.0, cfg, &profile), 1e-9);
  EXPECT_GE(profile.degradations, 1);
}

TEST(FaultGemm, CanonicalFastPathFallsBackToStandard) {
  // The padded copies fail before C is written; the canonical call then
  // takes the ladder's first rung, as a tiled one does.
  GemmConfig cfg;
  cfg.layout = Curve::ColMajor;
  cfg.algorithm = Algorithm::Winograd;
  cfg.fault_spec = "alloc.temp:nth=1";
  GemmProfile profile;
  EXPECT_LT(run_vs_reference(72, 72, 72, 1.0, 2.0, cfg, &profile), 1e-10);
  EXPECT_EQ(alloc_rungs(profile), std::vector<std::string>{"alloc:fast->serial-lowmem"});
}

TEST(FaultGemm, CanonicalLastRungAllocatesNothing) {
  // Every temporary fails: neither fast schedule can even pad its operands,
  // and the walk ends on the in-place standard recursion, which allocates
  // nothing.
  GemmConfig cfg;
  cfg.layout = Curve::ColMajor;
  cfg.algorithm = Algorithm::Strassen;
  cfg.threads = 4;
  cfg.fault_spec = "alloc.temp:p=1";
  GemmProfile profile;
  EXPECT_LT(run_vs_reference(96, 96, 96, 1.0, 0.5, cfg, &profile), 1e-10);
  EXPECT_EQ(alloc_rungs(profile),
            (std::vector<std::string>{"alloc:fast->serial-lowmem",
                                      "alloc:standard-inplace"}));
}

TEST(FaultGemm, CanonicalMidTreeAllocFailurePrunesSiblings) {
  // alloc.temp draws once for the padded buffers, then 17 times for the
  // root node's temporaries, so the 30th draw fails inside the first forked
  // product node. Race detection runs the forked task DAG on the serial
  // depth-first schedule, which makes the pruning exact: the call-local
  // abort flag must stop the six sibling products at their entry, so the
  // fast attempt leaves only the root's ten pre-add passes behind before
  // the ladder reruns the call on its first rung, Strassen SerialLowMem,
  // which is therefore the baseline.
  constexpr std::uint32_t kN = 128, kHalf = kN / 2;
  GemmConfig cfg;
  cfg.layout = Curve::ColMajor;
  cfg.standard_variant = StandardVariant::InPlace;
  cfg.detect_races = true;
  cfg.tree_profile = true;
  cfg.algorithm = Algorithm::Strassen;
  auto flops_of = [&](FastVariant variant, const char* spec, GemmProfile* profile) {
    GemmConfig run = cfg;
    run.fast_variant = variant;
    run.fault_spec = spec;
    EXPECT_LT(run_vs_reference(kN, kN, kN, 1.0, 0.5, run, profile), 1e-10);
    EXPECT_TRUE(profile->tree_measured);
    std::uint64_t total = 0;
    for (const auto& node : profile->tree_profile) total += node.flops;
    return total;
  };
  GemmProfile baseline, faulted;
  const std::uint64_t baseline_flops =
      flops_of(FastVariant::SerialLowMem, "", &baseline);
  const std::uint64_t faulted_flops =
      flops_of(FastVariant::Parallel, "alloc.temp:nth=30", &faulted);
  EXPECT_TRUE(trail_contains(faulted, "alloc:fast->serial-lowmem"));
  EXPECT_EQ(faulted_flops, baseline_flops + 10ull * kHalf * kHalf);

  // The same failure on a worker thread: siblings already running finish
  // their current node, the groups drain, and the rerun is exact.
  GemmConfig par = cfg;
  par.detect_races = false;
  par.threads = 4;
  par.fault_spec = "alloc.temp:nth=30";
  GemmProfile profile;
  EXPECT_LT(run_vs_reference(2 * kN, 2 * kN, 2 * kN, 1.0, 0.5, par, &profile), 1e-9);
  EXPECT_TRUE(trail_contains(profile, "alloc:fast->serial-lowmem"));
}

TEST(FaultGemm, CanonicalStandardFailureNeverRerunsOverAWrittenC) {
  // The canonical standard recursion writes C in place, here reached both
  // as configured and from Strassen through an error budget no fast
  // algorithm meets. alloc.temp:nth=6 fails in the first node below the
  // root, after C was scaled by β and partly accumulated. With β ≠ 0 a
  // rerun would apply β twice, so the call must fail and say that C was
  // written; with β = 0 the in-place rerun overwrites C and is exact.
  for (const Algorithm alg : {Algorithm::Standard, Algorithm::Strassen}) {
    SCOPED_TRACE(static_cast<int>(alg));
    GemmConfig cfg;
    cfg.layout = Curve::ColMajor;
    cfg.algorithm = alg;
    cfg.error_budget = alg == Algorithm::Standard ? 0.0 : 1e-20;
    cfg.fault_spec = "alloc.temp:nth=6";
    GemmProfile written;
    try {
      run_vs_reference(96, 96, 96, 1.0, 1.0, cfg, &written);
      ADD_FAILURE() << "the call reran over a C it had already written";
    } catch (const Error& e) {
      EXPECT_EQ(e.kind(), ErrorKind::Allocation);
    }
    EXPECT_TRUE(trail_contains(written, kTrailCWritten));
    EXPECT_FALSE(trail_contains(written, "alloc:"));

    GemmProfile overwritten;
    EXPECT_LT(run_vs_reference(96, 96, 96, 1.0, 0.0, cfg, &overwritten), 1e-10);
    EXPECT_TRUE(trail_contains(overwritten, "alloc:standard-inplace"));
    EXPECT_FALSE(trail_contains(overwritten, kTrailCWritten));
  }
}

// ---------------------------------------------------------------------------
// Worker-pool thread-creation failure.

TEST(FaultPool, ThreadCreateFailureDegradesPool) {
  fault::ScopedPlan guard("pool.thread_create:nth=3");
  WorkerPool pool(4);
  EXPECT_EQ(pool.requested_threads(), 4u);
  EXPECT_EQ(pool.thread_count(), 2u);  // threads 1-2 created, 3rd failed
  EXPECT_EQ(pool.thread_create_failures(), 2u);
  // The degraded pool still executes work.
  std::atomic<int> done{0};
  TaskGroup group(pool);
  for (int i = 0; i < 100; ++i) group.spawn([&done] { ++done; });
  group.wait();
  EXPECT_EQ(done.load(), 100);
}

TEST(FaultPool, TotalThreadCreateFailureMeansSerial) {
  fault::ScopedPlan guard("pool.thread_create:nth=1");
  WorkerPool pool(8);
  EXPECT_EQ(pool.thread_count(), 0u);
  EXPECT_TRUE(pool.serial());
  std::atomic<int> done{0};
  TaskGroup group(pool);
  group.spawn([&done] { ++done; });
  group.wait();
  EXPECT_EQ(done.load(), 1);
}

TEST(FaultPool, GemmRecordsPoolDegradation) {
  GemmConfig cfg;
  cfg.layout = Curve::ZMorton;
  cfg.threads = 4;
  cfg.fault_spec = "pool.thread_create:nth=2";
  GemmProfile profile;
  EXPECT_LT(run_vs_reference(64, 64, 64, 1.0, 0.0, cfg, &profile), 1e-10);
  EXPECT_TRUE(trail_contains(profile, "pool:requested=4,got=1"));
}

// ---------------------------------------------------------------------------
// Task exceptions: propagation, determinism, cancellation, swallow stat.

TEST(FaultTask, InjectedTaskThrowPropagatesAsError) {
  GemmConfig cfg;
  cfg.layout = Curve::ZMorton;
  cfg.fault_spec = "task.throw:nth=1";
  Matrix a = random_matrix(64, 64, 1), b = random_matrix(64, 64, 2);
  Matrix c(64, 64);
  c.zero();
  try {
    gemm(64, 64, 64, 1.0, a.data(), a.ld(), Op::None, b.data(), b.ld(), Op::None,
         0.0, c.data(), c.ld(), cfg);
    FAIL() << "expected rla::Error";
  } catch (const Error& e) {
    EXPECT_EQ(e.kind(), ErrorKind::TaskFailure);
    EXPECT_EQ(e.site(), "task.throw");
  }
}

TEST(FaultTask, SerialThrowUnwindsWithoutVisitingRestOfTree) {
  // Serial recursion: node entries are deterministic, so an injected throw
  // at the 3rd node must leave the hit counter at exactly 3 — the rest of
  // the tree was never entered.
  GemmConfig cfg;
  cfg.layout = Curve::ZMorton;
  Matrix a = random_matrix(64, 64, 1), b = random_matrix(64, 64, 2);
  Matrix c(64, 64);
  c.zero();
  std::uint64_t clean_nodes = 0;
  {
    // Count node entries of a clean run via a trigger that never fires.
    cfg.fault_spec = "task.throw:nth=1000000000";
    gemm(64, 64, 64, 1.0, a.data(), a.ld(), Op::None, b.data(), b.ld(), Op::None,
         0.0, c.data(), c.ld(), cfg);
    clean_nodes = fault::hits(fault::Site::TaskThrow);
    EXPECT_GT(clean_nodes, 3u);
  }
  cfg.fault_spec = "task.throw:nth=3";
  EXPECT_THROW(gemm(64, 64, 64, 1.0, a.data(), a.ld(), Op::None, b.data(),
                    b.ld(), Op::None, 0.0, c.data(), c.ld(), cfg),
               Error);
  EXPECT_EQ(fault::hits(fault::Site::TaskThrow), 3u);
}

TEST(FaultTask, FirstExceptionBySpawnOrderWinsDeterministically) {
  // Two tasks throw different types; wait() must always deliver the one
  // with the lower spawn index, whatever order the workers ran them in.
  WorkerPool pool(4);
  for (int round = 0; round < 20; ++round) {
    TaskGroup group(pool);
    for (int i = 0; i < 10; ++i) group.spawn([] {});
    group.spawn([] { throw std::runtime_error("first"); });  // seq 10
    for (int i = 0; i < 10; ++i) group.spawn([] {});
    group.spawn([] { throw std::logic_error("second"); });   // seq 21
    EXPECT_THROW(group.wait(), std::runtime_error);
  }
}

TEST(FaultTask, NestedGroupsPropagateInnerException) {
  WorkerPool pool(2);
  TaskGroup outer(pool);
  outer.spawn([&pool] {
    TaskGroup inner(pool);
    inner.spawn([] { throw Error(ErrorKind::TaskFailure, "inner", "deep"); });
    inner.wait();  // rethrows into the outer task, which records it
  });
  EXPECT_THROW(outer.wait(), Error);
}

TEST(FaultTask, CancellationFlagSetOnFirstFailure) {
  WorkerPool pool(2);
  std::atomic<bool> cancel{false};
  TaskGroup group(pool, &cancel);
  group.spawn([] { throw std::runtime_error("boom"); });
  EXPECT_THROW(group.wait(), std::runtime_error);
  EXPECT_TRUE(cancel.load());
  // A second group wired to the same flag observes the cancellation.
  TaskGroup sibling(pool, &cancel);
  EXPECT_TRUE(sibling.cancelled());
}

TEST(FaultTask, SwallowedExceptionsAreCounted) {
  WorkerPool pool(2);
  EXPECT_EQ(pool.exceptions_swallowed(), 0u);
  {
    TaskGroup group(pool);
    group.spawn([] { throw std::runtime_error("dropped"); });
    // No wait(): the destructor must not throw, but must count the loss.
  }
  EXPECT_EQ(pool.exceptions_swallowed(), 1u);
  // Observed exceptions are not counted.
  {
    TaskGroup group(pool);
    group.spawn([] { throw std::runtime_error("seen"); });
    EXPECT_THROW(group.wait(), std::runtime_error);
  }
  EXPECT_EQ(pool.exceptions_swallowed(), 1u);
}

// ---------------------------------------------------------------------------
// Freivalds verification.

TEST(Verify, FreivaldsAcceptsCorrectProduct) {
  Matrix a = random_matrix(40, 30, 1), b = random_matrix(30, 20, 2);
  Matrix c(40, 20);
  c.zero();
  reference_gemm(40, 20, 30, 1.0, a.data(), a.ld(), false, b.data(), b.ld(),
                 false, 0.0, c.data(), c.ld());
  FreivaldsCheck check(40, 20, 4, 7);
  check.capture(c.data(), c.ld(), 0.0);
  const VerifyResult result = check.check(30, 1.0, a.data(), a.ld(), false,
                                          b.data(), b.ld(), false, c.data(),
                                          c.ld(), 1e-8);
  EXPECT_TRUE(result.ok);
  EXPECT_EQ(result.probes, 4);
  EXPECT_LT(result.max_scaled_residual, 1e-10);
}

TEST(Verify, FreivaldsRejectsCorruptedProduct) {
  Matrix a = random_matrix(32, 32, 3), b = random_matrix(32, 32, 4);
  Matrix c(32, 32);
  c.zero();
  reference_gemm(32, 32, 32, 1.0, a.data(), a.ld(), false, b.data(), b.ld(),
                 false, 0.0, c.data(), c.ld());
  c(17, 5) += 1.0;  // single-element corruption
  FreivaldsCheck check(32, 32, 4, 11);
  const VerifyResult result = check.check(32, 1.0, a.data(), a.ld(), false,
                                          b.data(), b.ld(), false, c.data(),
                                          c.ld(), 1e-8);
  EXPECT_FALSE(result.ok);
}

TEST(Verify, CleanFastRunPassesWithoutRerun) {
  GemmConfig cfg;
  cfg.layout = Curve::ZMorton;
  cfg.algorithm = Algorithm::Winograd;
  cfg.verify = true;
  GemmProfile profile;
  EXPECT_LT(run_vs_reference(96, 96, 96, 1.0, 0.5, cfg, &profile), 1e-9);
  EXPECT_EQ(profile.verify_probes, 2);
  EXPECT_FALSE(profile.verify_failed);
  EXPECT_FALSE(profile.verify_rerun);
}

TEST(Verify, KernelCorruptionIsCaughtAndRerunFixesIt) {
  // The injected leaf-kernel corruption must be detected by the Freivalds
  // pass, and the automatic standard-algorithm rerun must restore C (beta
  // != 0 exercises the backup/restore path).
  GemmConfig cfg;
  cfg.layout = Curve::ZMorton;
  cfg.algorithm = Algorithm::Strassen;
  cfg.verify = true;
  cfg.fault_spec = "kernel.corrupt:nth=1";
  GemmProfile profile;
  EXPECT_LT(run_vs_reference(64, 64, 64, 1.0, 0.5, cfg, &profile), 1e-10);
  EXPECT_TRUE(profile.verify_failed);
  EXPECT_TRUE(profile.verify_rerun);
  EXPECT_TRUE(trail_contains(profile, "verify:failed->standard"));
}

TEST(Verify, KernelCorruptionBetaZero) {
  GemmConfig cfg;
  cfg.layout = Curve::Hilbert;
  cfg.algorithm = Algorithm::Winograd;
  cfg.verify = true;
  cfg.verify_probes = 3;
  cfg.fault_spec = "kernel.corrupt:nth=2";
  GemmProfile profile;
  EXPECT_LT(run_vs_reference(80, 80, 80, 2.0, 0.0, cfg, &profile), 1e-9);
  EXPECT_TRUE(profile.verify_rerun);
}

TEST(Verify, StandardAlgorithmIgnoresVerifyFlag) {
  GemmConfig cfg;
  cfg.layout = Curve::ZMorton;
  cfg.algorithm = Algorithm::Standard;
  cfg.verify = true;
  cfg.fault_spec = "kernel.corrupt:nth=1";
  GemmProfile profile;
  // Standard runs unverified, so the corruption lands in C: the product must
  // differ from the reference (this documents that verify guards fast
  // algorithms only).
  EXPECT_GT(run_vs_reference(64, 64, 64, 1.0, 0.0, cfg, &profile), 1.0);
  EXPECT_EQ(profile.verify_probes, 0);
}

TEST(Verify, RerunThatStillFailsThrowsWithTrailAndProfile) {
  // Every leaf call corrupts, so the Standard rerun fails the check too: the
  // driver gives up with VerificationFailed, after filling the profile.
  GemmConfig cfg;
  cfg.layout = Curve::ZMorton;
  cfg.algorithm = Algorithm::Strassen;
  cfg.verify = true;
  cfg.fault_spec = "kernel.corrupt:p=1";
  GemmProfile profile;
  try {
    run_vs_reference(64, 64, 64, 1.0, 0.5, cfg, &profile);
    FAIL() << "expected rla::Error{VerificationFailed}";
  } catch (const Error& e) {
    EXPECT_EQ(e.kind(), ErrorKind::VerificationFailed);
    EXPECT_NE(std::string(e.what()).find(
                  "standard-algorithm rerun still fails verification"),
              std::string::npos)
        << e.what();
    EXPECT_NE(std::find(e.trail().begin(), e.trail().end(),
                        "verify:failed->standard"),
              e.trail().end());
  }
  EXPECT_TRUE(profile.verify_failed);
  EXPECT_TRUE(profile.verify_rerun);
  EXPECT_TRUE(trail_contains(profile, "verify:failed->standard"));
}

}  // namespace
}  // namespace rla
