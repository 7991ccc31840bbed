// Tests of the SP-bags determinacy-race detector (src/analysis/).
//
// The detector's bookkeeping (bags, shadow memory, provenance) is driven
// through its public API in every build configuration. The end-to-end
// certification tests — which need the RLA_RACE_READ/WRITE annotations in
// the library's hot paths to be live — are skipped unless the build was
// configured with -DRLA_RACE_DETECT=ON (they run in the race-detect CI job).

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "analysis/race_detect.hpp"
#include "analysis/sp_bags.hpp"
#include "core/rla.hpp"
#include "parallel/worker_pool.hpp"
#include "test_common.hpp"

namespace rla {
namespace {

using analysis::DetectorOptions;
using analysis::RaceDetector;
using analysis::ScopedDetection;
using analysis::Site;

Site site(const char* label) { return Site{"test_analysis.cpp", 0, label}; }

// ---------------------------------------------------------------------------
// SP-bags structure
// ---------------------------------------------------------------------------

TEST(SpBags, NewSetIsSerialUntilTagged) {
  analysis::SpBags bags;
  const std::uint32_t a = bags.make_set();
  EXPECT_FALSE(bags.is_p_bag(a));
  bags.set_p(a, true);
  EXPECT_TRUE(bags.is_p_bag(a));
}

TEST(SpBags, MergeAdoptsRequestedTag) {
  analysis::SpBags bags;
  const std::uint32_t a = bags.make_set();
  const std::uint32_t b = bags.make_set();
  bags.set_p(b, true);
  const std::uint32_t root = bags.merge(a, b, false);  // sync: result is S
  EXPECT_FALSE(bags.is_p_bag(root));
  EXPECT_EQ(bags.find(a), bags.find(b));

  const std::uint32_t c = bags.make_set();
  const std::uint32_t root2 = bags.merge(root, c, true);  // task end: P
  EXPECT_TRUE(bags.is_p_bag(root2));
}

// ---------------------------------------------------------------------------
// Hand-replayed DAGs (work in every build: record() is always compiled)
// ---------------------------------------------------------------------------

TEST(RaceDetect, SiblingWritesRace) {
  RaceDetector det;
  double x = 0.0;
  int group;  // any unique address works as a group key
  static const Site w = site("sibling_write");

  det.task_begin(&group, 0);
  det.record(&w, &x, sizeof x, true);
  det.task_end(&group);
  det.task_begin(&group, 1);
  det.record(&w, &x, sizeof x, true);
  det.task_end(&group);

  ASSERT_EQ(det.race_count(), 1u);
  const analysis::RaceReport& r = det.races().at(0);
  EXPECT_TRUE(r.prior.write);
  EXPECT_TRUE(r.current.write);
  EXPECT_EQ(r.prior.task_path, "R.0");
  EXPECT_EQ(r.current.task_path, "R.1");
  EXPECT_EQ(r.prior.site, &w);
  EXPECT_NE(r.to_string().find("parallel"), std::string::npos);
}

TEST(RaceDetect, ReadThenParallelWriteRaces) {
  RaceDetector det;
  double x = 0.0;
  int group;
  static const Site rd = site("reader");
  static const Site wr = site("writer");

  det.task_begin(&group, 0);
  det.record(&rd, &x, sizeof x, false);
  det.task_end(&group);
  det.task_begin(&group, 1);
  det.record(&wr, &x, sizeof x, true);
  det.task_end(&group);

  ASSERT_EQ(det.race_count(), 1u);
  EXPECT_FALSE(det.races().at(0).prior.write);
  EXPECT_TRUE(det.races().at(0).current.write);
}

TEST(RaceDetect, WaitSerializesSiblings) {
  RaceDetector det;
  double x = 0.0;
  int g1, g2;
  static const Site w = site("serialized_write");

  det.task_begin(&g1, 0);
  det.record(&w, &x, sizeof x, true);
  det.task_end(&g1);
  det.group_sync(&g1);  // wait(): child drains into the root's S-bag
  det.task_begin(&g2, 0);
  det.record(&w, &x, sizeof x, true);
  det.task_end(&g2);

  EXPECT_EQ(det.race_count(), 0u);
}

TEST(RaceDetect, SpawnerContinuationRacesWithChild) {
  RaceDetector det;
  double x = 0.0;
  int group;
  static const Site child = site("child_write");
  static const Site cont = site("continuation_write");

  det.task_begin(&group, 0);
  det.record(&child, &x, sizeof x, true);
  det.task_end(&group);
  // The spawner touches x before wait(): parallel with the child.
  det.record(&cont, &x, sizeof x, true);

  ASSERT_EQ(det.race_count(), 1u);
  EXPECT_EQ(det.races().at(0).prior.task_path, "R.0");
  EXPECT_EQ(det.races().at(0).current.task_path, "R");
}

TEST(RaceDetect, ParallelReaderStaysVisibleBehindSerialReader) {
  // Subtle SP-bags rule: a serial read must not displace a logically
  // parallel reader from the shadow cell, or a later write would miss the
  // race against that parallel reader.
  RaceDetector det;
  double x = 0.0;
  int group;
  static const Site pr = site("parallel_reader");
  static const Site sr = site("serial_reader");
  static const Site w = site("later_writer");

  det.task_begin(&group, 0);
  det.record(&pr, &x, sizeof x, false);
  det.task_end(&group);
  det.record(&sr, &x, sizeof x, false);  // spawner reads too: no race yet
  EXPECT_EQ(det.race_count(), 0u);
  det.task_begin(&group, 1);
  det.record(&w, &x, sizeof x, true);  // must race with the *parallel* read
  det.task_end(&group);

  ASSERT_EQ(det.race_count(), 1u);
  EXPECT_EQ(det.races().at(0).prior.site, &pr);
}

TEST(RaceDetect, NestedSpawnPathsAndTaskCount) {
  RaceDetector det;
  int outer, inner;
  det.task_begin(&outer, 3);
  det.task_begin(&inner, 1);
  EXPECT_EQ(det.task_path(det.current_task()), "R.3.1");
  det.task_end(&inner);
  det.task_end(&outer);
  EXPECT_EQ(det.task_count(), 3u);  // root + two spawned
  EXPECT_EQ(det.task_path(0), "R");
}

TEST(RaceDetect, RacesDeduplicatedBySitePair) {
  RaceDetector det;
  std::vector<double> buf(64, 0.0);
  int group;
  static const Site w = site("bulk_write");

  det.task_begin(&group, 0);
  det.record(&w, buf.data(), buf.size() * sizeof(double), true);
  det.task_end(&group);
  det.task_begin(&group, 1);
  det.record(&w, buf.data(), buf.size() * sizeof(double), true);
  det.task_end(&group);

  // 64 conflicting cells, but one (site, site, kind, kind) signature.
  EXPECT_EQ(det.race_count(), 1u);
  EXPECT_EQ(det.races().size(), 1u);
}

TEST(RaceDetect, ReportCapCountsWithoutStoring) {
  DetectorOptions opts;
  opts.max_reports = 2;
  RaceDetector det(opts);
  double x = 0, y = 0, z = 0;
  int group;
  static const Site s1 = site("race_one");
  static const Site s2 = site("race_two");
  static const Site s3 = site("race_three");

  det.task_begin(&group, 0);
  det.record(&s1, &x, sizeof x, true);
  det.record(&s2, &y, sizeof y, true);
  det.record(&s3, &z, sizeof z, true);
  det.task_end(&group);
  det.task_begin(&group, 1);
  det.record(&s1, &x, sizeof x, true);
  det.record(&s2, &y, sizeof y, true);
  det.record(&s3, &z, sizeof z, true);
  det.task_end(&group);

  EXPECT_EQ(det.race_count(), 3u);
  EXPECT_EQ(det.races().size(), 2u);
}

TEST(RaceDetect, CoarseGranularityMayConflateNeighbors) {
  // Two parallel writes to *different* doubles: exact granularity sees no
  // race; a 64-byte cell merges them (documented false-positive direction —
  // coarsening never loses a real race, it can only add spurious ones).
  double pair[2] = {0.0, 0.0};
  int group;
  static const Site a = site("first_elem");
  static const Site b = site("second_elem");

  for (const std::size_t gran : {sizeof(double), std::size_t{64}}) {
    DetectorOptions opts;
    opts.granularity = gran;
    RaceDetector det(opts);
    det.task_begin(&group, 0);
    det.record(&a, &pair[0], sizeof(double), true);
    det.task_end(&group);
    det.task_begin(&group, 1);
    det.record(&b, &pair[1], sizeof(double), true);
    det.task_end(&group);
    EXPECT_EQ(det.race_count(), gran == sizeof(double) ? 0u : 1u)
        << "granularity " << gran;
  }
}

TEST(RaceDetect, StridedRecordSkipsTheGaps) {
  // Two parallel strided writes whose runs interleave: 2 columns of 2
  // doubles with ld = 4 doubles, offset by 2 rows. No byte overlaps, so no
  // race at exact granularity.
  std::vector<double> block(16, 0.0);
  int group;
  static const Site top = site("top_half");
  static const Site bot = site("bottom_half");

  RaceDetector det;
  det.task_begin(&group, 0);
  det.record_strided(&top, block.data(), 2 * sizeof(double),
                     4 * sizeof(double), 2, true);
  det.task_end(&group);
  det.task_begin(&group, 1);
  det.record_strided(&bot, block.data() + 2, 2 * sizeof(double),
                     4 * sizeof(double), 2, true);
  det.task_end(&group);
  EXPECT_EQ(det.race_count(), 0u);

  // The same two runs made contiguous do overlap.
  RaceDetector det2;
  det2.task_begin(&group, 0);
  det2.record(&top, block.data(), 4 * sizeof(double), true);
  det2.task_end(&group);
  det2.task_begin(&group, 1);
  det2.record(&bot, block.data() + 2, 4 * sizeof(double), true);
  det2.task_end(&group);
  EXPECT_EQ(det2.race_count(), 1u);
}

TEST(RaceDetect, ClearRangeForgetsRecycledBuffers) {
  RaceDetector det;
  double x = 0.0;
  int group;
  static const Site w = site("recycled_write");

  det.task_begin(&group, 0);
  det.record(&w, &x, sizeof x, true);
  det.task_end(&group);
  det.clear_range(&x, sizeof x);  // "free" + "malloc" at the same address
  det.task_begin(&group, 1);
  det.record(&w, &x, sizeof x, true);
  det.task_end(&group);

  EXPECT_EQ(det.race_count(), 0u);
}

TEST(RaceDetect, GroupAddressReuseIsIndependent) {
  // A destroyed group's address may be recycled by a later group; its P-bag
  // must not leak into the new group's bookkeeping.
  RaceDetector det;
  double x = 0.0;
  int group;
  static const Site w = site("reuse_write");

  det.task_begin(&group, 0);
  det.record(&w, &x, sizeof x, true);
  det.task_end(&group);
  det.group_sync(&group);
  det.group_destroyed(&group);

  det.task_begin(&group, 0);  // same address, logically a new group
  det.record(&w, &x, sizeof x, true);
  det.task_end(&group);
  EXPECT_EQ(det.race_count(), 0u);
}

TEST(RaceDetect, ParallelScheduleVoidsCertification) {
  RaceDetector det;
  int group;
  static const Site w = site("any_write");
  double x = 0.0;
  det.task_begin(&group, 0);
  det.record(&w, &x, sizeof x, true);
  det.task_end(&group);
  EXPECT_FALSE(det.schedule_violation());
  det.note_parallel_schedule();
  EXPECT_TRUE(det.schedule_violation());
  EXPECT_FALSE(det.certified());
}

// ---------------------------------------------------------------------------
// Driven by the real TaskGroup hooks (serial pool = depth-first schedule)
// ---------------------------------------------------------------------------

TEST(RaceDetectHooks, TaskGroupSpawnsAreModeledOnSerialPool) {
  RaceDetector det;
  ScopedDetection on(det);
  WorkerPool pool(0);
  double x = 0.0;
  static const Site w = site("spawned_write");
  {
    TaskGroup group(pool);
    group.spawn([&] { det.record(&w, &x, sizeof x, true); });
    group.spawn([&] { det.record(&w, &x, sizeof x, true); });
    group.wait();
  }
  EXPECT_EQ(det.task_count(), 3u);
  ASSERT_EQ(det.race_count(), 1u);
  EXPECT_EQ(det.races().at(0).prior.task_path, "R.0");
  EXPECT_EQ(det.races().at(0).current.task_path, "R.1");
}

TEST(RaceDetectHooks, WaitOnTheRealGroupSerializes) {
  RaceDetector det;
  ScopedDetection on(det);
  WorkerPool pool(0);
  double x = 0.0;
  static const Site w = site("phased_write");
  TaskGroup group(pool);
  group.spawn([&] { det.record(&w, &x, sizeof x, true); });
  group.wait();
  group.spawn([&] { det.record(&w, &x, sizeof x, true); });
  group.wait();
  EXPECT_EQ(det.race_count(), 0u);
}

TEST(RaceDetectHooks, NestedGroupsFollowTheSpawnTree) {
  RaceDetector det;
  ScopedDetection on(det);
  WorkerPool pool(0);
  double x = 0.0;
  static const Site inner_w = site("inner_write");
  static const Site outer_w = site("outer_write");
  {
    TaskGroup outer(pool);
    outer.spawn([&] {
      TaskGroup inner(pool);
      inner.spawn([&] { det.record(&inner_w, &x, sizeof x, true); });
      inner.wait();  // inner child serialized with the rest of this task
    });
    outer.spawn([&] { det.record(&outer_w, &x, sizeof x, true); });
    outer.wait();
  }
  // The two writes are in parallel *outer* siblings: exactly one race, and
  // the prior side is attributed to the nested task R.0.0.
  ASSERT_EQ(det.race_count(), 1u);
  EXPECT_EQ(det.races().at(0).prior.task_path, "R.0.0");
  EXPECT_EQ(det.races().at(0).current.task_path, "R.1");
}

TEST(RaceDetectHooks, ParallelPoolSpawnVoidsCertification) {
  WorkerPool pool(2);
  if (pool.serial()) GTEST_SKIP() << "no worker threads available";
  RaceDetector det;
  ScopedDetection on(det);
  {
    TaskGroup group(pool);
    group.spawn([] {});
    group.wait();
  }
  EXPECT_TRUE(det.schedule_violation());
  EXPECT_FALSE(det.certified());
}

TEST(RaceDetectHooks, ParallelForModelsTasksUnderDetection) {
  // On a serial pool parallel_for normally collapses to one body call; under
  // detection it must still chunk and model tasks, or certification would be
  // vacuous for loop-parallel code.
  RaceDetector det;
  ScopedDetection on(det);
  WorkerPool pool(0);
  pool.parallel_for(0, 256, 64, [](std::uint64_t, std::uint64_t) {});
  EXPECT_GE(det.task_count(), 1u + 4u);
  EXPECT_FALSE(det.schedule_violation());
}

// ---------------------------------------------------------------------------
// End-to-end certification (requires -DRLA_RACE_DETECT=ON)
// ---------------------------------------------------------------------------

/// Run a small gemm under detection and return the profile.
GemmProfile detect_profile(GemmConfig cfg, std::uint32_t m, std::uint32_t n,
                           std::uint32_t k, Op op_a = Op::None,
                           Op op_b = Op::None) {
  cfg.detect_races = true;
  GemmProfile profile;
  const std::uint32_t a_rows = op_a == Op::None ? m : k;
  const std::uint32_t a_cols = op_a == Op::None ? k : m;
  const std::uint32_t b_rows = op_b == Op::None ? k : n;
  const std::uint32_t b_cols = op_b == Op::None ? n : k;
  Matrix a = testing::random_matrix(a_rows, a_cols, 7);
  Matrix b = testing::random_matrix(b_rows, b_cols, 8);
  Matrix c = testing::random_matrix(m, n, 9);
  gemm(m, n, k, 1.25, a.data(), a.ld(), op_a, b.data(), b.ld(), op_b, 0.5,
       c.data(), c.ld(), cfg, &profile);
  return profile;
}

TEST(RaceCertify, UninstrumentedBuildsNeverCertify) {
  if (analysis::instrumented()) GTEST_SKIP() << "build is instrumented";
  GemmConfig cfg;
  cfg.detect_races = true;
  // The run must still compute the right product (the detector only rides
  // along); certification simply cannot be claimed without annotations.
  const double err = testing::gemm_vs_reference(64, 64, 64, 1.0, Op::None,
                                                Op::None, 0.0, cfg);
  EXPECT_LE(err, testing::gemm_tolerance(64, 64, 64));
  const GemmProfile profile = detect_profile(cfg, 64, 64, 64);
  EXPECT_FALSE(profile.race_certified);
  EXPECT_EQ(profile.races, 0);
}

TEST(RaceCertify, AllAlgorithmsAndLayoutsAreDeterminate) {
  if (!analysis::instrumented()) {
    GTEST_SKIP() << "configure with -DRLA_RACE_DETECT=ON";
  }
  for (const Algorithm alg :
       {Algorithm::Standard, Algorithm::Strassen, Algorithm::Winograd}) {
    for (const Curve curve : kAllCurves) {
      if (curve == Curve::RowMajor) continue;  // not a gemm layout
      for (const StandardVariant variant :
           {StandardVariant::Temporaries, StandardVariant::InPlace}) {
        // The standard variant only shapes the Standard DAG.
        if (alg != Algorithm::Standard && variant == StandardVariant::InPlace) continue;
        SCOPED_TRACE(std::string(algorithm_name(alg)) + " / curve " +
                     std::to_string(static_cast<int>(curve)) + " / standard " +
                     std::to_string(static_cast<int>(variant)));
        GemmConfig cfg;
        cfg.algorithm = alg;
        cfg.layout = curve;
        cfg.standard_variant = variant;
        const GemmProfile profile = detect_profile(cfg, 96, 96, 96);
        for (const std::string& report : profile.race_reports) {
          ADD_FAILURE() << report;
        }
        EXPECT_EQ(profile.races, 0);
        EXPECT_TRUE(profile.race_certified);
        EXPECT_GT(profile.race_cells, 0u);
      }
    }
  }
}

TEST(RaceCertify, TransposedAndPaddedShapesAreDeterminate) {
  if (!analysis::instrumented()) {
    GTEST_SKIP() << "configure with -DRLA_RACE_DETECT=ON";
  }
  GemmConfig cfg;
  cfg.algorithm = Algorithm::Strassen;
  cfg.layout = Curve::Hilbert;
  // Non-power-of-two (padded) shape with both operands transposed.
  GemmProfile profile = detect_profile(cfg, 70, 54, 38, Op::Transpose,
                                       Op::Transpose);
  EXPECT_TRUE(profile.race_certified);
  EXPECT_EQ(profile.races, 0);

  cfg.algorithm = Algorithm::Standard;
  cfg.layout = Curve::GrayMorton;
  cfg.skip_zero_tiles = true;  // exercise the zero-tree scan under detection
  profile = detect_profile(cfg, 80, 40, 100);
  EXPECT_TRUE(profile.race_certified);
  EXPECT_EQ(profile.races, 0);
}

TEST(RaceCertify, ThreadRequestIsOverriddenAndRecorded) {
  if (!analysis::instrumented()) {
    GTEST_SKIP() << "configure with -DRLA_RACE_DETECT=ON";
  }
  GemmConfig cfg;
  cfg.threads = 4;  // must be forced onto the serial depth-first schedule
  const GemmProfile profile = detect_profile(cfg, 64, 64, 64);
  EXPECT_TRUE(profile.race_certified);
  bool recorded = false;
  for (const std::string& entry : profile.degradation_trail) {
    if (entry.find("race-detect") != std::string::npos) recorded = true;
  }
  EXPECT_TRUE(recorded) << "serial-schedule override missing from trail";
}

TEST(RaceCertify, SeededRaceIsDetectedWithProvenance) {
  if (!analysis::instrumented()) {
    GTEST_SKIP() << "configure with -DRLA_RACE_DETECT=ON";
  }
  // Seed a genuine determinacy race through the library's own annotations:
  // two sibling tasks both zero the same matrix (Matrix::zero is annotated
  // via AlignedBuffer::zero).
  RaceDetector det;
  ScopedDetection on(det);
  WorkerPool pool(0);
  Matrix m(16, 16);
  {
    TaskGroup group(pool);
    group.spawn([&] { m.zero(); });
    group.spawn([&] { m.zero(); });
    group.wait();
  }
  ASSERT_EQ(det.race_count(), 1u);
  const analysis::RaceReport& r = det.races().at(0);
  EXPECT_TRUE(r.prior.write);
  EXPECT_TRUE(r.current.write);
  EXPECT_EQ(r.prior.task_path, "R.0");
  EXPECT_EQ(r.current.task_path, "R.1");
  ASSERT_NE(r.prior.site, nullptr);
  EXPECT_NE(std::string(r.prior.site->file).find("aligned_buffer.hpp"),
            std::string::npos);
  EXPECT_FALSE(det.certified());
}

TEST(RaceCertify, SeededMacroRaceReportsThisFile) {
  if (!analysis::instrumented()) {
    GTEST_SKIP() << "configure with -DRLA_RACE_DETECT=ON";
  }
  RaceDetector det;
  ScopedDetection on(det);
  WorkerPool pool(0);
  [[maybe_unused]] double shared[8] = {};
  {
    TaskGroup group(pool);
    group.spawn([&] { RLA_RACE_READ(shared, sizeof shared); });
    group.spawn([&] { RLA_RACE_WRITE(shared, sizeof shared); });
    group.wait();
  }
  ASSERT_EQ(det.race_count(), 1u);
  const analysis::RaceReport& r = det.races().at(0);
  EXPECT_FALSE(r.prior.write);
  EXPECT_TRUE(r.current.write);
  ASSERT_NE(r.current.site, nullptr);
  EXPECT_NE(std::string(r.current.site->file).find("test_analysis.cpp"),
            std::string::npos);
}

}  // namespace
}  // namespace rla
