#pragma once

// The public dgemm-compatible entry point (paper §2.1, §4).
//
//   C ← α·op(A)·op(B) + β·C
//
// Matrices are column-major with leading dimensions, exactly as Level 3
// BLAS. Internally the driver (for recursive layouts) selects a shared
// recursion depth and tile shape, allocates tiled storage, remaps the
// operands in parallel (fusing transposition and the α/β scaling into the
// remap), runs the selected recursive algorithm, and remaps C back — "an
// honest accounting of costs" for the format conversion, which
// bench_conversion measures.
//
// Wide/lean shapes with no feasible shared depth are split into squat
// submatrix products (paper Fig. 3) that are themselves spawned in parallel
// (row/column splits) or accumulated (inner-dimension splits).

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "core/config.hpp"
#include "core/matrix.hpp"

namespace rla {

/// Cost breakdown of one gemm call (all wall-clock seconds).
/// The per-phase fields are aggregated across any submatrix splits.
struct GemmProfile {
  /// Request-scoped trace id this call ran under (GemmConfig::trace_id;
  /// 0 = no request scope). Joins this profile with the matching Chrome
  /// trace events, flight-recorder records and service metrics.
  std::uint64_t trace_id = 0;

  double convert_in = 0.0;   ///< canonical -> recursive remap (A, B, C)
  double compute = 0.0;      ///< recursive multiplication proper
  double convert_out = 0.0;  ///< recursive -> canonical remap of C
  double total = 0.0;
  int depth = -1;            ///< chosen recursion depth d (last split piece)
  std::uint32_t tile_m = 0, tile_k = 0, tile_n = 0;  ///< chosen tile edges
  /// Binary cuts the wide/lean split made (paper Fig. 3): a shape cut into
  /// p squat pieces counts p - 1 (0 = no splitting).
  int splits = 0;

  /// Graceful-degradation events, in the order the driver took them (empty =
  /// the configured path ran cleanly). Entries are short machine-checkable
  /// strings, e.g. "alloc:<rung>" for each kLadder rung an allocation
  /// failure took ("alloc:fast->serial-lowmem", "alloc:standard-inplace",
  /// "alloc:canonical-inplace"), "pool:requested=8,got=3",
  /// "verify:failed->standard".
  std::vector<std::string> degradation_trail;
  int degradations = 0;      ///< == degradation_trail.size(), for quick asserts

  int verify_probes = 0;            ///< Freivalds probes run (0 = verify off)
  double verify_max_residual = 0.0; ///< worst scaled residual observed
  bool verify_failed = false;       ///< primary run failed the check
  bool verify_rerun = false;        ///< standard-algorithm rerun happened

  // Race-detection results (GemmConfig::detect_races; see src/analysis/).
  int races = 0;                    ///< distinct determinacy races found
  bool race_certified = false;      ///< instrumented run, serial schedule, 0 races
  std::uint64_t race_cells = 0;     ///< shadow cells carrying provenance
  std::vector<std::string> race_reports;  ///< formatted, capped at 64

  // A priori error certification (always filled when the multiply ran; see
  // analysis/numerics/error_bound.hpp). The bound covers the algorithm and
  // depth that actually executed — after any budget capping or degradation —
  // and is the worst (largest) bound across split pieces.
  double bound_constant = 0.0;  ///< ‖C−Ĉ‖_max ≤ constant·u·‖A‖_max·‖B‖_max
  double error_bound = 0.0;     ///< bound_constant · u (relative bound)
  int bound_fast_levels = -1;   ///< fast levels the bound assumed (-1 = not set)

  // Shadow-precision measurements (GemmConfig::analyze_numerics; live only
  // in -DRLA_NUMERICS=ON builds).
  bool numerics_analyzed = false;    ///< instrumented build, analyzer attached
  double observed_abs_error = 0.0;   ///< max |C − shadow| over the output
  double observed_rel_error = 0.0;   ///< observed_abs_error / max |shadow C|
  std::uint64_t cancellations = 0;   ///< accumulation steps that cancelled ≥ 2²⁶
  std::uint64_t shadow_cells = 0;    ///< live shadow cells at measurement
  std::string worst_cell_path;       ///< quadrant path of the worst cell, "R.NW…"

  // FP-hazard capture (GemmConfig::fp_check).
  unsigned fp_hazards = 0;   ///< mask of numerics::kFp* bits observed
  bool fp_degraded = false;  ///< hazard forced a standard-algorithm rerun

  /// Scheduler health for this call (always filled; deltas against the
  /// pool's counters at entry, so an external long-lived pool reports only
  /// this call's activity — except deque_high_water, a pool-lifetime max).
  struct SchedStats {
    unsigned workers = 0;              ///< worker threads actually running
    std::uint64_t tasks = 0;           ///< tasks executed by the pool
    std::uint64_t steals = 0;          ///< successful steals
    std::uint64_t failed_steals = 0;   ///< acquire sweeps that found nothing
    std::uint64_t idle_wakeups = 0;    ///< worker sleeps that ended empty
    std::uint64_t injection_pops = 0;  ///< tasks taken via the injection queue
    std::int64_t deque_high_water = 0; ///< deepest work deque observed
  };
  SchedStats sched;

  // Measured work/span along the executed DAG (GemmConfig::measure, or any
  // trace request). Burdened accounting: each task's spawn-to-start queue
  // latency is charged to the critical path, Cilkview-style.
  bool measured = false;             ///< collector armed for this call
  double measured_work = 0.0;        ///< seconds of exclusive task time (T_1)
  double measured_span = 0.0;        ///< burdened critical path (T_inf)
  double achieved_parallelism = 0.0; ///< measured_work / measured_span
  double parallel_slackness = 0.0;   ///< achieved_parallelism / workers
  std::uint64_t tasks_traced = 0;    ///< task frames the collector closed
  std::uint64_t trace_events_dropped = 0;  ///< ring-buffer overflow losses
  std::string trace_file;            ///< Chrome trace written (empty = none)
  /// Log2-bucketed task-duration histogram in ns: bucket i counts tasks in
  /// [2^i, 2^(i+1)); trimmed to the highest non-empty bucket.
  std::vector<std::uint64_t> task_ns_hist;

  // A priori work/span model (core/work_span) for cross-checking the
  // measured numbers; zero when the shape needs splitting (model N/A).
  double model_work = 0.0;           ///< flop-weighted unit-cost work
  double model_span = 0.0;
  double model_parallelism = 0.0;

  /// One set of multiplexing-scaled hardware-counter values
  /// (raw × time_enabled/time_running; see src/obs/perf.hpp). An event that
  /// could not be opened on this machine stays 0 and is absent from
  /// hw_events.
  struct HwCounters {
    std::uint64_t cycles = 0;
    std::uint64_t instructions = 0;
    std::uint64_t l1d_read_misses = 0;
    std::uint64_t llc_misses = 0;
    std::uint64_t dtlb_misses = 0;
    std::uint64_t task_clock_ns = 0;
  };

  // Hardware performance counters (GemmConfig::hw_counters / RLA_PERF).
  // All-empty when counting was off or unavailable — the trail then carries
  // "perf:unavailable:<reason>".
  bool hw_measured = false;          ///< a counter group was live for this call
  double hw_scale = 1.0;             ///< worst time_running/time_enabled (1 = exact)
  std::vector<std::string> hw_events;  ///< event names that actually counted
  HwCounters hw_total;               ///< whole-call totals over all threads
  /// Per driver-phase counter deltas (convert.in / compute / adds / verify /
  /// convert.out), aggregated across split pieces, in first-seen order.
  std::vector<std::pair<std::string, HwCounters>> hw_phases;

  /// One recursion-tree node's attribution (GemmConfig::tree_profile /
  /// RLA_TREEPROF; see obs/treeprof/). `key` is the quadrant-path key
  /// ("d0", "d3:021"); `time_ns` is *exclusive* wall time (children and
  /// group waits excluded), so sums per depth reconcile against the compute
  /// phase. Nodes deeper than RLA_TREEPROF_MAX_DEPTH roll up into their
  /// ancestor at the cap. `hw` carries exclusive PMU deltas when a perf
  /// session was also counting (hw_valid false = no event counted).
  struct TreeNode {
    std::string key;
    std::uint64_t time_ns = 0;
    std::uint64_t flops = 0;
    std::uint64_t tasks = 0;
    bool hw_valid = false;
    HwCounters hw;
  };

  // Recursion-resolved profile, sorted by (depth, path); empty when
  // profiling was off or the session slot was busy ("treeprof:busy").
  bool tree_measured = false;   ///< a treeprof session was armed for this call
  std::vector<TreeNode> tree_profile;

  /// Serialize every field to a single JSON object (schema documented in
  /// DESIGN.md §10). Machine-readable companion to the trace file.
  std::string to_json() const;

  /// Parse a to_json() string back. Returns false (leaving *out untouched)
  /// on malformed input. to_json(from_json(s)) == s for any s produced by
  /// to_json — the round-trip contract the tests pin down.
  static bool from_json(const std::string& text, GemmProfile& out);
};

/// Degradation-trail entry of a failed gemm() call that had already begun
/// writing C: C then holds neither its input nor the product, so with β ≠ 0
/// a retry on the same C would apply β twice. Without it, a run that failed
/// left C untouched.
inline constexpr std::string_view kTrailCWritten = "fail:c-written";

/// One rung of the degradation ladder: a cheaper configuration to run when
/// the current one does not fit in memory.
struct Rung {
  std::string_view name;               ///< trail name, e.g. "standard-inplace"
  bool (*applies)(const GemmConfig&);  ///< would the transform change cfg?
  void (*apply)(GemmConfig&);          ///< the config transform
};

/// The ladder, in the order its rungs are taken (DESIGN.md §7):
///   fast->serial-lowmem  a Parallel fast algorithm becomes SerialLowMem;
///   standard-inplace     Standard, InPlace, skip_zero_tiles off;
///   canonical-inplace    the layout becomes ColMajor.
/// gemm() takes a rung after std::bad_alloc; GemmService takes one when a
/// request's footprint_bytes does not fit its arena.
extern const std::array<Rung, 3> kLadder;

/// Rewrite cfg by the first rung of kLadder that applies to it. Returns that
/// rung, or null when none applies (cfg is at the floor).
const Rung* take_rung(GemmConfig& cfg);

/// A bound on the bytes a gemm() call holds at once beyond the caller's
/// arrays when it runs cfg on a pool of `workers` threads: the tiled
/// conversion buffers at the depth and split the driver chooses (every
/// piece of a row or column split may be live at once), or the canonical
/// op/α copies and padded squares; plus the recursion temporaries of one
/// root-to-leaf chain, read from the bilinear rows and cfg's variants,
/// times workers + 1 where the schedule forks. One chain per thread assumes bounded help-nesting in
/// TaskGroup::wait(). The Freivalds backup of C (verify or fp_check on a
/// fast algorithm with β ≠ 0) is not counted.
std::size_t footprint_bytes(std::uint32_t m, std::uint32_t n, std::uint32_t k,
                            const GemmConfig& cfg, unsigned workers, double alpha = 1.0,
                            Op op_a = Op::None, Op op_b = Op::None);

/// C (m×n, ldc) ← alpha · op(A) · op(B) + beta · C.
/// op(A) is m×k (A is m×k when op_a == Op::None, k×m otherwise);
/// op(B) is k×n. Throws std::invalid_argument on inconsistent arguments or
/// an invalid cfg (inverted TileRange, out-of-range forced_depth, absurd
/// thread counts, ld×extent products that overflow the address space).
///
/// Allocation failure does not propagate as std::bad_alloc: each piece
/// reruns on the next kLadder rung that applies and records "alloc:<rung>"
/// in GemmProfile::degradation_trail. An attempt that failed after writing
/// C with β ≠ 0 is not rerun; neither is one at the floor. Then gemm()
/// throws rla::Error (kind Allocation, with the trail), and a failure after
/// C was partly written adds kTrailCWritten to the trail.
void gemm(std::uint32_t m, std::uint32_t n, std::uint32_t k, double alpha,
          const double* a, std::size_t lda, Op op_a, const double* b,
          std::size_t ldb, Op op_b, double beta, double* c, std::size_t ldc,
          const GemmConfig& cfg = {}, GemmProfile* profile = nullptr);

/// Convenience: C = A·B on owning matrices (alpha = 1, beta = 0).
void multiply(Matrix& c, const Matrix& a, const Matrix& b,
              const GemmConfig& cfg = {}, GemmProfile* profile = nullptr);

}  // namespace rla
