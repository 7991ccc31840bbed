#pragma once

// Recursion-resolved profiler: per-depth / per-quadrant cost attribution
// (DESIGN.md §16).
//
// While a Session is armed, every executed node of the quadrant recursion
// opens a NodeScope keyed by its *quadrant path* — the sequence of child
// indices from the root, packed into a uint64 (see path encoding below) —
// and the scope attributes to that key:
//
//   * exclusive wall time (nested children and group waits pause the clock,
//     mirroring the trace Collector's frame discipline);
//   * FLOPs (leaf multiplies and block-add traffic, via add_flops);
//   * task counts (one per recursion node or forked add task);
//   * PMU deltas — the calling thread's own perf counter group is read at
//     every frame transition and the delta charged to the frame that owned
//     the interval (perf::thread_sample; empty when no perf session counts).
//
// Aggregation is lock-free per worker: each thread owns a single-writer
// table registered with the session once (under a mutex), updated without
// synchronization, and folded after detach()'s quiescence barrier.
//
// Nodes deeper than the session's max_depth do not open frames of their
// own; their cost rolls up into their ancestor at max_depth (the path
// truncated to the cap). A capped node running on a thread whose top frame
// is not that ancestor — a stolen or injected task — opens a frame for the
// ancestor there, so no thread drops or misattributes capped work. That
// bounds table size, trace-ring usage and PMU read frequency, and it is
// what makes the per-depth tables reconcile: every level's exclusive sums
// add up to the whole compute phase.
//
// Path encoding: a 1-sentinel followed by one 3-bit digit per child step
// (standard recursion forks 8 children, Strassen/Winograd 7 products), so
// kRootPath == 1, child 2 of the root == 0b1'010, and depth is the digit
// count. Rendered as "d<depth>" for the root and "d<depth>:<digits>"
// otherwise, e.g. "d3:021".
//
// One Session is armed at a time (a process-global obs::ArmedSlot, as for
// the trace Collector and the perf Session); a second arming attempt fails and
// the caller degrades with a "treeprof:busy" trail entry.

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "obs/hooks.hpp"
#include "obs/perf.hpp"
#include "support/sync.hpp"

namespace rla::obs::treeprof {

/// The root of the recursion tree (the 1-sentinel with no digits).
inline constexpr std::uint64_t kRootPath = 1;

/// Deepest representable path: 1 sentinel bit + 21 three-bit digits = 64.
inline constexpr int kMaxPathDepth = 21;

/// Frame cap when RLA_TREEPROF_MAX_DEPTH is unset.
inline constexpr int kDefaultMaxDepth = 3;

/// Path of child `idx` (0..7) of `path`.
constexpr std::uint64_t child_path(std::uint64_t path, unsigned idx) noexcept {
  return (path << 3) | (idx & 7u);
}

/// Number of 3-bit digits below the sentinel (root = 0).
int path_depth(std::uint64_t path) noexcept;

/// Digit `i` (0 = first step from the root) of `path`.
unsigned path_digit(std::uint64_t path, int i) noexcept;

/// Render "d0" / "d3:021".
std::string path_key(std::uint64_t path);

/// Per-node aggregate. `hw` holds exclusive scaled PMU deltas (mask == 0
/// when no perf session was counting on the attributing threads).
struct NodeStats {
  std::uint64_t time_ns = 0;  ///< exclusive wall time
  std::uint64_t flops = 0;
  std::uint64_t tasks = 0;
  perf::Sample hw;
};

/// One folded tree node.
struct Node {
  std::uint64_t path = kRootPath;
  NodeStats stats;
};

/// Effective frame cap: RLA_TREEPROF_MAX_DEPTH clamped to
/// [0, kMaxPathDepth], default kDefaultMaxDepth.
int default_max_depth();

/// An armed tree-profiling session: owns one single-writer table per
/// participating thread.
class Session {
 public:
  /// Per-thread open-addressed aggregate table (definition in the .cpp;
  /// single writer, read by fold() after detach quiescence).
  struct Table;

  explicit Session(int max_depth = default_max_depth());
  ~Session();
  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  /// Arm this session. False if another session is armed (the caller should
  /// proceed unprofiled and note "treeprof:busy").
  bool try_attach();

  /// Disarm; blocks until every in-flight scope operation has left the
  /// session. fold() is stable after this returns. Idempotent.
  void detach();

  bool attached() const noexcept { return attached_; }
  int max_depth() const noexcept { return max_depth_; }
  std::uint64_t generation() const noexcept { return gen_; }

  /// Merge every thread table into one list, sorted by (depth, path).
  /// Call after detach().
  std::vector<Node> fold() const;

  /// Internal (scope flush path, under the pin protocol): the calling
  /// thread's table, registering one on first use.
  Table* table_for_current_thread();

 private:
  int max_depth_;
  std::uint64_t gen_ = 0;
  bool attached_ = false;
  mutable Mutex mutex_;  // lock-level: registry
  std::vector<std::unique_ptr<Table>> tables_ RLA_GUARDED_BY(mutex_);
};

// armed() and the detail::wait_begin/wait_end brackets TaskGroup::wait()
// calls live in obs/hooks.hpp (inline flag check) and treeprof.cpp.

/// RAII frame for one recursion node (or one forked add task attributed to
/// its node). Construct *after* any delegation/fallback check so a node
/// whose body defers to another algorithm opens exactly one scope.
class NodeScope {
 public:
  explicit NodeScope(std::uint64_t path) noexcept;
  ~NodeScope();
  NodeScope(const NodeScope&) = delete;
  NodeScope& operator=(const NodeScope&) = delete;

 private:
  bool open_ = false;
};

/// Attribute `n` FLOPs to the innermost open frame on this thread (no-op
/// when disarmed or outside any scope). One relaxed load when disarmed.
void add_flops(std::uint64_t n) noexcept;

/// Render (key, value) rows — e.g. GemmProfile::TreeNode key + exclusive
/// time — as flamegraph.pl folded stacks: "gemm;0;2;1 <value>" per line,
/// one stack frame per quadrant digit.
std::string folded_stacks(
    const std::vector<std::pair<std::string, std::uint64_t>>& rows);

}  // namespace rla::obs::treeprof
