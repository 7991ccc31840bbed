#pragma once

// Lightweight runtime-tracing hooks for the work-stealing scheduler.
//
// These are the observability analogue of the race detector's fork-join
// structure hooks (analysis/annotations.hpp): always compiled into
// WorkerPool/TaskGroup, but costing a single relaxed load and a predictable
// branch per spawn/run/wait when no Collector is attached. The heavy lifting
// (ring-buffer event emission, work/span folding) lives out-of-line in
// collector.cpp and only runs while a collector is armed.
//
// Scope objects capture the armed state at construction so a collector
// attaching or detaching mid-task cannot unbalance the thread-local frame
// stack: a scope that pushed a frame always pops it, and a scope that pushed
// nothing never pops.

#include <atomic>
#include <cstdint>

#include "obs/armed_slot.hpp"

namespace rla::obs {

class Collector;

/// Per-task trace identity, carried inside WorkerPool::TaskNode from spawn
/// to execution. All-zero (id == 0) means the task was spawned while no
/// collector was armed.
struct TaskTag {
  std::uint64_t id = 0;       ///< process-unique task id (0 = untraced)
  std::uint64_t parent = 0;   ///< id of the spawning task (0 = none/root)
  std::uint64_t trace = 0;    ///< request trace id (0 = no request scope)
  std::int64_t off_ns = 0;    ///< parent's running span at the spawn point
  std::int64_t spawn_ns = 0;  ///< steady-clock time of the spawn
  int spawn_thread = -1;      ///< uid of the spawning thread (migration check)
};

/// Per-TaskGroup span accumulator: each completed child folds
/// offset + queue-latency + subtree-span in; wait() takes the max into the
/// waiting task's running span. Plain atomic max — no ABA concerns because
/// contributions only grow within one wait round.
struct GroupObs {
  std::atomic<std::int64_t> max_child_ns{0};

  void fold(std::int64_t contribution) noexcept {
    std::int64_t cur = max_child_ns.load(std::memory_order_relaxed);
    while (contribution > cur &&
           !max_child_ns.compare_exchange_weak(cur, contribution,
                                               std::memory_order_relaxed)) {
    }
  }
};

namespace detail {

/// The armed collector (null = tracing off). Set by Collector::try_attach /
/// detach; hooks pin it (obs/armed_slot.hpp) before touching it.
extern ArmedSlot<Collector> g_collector;

// Out-of-line slow paths (collector.cpp). Call only from the scope objects
// below, which guarantee balanced begin/end.
void spawn_hook(TaskTag& tag, std::uint64_t seq);
void inline_begin(std::uint64_t seq);
void run_begin(const TaskTag& tag, std::uint64_t seq);
void task_end(GroupObs* fold_into);
void wait_begin();
void wait_end(GroupObs* fold_from);
void set_worker_hint(int worker_index);

/// This thread's pool worker index (-1 = not a pool worker); labels both
/// trace lanes and perf counter groups.
int worker_hint() noexcept;

}  // namespace detail

/// True while a Collector is armed (one relaxed load).
inline bool armed() noexcept {
  return detail::g_collector.peek() != nullptr;
}

namespace treeprof {
namespace detail {
/// Armed flag for the recursion-tree profiler (obs/treeprof/). Mirrors the
/// session slot in treeprof.cpp; lives here so scheduler waits can check it
/// with one inline relaxed load without pulling in the treeprof header.
extern std::atomic<bool> g_armed;
void wait_begin() noexcept;
void wait_end() noexcept;
}  // namespace detail

/// True while a treeprof::Session is armed (one relaxed load).
inline bool armed() noexcept {
  return detail::g_armed.load(std::memory_order_relaxed);
}
}  // namespace treeprof

/// The request trace id ambient on this thread (0 = none). Unlike the
/// collector hooks this is maintained unconditionally — profiles and the
/// flight recorder need request identity even with no collector armed.
/// Defined in collector.cpp next to the other per-thread trace state.
std::uint64_t current_trace_id() noexcept;
void set_current_trace_id(std::uint64_t trace) noexcept;

/// RAII: make `trace` ambient for the scope, restoring the previous id on
/// exit. Installed by the gemm driver from GemmConfig::trace_id and by the
/// pool when it runs a task (from the spawn-time TaskTag), so the id follows
/// the request across steals.
class TraceIdScope {
 public:
  explicit TraceIdScope(std::uint64_t trace) noexcept
      : prev_(current_trace_id()) {
    set_current_trace_id(trace);
  }
  ~TraceIdScope() { set_current_trace_id(prev_); }
  TraceIdScope(const TraceIdScope&) = delete;
  TraceIdScope& operator=(const TraceIdScope&) = delete;

 private:
  std::uint64_t prev_;
};

/// Stamp a task's trace identity at the parallel spawn point.
inline void on_spawn(TaskTag& tag, std::uint64_t seq) {
  if (armed()) detail::spawn_hook(tag, seq);
}

/// Announce a worker thread's pool index so its trace lane gets a stable
/// name ("worker N"); call once at thread start.
inline void on_worker_start(int worker_index) {
  detail::set_worker_hint(worker_index);
}

/// Serial-pool inline spawn: the task body runs between construction and
/// destruction; the logical fork/join still counts toward measured span.
class InlineTaskScope {
 public:
  InlineTaskScope(GroupObs* group, std::uint64_t seq)
      : group_(group), on_(armed()) {
    if (on_) detail::inline_begin(seq);
  }
  ~InlineTaskScope() {
    if (on_) detail::task_end(group_);
  }
  InlineTaskScope(const InlineTaskScope&) = delete;
  InlineTaskScope& operator=(const InlineTaskScope&) = delete;

 private:
  GroupObs* group_;
  bool on_;
};

/// A queued task executing on a worker (or helping) thread.
class RunTaskScope {
 public:
  RunTaskScope(const TaskTag& tag, std::uint64_t seq, GroupObs* group)
      : group_(group), on_(armed()) {
    if (on_) detail::run_begin(tag, seq);
  }
  ~RunTaskScope() {
    if (on_) detail::task_end(group_);
  }
  RunTaskScope(const RunTaskScope&) = delete;
  RunTaskScope& operator=(const RunTaskScope&) = delete;

 private:
  GroupObs* group_;
  bool on_;
};

/// TaskGroup::wait(): suspends the waiting task's span clock for the
/// duration (helping runs other tasks' frames) and folds the group's child
/// spans into the waiter at the join point — including when wait() rethrows
/// a task exception (the fold happens during unwinding).
class WaitScope {
 public:
  explicit WaitScope(GroupObs* group)
      : group_(group), on_(armed()), tree_on_(treeprof::armed()) {
    if (on_) detail::wait_begin();
    if (tree_on_) treeprof::detail::wait_begin();
  }
  ~WaitScope() {
    if (tree_on_) treeprof::detail::wait_end();
    if (on_) detail::wait_end(group_);
  }
  WaitScope(const WaitScope&) = delete;
  WaitScope& operator=(const WaitScope&) = delete;

 private:
  GroupObs* group_;
  bool on_;
  bool tree_on_;  ///< treeprof armed at construction (same capture rule)
};

}  // namespace rla::obs
