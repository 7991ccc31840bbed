#pragma once

// Work-stealing thread pool with fork-join task groups.
//
// This is the substrate standing in for the Cilk runtime the paper used: the
// matrix-multiplication recursion spawns its 7 or 8 sub-multiplications as
// tasks, and a TaskGroup::wait() *helps* (runs other ready tasks) instead of
// blocking, which is what makes nested fork-join parallelism efficient.
//
// A WorkerPool with zero threads degrades to a serial executor: spawn runs
// the task inline and wait is a no-op. All algorithms are written against
// this one interface.
//
// Robustness contract:
//  * Construction never fails for lack of threads. If creating worker thread
//    i fails (std::system_error from std::thread, or the injected
//    `pool.thread_create` fault site), the pool keeps the i threads it
//    already has — down to zero, i.e. a serial pool — and records the
//    shortfall in thread_create_failures().
//  * Task exceptions are recorded per group and rethrown by wait(). "First"
//    is deterministic: among all failed tasks of a group, the one with the
//    lowest spawn index wins, regardless of scheduling order.
//  * A TaskGroup may carry a cancellation flag (shared across nested
//    groups); it is set as soon as any task in any group wired to it throws,
//    so cooperating recursions can stop descending early. The flag is
//    advisory — tasks already running are not interrupted.

#include <atomic>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <random>
#include <thread>
#include <vector>

#include "analysis/annotations.hpp"
#include "obs/hooks.hpp"
#include "parallel/chase_lev_deque.hpp"
#include "support/sync.hpp"

namespace rla {

namespace obs {
class Registry;
}

class TaskGroup;

/// Fork-join work-stealing pool.
class WorkerPool {
 public:
  /// Attempts to create `threads` worker threads; 0 gives a serial pool
  /// where spawn executes inline (useful as a baseline and for
  /// deterministic tests). Thread-creation failure degrades the pool to the
  /// threads obtained so far instead of throwing (see header comment).
  explicit WorkerPool(unsigned threads);
  ~WorkerPool();

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  unsigned thread_count() const noexcept {
    return static_cast<unsigned>(workers_.size());
  }

  /// Threads the constructor was asked for (>= thread_count()).
  unsigned requested_threads() const noexcept { return requested_; }

  bool serial() const noexcept { return workers_.empty(); }

  /// Parallel loop over [begin, end): body(b, e) is invoked on disjoint
  /// sub-ranges of at most `grain` iterations. Blocks until all complete.
  /// `priority` orders the chunks in the injection queue when the caller is
  /// not a pool worker (see TaskGroup).
  void parallel_for(std::uint64_t begin, std::uint64_t end, std::uint64_t grain,
                    const std::function<void(std::uint64_t, std::uint64_t)>& body,
                    int priority = 0);

  /// Tasks executed since construction (for tests and scheduler stats).
  std::uint64_t tasks_executed() const noexcept {
    return tasks_executed_.load(std::memory_order_relaxed);
  }

  /// Total successful steals (scheduler stat; load-balance diagnostics).
  std::uint64_t steals() const noexcept {
    return steals_.load(std::memory_order_relaxed);
  }

  /// Scheduler health counters for one steal slot (a worker, or the shared
  /// "external" slot covering non-worker threads helping in wait()).
  struct SchedStats {
    std::uint64_t steals = 0;          ///< successful steals
    std::uint64_t failed_steals = 0;   ///< acquire sweeps that found nothing
    std::uint64_t idle_wakeups = 0;    ///< sleeps that ended without work
    std::uint64_t injection_pops = 0;  ///< tasks taken from the injection queue
    std::int64_t deque_high_water = 0; ///< deepest deque (injection queue for
                                       ///< the external slot) observed
  };

  /// Per-worker counters plus one trailing entry for external threads
  /// (thread_count() + 1 entries; a serial pool returns just the external
  /// entry, which stays all-zero since serial spawns run inline).
  std::vector<SchedStats> sched_snapshot() const;

  /// Pool-wide totals in one read: steals (== steals()), failed steals and
  /// injection pops summed over every slot, idle wake-ups summed over the
  /// workers only (a serial pool has no worker loop), and the deepest worker
  /// deque observed.
  SchedStats sched_totals() const noexcept;

  /// Worker threads the constructor failed to create (0 = full strength).
  unsigned thread_create_failures() const noexcept {
    return requested_ - thread_count();
  }

  /// Task exceptions dropped by TaskGroup destructors that ran before any
  /// wait() observed them (see ~TaskGroup). A nonzero value means some code
  /// path discarded errors; it should be treated as a bug in that path.
  std::uint64_t exceptions_swallowed() const noexcept {
    return exceptions_swallowed_.load(std::memory_order_relaxed);
  }

 private:
  friend class TaskGroup;

  struct TaskNode {
    std::function<void()> fn;
    TaskGroup* group = nullptr;
    std::uint64_t seq = 0;  ///< spawn index within the group
    int priority = 0;       ///< injection-queue ordering (higher pops first)
    obs::TaskTag tag;       ///< trace identity (all-zero when untraced)
  };

  /// Atomic backing for one SchedStats slot; hammered relaxed on the
  /// scheduler's idle/steal paths, snapshotted by the accessors.
  struct SchedCounters {
    std::atomic<std::uint64_t> steals{0};
    std::atomic<std::uint64_t> failed_steals{0};
    std::atomic<std::uint64_t> idle_wakeups{0};
    std::atomic<std::uint64_t> injection_pops{0};
    std::atomic<std::int64_t> deque_high_water{0};

    SchedStats snapshot() const noexcept {
      return {steals.load(std::memory_order_relaxed),
              failed_steals.load(std::memory_order_relaxed),
              idle_wakeups.load(std::memory_order_relaxed),
              injection_pops.load(std::memory_order_relaxed),
              deque_high_water.load(std::memory_order_relaxed)};
    }
  };

  struct Worker {
    ChaseLevDeque<TaskNode*> deque;
    std::thread thread;
    SchedCounters sched;
  };

  void enqueue(TaskNode* node) RLA_EXCLUDES(injection_mutex_);
  // own deque -> injection queue -> steal
  TaskNode* try_acquire(int self) RLA_EXCLUDES(injection_mutex_);
  void run_node(TaskNode* node);
  void worker_main(int index);
  void wait_for_start();
  static int current_worker_index() noexcept;

  /// The counter slot for the calling thread: its worker's, or external_.
  SchedCounters& sched_slot(int self) noexcept {
    return self >= 0 ? workers_[static_cast<std::size_t>(self)]->sched
                     : external_;
  }

  std::vector<std::unique_ptr<Worker>> workers_;
  SchedCounters external_;  ///< non-worker threads helping in wait()
  unsigned requested_ = 0;
  Mutex injection_mutex_;  // lock-level: pool
  std::deque<TaskNode*> injection_queue_ RLA_GUARDED_BY(injection_mutex_);

  // Workers block on this gate until the constructor has finalized
  // workers_ (it may shrink the vector after a thread-creation failure, and
  // running workers must never observe that resize).
  Mutex start_mutex_;  // lock-level: pool
  CondVar start_cv_;
  bool start_ready_ RLA_GUARDED_BY(start_mutex_) = false;

  // Idle-nap channel: the condition workers wait on (work may exist) lives
  // in the deques and injection queue, not under this mutex; see the
  // timed-wait in worker_main.
  Mutex sleep_mutex_;  // lock-level: pool
  CondVar sleep_cv_;
  std::atomic<int> sleepers_{0};
  std::atomic<bool> stop_{false};
  std::atomic<std::uint64_t> tasks_executed_{0};
  std::atomic<std::uint64_t> steals_{0};
  std::atomic<std::uint64_t> exceptions_swallowed_{0};
};

/// Publish `pool`'s pool-wide totals (sched.total.*, and
/// sched.exceptions_swallowed) into `reg`: the per-call collector's registry
/// in gemm(), the service registry in GemmService.
void publish_sched_totals(const WorkerPool& pool, obs::Registry& reg);

/// One fork-join scope: spawn children, then wait for all of them.
/// wait() runs other ready tasks while waiting, so nested groups (the
/// recursive multiply) never block a worker thread.
///
/// Error contract: call wait() to observe task failures — it rethrows the
/// recorded exception with the lowest spawn index (deterministic across
/// scheduling). If a group is destroyed with an unobserved exception, the
/// destructor cannot throw; it counts the loss in the pool-level
/// exceptions_swallowed() stat instead.
class TaskGroup {
 public:
  /// `cancel`, when given, is set to true as soon as any task of this group
  /// throws; share one flag across nested groups to let a whole recursion
  /// tree stop descending after the first failure.
  ///
  /// `priority` orders this group's spawns in the pool's shared injection
  /// queue: tasks injected by non-worker threads (a service executor
  /// submitting on behalf of a request) with higher priority are dispatched
  /// first; equal priorities stay FIFO. Worker-local deques ignore it — once
  /// a request's recursion is running on the workers, LIFO/steal order is
  /// what keeps the working set cache-resident.
  explicit TaskGroup(WorkerPool& pool, std::atomic<bool>* cancel = nullptr,
                     int priority = 0)
      : pool_(pool), cancel_(cancel), priority_(priority) {}

  /// Destruction waits for stragglers; any unobserved exception is counted
  /// in WorkerPool::exceptions_swallowed() (call wait() to observe errors).
  ~TaskGroup() {
    try {
      wait();
    } catch (...) {
      pool_.exceptions_swallowed_.fetch_add(1, std::memory_order_relaxed);
    }
    analysis::hook_group_destroyed(this);
  }

  TaskGroup(const TaskGroup&) = delete;
  TaskGroup& operator=(const TaskGroup&) = delete;

  /// Spawn fn as a task. On a serial pool, runs fn inline immediately,
  /// recording any exception for wait() just like a parallel task.
  template <typename F>
  void spawn(F&& fn) {
    const std::uint64_t seq = next_seq_++;
    if (pool_.serial()) {
      // Serial elision IS the depth-first schedule the race detector's
      // SP-bags algorithm requires; tell it a logical task ran here.
      analysis::hook_task_begin(this, seq);
      {
        // The tracer still models the logical fork/join so measured span —
        // and thus DAG parallelism — is schedule-independent, the way
        // Cilkview measures on a serial execution.
        obs::InlineTaskScope tscope(&obs_, seq);
        try {
          fn();
        } catch (...) {
          record_exception(std::current_exception(), seq);
        }
      }
      analysis::hook_task_end(this);
      return;
    }
    analysis::hook_parallel_spawn();  // voids serial-schedule certification
    pending_.fetch_add(1, std::memory_order_relaxed);
    auto* node =
        new WorkerPool::TaskNode{std::forward<F>(fn), this, seq, priority_, {}};
    // Request identity propagates unconditionally (collector armed or not):
    // the executing worker restores it around the task body, so profiles and
    // flight-recorder events keep their request scope across steals.
    node->tag.trace = obs::current_trace_id();
    obs::on_spawn(node->tag, seq);
    pool_.enqueue(node);
  }

  /// Run fn inline, but account exceptions to this group like a spawned
  /// task's (convenience for "spawn k-1, run the k-th yourself" patterns).
  template <typename F>
  void run(F&& fn) {
    const std::uint64_t seq = next_seq_++;
    // Traced as a forked child: a run() is logically concurrent with the
    // group's spawned siblings, it just executes on the spawning thread.
    obs::InlineTaskScope tscope(&obs_, seq);
    try {
      fn();
    } catch (...) {
      record_exception(std::current_exception(), seq);
    }
  }

  /// Wait until every spawned task has finished. Rethrows the exception of
  /// the failed task with the lowest spawn index, if any task failed.
  void wait();

  /// True once any task of this group (or a nested group sharing the same
  /// cancellation flag) has thrown.
  bool cancelled() const noexcept {
    return cancel_ != nullptr && cancel_->load(std::memory_order_relaxed);
  }

 private:
  friend class WorkerPool;

  void finish() noexcept { pending_.fetch_sub(1, std::memory_order_acq_rel); }
  void record_exception(std::exception_ptr e, std::uint64_t seq) noexcept;

  WorkerPool& pool_;
  std::atomic<bool>* cancel_ = nullptr;
  int priority_ = 0;            ///< injection-queue priority of this group's spawns
  std::uint64_t next_seq_ = 0;  ///< only touched by the owning thread
  std::atomic<std::int64_t> pending_{0};
  /// Span accumulator for the tracer. Child folds happen before finish()
  /// decrements pending_, and wait() reads after pending_ hits zero, so the
  /// acquire/release pair on pending_ orders every fold before the join.
  obs::GroupObs obs_;
  Mutex exception_mutex_;  // lock-level: pool
  std::exception_ptr exception_ RLA_GUARDED_BY(exception_mutex_);
  std::uint64_t exception_seq_ RLA_GUARDED_BY(exception_mutex_) = 0;
};

}  // namespace rla
