#include "parallel/worker_pool.hpp"

#include <algorithm>
#include <chrono>
#include <system_error>

#include "analysis/numerics/fptrap.hpp"
#include "obs/metrics.hpp"
#include "obs/perf.hpp"
#include "robust/fault.hpp"

namespace rla {

namespace {
// Which worker (of which pool) the current thread is. A thread belongs to at
// most one pool for its lifetime, so a single pair suffices.
thread_local const WorkerPool* tl_pool = nullptr;
thread_local int tl_worker_index = -1;

void fold_max(std::atomic<std::int64_t>& slot, std::int64_t v) noexcept {
  std::int64_t cur = slot.load(std::memory_order_relaxed);
  while (v > cur &&
         !slot.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}
}  // namespace

WorkerPool::WorkerPool(unsigned threads) : requested_(threads) {
  workers_.reserve(threads);
  for (unsigned w = 0; w < threads; ++w) {
    workers_.push_back(std::make_unique<Worker>());
  }
  // Start threads behind a gate: they may not touch workers_ until the
  // vector's final size is known, because a creation failure below shrinks
  // it. Creation failures degrade the pool instead of propagating — a gemm
  // on a loaded machine should run slower, not die.
  std::vector<std::thread> started;
  started.reserve(threads);
  for (unsigned w = 0; w < threads; ++w) {
    try {
      fault::maybe_fail_thread_create(fault::Site::PoolThreadCreate);
      started.emplace_back([this, w] {
        wait_for_start();
        worker_main(static_cast<int>(w));
      });
    } catch (const std::system_error&) {
      break;  // keep the threads we got; requested_ - size() records the loss
    }
  }
  if (started.size() < workers_.size()) workers_.resize(started.size());
  for (std::size_t w = 0; w < started.size(); ++w) {
    workers_[w]->thread = std::move(started[w]);
  }
  {
    MutexLock lock(start_mutex_);
    start_ready_ = true;
  }
  start_cv_.notify_all();  // publishes: start_ready_ (workers_ is final)
}

WorkerPool::~WorkerPool() {
  stop_.store(true, std::memory_order_release);
  sleep_cv_.notify_all();  // publishes: stop_
  for (auto& worker : workers_) {
    if (worker->thread.joinable()) worker->thread.join();
  }
  // Drain anything never executed (only possible if a TaskGroup was leaked).
  {
    MutexLock lock(injection_mutex_);
    for (TaskNode* node : injection_queue_) delete node;
    injection_queue_.clear();
  }
  for (auto& worker : workers_) {
    // The owning worker thread has joined; the destructor inherits its role.
    worker->deque.assert_owner();
    while (TaskNode* node = worker->deque.pop()) delete node;
  }
}

void WorkerPool::wait_for_start() {
  MutexLock lock(start_mutex_);
  start_cv_.wait(start_mutex_, lock,
                 [this]() RLA_REQUIRES(start_mutex_) { return start_ready_; });
}

int WorkerPool::current_worker_index() noexcept { return tl_worker_index; }

void WorkerPool::enqueue(TaskNode* node) {
  const int self = (tl_pool == this) ? tl_worker_index : -1;
  if (self >= 0) {
    Worker& w = *workers_[static_cast<std::size_t>(self)];
    w.deque.assert_owner();  // self == tl_worker_index: this IS the owner
    w.deque.push(node);
    fold_max(w.sched.deque_high_water,
             static_cast<std::int64_t>(w.deque.size_estimate()));
  } else {
    MutexLock lock(injection_mutex_);
    // Priority-ordered, FIFO within a priority. The scan is from the back:
    // almost all injected tasks share priority 0, so insertion is O(1) until
    // a high-priority request actually needs to overtake a backlog.
    auto it = injection_queue_.end();
    while (it != injection_queue_.begin() &&
           (*std::prev(it))->priority < node->priority) {
      --it;
    }
    injection_queue_.insert(it, node);
    fold_max(external_.deque_high_water,
             static_cast<std::int64_t>(injection_queue_.size()));
  }
  if (sleepers_.load(std::memory_order_relaxed) > 0) {
    sleep_cv_.notify_one();  // publishes: a TaskNode reachable via try_acquire
  }
}

WorkerPool::TaskNode* WorkerPool::try_acquire(int self) {
  if (self >= 0) {
    Worker& w = *workers_[static_cast<std::size_t>(self)];
    w.deque.assert_owner();  // self is the caller's own worker index
    if (TaskNode* node = w.deque.pop()) {
      return node;
    }
  }
  {
    MutexLock lock(injection_mutex_);
    if (!injection_queue_.empty()) {
      TaskNode* node = injection_queue_.front();
      injection_queue_.pop_front();
      sched_slot(self).injection_pops.fetch_add(1, std::memory_order_relaxed);
      return node;
    }
  }
  // Steal: start at a pseudo-random victim, sweep once around.
  const std::size_t n = workers_.size();
  if (n == 0) return nullptr;
  thread_local std::minstd_rand rng(std::random_device{}());
  const std::size_t start = rng() % n;
  for (std::size_t k = 0; k < n; ++k) {
    const std::size_t victim = (start + k) % n;
    if (static_cast<int>(victim) == self) continue;
    if (TaskNode* node = workers_[victim]->deque.steal()) {
      steals_.fetch_add(1, std::memory_order_relaxed);
      sched_slot(self).steals.fetch_add(1, std::memory_order_relaxed);
      return node;
    }
  }
  sched_slot(self).failed_steals.fetch_add(1, std::memory_order_relaxed);
  return nullptr;
}

void WorkerPool::run_node(TaskNode* node) {
  TaskGroup* group = node->group;
  // Late-join hook for HW counting: the first task a thread runs under an
  // armed perf session opens that thread's counter group (one relaxed load
  // otherwise). Covers pool workers and helping/external threads alike.
  obs::perf::on_thread_work();
  {
    // Scope must close before finish(): the waiter may return from wait()
    // and destroy the group — and its span accumulator — as soon as
    // pending_ hits zero, and the scope's destructor folds into it.
    // The spawn-time trace id becomes ambient for the body (and for the
    // trace events the run scope emits), then the worker's previous scope
    // is restored — a stolen task never leaks its request id to the victim.
    obs::TraceIdScope trace_scope(node->tag.trace);
    obs::RunTaskScope tscope(node->tag, node->seq,
                             group != nullptr ? &group->obs_ : nullptr);
    try {
      node->fn();
    } catch (...) {
      if (group != nullptr) group->record_exception(std::current_exception(), node->seq);
    }
    // FP-status flags are per-thread: fold this worker's into the
    // process-wide capture before the submitter (a different thread)
    // drains it.
    numerics::fp_poll();
  }
  delete node;
  if (group != nullptr) group->finish();
  tasks_executed_.fetch_add(1, std::memory_order_relaxed);
}

void WorkerPool::worker_main(int index) {
  tl_pool = this;
  tl_worker_index = index;
  obs::on_worker_start(index);
  SchedCounters& sched = workers_[static_cast<std::size_t>(index)]->sched;
  int idle_spins = 0;
  while (!stop_.load(std::memory_order_acquire)) {
    if (TaskNode* node = try_acquire(index)) {
      idle_spins = 0;
      run_node(node);
      continue;
    }
    if (++idle_spins < 64) {
      std::this_thread::yield();
      continue;
    }
    MutexLock lock(sleep_mutex_);
    sleepers_.fetch_add(1, std::memory_order_relaxed);
    // timed-wait: the wake condition (work in a deque or the injection
    // queue, or stop_) lives outside sleep_mutex_, so there is no guarded
    // predicate to test; enqueue's notify ends the nap early and the worker
    // loop re-checks try_acquire/stop_ itself. Bounded at 1 ms.
    sleep_cv_.wait_for(sleep_mutex_, lock, std::chrono::milliseconds(1));
    sleepers_.fetch_sub(1, std::memory_order_relaxed);
    sched.idle_wakeups.fetch_add(1, std::memory_order_relaxed);
    idle_spins = 0;
  }
}

std::vector<WorkerPool::SchedStats> WorkerPool::sched_snapshot() const {
  std::vector<SchedStats> out;
  out.reserve(workers_.size() + 1);
  for (const auto& worker : workers_) out.push_back(worker->sched.snapshot());
  out.push_back(external_.snapshot());
  return out;
}

WorkerPool::SchedStats WorkerPool::sched_totals() const noexcept {
  // The external slot has no worker loop and no deque of its own: it adds
  // failed steals and injection pops only.
  const SchedStats ext = external_.snapshot();
  SchedStats total{steals(), ext.failed_steals, 0, ext.injection_pops, 0};
  for (const auto& worker : workers_) {
    const SchedStats w = worker->sched.snapshot();
    total.failed_steals += w.failed_steals;
    total.idle_wakeups += w.idle_wakeups;
    total.injection_pops += w.injection_pops;
    total.deque_high_water = std::max(total.deque_high_water, w.deque_high_water);
  }
  return total;
}

void publish_sched_totals(const WorkerPool& pool, obs::Registry& reg) {
  const WorkerPool::SchedStats t = pool.sched_totals();
  reg.counter("sched.total.steals").set(t.steals);
  reg.counter("sched.total.failed_steals").set(t.failed_steals);
  reg.counter("sched.total.idle_wakeups").set(t.idle_wakeups);
  reg.counter("sched.total.injection_pops").set(t.injection_pops);
  reg.counter("sched.total.tasks").set(pool.tasks_executed());
  reg.gauge("sched.total.deque_high_water").set(t.deque_high_water);
  reg.counter("sched.exceptions_swallowed").set(pool.exceptions_swallowed());
}

void WorkerPool::parallel_for(
    std::uint64_t begin, std::uint64_t end, std::uint64_t grain,
    const std::function<void(std::uint64_t, std::uint64_t)>& body,
    int priority) {
  grain = std::max<std::uint64_t>(grain, 1);
  // With a race detector attached, the serial shortcut must still model the
  // chunks as logical tasks — they WOULD run in parallel on a real pool, and
  // certification has to cover that DAG.
  const bool model_tasks = analysis::detection_active();
  if ((serial() && !model_tasks) || end - begin <= grain) {
    if (begin < end) body(begin, end);
    return;
  }
  TaskGroup group(*this, nullptr, priority);
  for (std::uint64_t b = begin; b < end; b += grain) {
    const std::uint64_t e = std::min(end, b + grain);
    group.spawn([&body, b, e] { body(b, e); });
  }
  group.wait();
}

void TaskGroup::wait() {
  // The scope pauses the waiter's span clock (helping runs other tasks'
  // frames) and, at destruction, folds the group's child spans into the
  // waiting frame — also when this function exits by rethrowing below.
  obs::WaitScope wscope(&obs_);
  if (!pool_.serial()) {
    const int self = (tl_pool == &pool_) ? tl_worker_index : -1;
    int idle_spins = 0;
    while (pending_.load(std::memory_order_acquire) != 0) {
      if (WorkerPool::TaskNode* node = pool_.try_acquire(self)) {
        idle_spins = 0;
        pool_.run_node(node);
      } else if (++idle_spins < 256) {
        std::this_thread::yield();
      } else {
        // All remaining children are running on other workers; nap briefly.
        std::this_thread::sleep_for(std::chrono::microseconds(50));
        idle_spins = 0;
      }
    }
  }
  // Every task has finished and recorded its outcome, so the lowest-seq
  // exception is final — propagation is deterministic even though the tasks
  // raced.
  analysis::hook_group_sync(this);
  // Quiescence (pending_ == 0 with acquire/release pairing) already orders
  // every record_exception before this read, but the lock keeps the access
  // pattern uniform and lets the static analysis certify it.
  std::exception_ptr e;
  {
    MutexLock lock(exception_mutex_);
    e = exception_;
    exception_ = nullptr;
  }
  if (e) std::rethrow_exception(e);
}

void TaskGroup::record_exception(std::exception_ptr e, std::uint64_t seq) noexcept {
  if (cancel_ != nullptr) cancel_->store(true, std::memory_order_relaxed);
  MutexLock lock(exception_mutex_);
  if (!exception_ || seq < exception_seq_) {
    exception_ = e;
    exception_seq_ = seq;
  }
}

}  // namespace rla
