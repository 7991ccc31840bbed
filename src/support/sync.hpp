#pragma once

// Annotated synchronization primitives: Clang Thread Safety Analysis,
// degrading to plain std primitives everywhere else (DESIGN.md §13).
//
// The repo's concurrency bugs so far (the PR-6 lost wakeup, the arena
// accounting race) were caught by hand review and soak runs. This header
// moves that class of bug to compile time: every mutex-protected subsystem
// declares *which* lock guards *which* state, and a Clang build with
// -Werror=thread-safety rejects any access that cannot prove it holds the
// right capability. GCC (the other supported compiler) sees ordinary
// std::mutex behaviour with zero overhead — the attributes vanish.
//
// Discipline (enforced by rla_lint C5 on top of the compiler):
//  * No raw std::mutex / std::condition_variable outside this header.
//  * Every rla::Mutex declaration carries a `// lock-level:` comment naming
//    its rank in the acquisition hierarchy
//    lifecycle → service → pool → arena → registry.
//    A thread may acquire a lower-ranked lock while holding a higher-ranked
//    one, never the reverse, and never two locks of the same rank.
//  * CondVar has predicate-taking waits only, plus one explicitly justified
//    timed poll (`// timed-wait:`); every notify site documents the guarded
//    state it publishes with a `// publishes:` comment.
//  * RLA_NO_THREAD_SAFETY_ANALYSIS requires an adjacent `// justification:`
//    comment; an escape without one fails the lint.

#include <cassert>
#include <chrono>
#include <condition_variable>
#include <mutex>

// ---------------------------------------------------------------------------
// Attribute macros (the Clang TSA vocabulary, no-ops elsewhere).
// ---------------------------------------------------------------------------

#if defined(__clang__) && defined(__has_attribute)
#if __has_attribute(capability)
#define RLA_TSA(x) __attribute__((x))
#endif
#endif
#ifndef RLA_TSA
#define RLA_TSA(x)  // not Clang: annotations compile away
#endif

/// Class attribute: instances are lockable capabilities ("mutex", "role"...).
#define RLA_CAPABILITY(x) RLA_TSA(capability(x))
/// Class attribute: RAII objects that acquire at construction, release at
/// destruction (MutexLock below).
#define RLA_SCOPED_CAPABILITY RLA_TSA(scoped_lockable)
/// Data member is protected by the given capability.
#define RLA_GUARDED_BY(x) RLA_TSA(guarded_by(x))
/// Pointer member: the *pointed-to* data is protected by the capability.
#define RLA_PT_GUARDED_BY(x) RLA_TSA(pt_guarded_by(x))
/// Function requires the capability held on entry (and does not release it).
#define RLA_REQUIRES(...) RLA_TSA(requires_capability(__VA_ARGS__))
/// Function acquires the capability (held on exit, not on entry).
#define RLA_ACQUIRE(...) RLA_TSA(acquire_capability(__VA_ARGS__))
/// Function releases the capability (held on entry, not on exit).
#define RLA_RELEASE(...) RLA_TSA(release_capability(__VA_ARGS__))
/// Function acquires the capability when it returns the given value.
#define RLA_TRY_ACQUIRE(...) RLA_TSA(try_acquire_capability(__VA_ARGS__))
/// Function must NOT be called with the capability held (deadlock guard on
/// public entry points that take the lock themselves).
#define RLA_EXCLUDES(...) RLA_TSA(locks_excluded(__VA_ARGS__))
/// Tell the analysis the capability is held here without acquiring it —
/// for invariants enforced dynamically (e.g. deque ownership checked by
/// thread index) that the static analysis cannot see.
#define RLA_ASSERT_CAPABILITY(x) RLA_TSA(assert_capability(x))
/// Function returns a reference to the given capability.
#define RLA_RETURN_CAPABILITY(x) RLA_TSA(lock_returned(x))
/// Escape hatch: the function body is not analysed. Every use MUST carry an
/// adjacent `// justification:` comment (rla_lint C5 enforces it).
#if defined(__clang__)
#define RLA_NO_THREAD_SAFETY_ANALYSIS __attribute__((no_thread_safety_analysis))
#else
#define RLA_NO_THREAD_SAFETY_ANALYSIS
#endif

namespace rla {

/// std::mutex carrying the "mutex" capability. Prefer MutexLock over the
/// raw lock()/unlock() pair; they exist for the RAII wrapper and for the
/// rare explicit critical section the analysis can still check.
class RLA_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() RLA_ACQUIRE() { mu_.lock(); }
  void unlock() RLA_RELEASE() { mu_.unlock(); }
  bool try_lock() RLA_TRY_ACQUIRE(true) { return mu_.try_lock(); }

 private:
  friend class MutexLock;
  std::mutex mu_;
};

/// RAII lock on an rla::Mutex (the annotated std::unique_lock). Supports
/// manual unlock()/lock() mid-scope — the analysis tracks the state — and
/// is what CondVar waits on.
class RLA_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) RLA_ACQUIRE(mu) : mu_(&mu), lock_(mu.mu_) {}

  /// Releases if still held.
  ~MutexLock() RLA_RELEASE() = default;

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

  /// Manual release before scope end (e.g. to run admission logic or notify
  /// without the lock). The destructor then releases nothing.
  void unlock() RLA_RELEASE() { lock_.unlock(); }

  /// Re-acquire after a manual unlock.
  void lock() RLA_ACQUIRE() { lock_.lock(); }

  bool owns_lock() const noexcept { return lock_.owns_lock(); }

 private:
  friend class CondVar;
  bool manages(const Mutex& mu) const noexcept {
    return mu_ == &mu && lock_.owns_lock();
  }

  Mutex* mu_;
  std::unique_lock<std::mutex> lock_;
};

/// Condition variable bound to rla::Mutex. Only predicate overloads exist
/// for wait(): the PR-6 lost wakeup came from a predicate-less wait
/// absorbing a notify meant for another waiter, and a predicate makes that
/// structurally impossible. wait_for() keeps one predicate-less timed-poll
/// form for loops whose wake condition lives outside the mutex (the worker
/// nap); each such call site must justify itself with a `// timed-wait:`
/// comment or the lint fails.
///
/// The guarded mutex is named twice at the call site —
/// `cv.wait(mu, lock, pred)` — because the static analysis is syntactic: it
/// cannot prove that `lock` holds `mu`, so the capability is passed
/// explicitly for the REQUIRES check while the MutexLock supplies the
/// underlying unique_lock. An assert pins the two to the same mutex.
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  /// Wait until pred() is true. pred runs with `mu` held; annotate the
  /// lambda RLA_REQUIRES(mu) when it reads guarded state.
  template <typename Pred>
  void wait(Mutex& mu, MutexLock& lock, Pred pred) RLA_REQUIRES(mu)
      RLA_NO_THREAD_SAFETY_ANALYSIS {
    // justification: the body hands lock_ to std::condition_variable, which
    // releases and re-acquires it out of the analysis's sight; the REQUIRES
    // on the declaration still checks every caller.
    assert(lock.manages(mu));
    cv_.wait(lock.lock_, std::move(pred));
  }

  /// Wait until pred() is true or `rel_time` elapses; returns pred().
  template <typename Rep, typename Period, typename Pred>
  bool wait_for(Mutex& mu, MutexLock& lock,
                const std::chrono::duration<Rep, Period>& rel_time, Pred pred)
      RLA_REQUIRES(mu) RLA_NO_THREAD_SAFETY_ANALYSIS {
    // justification: same as wait() — the std CV relocks outside the
    // analysis; callers are still checked against the REQUIRES.
    assert(lock.manages(mu));
    return cv_.wait_for(lock.lock_, rel_time, std::move(pred));
  }

  /// Timed poll without a predicate: returns on notify, spurious wakeup or
  /// timeout, whichever first. Callers re-check their condition themselves
  /// and must carry a `// timed-wait:` justification comment.
  template <typename Rep, typename Period>
  void wait_for(Mutex& mu, MutexLock& lock,
                const std::chrono::duration<Rep, Period>& rel_time)
      RLA_REQUIRES(mu) RLA_NO_THREAD_SAFETY_ANALYSIS {
    // justification: same relock-outside-the-analysis shape as wait().
    assert(lock.manages(mu));
    cv_.wait_for(lock.lock_, rel_time);
  }

  /// Wake one waiter. Call sites document the guarded state they just made
  /// visible with `// publishes: <state>` (lint-enforced), which keeps the
  /// notify ↔ predicate pairing reviewable.
  void notify_one() noexcept { cv_.notify_one(); }

  /// Wake every waiter (state transitions all waiters must observe, e.g.
  /// shutdown).
  void notify_all() noexcept { cv_.notify_all(); }

 private:
  std::condition_variable cv_;
};

}  // namespace rla
