#pragma once

// Hardware performance counters via Linux perf_event_open (DESIGN.md §11).
//
// One Session is armed at a time (process-global slot, mirroring the trace
// Collector). While armed, every thread that executes pool work lazily opens
// its own *counter group* — cycles, instructions, L1d-read-misses,
// LLC-misses, dTLB-misses and task-clock — led by the first event the kernel
// accepts. Groups are read with PERF_FORMAT_GROUP (one read syscall returns
// every sibling plus time_enabled/time_running), and every value is
// multiplexing-scaled:
//
//     scaled = raw * time_enabled / time_running
//
// so runs where the PMU was shared with other event sets still report
// extrapolated whole-run counts; Sample::scale keeps the worst
// running/enabled ratio so consumers can judge how much was extrapolated.
//
// Degradation, never failure: perf_event_open can be absent (ENOSYS under
// seccomp), forbidden (perf_event_paranoid >= 2 in containers), or partial
// (VMs without a PMU reject the hardware events but accept the software
// task-clock). A Session that cannot open any event reports available() ==
// false with a reason string; individual events that fail to open are simply
// dropped from the active mask. The gemm driver turns an unavailable session
// into a "perf:unavailable:<reason>" degradation-trail entry and carries on.
// The fault site "perf.open" (robust/fault.hpp) forces the unavailable path
// deterministically for tests.

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "obs/armed_slot.hpp"
#include "support/sync.hpp"

namespace rla::obs::perf {

/// Fixed event set, indexed 0..kEventCount-1. Order is the JSON/report
/// order; event_name() gives the stable wire names.
inline constexpr int kEventCount = 6;
enum EventIndex : int {
  kCycles = 0,
  kInstructions = 1,
  kL1dReadMisses = 2,
  kLlcMisses = 3,
  kDtlbMisses = 4,
  kTaskClock = 5,  ///< software clock, ns; survives PMU-less VMs
};

/// Stable name for event index i ("cycles", "instructions",
/// "l1d_read_misses", "llc_misses", "dtlb_misses", "task_clock_ns").
const char* event_name(int index) noexcept;

/// One multiplexing-scaled reading (cumulative or delta) of the event set.
struct Sample {
  std::uint64_t value[kEventCount] = {};
  unsigned mask = 0;    ///< bit i set = event i was counting
  double scale = 1.0;   ///< min time_running/time_enabled seen (1 = exact)

  bool has(int index) const noexcept { return (mask >> index) & 1u; }

  /// this - earlier, per event (saturating at 0 against clock skew between
  /// the two group reads); mask intersects, scale takes the worse (smaller).
  Sample delta_since(const Sample& earlier) const noexcept;

  /// Accumulate a delta: values add, masks union, scale takes the worse.
  void accumulate(const Sample& d) noexcept;
};

/// One perf_event group owned by the thread that opened it. Reads are safe
/// from any thread (the fd read does not care who calls it).
class CounterGroup {
 public:
  CounterGroup() = default;
  ~CounterGroup();
  CounterGroup(const CounterGroup&) = delete;
  CounterGroup& operator=(const CounterGroup&) = delete;

  /// Open the group on the *calling* thread and start it counting. Returns
  /// false — with a short reason ("ENOSYS", "paranoid=2", "fault-injected",
  /// "unsupported-platform", "errno=N") — when no event at all could be
  /// opened. Partial success (some events rejected) is still success.
  bool open(std::string* reason);

  bool valid() const noexcept { return mask_ != 0; }
  unsigned mask() const noexcept { return mask_; }

  /// Cumulative scaled values since open(). False on read failure.
  bool read(Sample& out) const;

  void close() noexcept;

 private:
  int fds_[kEventCount] = {-1, -1, -1, -1, -1, -1};
  std::uint64_t ids_[kEventCount] = {};
  int leader_ = -1;      ///< event index of the group leader
  unsigned mask_ = 0;
};

/// Per-thread totals harvested from a session.
struct ThreadCounters {
  std::string label;  ///< "w<N>" for pool workers, "main" otherwise
  Sample sample;
};

/// An armed counting session: owns one CounterGroup per participating
/// thread. Threads join lazily through on_thread_work() (one relaxed load
/// when no session is armed); the attaching thread joins at attach time.
class Session {
 public:
  Session() = default;
  ~Session();
  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  /// Probe perf availability and arm this session. False if another session
  /// is armed. After a true return, check available(): an armed-but-
  /// unavailable session counts nothing and exists only so the caller can
  /// read the reason().
  bool try_attach();

  /// Disarm; blocks until in-flight joins/reads have left. Per-thread
  /// totals stay readable after this. Idempotent.
  void detach();

  bool attached() const noexcept { return attached_; }
  bool available() const noexcept {
    return available_.load(std::memory_order_acquire);
  }
  const std::string& reason() const noexcept { return reason_; }

  /// Sum of every thread group's current scaled cumulative values.
  Sample read_total() const;

  /// Per-thread cumulative values with their lane labels.
  std::vector<ThreadCounters> per_thread() const;

  /// Accumulate one phase-scoped delta under `name` (aggregated across
  /// pieces; insertion order = first-seen order).
  void note_phase(const char* name, const Sample& delta);

  /// The per-phase aggregates recorded so far.
  std::vector<std::pair<std::string, Sample>> phase_totals() const;

  /// Internal (called via the join hook under the pin protocol): open a
  /// group for the calling thread and register it with its lane label.
  void join_current_thread();

  /// Internal (thread_sample, under the pin protocol): read only the
  /// calling thread's own group — one read syscall, no session mutex.
  /// False when this thread never joined the armed session.
  bool read_current_thread(Sample& out) const;

 private:
  friend bool phase_snapshot(Sample& out);

  mutable Mutex mutex_;  // lock-level: registry
  std::vector<std::unique_ptr<CounterGroup>> groups_ RLA_GUARDED_BY(mutex_);
  std::vector<std::string> labels_ RLA_GUARDED_BY(mutex_);
  std::vector<std::pair<std::string, Sample>> phases_ RLA_GUARDED_BY(mutex_);
  std::string reason_;
  bool attached_ = false;
  /// Atomic, not mutex-guarded: workers probe it through the armed-session
  /// pointer from the join/snapshot hooks, and the release store in
  /// try_attach() must be ordered before the g_session publication those
  /// hooks load from (the old plain bool was written after the CAS — a
  /// window where a joining worker read stale false).
  std::atomic<bool> available_{false};
};

namespace detail {
/// The armed session (null = off); hooks pin it (obs/armed_slot.hpp).
extern ArmedSlot<Session> g_session;
void join_slow();
}  // namespace detail

/// True while a Session is armed and counting (one relaxed load).
inline bool counting() noexcept {
  return detail::g_session.peek() != nullptr;
}

/// Hot hook for task-executing threads: lazily opens this thread's counter
/// group the first time it runs work under an armed session. One relaxed
/// load when no session is armed.
inline void on_thread_work() {
  if (counting()) detail::join_slow();
}

/// Snapshot the armed session's whole-process cumulative counters (the sum
/// over thread groups). False when no session is armed/available; used by
/// PhaseScope to bracket driver phases.
bool phase_snapshot(Sample& out);

/// Record a phase delta into the armed session (no-op when none).
void note_phase(const char* name, const Sample& delta);

/// Cumulative scaled counters of the *calling thread's* group only — the
/// cheap read the tree profiler brackets frame transitions with (read_total
/// sums every group under the session mutex; this is one syscall). False
/// when no session is armed/available or this thread has no group.
bool thread_sample(Sample& out);

}  // namespace rla::obs::perf
