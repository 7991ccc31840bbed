#include "obs/perf.hpp"

#include <cerrno>
#include <cstdio>
#include <cstring>

#include "robust/fault.hpp"

#if defined(__linux__)
#include <linux/perf_event.h>
#include <sys/ioctl.h>
#include <sys/syscall.h>
#include <unistd.h>
#endif

#include "obs/hooks.hpp"

namespace rla::obs::perf {

const char* event_name(int index) noexcept {
  switch (index) {
    case kCycles: return "cycles";
    case kInstructions: return "instructions";
    case kL1dReadMisses: return "l1d_read_misses";
    case kLlcMisses: return "llc_misses";
    case kDtlbMisses: return "dtlb_misses";
    case kTaskClock: return "task_clock_ns";
    default: return "?";
  }
}

Sample Sample::delta_since(const Sample& earlier) const noexcept {
  Sample d;
  d.mask = mask & earlier.mask;
  d.scale = scale < earlier.scale ? scale : earlier.scale;
  for (int i = 0; i < kEventCount; ++i) {
    if (!d.has(i)) continue;
    d.value[i] = value[i] >= earlier.value[i] ? value[i] - earlier.value[i] : 0;
  }
  return d;
}

void Sample::accumulate(const Sample& d) noexcept {
  mask |= d.mask;
  if (d.scale < scale) scale = d.scale;
  for (int i = 0; i < kEventCount; ++i) value[i] += d.value[i];
}

// ---- CounterGroup -----------------------------------------------------------

#if defined(__linux__)

namespace {

long sys_perf_event_open(struct perf_event_attr* attr, pid_t pid, int cpu,
                         int group_fd, unsigned long flags) {
  return ::syscall(SYS_perf_event_open, attr, pid, cpu, group_fd, flags);
}

void fill_attr(int index, struct perf_event_attr& attr) {
  std::memset(&attr, 0, sizeof(attr));
  attr.size = sizeof(attr);
  // Count user space only: perf_event_paranoid == 2 (the common container
  // default that still permits anything) forbids kernel-side counting.
  attr.exclude_kernel = 1;
  attr.exclude_hv = 1;
  attr.read_format = PERF_FORMAT_GROUP | PERF_FORMAT_ID |
                     PERF_FORMAT_TOTAL_TIME_ENABLED |
                     PERF_FORMAT_TOTAL_TIME_RUNNING;
  switch (index) {
    case kCycles:
      attr.type = PERF_TYPE_HARDWARE;
      attr.config = PERF_COUNT_HW_CPU_CYCLES;
      break;
    case kInstructions:
      attr.type = PERF_TYPE_HARDWARE;
      attr.config = PERF_COUNT_HW_INSTRUCTIONS;
      break;
    case kL1dReadMisses:
      attr.type = PERF_TYPE_HW_CACHE;
      attr.config = PERF_COUNT_HW_CACHE_L1D |
                    (PERF_COUNT_HW_CACHE_OP_READ << 8) |
                    (PERF_COUNT_HW_CACHE_RESULT_MISS << 16);
      break;
    case kLlcMisses:
      attr.type = PERF_TYPE_HARDWARE;
      attr.config = PERF_COUNT_HW_CACHE_MISSES;
      break;
    case kDtlbMisses:
      attr.type = PERF_TYPE_HW_CACHE;
      attr.config = PERF_COUNT_HW_CACHE_DTLB |
                    (PERF_COUNT_HW_CACHE_OP_READ << 8) |
                    (PERF_COUNT_HW_CACHE_RESULT_MISS << 16);
      break;
    case kTaskClock:
      attr.type = PERF_TYPE_SOFTWARE;
      attr.config = PERF_COUNT_SW_TASK_CLOCK;
      break;
    default:
      break;
  }
}

/// "paranoid=N" when readable (the usual reason unprivileged opens fail),
/// otherwise the bare errno.
std::string open_failure_reason(int err) {
  if (err == ENOSYS) return "ENOSYS";
  if (err == EACCES || err == EPERM) {
    if (std::FILE* f = std::fopen("/proc/sys/kernel/perf_event_paranoid", "r")) {
      int level = 0;
      const bool ok = std::fscanf(f, "%d", &level) == 1;
      std::fclose(f);
      if (ok) return "paranoid=" + std::to_string(level);
    }
    return err == EACCES ? "EACCES" : "EPERM";
  }
  return "errno=" + std::to_string(err);
}

}  // namespace

bool CounterGroup::open(std::string* reason) {
  if (fault::should_fail(fault::Site::PerfOpen)) {
    if (reason != nullptr) *reason = "fault-injected";
    return false;
  }
  int first_err = 0;
  for (int i = 0; i < kEventCount; ++i) {
    struct perf_event_attr attr;
    fill_attr(i, attr);
    const bool is_leader = leader_ < 0;
    // The leader starts disabled and the whole group is released at once
    // below, so no event counts the others' setup syscalls.
    attr.disabled = is_leader ? 1 : 0;
    const int group_fd = is_leader ? -1 : fds_[leader_];
    const long fd =
        sys_perf_event_open(&attr, /*pid=*/0, /*cpu=*/-1, group_fd,
                            PERF_FLAG_FD_CLOEXEC);
    if (fd < 0) {
      if (first_err == 0) first_err = errno;
      continue;  // this event is unsupported here; keep the rest
    }
    fds_[i] = static_cast<int>(fd);
    if (::ioctl(fds_[i], PERF_EVENT_IOC_ID, &ids_[i]) != 0) {
      ::close(fds_[i]);
      fds_[i] = -1;
      continue;
    }
    if (is_leader) leader_ = i;
    mask_ |= 1u << i;
  }
  if (leader_ < 0) {
    if (reason != nullptr) {
      *reason = open_failure_reason(first_err != 0 ? first_err : ENODEV);
    }
    return false;
  }
  ::ioctl(fds_[leader_], PERF_EVENT_IOC_RESET, PERF_IOC_FLAG_GROUP);
  ::ioctl(fds_[leader_], PERF_EVENT_IOC_ENABLE, PERF_IOC_FLAG_GROUP);
  return true;
}

bool CounterGroup::read(Sample& out) const {
  if (leader_ < 0) return false;
  // PERF_FORMAT_GROUP layout: nr, time_enabled, time_running, then
  // (value, id) per counter.
  std::uint64_t buf[3 + 2 * kEventCount] = {};
  const ssize_t got = ::read(fds_[leader_], buf, sizeof(buf));
  if (got < static_cast<ssize_t>(3 * sizeof(std::uint64_t))) return false;
  const std::uint64_t nr = buf[0];
  const std::uint64_t enabled = buf[1];
  const std::uint64_t running = buf[2];
  const double ratio =
      enabled > 0 && running > 0
          ? static_cast<double>(running) / static_cast<double>(enabled)
          : 1.0;
  const double rescale =
      enabled > 0 && running > 0
          ? static_cast<double>(enabled) / static_cast<double>(running)
          : 1.0;
  Sample s;
  s.scale = ratio;
  for (std::uint64_t c = 0; c < nr && c < static_cast<std::uint64_t>(kEventCount);
       ++c) {
    const std::uint64_t value = buf[3 + 2 * c];
    const std::uint64_t id = buf[3 + 2 * c + 1];
    for (int i = 0; i < kEventCount; ++i) {
      if (((mask_ >> i) & 1u) != 0 && ids_[i] == id) {
        s.value[i] =
            static_cast<std::uint64_t>(static_cast<double>(value) * rescale);
        s.mask |= 1u << i;
        break;
      }
    }
  }
  if (s.mask == 0) return false;
  out = s;
  return true;
}

void CounterGroup::close() noexcept {
  for (int i = 0; i < kEventCount; ++i) {
    if (fds_[i] >= 0) {
      ::close(fds_[i]);
      fds_[i] = -1;
    }
  }
  leader_ = -1;
  mask_ = 0;
}

#else  // !__linux__

bool CounterGroup::open(std::string* reason) {
  if (fault::should_fail(fault::Site::PerfOpen)) {
    if (reason != nullptr) *reason = "fault-injected";
    return false;
  }
  if (reason != nullptr) *reason = "unsupported-platform";
  return false;
}

bool CounterGroup::read(Sample&) const { return false; }

void CounterGroup::close() noexcept {}

#endif  // __linux__

CounterGroup::~CounterGroup() { close(); }

// ---- Session ----------------------------------------------------------------

namespace detail {

ArmedSlot<Session> g_session;

namespace {

/// Attach generations, invalidating each thread's "already joined" cache.
std::atomic<std::uint64_t> g_generation{1};

thread_local std::uint64_t tl_joined_generation = 0;

/// This thread's own group within the armed session, cached so
/// thread_sample() avoids the session mutex. Valid only while
/// tl_group_generation matches g_generation (groups outlive detach but not
/// the Session object; a new attach invalidates the cache first).
thread_local CounterGroup* tl_group = nullptr;
thread_local std::uint64_t tl_group_generation = 0;

}  // namespace

void join_slow() {
  const std::uint64_t gen = g_generation.load(std::memory_order_relaxed);
  if (tl_joined_generation == gen) return;
  if (Session* s = g_session.pin()) {
    s->join_current_thread();
    g_session.unpin();
  }
  // Marked joined even on failure: retrying a failing perf_event_open once
  // per task would turn degradation into a hot-path syscall storm.
  tl_joined_generation = gen;
}

}  // namespace detail

Session::~Session() { detach(); }

bool Session::try_attach() {
  // A busy slot (or a second attach of this session) fails before any
  // syscall, as one load; the arming CAS below still decides a race.
  if (attached_ || detail::g_session.peek() != nullptr) return false;
  // Probe with the attaching thread's own group: if even this thread cannot
  // open one event, workers will not fare better — mark unavailable with
  // the reason and let the caller degrade. The probe is registered before
  // the session is armed: once armed, hooks on other threads may hold
  // mutex_ back to back (read_total), and the unfair mutex could starve
  // this thread for as long as they keep coming.
  auto probe = std::make_unique<CounterGroup>();
  CounterGroup* const mine = probe.get();
  std::string reason;
  const bool opened = probe->open(&reason);
  if (opened) {
    MutexLock lock(mutex_);
    groups_.push_back(std::move(probe));
    labels_.push_back("main");
  }
  if (!detail::g_session.try_arm(this)) {
    if (opened) {
      MutexLock lock(mutex_);
      groups_.pop_back();
      labels_.pop_back();
    }
    return false;
  }
  const std::uint64_t gen =
      detail::g_generation.fetch_add(1, std::memory_order_seq_cst) + 1;
  attached_ = true;
  if (opened) {
    detail::tl_group = mine;
    detail::tl_group_generation = gen;
    // Release: the probe group above must be visible to any worker whose
    // join_current_thread() acquires this flag through the armed session.
    available_.store(true, std::memory_order_release);
    detail::tl_joined_generation = gen;
  } else {
    available_.store(false, std::memory_order_release);
    reason_ = reason;
  }
  return true;
}

void Session::detach() {
  if (!attached_) return;
  detail::g_session.disarm(this);
  attached_ = false;
  // Groups stay open (and readable) until destruction so per-thread totals
  // survive the disarm; they stopped accumulating our work because no new
  // tasks run under this session.
}

void Session::join_current_thread() {
  if (!available()) return;
  auto group = std::make_unique<CounterGroup>();
  if (!group->open(nullptr)) return;  // this thread just goes uncounted
  const int hint = obs::detail::worker_hint();
  MutexLock lock(mutex_);
  groups_.push_back(std::move(group));
  labels_.push_back(hint >= 0 ? "w" + std::to_string(hint)
                              : "t" + std::to_string(labels_.size()));
  detail::tl_group = groups_.back().get();
  detail::tl_group_generation =
      detail::g_generation.load(std::memory_order_relaxed);
}

bool Session::read_current_thread(Sample& out) const {
  if (detail::tl_group == nullptr ||
      detail::tl_group_generation !=
          detail::g_generation.load(std::memory_order_relaxed)) {
    return false;
  }
  return detail::tl_group->read(out);
}

Sample Session::read_total() const {
  Sample total;
  total.mask = 0;
  MutexLock lock(mutex_);
  for (const auto& g : groups_) {
    Sample s;
    if (g->read(s)) total.accumulate(s);
  }
  return total;
}

std::vector<ThreadCounters> Session::per_thread() const {
  std::vector<ThreadCounters> out;
  MutexLock lock(mutex_);
  out.reserve(groups_.size());
  for (std::size_t i = 0; i < groups_.size(); ++i) {
    Sample s;
    if (groups_[i]->read(s)) out.push_back({labels_[i], s});
  }
  return out;
}

void Session::note_phase(const char* name, const Sample& delta) {
  MutexLock lock(mutex_);
  for (auto& [phase, sample] : phases_) {
    if (phase == name) {
      sample.accumulate(delta);
      return;
    }
  }
  Sample first;
  first.mask = 0;
  first.accumulate(delta);
  phases_.emplace_back(name, first);
}

std::vector<std::pair<std::string, Sample>> Session::phase_totals() const {
  MutexLock lock(mutex_);
  return phases_;
}

bool phase_snapshot(Sample& out) {
  if (!counting()) return false;
  bool ok = false;
  if (Session* s = detail::g_session.pin()) {
    if (s->available()) {
      out = s->read_total();
      ok = out.mask != 0;
    }
    detail::g_session.unpin();
  }
  return ok;
}

void note_phase(const char* name, const Sample& delta) {
  if (Session* s = detail::g_session.pin()) {
    s->note_phase(name, delta);
    detail::g_session.unpin();
  }
}

bool thread_sample(Sample& out) {
  if (!counting()) return false;
  bool ok = false;
  if (Session* s = detail::g_session.pin()) {
    if (s->available()) ok = s->read_current_thread(out);
    detail::g_session.unpin();
  }
  return ok;
}

}  // namespace rla::obs::perf
