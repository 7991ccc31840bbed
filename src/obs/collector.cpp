#include "obs/collector.hpp"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <ostream>
#include <vector>

#include "obs/treeprof/treeprof.hpp"
#include "util/env.hpp"

namespace rla::obs {

namespace {

/// Request trace id ambient on this thread (0 = none). Maintained
/// unconditionally — unlike the collector hooks it must survive with no
/// collector armed, because flight-recorder events and GemmProfiles carry it
/// too. Restored across task boundaries by TraceIdScope (worker_pool.cpp
/// wraps each task body in the spawn-time tag's scope).
thread_local std::uint64_t tl_trace_id = 0;

}  // namespace

std::uint64_t current_trace_id() noexcept { return tl_trace_id; }

void set_current_trace_id(std::uint64_t trace) noexcept {
  tl_trace_id = trace;
}

namespace detail {

ArmedSlot<Collector> g_collector;

namespace {

constexpr std::size_t kDefaultRingCapacity = 32768;

/// Attach sessions, for invalidating thread-local buffer caches.
std::atomic<std::uint64_t> g_generation{1};

/// Process-unique task ids; never reset (ids stay unique across collectors).
std::atomic<std::uint64_t> g_next_task_id{1};

/// Ring buffers ever created (disabled-path allocation guard for tests).
std::atomic<std::uint64_t> g_buffers_created{0};

/// Process-unique thread uid, for detecting task migration (steals).
std::atomic<int> g_next_thread_uid{0};
int thread_uid() noexcept {
  thread_local const int uid = g_next_thread_uid.fetch_add(1);
  return uid;
}

/// Worker index of this thread within its pool (-1 = not a pool worker);
/// labels the thread's trace lane.
thread_local int tl_worker_hint = -1;

std::int64_t now_ns() noexcept {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// One executing task (or driver root) on this thread's frame stack.
/// Exclusive time accrues only while the segment is open; helping (nested
/// frames) and wait() close it.
struct Frame {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;
  std::uint64_t seq = 0;
  std::int64_t start_ns = 0;
  std::int64_t seg_start_ns = 0;
  std::int64_t excl_ns = 0;
  std::int64_t span_ns = 0;
  std::int64_t off_ns = 0;
  std::int64_t lat_ns = 0;
  bool seg_open = true;
  bool parent_was_open = false;
  bool migrated = false;
  bool root = false;
  const char* name = "task";
};

thread_local std::vector<Frame> tl_frames;

void close_segment(Frame& f, std::int64_t now) noexcept {
  if (f.seg_open) {
    f.excl_ns += now - f.seg_start_ns;
    f.span_ns += now - f.seg_start_ns;
    f.seg_open = false;
  }
}

void open_segment(Frame& f, std::int64_t now) noexcept {
  if (!f.seg_open) {
    f.seg_start_ns = now;
    f.seg_open = true;
  }
}

/// Running span including the currently open segment.
std::int64_t span_now(const Frame& f, std::int64_t now) noexcept {
  return f.span_ns + (f.seg_open ? now - f.seg_start_ns : 0);
}

}  // namespace

void emit_event(const TraceEvent& e) {
  if (Collector* c = g_collector.pin()) {
    c->thread_buffer().emit(e);
    g_collector.unpin();
  }
}

void push_frame(std::uint64_t id, std::uint64_t parent, std::uint64_t seq,
                std::int64_t off_ns, std::int64_t lat_ns, bool migrated,
                bool root, const char* name) {
  const std::int64_t now = now_ns();
  bool parent_was_open = false;
  if (!tl_frames.empty()) {
    Frame& p = tl_frames.back();
    parent_was_open = p.seg_open;
    close_segment(p, now);
  }
  Frame f;
  f.id = id;
  f.parent = parent;
  f.seq = seq;
  f.start_ns = now;
  f.seg_start_ns = now;
  f.off_ns = off_ns;
  f.lat_ns = lat_ns;
  f.parent_was_open = parent_was_open;
  f.migrated = migrated;
  f.root = root;
  f.name = name;
  tl_frames.push_back(f);
}

void pop_frame(GroupObs* fold_into) {
  if (tl_frames.empty()) return;  // collector churn mid-task; stay balanced
  const std::int64_t now = now_ns();
  Frame f = tl_frames.back();
  tl_frames.pop_back();
  close_segment(f, now);
  if (fold_into != nullptr) {
    fold_into->fold(f.off_ns + f.lat_ns + f.span_ns);
  }
  if (!tl_frames.empty() && f.parent_was_open) {
    open_segment(tl_frames.back(), now);
  }
  if (Collector* c = g_collector.pin()) {
    c->tasks_.fetch_add(1, std::memory_order_relaxed);
    c->work_ns_.fetch_add(f.excl_ns, std::memory_order_relaxed);
    if (f.root) c->span_ns_.fetch_add(f.span_ns, std::memory_order_relaxed);
    c->task_hist_.record(now - f.start_ns);
    ThreadBuffer& buf = c->thread_buffer();
    buf.busy_ns += f.excl_ns;
    TraceEvent e;
    e.name = f.name;
    e.kind = TraceEvent::Kind::Task;
    e.trace = tl_trace_id;
    e.ts_ns = f.start_ns;
    e.dur_ns = now - f.start_ns;
    e.id = f.id;
    e.parent = f.parent;
    e.seq = f.seq;
    e.off_ns = f.off_ns;
    e.lat_ns = f.lat_ns;
    e.span_ns = f.span_ns;
    e.excl_ns = f.excl_ns;
    e.migrated = f.migrated;
    buf.emit(e);
    g_collector.unpin();
  }
}

void spawn_hook(TaskTag& tag, std::uint64_t seq) {
  const std::int64_t now = now_ns();
  tag.id = g_next_task_id.fetch_add(1, std::memory_order_relaxed);
  tag.spawn_ns = now;
  tag.spawn_thread = thread_uid();
  if (!tl_frames.empty()) {
    const Frame& p = tl_frames.back();
    tag.parent = p.id;
    tag.off_ns = span_now(p, now);
  }
  TraceEvent e;
  e.name = "spawn";
  e.kind = TraceEvent::Kind::Spawn;
  e.trace = tag.trace;
  e.ts_ns = now;
  e.id = tag.id;
  e.parent = tag.parent;
  e.seq = seq;
  e.off_ns = tag.off_ns;
  emit_event(e);
}

void inline_begin(std::uint64_t seq) {
  const std::int64_t now = now_ns();
  std::uint64_t parent = 0;
  std::int64_t off = 0;
  if (!tl_frames.empty()) {
    const Frame& p = tl_frames.back();
    parent = p.id;
    off = span_now(p, now);
  }
  push_frame(g_next_task_id.fetch_add(1, std::memory_order_relaxed), parent,
             seq, off, /*lat_ns=*/0, /*migrated=*/false, /*root=*/false,
             "task");
}

void run_begin(const TaskTag& tag, std::uint64_t seq) {
  const std::int64_t now = now_ns();
  const bool tagged = tag.id != 0;
  const std::uint64_t id =
      tagged ? tag.id : g_next_task_id.fetch_add(1, std::memory_order_relaxed);
  const std::int64_t lat = tagged ? now - tag.spawn_ns : 0;
  const bool migrated = tagged && tag.spawn_thread != thread_uid();
  if (migrated) {
    TraceEvent e;
    e.name = "steal";
    e.kind = TraceEvent::Kind::Steal;
    e.trace = tag.trace;
    e.ts_ns = now;
    e.id = id;
    e.parent = tag.parent;
    e.seq = seq;
    e.lat_ns = lat;
    emit_event(e);
  }
  push_frame(id, tag.parent, seq, tag.off_ns, lat, migrated, /*root=*/false,
             "task");
}

void task_end(GroupObs* fold_into) { pop_frame(fold_into); }

void node_event(std::uint64_t path, int depth, std::int64_t start_ns,
                std::int64_t dur_ns, std::int64_t excl_ns, std::uint64_t flops,
                const perf::Sample& hw) {
  TraceEvent e;
  e.name = "node";
  e.kind = TraceEvent::Kind::Node;
  e.trace = tl_trace_id;
  e.ts_ns = start_ns;
  e.dur_ns = dur_ns;
  e.id = path;
  e.seq = static_cast<std::uint64_t>(depth);
  e.excl_ns = excl_ns;
  e.span_ns = static_cast<std::int64_t>(flops);  // field reuse, see header
  e.hw_mask = static_cast<std::uint8_t>(hw.mask);
  for (int i = 0; i < perf::kEventCount; ++i) e.hw[i] = hw.value[i];
  emit_event(e);
}

void wait_begin() {
  if (tl_frames.empty()) return;
  close_segment(tl_frames.back(), now_ns());
}

void wait_end(GroupObs* fold_from) {
  if (tl_frames.empty()) return;
  const std::int64_t now = now_ns();
  Frame& f = tl_frames.back();
  // Emit a sync event only when the join extends the waiter's span — i.e.
  // some child's subtree was the longer path. Trivial waits (empty groups,
  // the TaskGroup destructor's second wait) would otherwise flood the ring:
  // the recursion creates a group per node even below the spawn threshold.
  bool extended = false;
  if (fold_from != nullptr) {
    const std::int64_t child =
        fold_from->max_child_ns.load(std::memory_order_acquire);
    if (child > f.span_ns) {
      f.span_ns = child;
      extended = true;
    }
  }
  open_segment(f, now);
  if (extended) {
    TraceEvent e;
    e.name = "sync";
    e.kind = TraceEvent::Kind::Sync;
    e.trace = tl_trace_id;
    e.ts_ns = now;
    e.parent = f.id;
    e.span_ns = f.span_ns;
    emit_event(e);
  }
}

void set_worker_hint(int worker_index) { tl_worker_hint = worker_index; }

int worker_hint() noexcept { return tl_worker_hint; }

}  // namespace detail

using detail::g_buffers_created;
using detail::g_collector;
using detail::g_generation;

namespace {

/// Per-thread cache of the buffer registered with the current attach
/// session; generation mismatch forces re-registration.
struct BufferCache {
  std::uint64_t generation = 0;
  ThreadBuffer* buffer = nullptr;
};
thread_local BufferCache tl_buffer_cache;

}  // namespace

Collector::Collector(std::size_t ring_capacity) {
  if (ring_capacity == 0) {
    const std::int64_t env = env_int("RLA_TRACE_BUF", 0);
    ring_capacity = env > 0 ? static_cast<std::size_t>(env)
                            : detail::kDefaultRingCapacity;
  }
  ring_capacity_ = std::max<std::size_t>(ring_capacity, 16);
}

Collector::~Collector() { detach(); }

bool Collector::try_attach() {
  if (!g_collector.try_arm(this)) return false;
  epoch_ns_ = std::chrono::duration_cast<std::chrono::nanoseconds>(
                  std::chrono::steady_clock::now().time_since_epoch())
                  .count();
  g_generation.fetch_add(1, std::memory_order_seq_cst);
  attached_ = true;
  return true;
}

void Collector::detach() {
  if (!attached_) return;
  // Waits out emitters that pinned before the slot cleared; pins bracket a
  // few ring-buffer stores, so this is short.
  g_collector.disarm(this);
  attached_ = false;
}

ThreadBuffer& Collector::thread_buffer() {
  const std::uint64_t gen = g_generation.load(std::memory_order_relaxed);
  if (tl_buffer_cache.generation == gen && tl_buffer_cache.buffer != nullptr) {
    return *tl_buffer_cache.buffer;
  }
  MutexLock lock(reg_mutex_);
  const int tid = static_cast<int>(buffers_.size());
  const int hint = detail::tl_worker_hint;
  std::string label =
      hint >= 0 ? "worker " + std::to_string(hint) : std::string("main");
  buffers_.push_back(
      std::make_unique<ThreadBuffer>(ring_capacity_, tid, std::move(label)));
  g_buffers_created.fetch_add(1, std::memory_order_relaxed);
  tl_buffer_cache = {gen, buffers_.back().get()};
  return *buffers_.back();
}

std::uint64_t Collector::tasks() const noexcept {
  return tasks_.load(std::memory_order_relaxed);
}

std::int64_t Collector::work_ns() const noexcept {
  return work_ns_.load(std::memory_order_relaxed);
}

std::int64_t Collector::span_ns() const noexcept {
  return span_ns_.load(std::memory_order_relaxed);
}

std::uint64_t Collector::events_dropped() const {
  MutexLock lock(reg_mutex_);
  std::uint64_t dropped = 0;
  for (const auto& buf : buffers_) {
    if (buf->written > buf->ring.size()) dropped += buf->written - buf->ring.size();
  }
  return dropped;
}

double Collector::achieved_parallelism() const noexcept {
  const std::int64_t span = span_ns();
  return span > 0 ? static_cast<double>(work_ns()) / static_cast<double>(span)
                  : 0.0;
}

std::uint64_t Collector::buffers_created() {
  return g_buffers_created.load(std::memory_order_relaxed);
}

namespace {

const char* phase_name(TraceEvent::Kind kind) noexcept {
  switch (kind) {
    case TraceEvent::Kind::Task: return "task";
    case TraceEvent::Kind::Phase: return "phase";
    case TraceEvent::Kind::Spawn: return "spawn";
    case TraceEvent::Kind::Steal: return "steal";
    case TraceEvent::Kind::Sync: return "sync";
    case TraceEvent::Kind::Node: return "node";
  }
  return "?";
}

void write_event(std::ostream& out, const TraceEvent& e, int tid,
                 std::int64_t epoch_ns) {
  const double ts_us = static_cast<double>(e.ts_ns - epoch_ns) / 1000.0;
  out << "{\"name\":";
  if (e.kind == TraceEvent::Kind::Node) {
    // Display name is the quadrant path key so Perfetto nests the recursion
    // ("d0" > "d1:2" > "d2:21" ...); the static name stays the cat.
    out << json::quote(treeprof::path_key(e.id));
  } else {
    out << json::quote(e.name);
  }
  out << ",\"cat\":\"" << phase_name(e.kind) << "\",\"pid\":1,\"tid\":" << tid;
  const bool durational = e.kind == TraceEvent::Kind::Task ||
                          e.kind == TraceEvent::Kind::Phase ||
                          e.kind == TraceEvent::Kind::Node;
  if (durational) {
    out << ",\"ph\":\"X\",\"ts\":" << ts_us
        << ",\"dur\":" << static_cast<double>(e.dur_ns) / 1000.0;
  } else {
    out << ",\"ph\":\"i\",\"s\":\"t\",\"ts\":" << ts_us;
  }
  out << ",\"args\":{";
  out << "\"id\":" << e.id << ",\"parent\":" << e.parent << ",\"seq\":" << e.seq;
  if (e.trace != 0) out << ",\"trace\":" << e.trace;
  if (e.kind == TraceEvent::Kind::Task) {
    out << ",\"off_ns\":" << e.off_ns << ",\"lat_ns\":" << e.lat_ns
        << ",\"span_ns\":" << e.span_ns << ",\"excl_ns\":" << e.excl_ns
        << ",\"migrated\":" << (e.migrated ? "true" : "false");
  } else if (e.kind == TraceEvent::Kind::Phase && e.hw_mask != 0) {
    // Scaled HW-counter deltas for this span (Perfetto shows them in the
    // args pane when the slice is selected).
    for (int i = 0; i < perf::kEventCount; ++i) {
      if ((e.hw_mask >> i) & 1u) {
        out << ",\"" << perf::event_name(i) << "\":" << e.hw[i];
      }
    }
  } else if (e.kind == TraceEvent::Kind::Node) {
    out << ",\"depth\":" << e.seq << ",\"excl_ns\":" << e.excl_ns
        << ",\"flops\":" << e.span_ns;
    for (int i = 0; i < perf::kEventCount; ++i) {
      if ((e.hw_mask >> i) & 1u) {
        out << ",\"" << perf::event_name(i) << "\":" << e.hw[i];
      }
    }
  } else if (e.kind == TraceEvent::Kind::Spawn) {
    out << ",\"off_ns\":" << e.off_ns;
  } else if (e.kind == TraceEvent::Kind::Steal) {
    out << ",\"lat_ns\":" << e.lat_ns;
  } else if (e.kind == TraceEvent::Kind::Sync) {
    out << ",\"span_ns\":" << e.span_ns;
  }
  out << "}}";
}

}  // namespace

void Collector::write_chrome_trace(std::ostream& out) const {
  MutexLock lock(reg_mutex_);
  out << "{\"traceEvents\":[";
  bool first = true;
  out << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,"
         "\"args\":{\"name\":\"rla\"}}";
  first = false;
  for (const auto& buf : buffers_) {
    out << ",{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":"
        << buf->tid << ",\"args\":{\"name\":" << json::quote(buf->label)
        << "}}";
  }
  // Stable lane order regardless of registration (= first-emission) order:
  // the main lane on top, then workers by pool index.
  for (const auto& buf : buffers_) {
    int sort = 0;
    if (buf->label.rfind("worker ", 0) == 0) {
      sort = 1 + std::atoi(buf->label.c_str() + 7);
    }
    out << ",{\"name\":\"thread_sort_index\",\"ph\":\"M\",\"pid\":1,\"tid\":"
        << buf->tid << ",\"args\":{\"sort_index\":" << sort << "}}";
  }
  for (const auto& buf : buffers_) {
    const std::uint64_t count = std::min<std::uint64_t>(buf->written, buf->ring.size());
    const std::uint64_t start = buf->written - count;
    for (std::uint64_t i = start; i < buf->written; ++i) {
      if (!first) out << ",";
      first = false;
      write_event(out, buf->ring[i % buf->ring.size()], buf->tid, epoch_ns_);
      out << "\n";
    }
  }
  out << "],\"displayTimeUnit\":\"ms\"";
  out << ",\"rla_metrics\":" << registry_.snapshot().dump();
  out << ",\"rla_summary\":{\"tasks\":" << tasks() << ",\"work_ns\":" << work_ns()
      << ",\"span_ns\":" << span_ns() << ",\"parallelism\":"
      << json::Value::number(achieved_parallelism()).dump()
      << ",\"events_dropped\":";
  std::uint64_t dropped = 0;
  for (const auto& buf : buffers_) {
    if (buf->written > buf->ring.size()) dropped += buf->written - buf->ring.size();
  }
  out << dropped << "}}\n";
}

bool Collector::write_chrome_trace_file(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  write_chrome_trace(out);
  out.flush();
  return static_cast<bool>(out);
}

ScopedRoot::ScopedRoot(const char* name) : on_(armed()) {
  if (on_) {
    detail::push_frame(
        detail::g_next_task_id.fetch_add(1, std::memory_order_relaxed),
        /*parent=*/0, /*seq=*/0, /*off_ns=*/0, /*lat_ns=*/0,
        /*migrated=*/false, /*root=*/true, name);
  }
}

ScopedRoot::~ScopedRoot() {
  if (on_) detail::pop_frame(nullptr);
}

PhaseScope::PhaseScope(const char* name) : name_(name), on_(armed()) {
  hw_on_ = perf::phase_snapshot(hw_begin_);
  if (on_ || hw_on_) start_ns_ = detail::now_ns();
}

PhaseScope::PhaseScope(const char* name, bool enabled)
    : name_(name), on_(enabled && armed()) {
  if (enabled) hw_on_ = perf::phase_snapshot(hw_begin_);
  if (on_ || hw_on_) start_ns_ = detail::now_ns();
}

PhaseScope::~PhaseScope() {
  if (!on_ && !hw_on_) return;
  TraceEvent e;
  e.name = name_;
  e.kind = TraceEvent::Kind::Phase;
  e.trace = current_trace_id();
  e.ts_ns = start_ns_;
  e.dur_ns = detail::now_ns() - start_ns_;
  if (hw_on_) {
    // Bracket the phase with whole-process counter snapshots (the sum over
    // all thread groups — work done by workers inside the phase counts) and
    // fold the delta into the session's per-phase aggregate.
    perf::Sample end;
    if (perf::phase_snapshot(end)) {
      const perf::Sample d = end.delta_since(hw_begin_);
      perf::note_phase(name_, d);
      e.hw_mask = static_cast<std::uint8_t>(d.mask);
      for (int i = 0; i < perf::kEventCount; ++i) e.hw[i] = d.value[i];
    }
  }
  if (!on_) return;  // counters recorded; no collector to emit the span to
  if (!detail::tl_frames.empty()) e.parent = detail::tl_frames.back().id;
  detail::emit_event(e);
}

}  // namespace rla::obs
