#include "obs/treeprof/treeprof.hpp"

#include <algorithm>
#include <chrono>
#include <unordered_map>

#include "obs/armed_slot.hpp"
#include "obs/collector.hpp"
#include "util/env.hpp"

namespace rla::obs::treeprof {

// ---- path encoding ----------------------------------------------------------

int path_depth(std::uint64_t path) noexcept {
  int d = 0;
  while (path != 1 && path != 0) {
    path >>= 3;
    ++d;
  }
  return d;
}

unsigned path_digit(std::uint64_t path, int i) noexcept {
  const int d = path_depth(path);
  if (i < 0 || i >= d) return 0;
  return static_cast<unsigned>((path >> (3 * (d - 1 - i))) & 7u);
}

std::string path_key(std::uint64_t path) {
  const int d = path_depth(path);
  std::string out = "d" + std::to_string(d);
  if (d > 0) {
    out += ':';
    for (int i = 0; i < d; ++i) {
      out += static_cast<char>('0' + path_digit(path, i));
    }
  }
  return out;
}

int default_max_depth() {
  int d = env_int("RLA_TREEPROF_MAX_DEPTH", kDefaultMaxDepth);
  if (d < 0) d = 0;
  if (d > kMaxPathDepth) d = kMaxPathDepth;
  return d;
}

// ---- session slot (obs/armed_slot.hpp, as for Collector / perf::Session) ---

namespace {

ArmedSlot<Session> g_session;

/// Attach generations, invalidating per-thread table and frame caches.
std::atomic<std::uint64_t> g_generation{1};

std::int64_t now_ns() noexcept {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// ---- per-thread frame stack -------------------------------------------------

/// One open recursion-node frame. Mirrors the Collector's frame discipline:
/// only the top frame has an open exclusive segment; pushes close the
/// parent's segment, pops reopen it unless a wait paused it.
struct Frame {
  std::uint64_t path = kRootPath;
  std::uint64_t gen = 0;        ///< session generation at push
  std::int64_t start_ns = 0;    ///< push time (inclusive span start)
  std::int64_t seg_start = 0;   ///< open exclusive segment start (0 = closed)
  std::uint64_t excl_ns = 0;
  std::uint64_t flops = 0;
  std::uint64_t tasks = 0;
  perf::Sample hw;              ///< exclusive PMU deltas charged so far
  bool paused = false;          ///< a TaskGroup::wait() is in progress here
};

thread_local std::vector<Frame> tl_stack;

/// PMU interval baseline for this thread: counters at the last frame
/// transition. The delta since the baseline belongs to whoever owned the
/// elapsed interval.
thread_local perf::Sample tl_pmu_base;
thread_local bool tl_pmu_valid = false;

void close_segment(Frame& f, std::int64_t now) noexcept {
  if (f.seg_start != 0) {
    if (now > f.seg_start) {
      f.excl_ns += static_cast<std::uint64_t>(now - f.seg_start);
    }
    f.seg_start = 0;
  }
}

void open_segment(Frame& f, std::int64_t now) noexcept { f.seg_start = now; }

/// Read this thread's counters and charge the interval since the last
/// baseline to `owner` (null = drop it: idle / scheduler time).
void pmu_flush(Frame* owner) noexcept {
  perf::Sample now_s;
  if (!perf::thread_sample(now_s)) {
    tl_pmu_valid = false;
    return;
  }
  if (tl_pmu_valid && owner != nullptr) {
    owner->hw.accumulate(now_s.delta_since(tl_pmu_base));
  }
  tl_pmu_base = now_s;
  tl_pmu_valid = true;
}

}  // namespace

// ---- Session ----------------------------------------------------------------

struct Session::Table {
  /// Single writer (the owning thread); fold() reads after detach()'s
  /// quiescence barrier.
  std::unordered_map<std::uint64_t, NodeStats> map;
};

namespace {
thread_local Session::Table* tl_table = nullptr;
thread_local std::uint64_t tl_table_gen = 0;
}  // namespace

Session::Session(int max_depth) : max_depth_(max_depth) {
  if (max_depth_ < 0) max_depth_ = 0;
  if (max_depth_ > kMaxPathDepth) max_depth_ = kMaxPathDepth;
}

Session::~Session() { detach(); }

bool Session::try_attach() {
  if (attached_) return false;
  // Hooks read gen_ through the armed slot, so it is set before arming.
  gen_ = g_generation.fetch_add(1, std::memory_order_seq_cst) + 1;
  if (!g_session.try_arm(this)) return false;
  attached_ = true;
  detail::g_armed.store(true, std::memory_order_seq_cst);
  return true;
}

void Session::detach() {
  if (!attached_) return;
  detail::g_armed.store(false, std::memory_order_seq_cst);
  g_session.disarm(this);
  attached_ = false;
}

Session::Table* Session::table_for_current_thread() {
  if (tl_table != nullptr && tl_table_gen == gen_) return tl_table;
  MutexLock lock(mutex_);
  tables_.push_back(std::make_unique<Table>());
  tl_table = tables_.back().get();
  tl_table_gen = gen_;
  return tl_table;
}

std::vector<Node> Session::fold() const {
  std::unordered_map<std::uint64_t, NodeStats> merged;
  {
    MutexLock lock(mutex_);
    for (const auto& table : tables_) {
      for (const auto& [path, stats] : table->map) {
        NodeStats& n = merged[path];
        n.time_ns += stats.time_ns;
        n.flops += stats.flops;
        n.tasks += stats.tasks;
        n.hw.accumulate(stats.hw);
      }
    }
  }
  std::vector<Node> out;
  out.reserve(merged.size());
  for (const auto& [path, stats] : merged) out.push_back({path, stats});
  std::sort(out.begin(), out.end(), [](const Node& a, const Node& b) {
    const int da = path_depth(a.path);
    const int db = path_depth(b.path);
    return da != db ? da < db : a.path < b.path;
  });
  return out;
}

namespace detail {
std::atomic<bool> g_armed{false};
}  // namespace detail

// ---- scopes -----------------------------------------------------------------

namespace {

/// Flush a finished frame into the armed session's per-thread table,
/// dropping it when the session changed since the frame opened.
void flush_to_table(const Frame& f) {
  Session* s = g_session.pin();
  if (s == nullptr) return;
  if (s->generation() == f.gen) {
    Session::Table* t = s->table_for_current_thread();
    NodeStats& n = t->map[f.path];
    n.time_ns += f.excl_ns;
    n.flops += f.flops;
    n.tasks += f.tasks;
    n.hw.accumulate(f.hw);
  }
  g_session.unpin();
}

}  // namespace

NodeScope::NodeScope(std::uint64_t path) noexcept {
  if (!armed()) return;
  Session* s = g_session.pin();
  if (s == nullptr) return;
  const int depth = path_depth(path);
  if (depth > s->max_depth()) {
    // Deeper than the frame cap: the node is charged to its ancestor at the
    // cap. Usually that ancestor's frame is on top of this thread's stack
    // and only the task tally records this node ran; a capped task stolen
    // or injected onto another thread opens a frame for the ancestor there.
    path >>= 3 * (depth - s->max_depth());
    if (!tl_stack.empty() && tl_stack.back().path == path &&
        tl_stack.back().gen == s->generation()) {
      tl_stack.back().tasks += 1;
      g_session.unpin();
      return;
    }
  }
  const std::int64_t now = now_ns();
  if (!tl_stack.empty()) {
    Frame& top = tl_stack.back();
    close_segment(top, now);
    pmu_flush(top.paused ? nullptr : &top);
  } else {
    pmu_flush(nullptr);  // rebaseline: prior interval belongs to no frame
  }
  Frame f;
  f.path = path;
  f.gen = s->generation();
  f.start_ns = now;
  f.seg_start = now;
  f.tasks = 1;
  tl_stack.push_back(f);
  open_ = true;
  g_session.unpin();
}

NodeScope::~NodeScope() {
  if (!open_ || tl_stack.empty()) return;
  const std::int64_t now = now_ns();
  Frame f = tl_stack.back();
  tl_stack.pop_back();
  close_segment(f, now);
  pmu_flush(&f);
  if (obs::armed()) {
    obs::detail::node_event(f.path, path_depth(f.path), f.start_ns,
                            now - f.start_ns,
                            static_cast<std::int64_t>(f.excl_ns), f.flops,
                            f.hw);
  }
  flush_to_table(f);
  if (!tl_stack.empty()) {
    Frame& top = tl_stack.back();
    if (!top.paused) open_segment(top, now);
  }
}

void add_flops(std::uint64_t n) noexcept {
  if (!armed()) return;
  if (!tl_stack.empty()) tl_stack.back().flops += n;
}

namespace detail {

void wait_begin() noexcept {
  if (tl_stack.empty()) return;
  Frame& top = tl_stack.back();
  if (top.paused) return;
  close_segment(top, now_ns());
  pmu_flush(&top);
  top.paused = true;
}

void wait_end() noexcept {
  if (tl_stack.empty()) return;
  Frame& top = tl_stack.back();
  if (!top.paused) return;
  top.paused = false;
  open_segment(top, now_ns());
  pmu_flush(nullptr);  // waited interval belongs to no frame
}

}  // namespace detail

// ---- flame export -----------------------------------------------------------

std::string folded_stacks(
    const std::vector<std::pair<std::string, std::uint64_t>>& rows) {
  std::string out;
  for (const auto& [key, value] : rows) {
    std::string stack = "gemm";
    // "d<depth>[:digits]" — one stack frame per quadrant digit.
    const std::size_t colon = key.find(':');
    if (colon != std::string::npos) {
      for (std::size_t i = colon + 1; i < key.size(); ++i) {
        stack += ';';
        stack += key[i];
      }
    } else if (!key.empty() && key[0] != 'd') {
      stack += ';';
      stack += key;  // not a path key; keep it as one frame
    }
    out += stack;
    out += ' ';
    out += std::to_string(value);
    out += '\n';
  }
  return out;
}

}  // namespace rla::obs::treeprof
