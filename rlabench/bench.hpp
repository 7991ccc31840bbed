#pragma once

// Shared pieces of the repo benchmark: run options, the metric sheet every
// workload fills, order statistics, and the bench-side span log of the traced
// run. Everything here measures the library from outside, through its public
// headers.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace rlabench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

inline std::int64_t ns_of(Clock::time_point t) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(t.time_since_epoch())
      .count();
}

/// Freivalds check applied to every operation: escape probability <= 2^-2,
/// and the allowed scaled residual per element.
constexpr int kProbes = 2;
constexpr double kTolerance = 1e-6;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Reduced problem sizes, for the self-test only.
  bool small = false;
  /// Where the traced run writes its spans (JSON lines); empty = nowhere.
  std::string spans_path;
};

/// One named measurement with its unit. `note` carries context that is not
/// a number (which percentile a tail is, how a value was computed).
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::string note;
};

/// Everything one workload run reports.
struct Sheet {
  std::vector<Metric> metrics;
  std::uint64_t attempted = 0;  ///< operations issued (warm-up included)
  std::uint64_t failed = 0;     ///< threw, failed a check, or ended Failed/Rejected
  bool oracle_ok = true;        ///< the once-per-workload reference comparison
  std::vector<std::string> notes;

  double fail_frac() const {
    return attempted ? static_cast<double>(failed) / static_cast<double>(attempted) : 0.0;
  }

  void add(std::string name, double value, std::string unit, std::string note = {}) {
    metrics.push_back({std::move(name), value, std::move(unit), std::move(note)});
  }
};

/// Median of `v` (0 when empty).
inline double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t h = v.size() / 2;
  return v.size() % 2 == 1 ? v[h] : 0.5 * (v[h - 1] + v[h]);
}

/// The highest order statistic with at least ten samples above it, and at
/// least a tenth of them once there are more than 100 (so never above p90),
/// with the percentile it sits at. With ten samples or fewer no such
/// statistic exists; the maximum is reported at percentile 100 instead.
/// The p90 cap keeps a short-call workload's tail from being set by the few
/// calls one slow phase of a shared host happens to hit.
struct Tail {
  double value = 0.0;
  double percentile = 100.0;
  std::size_t samples = 0;
};

inline Tail tail_of(std::vector<double> v) {
  Tail t;
  t.samples = v.size();
  if (v.empty()) return t;
  std::sort(v.begin(), v.end());
  if (v.size() <= 10) {
    t.value = v.back();
    return t;
  }
  const std::size_t above = std::max<std::size_t>(10, v.size() / 10);
  const std::size_t idx = v.size() - 1 - above;
  t.value = v[idx];
  t.percentile = 100.0 * static_cast<double>(idx + 1) / static_cast<double>(v.size());
  return t;
}

std::string tail_note(const Tail& t);

/// Bench-side spans of the traced run: name, start, end, parent, and one id
/// per call or request (the service's trace id for served requests). Kept in
/// memory and written out once, at exit.
class SpanLog {
 public:
  struct Span {
    std::string name;
    std::uint64_t id = 0;
    int parent = -1;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
  };

  /// Open a span starting now; returns its index.
  int open(std::string name, std::uint64_t id, int parent = -1);
  void close(int index);
  /// Record a span whose interval was measured elsewhere.
  int record(std::string name, std::uint64_t id, int parent, std::int64_t start_ns,
             std::int64_t end_ns);

  /// Total self time (duration minus the union of its children's
  /// intervals) of every span called `name`, in seconds.
  double self_seconds(const std::string& name) const;
  std::size_t count(const std::string& name) const;

  bool write(const std::string& path) const;

 private:
  std::vector<Span> spans_;
};

/// self.op_ms, self.verify_ms, self.window_ms per traced operation, then
/// write the spans to opt.spans_path (when set).
void finish_spans(Sheet& sheet, const SpanLog& spans, const Options& opt);

/// Classical 2mnk flop count.
inline double classical_flops(std::uint32_t m, std::uint32_t n, std::uint32_t k) {
  return 2.0 * m * n * k;
}

/// Threads a workload keeps busy: one fewer than the host's hardware
/// threads (at least one). On a shared 4-vCPU host, runs that used every
/// vCPU spread 3-4x wider than runs that left one free, because a stalled
/// vCPU stalls the whole fork-join call.
unsigned load_threads();
double peak_rss_mb();

}  // namespace rlabench
