#include "bench.hpp"

#include <sys/resource.h>

#include <cstdio>
#include <fstream>
#include <thread>

namespace rlabench {

std::string tail_note(const Tail& t) {
  char buf[96];
  std::snprintf(buf, sizeof buf, "p%.2f of %zu samples", t.percentile, t.samples);
  return buf;
}

int SpanLog::open(std::string name, std::uint64_t id, int parent) {
  const std::int64_t now = ns_of(Clock::now());
  return record(std::move(name), id, parent, now, now);
}

void SpanLog::close(int index) { spans_[static_cast<std::size_t>(index)].end_ns = ns_of(Clock::now()); }

int SpanLog::record(std::string name, std::uint64_t id, int parent, std::int64_t start_ns,
                    std::int64_t end_ns) {
  spans_.push_back({std::move(name), id, parent, start_ns, end_ns});
  return static_cast<int>(spans_.size()) - 1;
}

double SpanLog::self_seconds(const std::string& name) const {
  // Children of each span, so each parent's covered time is the union of
  // its children's intervals clipped to its own.
  std::vector<std::vector<std::size_t>> children(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i)
    if (spans_[i].parent >= 0) children[static_cast<std::size_t>(spans_[i].parent)].push_back(i);
  double total_ns = 0.0;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.name != name) continue;
    std::vector<std::pair<std::int64_t, std::int64_t>> iv;
    for (std::size_t c : children[i])
      iv.emplace_back(std::max(spans_[c].start_ns, s.start_ns), std::min(spans_[c].end_ns, s.end_ns));
    std::sort(iv.begin(), iv.end());
    std::int64_t covered = 0, cur_b = 0, cur_e = 0;
    bool open = false;
    for (const auto& [b, e] : iv) {
      if (e <= b) continue;
      if (!open || b > cur_e) {
        if (open) covered += cur_e - cur_b;
        cur_b = b;
        cur_e = e;
        open = true;
      } else {
        cur_e = std::max(cur_e, e);
      }
    }
    if (open) covered += cur_e - cur_b;
    total_ns += static_cast<double>(s.end_ns - s.start_ns - covered);
  }
  return total_ns * 1e-9;
}

std::size_t SpanLog::count(const std::string& name) const {
  return static_cast<std::size_t>(
      std::count_if(spans_.begin(), spans_.end(), [&](const Span& s) { return s.name == name; }));
}

bool SpanLog::write(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << "{\"i\":" << i << ",\"name\":\"" << s.name << "\",\"id\":" << s.id
        << ",\"parent\":" << s.parent << ",\"start_ns\":" << s.start_ns
        << ",\"end_ns\":" << s.end_ns << "}\n";
  }
  return static_cast<bool>(out);
}

void finish_spans(Sheet& sheet, const SpanLog& spans, const Options& opt) {
  const double per_op_ms = 1e3 / std::max<double>(1.0, static_cast<double>(spans.count("op")));
  sheet.add("self.op_ms", spans.self_seconds("op") * per_op_ms, "ms",
            "per traced operation: gemm call, or submit -> resolve");
  sheet.add("self.verify_ms", spans.self_seconds("verify") * per_op_ms, "ms",
            "per traced operation");
  sheet.add("self.window_ms", spans.self_seconds("window") * per_op_ms, "ms",
            "per traced operation: window time outside every child span");
  if (!opt.spans_path.empty() && !spans.write(opt.spans_path))
    sheet.notes.push_back("could not write spans to " + opt.spans_path);
}

unsigned load_threads() {
  const unsigned n = std::thread::hardware_concurrency();
  return n > 1 ? n - 1 : 1;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

}  // namespace rlabench
