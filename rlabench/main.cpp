// rlabench: run one workload of the repo benchmark and print its metric
// sheet as one JSON object. rlabench/run.py builds this binary, runs it and
// turns the sheet into the benchmark's result line.
//
//   rlabench --workload square_std --seed 1 --seconds 10 --trace 0
//            [--small] [--spans spans.jsonl]

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "bench.hpp"
#include "core/gemm.hpp"
#include "core/matrix.hpp"
#include "obs/json.hpp"
#include "workloads.hpp"

namespace {

namespace json = rla::obs::json;

int usage(const char* why) {
  std::fprintf(stderr,
               "rlabench: %s\n"
               "usage: rlabench --workload square_std|square_strassen|panel_update|served_mixed\n"
               "                --seed N --seconds S --trace 0|1 [--small] [--spans PATH]\n",
               why);
  return 2;
}

/// Whether hardware counters count on this host: one small gemm with
/// counters armed, outside every timed interval.
std::string pmu_status() {
  rla::Matrix a(64, 64), b(64, 64), c(64, 64);
  a.fill_random(1);
  b.fill_random(2);
  rla::GemmConfig cfg;
  cfg.hw_counters = true;
  rla::GemmProfile p;
  rla::multiply(c, a, b, cfg, &p);
  for (const std::string& e : p.hw_events)
    if (e == "cycles") return "available";
  for (const std::string& t : p.degradation_trail)
    if (t.rfind("perf:", 0) == 0) return "unavailable (" + t + ")";
  return "unavailable (no hardware events counted)";
}

}  // namespace

int main(int argc, char** argv) {
  rlabench::Options opt;
  bool have_seconds = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--small") {
      opt.small = true;
    } else if (arg == "--workload" && has_value) {
      opt.workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      opt.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds" && has_value) {
      opt.seconds = std::strtod(argv[++i], nullptr);
      have_seconds = true;
    } else if (arg == "--trace" && has_value) {
      opt.trace = std::strcmp(argv[++i], "0") != 0;
    } else if (arg == "--spans" && has_value) {
      opt.spans_path = argv[++i];
    } else {
      return usage(("unknown argument " + arg).c_str());
    }
  }
  if (!have_seconds || !(opt.seconds > 0.0) || opt.seconds > 600.0)
    return usage("--seconds must be in (0, 600]");

  rlabench::Sheet sheet;
  if (opt.workload == "served_mixed") {
    sheet = rlabench::run_served(opt);
  } else if (opt.workload == "square_std" || opt.workload == "square_strassen" ||
             opt.workload == "panel_update") {
    sheet = rlabench::run_closed_loop(opt);
  } else {
    return usage(("unknown workload " + opt.workload).c_str());
  }

  json::Value out = json::Value::object();
  out.set("workload", json::Value::string(opt.workload));
  out.set("seed", json::Value::number(opt.seed));
  out.set("trace", json::Value::boolean(opt.trace));
  out.set("attempted", json::Value::number(sheet.attempted));
  out.set("failed", json::Value::number(sheet.failed));
  out.set("oracle_ok", json::Value::boolean(sheet.oracle_ok));
  out.set("threads", json::Value::number(rlabench::load_threads()));
  out.set("pmu", json::Value::string(pmu_status()));
  json::Value notes = json::Value::array();
  for (const std::string& n : sheet.notes) notes.push_back(json::Value::string(n));
  out.set("notes", std::move(notes));
  json::Value metrics = json::Value::array();
  for (const rlabench::Metric& m : sheet.metrics) {
    json::Value e = json::Value::object();
    e.set("name", json::Value::string(m.name));
    e.set("value", json::Value::number(m.value));
    e.set("unit", json::Value::string(m.unit));
    e.set("note", json::Value::string(m.note));
    metrics.push_back(std::move(e));
  }
  out.set("metrics", std::move(metrics));
  std::printf("%s\n", out.dump().c_str());
  return 0;
}
