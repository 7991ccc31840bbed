// GemmProfile <-> JSON (schema in DESIGN.md §10).
//
// One field list per struct (`fields` below) drives both directions:
// to_json emits the fields in list order, from_json reads the same keys
// back, so to_json(from_json(s)) == s for any s that to_json produced.
// Unknown keys are ignored on input (forward compatibility), missing or
// wrongly typed keys leave the default value in place, and array items of
// the wrong type are dropped.

#include <concepts>
#include <type_traits>
#include <utility>

#include "core/gemm.hpp"
#include "obs/json.hpp"

namespace rla {

namespace {

using obs::json::Value;
using HwPhase = std::pair<std::string, GemmProfile::HwCounters>;

/// S is T or const T: each list serves the writer and the reader alike.
template <class S, class T>
concept Is = std::same_as<std::remove_const_t<S>, T>;

template <Is<GemmProfile::HwCounters> S, class F>
void fields(S& hw, F&& f) {
  f("cycles", hw.cycles);
  f("instructions", hw.instructions);
  f("l1d_read_misses", hw.l1d_read_misses);
  f("llc_misses", hw.llc_misses);
  f("dtlb_misses", hw.dtlb_misses);
  f("task_clock_ns", hw.task_clock_ns);
}

template <Is<HwPhase> S, class F>
void fields(S& phase, F&& f) {
  f("phase", phase.first);
  fields(phase.second, f);  // counters inline, beside the phase name
}

template <Is<GemmProfile::TreeNode> S, class F>
void fields(S& node, F&& f) {
  f("key", node.key);
  f("time_ns", node.time_ns);
  f("flops", node.flops);
  f("tasks", node.tasks);
  f("hw_valid", node.hw_valid);
  fields(node.hw, f);
}

template <Is<GemmProfile::SchedStats> S, class F>
void fields(S& s, F&& f) {
  f("workers", s.workers);
  f("tasks", s.tasks);
  f("steals", s.steals);
  f("failed_steals", s.failed_steals);
  f("idle_wakeups", s.idle_wakeups);
  f("injection_pops", s.injection_pops);
  f("deque_high_water", s.deque_high_water);
}

template <Is<GemmProfile> S, class F>
void fields(S& p, F&& f) {
  f("trace_id", p.trace_id);
  f("convert_in", p.convert_in);
  f("compute", p.compute);
  f("convert_out", p.convert_out);
  f("total", p.total);
  f("depth", p.depth);
  f("tile_m", p.tile_m);
  f("tile_k", p.tile_k);
  f("tile_n", p.tile_n);
  f("splits", p.splits);
  f("degradation_trail", p.degradation_trail);
  f("degradations", p.degradations);
  f("verify_probes", p.verify_probes);
  f("verify_max_residual", p.verify_max_residual);
  f("verify_failed", p.verify_failed);
  f("verify_rerun", p.verify_rerun);
  f("races", p.races);
  f("race_certified", p.race_certified);
  f("race_cells", p.race_cells);
  f("race_reports", p.race_reports);
  f("bound_constant", p.bound_constant);
  f("error_bound", p.error_bound);
  f("bound_fast_levels", p.bound_fast_levels);
  f("numerics_analyzed", p.numerics_analyzed);
  f("observed_abs_error", p.observed_abs_error);
  f("observed_rel_error", p.observed_rel_error);
  f("cancellations", p.cancellations);
  f("shadow_cells", p.shadow_cells);
  f("worst_cell_path", p.worst_cell_path);
  f("fp_hazards", p.fp_hazards);
  f("fp_degraded", p.fp_degraded);
  f("sched", p.sched);
  f("measured", p.measured);
  f("measured_work", p.measured_work);
  f("measured_span", p.measured_span);
  f("achieved_parallelism", p.achieved_parallelism);
  f("parallel_slackness", p.parallel_slackness);
  f("tasks_traced", p.tasks_traced);
  f("trace_events_dropped", p.trace_events_dropped);
  f("trace_file", p.trace_file);
  f("task_ns_hist", p.task_ns_hist);
  f("model_work", p.model_work);
  f("model_span", p.model_span);
  f("model_parallelism", p.model_parallelism);
  f("hw_measured", p.hw_measured);
  f("hw_scale", p.hw_scale);
  f("hw_events", p.hw_events);
  f("hw_total", p.hw_total);
  f("hw_phases", p.hw_phases);
  f("tree_measured", p.tree_measured);
  f("tree_profile", p.tree_profile);
}

template <class T>
constexpr bool kIsVector = false;
template <class T>
constexpr bool kIsVector<std::vector<T>> = true;

/// Booleans, numbers, strings, arrays of those or of structs, and structs
/// (as objects, through their field list).
template <class T>
Value to_value(const T& x) {
  if constexpr (std::is_same_v<T, bool>) {
    return Value::boolean(x);
  } else if constexpr (std::is_arithmetic_v<T>) {
    return Value::number(x);
  } else if constexpr (std::is_same_v<T, std::string>) {
    return Value::string(x);
  } else if constexpr (kIsVector<T>) {
    Value out = Value::array();
    for (const auto& item : x) out.push_back(to_value(item));
    return out;
  } else {
    Value out = Value::object();
    fields(x, [&out](const char* key, const auto& field) {
      out.set(key, to_value(field));
    });
    return out;
  }
}

/// Inverse of to_value: false, leaving `x` alone, when `v` has the wrong
/// kind. Struct fields absent from `v` keep their values.
template <class T>
bool from_value(const Value& v, T& x) {
  if constexpr (std::is_same_v<T, bool>) {
    if (!v.is_bool()) return false;
    x = v.as_bool();
  } else if constexpr (std::is_floating_point_v<T>) {
    if (!v.is_number()) return false;
    x = v.as_double();
  } else if constexpr (std::is_signed_v<T>) {
    if (!v.is_number()) return false;
    x = static_cast<T>(v.as_int());
  } else if constexpr (std::is_unsigned_v<T>) {
    if (!v.is_number()) return false;
    x = static_cast<T>(v.as_uint());
  } else if constexpr (std::is_same_v<T, std::string>) {
    if (!v.is_string()) return false;
    x = v.as_string();
  } else if constexpr (kIsVector<T>) {
    if (!v.is_array()) return false;
    x.clear();
    for (const Value& item : v.items()) {
      typename T::value_type parsed{};
      if (from_value(item, parsed)) x.push_back(std::move(parsed));
    }
  } else {
    if (!v.is_object()) return false;
    fields(x, [&v](const char* key, auto& field) {
      if (const Value* member = v.find(key)) from_value(*member, field);
    });
  }
  return true;
}

}  // namespace

std::string GemmProfile::to_json() const { return to_value(*this).dump(); }

bool GemmProfile::from_json(const std::string& text, GemmProfile& out) {
  const std::optional<Value> parsed = Value::parse(text);
  if (!parsed || !parsed->is_object()) return false;
  GemmProfile p;
  from_value(*parsed, p);
  out = std::move(p);
  return true;
}

}  // namespace rla
