#pragma once

#include <cstddef>
#include <vector>

#include "bench.hpp"
#include "service/service.hpp"

namespace rlabench {

/// square_std, square_strassen, panel_update: one caller, one call at a time.
Sheet run_closed_loop(const Options& opt);

/// served_mixed: an open-loop Poisson stream into one GemmService.
Sheet run_served(const Options& opt);

/// service.* and arena.reuse_frac from a set of responses and the service
/// that produced them.
void add_service_metrics(Sheet& sheet,
                         const std::vector<rla::service::Response>& responses,
                         const rla::service::GemmService& service);

}  // namespace rlabench
