// The benchmark's workloads. Each takes the run's settings and returns
// its correctness verdict, operation counts and metrics.
#pragma once

#include "common.h"
#include "qwm/core/qwm.h"

namespace qwmbench {

/// grid_sta / tree_sta: full STA of a generated design at nproc lanes.
RunResult run_sta_workload(const RunConfig& cfg);

/// decoder_serve: the qwm_serve daemon on loopback under a read mix and
/// a scheduled what-if writer.
RunResult run_serve_workload(const RunConfig& cfg, const std::string& serve_bin);

/// Sets the region-solver, device and fallback-rung counters of one full
/// analysis (`evals` arcs, `cache_hits` of them served by the memo).
void report_solver_counters(Metrics& m, const qwm::core::QwmStats& q,
                            std::size_t evals, std::size_t cache_hits);

/// Every per-layer metric name of BENCHMARK.json with its unit. A traced
/// run reports each one; a metric that does not apply to the workload
/// reads 0 (README.md lists which apply where).
const std::vector<std::pair<std::string, std::string>>& per_layer_metrics();

}  // namespace qwmbench
