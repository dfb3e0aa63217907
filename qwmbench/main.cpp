// qwm_bench — the QWM timer's benchmark program.
//
//   qwm_bench --workload grid_sta|tree_sta|decoder_serve --seed N
//             --seconds S --trace 0|1 --out-dir DIR --serve-bin PATH
//
// Prints progress and failed checks on stderr and, as the last line of
// stdout, one JSON object: {"correct", "attempted", "failed", "metrics"}.
// An untraced run reports the end-to-end metrics, a traced run the
// per-layer metrics (README.md).
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <thread>

#include "common.h"
#include "workloads.h"

namespace qwmbench {

const std::vector<std::pair<std::string, std::string>>& per_layer_metrics() {
  static const std::vector<std::pair<std::string, std::string>> kList = {
      {"frontend.generate_s", "s"},
      {"frontend.elaborate_s", "s"},
      {"device.characterize_s", "s"},
      {"sta.construct_s", "s"},
      {"netlist.parse_s", "s"},
      {"circuit.partition_s", "s"},
      {"service.load_s", "s"},
      {"core.newton_per_run", "count"},
      {"core.regions", "count"},
      {"core.linear_solves", "count"},
      {"core.lu_fallbacks", "count"},
      {"device.evals_per_arc", "count"},
      {"device.lanes_per_batch", "count"},
      {"core.rung_damped", "count"},
      {"core.rung_bisect", "count"},
      {"core.rung_spice", "count"},
      {"core.qwm_runs", "count"},
      {"core.cache_hit_ratio", "ratio"},
      {"core.warm_starts", "count"},
      {"core.warm_retries", "count"},
      {"circuit.path_build_us", "us"},
      {"core.qwm_solve_us", "us"},
      {"core.qwm_solve_rung_us", "us"},
      {"spice.stage_1ps_ms", "ms"},
      {"spice.speedup_vs_qwm", "x"},
      {"spice.sample_arcs", "count"},
      {"spice.misses_unmarked", "count"},
      {"spice.misses_degraded", "count"},
      {"spice.max_rel_err", "ratio"},
      {"sta.run_cpu_s", "s"},
      {"sta.lane_efficiency", "ratio"},
      {"sta.barrier_syncs", "count"},
      {"sta.ready_hwm", "count"},
      {"sta.chain_edges", "count"},
      {"sta.steals", "count"},
      {"sta.classify_lock_waits", "count"},
      {"sta.first_run_s", "s"},
      {"core.workspace_hwm_mb", "MB"},
      {"sta.dropped_arcs", "count"},
      {"sta.untimed_arcs", "count"},
      {"sta.whatif_mean_ms", "ms"},
      {"sta.update_ms", "ms"},
      {"sta.update_evals", "count"},
      {"service.handle_us.arrival", "us"},
      {"service.handle_us.slack", "us"},
      {"service.handle_us.critpath", "us"},
      {"service.handle_us.stats", "us"},
      {"service.slack_memo_hit_ratio", "ratio"},
      {"service.rtt_us.arrival.p50", "us"},
      {"service.rtt_us.arrival.p99", "us"},
      {"service.rtt_us.slack.p50", "us"},
      {"service.rtt_us.slack.p99", "us"},
      {"service.rtt_us.critpath.p50", "us"},
      {"service.rtt_us.critpath.p99", "us"},
      {"service.rtt_us.stats.p50", "us"},
      {"service.rtt_us.stats.p99", "us"},
      {"service.transport_us", "us"},
      {"service.read_p99_during_whatif_us", "us"},
      {"service.read_p99_idle_us", "us"},
      {"service.whatif_p50_ms", "ms"},
      {"loadgen.writer_late_ms", "ms"},
      {"trace.overhead_pct", "%"},
  };
  return kList;
}

namespace {

const std::pair<const char*, const char*> kEndToEnd[] = {
    {"setup_s", "s"},         {"arcs_per_s", "arcs/s"}, {"peak_rss_mb", "MB"},
    {"read_qps", "1/s"},      {"read_p50_us", "us"},    {"read_p99_us", "us"}};

int usage() {
  std::fprintf(stderr,
               "usage: qwm_bench --workload grid_sta|tree_sta|decoder_serve "
               "--seed N --seconds S --trace 0|1 --out-dir DIR --serve-bin PATH\n");
  return 2;
}

}  // namespace
}  // namespace qwmbench

int main(int argc, char** argv) {
  using namespace qwmbench;
  mark_process_start();
  RunConfig cfg;
  std::string serve_bin;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) return usage();
    const std::string v = argv[++i];
    if (a == "--workload") {
      cfg.workload = v;
    } else if (a == "--seed") {
      cfg.seed = std::strtoull(v.c_str(), nullptr, 10);
      have_seed = true;
    } else if (a == "--seconds") {
      cfg.seconds = std::strtod(v.c_str(), nullptr);
    } else if (a == "--trace") {
      cfg.trace = v == "1";
    } else if (a == "--out-dir") {
      cfg.out_dir = v;
    } else if (a == "--serve-bin") {
      serve_bin = v;
    } else {
      return usage();
    }
  }
  if (!have_seed || cfg.out_dir.empty() || !(cfg.seconds > 0.0)) return usage();
  std::error_code ec;
  std::filesystem::create_directories(cfg.out_dir, ec);
  if (ec) {
    std::fprintf(stderr, "cannot create %s: %s\n", cfg.out_dir.c_str(), ec.message().c_str());
    return 1;
  }
  cfg.lanes = static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));

  RunResult res;
  if (cfg.workload == "grid_sta" || cfg.workload == "tree_sta") {
    res = run_sta_workload(cfg);
  } else if (cfg.workload == "decoder_serve") {
    if (serve_bin.empty()) return usage();
    res = run_serve_workload(cfg, serve_bin);
  } else {
    return usage();
  }
  for (const auto& p : res.problems) std::fprintf(stderr, "check failed: %s\n", p.c_str());

  // Report exactly the metric set of the run's kind, in a fixed order.
  Metrics out;
  if (cfg.trace) {
    for (const auto& [name, unit] : per_layer_metrics())
      out.set(name, res.metrics.has(name) ? res.metrics.get(name) : 0.0, unit);
  } else {
    for (const auto& [name, unit] : kEndToEnd) {
      if (!res.metrics.has(name) && res.correct) {
        std::fprintf(stderr, "internal error: metric %s missing\n", name);
        return 1;
      }
      out.set(name, res.metrics.get(name), unit);
    }
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": %s}\n",
              res.correct ? "true" : "false",
              static_cast<unsigned long long>(res.attempted),
              static_cast<unsigned long long>(res.failed), out.json().c_str());
  std::fflush(stdout);
  return 0;
}
