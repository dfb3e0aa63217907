// grid_sta / tree_sta: full static timing analysis of a generated design.
//
// One run: characterize the device models, generate and elaborate the
// design, build the engine (all of it is setup_s); one discarded warm-up
// analysis; untimed, a 1-lane reference analysis and the SPICE accuracy
// sample; then, for the run's seconds, fresh-engine analyses at nproc
// lanes (arcs_per_s is their median rate), each followed by a read burst
// on the reference engine through the public API (and, traced, a few
// what-ifs on the analyzed engine).
#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <memory>
#include <numeric>
#include <thread>
#include <unordered_map>

#include "checks.h"
#include "qwm/circuit/path.h"
#include "qwm/core/qwm.h"
#include "qwm/core/workspace.h"
#include "qwm/device/process.h"
#include "qwm/device/tabular_model.h"
#include "qwm/frontend/elaborate.h"
#include "qwm/frontend/generate.h"
#include "qwm/spice/from_stage.h"
#include "qwm/spice/transient.h"
#include "qwm/sta/sta.h"
#include "workloads.h"

namespace qwmbench {

using namespace qwm;

namespace {

/// What-ifs per traced run (resize + update on the analyzed engine), and how
/// many follow each timed analysis.
constexpr int kWhatifs = 96;
constexpr int kWhatifsPerRound = 8;
/// Read burst after each timed analysis [s].
constexpr double kReadBurst_s = 0.25;

struct StaDesign {
  frontend::GenTopology topology;
  std::size_t stages;
  /// Generator seed of the design. Fixed, not the run's --seed: the
  /// failed share of a run must not depend on the seed (README.md).
  std::uint64_t gen_seed;
};

StaDesign design_of(const std::string& workload) {
  if (workload == "tree_sta") return {frontend::GenTopology::tree, 100000, 7};
  return {frontend::GenTopology::grid, 10000, 7};
}

/// The trigger ramp StaEngine builds for an arrival (50 % at t50, 10-90 %
/// slew over 80 % of the ramp, start clamped at t = 0).
numeric::PwlWaveform sta_ramp(double t50, double slew, double vdd,
                              bool rising) {
  const double dur = std::max(slew / 0.8, 1e-13);
  const double t0 = std::max(t50 - 0.5 * dur, 0.0);
  return rising ? numeric::PwlWaveform::ramp(t0, dur, 0.0, vdd)
                : numeric::PwlWaveform::ramp(t0, dur, vdd, 0.0);
}

/// Level at which a side input of `type` lets the switching input alone
/// control the output: VDD for NAND, 0 V for NOR (none for an inverter).
double non_controlling_level(frontend::GateType type, double vdd) {
  switch (type) {
    case frontend::GateType::nor2:
    case frontend::GateType::nor3:
    case frontend::GateType::nor4:
      return 0.0;
    default:
      return vdd;
  }
}

struct SpiceArc {
  bool ok = false;
  double delay = 0.0;  ///< 50 %-in to 50 %-out [s]
  double ms = 0.0;     ///< simulate_transient wall time
};

/// 1 ps transient of one arc of `stage`: the trigger ramp (shifted to
/// start at 10 ps; delay is translation invariant) on input `trig`, every
/// other input held at `side_v`, every internal node precharged to the far
/// rail (the worst case QWM assumes).
SpiceArc spice_arc(const circuit::LogicStage& stage, int out_index,
                   bool out_rising, int trig, double slew, double side_v,
                   const device::ModelSet& models, double window) {
  const double vdd = models.vdd();
  const double dur = std::max(slew / 0.8, 1e-13);
  const double t0 = 10e-12;
  const bool trig_rising = !out_rising;
  std::vector<numeric::PwlWaveform> in;
  for (std::size_t i = 0; i < stage.input_count(); ++i)
    in.push_back(static_cast<int>(i) == trig
                     ? numeric::PwlWaveform::ramp(t0, dur,
                                                  trig_rising ? 0.0 : vdd,
                                                  trig_rising ? vdd : 0.0)
                     : numeric::PwlWaveform::constant(side_v));
  spice::StageSim sim = spice::circuit_from_stage(stage, models, in);
  const double pre = out_rising ? 0.0 : vdd;
  for (std::size_t n = 0; n < stage.node_count(); ++n) {
    const auto id = static_cast<circuit::NodeId>(n);
    if (!stage.is_rail(id)) sim.circuit.set_ic(sim.node_of[n], pre);
  }
  spice::TransientOptions opt;
  opt.dt = 1e-12;
  opt.t_stop = t0 + dur + window;
  const auto t_start = Clock::now();
  const spice::TransientResult res = spice::simulate_transient(sim.circuit, opt);
  SpiceArc out;
  out.ms = 1e3 * seconds_since(t_start);
  if (!res.stats.converged) return out;
  const auto node = sim.node_of[stage.outputs()[out_index]];
  const auto t_out = res.waveforms[node].crossing(0.5 * vdd, 0.0, out_rising);
  if (!t_out) return out;
  out.ok = true;
  out.delay = *t_out - (t0 + 0.5 * dur);
  return out;
}

/// Index of the stage input driven by `net`, -1 if none.
int input_index(const circuit::StageInfo& info, netlist::NetId net) {
  for (std::size_t i = 0; i < info.input_nets.size(); ++i)
    if (info.input_nets[i] == net) return static_cast<int>(i);
  return -1;
}

/// Trigger arrival of an arc (the opposite edge of its from_net).
const sta::Arrival& trigger_of(const sta::StaEngine& eng, const Arc& a) {
  const sta::NetTiming& t = eng.timing(a.arrival.from_net);
  return a.rising ? t.fall : t.rise;
}

/// One closed-loop read burst of `seconds` against the analyzed engine's
/// public query surface from `threads` threads, with the serving mix:
/// 70 % timing(net), 15 % slack lookup (in `slacks`, the map the server
/// memoizes per epoch), 10 % critical_path(), 5 % counter reads. Appends
/// each read's latency [us] to `lat` and returns the burst's wall time.
double read_burst(const sta::StaEngine& eng,
                  const std::vector<netlist::NetId>& nets,
                  const std::unordered_map<netlist::NetId, sta::StaEngine::Slack>& slacks,
                  int threads, double seconds, std::uint64_t seed,
                  std::vector<double>* lat) {
  std::vector<std::vector<double>> per(static_cast<std::size_t>(threads));
  std::atomic<std::size_t> sink{0};
  const auto t0 = Clock::now();
  const auto deadline = t0 + std::chrono::duration<double>(seconds);
  std::vector<std::thread> pool;
  for (int t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] {
      Rng rng(seed * 131 + static_cast<std::uint64_t>(t));
      auto& mine = per[static_cast<std::size_t>(t)];
      std::size_t local = 0;
      while (Clock::now() < deadline) {
        const std::size_t r = rng.below(100);
        const netlist::NetId net = nets[rng.below(nets.size())];
        const auto q0 = Clock::now();
        if (r < 70) {
          local += eng.timing(net).rise.valid() ? 1 : 0;
        } else if (r < 85) {
          const auto it = slacks.find(net);
          local += (it != slacks.end() && it->second.valid) ? 1 : 0;
        } else if (r < 95) {
          local += eng.critical_path().size();
        } else {
          local += eng.cache_stats().hits + eng.qwm_stats().regions +
                   eng.schedule_stats().levels;
        }
        mine.push_back(1e6 * std::chrono::duration<double>(Clock::now() - q0)
                                 .count());
      }
      sink += local;
    });
  }
  for (auto& th : pool) th.join();
  for (auto& v : per) lat->insert(lat->end(), v.begin(), v.end());
  return seconds_since(t0);
}

}  // namespace

void report_solver_counters(Metrics& m, const core::QwmStats& q,
                            std::size_t evals, std::size_t cache_hits) {
  const double runs = static_cast<double>(evals - cache_hits);
  m.set("core.newton_per_run",
        static_cast<double>(q.newton_iterations) / std::max(runs, 1.0), "count");
  m.set("core.regions", static_cast<double>(q.regions), "count");
  m.set("core.linear_solves", static_cast<double>(q.linear_solves), "count");
  m.set("core.lu_fallbacks", static_cast<double>(q.lu_fallbacks), "count");
  m.set("device.evals_per_arc",
        static_cast<double>(q.device_evals) /
            std::max(static_cast<double>(evals), 1.0),
        "count");
  m.set("device.lanes_per_batch",
        q.simd_batches ? static_cast<double>(q.simd_lanes_filled) /
                             static_cast<double>(q.simd_batches)
                       : 0.0,
        "count");
  m.set("core.rung_damped",
        static_cast<double>(q.fallback_counts[core::kRungDamped]), "count");
  m.set("core.rung_bisect",
        static_cast<double>(q.fallback_counts[core::kRungBisect]), "count");
  m.set("core.rung_spice",
        static_cast<double>(q.fallback_counts[core::kRungSpice]), "count");
}

RunResult run_sta_workload(const RunConfig& cfg) {
  RunResult res;
  Metrics& m = res.metrics;
  Tracer tr(cfg.trace);
  const StaDesign spec = design_of(cfg.workload);

  // ---- setup: characterization, generation, elaboration, construction.
  auto t = Clock::now();
  const int sp_char = tr.begin("device.characterize");
  device::Process proc = device::Process::cmosp35();
  const device::TabularDeviceModel nmos(device::MosType::nmos, proc);
  const device::TabularDeviceModel pmos(device::MosType::pmos, proc);
  const device::ModelSet models{&nmos, &pmos, &proc};
  tr.end(sp_char);
  const double characterize_s = seconds_since(t);

  t = Clock::now();
  const int sp_gen = tr.begin("frontend.generate");
  frontend::GenSpec gs;
  gs.topology = spec.topology;
  gs.stages = spec.stages;
  gs.seed = spec.gen_seed;
  const frontend::GateNetlist gates = frontend::generate_netlist(gs);
  tr.end(sp_gen);
  const double generate_s = seconds_since(t);

  t = Clock::now();
  const int sp_elab = tr.begin("frontend.elaborate");
  const frontend::ElaboratedDesign elab = frontend::elaborate(gates, models);
  tr.end(sp_elab);
  const double elaborate_s = seconds_since(t);

  sta::StaOptions opt;  // default engine options at nproc lanes
  opt.threads = cfg.lanes;
  const auto make_engine = [&](int threads) {
    sta::StaOptions o = opt;
    o.threads = threads;
    Scope sp(tr, "sta.construct");
    return std::make_unique<sta::StaEngine>(elab.design, models, o);
  };
  t = Clock::now();
  auto eng = make_engine(cfg.lanes);
  const double construct_s = seconds_since(t);
  const double setup_s = since_process_start();

  // ---- warm-up analysis, discarded.
  t = Clock::now();
  {
    Scope sp(tr, "sta.warmup_run");
    eng->run();
  }
  const double first_run_s = seconds_since(t);
  // Peak memory of set-up plus one analysis, before the reference engine
  // adds a second analysis to the process.
  const double rss = peak_rss_mb();

  // ---- 1-lane reference analysis and the count check.
  auto ref = make_engine(1);
  std::size_t evals = 0;
  {
    Scope sp(tr, "sta.reference_run");
    evals = ref->run();
  }
  const std::vector<Arc> ref_arcs = collect_arcs(*ref);
  const core::QwmStats ref_qwm = ref->qwm_stats();
  const support::CacheStats ref_cache = ref->cache_stats();
  const std::size_t triggered = triggered_arcs(ref_arcs);
  if (triggered != evals)
    res.fail_check("run() returned " + std::to_string(evals) +
                   " but the timing map has " + std::to_string(triggered) +
                   " triggered arcs");
  const std::size_t dropped = dropped_arcs(ref_arcs);
  const std::size_t untimed = untimed_arcs(ref_arcs);

  // ---- SPICE accuracy sample: the critical path plus a fixed random
  // sample of timed arcs, each compared with a 1 ps transient.
  std::vector<std::size_t> sample;  // indices into ref_arcs
  std::size_t n_critical = 0;       // sample[0, n_critical) = critical path
  {
    std::unordered_map<std::uint64_t, std::size_t> index_of;
    for (std::size_t i = 0; i < ref_arcs.size(); ++i)
      index_of[(static_cast<std::uint64_t>(ref_arcs[i].net) << 1) |
               (ref_arcs[i].rising ? 1u : 0u)] = i;
    for (const auto& step : ref->critical_path())
      if (step.stage >= 0)
        sample.push_back(index_of.at(
            (static_cast<std::uint64_t>(step.net) << 1) | (step.rising ? 1u : 0u)));
    n_critical = sample.size();
    std::vector<std::size_t> timed;
    for (std::size_t i = 0; i < ref_arcs.size(); ++i)
      if (ref_arcs[i].arrival.valid()) timed.push_back(i);
    Rng rng(spec.gen_seed * 0x9e37ull + 1);
    for (const std::size_t k : sample_indices(timed.size(), 64, rng))
      if (std::find(sample.begin(), sample.end(), timed[k]) == sample.end())
        sample.push_back(timed[k]);
  }
  struct Compared {
    double qwm = 0.0, spice = 0.0;
    bool ok = false, pass = false;
  };
  std::vector<Compared> cmp;
  std::size_t misses_unmarked = 0, misses_marked = 0, critical_misses = 0;
  double max_rel_err = 0.0, worst_low = 0.0;
  {
    Scope sp(tr, "spice.accuracy_sample");
    const double vdd = models.vdd();
    for (const std::size_t i : sample) {
      const Arc& a = ref_arcs[i];
      const auto& info = ref->design().stages[static_cast<std::size_t>(a.stage)];
      const sta::Arrival& trig = trigger_of(*ref, a);
      const int sw = input_index(info, a.arrival.from_net);
      const double side = non_controlling_level(
          gates.gates[static_cast<std::size_t>(a.stage)].type, vdd);
      SpiceArc s = spice_arc(info.stage, a.output, a.rising, sw, trig.slew,
                             side, models, 1.5e-9);
      if (!s.ok)
        s = spice_arc(info.stage, a.output, a.rising, sw, trig.slew, side,
                      models, 8e-9);
      Compared c;
      c.qwm = a.arrival.time - trig.time;
      c.ok = s.ok;
      c.spice = s.delay;
      c.pass = s.ok && within_spice_tolerance(c.qwm, c.spice);
      if (s.ok && c.spice != 0.0)
        max_rel_err = std::max(max_rel_err, std::abs(c.qwm - c.spice) / std::abs(c.spice));
      if (!c.pass) ++(a.arrival.degraded ? misses_marked : misses_unmarked);
      if (!c.pass && !a.arrival.degraded && cmp.size() < n_critical) {
        ++critical_misses;
        if (s.ok && c.spice > 0.0)
          worst_low = std::min(worst_low, (c.qwm - c.spice) / c.spice);
      }
      cmp.push_back(c);
    }
  }

  // ---- traced run: sampled re-evaluation of the analysis's own arcs
  // through the public path and solve calls, with the engine's stimulus,
  // plus the same arcs in 1 ps SPICE (the paper's Table-I comparison).
  if (cfg.trace) {
    Scope sp(tr, "core.sampled_reeval");
    std::vector<std::size_t> trig;
    for (std::size_t i = 0; i < ref_arcs.size(); ++i)
      if (ref_arcs[i].triggered) trig.push_back(i);
    Rng rng(cfg.seed * 0x2545f491ull + 3);
    std::vector<double> build_us, solve_us, rung_us, spice_ms;
    core::EvalWorkspace ws;
    const double vdd = models.vdd();
    for (const std::size_t k : sample_indices(trig.size(), 48, rng)) {
      const Arc& a = ref_arcs[trig[k]];
      const auto& info = ref->design().stages[static_cast<std::size_t>(a.stage)];
      // The engine's trigger: the latest valid opposite-edge input.
      int sw = -1;
      sta::Arrival tr_arr;
      for (std::size_t i = 0; i < info.input_nets.size(); ++i) {
        const auto& ti = ref->timing(info.input_nets[i]);
        const sta::Arrival& x = a.rising ? ti.fall : ti.rise;
        if (x.valid() && (sw < 0 || x.time > tr_arr.time)) {
          sw = static_cast<int>(i);
          tr_arr = x;
        }
      }
      const bool falls = !a.rising;
      std::vector<numeric::PwlWaveform> in;
      for (std::size_t i = 0; i < info.input_nets.size(); ++i)
        in.push_back(static_cast<int>(i) == sw
                         ? sta_ramp(tr_arr.time, tr_arr.slew, vdd, falls)
                         : numeric::PwlWaveform::constant(falls ? vdd : 0.0));
      const auto b0 = Clock::now();
      const circuit::NodeId out_node =
          info.stage.outputs()[static_cast<std::size_t>(a.output)];
      const circuit::ExtractedPath path =
          circuit::extract_worst_path(info.stage, out_node, falls);
      const circuit::PathProblem prob =
          circuit::build_path_problem(info.stage, path, models);
      build_us.push_back(1e6 * seconds_since(b0));
      const auto s0 = Clock::now();
      const core::QwmResult r = core::evaluate_path(prob, in, opt.qwm, ws);
      const double us = 1e6 * seconds_since(s0);
      solve_us.push_back(us);
      if (r.stats.fallback_total() > 0) rung_us.push_back(us);
      const SpiceArc s = spice_arc(info.stage, a.output, a.rising, sw,
                                   tr_arr.slew, falls ? vdd : 0.0, models,
                                   1.5e-9);
      spice_ms.push_back(s.ms);
    }
    m.set("circuit.path_build_us", median(build_us), "us");
    m.set("core.qwm_solve_us", median(solve_us), "us");
    m.set("core.qwm_solve_rung_us", median(rung_us), "us");
    m.set("spice.stage_1ps_ms", median(spice_ms), "ms");
    m.set("spice.speedup_vs_qwm",
          median(spice_ms) * 1e3 / std::max(median(solve_us), 1e-9), "x");
  }

  // ---- reads (and, in a traced run, what-ifs) follow each timed
  // analysis, so that they sample the whole run window as arcs_per_s
  // does. Reads query the reference engine (its timing map was filled in
  // one deterministic order). What-ifs resize a transistor of one of the
  // last four critical-path stages (an endpoint sizing move) of the
  // just-analyzed engine to a width not seen before and update(); targets,
  // edges and width factors follow a fixed sequence, so every run does the
  // same incremental work.
  std::vector<netlist::NetId> out_nets;
  for (const auto& info : ref->design().stages)
    for (const auto n : info.output_nets) out_nets.push_back(n);
  const auto slacks = ref->compute_slacks(1.1 * ref->worst_arrival());
  std::vector<int> targets;
  {
    const auto path = ref->critical_path();
    for (auto it = path.rbegin(); it != path.rend() && targets.size() < 4; ++it)
      if (it->stage >= 0) targets.push_back(it->stage);
  }
  std::vector<double> read_us, whatif_ms, update_ms;
  double read_wall = 0.0, update_evals = 0.0;
  int next_whatif = 0;
  const auto whatif = [&](sta::StaEngine& target) {
    const int k = next_whatif++;
    const int s = targets[static_cast<std::size_t>(k) % targets.size()];
    const auto& st = elab.design.stages[static_cast<std::size_t>(s)].stage;
    std::vector<circuit::EdgeId> fets;
    for (std::size_t e = 0; e < st.edge_count(); ++e)
      if (st.edge(static_cast<circuit::EdgeId>(e)).kind != circuit::DeviceKind::wire)
        fets.push_back(static_cast<circuit::EdgeId>(e));
    const circuit::EdgeId e =
        fets[(static_cast<std::size_t>(k) / targets.size()) % fets.size()];
    const double w = st.edge(e).w * (0.71 + 0.0123 * k);
    Scope sp(tr, "sta.whatif");
    const auto w0 = Clock::now();
    target.resize_transistor(s, e, w);
    const auto u0 = Clock::now();
    update_evals += static_cast<double>(target.update());
    update_ms.push_back(1e3 * seconds_since(u0));
    whatif_ms.push_back(1e3 * seconds_since(w0));
  };

  // ---- timed analyses: a fresh engine each, run() alone timed.
  std::vector<double> rates, walls, cpus;
  std::vector<Arc> timed_arcs;  // the first timed analysis
  sta::ScheduleStats sched;     // of the first timed analysis
  std::size_t lane_mismatch = 0;
  const auto loop_start = Clock::now();
  while (rates.size() < 3 || seconds_since(loop_start) < cfg.seconds) {
    eng.reset();
    eng = make_engine(cfg.lanes);
    const double c0 = process_cpu_s();
    const auto w0 = Clock::now();
    std::size_t n = 0;
    {
      Scope sp(tr, "sta.run");
      n = eng->run();
    }
    const double wall = seconds_since(w0);
    cpus.push_back(process_cpu_s() - c0);
    walls.push_back(wall);
    rates.push_back(static_cast<double>(n) / wall);
    if (n != evals) res.fail_check("nproc-lane run() count differs from 1 lane");
    std::vector<Arc> arcs = collect_arcs(*eng);
    lane_mismatch += arrival_mismatches(arcs, ref_arcs);
    if (timed_arcs.empty()) timed_arcs = std::move(arcs);

    {
      Scope sp(tr, "sta.reads");
      read_wall += read_burst(*ref, out_nets, slacks, cfg.lanes, kReadBurst_s,
                              cfg.seed * 977 + rates.size(), &read_us);
    }
    if (rates.size() == 1) sched = eng->schedule_stats();
    for (int j = 0; cfg.trace && j < kWhatifsPerRound && next_whatif < kWhatifs; ++j)
      whatif(*eng);
  }
  while (cfg.trace && next_whatif < kWhatifs) whatif(*eng);
  const std::size_t analyses = rates.size();
  if (lane_mismatch != 0)
    res.fail_check("nproc-lane arrivals not bit-identical to 1 lane (" +
                   std::to_string(lane_mismatch) + " arcs)");

  // ---- negative controls: each check must reject a perturbed input.
  {
    std::size_t first_valid = 0;
    while (first_valid < timed_arcs.size() &&
           !timed_arcs[first_valid].arrival.valid())
      ++first_valid;
    std::vector<Arc> shifted = timed_arcs;
    shifted[first_valid].arrival.time *= 1.2;
    if (arrival_mismatches(shifted, ref_arcs) == 0)
      res.fail_check("negative control: 20 % shifted arrival passed");
    std::vector<Arc> ulp = timed_arcs;
    ulp[first_valid].arrival.time =
        std::nextafter(ulp[first_valid].arrival.time, INFINITY);
    if (arrival_mismatches(ulp, ref_arcs) != 1)
      res.fail_check("negative control: one-ulp lane change passed");
    std::vector<Arc> untrig = ref_arcs;
    for (auto& a : untrig)
      if (a.triggered) {
        a.triggered = false;
        break;
      }
    if (triggered_arcs(untrig) == evals)
      res.fail_check("negative control: arc-count check passed a lost arc");
    // A reference delay taken from another arc: the sample arc whose SPICE
    // delay lies farthest from arc 0's QWM delay.
    std::size_t other = 0;
    for (std::size_t j = 1; j < cmp.size(); ++j)
      if (cmp[j].ok && std::abs(cmp[j].spice - cmp[0].qwm) >
                           std::abs(cmp[other].spice - cmp[0].qwm))
        other = j;
    if (cmp.size() < 2 || within_spice_tolerance(cmp[0].qwm, cmp[other].spice))
      res.fail_check("negative control: swapped SPICE reference passed");
  }

  std::fprintf(stderr,
               "%s: critical path %zu arcs, %zu unmarked SPICE misses (QWM down "
               "to %.0f %% of SPICE low)\n",
               cfg.workload.c_str(), n_critical, critical_misses, -100.0 * worst_low);
  std::fprintf(stderr, "%s: run() wall min %.4f median %.4f max %.4f s\n",
               cfg.workload.c_str(), quantile(walls, 0.0), median(walls),
               quantile(walls, 1.0));
  std::fprintf(stderr,
               "%s: %zu analyses of %zu arcs; dropped %zu, untimed %zu; SPICE "
               "sample %zu arcs, %zu unmarked misses, %zu degraded misses; "
               "max rel err %.3f; %zu reads, %zu what-ifs\n",
               cfg.workload.c_str(), analyses, evals, dropped, untimed,
               cmp.size(), misses_unmarked, misses_marked, max_rel_err,
               read_us.size(), whatif_ms.size());

  // ---- operations: every timed analysis evaluates the same arcs; the
  // failed ones are the dropped arcs and the unmarked SPICE misses.
  res.attempted = static_cast<std::uint64_t>(evals) * analyses;
  res.failed = static_cast<std::uint64_t>(dropped + misses_unmarked) * analyses;

  if (!cfg.trace) {
    m.set("setup_s", setup_s, "s");
    m.set("arcs_per_s", median(rates), "arcs/s");
    m.set("peak_rss_mb", rss, "MB");
    m.set("read_qps", static_cast<double>(read_us.size()) / read_wall, "1/s");
    m.set("read_p50_us", quantile(read_us, 0.5), "us");
    m.set("read_p99_us", quantile(read_us, 0.99), "us");
    return res;
  }

  // ---- traced run: per-layer figures. Solver and cache counters are the
  // reference analysis's (identical to every timed one's).
  m.set("frontend.generate_s", generate_s, "s");
  m.set("frontend.elaborate_s", elaborate_s, "s");
  m.set("device.characterize_s", characterize_s, "s");
  m.set("sta.construct_s", construct_s, "s");
  report_solver_counters(m, ref_qwm, evals, ref_cache.hits);
  m.set("core.qwm_runs", static_cast<double>(evals - ref_cache.hits), "count");
  m.set("core.cache_hit_ratio",
        static_cast<double>(ref_cache.hits) / static_cast<double>(evals), "ratio");
  m.set("core.warm_starts", static_cast<double>(ref_qwm.warm_starts), "count");
  m.set("core.warm_retries", static_cast<double>(ref_qwm.warm_retries), "count");
  m.set("core.workspace_hwm_mb",
        static_cast<double>(eng->workspace_stats().high_water_bytes) / 1048576.0,
        "MB");
  const double run_cpu = median(cpus);
  m.set("sta.run_cpu_s", run_cpu, "s");
  m.set("sta.lane_efficiency", run_cpu / (median(walls) * cfg.lanes), "ratio");
  m.set("sta.barrier_syncs", static_cast<double>(sched.barrier_syncs), "count");
  m.set("sta.ready_hwm", static_cast<double>(sched.ready_hwm), "count");
  m.set("sta.chain_edges", static_cast<double>(sched.chain_edges), "count");
  m.set("sta.steals", static_cast<double>(sched.steal_count), "count");
  m.set("sta.classify_lock_waits", static_cast<double>(sched.classify_lock_waits),
        "count");
  m.set("sta.first_run_s", first_run_s, "s");
  m.set("sta.dropped_arcs", static_cast<double>(dropped), "count");
  m.set("sta.untimed_arcs", static_cast<double>(untimed), "count");
  m.set("sta.whatif_mean_ms",
        std::accumulate(whatif_ms.begin(), whatif_ms.end(), 0.0) /
            std::max<double>(1.0, whatif_ms.size()),
        "ms");
  m.set("sta.update_ms", median(update_ms), "ms");
  m.set("sta.update_evals", update_evals / std::max<double>(1.0, update_ms.size()),
        "count");
  m.set("spice.sample_arcs", static_cast<double>(cmp.size()), "count");
  m.set("spice.misses_unmarked", static_cast<double>(misses_unmarked), "count");
  m.set("spice.misses_degraded", static_cast<double>(misses_marked), "count");
  m.set("spice.max_rel_err", max_rel_err, "ratio");

  // Tracing overhead: the same analysis with span recording on and off,
  // alternated, in this process.
  {
    std::vector<double> on, off;
    for (int k = 0; k < 4; ++k) {
      for (const bool traced : {true, false}) {
        eng.reset();
        eng = make_engine(cfg.lanes);
        const auto w0 = Clock::now();
        if (traced) {
          Scope sp(tr, "sta.run");
          eng->run();
        } else {
          eng->run();
        }
        (traced ? on : off).push_back(seconds_since(w0));
      }
    }
    m.set("trace.overhead_pct", 100.0 * (median(on) / median(off) - 1.0), "%");
  }
  tr.write(cfg.out_dir + "/trace_" + cfg.workload + "_" +
           std::to_string(cfg.seed) + ".jsonl");
  return res;
}

}  // namespace qwmbench
