// Ablation of DESIGN.md's region-model choices:
//   1. linear current -> quadratic voltage (the paper's QWM) vs constant
//      current -> linear voltage (piecewise-linear matching);
//   2. tail-target ladder density (accuracy vs number of region solves).
//
// Expected shape: the quadratic model dominates the linear one at equal
// region counts; accuracy improves monotonically with ladder density
// while cost stays far below the SPICE baseline.
#include <cstdio>

#include "common.h"

int main() {
  using namespace qwm;
  using namespace qwm::bench;

  const auto& proc = models().proc;
  const double load = circuit::fanout_load_cap(proc);
  const auto ms = models().set();

  const auto stage = circuit::make_nmos_stack(
      proc, std::vector<double>(5, 1.2e-6), load);
  const auto inputs = step_inputs(stage);

  // SPICE reference delay.
  spice::StageSim sim = make_spice_sim(stage, inputs);
  spice::TransientOptions opt;
  opt.t_stop = 3e-9;
  opt.dt = 1e-12;
  const auto ref = spice::simulate_transient(sim.circuit, opt);
  const auto t_in = inputs[0].crossing(0.5 * proc.vdd, 0.0, true);
  const auto t_out = ref.waveforms[sim.node_of[stage.output]].crossing(
      0.5 * proc.vdd, *t_in, false);
  const double ref_delay = *t_out - *t_in;
  std::printf("Reference (SPICE 1ps) delay: %.2f ps\n\n", ref_delay * 1e12);

  std::printf("Region model x tail-ladder density (5-stack):\n");
  std::printf("%-10s %7s %9s %10s %10s\n", "model", "tails", "regions",
              "delay[ps]", "error");
  for (const auto model :
       {core::RegionModel::quadratic, core::RegionModel::linear}) {
    for (const int tails : {3, 6, 12, 27}) {
      core::QwmOptions o;
      o.model = model;
      o.tail_fractions.clear();
      for (int i = 0; i < tails; ++i)
        o.tail_fractions.push_back(0.95 - 0.92 * (i + 0.5) / tails);
      const auto st = core::evaluate_stage(stage, inputs, ms, o);
      const char* mname =
          model == core::RegionModel::quadratic ? "quadratic" : "linear";
      if (!st.ok || !st.delay) {
        std::printf("%-10s %7d   (failed: %s)\n", mname, tails,
                    st.error.c_str());
        continue;
      }
      std::printf("%-10s %7d %9zu %10.2f %9.2f%%\n", mname, tails,
                  st.qwm.stats.regions, *st.delay * 1e12,
                  100.0 * (*st.delay - ref_delay) / ref_delay);
    }
  }

  // Device-model ablation: tabular (compressed) vs direct analytic golden
  // physics inside QWM.
  std::printf("\nDevice model inside QWM (27-tail ladder):\n");
  const auto golden = models().golden_set();
  const auto st_tab = core::evaluate_stage(stage, inputs, ms);
  const auto st_gold = core::evaluate_stage(stage, inputs, golden);
  const double t_tab =
      time_seconds([&] { core::evaluate_stage(stage, inputs, ms); });
  const double t_gold =
      time_seconds([&] { core::evaluate_stage(stage, inputs, golden); });
  if (st_tab.ok && st_gold.ok && st_tab.delay && st_gold.delay) {
    std::printf("  tabular : %.3f ms, delay %.2f ps\n", t_tab * 1e3,
                *st_tab.delay * 1e12);
    std::printf("  analytic: %.3f ms, delay %.2f ps\n", t_gold * 1e3,
                *st_gold.delay * 1e12);
    std::printf("  model-compression delay shift: %.2f%%\n",
                100.0 * (*st_tab.delay - *st_gold.delay) / *st_gold.delay);
  }
  return 0;
}
