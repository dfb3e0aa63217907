#include "qwm/core/qwm.h"

#include <gtest/gtest.h>

#include <cmath>

#include "../common/test_models.h"
#include "qwm/circuit/builders.h"
#include "qwm/core/stage_eval.h"
#include "qwm/core/workspace.h"
#include "qwm/spice/from_stage.h"
#include "qwm/spice/transient.h"

namespace qwm::core {
namespace {

using circuit::BuiltStage;
using circuit::make_decoder_tree;
using circuit::make_inverter;
using circuit::make_nand;
using circuit::make_nmos_stack;
using circuit::make_pmos_stack;

const device::ModelSet& models() {
  static device::ModelSet ms = test::models().tabular_set();
  return ms;
}

std::vector<numeric::PwlWaveform> step_inputs(const BuiltStage& b,
                                              double t_step = 5e-12) {
  const double vdd = test::models().proc.vdd;
  std::vector<numeric::PwlWaveform> in;
  for (std::size_t i = 0; i < b.stage.input_count(); ++i) {
    if (static_cast<int>(i) == b.switching_input)
      in.push_back(b.output_falls
                       ? numeric::PwlWaveform::step(t_step, 0.0, vdd)
                       : numeric::PwlWaveform::step(t_step, vdd, 0.0));
    else
      in.push_back(numeric::PwlWaveform::constant(b.output_falls ? vdd : 0.0));
  }
  return in;
}

/// SPICE reference on the same stage with matching worst-case precharge.
spice::TransientResult spice_reference(
    const BuiltStage& b, const std::vector<numeric::PwlWaveform>& inputs,
    double t_stop, double dt, spice::StageSim* sim_out = nullptr) {
  spice::StageSim sim = spice::circuit_from_stage(b.stage, models(), inputs);
  const double pre = b.output_falls ? test::models().proc.vdd : 0.0;
  for (std::size_t n = 0; n < b.stage.node_count(); ++n) {
    const auto id = static_cast<circuit::NodeId>(n);
    if (b.stage.is_rail(id)) continue;
    sim.circuit.set_ic(sim.node_of[n], pre);
  }
  spice::TransientOptions opt;
  opt.t_stop = t_stop;
  opt.dt = dt;
  const auto res = spice::simulate_transient(sim.circuit, opt);
  if (sim_out) *sim_out = std::move(sim);
  return res;
}

TEST(Qwm, InverterDischargeProducesFallingOutput) {
  const auto b = make_inverter(test::models().proc, 20e-15);
  const auto st = evaluate_stage(b, step_inputs(b), models());
  ASSERT_TRUE(st.ok) << st.error;
  ASSERT_TRUE(st.delay);
  EXPECT_GT(*st.delay, 1e-12);
  EXPECT_LT(*st.delay, 300e-12);
  const auto& w = st.qwm.output_waveform();
  EXPECT_NEAR(w.eval(0.0), 3.3, 1e-9);
  EXPECT_LT(w.end_value(), 0.3);
  ASSERT_TRUE(st.output_slew);
  EXPECT_GT(*st.output_slew, 0.0);
}

TEST(Qwm, InverterChargeProducesRisingOutput) {
  auto b = make_inverter(test::models().proc, 20e-15);
  b.output_falls = false;  // analyze the rising event instead
  const auto st = evaluate_stage(b, step_inputs(b), models());
  ASSERT_TRUE(st.ok) << st.error;
  const auto& w = st.qwm.output_waveform();
  EXPECT_NEAR(w.eval(0.0), 0.0, 1e-9);
  EXPECT_GT(w.end_value(), 3.0);
  ASSERT_TRUE(st.delay);
  EXPECT_GT(*st.delay, 1e-12);
}

TEST(Qwm, StackCriticalPointsAreStaggered) {
  const auto b =
      make_nmos_stack(test::models().proc,
                      std::vector<double>(6, 1e-6), 30e-15);
  const auto st = evaluate_stage(b, step_inputs(b), models());
  ASSERT_TRUE(st.ok) << st.error;
  const auto& ct = st.qwm.critical_times;
  // 6 turn-on events plus tail matching points, strictly increasing.
  ASSERT_GE(ct.size(), 6u);
  for (std::size_t i = 1; i < ct.size(); ++i) EXPECT_GT(ct[i], ct[i - 1]);
  // Turn-on spacing is physical (tens of ps), not collapsed to zero.
  EXPECT_GT(ct[2] - ct[1], 1e-13);
}

TEST(Qwm, StackNodeWaveformsOrderedBottomUp) {
  const auto b = make_nmos_stack(test::models().proc,
                                 std::vector<double>(5, 1e-6), 20e-15);
  const auto st = evaluate_stage(b, step_inputs(b), models());
  ASSERT_TRUE(st.ok) << st.error;
  // Lower nodes discharge earlier: 50% crossing times increase with
  // position.
  double prev = -1.0;
  for (const auto& w : st.qwm.node_waveforms) {
    const auto t = w.crossing(1.65);
    ASSERT_TRUE(t);
    EXPECT_GT(*t, prev);
    prev = *t;
  }
}

class QwmVsSpice : public ::testing::TestWithParam<int> {};

TEST_P(QwmVsSpice, StackDelayWithinFivePercent) {
  const int k = GetParam();
  const auto b = make_nmos_stack(test::models().proc,
                                 std::vector<double>(k, 1e-6), 25e-15);
  const auto inputs = step_inputs(b);
  const auto st = evaluate_stage(b, inputs, models());
  ASSERT_TRUE(st.ok) << st.error;
  ASSERT_TRUE(st.delay);

  spice::StageSim sim;
  const auto ref = spice_reference(b, inputs, 3e-9, 1e-12, &sim);
  ASSERT_TRUE(ref.stats.converged);
  const auto& out_ref = ref.waveforms[sim.node_of[b.output]];
  const auto t_in = inputs[b.switching_input].crossing(1.65, 0.0, true);
  const auto t_out = out_ref.crossing(1.65, *t_in, false);
  ASSERT_TRUE(t_out) << "SPICE output never crossed 50%";
  const double ref_delay = *t_out - *t_in;

  EXPECT_NEAR(*st.delay, ref_delay, 0.05 * ref_delay)
      << "k=" << k << " qwm=" << *st.delay << " spice=" << ref_delay;
}

INSTANTIATE_TEST_SUITE_P(StackLengths, QwmVsSpice,
                         ::testing::Values(2, 3, 4, 6, 8));

TEST(Qwm, OutputWaveformTracksSpice) {
  const auto b = make_nmos_stack(test::models().proc,
                                 std::vector<double>(4, 1e-6), 25e-15);
  const auto inputs = step_inputs(b);
  const auto st = evaluate_stage(b, inputs, models());
  ASSERT_TRUE(st.ok) << st.error;

  spice::StageSim sim;
  const auto ref = spice_reference(b, inputs, 2e-9, 1e-12, &sim);
  const auto& out_ref = ref.waveforms[sim.node_of[b.output]];
  const auto qwm_pwl = st.qwm.output_waveform().to_pwl(16);
  // Compare over the active transition window.
  const double t1 = std::min(qwm_pwl.last_time(), out_ref.last_time());
  const double diff = numeric::PwlWaveform::max_difference(qwm_pwl, out_ref,
                                                           0.0, t1);
  EXPECT_LT(diff, 0.35) << "max waveform deviation " << diff << " V";
}

TEST(Qwm, PmosStackChargeMirrorsNmosDischarge) {
  const auto bn = make_nmos_stack(test::models().proc,
                                  std::vector<double>(3, 1e-6), 20e-15);
  const auto bp = make_pmos_stack(test::models().proc,
                                  std::vector<double>(3, 2.5e-6), 20e-15);
  const auto stn = evaluate_stage(bn, step_inputs(bn), models());
  const auto stp = evaluate_stage(bp, step_inputs(bp), models());
  ASSERT_TRUE(stn.ok) << stn.error;
  ASSERT_TRUE(stp.ok) << stp.error;
  ASSERT_TRUE(stn.delay && stp.delay);
  // PMOS sized ~2.5x compensates mobility: delays within 2x of each other.
  EXPECT_LT(*stp.delay, 2.0 * *stn.delay);
  EXPECT_GT(*stp.delay, 0.3 * *stn.delay);
  // Charge output rises.
  EXPECT_GT(stp.qwm.output_waveform().end_value(), 2.8);
}

TEST(Qwm, TridiagonalMatchesDenseLu) {
  const auto b = make_nmos_stack(test::models().proc,
                                 std::vector<double>(6, 1.3e-6), 25e-15);
  const auto inputs = step_inputs(b);
  QwmOptions tri, dense;
  tri.solver = RegionSolver::tridiagonal;
  dense.solver = RegionSolver::dense_lu;
  const auto st_tri = evaluate_stage(b, inputs, models(), tri);
  const auto st_dense = evaluate_stage(b, inputs, models(), dense);
  ASSERT_TRUE(st_tri.ok && st_dense.ok);
  ASSERT_TRUE(st_tri.delay && st_dense.delay);
  EXPECT_NEAR(*st_tri.delay, *st_dense.delay, 1e-15);
  EXPECT_EQ(st_tri.qwm.stats.lu_fallbacks, 0u);
}

TEST(Qwm, QuadraticModelBeatsLinearModel) {
  const auto b = make_nmos_stack(test::models().proc,
                                 std::vector<double>(5, 1e-6), 25e-15);
  const auto inputs = step_inputs(b);

  spice::StageSim sim;
  const auto ref = spice_reference(b, inputs, 3e-9, 1e-12, &sim);
  const auto& out_ref = ref.waveforms[sim.node_of[b.output]];
  const auto t_in = inputs[b.switching_input].crossing(1.65, 0.0, true);
  const auto t_out = out_ref.crossing(1.65, *t_in, false);
  ASSERT_TRUE(t_out);
  const double ref_delay = *t_out - *t_in;

  // Coarse tail ladders make the region model itself carry the accuracy;
  // with fine ladders both models converge to the reference.
  QwmOptions quad, lin;
  quad.tail_fractions = {0.6, 0.4, 0.2, 0.08};
  lin.tail_fractions = {0.6, 0.4, 0.2, 0.08};
  quad.model = RegionModel::quadratic;
  lin.model = RegionModel::linear;
  const auto st_q = evaluate_stage(b, inputs, models(), quad);
  const auto st_l = evaluate_stage(b, inputs, models(), lin);
  ASSERT_TRUE(st_q.ok) << st_q.error;
  ASSERT_TRUE(st_l.ok) << st_l.error;
  ASSERT_TRUE(st_q.delay && st_l.delay);
  const double err_q = std::abs(*st_q.delay - ref_delay);
  const double err_l = std::abs(*st_l.delay - ref_delay);
  EXPECT_LE(err_q, err_l * 1.05);  // quadratic at least as accurate
}

TEST(Qwm, RampInputHandled) {
  const auto b = make_nand(test::models().proc, 2, 20e-15);
  const double vdd = test::models().proc.vdd;
  std::vector<numeric::PwlWaveform> inputs;
  inputs.push_back(numeric::PwlWaveform::ramp(10e-12, 80e-12, 0.0, vdd));
  inputs.push_back(numeric::PwlWaveform::constant(vdd));
  const auto st = evaluate_stage(b, inputs, models());
  ASSERT_TRUE(st.ok) << st.error;
  ASSERT_TRUE(st.delay);
  EXPECT_GT(*st.delay, 0.0);
}

TEST(Qwm, PureRcPathDecaysExponentially) {
  // A resistive wire straight to ground (no transistors): the region
  // machinery reduces to matching an RC decay. Compare the 50% time
  // against the analytic tau*ln2.
  const auto& proc = test::models().proc;
  circuit::LogicStage s(proc.vdd);
  const auto out = s.add_node("out");
  const auto e = s.add_edge(circuit::DeviceKind::wire, out, s.sink(), 1e-6,
                            1e-6);
  s.edge_mut(e).explicit_r = 2000.0;
  s.edge_mut(e).explicit_c = 0.0;
  s.add_output(out);
  s.set_load_cap(out, 50e-15);

  const auto path = circuit::extract_worst_path(s, out, true);
  ASSERT_EQ(path.elements.size(), 1u);
  // Keep the resistor explicit regardless of the merge threshold.
  const auto prob = circuit::build_path_problem(s, path, models(), 0.0);
  ASSERT_EQ(prob.transistor_count(), 0u);
  EvalWorkspace ws;
  const auto r = evaluate_path(prob, {}, {}, ws);
  ASSERT_TRUE(r.ok) << r.error;
  const double tau = 2000.0 * 50e-15;
  const auto t50 = r.output_waveform().crossing(0.5 * proc.vdd);
  ASSERT_TRUE(t50);
  EXPECT_NEAR(*t50, tau * std::log(2.0), 0.05 * tau);
}

TEST(Qwm, StaticGateNeverOnFails) {
  // A stack whose upper gate is tied low can never discharge.
  const auto& proc = test::models().proc;
  auto b = make_nmos_stack(proc, {1e-6, 1e-6}, 10e-15);
  // Make the upper device's static gate 0.
  for (std::size_t e = 0; e < b.stage.edge_count(); ++e) {
    auto& ed = b.stage.edge_mut(static_cast<circuit::EdgeId>(e));
    if (ed.input < 0) ed.static_gate_voltage = 0.0;
  }
  const auto st = evaluate_stage(b, step_inputs(b), models());
  EXPECT_FALSE(st.ok);
}

TEST(Qwm, InitialVoltageOverride) {
  const auto b = make_nmos_stack(test::models().proc, {1e-6, 1e-6}, 10e-15);
  QwmOptions opt;
  opt.initial_voltages = {2.0, 2.5};  // partially discharged start
  const auto st = evaluate_stage(b, step_inputs(b), models(), opt);
  ASSERT_TRUE(st.ok) << st.error;
  EXPECT_NEAR(st.qwm.output_waveform().eval(0.0), 2.5, 1e-9);
}

TEST(Qwm, StatsAccumulate) {
  const auto b = make_nmos_stack(test::models().proc,
                                 std::vector<double>(4, 1e-6), 20e-15);
  const auto st = evaluate_stage(b, step_inputs(b), models());
  ASSERT_TRUE(st.ok);
  EXPECT_GT(st.qwm.stats.regions, 3u);
  EXPECT_GT(st.qwm.stats.newton_iterations, 0u);
  EXPECT_GT(st.qwm.stats.device_evals, 0u);
}

TEST(Qwm, DecoderTreeWithWiresRuns) {
  const auto b = make_decoder_tree(test::models().proc, 3, 20e-15);
  const auto st = evaluate_stage(b, step_inputs(b), models());
  ASSERT_TRUE(st.ok) << st.error;
  ASSERT_TRUE(st.delay);
  EXPECT_GT(*st.delay, 10e-12);  // long wires make this slow
}

}  // namespace
}  // namespace qwm::core
