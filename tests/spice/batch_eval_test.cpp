// The batched per-model device evaluation in the transient engine must
// be invisible in the results: for both nonlinear solvers, a simulation
// on the tabular models is bit-identical to one on the same tables behind
// ScalarPathModel, which takes the per-device iv_eval path (the SoA
// gather/scatter shares the scalar frame kernel and stamps in circuit
// order), and performs the same number of device-model queries.
#include "qwm/spice/transient.h"

#include <gtest/gtest.h>

#include <vector>

#include "../common/scalar_path_model.h"
#include "../common/test_models.h"
#include "qwm/circuit/builders.h"
#include "qwm/spice/from_stage.h"

namespace qwm::spice {
namespace {

StageSim sim_for(const circuit::BuiltStage& b, const device::ModelSet& ms) {
  const auto& m = test::models();
  std::vector<numeric::PwlWaveform> inputs;
  for (std::size_t i = 0; i < b.stage.input_count(); ++i) {
    if (static_cast<int>(i) == b.switching_input)
      inputs.push_back(b.output_falls
                           ? numeric::PwlWaveform::step(5e-12, 0.0, m.proc.vdd)
                           : numeric::PwlWaveform::step(5e-12, m.proc.vdd,
                                                        0.0));
    else
      inputs.push_back(
          numeric::PwlWaveform::constant(b.output_falls ? m.proc.vdd : 0.0));
  }
  StageSim sim = circuit_from_stage(b.stage, ms, inputs);
  const double pre = b.output_falls ? m.proc.vdd : 0.0;
  for (std::size_t n = 0; n < b.stage.node_count(); ++n) {
    const auto id = static_cast<circuit::NodeId>(n);
    if (b.stage.is_rail(id)) continue;
    sim.circuit.set_ic(sim.node_of[n], pre);
  }
  return sim;
}

void expect_bitwise_equal_run(const circuit::BuiltStage& b,
                              NonlinearSolver solver) {
  TransientOptions opt;
  opt.t_stop = 400e-12;
  opt.dt = 1e-12;
  opt.solver = solver;

  const StageSim scalar_sim = sim_for(b, test::scalar_path_set());
  const StageSim batched_sim = sim_for(b, test::models().tabular_set());
  const TransientResult scalar = simulate_transient(scalar_sim.circuit, opt);
  const TransientResult batched =
      simulate_transient(batched_sim.circuit, opt);

  ASSERT_TRUE(scalar.stats.converged);
  ASSERT_TRUE(batched.stats.converged);
  // Same solve trajectory: batching regroups the evaluations, it must not
  // add, skip, or reorder any of the numerical work.
  EXPECT_EQ(scalar.stats.steps, batched.stats.steps);
  EXPECT_EQ(scalar.stats.nr_iterations, batched.stats.nr_iterations);
  EXPECT_EQ(scalar.stats.device_evals, batched.stats.device_evals);
  for (std::size_t n = 0; n < scalar.waveforms.size(); ++n)
    for (double t = 0.0; t <= opt.t_stop; t += 10e-12)
      EXPECT_EQ(scalar.waveforms[n].eval(t), batched.waveforms[n].eval(t))
          << "node " << n << " t=" << t;
}

TEST(BatchedTransient, InverterNewtonRaphson) {
  expect_bitwise_equal_run(
      circuit::make_inverter(test::models().proc, 20e-15),
      NonlinearSolver::newton_raphson);
}

TEST(BatchedTransient, InverterSuccessiveChords) {
  expect_bitwise_equal_run(
      circuit::make_inverter(test::models().proc, 20e-15),
      NonlinearSolver::successive_chords);
}

TEST(BatchedTransient, Nand3NewtonRaphson) {
  expect_bitwise_equal_run(circuit::make_nand(test::models().proc, 3, 20e-15),
                           NonlinearSolver::newton_raphson);
}

TEST(BatchedTransient, Nand3SuccessiveChords) {
  expect_bitwise_equal_run(circuit::make_nand(test::models().proc, 3, 20e-15),
                           NonlinearSolver::successive_chords);
}

}  // namespace
}  // namespace qwm::spice
