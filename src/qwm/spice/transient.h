// Time-domain transient engine: the paper's SPICE baseline.
//
// Classic structure: at every time step, device models are linearized and
// a Newton–Raphson iteration solves the nodal equations; the step marches
// with a theta-method companion model for capacitors (theta = 1 backward
// Euler, theta = 0.5 trapezoidal — Hspice's default family). The
// user-specified fixed step size (1 ps / 10 ps in the paper's tables)
// drives the cost comparison against QWM; an iteration-count-adaptive
// mode is included for completeness.
//
// A small gmin conductance ties every node to ground (SPICE convention)
// so that dynamically floating nodes keep a well-posed DC solution.
#pragma once

#include <cstddef>
#include <vector>

#include "qwm/numeric/pwl.h"
#include "qwm/spice/circuit.h"

namespace qwm::spice {

/// Nonlinear iteration engine for the per-step solve.
enum class NonlinearSolver {
  newton_raphson,    ///< fresh Jacobian + LU every iteration (SPICE)
  successive_chords, ///< TETA's engine (paper §II): one *constant*
                     ///< admittance matrix, factored once per run, its
                     ///< LU reused by every iteration of every step —
                     ///< slower convergence, far cheaper iterations
};

struct TransientOptions {
  double t_stop = 1e-9;
  double dt = 1e-12;       ///< fixed step (paper: 1 ps and 10 ps)
  double theta = 0.5;      ///< 1 = backward Euler, 0.5 = trapezoidal
  double gmin = 1e-12;     ///< conductance to ground at every node [S]
  bool adaptive = false;   ///< iteration-count step control
  double dt_min = 1e-14;   ///< adaptive bounds
  double dt_max = 1e-11;
  int nr_max_iterations = 50;
  double v_tolerance = 1e-6;  ///< NR update tolerance [V]
  double i_tolerance = 1e-12; ///< NR residual tolerance [A]
  NonlinearSolver solver = NonlinearSolver::newton_raphson;
  /// Chord conductance assigned to each transistor in the constant
  /// admittance matrix (successive chords only) [S]. A mid-swing
  /// effective conductance; convergence is guaranteed for any value
  /// above half the maximum devices' incremental conductance, at the
  /// cost of more iterations.
  double chord_conductance = 2e-3;
};

struct TransientStats {
  std::size_t steps = 0;
  std::size_t nr_iterations = 0;
  std::size_t linear_solves = 0;
  std::size_t device_evals = 0;
  bool converged = true;  ///< false if any step failed to converge
};

struct TransientResult {
  /// Waveform per circuit node (index = SimNodeId; ground included).
  std::vector<numeric::PwlWaveform> waveforms;
  /// Charge delivered by each *driven* node over the run [C] (index =
  /// SimNodeId, 0 for undriven nodes). For a supply node at constant VDD,
  /// energy = VDD * charge; an inverter transition costs ~C_load * VDD^2
  /// plus short-circuit charge.
  std::vector<double> driven_charge;
  TransientStats stats;
};

/// DC operating point at time `t0`: capacitors open, driven nodes at their
/// stimulus value, explicit ICs honored as fixed voltages. Returns one
/// voltage per node. `converged` (optional) reports NR success.
std::vector<double> dc_operating_point(const Circuit& circuit, double t0,
                                       const TransientOptions& options = {},
                                       bool* converged = nullptr);

/// Full transient run over [0, t_stop].
TransientResult simulate_transient(const Circuit& circuit,
                                   const TransientOptions& options);

}  // namespace qwm::spice
