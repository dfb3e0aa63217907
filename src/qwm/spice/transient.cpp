#include "qwm/spice/transient.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <memory>

#include "qwm/device/tabular_model.h"
#include "qwm/numeric/matrix.h"

namespace qwm::spice {

namespace {

/// Shared assembly state for DC and transient solves.
struct Solver {
  const Circuit& ckt;
  const TransientOptions& opt;
  TransientStats* stats = nullptr;

  std::vector<int> unknown_of;  ///< node -> unknown index or -1
  std::vector<SimNodeId> node_of_unknown;
  std::size_t n_unknowns = 0;

  /// true while the node's explicit IC pins it (DC op only).
  std::vector<char> ic_pinned;

  Solver(const Circuit& c, const TransientOptions& o, bool pin_ics)
      : ckt(c), opt(o) {
    const std::size_t n = c.node_count();
    unknown_of.assign(n, -1);
    ic_pinned.assign(n, 0);
    for (std::size_t i = 1; i < n; ++i) {
      const auto& nd = c.node(i);
      if (nd.driven) continue;
      if (pin_ics && !std::isnan(nd.ic)) {
        ic_pinned[i] = 1;
        continue;
      }
      unknown_of[i] = static_cast<int>(n_unknowns++);
      node_of_unknown.push_back(static_cast<SimNodeId>(i));
    }
    // Devirtualize once: cache each mosfet's concrete tabular model and
    // group mosfets per distinct model (NMOS/PMOS in practice) so the NR
    // loop evaluates each group through one batched SoA call. Mosfets on
    // a non-tabular model keep one iv_eval call each.
    const auto& mos = ckt.mosfets();
    tab_of_.resize(mos.size());
    group_results_.resize(mos.size());
    group_swap_.resize(mos.size());
    for (std::size_t i = 0; i < mos.size(); ++i) {
      tab_of_[i] = mos[i].model->tabular();
      if (tab_of_[i] == nullptr) continue;
      BatchGroup* g = nullptr;
      for (auto& cand : groups_)
        if (cand.model == tab_of_[i]) g = &cand;
      if (g == nullptr) {
        groups_.push_back(BatchGroup{});
        g = &groups_.back();
        g->model = tab_of_[i];
      }
      g->mosfets.push_back(i);
    }
  }

  /// Full node-voltage vector from the unknown vector at time t.
  void full_voltages(const std::vector<double>& x, double t,
                     std::vector<double>& v) const {
    v.assign(ckt.node_count(), 0.0);
    for (std::size_t i = 1; i < ckt.node_count(); ++i) {
      const auto& nd = ckt.node(i);
      if (nd.driven)
        v[i] = nd.driven->eval(t);
      else if (ic_pinned[i])
        v[i] = nd.ic;
      else
        v[i] = x[unknown_of[i]];
    }
  }

  /// Assembles residual F (currents leaving each unknown node) and, when
  /// `jac` is non-null, the Jacobian dF/dx. Capacitors are included when
  /// `with_caps`, using the theta-method companion with the previous-step
  /// voltages `v_prev` and branch currents `i_prev`.
  void assemble(const std::vector<double>& v, double t, bool with_caps,
                double h, const std::vector<double>& v_prev,
                const std::vector<double>& i_prev, std::vector<double>& f,
                numeric::Matrix* jac, double gmin) {
    f.assign(n_unknowns, 0.0);
    if (jac) jac->resize(n_unknowns, n_unknowns);

    const auto add_f = [&](SimNodeId n, double i) {
      const int u = unknown_of[n];
      if (u >= 0) f[u] += i;
    };
    const auto add_j = [&](SimNodeId n, SimNodeId wrt, double g) {
      if (!jac) return;
      const int u = unknown_of[n];
      const int w = unknown_of[wrt];
      if (u >= 0 && w >= 0) (*jac)(u, w) += g;
    };

    // gmin to ground at every non-ground node.
    for (std::size_t i = 1; i < ckt.node_count(); ++i) {
      add_f(static_cast<SimNodeId>(i), gmin * v[i]);
      add_j(static_cast<SimNodeId>(i), static_cast<SimNodeId>(i), gmin);
    }

    for (const auto& r : ckt.resistors()) {
      const double g = 1.0 / r.r;
      const double i = g * (v[r.a] - v[r.b]);
      add_f(r.a, i);
      add_f(r.b, -i);
      add_j(r.a, r.a, g);
      add_j(r.a, r.b, -g);
      add_j(r.b, r.b, g);
      add_j(r.b, r.a, -g);
    }

    for (const auto& src : ckt.current_sources()) {
      const double i = src.waveform.eval(t);
      add_f(src.pos, i);
      add_f(src.neg, -i);
    }

    // Device evaluations: gather each batch group's frame coordinates,
    // run one eval_frames per group, then stamp every mosfet in circuit
    // order (stamping order fixes the floating-point accumulation, so the
    // batched and scalar paths produce identical bits).
    const auto& mos = ckt.mosfets();
    for (BatchGroup& g : groups_) {
      g.fg.clear();
      g.flo.clear();
      g.fhi.clear();
      for (const std::size_t i : g.mosfets) {
        const auto& m = mos[i];
        const auto fm = g.model->to_frame(
            device::TerminalVoltages{v[m.g], v[m.d], v[m.s]});
        g.fg.push_back(fm.fg);
        g.flo.push_back(fm.flo);
        g.fhi.push_back(fm.fhi);
        group_swap_[i] = fm.swapped ? 1 : 0;
      }
      g.fe.resize(g.mosfets.size());
      g.model->eval_frames(g.mosfets.size(), g.fg.data(), g.flo.data(),
                           g.fhi.data(), g.fe.data());
      for (std::size_t j = 0; j < g.mosfets.size(); ++j) {
        const std::size_t i = g.mosfets[j];
        group_results_[i] = g.model->from_frame(g.fe[j], group_swap_[i] != 0,
                                                mos[i].w, mos[i].l);
      }
    }
    for (std::size_t i = 0; i < mos.size(); ++i) {
      const auto& m = mos[i];
      const device::IvEval e =
          tab_of_[i] != nullptr
              ? group_results_[i]
              : m.model->iv_eval(m.w, m.l, device::TerminalVoltages{
                                               v[m.g], v[m.d], v[m.s]});
      if (stats) ++stats->device_evals;
      add_f(m.d, e.i);
      add_f(m.s, -e.i);
      add_j(m.d, m.d, e.d_src);
      add_j(m.d, m.s, e.d_snk);
      add_j(m.d, m.g, e.d_input);
      add_j(m.s, m.d, -e.d_src);
      add_j(m.s, m.s, -e.d_snk);
      add_j(m.s, m.g, -e.d_input);
    }

    if (with_caps) {
      const double theta = opt.theta;
      for (std::size_t ci = 0; ci < ckt.capacitors().size(); ++ci) {
        const auto& c = ckt.capacitors()[ci];
        if (c.c <= 0.0) continue;
        const double geq = c.c / (theta * h);
        const double vab = v[c.a] - v[c.b];
        const double vab0 = v_prev[c.a] - v_prev[c.b];
        const double i = geq * (vab - vab0) - (1.0 - theta) / theta * i_prev[ci];
        add_f(c.a, i);
        add_f(c.b, -i);
        add_j(c.a, c.a, geq);
        add_j(c.a, c.b, -geq);
        add_j(c.b, c.b, geq);
        add_j(c.b, c.a, -geq);
      }
    }
  }

  /// The constant admittance matrix of the successive-chords engine:
  /// linear element stamps plus a fixed chord conductance per transistor
  /// channel (paper §II, TETA). Independent of the solution, so its LU is
  /// computed once and reused by every iteration of every time step.
  numeric::Matrix chord_matrix(double h, double gmin) const {
    numeric::Matrix g(n_unknowns, n_unknowns);
    const auto add = [&](SimNodeId a, SimNodeId b, double val) {
      const int u = unknown_of[a];
      const int w = unknown_of[b];
      if (u >= 0 && w >= 0) g(u, w) += val;
    };
    for (std::size_t i = 1; i < ckt.node_count(); ++i)
      add(static_cast<SimNodeId>(i), static_cast<SimNodeId>(i), gmin);
    for (const auto& r : ckt.resistors()) {
      const double gr = 1.0 / r.r;
      add(r.a, r.a, gr);
      add(r.a, r.b, -gr);
      add(r.b, r.b, gr);
      add(r.b, r.a, -gr);
    }
    for (const auto& c : ckt.capacitors()) {
      if (c.c <= 0.0) continue;
      const double geq = c.c / (opt.theta * h);
      add(c.a, c.a, geq);
      add(c.a, c.b, -geq);
      add(c.b, c.b, geq);
      add(c.b, c.a, -geq);
    }
    for (const auto& m : ckt.mosfets()) {
      const double gc = opt.chord_conductance * (m.w / 1e-6);
      add(m.d, m.d, gc);
      add(m.d, m.s, -gc);
      add(m.s, m.s, gc);
      add(m.s, m.d, -gc);
    }
    return g;
  }

  /// Damped NR (or successive-chords) solve at time t. Returns true on
  /// convergence; x is updated in place. `with_caps` false = DC operating
  /// point (always Newton: the chord matrix needs the cap companion).
  bool newton(double t, bool with_caps, double h,
              const std::vector<double>& v_prev,
              const std::vector<double>& i_prev, std::vector<double>& x,
              double gmin, int* iterations_out = nullptr) {
    // Solver-owned scratch (v_, f_, rhs_, dx_, jac_): grow-only buffers,
    // so the per-iteration loop below allocates nothing at steady size.
    std::vector<double>& v = v_;
    std::vector<double>& f = f_;
    numeric::Matrix& jac = jac_;
    const double vmax_step = 0.5;  // volts per NR update, clamped
    const bool use_chords =
        with_caps && opt.solver == NonlinearSolver::successive_chords;
    if (use_chords && (!chord_lu_ || chord_h_ != h)) {
      chord_lu_ =
          std::make_unique<numeric::LuFactorization>(chord_matrix(h, gmin));
      chord_h_ = h;
      if (!chord_lu_->ok()) return false;
    }
    const int max_iterations =
        use_chords ? 4 * opt.nr_max_iterations : opt.nr_max_iterations;

    for (int iter = 0; iter < max_iterations; ++iter) {
      full_voltages(x, t, v);
      assemble(v, t, with_caps, h, v_prev, i_prev, f,
               use_chords ? nullptr : &jac, gmin);
      if (stats) ++stats->nr_iterations;
      rhs_.assign(f.size(), 0.0);
      for (std::size_t i = 0; i < f.size(); ++i) rhs_[i] = -f[i];
      std::vector<double>& dx = dx_;
      if (use_chords) {
        chord_lu_->solve(rhs_, dx);  // back-substitution only
      } else {
        if (stats) ++stats->linear_solves;
        numeric::LuFactorization lu(jac);
        if (!lu.ok()) return false;
        lu.solve(rhs_, dx);
      }

      double dmax = 0.0;
      for (double d : dx) dmax = std::max(dmax, std::abs(d));
      const double scale = dmax > vmax_step ? vmax_step / dmax : 1.0;
      for (std::size_t i = 0; i < x.size(); ++i) x[i] += scale * dx[i];

      if (dmax * scale < opt.v_tolerance) {
        // Confirm the residual as well.
        full_voltages(x, t, v);
        assemble(v, t, with_caps, h, v_prev, i_prev, f, nullptr, gmin);
        if (numeric::inf_norm(f) < 1e-6 /* amps; generous for stiff caps */) {
          if (iterations_out) *iterations_out = iter + 1;
          return true;
        }
      }
    }
    return false;
  }

  /// Accumulates charge[d] += I_leaving(d) * h for every driven node d.
  /// `i_cap` holds the capacitor branch currents already updated for this
  /// step's end state `v`.
  void accumulate_driven_charge(const std::vector<double>& v, double t,
                                double h, const std::vector<double>& i_cap,
                                std::vector<double>* charge) const {
    const auto is_driven = [&](SimNodeId n) {
      return n != kGround && ckt.node(n).driven.has_value();
    };
    const auto add = [&](SimNodeId n, double i) {
      if (is_driven(n)) (*charge)[n] += i * h;
    };
    for (const auto& r : ckt.resistors()) {
      const double i = (v[r.a] - v[r.b]) / r.r;
      add(r.a, i);
      add(r.b, -i);
    }
    for (const auto& m : ckt.mosfets()) {
      const double i = m.model->iv(
          m.w, m.l, device::TerminalVoltages{v[m.g], v[m.d], v[m.s]});
      add(m.d, i);
      add(m.s, -i);
    }
    for (std::size_t ci = 0; ci < ckt.capacitors().size(); ++ci) {
      const auto& c = ckt.capacitors()[ci];
      add(c.a, i_cap[ci]);
      add(c.b, -i_cap[ci]);
    }
    for (const auto& src : ckt.current_sources()) {
      const double i = src.waveform.eval(t);
      add(src.pos, i);
      add(src.neg, -i);
    }
  }

  std::unique_ptr<numeric::LuFactorization> chord_lu_;
  double chord_h_ = -1.0;

  /// Batched device evaluation state (built once in the constructor): each
  /// group holds the mosfets sharing one concrete tabular model plus SoA
  /// gather buffers for their frame coordinates. Empty when no mosfet has
  /// a tabular model.
  struct BatchGroup {
    const device::TabularDeviceModel* model = nullptr;
    std::vector<std::size_t> mosfets;        ///< indices into ckt.mosfets()
    std::vector<double> fg, flo, fhi;        ///< SoA frame coordinates
    std::vector<device::TabularDeviceModel::FrameEval> fe;
  };
  std::vector<const device::TabularDeviceModel*> tab_of_;
  std::vector<BatchGroup> groups_;
  std::vector<device::IvEval> group_results_;  ///< per-mosfet, circuit order
  std::vector<char> group_swap_;               ///< per-mosfet drain/source swap

  /// NR scratch, reused across iterations and steps (grow-only).
  std::vector<double> v_, f_, rhs_, dx_;
  numeric::Matrix jac_;
};

}  // namespace

std::vector<double> dc_operating_point(const Circuit& circuit, double t0,
                                       const TransientOptions& options,
                                       bool* converged) {
  Solver s(circuit, options, /*pin_ics=*/true);
  std::vector<double> x(s.n_unknowns, 0.0);
  // Start unknowns midway to the supply region for better basins.
  std::vector<double> empty_v(circuit.node_count(), 0.0), empty_i;

  bool ok = false;
  // gmin stepping: relax toward the target gmin if the direct solve fails.
  for (const double g : {options.gmin, 1e-9, 1e-6, 1e-3}) {
    if (g < options.gmin) continue;
    ok = s.newton(t0, /*with_caps=*/false, 1.0, empty_v, empty_i, x, g);
    if (ok && g == options.gmin) break;
    if (ok) {
      // Continue from the relaxed solution back at the target gmin.
      ok = s.newton(t0, false, 1.0, empty_v, empty_i, x, options.gmin);
      break;
    }
  }
  if (converged) *converged = ok;

  std::vector<double> v;
  s.full_voltages(x, t0, v);
  return v;
}

TransientResult simulate_transient(const Circuit& circuit,
                                   const TransientOptions& options) {
  TransientResult result;
  TransientStats& stats = result.stats;
  Solver s(circuit, options, /*pin_ics=*/false);
  s.stats = &stats;

  // Initial state: DC operating point with ICs pinned.
  std::vector<double> v_now =
      dc_operating_point(circuit, 0.0, options, nullptr);
  // Nodes with explicit ICs start there even in the free transient system.
  for (std::size_t i = 1; i < circuit.node_count(); ++i)
    if (!circuit.node(i).driven && !std::isnan(circuit.node(i).ic))
      v_now[i] = circuit.node(i).ic;

  std::vector<double> x(s.n_unknowns, 0.0);
  for (std::size_t u = 0; u < s.n_unknowns; ++u)
    x[u] = v_now[s.node_of_unknown[u]];

  std::vector<double> i_cap(circuit.capacitors().size(), 0.0);

  result.waveforms.assign(circuit.node_count(), numeric::PwlWaveform());
  result.driven_charge.assign(circuit.node_count(), 0.0);
  const auto record = [&](double t, const std::vector<double>& v) {
    for (std::size_t i = 0; i < v.size(); ++i)
      result.waveforms[i].append(t, v[i]);
  };
  record(0.0, v_now);

  double t = 0.0;
  double h = options.dt;
  std::vector<double> v_next;
  std::vector<double> x_try;
  while (t < options.t_stop - 1e-18) {
    h = std::min(h, options.t_stop - t);
    const double t_next = t + h;

    x_try.assign(x.begin(), x.end());
    int iters = 0;
    bool ok = s.newton(t_next, /*with_caps=*/true, h, v_now, i_cap, x_try,
                       options.gmin, &iters);
    if (!ok) {
      if (options.adaptive && h > options.dt_min * 1.0001) {
        h = std::max(h * 0.25, options.dt_min);
        continue;  // retry the step smaller
      }
      stats.converged = false;
      // March on with the best effort solution to keep the trace usable.
    }

    x = x_try;
    s.full_voltages(x, t_next, v_next);
    // Update capacitor branch currents for the theta companion.
    for (std::size_t ci = 0; ci < circuit.capacitors().size(); ++ci) {
      const auto& c = circuit.capacitors()[ci];
      if (c.c <= 0.0) continue;
      const double geq = c.c / (options.theta * h);
      const double vab = v_next[c.a] - v_next[c.b];
      const double vab0 = v_now[c.a] - v_now[c.b];
      i_cap[ci] =
          geq * (vab - vab0) - (1.0 - options.theta) / options.theta * i_cap[ci];
    }
    s.accumulate_driven_charge(v_next, t_next, h, i_cap,
                               &result.driven_charge);
    v_now = v_next;
    t = t_next;
    ++stats.steps;
    record(t, v_now);

    if (options.adaptive) {
      if (iters <= 4)
        h = std::min(h * 1.3, options.dt_max);
      else if (iters > 12)
        h = std::max(h * 0.5, options.dt_min);
    }
  }
  return result;
}

}  // namespace qwm::spice
