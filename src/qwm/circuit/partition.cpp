#include "qwm/circuit/partition.h"

#include <algorithm>
#include <cassert>
#include <set>

namespace qwm::circuit {

namespace {

/// Union-find over net ids.
class UnionFind {
 public:
  explicit UnionFind(std::size_t n) : parent_(n) {
    for (std::size_t i = 0; i < n; ++i) parent_[i] = static_cast<int>(i);
  }
  int find(int x) {
    while (parent_[x] != x) {
      parent_[x] = parent_[parent_[x]];
      x = parent_[x];
    }
    return x;
  }
  void unite(int a, int b) {
    a = find(a);
    b = find(b);
    if (a != b) parent_[a] = b;
  }

 private:
  std::vector<int> parent_;
};

}  // namespace

PartitionedDesign partition_netlist(const netlist::FlatNetlist& nl,
                                    const device::ModelSet& models) {
  PartitionedDesign out;
  out.vdd = models.vdd();
  out.vdd_net = nl.find_vdd_net();

  const auto is_rail = [&](netlist::NetId n) {
    return n == netlist::kGroundNet || n == out.vdd_net;
  };
  // Nets held by a voltage source behave like rails for partitioning
  // (they separate components and have fixed/driven waveforms).
  std::set<netlist::NetId> sourced;
  for (const auto& v : nl.vsources) sourced.insert(v.pos);

  const auto separates = [&](netlist::NetId n) {
    return is_rail(n) || sourced.count(n) > 0;
  };

  // 1. Merge nets through channels and resistors; rails never merge.
  UnionFind uf(nl.net_count());
  for (const auto& m : nl.mosfets)
    if (!separates(m.drain) && !separates(m.source)) uf.unite(m.drain, m.source);
  for (const auto& r : nl.resistors)
    if (!separates(r.a) && !separates(r.b)) uf.unite(r.a, r.b);

  // 2. Assign devices to components keyed by a representative channel net.
  const auto comp_of_device = [&](netlist::NetId a, netlist::NetId b) -> int {
    if (!separates(a)) return uf.find(a);
    if (!separates(b)) return uf.find(b);
    return -1;  // both terminals on rails (e.g. decap) — no stage
  };

  std::unordered_map<int, std::vector<int>> comp_mosfets;   // comp -> indices
  std::unordered_map<int, std::vector<int>> comp_resistors;
  for (std::size_t i = 0; i < nl.mosfets.size(); ++i) {
    const int c = comp_of_device(nl.mosfets[i].drain, nl.mosfets[i].source);
    if (c >= 0) comp_mosfets[c].push_back(static_cast<int>(i));
    else out.warnings.push_back("mosfet " + nl.mosfets[i].name +
                                " spans rails only; skipped");
  }
  for (std::size_t i = 0; i < nl.resistors.size(); ++i) {
    const int c = comp_of_device(nl.resistors[i].a, nl.resistors[i].b);
    if (c >= 0) comp_resistors[c].push_back(static_cast<int>(i));
  }

  // Gate fanout: which components does each net gate into?
  std::unordered_map<netlist::NetId, std::vector<int>> gate_fanout;
  std::unordered_map<netlist::NetId, double> gate_load;  // summed input cap
  for (const auto& m : nl.mosfets) {
    const int c = comp_of_device(m.drain, m.source);
    if (c < 0) continue;
    gate_fanout[m.gate].push_back(c);
    gate_load[m.gate] +=
        models.model_for(m.type).input_cap(m.w, m.l);
  }

  // Deterministic component ordering.
  std::vector<int> comps;
  for (const auto& [c, _] : comp_mosfets) comps.push_back(c);
  for (const auto& [c, _] : comp_resistors)
    if (!comp_mosfets.count(c)) comps.push_back(c);
  std::sort(comps.begin(), comps.end());

  std::unordered_map<int, int> stage_index;  // comp id -> stage index

  // 3. Build one LogicStage per component.
  for (const int comp : comps) {
    StageInfo info(out.vdd);
    LogicStage& s = info.stage;
    std::unordered_map<netlist::NetId, NodeId> node_of;

    const auto node_for = [&](netlist::NetId n) -> NodeId {
      if (n == netlist::kGroundNet) return s.sink();
      if (n == out.vdd_net) return s.source();
      const auto it = node_of.find(n);
      if (it != node_of.end()) return it->second;
      const NodeId id = s.add_node(nl.net_name(n));
      node_of[n] = id;
      return id;
    };

    std::unordered_map<netlist::NetId, InputId> input_of;
    const auto input_for = [&](netlist::NetId n) -> InputId {
      const auto it = input_of.find(n);
      if (it != input_of.end()) return it->second;
      const InputId id = s.add_input(nl.net_name(n));
      input_of[n] = id;
      info.input_nets.push_back(n);
      return id;
    };

    const auto comp_it = comp_mosfets.find(comp);
    if (comp_it != comp_mosfets.end()) {
      for (const int mi : comp_it->second) {
        const netlist::Mosfet& m = nl.mosfets[mi];
        // Orient the edge supply-side -> ground-side: PMOS conduct from
        // VDD, NMOS toward GND; the netlist's drain is used as the
        // supply-near terminal by convention, with rails forcing the
        // orientation when present.
        netlist::NetId hi = m.drain, lo = m.source;
        if (m.source == out.vdd_net || m.drain == netlist::kGroundNet)
          std::swap(hi, lo);
        const EdgeId e = s.add_edge(
            m.type == device::MosType::nmos ? DeviceKind::nmos
                                            : DeviceKind::pmos,
            node_for(hi), node_for(lo), m.w, m.l);
        if (m.gate == netlist::kGroundNet) {
          s.set_gate_static(e, 0.0);
        } else if (m.gate == out.vdd_net) {
          s.set_gate_static(e, out.vdd);
        } else if (!separates(m.gate) && uf.find(m.gate) == comp) {
          // Feedback gate within the same component (e.g. keeper):
          // expose it as an input so the caller decides its waveform.
          out.warnings.push_back("gate of " + m.name +
                                 " feeds back within its stage");
          s.set_gate_input(e, input_for(m.gate));
        } else {
          s.set_gate_input(e, input_for(m.gate));
        }
      }
    }
    const auto res_it = comp_resistors.find(comp);
    if (res_it != comp_resistors.end()) {
      for (const int ri : res_it->second) {
        const netlist::Resistor& r = nl.resistors[ri];
        const EdgeId e = s.add_edge(DeviceKind::wire, node_for(r.a),
                                    node_for(r.b), 1e-6, 1e-6);
        s.edge_mut(e).explicit_r = r.value;
        s.edge_mut(e).explicit_c = 0.0;
      }
    }

    // Grounded (or rail-tied) capacitors become node loads; floating caps
    // are split half to each end.
    for (const auto& c : nl.capacitors) {
      const bool a_in = node_of.count(c.a), b_in = node_of.count(c.b);
      if (a_in && (is_rail(c.b) || !b_in))
        s.set_load_cap(node_of[c.a], s.node(node_of[c.a]).load_cap + c.value);
      else if (b_in && (is_rail(c.a) || !a_in))
        s.set_load_cap(node_of[c.b], s.node(node_of[c.b]).load_cap + c.value);
      else if (a_in && b_in) {
        s.set_load_cap(node_of[c.a],
                       s.node(node_of[c.a]).load_cap + 0.5 * c.value);
        s.set_load_cap(node_of[c.b],
                       s.node(node_of[c.b]).load_cap + 0.5 * c.value);
      }
    }

    // Outputs: nets gating devices in other components. Their fanout gate
    // capacitance becomes the output load.
    for (const auto& [n, node] : node_of) {
      const auto gf = gate_fanout.find(n);
      bool external = false;
      if (gf != gate_fanout.end())
        for (const int tgt : gf->second)
          if (tgt != comp) external = true;
      if (external) {
        s.add_output(node);
        info.output_nets.push_back(n);
        s.set_load_cap(node, s.node(node).load_cap + gate_load[n]);
      }
    }
    // A terminal component with no gate fanout: expose its capacitor-loaded
    // nets, or every net as a fallback, so it stays observable.
    if (info.output_nets.empty()) {
      for (const auto& [n, node] : node_of) {
        if (s.node(node).load_cap > 0.0) {
          s.add_output(node);
          info.output_nets.push_back(n);
        }
      }
    }
    if (info.output_nets.empty()) {
      for (const auto& [n, node] : node_of) {
        s.add_output(node);
        info.output_nets.push_back(n);
      }
    }

    stage_index[comp] = static_cast<int>(out.stages.size());
    out.stages.push_back(std::move(info));
  }

  // 4. Driver map and primary inputs.
  for (std::size_t si = 0; si < out.stages.size(); ++si) {
    const StageInfo& info = out.stages[si];
    for (std::size_t oi = 0; oi < info.output_nets.size(); ++oi)
      out.driver_of[info.output_nets[oi]] = {static_cast<int>(si),
                                             static_cast<int>(oi)};
  }
  std::set<netlist::NetId> pi_set;
  for (const auto& [n, fan] : gate_fanout) {
    (void)fan;
    if (is_rail(n) || sourced.count(n) || out.driver_of.count(n)) continue;
    pi_set.insert(n);
  }
  // Source-driven gate nets are primary inputs too (driven stimuli).
  for (const auto& [n, fan] : gate_fanout) {
    (void)fan;
    if (sourced.count(n) && !is_rail(n)) pi_set.insert(n);
  }
  out.primary_inputs.assign(pi_set.begin(), pi_set.end());
  return out;
}

}  // namespace qwm::circuit
