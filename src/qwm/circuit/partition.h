// Circuit partitioning into logic stages (paper §I).
//
// A logic stage is a channel-connected component: nets merged through
// transistor channels (drain-source) and resistors, with the power rails
// acting as separators. Each component becomes one LogicStage whose
// inputs are the gate nets driven from outside the component and whose
// outputs are the nets observed by other components (gate connections) —
// the structure the paper's Figure 1 illustrates.
#pragma once

#include <string>
#include <unordered_map>
#include <vector>

#include "qwm/circuit/stage.h"
#include "qwm/device/model_set.h"
#include "qwm/netlist/flat.h"

namespace qwm::circuit {

/// One partitioned stage plus the net bookkeeping that ties it into the
/// design-level timing graph.
struct StageInfo {
  LogicStage stage;
  /// Net of each stage input, indexed by InputId.
  std::vector<netlist::NetId> input_nets;
  /// Net of each stage output, same order as stage.outputs().
  std::vector<netlist::NetId> output_nets;

  explicit StageInfo(double vdd) : stage(vdd) {}
};

struct PartitionedDesign {
  std::vector<StageInfo> stages;
  netlist::NetId vdd_net = -1;
  double vdd = 0.0;
  /// Driving stage of a net: net -> (stage index, output index). Nets
  /// absent from the map are primary inputs or rails.
  std::unordered_map<netlist::NetId, std::pair<int, int>> driver_of;
  /// Gate nets not driven by any stage or supply (the design's primary
  /// inputs).
  std::vector<netlist::NetId> primary_inputs;
  std::vector<std::string> warnings;
};

/// Partitions a flat netlist into logic stages. `models` supplies the
/// process (for VDD and wire parasitics) and gate input capacitances used
/// to compute each output's fanout load.
PartitionedDesign partition_netlist(const netlist::FlatNetlist& nl,
                                    const device::ModelSet& models);

}  // namespace qwm::circuit
