// Correctness checks of the benchmark, written as pure functions over
// plain data so each can be run on a deliberately perturbed copy of its
// input (the negative controls every run executes; see README.md).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "qwm/sta/sta.h"

namespace qwmbench {

/// One stage-output arc: (stage, output, edge) with its timing.
struct Arc {
  int stage = -1;
  int output = 0;
  bool rising = false;
  qwm::netlist::NetId net = -1;
  /// Some input of the stage carries a valid arrival of the edge that
  /// triggers this output edge (opposite direction: stages invert).
  bool triggered = false;
  qwm::sta::Arrival arrival;
};

/// Every stage-output arc of the engine's primary lane, in stage order,
/// read through the public timing map only.
std::vector<Arc> collect_arcs(const qwm::sta::StaEngine& engine);

/// Arcs whose arrival differs from the reference in any bit of time or
/// slew, in validity, degraded mark or provenance. 0 = bit-identical.
std::size_t arrival_mismatches(const std::vector<Arc>& got,
                               const std::vector<Arc>& ref);

/// Arcs with a valid triggering input — what run() should have counted.
std::size_t triggered_arcs(const std::vector<Arc>& arcs);
/// Triggered arcs left without an arrival (dropped evaluations).
std::size_t dropped_arcs(const std::vector<Arc>& arcs);
/// Arcs without an arrival, triggered or not.
std::size_t untimed_arcs(const std::vector<Arc>& arcs);

/// Documented QWM-vs-SPICE tolerance: 15 % of the reference or 5 ps,
/// whichever is larger (DESIGN.md section 10).
bool within_spice_tolerance(double qwm_delay, double spice_delay);

/// Exactly one protocol line: `raw` holds every byte received for one
/// request, which must be "OK..." or "ERR <CODE>..." followed by a single
/// '\n' and nothing else, with no other control characters.
bool well_formed_reply(const std::string& raw);

/// Served-vs-reference agreement of two arrival times [s]: within
/// `rel` of the reference or `abs_s`, whichever is larger.
bool served_close(double served, double ref, double rel, double abs_s);

}  // namespace qwmbench
