// Shared fixtures for the scheduler-equivalence suites
// (deps_sta_test.cpp, simd_sched_test.cpp): the Table I/II twin design
// that exercises the memo owner/follower machinery, generated designs,
// and the bitwise-equality walk over every arrival on every corner.
#pragma once

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "../common/golden_cases.h"
#include "../common/test_models.h"
#include "qwm/frontend/elaborate.h"
#include "qwm/frontend/generate.h"
#include "qwm/sta/sta.h"

namespace qwm::sta::testutil {

inline const device::ModelSet& models() {
  static device::ModelSet ms = test::models().tabular_set();
  return ms;
}

/// Every Table I gate and Table II stack, instantiated twice: the twin
/// shares its sibling's input nets and memo key, so within one level the
/// schedulers must make the same owner/follower split. All inputs are
/// primary, all outputs are observed.
inline circuit::PartitionedDesign golden_twin_design() {
  circuit::PartitionedDesign d;
  d.vdd = test::models().proc.vdd;
  netlist::NetId next = 0;
  std::vector<std::vector<netlist::NetId>> first_copy_inputs;
  for (int copy = 0; copy < 2; ++copy) {
    auto cases = test::golden_cases();
    for (std::size_t ci = 0; ci < cases.size(); ++ci) {
      circuit::StageInfo info(d.vdd);
      info.stage = std::move(cases[ci].built.stage);
      const int si = static_cast<int>(d.stages.size());
      if (copy == 0) {
        for (std::size_t i = 0; i < info.stage.input_count(); ++i) {
          info.input_nets.push_back(next);
          d.primary_inputs.push_back(next);
          ++next;
        }
        first_copy_inputs.push_back(info.input_nets);
      } else {
        info.input_nets = first_copy_inputs[ci];  // twins share the PI nets
      }
      for (std::size_t o = 0; o < info.stage.outputs().size(); ++o) {
        info.output_nets.push_back(next);
        d.driver_of[next] = {si, static_cast<int>(o)};
        ++next;
      }
      d.stages.push_back(std::move(info));
    }
  }
  return d;
}

inline circuit::PartitionedDesign generated_design(const std::string& spec) {
  std::string err;
  const auto gs = frontend::parse_gen_spec(spec, &err);
  EXPECT_TRUE(gs.has_value()) << err;
  frontend::ElaboratedDesign elab =
      frontend::elaborate(frontend::generate_netlist(*gs), models());
  return std::move(elab.design);
}

/// Bitwise equality of every stage-output arrival on every active corner.
inline void expect_identical(const StaEngine& a, const StaEngine& b,
                             const char* what) {
  ASSERT_EQ(a.corners().size(), b.corners().size()) << what;
  for (const auto& info : a.design().stages) {
    for (netlist::NetId n : info.output_nets) {
      for (const device::Corner c : a.corners()) {
        const NetTiming& ta = a.timing(n, c);
        const NetTiming& tb = b.timing(n, c);
        for (const auto edge : {&NetTiming::rise, &NetTiming::fall}) {
          EXPECT_EQ((ta.*edge).time, (tb.*edge).time) << what << " net " << n;
          EXPECT_EQ((ta.*edge).slew, (tb.*edge).slew) << what << " net " << n;
          EXPECT_EQ((ta.*edge).degraded, (tb.*edge).degraded)
              << what << " net " << n;
        }
      }
    }
  }
  EXPECT_EQ(a.worst_arrival(), b.worst_arrival()) << what;
}

inline StaEngine engine_for(const circuit::PartitionedDesign& design,
                            Schedule schedule, int threads) {
  StaOptions opt;
  opt.schedule = schedule;
  opt.threads = threads;
  return StaEngine(design, models(), opt);
}

}  // namespace qwm::sta::testutil
