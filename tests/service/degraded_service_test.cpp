// Graceful degradation at the service layer: injected request faults
// (slow, failed, malformed frame), the per-request solve deadline, and
// the OK DEGRADED tagging of answers that rest on fallback-ladder
// results — plus the STATS counters that make all of it observable, and
// the fault-plan grammar behind qwm_serve --fault-spec.
#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "qwm/service/server.h"
#include "qwm/support/fault_injection.h"

namespace qwm::service {
namespace {

using support::FaultPlan;
using support::FaultRule;
using support::FaultSite;
using support::ScopedFaultPlan;

std::string chain_deck(int n) {
  std::string deck = "inverter chain\nvdd vdd 0 3.3\nvin in 0 0\n";
  std::string prev = "in";
  for (int i = 0; i < n; ++i) {
    const std::string out = i + 1 == n ? "out" : "s" + std::to_string(i + 1);
    const std::string tag = std::to_string(i);
    deck += "mn" + tag + " " + out + " " + prev + " 0 0 nmos W=1.5u L=0.35u\n";
    deck += "mp" + tag + " " + out + " " + prev +
            " vdd vdd pmos W=3u L=0.35u\n";
    prev = out;
  }
  deck += "cl out 0 20f\n.end\n";
  return deck;
}

TEST(DegradedService, InjectedRequestFailure) {
  Server server;
  FaultPlan plan;
  plan.add(FaultRule{.site = FaultSite::kFailRequest});
  ScopedFaultPlan armed{plan};
  const std::string resp = server.handle_line("STATS");
  EXPECT_TRUE(is_err(resp, "INJECTED")) << resp;
  EXPECT_EQ(server.stats().verb[static_cast<int>(Verb::kStats)].errors, 1u);
}

TEST(DegradedService, InjectedMalformedFrame) {
  Server server;
  FaultPlan plan;
  plan.add(FaultRule{.site = FaultSite::kMalformedFrame});
  ScopedFaultPlan armed{plan};
  const std::string resp = server.handle_line("STATS");
  EXPECT_TRUE(is_err(resp, "BADCMD")) << resp;
  EXPECT_EQ(server.stats().malformed, 1u);
}

TEST(DegradedService, SlowRequestTripsSolveDeadline) {
  ServerOptions opt;
  opt.solve_deadline_ms = 5.0;
  Server server(opt);
  FaultPlan plan;
  FaultRule slow;
  slow.site = FaultSite::kSlowRequest;
  slow.magnitude = 25.0;  // ms, well past the 5 ms deadline
  slow.count = 1;
  plan.add(slow);
  ScopedFaultPlan armed{plan};

  const std::string resp = server.handle_line("STATS");
  EXPECT_TRUE(is_err(resp, "DEGRADED")) << resp;
  EXPECT_EQ(server.stats().solve_deadline_expirations, 1u);
  // The next request is healthy again (count budget exhausted).
  EXPECT_TRUE(is_ok(server.handle_line("STATS")));
  EXPECT_EQ(server.stats().solve_deadline_expirations, 1u);
}

TEST(DegradedService, DegradedArrivalsAreTagged) {
  Server server;
  {
    // Sabotage every nominal solve during LOAD: the whole design is
    // answered from the damped rung and every arrival is degraded.
    FaultPlan plan;
    FaultRule stall;
    stall.site = FaultSite::kNewtonStall;
    stall.max_rung = 0;
    plan.add(stall);
    ScopedFaultPlan armed{plan};
    const LoadReply r = server.db().load_text(chain_deck(3), "chain3");
    ASSERT_TRUE(r.status.ok) << r.status.message;
  }

  const std::string arrival = server.handle_line("ARRIVAL out");
  EXPECT_TRUE(is_ok(arrival)) << arrival;
  EXPECT_TRUE(is_degraded(arrival)) << arrival;
  EXPECT_EQ(response_field(arrival, "rise_degraded"), "1");
  EXPECT_EQ(response_field(arrival, "fall_degraded"), "1");

  const std::string slack = server.handle_line("SLACK out 2n");
  EXPECT_TRUE(is_ok(slack)) << slack;
  EXPECT_TRUE(is_degraded(slack)) << slack;
  EXPECT_EQ(response_field(slack, "degraded"), "1");

  const std::string stats = server.handle_line("STATS");
  EXPECT_TRUE(is_ok(stats));
  EXPECT_EQ(response_field(stats, "degraded"), "2");
  EXPECT_NE(response_field(stats, "fallback_damped"), "0");
  EXPECT_EQ(response_field(stats, "fallback_spice"), "0");

  // A clean reload clears the degradation: plain OK answers again.
  const LoadReply clean = server.db().load_text(chain_deck(3), "chain3");
  ASSERT_TRUE(clean.status.ok);
  const std::string healthy = server.handle_line("ARRIVAL out");
  EXPECT_TRUE(is_ok(healthy));
  EXPECT_FALSE(is_degraded(healthy)) << healthy;
  EXPECT_EQ(response_field(healthy, "rise_degraded"), "0");
}

TEST(DegradedService, StreamSessionSurvivesInjectedFaults) {
  // A scripted stdio session under a mixed fault plan: every reply is
  // still exactly one line and the session shuts down cleanly.
  ServerOptions opt;
  opt.threads = 2;
  Server server(opt);
  FaultPlan plan;
  plan.seed = 7;
  FaultRule frame;
  frame.site = FaultSite::kMalformedFrame;
  frame.one_in = 3;
  plan.add(frame);
  FaultRule failr;
  failr.site = FaultSite::kFailRequest;
  failr.one_in = 4;
  plan.add(failr);
  ScopedFaultPlan armed{plan};

  std::istringstream in(
      "STATS\nARRIVAL nowhere\nCRITPATH\nSTATS\nUPDATE\nSHUTDOWN\n");
  std::ostringstream out;
  EXPECT_EQ(server.serve_stream(in, out), 0);
  int lines = 0;
  std::istringstream replies(out.str());
  std::string line;
  while (std::getline(replies, line)) {
    ++lines;
    EXPECT_TRUE(is_ok(line) || is_err(line)) << line;
  }
  EXPECT_EQ(lines, 6);
}

TEST(FaultPlanGrammar, ParsesProcessLevelSites) {
  support::FaultPlan plan;
  std::string error;
  ASSERT_TRUE(support::parse_fault_plan(
      "seed=7,slow_request:start=5:count=1:magnitude=50,"
      "fail_request:period=3,malformed_frame:one_in=4:max_rung=0",
      &plan, &error))
      << error;
  EXPECT_EQ(plan.seed, 7u);
  ASSERT_EQ(plan.rules.size(), 3u);
  EXPECT_EQ(plan.rules[0].site, FaultSite::kSlowRequest);
  EXPECT_EQ(plan.rules[0].start, 5u);
  EXPECT_EQ(plan.rules[0].count, 1u);
  EXPECT_EQ(plan.rules[0].magnitude, 50.0);
  EXPECT_EQ(plan.rules[1].site, FaultSite::kFailRequest);
  EXPECT_EQ(plan.rules[1].period, 3u);
  EXPECT_EQ(plan.rules[2].site, FaultSite::kMalformedFrame);
  EXPECT_EQ(plan.rules[2].one_in, 4u);
  EXPECT_EQ(plan.rules[2].max_rung, 0);

  // Reply-path sites no longer exist: the spec is refused, not ignored.
  EXPECT_FALSE(support::parse_fault_plan("drop_connection:start=5", &plan,
                                         &error));
  EXPECT_EQ(error, "unknown fault site: drop_connection");
  EXPECT_FALSE(support::parse_fault_plan("no_such_site", &plan, &error));
  EXPECT_FALSE(support::parse_fault_plan("slow_request:bogus=1", &plan, &error));
}

TEST(FaultPlanGrammar, ParsedPlanArmsTheGlobalPlan) {
  // What qwm_serve --fault-spec does: parse, then arm process-wide.
  FaultPlan plan;
  std::string error;
  ASSERT_TRUE(support::parse_fault_plan("fail_request:count=1", &plan, &error))
      << error;
  Server server;
  ScopedFaultPlan armed{plan};
  EXPECT_TRUE(is_err(server.handle_line("STATS"), "INJECTED"));
  EXPECT_TRUE(is_ok(server.handle_line("STATS")));
  EXPECT_EQ(support::fault_counters()
                .fired[static_cast<int>(FaultSite::kFailRequest)],
            1u);
}

}  // namespace
}  // namespace qwm::service
