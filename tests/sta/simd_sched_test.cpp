// Work stealing in the sharded deps scheduler: it must stay bit-identical
// to the serial level-schedule reference while actually stealing —
// repeated 8-lane runs over a wide grid, steal_count summed across runs
// (a single run may drain without contention; five in a row do not), and
// a single-lane run proving both contention counters stay at exactly zero
// when there is nobody to contend with. Runs under the tier-1 TSan
// preset, which is where a shard/claim-table race would surface.
#include "qwm/sta/sta.h"

#include <gtest/gtest.h>

#include <cstddef>

#include "sta_test_util.h"

namespace qwm::sta {
namespace {

using testutil::engine_for;
using testutil::expect_identical;
using testutil::generated_design;
using testutil::models;

TEST(SimdSched, WorkStealingStressStaysBitIdentical) {
  // A wide grid keeps many stages ready at once, so 8 lanes over 5
  // cold-cache runs reliably cross shard boundaries. Bit-identity to the
  // serial reference is the hard assertion on every run; the steal
  // counter only has to be nonzero in aggregate.
  const auto design = generated_design("gen:grid:3000:seed=11");
  StaOptions lv;
  lv.threads = 1;
  // The equivalence contract requires no mid-run eviction.
  lv.cache.max_entries = std::size_t{1} << 20;
  StaEngine ref(design, models(), lv);
  const std::size_t ref_evals = ref.run();
  ASSERT_GT(ref_evals, 0u);

  StaOptions dp = lv;
  dp.schedule = Schedule::deps;
  dp.threads = 8;
  StaEngine deps(design, models(), dp);
  std::size_t prev_enqueued = 0;
  for (int iter = 0; iter < 5; ++iter) {
    SCOPED_TRACE(iter);
    deps.clear_cache();
    EXPECT_EQ(deps.run(), ref_evals);
    expect_identical(ref, deps, "steal-stress");
    // ScheduleStats accumulate across runs: check the per-run delta.
    const ScheduleStats& ss = deps.schedule_stats();
    EXPECT_EQ(ss.barrier_syncs, 0u);
    EXPECT_EQ(ss.tasks_enqueued - prev_enqueued, design.stages.size());
    prev_enqueued = ss.tasks_enqueued;
  }
  // Aggregated over five 8-lane runs; any one run may drain steal-free.
  EXPECT_GT(deps.schedule_stats().steal_count, 0u);
}

TEST(SimdSched, SingleLaneRunNeverStealsOrContends) {
  // One lane owns the only shard: stealing is structurally impossible and
  // every classification lock acquisition is uncontended. Both counters
  // must be exactly zero — they are the "parallelism really off" probes
  // the thread-sweep bench relies on.
  const auto design = generated_design("gen:tree:500:seed=9");
  StaEngine deps = engine_for(design, Schedule::deps, 1);
  deps.run();
  const ScheduleStats& ss = deps.schedule_stats();
  EXPECT_EQ(ss.steal_count, 0u);
  EXPECT_EQ(ss.classify_lock_waits, 0u);
  EXPECT_EQ(ss.barrier_syncs, 0u);

  StaEngine ref = engine_for(design, Schedule::levels, 1);
  ref.run();
  expect_identical(ref, deps, "single-lane");
}

}  // namespace
}  // namespace qwm::sta
