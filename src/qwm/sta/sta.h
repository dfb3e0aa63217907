// Static timing analysis over partitioned stages, with QWM as the stage
// evaluation engine.
//
// Arrival times and slews propagate forward through the stage graph in
// topological order; each stage's delay comes from a QWM worst-case
// charge/discharge evaluation (paper §I: "only the timing of the logic
// stages along the longest paths needs to be considered"). The engine
// also supports incremental re-analysis: after a local edit (transistor
// resize) only the affected fanout cone is re-evaluated.
//
// Scheduling: stages are grouped into topological *levels* (all stages
// whose predecessors live in earlier levels). Every stage of one level
// is independent given the previous levels' arrivals, so a level is
// evaluated across a worker pool, and the results are merged into the
// timing map in ascending stage order — results are bit-identical to a
// single-threaded run regardless of thread count.
//
// Caching: stage evaluations are memoized in a StageEvalCache keyed by
// the structural stage hash, the quantized input slew, and the quantized
// load signature, so electrically identical stages (decoder rows,
// repeated buffers) evaluate QWM once. Lookups run against a cache
// frozen for the duration of a level; new results are committed during
// the deterministic merge, which keeps the cache contents — and hence
// every downstream arrival — independent of scheduling.
//
// Corners: constructed from a CornerModelSet, the engine propagates one
// arrival lane per active process corner through the same schedule. The
// primary (typical) lane evaluates first each level and records its
// converged region traces; fast/slow owners seed their Newton solves
// from the typical trace (cross-corner warm start), so extra corners
// ride along at a fraction of a cold re-run. Cache keys carry the
// corner, so lanes never share memoized results. The legacy
// single-ModelSet constructor wraps into a one-corner set and behaves
// bit-identically to the pre-corner engine.
#pragma once

#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "qwm/circuit/partition.h"
#include "qwm/core/eval_cache.h"
#include "qwm/core/stage_eval.h"
#include "qwm/core/workspace.h"
#include "qwm/device/model_set.h"
#include "qwm/support/counters.h"
#include "qwm/support/thread_pool.h"

namespace qwm::sta {

struct Arrival {
  double time = -std::numeric_limits<double>::infinity();  ///< 50% crossing [s]
  double slew = 0.0;          ///< 10-90 transition time [s]
  int from_stage = -1;        ///< driving stage (-1 = primary input)
  netlist::NetId from_net = -1;  ///< triggering input net
  /// This arrival (or any arrival upstream of it) was produced by the QWM
  /// fallback ladder rather than the nominal solve: within documented
  /// tolerance, but not nominal-accuracy. Sticky through propagation.
  bool degraded = false;
  bool valid() const { return time > -1e30; }
};

/// Rise/fall arrival pair of one net.
struct NetTiming {
  Arrival rise;
  Arrival fall;
};

/// Stage-graph scheduling policy for run().
///
/// `levels` — the classic topological-level schedule: every stage of a
/// level evaluates across the pool, then a barrier, then the next level.
/// `deps` — dependency-counting asynchronous schedule: each stage holds
/// an outstanding-predecessor counter and enqueues the moment its last
/// predecessor retires; no level barriers. Both produce bit-identical
/// arrivals (including corner lanes, memo-cache contents, and sticky
/// degraded flags) as long as the memo cache never evicts mid-run —
/// the deps mode serializes memo-twin stages on a per-class chain and
/// routes intra-level sharing through a per-run key table so every
/// record makes exactly the classification the frozen-cache level
/// schedule would have made. update() always uses the level schedule
/// (its dirty-cone walk is level-structured); a cyclic design falls
/// back to levels as well.
enum class Schedule { levels, deps };

struct StaOptions {
  double input_slew = 30e-12;  ///< default primary-input transition [s]
  core::QwmOptions qwm;
  /// Worker lanes for level evaluation. 1 = serial; <= 0 = one lane per
  /// hardware thread. Any value yields bit-identical results.
  int threads = 1;
  /// Memoize stage evaluations across identical (structure, slew, load)
  /// configurations.
  bool use_cache = true;
  core::EvalCacheOptions cache;
  Schedule schedule = Schedule::levels;
};

/// Scheduler work counters, cumulative since engine construction. The
/// deps-vs-levels observables: a deps-mode run never executes a level
/// barrier (barrier_syncs stays 0), and its ready-queue high-water mark
/// shows how much independent work the barrier-free schedule exposes.
struct ScheduleStats {
  std::size_t levels = 0;          ///< topological levels in the schedule
  std::size_t barrier_syncs = 0;   ///< level batches executed (levels mode)
  std::size_t tasks_enqueued = 0;  ///< stages pushed on the ready queue (deps)
  std::size_t ready_hwm = 0;       ///< ready-queue high-water mark (deps)
  std::size_t chain_edges = 0;     ///< memo-twin serialization edges (deps)
  /// Stages a worker lane took from another lane's ready shard because its
  /// own shard was empty (deps). Zero on single-lane runs; the
  /// load-imbalance observable on multi-lane runs.
  std::size_t steal_count = 0;
  /// Contended lock acquisitions during record classification (claim-table
  /// shard or cache mutex already held by another lane). The observable
  /// that classification left the global lock: under the old design every
  /// classification serialized; now only genuine same-shard collisions
  /// wait. Zero on single-lane runs.
  std::size_t classify_lock_waits = 0;
};

struct CriticalPathStep {
  netlist::NetId net = -1;
  bool rising = false;
  double arrival = 0.0;
  int stage = -1;  ///< stage that produced this arrival (-1 = primary)
};

class StaEngine {
 public:
  /// `models` is captured by value (it is a trio of non-owning pointers);
  /// the pointed-to device models and process must outlive the engine.
  StaEngine(circuit::PartitionedDesign design, device::ModelSet models,
            StaOptions options = {});

  /// Multi-corner form: one arrival lane per active corner of `models`
  /// (non-owning; typically a CornerLibrary's sets()). The first listed
  /// corner is the primary lane — the one every legacy single-corner
  /// query reads.
  StaEngine(circuit::PartitionedDesign design, device::CornerModelSet models,
            StaOptions options = {});

  /// Primary input arrivals default to t = 0 with the default slew; use
  /// this to override before run().
  void set_input_arrival(netlist::NetId net, double rise_time,
                         double fall_time, double slew = -1.0);

  /// Full analysis: evaluates every stage output (cache hits included in
  /// the count; subtract cache_stats().hits for the QWM-run count).
  /// Returns the number of stage evaluations performed.
  std::size_t run();

  /// Incremental: resizes a transistor edge inside a stage, marks the
  /// stage dirty, and invalidates its memo identity so stale cache
  /// entries cannot serve it. Call update() afterwards.
  void resize_transistor(int stage_index, circuit::EdgeId edge,
                         double new_width);

  /// Re-evaluates only dirty stages and the cone their arrival changes
  /// reach. Returns the number of stage evaluations performed (the
  /// incremental-speedup metric).
  std::size_t update();

  /// Arrival pair of a net. Miss path (unknown id, or a net no analysis
  /// reached): returns a stable reference to an invalid NetTiming — both
  /// arrivals have valid() == false — never inserts, never throws. The
  /// reference stays valid for the program's lifetime, so callers (e.g.
  /// the qwm_serve daemon answering a malformed ARRIVAL) may hold it
  /// across queries.
  ///
  /// Const query surface = {timing, has_timing, worst_arrival,
  /// critical_path, compute_slacks, worst_slack, design, cache_stats,
  /// cache_entries, thread_count}: all safe to call concurrently from
  /// any number of threads provided no mutating call (run, update,
  /// resize_transistor, set_input_arrival, clear_cache) runs at the same
  /// time — the reader side of the serving layer's reader–writer
  /// discipline.
  const NetTiming& timing(netlist::NetId net) const;
  /// Arrival pair of a net at a specific corner. Same miss-path contract
  /// as timing(net); an inactive corner is always the miss path.
  const NetTiming& timing(netlist::NetId net, device::Corner corner) const;
  /// True when `net` has a timing record (a primary input or an
  /// evaluated stage output), i.e. timing(net) is not the miss path.
  bool has_timing(netlist::NetId net) const;
  /// Active corners, primary lane first.
  const std::vector<device::Corner>& corners() const {
    return models_.corners;
  }
  bool multi_corner() const { return models_.multi(); }
  /// The design's worst arrival (over all stage output nets, both edges).
  double worst_arrival() const;
  /// Critical path from the worst endpoint back to a primary input.
  std::vector<CriticalPathStep> critical_path() const;
  /// Backtrace from a specific endpoint arrival instead of the global
  /// worst (the `CRITPATH <net> [R|F]` query). `rising` selects the edge.
  /// Empty when the arrival is invalid.
  std::vector<CriticalPathStep> critical_path(netlist::NetId endpoint,
                                              bool rising) const;

  /// Required-time / slack analysis against a target clock period.
  /// Endpoints (nets driving nothing) must settle by `period`; required
  /// times propagate backward through the stage graph using the same
  /// per-stage delays the forward pass computed. Negative slack = timing
  /// violation. Call after run()/update().
  struct Slack {
    double required = 0.0;
    double slack = 0.0;
    bool valid = false;
  };
  /// Worst (rise/fall) slack per net for the given period.
  std::unordered_map<netlist::NetId, Slack> compute_slacks(
      double period) const;
  /// The design's worst slack (most negative first).
  double worst_slack(double period) const;

  /// Min/max arrival envelope of a net across every active corner and
  /// both edges, checked against a clock-period constraint. Setup uses
  /// the latest arrival (slow corner's worst edge): the data must settle
  /// before the capturing clock at `period`. Hold uses the earliest
  /// arrival (fast corner's best edge): the data must not race through
  /// before `hold_time` after the launching clock. Negative slack =
  /// violation.
  struct SetupHold {
    bool valid = false;
    double latest = -std::numeric_limits<double>::infinity();
    double earliest = std::numeric_limits<double>::infinity();
    double setup_slack = 0.0;  ///< period - latest
    double hold_slack = 0.0;   ///< earliest - hold_time
    /// Any contributing arrival rode the fallback ladder.
    bool degraded = false;
  };
  SetupHold setup_hold(netlist::NetId net, double period,
                       double hold_time = 0.0) const;
  /// Worst setup/hold slack over all stage output nets.
  double worst_setup_slack(double period) const;
  double worst_hold_slack(double hold_time = 0.0) const;

  const circuit::PartitionedDesign& design() const { return design_; }
  const std::vector<std::string>& warnings() const { return warnings_; }

  /// Memo-cache activity since construction (or the last reset).
  support::CacheStats cache_stats() const { return cache_.stats(); }
  void reset_cache_stats() { cache_.reset_stats(); }
  /// Drops all memoized evaluations (statistics retained).
  void clear_cache() { cache_.clear(); }
  std::size_t cache_entries() const { return cache_.size(); }
  /// Resolved worker-lane count.
  int thread_count() const;

  /// Aggregate QWM work counters (Newton iterations, device evaluations,
  /// warm starts, ...) over every owner evaluation since construction or
  /// the last reset. Accumulated during the deterministic merge phase, so
  /// the totals are independent of thread count.
  const core::QwmStats& qwm_stats() const { return qwm_stats_; }
  /// Per-corner QWM work counters (the cross-corner warm-start and
  /// cache-isolation observables). An inactive corner reads all-zero.
  const core::QwmStats& qwm_stats(device::Corner corner) const;
  void reset_qwm_stats();
  /// Aggregate scratch-arena footprint over all worker-lane workspaces:
  /// bytes/high-water summed across lanes, grow events and evaluation
  /// counts totalled. A flat high-water mark across repeated runs is the
  /// observable proof the hot path has stopped allocating.
  core::WorkspaceStats workspace_stats() const;

  /// Scheduler work counters (see ScheduleStats). Levels-mode runs grow
  /// barrier_syncs; deps-mode runs grow the queue counters and leave
  /// barrier_syncs untouched.
  const ScheduleStats& schedule_stats() const { return sched_stats_; }

 private:
  /// One (output net, direction) evaluation inside a level batch.
  struct OutputRecord {
    enum class Kind {
      skip,      ///< no triggering arrival; result is the invalid Arrival
      hit,       ///< served from the frozen cache
      owner,     ///< evaluates QWM; result committed to the cache
      follower,  ///< duplicates an owner's key within the same level
    };
    int output_index = 0;
    bool rising = false;
    netlist::NetId net = -1;
    /// Active-corner lane this record evaluates (0 = primary).
    int corner_slot = 0;
    /// Non-primary lanes: flat index of the slot-0 sibling record for the
    /// same (output, edge) — the cross-corner warm-seed source.
    int primary_index = -1;
    /// Record the converged trace even when the record is not cacheable
    /// (primary lane of a multi-corner batch: the trace seeds siblings).
    bool keep_trace = false;
    int sw_input = -1;
    Arrival trigger;
    Kind kind = Kind::skip;
    bool cacheable = false;  ///< key is meaningful (cache on, no bypass)
    core::StageEvalKey key;
    /// follower: flat index of the owning record in the level batch.
    int owner_index = -1;
    core::CachedStageResult value;
    /// Owner only: near-miss warm seed picked during the serial classify
    /// phase (adjacent slew bucket of the frozen cache), if any.
    std::shared_ptr<const core::WarmTrace> warm;
    /// Region-length scale for `warm` (QwmOptions::warm_scale). 1.0 for
    /// same-corner near-miss seeds; the drive-strength ratio when a
    /// sibling lane replays the typical lane's trace.
    double warm_scale = 1.0;
    /// Owner only: QWM work counters from the evaluation.
    core::QwmStats stats;
    /// Owner only: the stimulus for the QWM evaluation.
    std::vector<numeric::PwlWaveform> inputs;
  };
  struct StageTask {
    int stage = -1;
    std::vector<OutputRecord> records;
  };

  /// Evaluates a batch of mutually independent stages: classify against
  /// the frozen cache, run owners across the pool, merge in stage order.
  /// Returns per-task "any arrival changed" flags.
  std::vector<char> evaluate_level(const std::vector<int>& stages);
  /// Fills trigger selection + cache classification for one record.
  void prepare_record(int stage_index, OutputRecord* rec);
  /// Runs QWM for an owner record (worker-thread safe: touches only the
  /// record, its lane's workspace, the immutable design and the models).
  void evaluate_owner(int stage_index, OutputRecord* rec,
                      core::EvalWorkspace& ws) const;
  /// Applies a record's result to the timing map; true if it changed.
  bool apply_record(int stage_index, const OutputRecord& rec);
  /// Full analysis under the dependency-counting schedule (sta_deps.cpp).
  /// Precondition: !cyclic_. Bit-identical to the level schedule.
  std::size_t run_deps();

  /// Memo identity of a stage: structural hash + quantized load
  /// signature, computed lazily and invalidated by resize_transistor.
  std::uint64_t stage_key(int stage_index);
  void build_schedule();
  /// Slot-indexed timing lookup with the shared miss path.
  const NetTiming& timing_in(std::size_t slot, netlist::NetId net) const;

  circuit::PartitionedDesign design_;
  device::CornerModelSet models_;
  StaOptions opt_;
  /// One arrival map per active corner; slot 0 is the primary lane and
  /// the surface every single-corner query reads.
  std::vector<std::unordered_map<netlist::NetId, NetTiming>> timing_;
  std::vector<char> dirty_;
  std::vector<std::string> warnings_;
  std::size_t evals_ = 0;

  /// Topological levels; within a level stages are mutually independent.
  std::vector<std::vector<int>> levels_;
  /// Topological level of each stage (-1 for cyclic stages). The deps
  /// scheduler's per-run key table stores the claiming stage's level so
  /// classification can distinguish "same level — share the in-flight
  /// result" from "earlier level — the frozen cache would have served it".
  std::vector<int> level_of_;
  /// Stage adjacency: consumers_[a] = stages reading an output net of a.
  std::vector<std::vector<int>> consumers_;
  bool cyclic_ = false;
  ScheduleStats sched_stats_;

  core::StageEvalCache cache_;
  std::vector<std::optional<std::uint64_t>> stage_keys_;
  std::unique_ptr<support::ThreadPool> pool_;
  /// One scratch arena per worker lane (index = lane id); sized lazily
  /// before the first parallel dispatch and never reallocated during one.
  std::vector<core::EvalWorkspace> lane_ws_;
  core::QwmStats qwm_stats_;
  /// Per-active-corner-slot split of qwm_stats_.
  std::vector<core::QwmStats> qwm_stats_slot_;
  /// Per-slot warm_scale for replaying the typical lane's trace on that
  /// slot's corner (device::warm_time_scale; slot 0 is always 1.0).
  std::vector<double> corner_warm_scale_;
};

}  // namespace qwm::sta
