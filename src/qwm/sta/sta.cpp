#include "qwm/sta/sta.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>
#include <set>

#include "qwm/circuit/stage_hash.h"
#include "qwm/support/fault_injection.h"

namespace qwm::sta {

namespace {
constexpr double kTimeTol = 1e-14;  ///< arrival-change tolerance [s]

/// Ramp waveform with its 50% crossing at `t50` and 10-90 transition
/// `slew` (converted to the full 0-100 ramp duration).
numeric::PwlWaveform make_ramp(double t50, double slew, double vdd,
                               bool rising) {
  const double dur = std::max(slew / 0.8, 1e-13);
  const double t0 = std::max(t50 - 0.5 * dur, 0.0);
  if (rising) return numeric::PwlWaveform::ramp(t0, dur, 0.0, vdd);
  return numeric::PwlWaveform::ramp(t0, dur, vdd, 0.0);
}

/// True when make_ramp would clamp the ramp start at t = 0, breaking the
/// time-translation invariance the memo cache relies on.
bool ramp_clamped(double t50, double slew) {
  const double dur = std::max(slew / 0.8, 1e-13);
  return t50 < 0.5 * dur;
}

// The miss path: one immutable invalid record shared by every engine.
// Returning it (rather than inserting, or indexing blindly) keeps
// timing() const, allocation-free, and safe for unknown ids.
const NetTiming kInvalidTiming{};

}  // namespace

StaEngine::StaEngine(circuit::PartitionedDesign design,
                     device::ModelSet models, StaOptions options)
    : StaEngine(std::move(design), device::CornerModelSet::single(models),
                options) {}

StaEngine::StaEngine(circuit::PartitionedDesign design,
                     device::CornerModelSet models, StaOptions options)
    : design_(std::move(design)),
      models_(std::move(models)),
      opt_(options),
      cache_(options.cache) {
  timing_.resize(models_.count());
  qwm_stats_slot_.assign(models_.count(), core::QwmStats{});
  corner_warm_scale_.assign(models_.count(), 1.0);
  for (std::size_t s = 1; s < models_.corners.size(); ++s)
    corner_warm_scale_[s] = device::warm_time_scale(
        models_.primary(), models_.at(models_.corners[s]));
  dirty_.assign(design_.stages.size(), 1);
  stage_keys_.assign(design_.stages.size(), std::nullopt);
  build_schedule();
  // Default primary-input arrivals: t = 0 on both edges.
  for (netlist::NetId n : design_.primary_inputs)
    set_input_arrival(n, 0.0, 0.0);
}

void StaEngine::set_input_arrival(netlist::NetId net, double rise_time,
                                  double fall_time, double slew) {
  const double s = slew > 0.0 ? slew : opt_.input_slew;
  NetTiming t;
  t.rise.time = rise_time;
  t.rise.slew = s;
  t.fall.time = fall_time;
  t.fall.slew = s;
  // Primary inputs arrive at the same instant at every corner; corners
  // diverge only through stage delays.
  for (auto& lane : timing_) lane[net] = t;
}

const NetTiming& StaEngine::timing_in(std::size_t slot,
                                      netlist::NetId net) const {
  const auto& lane = timing_[slot];
  const auto it = lane.find(net);
  return it == lane.end() ? kInvalidTiming : it->second;
}

const NetTiming& StaEngine::timing(netlist::NetId net) const {
  return timing_in(0, net);
}

const NetTiming& StaEngine::timing(netlist::NetId net,
                                   device::Corner corner) const {
  const int slot = models_.slot_of(corner);
  if (slot < 0) return kInvalidTiming;
  return timing_in(static_cast<std::size_t>(slot), net);
}

bool StaEngine::has_timing(netlist::NetId net) const {
  return timing_[0].find(net) != timing_[0].end();
}

const core::QwmStats& StaEngine::qwm_stats(device::Corner corner) const {
  static const core::QwmStats kZero{};
  const int slot = models_.slot_of(corner);
  return slot < 0 ? kZero : qwm_stats_slot_[static_cast<std::size_t>(slot)];
}

void StaEngine::reset_qwm_stats() {
  qwm_stats_ = core::QwmStats{};
  qwm_stats_slot_.assign(models_.count(), core::QwmStats{});
}

int StaEngine::thread_count() const {
  return support::ThreadPool::resolve_threads(opt_.threads);
}

core::WorkspaceStats StaEngine::workspace_stats() const {
  core::WorkspaceStats total;
  for (const core::EvalWorkspace& ws : lane_ws_) {
    const core::WorkspaceStats s = ws.stats();
    total.bytes += s.bytes;
    total.high_water_bytes += s.high_water_bytes;
    total.grow_events += s.grow_events;
    total.evals += s.evals;
  }
  return total;
}

void StaEngine::build_schedule() {
  const int n = static_cast<int>(design_.stages.size());
  // Edges: stage A -> stage B when an output net of A is an input net of B.
  consumers_.assign(n, {});
  std::vector<int> indeg(n, 0);
  for (int b = 0; b < n; ++b) {
    for (netlist::NetId in : design_.stages[b].input_nets) {
      const auto it = design_.driver_of.find(in);
      if (it == design_.driver_of.end()) continue;
      const int a = it->second.first;
      if (a == b) continue;
      consumers_[a].push_back(b);
      ++indeg[b];
    }
  }
  // Kahn peeling by waves: wave k holds the stages whose longest
  // predecessor chain has length k, which makes every wave an
  // independent, parallel-evaluable level.
  levels_.clear();
  level_of_.assign(n, -1);
  std::vector<int> frontier;
  for (int i = 0; i < n; ++i)
    if (indeg[i] == 0) frontier.push_back(i);
  std::size_t placed = 0;
  while (!frontier.empty()) {
    std::sort(frontier.begin(), frontier.end());
    placed += frontier.size();
    for (int s : frontier) level_of_[s] = static_cast<int>(levels_.size());
    std::vector<int> next;
    for (int a : frontier)
      for (int b : consumers_[a])
        if (--indeg[b] == 0) next.push_back(b);
    levels_.push_back(std::move(frontier));
    frontier = std::move(next);
  }
  cyclic_ = placed != static_cast<std::size_t>(n);  // cyclic stages absent
  sched_stats_.levels = levels_.size();
}

std::uint64_t StaEngine::stage_key(int stage_index) {
  auto& slot = stage_keys_[stage_index];
  if (!slot) {
    const circuit::LogicStage& stage = design_.stages[stage_index].stage;
    slot = circuit::hash_combine(
        circuit::structural_hash(stage),
        circuit::load_signature(stage, opt_.cache.load_quantum));
  }
  return *slot;
}

void StaEngine::prepare_record(int stage_index, OutputRecord* rec) {
  const circuit::StageInfo& info = design_.stages[stage_index];
  // Output rising = charge event, triggered by a falling input; output
  // falling = discharge, triggered by a rising input (inverting stage
  // worst case).
  const bool trigger_rising = !rec->rising;

  // Pick the latest-arriving triggering input from this record's own
  // corner lane — each corner selects (and may differ in) its worst arc.
  rec->sw_input = -1;
  for (std::size_t i = 0; i < info.input_nets.size(); ++i) {
    const NetTiming& t = timing_in(static_cast<std::size_t>(rec->corner_slot),
                                   info.input_nets[i]);
    const Arrival& a = trigger_rising ? t.rise : t.fall;
    if (!a.valid()) continue;
    if (rec->sw_input < 0 || a.time > rec->trigger.time) {
      rec->sw_input = static_cast<int>(i);
      rec->trigger = a;
    }
  }
  rec->kind = OutputRecord::Kind::skip;
  rec->cacheable = false;
  if (rec->sw_input < 0) return;  // no triggering arrival known

  rec->kind = OutputRecord::Kind::owner;  // may be downgraded to hit/follower
  if (!opt_.use_cache) return;
  // Very late triggers approach the QWM give-up horizon, where the
  // transient can be truncated and the delay stops being translation
  // invariant; evaluate those outside the cache.
  if (rec->trigger.time > 0.25 * opt_.qwm.t_max) return;

  rec->cacheable = true;
  rec->key.stage = stage_key(stage_index);
  rec->key.output_index = rec->output_index;
  rec->key.switching_input = rec->sw_input;
  rec->key.rising = rec->rising;
  rec->key.corner =
      static_cast<std::int8_t>(models_.corners[rec->corner_slot]);
  rec->key.slew_bucket = cache_.slew_bucket(rec->trigger.slew);
  rec->key.clamped = ramp_clamped(rec->trigger.time, rec->trigger.slew);
  rec->key.time_bucket =
      rec->key.clamped ? cache_.time_bucket(rec->trigger.time) : 0;
}

void StaEngine::evaluate_owner(int stage_index, OutputRecord* rec,
                               core::EvalWorkspace& ws) const {
  const circuit::StageInfo& info = design_.stages[stage_index];
  const circuit::LogicStage& stage = info.stage;
  const circuit::NodeId out_node = stage.outputs()[rec->output_index];
  const bool output_falls = !rec->rising;
  const bool trigger_rising = output_falls;

  const device::ModelSet& models =
      models_.at(models_.corners[rec->corner_slot]);

  // Input waveforms: the trigger ramps; every other input sits at its
  // non-controlling level for the event.
  const double vdd = models.vdd();
  std::vector<numeric::PwlWaveform> inputs;
  inputs.reserve(info.input_nets.size());
  for (std::size_t i = 0; i < info.input_nets.size(); ++i) {
    if (static_cast<int>(i) == rec->sw_input)
      inputs.push_back(make_ramp(rec->trigger.time, rec->trigger.slew, vdd,
                                 trigger_rising));
    else
      inputs.push_back(
          numeric::PwlWaveform::constant(output_falls ? vdd : 0.0));
  }

  // Cacheable owners record their converged region trace (for later
  // near-miss warm starts) and replay a near-miss seed when the classify
  // phase found one. Both decisions were made serially against the frozen
  // cache, so the evaluation — and its result — is scheduling-independent.
  core::QwmOptions qopt = opt_.qwm;
  if ((rec->cacheable && cache_.options().max_trace_values > 0) ||
      rec->keep_trace)
    qopt.record_trace = true;
  if (rec->warm != nullptr) {
    qopt.warm = rec->warm.get();
    qopt.warm_scale = rec->warm_scale;
  }

  core::StageTiming st = core::evaluate_stage(
      stage, out_node, output_falls, inputs, rec->sw_input, models, qopt, ws);
  rec->stats = st.qwm.stats;
  rec->value = core::CachedStageResult{};
  rec->value.degraded = st.qwm.degraded;
  // Memo bypass: a result produced by the fallback ladder — or a failure
  // observed while a fault plan is armed — must never be served later as
  // a nominal cached hit. Followers of this record still copy its value
  // (deterministic intra-level sharing), but nothing is committed.
  if (st.qwm.degraded || (!st.ok && support::fault_plan_armed()))
    rec->cacheable = false;
  if (!st.ok || !st.delay) return;  // memoized as a failed evaluation
  rec->value.ok = true;
  rec->value.delay = *st.delay;
  rec->value.slew = st.output_slew.value_or(opt_.input_slew);
  // Traces kept for cross-corner seeding (keep_trace) skip the cache's
  // retention cap — they live only for this level batch; the merge phase
  // strips anything over the cap before a cache insert.
  const std::size_t trace_values = st.qwm.trace.value_count();
  if (qopt.record_trace && !st.qwm.degraded && trace_values > 0 &&
      (rec->keep_trace ||
       trace_values <= cache_.options().max_trace_values))
    rec->value.trace =
        std::make_shared<const core::WarmTrace>(std::move(st.qwm.trace));
}

bool StaEngine::apply_record(int stage_index, const OutputRecord& rec) {
  Arrival a;
  if (rec.kind != OutputRecord::Kind::skip && rec.value.ok) {
    const circuit::StageInfo& info = design_.stages[stage_index];
    a.time = rec.trigger.time + rec.value.delay;
    a.slew = rec.value.slew;
    a.from_stage = stage_index;
    a.from_net = info.input_nets[rec.sw_input];
    // Degradation is sticky: an arrival computed from a degraded trigger
    // is itself built on fallback data.
    a.degraded = rec.value.degraded || rec.trigger.degraded;
  }
  NetTiming& t = timing_[static_cast<std::size_t>(rec.corner_slot)][rec.net];
  Arrival& slot = rec.rising ? t.rise : t.fall;
  if (a.valid() &&
      (!slot.valid() || std::abs(a.time - slot.time) > kTimeTol ||
       std::abs(a.slew - slot.slew) > kTimeTol ||
       slot.degraded != a.degraded)) {
    slot = a;
    return true;
  }
  if (!a.valid() && slot.valid() && slot.from_stage >= 0) {
    slot = Arrival{};
    return true;
  }
  return false;
}

std::vector<char> StaEngine::evaluate_level(const std::vector<int>& stages) {
  // Every batch ends in an implicit barrier (the merge below runs only
  // after all owners finished) — the wait the deps scheduler eliminates.
  ++sched_stats_.barrier_syncs;
  // Phase 1 (serial): trigger selection + classification against the
  // cache state frozen at level entry. Records that duplicate an earlier
  // record's key within this same level become followers of the first
  // occurrence — the level's intra-batch sharing — so the outcome is a
  // pure function of the batch, never of thread scheduling.
  std::vector<StageTask> tasks;
  tasks.reserve(stages.size());
  struct FlatRef {
    int task;
    int record;
  };
  std::vector<FlatRef> flat;
  std::unordered_map<core::StageEvalKey, int, core::StageEvalKeyHash>
      first_owner;
  std::vector<int> owners;  // flat indices that must run QWM
  const std::size_t corner_count = models_.count();
  for (int s : stages) {
    StageTask task;
    task.stage = s;
    const circuit::StageInfo& info = design_.stages[s];
    for (std::size_t oi = 0; oi < info.output_nets.size(); ++oi) {
      for (const bool rising : {true, false}) {
        // One record per active corner lane; the primary (slot 0) comes
        // first and its flat index is remembered so sibling lanes can
        // pick up its converged trace as a warm seed after phase 2a.
        int primary_flat = -1;
        for (std::size_t cs = 0; cs < corner_count; ++cs) {
          OutputRecord rec;
          rec.output_index = static_cast<int>(oi);
          rec.rising = rising;
          rec.net = info.output_nets[oi];
          rec.corner_slot = static_cast<int>(cs);
          if (cs == 0)
            rec.keep_trace = corner_count > 1;
          else
            rec.primary_index = primary_flat;
          prepare_record(s, &rec);
          const int flat_index = static_cast<int>(flat.size());
          if (cs == 0) primary_flat = flat_index;
          if (rec.kind == OutputRecord::Kind::owner && rec.cacheable) {
            if (const auto cached = cache_.peek(rec.key)) {
              rec.kind = OutputRecord::Kind::hit;
              rec.value = *cached;
            } else {
              const auto [it, inserted] =
                  first_owner.try_emplace(rec.key, flat_index);
              if (!inserted) {
                rec.kind = OutputRecord::Kind::follower;
                rec.owner_index = it->second;
              } else if (cache_.options().max_trace_values > 0) {
                // Near-miss warm probe: a resident entry in an adjacent
                // slew bucket carries a converged trace from an almost
                // identical evaluation — seed the owner's Newton solves
                // from it. Fixed probe order keeps the choice (and thus
                // the result) deterministic. Keys carry the corner, so a
                // lane only ever replays its own corner's traces here.
                core::StageEvalKey near = rec.key;
                for (const int d : {-1, 1}) {
                  near.slew_bucket = rec.key.slew_bucket + d;
                  const auto c = cache_.peek(near);
                  if (c && c->ok && c->trace != nullptr) {
                    rec.warm = c->trace;
                    break;
                  }
                }
              }
            }
          }
          if (rec.kind == OutputRecord::Kind::owner)
            owners.push_back(flat_index);
          task.records.push_back(std::move(rec));
          flat.push_back({static_cast<int>(tasks.size()),
                          static_cast<int>(task.records.size()) - 1});
        }
      }
    }
    tasks.push_back(std::move(task));
  }

  // Phase 2 (parallel): run the distinct QWM evaluations across the
  // worker lanes. Each lane touches only its own record plus immutable
  // design/model state; indices are handed out through the pool's shared
  // cursor so uneven region counts load-balance.
  // Each lane reuses its own scratch arena across owners and levels.
  //
  // Multi-corner batches dispatch in two waves: the primary-lane owners
  // first (2a), then — after serially seeding each sibling owner with its
  // primary record's converged trace — the remaining corners (2b). The
  // seeding decisions depend only on the frozen cache and the primary
  // results, which are themselves scheduling-independent, so determinism
  // is preserved. Single-corner batches reduce to one wave, bit-identical
  // to the pre-corner engine.
  const int lanes = thread_count();
  if (!owners.empty() && static_cast<int>(lane_ws_.size()) < lanes)
    lane_ws_.resize(static_cast<std::size_t>(lanes));
  const auto record_at = [&](int fi) -> OutputRecord& {
    const FlatRef ref = flat[fi];
    return tasks[ref.task].records[ref.record];
  };
  const auto run_owner_set = [&](const std::vector<int>& set) {
    const auto run_owner = [&](std::size_t j, int lane) {
      const FlatRef ref = flat[set[j]];
      evaluate_owner(tasks[ref.task].stage,
                     &tasks[ref.task].records[ref.record],
                     lane_ws_[static_cast<std::size_t>(lane)]);
    };
    if (lanes > 1 && set.size() > 1) {
      if (!pool_)
        pool_ = std::make_unique<support::ThreadPool>(opt_.threads);
      pool_->parallel_for_lanes(set.size(), run_owner);
    } else {
      for (std::size_t j = 0; j < set.size(); ++j) run_owner(j, 0);
    }
  };
  std::vector<int> lead_owners, lag_owners;
  for (const int fi : owners)
    (record_at(fi).corner_slot == 0 ? lead_owners : lag_owners).push_back(fi);
  run_owner_set(lead_owners);
  if (!lag_owners.empty()) {
    for (const int fi : lag_owners) {
      OutputRecord& rec = record_at(fi);
      if (rec.warm || rec.primary_index < 0) continue;
      // Chase through a follower primary to the record that actually ran.
      const OutputRecord* prim = &record_at(rec.primary_index);
      if (prim->kind == OutputRecord::Kind::follower &&
          prim->owner_index >= 0)
        prim = &record_at(prim->owner_index);
      if (prim->value.ok && !prim->value.degraded && prim->value.trace) {
        rec.warm = prim->value.trace;
        // Typical's region lengths replayed on this corner's time scale.
        rec.warm_scale = corner_warm_scale_[rec.corner_slot];
      }
    }
    run_owner_set(lag_owners);
  }

  // Phase 3 (serial merge, ascending stage order): resolve followers,
  // commit new entries, count, and apply arrivals. Identical regardless
  // of how phase 2 was scheduled.
  std::vector<char> changed(tasks.size(), 0);
  for (std::size_t ti = 0; ti < tasks.size(); ++ti) {
    StageTask& task = tasks[ti];
    for (OutputRecord& rec : task.records) {
      if (rec.sw_input >= 0) ++evals_;
      switch (rec.kind) {
        case OutputRecord::Kind::skip:
          break;
        case OutputRecord::Kind::hit:
          cache_.note_hit();
          break;
        case OutputRecord::Kind::follower: {
          cache_.note_hit();
          const FlatRef ref = flat[rec.owner_index];
          rec.value = tasks[ref.task].records[ref.record].value;
          break;
        }
        case OutputRecord::Kind::owner:
          qwm_stats_ += rec.stats;
          qwm_stats_slot_[static_cast<std::size_t>(rec.corner_slot)] +=
              rec.stats;
          if (rec.cacheable) {
            cache_.note_miss();
            // keep_trace may have retained a trace past the cache's
            // retention policy (it existed to seed sibling corners);
            // strip it before committing.
            const std::size_t cap = cache_.options().max_trace_values;
            if (rec.value.trace != nullptr &&
                (cap == 0 || rec.value.trace->value_count() > cap)) {
              core::CachedStageResult v = rec.value;
              v.trace = nullptr;
              cache_.insert(rec.key, v);
            } else {
              cache_.insert(rec.key, rec.value);
            }
          }
          break;
      }
      if (apply_record(task.stage, rec)) changed[ti] = 1;
    }
  }
  return changed;
}

std::size_t StaEngine::run() {
  if (cyclic_)
    warnings_.push_back("combinational cycle detected; cyclic stages skipped");
  // The deps schedule needs the complete acyclic graph; a cyclic design
  // falls back to the level schedule (which skips the cyclic stages).
  if (opt_.schedule == Schedule::deps && !cyclic_) return run_deps();
  const std::size_t before = evals_;
  for (const auto& level : levels_) {
    evaluate_level(level);
    for (int s : level) dirty_[s] = 0;
  }
  return evals_ - before;
}

void StaEngine::resize_transistor(int stage_index, circuit::EdgeId edge,
                                  double new_width) {
  circuit::Edge& e = design_.stages[stage_index].stage.edge_mut(edge);
  assert(e.kind != circuit::DeviceKind::wire);
  e.w = new_width;
  dirty_[stage_index] = 1;
  // The stage's memo identity changed with its geometry: recompute the
  // structural hash lazily. Entries under the old hash stay valid for any
  // surviving twin stages and age out by eviction otherwise.
  stage_keys_[stage_index].reset();
}

std::size_t StaEngine::update() {
  const std::size_t before = evals_;
  // Propagate level by level: a dirty stage re-evaluates; if its outputs
  // moved, every consumer becomes dirty too (consumers always live in
  // later levels).
  std::vector<char> dirty = dirty_;
  for (const auto& level : levels_) {
    std::vector<int> todo;
    for (int s : level)
      if (dirty[s]) todo.push_back(s);
    if (todo.empty()) continue;
    const std::vector<char> changed = evaluate_level(todo);
    for (std::size_t i = 0; i < todo.size(); ++i) {
      dirty_[todo[i]] = 0;
      if (changed[i])
        for (int b : consumers_[todo[i]]) dirty[b] = 1;
    }
  }
  return evals_ - before;
}

std::unordered_map<netlist::NetId, StaEngine::Slack> StaEngine::compute_slacks(
    double period) const {
  // Required times propagate backward along the recorded worst arcs (the
  // from_net chain of each arrival): critical-cone slack. Endpoints are
  // nets that feed no further stage.
  std::set<netlist::NetId> consumed;
  for (const auto& info : design_.stages)
    for (netlist::NetId n : info.input_nets) consumed.insert(n);

  struct Entry {
    netlist::NetId net;
    bool rising;
    const Arrival* arr;
  };
  std::vector<Entry> entries;
  // Slack analysis runs on the primary lane; multi-corner constraint
  // checks go through setup_hold()'s min/max envelope instead.
  for (const auto& [net, t] : timing_[0]) {
    if (t.rise.valid()) entries.push_back({net, true, &t.rise});
    if (t.fall.valid()) entries.push_back({net, false, &t.fall});
  }
  // Backward pass: visit later arrivals first so required times are final
  // before they propagate upstream (from.arrival < net.arrival always).
  std::sort(entries.begin(), entries.end(),
            [](const Entry& a, const Entry& b) {
              return a.arr->time > b.arr->time;
            });

  const double kInf = std::numeric_limits<double>::infinity();
  std::unordered_map<netlist::NetId, std::pair<double, double>> required;
  const auto req_of = [&](netlist::NetId n) -> std::pair<double, double>& {
    auto [it, inserted] = required.try_emplace(n, kInf, kInf);
    (void)inserted;
    return it->second;
  };
  for (const auto& e : entries) {
    auto& r = req_of(e.net);
    double& mine = e.rising ? r.first : r.second;
    if (!consumed.count(e.net) && e.arr->from_stage >= 0)
      mine = std::min(mine, period);  // an endpoint
    if (e.arr->from_stage < 0 || e.arr->from_net < 0) continue;
    if (mine == kInf) continue;  // not on any constrained cone
    // Arc delay = this arrival minus the triggering (opposite-edge)
    // arrival of the input net.
    const NetTiming& ft = timing(e.arr->from_net);
    const Arrival& fa = e.rising ? ft.fall : ft.rise;  // inverting stage
    if (!fa.valid()) continue;
    const double arc = e.arr->time - fa.time;
    auto& fr = req_of(e.arr->from_net);
    double& theirs = e.rising ? fr.second : fr.first;
    theirs = std::min(theirs, mine - arc);
  }

  std::unordered_map<netlist::NetId, Slack> out;
  for (const auto& [net, t] : timing_[0]) {
    const auto it = required.find(net);
    if (it == required.end()) continue;
    Slack s;
    if (t.rise.valid() && it->second.first < kInf) {
      s.required = it->second.first;
      s.slack = it->second.first - t.rise.time;
      s.valid = true;
    }
    if (t.fall.valid() && it->second.second < kInf) {
      const double sl = it->second.second - t.fall.time;
      if (!s.valid || sl < s.slack) {
        s.required = it->second.second;
        s.slack = sl;
        s.valid = true;
      }
    }
    if (s.valid) out[net] = s;
  }
  return out;
}

double StaEngine::worst_slack(double period) const {
  double worst = std::numeric_limits<double>::infinity();
  for (const auto& [net, s] : compute_slacks(period)) {
    (void)net;
    if (s.valid) worst = std::min(worst, s.slack);
  }
  return worst;
}

StaEngine::SetupHold StaEngine::setup_hold(netlist::NetId net, double period,
                                           double hold_time) const {
  SetupHold sh;
  for (std::size_t slot = 0; slot < timing_.size(); ++slot) {
    const NetTiming& t = timing_in(slot, net);
    for (const Arrival* a : {&t.rise, &t.fall}) {
      if (!a->valid()) continue;
      sh.valid = true;
      sh.latest = std::max(sh.latest, a->time);
      sh.earliest = std::min(sh.earliest, a->time);
      sh.degraded = sh.degraded || a->degraded;
    }
  }
  if (sh.valid) {
    sh.setup_slack = period - sh.latest;
    sh.hold_slack = sh.earliest - hold_time;
  }
  return sh;
}

double StaEngine::worst_setup_slack(double period) const {
  double worst = std::numeric_limits<double>::infinity();
  for (const auto& info : design_.stages) {
    for (netlist::NetId n : info.output_nets) {
      const SetupHold sh = setup_hold(n, period);
      if (sh.valid) worst = std::min(worst, sh.setup_slack);
    }
  }
  return worst;
}

double StaEngine::worst_hold_slack(double hold_time) const {
  double worst = std::numeric_limits<double>::infinity();
  for (const auto& info : design_.stages) {
    for (netlist::NetId n : info.output_nets) {
      const SetupHold sh = setup_hold(n, 0.0, hold_time);
      if (sh.valid) worst = std::min(worst, sh.hold_slack);
    }
  }
  return worst;
}

double StaEngine::worst_arrival() const {
  double worst = 0.0;
  for (const auto& info : design_.stages) {
    for (netlist::NetId n : info.output_nets) {
      const NetTiming& t = timing(n);
      if (t.rise.valid()) worst = std::max(worst, t.rise.time);
      if (t.fall.valid()) worst = std::max(worst, t.fall.time);
    }
  }
  return worst;
}

std::vector<CriticalPathStep> StaEngine::critical_path() const {
  // Find the worst endpoint.
  netlist::NetId net = -1;
  bool rising = false;
  double worst = -1.0;
  for (const auto& info : design_.stages) {
    for (netlist::NetId n : info.output_nets) {
      const NetTiming& t = timing(n);
      if (t.rise.valid() && t.rise.time > worst) {
        worst = t.rise.time;
        net = n;
        rising = true;
      }
      if (t.fall.valid() && t.fall.time > worst) {
        worst = t.fall.time;
        net = n;
        rising = false;
      }
    }
  }
  return critical_path(net, rising);
}

std::vector<CriticalPathStep> StaEngine::critical_path(netlist::NetId endpoint,
                                                       bool rising) const {
  std::vector<CriticalPathStep> path;
  netlist::NetId net = endpoint;
  int guard = 0;
  while (net >= 0 && guard++ < 1000) {
    const NetTiming& t = timing(net);
    const Arrival& a = rising ? t.rise : t.fall;
    if (!a.valid()) break;
    path.push_back(CriticalPathStep{net, rising, a.time, a.from_stage});
    if (a.from_stage < 0) break;  // reached a primary input
    net = a.from_net;
    rising = !rising;  // inverting-stage worst-case model
  }
  std::reverse(path.begin(), path.end());
  return path;
}

}  // namespace qwm::sta
