#include "qwm/support/fault_injection.h"

#include <cstdlib>

namespace qwm::support {
namespace {

// Per-site counters. `occurrences` orders rule-schedule decisions, so it
// is advanced with a fetch_add; `fired` is observability only.
std::atomic<std::uint64_t> g_occurrences[kFaultSiteCount] = {};
std::atomic<std::uint64_t> g_fired[kFaultSiteCount] = {};

thread_local int t_rung = 0;

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace

namespace detail {

std::atomic<const FaultPlan*> g_fault_plan{nullptr};

bool fire_fault_slow(FaultSite site, double* magnitude) {
  const FaultPlan* plan = g_fault_plan.load(std::memory_order_acquire);
  if (plan == nullptr) return false;

  const int s = static_cast<int>(site);
  const std::uint64_t occ =
      g_occurrences[s].fetch_add(1, std::memory_order_relaxed);
  for (const FaultRule& rule : plan->rules) {
    if (rule.site != site) continue;
    if (t_rung > rule.max_rung) continue;
    if (occ < rule.start) continue;
    if (rule.one_in != 0) {
      const std::uint64_t h = splitmix64(
          plan->seed ^ (static_cast<std::uint64_t>(s) << 56) ^ occ);
      if (h % rule.one_in != 0) continue;
    } else if (rule.period > 1 && (occ - rule.start) % rule.period != 0) {
      continue;
    }
    const std::uint64_t n = g_fired[s].fetch_add(1, std::memory_order_relaxed);
    if (n >= rule.count) {
      // Over budget: undo the fired increment so counters stay meaningful.
      g_fired[s].fetch_sub(1, std::memory_order_relaxed);
      continue;
    }
    if (magnitude != nullptr) *magnitude = rule.magnitude;
    return true;
  }
  return false;
}

}  // namespace detail

const char* fault_site_name(FaultSite site) {
  switch (site) {
    case FaultSite::kNewtonStall: return "newton_stall";
    case FaultSite::kSingularPivot: return "singular_pivot";
    case FaultSite::kSmDenominator: return "sm_denominator";
    case FaultSite::kBisectionFail: return "bisection_fail";
    case FaultSite::kWorkspaceGrow: return "workspace_grow";
    case FaultSite::kMalformedFrame: return "malformed_frame";
    case FaultSite::kSlowRequest: return "slow_request";
    case FaultSite::kFailRequest: return "fail_request";
  }
  return "unknown";
}

bool fault_site_from_name(const std::string& name, FaultSite* site) {
  for (int i = 0; i < kFaultSiteCount; ++i) {
    const FaultSite s = static_cast<FaultSite>(i);
    if (name == fault_site_name(s)) {
      *site = s;
      return true;
    }
  }
  return false;
}

bool parse_fault_plan(const std::string& spec, FaultPlan* plan,
                      std::string* error) {
  const auto fail = [&](const std::string& msg) {
    if (error != nullptr) *error = msg;
    return false;
  };
  const auto split = [](const std::string& s, char sep) {
    std::vector<std::string> parts;
    std::size_t begin = 0;
    for (;;) {
      const std::size_t end = s.find(sep, begin);
      parts.push_back(s.substr(begin, end == std::string::npos
                                          ? std::string::npos
                                          : end - begin));
      if (end == std::string::npos) return parts;
      begin = end + 1;
    }
  };
  for (const std::string& entry : split(spec, ',')) {
    if (entry.empty()) continue;
    if (entry.rfind("seed=", 0) == 0) {
      plan->seed = std::strtoull(entry.c_str() + 5, nullptr, 10);
      continue;
    }
    const std::vector<std::string> fields = split(entry, ':');
    FaultRule rule;
    if (!fault_site_from_name(fields[0], &rule.site))
      return fail("unknown fault site: " + fields[0]);
    for (std::size_t i = 1; i < fields.size(); ++i) {
      const std::size_t eq = fields[i].find('=');
      if (eq == std::string::npos)
        return fail("bad fault-rule field (want key=value): " + fields[i]);
      const std::string key = fields[i].substr(0, eq);
      const std::string value = fields[i].substr(eq + 1);
      char* end = nullptr;
      const double v = std::strtod(value.c_str(), &end);
      if (end == value.c_str() || *end != '\0' || v < 0.0)
        return fail("bad fault-rule value: " + fields[i]);
      if (key == "start") rule.start = static_cast<std::uint64_t>(v);
      else if (key == "period") rule.period = static_cast<std::uint64_t>(v);
      else if (key == "count") rule.count = static_cast<std::uint64_t>(v);
      else if (key == "one_in") rule.one_in = static_cast<std::uint32_t>(v);
      else if (key == "max_rung") rule.max_rung = static_cast<int>(v);
      else if (key == "magnitude") rule.magnitude = v;
      else return fail("unknown fault-rule key: " + key);
    }
    if (rule.period == 0) return fail("fault-rule period must be >= 1");
    plan->add(rule);
  }
  if (plan->empty()) return fail("fault spec names no rules: " + spec);
  return true;
}

const FaultPlan* arm_fault_plan(const FaultPlan* plan) {
  return detail::g_fault_plan.exchange(plan, std::memory_order_acq_rel);
}

FaultCounters fault_counters() {
  FaultCounters c;
  for (int i = 0; i < kFaultSiteCount; ++i) {
    c.occurrences[i] = g_occurrences[i].load(std::memory_order_relaxed);
    c.fired[i] = g_fired[i].load(std::memory_order_relaxed);
  }
  return c;
}

void reset_fault_counters() {
  for (int i = 0; i < kFaultSiteCount; ++i) {
    g_occurrences[i].store(0, std::memory_order_relaxed);
    g_fired[i].store(0, std::memory_order_relaxed);
  }
}

ScopedFaultPlan::ScopedFaultPlan(FaultPlan plan) : plan_(std::move(plan)) {
  reset_fault_counters();
  previous_ = arm_fault_plan(&plan_);
}

ScopedFaultPlan::~ScopedFaultPlan() { arm_fault_plan(previous_); }

int current_fault_rung() { return t_rung; }

ScopedRung::ScopedRung(int rung) : previous_(t_rung) { t_rung = rung; }

ScopedRung::~ScopedRung() { t_rung = previous_; }

}  // namespace qwm::support
