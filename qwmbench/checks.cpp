#include "checks.h"

#include <bit>
#include <cmath>

namespace qwmbench {

std::vector<Arc> collect_arcs(const qwm::sta::StaEngine& engine) {
  std::vector<Arc> arcs;
  const auto& stages = engine.design().stages;
  arcs.reserve(stages.size() * 2);
  for (std::size_t s = 0; s < stages.size(); ++s) {
    const auto& info = stages[s];
    for (std::size_t o = 0; o < info.output_nets.size(); ++o) {
      const qwm::sta::NetTiming& t = engine.timing(info.output_nets[o]);
      for (const bool rising : {true, false}) {
        Arc a;
        a.stage = static_cast<int>(s);
        a.output = static_cast<int>(o);
        a.rising = rising;
        a.net = info.output_nets[o];
        a.arrival = rising ? t.rise : t.fall;
        for (const auto in : info.input_nets) {
          const qwm::sta::NetTiming& ti = engine.timing(in);
          if ((rising ? ti.fall : ti.rise).valid()) {
            a.triggered = true;
            break;
          }
        }
        arcs.push_back(a);
      }
    }
  }
  return arcs;
}

std::size_t arrival_mismatches(const std::vector<Arc>& got,
                               const std::vector<Arc>& ref) {
  if (got.size() != ref.size()) return std::max(got.size(), ref.size());
  std::size_t bad = 0;
  for (std::size_t i = 0; i < got.size(); ++i) {
    const auto& a = got[i].arrival;
    const auto& b = ref[i].arrival;
    const bool same =
        got[i].net == ref[i].net && got[i].rising == ref[i].rising &&
        a.valid() == b.valid() &&
        std::bit_cast<std::uint64_t>(a.time) ==
            std::bit_cast<std::uint64_t>(b.time) &&
        std::bit_cast<std::uint64_t>(a.slew) ==
            std::bit_cast<std::uint64_t>(b.slew) &&
        a.degraded == b.degraded && a.from_stage == b.from_stage &&
        a.from_net == b.from_net;
    if (!same) ++bad;
  }
  return bad;
}

std::size_t triggered_arcs(const std::vector<Arc>& arcs) {
  std::size_t n = 0;
  for (const auto& a : arcs) n += a.triggered ? 1 : 0;
  return n;
}

std::size_t dropped_arcs(const std::vector<Arc>& arcs) {
  std::size_t n = 0;
  for (const auto& a : arcs) n += (a.triggered && !a.arrival.valid()) ? 1 : 0;
  return n;
}

std::size_t untimed_arcs(const std::vector<Arc>& arcs) {
  std::size_t n = 0;
  for (const auto& a : arcs) n += a.arrival.valid() ? 0 : 1;
  return n;
}

bool within_spice_tolerance(double qwm_delay, double spice_delay) {
  const double tol = std::max(0.15 * std::abs(spice_delay), 5e-12);
  return std::abs(qwm_delay - spice_delay) <= tol;
}

bool well_formed_reply(const std::string& raw) {
  if (raw.size() < 3 || raw.back() != '\n') return false;
  for (std::size_t i = 0; i + 1 < raw.size(); ++i) {
    const auto c = static_cast<unsigned char>(raw[i]);
    if (c < 0x20 || c == 0x7f) return false;  // includes a second '\n'
  }
  return raw.rfind("OK", 0) == 0 || raw.rfind("ERR ", 0) == 0;
}

bool served_close(double served, double ref, double rel, double abs_s) {
  if (!std::isfinite(served) || !std::isfinite(ref)) return served == ref;
  return std::abs(served - ref) <= std::max(rel * std::abs(ref), abs_s);
}

}  // namespace qwmbench
