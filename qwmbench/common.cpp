#include "common.h"

#include <cmath>
#include <cstdio>
#include <ctime>
#include <fstream>
#include <set>
#include <sstream>

namespace qwmbench {

namespace {
Clock::time_point g_start = Clock::now();
}  // namespace

void mark_process_start() { g_start = Clock::now(); }
double since_process_start() { return seconds_since(g_start); }

double process_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

double peak_rss_mb(int pid) {
  const std::string path =
      pid == 0 ? "/proc/self/status" : "/proc/" + std::to_string(pid) + "/status";
  std::ifstream f(path);
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream is(line.substr(6));
      double kb = 0.0;
      is >> kb;
      return kb / 1024.0;
    }
  }
  return 0.0;
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

std::vector<std::size_t> sample_indices(std::size_t n, std::size_t k,
                                        Rng& rng) {
  std::set<std::size_t> picked;
  if (k >= n) {
    for (std::size_t i = 0; i < n; ++i) picked.insert(i);
  } else {
    while (picked.size() < k) picked.insert(rng.below(n));
  }
  return {picked.begin(), picked.end()};
}

void Metrics::set(const std::string& name, double value,
                  const std::string& unit) {
  for (auto& e : entries_)
    if (e.name == name) {
      e.value = value;
      e.unit = unit;
      return;
    }
  entries_.push_back({name, value, unit});
}

bool Metrics::has(const std::string& name) const {
  for (const auto& e : entries_)
    if (e.name == name) return true;
  return false;
}

double Metrics::get(const std::string& name) const {
  for (const auto& e : entries_)
    if (e.name == name) return e.value;
  return 0.0;
}

std::string Metrics::json() const {
  std::ostringstream os;
  os << "{";
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    const auto& e = entries_[i];
    char num[64];
    const double v = std::isfinite(e.value) ? e.value : 0.0;
    std::snprintf(num, sizeof num, "%.10g", v);
    os << (i ? ", " : "") << "\"" << e.name << "\": {\"value\": " << num
       << ", \"unit\": \"" << e.unit << "\"}";
  }
  os << "}";
  return os.str();
}

int Tracer::begin(const std::string& name) {
  if (!enabled_) return -1;
  Span s;
  s.name = name;
  s.start_s = seconds_since(origin_);
  s.parent = open_.empty() ? -1 : open_.back();
  spans_.push_back(std::move(s));
  open_.push_back(static_cast<int>(spans_.size()) - 1);
  return open_.back();
}

void Tracer::end(int id) {
  if (!enabled_ || id < 0) return;
  spans_[static_cast<std::size_t>(id)].end_s = seconds_since(origin_);
  if (!open_.empty() && open_.back() == id) open_.pop_back();
}

void Tracer::add(const std::string& name, double start_s, double end_s) {
  if (enabled_) spans_.push_back({name, start_s, end_s, -1});
}

bool Tracer::write(const std::string& path) const {
  std::ofstream f(path);
  if (!f) return false;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    char line[512];
    std::snprintf(line, sizeof line,
                  "{\"id\": %zu, \"name\": \"%s\", \"start_s\": %.9f, "
                  "\"end_s\": %.9f, \"parent\": %d}\n",
                  i, s.name.c_str(), s.start_s, s.end_s, s.parent);
    f << line;
  }
  return static_cast<bool>(f);
}

}  // namespace qwmbench
