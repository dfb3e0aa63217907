// Shared helpers of the QWM benchmark program: clocks, order statistics,
// a seeded generator, process memory, the metric sink, and the span
// recorder used by traced runs.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace qwmbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Process CPU time (all threads) [s].
double process_cpu_s();

/// Peak resident set size of process `pid` (0 = this process) from
/// /proc/<pid>/status VmHWM [MB]; 0 when unreadable.
double peak_rss_mb(int pid = 0);

/// Linear-interpolated quantile q in [0,1] of `v` (copied, sorted).
double quantile(std::vector<double> v, double q);
inline double median(const std::vector<double>& v) { return quantile(v, 0.5); }

/// splitmix64: the seeded generator behind every benchmark input.
struct Rng {
  std::uint64_t state;
  explicit Rng(std::uint64_t seed) : state(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (state += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  /// Uniform integer in [0, n).
  std::size_t below(std::size_t n) { return n == 0 ? 0 : next() % n; }
  double uniform() { return (next() >> 11) * 0x1.0p-53; }
};

/// Draws `k` distinct indices of [0, n) in ascending order.
std::vector<std::size_t> sample_indices(std::size_t n, std::size_t k, Rng& rng);

/// Named metrics in insertion order, printed as the result JSON.
class Metrics {
 public:
  void set(const std::string& name, double value, const std::string& unit);
  bool has(const std::string& name) const;
  double get(const std::string& name) const;
  std::string json() const;

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Entry> entries_;
};

/// Span recorder of a traced run: spans are kept in memory and written
/// out once at the end. Disabled, begin()/end() cost one branch.
class Tracer {
 public:
  struct Span {
    std::string name;
    double start_s = 0.0;  ///< since the tracer's origin
    double end_s = 0.0;
    int parent = -1;  ///< index of the enclosing span, -1 at top level
  };

  explicit Tracer(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}
  /// Opens a span under the innermost open span of the calling thread's
  /// stack (the benchmark records spans from its main thread only).
  int begin(const std::string& name);
  void end(int id);
  /// Seconds since the tracer's origin.
  double now_s() const { return seconds_since(origin_); }
  /// Records a finished top-level span measured elsewhere.
  void add(const std::string& name, double start_s, double end_s);
  /// Writes the spans as JSON lines; false when the file cannot be opened.
  bool write(const std::string& path) const;

 private:
  bool enabled_;
  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// RAII span.
class Scope {
 public:
  Scope(Tracer& t, const std::string& name) : t_(t), id_(t.begin(name)) {}
  ~Scope() { t_.end(id_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer& t_;
  int id_;
};

/// Command-line settings of one benchmark run.
struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir;  ///< where traces and result files go
  int lanes = 1;        ///< nproc
};

/// What every workload returns to main().
struct RunResult {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  Metrics metrics;
  std::vector<std::string> problems;  ///< failed checks, printed to stderr

  void fail_check(const std::string& what) {
    correct = false;
    problems.push_back(what);
  }
};

/// Wall time of the process since main() entered [s] (set by main).
double since_process_start();
void mark_process_start();

}  // namespace qwmbench
