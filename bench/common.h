// Shared support for the paper-reproduction benchmark harnesses: model
// construction, wall-clock timing, and the QWM-vs-SPICE comparison runner
// every table uses.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "qwm/circuit/builders.h"
#include "qwm/core/stage_eval.h"
#include "qwm/core/workspace.h"
#include "qwm/device/analytic_model.h"
#include "qwm/device/model_set.h"
#include "qwm/device/tabular_model.h"
#include "qwm/spice/from_stage.h"
#include "qwm/spice/transient.h"

namespace qwm::bench {

/// Device models shared by both engines (the paper's setup: QWM and the
/// baseline consume the same characterized tabular model).
struct Models {
  device::Process proc = device::Process::cmosp35();
  device::TabularDeviceModel tab_n{device::MosType::nmos, proc};
  device::TabularDeviceModel tab_p{device::MosType::pmos, proc};
  device::AnalyticDeviceModel golden_n = device::AnalyticDeviceModel::nmos(proc);
  device::AnalyticDeviceModel golden_p = device::AnalyticDeviceModel::pmos(proc);

  device::ModelSet set() const {
    return device::ModelSet{&tab_n, &tab_p, &proc};
  }
  device::ModelSet golden_set() const {
    return device::ModelSet{&golden_n, &golden_p, &proc};
  }
};

inline Models& models() {
  static Models m;
  return m;
}

/// Shared command-line flags of the STA-mode harnesses:
///   --threads N   worker lanes for the parallel engine section (default 4)
///   --no-cache    disable the stage-evaluation memo cache
///   --rows N      workload size where the harness replicates structures
///   --corners     run the STA sections at all three process corners
///   --json FILE   additionally write the results as a JSON document
struct StaBenchFlags {
  int threads = 4;
  bool cache = true;
  int rows = 64;
  bool corners = false;
  std::string json_path;

  static StaBenchFlags parse(int argc, char** argv) {
    StaBenchFlags f;
    for (int i = 1; i < argc; ++i) {
      if (std::strcmp(argv[i], "--threads") == 0 && i + 1 < argc)
        f.threads = std::atoi(argv[++i]);
      else if (std::strcmp(argv[i], "--no-cache") == 0)
        f.cache = false;
      else if (std::strcmp(argv[i], "--rows") == 0 && i + 1 < argc)
        f.rows = std::atoi(argv[++i]);
      else if (std::strcmp(argv[i], "--corners") == 0)
        f.corners = true;
      else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc)
        f.json_path = argv[++i];
      else {
        std::fprintf(stderr,
                     "unknown flag: %s\nusage: %s [--threads N] [--no-cache] "
                     "[--rows N] [--corners] [--json FILE]\n",
                     argv[i], argv[0]);
        std::exit(2);
      }
    }
    if (f.threads < 1) f.threads = 1;
    if (f.rows < 1) f.rows = 1;
    return f;
  }
};

/// One-line JSON object builder for the --json bench outputs: numbers are
/// %.17g doubles or exact integers, strings are assumed to need no
/// escaping (bench-controlled names only). The emitted documents follow
/// the repo's golden-file idiom — arrays of one-line objects with fixed
/// keys — so the sscanf-based readers in tools/ and tests/ can consume
/// them without a JSON library.
class JsonObject {
 public:
  JsonObject& num(const std::string& key, double v) {
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return raw(key, buf);
  }
  JsonObject& integer(const std::string& key, std::uint64_t v) {
    return raw(key, std::to_string(v));
  }
  JsonObject& str(const std::string& key, const std::string& v) {
    return raw(key, "\"" + v + "\"");
  }
  JsonObject& raw(const std::string& key, const std::string& v) {
    body_ += first_ ? "" : ", ";
    first_ = false;
    body_ += "\"" + key + "\": " + v;
    return *this;
  }
  std::string str() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
  bool first_ = true;
};

/// Joins one-line JSON items into a multi-line array literal.
inline std::string json_array(const std::vector<std::string>& items,
                              const std::string& indent = "  ") {
  std::string out = "[";
  for (std::size_t i = 0; i < items.size(); ++i)
    out += (i ? "," : "") + std::string("\n") + indent + items[i];
  out += "\n" + (indent.size() >= 2 ? indent.substr(2) : "") + "]";
  return out;
}

inline bool write_text_file(const std::string& path,
                            const std::string& text) {
  std::ofstream os(path);
  if (!os) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return false;
  }
  os << text;
  return static_cast<bool>(os);
}

inline bool read_text_file(const std::string& path, std::string* out) {
  std::ifstream is(path);
  if (!is) {
    std::fprintf(stderr, "cannot read %s\n", path.c_str());
    return false;
  }
  std::ostringstream ss;
  ss << is.rdbuf();
  *out = ss.str();
  return true;
}

/// Finds `"key": <number>` in a JSON text (the one-line-object idiom the
/// harnesses emit) without a JSON library. Returns false if absent.
inline bool json_find_number(const std::string& text, const std::string& key,
                             double* out) {
  const std::string needle = "\"" + key + "\"";
  const auto pos = text.find(needle);
  if (pos == std::string::npos) return false;
  const auto colon = text.find(':', pos + needle.size());
  if (colon == std::string::npos) return false;
  *out = std::strtod(text.c_str() + colon + 1, nullptr);
  return true;
}

/// Fig. 10 shape shared by the harnesses: 3 buffered address lines fan
/// out to `rows` NAND3 rows, each followed by a two-stage wordline driver
/// whose widths cycle through `variants` sizing variants (as a real
/// decoder sizes drivers by wordline distance); rows/variants rows are
/// electrically identical, so the memo cache collapses them. The extra
/// wire load on address line 0 makes it strictly the latest arrival, so
/// every row's trigger gates the NMOS nearest ground — the stack position
/// QWM resolves across the full slew range.
inline std::string make_decoder_deck(int rows, int variants) {
  std::ostringstream os;
  os << "row decoder\n" << "vdd vdd 0 3.3\n";
  for (int i = 0; i < 3; ++i) {
    os << "vin" << i << " a" << i << " 0 0\n";
    os << "mpb" << i << "1 b" << i << "1 a" << i
       << " vdd vdd pmos w=4u l=0.35u\n";
    os << "mnb" << i << "1 b" << i << "1 a" << i << " 0 0 nmos w=2u l=0.35u\n";
    os << "mpb" << i << "2 b" << i << "2 b" << i << "1"
       << " vdd vdd pmos w=16u l=0.35u\n";
    os << "mnb" << i << "2 b" << i << "2 b" << i << "1"
       << " 0 0 nmos w=8u l=0.35u\n";
    os << "mpb" << i << "3 l" << i << " b" << i << "2"
       << " vdd vdd pmos w=64u l=0.35u\n";
    os << "mnb" << i << "3 l" << i << " b" << i << "2"
       << " 0 0 nmos w=32u l=0.35u\n";
  }
  os << "cl0 l0 0 10f\n";
  for (int r = 0; r < rows; ++r) {
    const double scale = 1.0 + 0.25 * (r % variants);
    os << "mpr" << r << "a w" << r << " l0 vdd vdd pmos w=2u l=0.35u\n";
    os << "mpr" << r << "b w" << r << " l1 vdd vdd pmos w=2u l=0.35u\n";
    os << "mpr" << r << "c w" << r << " l2 vdd vdd pmos w=2u l=0.35u\n";
    os << "mnr" << r << "a w" << r << " l2 x" << r << "1 0 nmos w=2u l=0.35u\n";
    os << "mnr" << r << "b x" << r << "1 l1 x" << r << "2 0 nmos w=2u l=0.35u\n";
    os << "mnr" << r << "c x" << r << "2 l0 0 0 nmos w=2u l=0.35u\n";
    os << "mpd" << r << "1 d" << r << " w" << r << " vdd vdd pmos w="
       << 2.0 * scale << "u l=0.35u\n";
    os << "mnd" << r << "1 d" << r << " w" << r << " 0 0 nmos w="
       << 1.0 * scale << "u l=0.35u\n";
    os << "mpd" << r << "2 wl" << r << " d" << r << " vdd vdd pmos w="
       << 4.0 * scale << "u l=0.35u\n";
    os << "mnd" << r << "2 wl" << r << " d" << r << " 0 0 nmos w="
       << 2.0 * scale << "u l=0.35u\n";
    os << "cwl" << r << " wl" << r << " 0 60f\n";
  }
  return os.str();
}

/// Table I shape shared by the harnesses: a buffered stimulus line fans
/// out to `rows` instances each of inv / nand2 / nand3 / nand4.
/// Non-switching NAND inputs tie to vdd; the stimulus gates the NMOS
/// nearest ground.
inline std::string make_gate_farm_deck(int rows) {
  std::ostringstream os;
  os << "table1 gate farm\n" << "vdd vdd 0 3.3\n";
  os << "vin a 0 0\n";
  os << "mpb1 b a vdd vdd pmos w=8u l=0.35u\n";
  os << "mnb1 b a 0 0 nmos w=4u l=0.35u\n";
  os << "mpb2 in b vdd vdd pmos w=64u l=0.35u\n";
  os << "mnb2 in b 0 0 nmos w=32u l=0.35u\n";
  for (int r = 0; r < rows; ++r) {
    os << "mpi" << r << " yi" << r << " in vdd vdd pmos w=2u l=0.35u\n";
    os << "mni" << r << " yi" << r << " in 0 0 nmos w=1u l=0.35u\n";
    os << "ci" << r << " yi" << r << " 0 20f\n";
    for (int k = 2; k <= 4; ++k) {
      const std::string y = "yn" + std::to_string(k) + "_" + std::to_string(r);
      const std::string tag = std::to_string(k) + "_" + std::to_string(r);
      for (int p = 0; p < k; ++p)
        os << "mp" << tag << "_" << p << " " << y << " "
           << (p == 0 ? "in" : "vdd") << " vdd vdd pmos w=2u l=0.35u\n";
      // NMOS chain from output to ground; the bottom device switches.
      for (int q = 0; q < k; ++q) {
        const std::string top =
            q == 0 ? y : "xn" + tag + "_" + std::to_string(q);
        const std::string bot =
            q == k - 1 ? "0" : "xn" + tag + "_" + std::to_string(q + 1);
        os << "mn" << tag << "_" << q << " " << top << " "
           << (q == k - 1 ? "in" : "vdd") << " " << bot
           << " 0 nmos w=2u l=0.35u\n";
      }
      os << "cn" << tag << " " << y << " 0 20f\n";
    }
  }
  return os.str();
}

/// Median wall-clock seconds of `fn` over enough repetitions to be stable.
inline double time_seconds(const std::function<void()>& fn,
                           double min_total = 0.05, int min_reps = 3) {
  using clock = std::chrono::steady_clock;
  std::vector<double> samples;
  double total = 0.0;
  while (static_cast<int>(samples.size()) < min_reps || total < min_total) {
    const auto t0 = clock::now();
    fn();
    const auto t1 = clock::now();
    const double s = std::chrono::duration<double>(t1 - t0).count();
    samples.push_back(s);
    total += s;
    if (samples.size() > 2000) break;
  }
  std::sort(samples.begin(), samples.end());
  return samples[samples.size() / 2];
}

/// Worst-case stimulus for a built stage: the switching input steps at
/// t_step, everything else sits at its non-controlling level.
inline std::vector<numeric::PwlWaveform> step_inputs(
    const circuit::BuiltStage& b, double t_step = 5e-12) {
  const double vdd = models().proc.vdd;
  std::vector<numeric::PwlWaveform> in;
  for (std::size_t i = 0; i < b.stage.input_count(); ++i) {
    if (static_cast<int>(i) == b.switching_input)
      in.push_back(b.output_falls
                       ? numeric::PwlWaveform::step(t_step, 0.0, vdd)
                       : numeric::PwlWaveform::step(t_step, vdd, 0.0));
    else
      in.push_back(numeric::PwlWaveform::constant(b.output_falls ? vdd : 0.0));
  }
  return in;
}

/// One row of a Table I/II-style comparison.
struct ComparisonRow {
  std::string name;
  double spice_1ps_s = 0.0;   ///< baseline transient wall time, 1 ps steps
  double spice_10ps_s = 0.0;  ///< baseline transient wall time, 10 ps steps
  double qwm_s = 0.0;         ///< QWM wall time
  double speedup_1ps = 0.0;
  double speedup_10ps = 0.0;
  double qwm_delay = 0.0;
  double spice_delay = 0.0;  ///< reference: 1 ps baseline
  double delay_error_pct = 0.0;
};

/// Builds the SPICE simulation of a stage with worst-case precharge ICs.
inline spice::StageSim make_spice_sim(
    const circuit::BuiltStage& b,
    const std::vector<numeric::PwlWaveform>& inputs) {
  spice::StageSim sim =
      spice::circuit_from_stage(b.stage, models().set(), inputs);
  const double pre = b.output_falls ? models().proc.vdd : 0.0;
  for (std::size_t n = 0; n < b.stage.node_count(); ++n) {
    const auto id = static_cast<circuit::NodeId>(n);
    if (b.stage.is_rail(id)) continue;
    sim.circuit.set_ic(sim.node_of[n], pre);
  }
  return sim;
}

/// Runs the full comparison for one stage: QWM and the SPICE baseline at
/// 1 ps and 10 ps fixed steps over the same window. `t_stop` <= 0 sizes
/// the window automatically from the QWM transition.
inline ComparisonRow compare_stage(const std::string& name,
                                   const circuit::BuiltStage& b,
                                   double t_stop = -1.0,
                                   const core::QwmOptions& qwm_opt = {}) {
  ComparisonRow row;
  row.name = name;
  const auto inputs = step_inputs(b);
  const auto ms = models().set();
  const double vdd = models().proc.vdd;

  // QWM result + timing. The timed quantity is the waveform evaluation on
  // the prebuilt path problem — the analog of the paper comparing "only
  // the transient time reported by Hspice to ensure fairness" (setup and
  // model building excluded on both sides).
  core::StageTiming st = core::evaluate_stage(b, inputs, ms, qwm_opt);
  if (!st.ok) {
    std::fprintf(stderr, "QWM failed on %s: %s\n", name.c_str(),
                 st.error.c_str());
    return row;
  }
  row.qwm_delay = st.delay.value_or(0.0);
  core::EvalWorkspace ws;
  row.qwm_s = time_seconds(
      [&] { core::evaluate_path(st.problem, inputs, qwm_opt, ws); });

  if (t_stop <= 0.0)
    t_stop = std::max(2.0 * st.qwm.critical_times.back(), 500e-12);

  // SPICE baseline at both step sizes.
  spice::StageSim sim = make_spice_sim(b, inputs);
  spice::TransientOptions opt;
  opt.t_stop = t_stop;
  opt.dt = 1e-12;
  const spice::TransientResult ref = spice::simulate_transient(sim.circuit, opt);
  row.spice_1ps_s = time_seconds(
      [&] { spice::simulate_transient(sim.circuit, opt); }, 0.05, 2);
  spice::TransientOptions opt10 = opt;
  opt10.dt = 10e-12;
  row.spice_10ps_s = time_seconds(
      [&] { spice::simulate_transient(sim.circuit, opt10); }, 0.02, 2);

  // Reference delay from the 1 ps run.
  const auto& w_in = inputs[b.switching_input];
  const auto& w_out = ref.waveforms[sim.node_of[b.output]];
  const auto t_in = w_in.crossing(0.5 * vdd, 0.0, b.output_falls);
  const auto t_out =
      t_in ? w_out.crossing(0.5 * vdd, *t_in, !b.output_falls) : std::nullopt;
  if (t_in && t_out) row.spice_delay = *t_out - *t_in;

  row.speedup_1ps = row.qwm_s > 0 ? row.spice_1ps_s / row.qwm_s : 0.0;
  row.speedup_10ps = row.qwm_s > 0 ? row.spice_10ps_s / row.qwm_s : 0.0;
  row.delay_error_pct =
      row.spice_delay > 0
          ? 100.0 * (row.qwm_delay - row.spice_delay) / row.spice_delay
          : 0.0;
  return row;
}

inline void print_comparison_header(const char* label) {
  std::printf("%-10s %12s %9s %12s %9s %12s %9s\n", label, "SPICE(1ps)",
              "Speedup", "SPICE(10ps)", "Speedup", "QWM", "Error");
}

inline void print_comparison_row(const ComparisonRow& r) {
  std::printf("%-10s %10.3fms %8.1fx %10.3fms %8.1fx %10.4fms %8.2f%%\n",
              r.name.c_str(), r.spice_1ps_s * 1e3, r.speedup_1ps,
              r.spice_10ps_s * 1e3, r.speedup_10ps, r.qwm_s * 1e3,
              r.delay_error_pct);
}

}  // namespace qwm::bench
