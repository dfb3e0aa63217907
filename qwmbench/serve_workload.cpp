// decoder_serve: the real qwm_serve daemon on loopback TCP.
//
// The benchmark writes a seeded Fig.-10-style row-decoder deck, starts
// qwm_serve, LOADs the deck (setup_s ends at the LOAD reply), then for the
// run's seconds drives closed-loop reads (70/15/10/5 ARRIVAL / SLACK /
// CRITPATH / STATS) on fixed connections while one writer issues
// RESIZE + UPDATE what-ifs on a fixed schedule, each timed from when it
// was due. Afterwards the final epoch and a seeded sample of earlier
// epochs are checked against fresh in-process full analyses of the deck
// with the same RESIZE prefix.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <memory>
#include <sstream>
#include <thread>

#include "checks.h"
#include "qwm/circuit/partition.h"
#include "qwm/device/process.h"
#include "qwm/device/tabular_model.h"
#include "qwm/netlist/apply_models.h"
#include "qwm/netlist/parser.h"
#include "qwm/service/protocol.h"
#include "qwm/service/server.h"
#include "qwm/sta/sta.h"
#include "workloads.h"

namespace qwmbench {

using namespace qwm;

namespace {

constexpr int kRows = 1000;
constexpr int kVariants = 4;
/// What-if period of the writer's open-loop schedule [s].
constexpr double kWhatifPeriod = 0.2;
/// Served-vs-full-analysis tolerance (README.md): 0.1 % or 0.1 ps.
constexpr double kServedRel = 1e-3;
constexpr double kServedAbs = 1e-13;

/// Fig.-10-style row decoder: three buffered predecode lines fan out to
/// `kRows` rows of NAND3 -> inverter -> wordline driver. The seed assigns
/// each row one of `kVariants` driver sizings and one of three wordline
/// loads, so rows repeat (memo hits) without being uniform.
std::string decoder_deck(std::uint64_t seed) {
  Rng rng(seed * 0x51ed2701ull + 11);
  std::ostringstream os;
  os << "row decoder seed " << seed << "\n" << "vdd vdd 0 3.3\n";
  for (int i = 0; i < 3; ++i) {
    os << "vin" << i << " a" << i << " 0 0\n"
       << "mpb" << i << "1 b" << i << "1 a" << i << " vdd vdd pmos w=4u l=0.35u\n"
       << "mnb" << i << "1 b" << i << "1 a" << i << " 0 0 nmos w=2u l=0.35u\n"
       << "mpb" << i << "2 b" << i << "2 b" << i << "1 vdd vdd pmos w=16u l=0.35u\n"
       << "mnb" << i << "2 b" << i << "2 b" << i << "1 0 0 nmos w=8u l=0.35u\n"
       << "mpb" << i << "3 l" << i << " b" << i << "2 vdd vdd pmos w=64u l=0.35u\n"
       << "mnb" << i << "3 l" << i << " b" << i << "2 0 0 nmos w=32u l=0.35u\n";
  }
  const double loads[] = {40, 60, 80};
  for (int r = 0; r < kRows; ++r) {
    const double scale = 1.0 + 0.25 * static_cast<double>(rng.below(kVariants));
    const double load = loads[rng.below(3)];
    os << "mpr" << r << "a w" << r << " l0 vdd vdd pmos w=2u l=0.35u\n"
       << "mpr" << r << "b w" << r << " l1 vdd vdd pmos w=2u l=0.35u\n"
       << "mpr" << r << "c w" << r << " l2 vdd vdd pmos w=2u l=0.35u\n"
       << "mnr" << r << "a w" << r << " l2 x" << r << "1 0 nmos w=2u l=0.35u\n"
       << "mnr" << r << "b x" << r << "1 l1 x" << r << "2 0 nmos w=2u l=0.35u\n"
       << "mnr" << r << "c x" << r << "2 l0 0 0 nmos w=2u l=0.35u\n"
       << "mpd" << r << "1 d" << r << " w" << r << " vdd vdd pmos w="
       << 2.0 * scale << "u l=0.35u\n"
       << "mnd" << r << "1 d" << r << " w" << r << " 0 0 nmos w=" << scale
       << "u l=0.35u\n"
       << "mpd" << r << "2 wl" << r << " d" << r << " vdd vdd pmos w="
       << 4.0 * scale << "u l=0.35u\n"
       << "mnd" << r << "2 wl" << r << " d" << r << " 0 0 nmos w="
       << 2.0 * scale << "u l=0.35u\n"
       << "cwl" << r << " wl" << r << " 0 " << load << "f\n";
  }
  return os.str();
}

/// The deck parsed and partitioned in-process exactly as DesignDb does.
struct LocalDeck {
  netlist::FlatNetlist nl;
  device::Process proc = device::Process::cmosp35();
  std::unique_ptr<device::TabularDeviceModel> nmos, pmos;
  device::ModelSet models;
  circuit::PartitionedDesign design;
  double parse_s = 0.0, characterize_s = 0.0, partition_s = 0.0;
};

std::unique_ptr<LocalDeck> load_local(const std::string& text) {
  auto d = std::make_unique<LocalDeck>();
  auto t = Clock::now();
  netlist::ParseResult parsed = netlist::parse_spice(text);
  d->nl = std::move(parsed.netlist);
  netlist::apply_model_cards(d->nl, &d->proc);
  d->parse_s = seconds_since(t);
  t = Clock::now();
  d->nmos = std::make_unique<device::TabularDeviceModel>(device::MosType::nmos, d->proc);
  d->pmos = std::make_unique<device::TabularDeviceModel>(device::MosType::pmos, d->proc);
  d->models = device::ModelSet{d->nmos.get(), d->pmos.get(), &d->proc};
  d->characterize_s = seconds_since(t);
  t = Clock::now();
  d->design = circuit::partition_netlist(d->nl, d->models);
  d->partition_s = seconds_since(t);
  return d;
}

struct Whatif {
  int stage = 0;
  int edge = 0;
  double width = 0.0;
};

/// One request as recorded by the client.
struct Record {
  std::string request;
  std::string raw;  ///< every byte received for it
  double sent_s = 0.0, recv_s = 0.0;  ///< since the load phase started
  std::uint64_t epoch = 0;
  service::Verb verb = service::Verb::kStats;
};

/// Blocking line client on one loopback connection.
class Conn {
 public:
  bool open(int port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) return false;
    int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    timeval tv{60, 0};
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
    sockaddr_in a{};
    a.sin_family = AF_INET;
    a.sin_port = htons(static_cast<std::uint16_t>(port));
    a.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    return ::connect(fd_, reinterpret_cast<sockaddr*>(&a), sizeof a) == 0;
  }
  ~Conn() {
    if (fd_ >= 0) ::close(fd_);
  }
  /// Sends one request line; returns every byte received up to and
  /// including the first '\n' plus anything that arrived with it
  /// ("" on a transport failure).
  std::string call(const std::string& line) {
    const std::string out = line + "\n";
    std::size_t off = 0;
    while (off < out.size()) {
      const ssize_t n = ::send(fd_, out.data() + off, out.size() - off, MSG_NOSIGNAL);
      if (n <= 0) return "";
      off += static_cast<std::size_t>(n);
    }
    std::string raw;
    char buf[65536];
    while (raw.find('\n') == std::string::npos) {
      const ssize_t n = ::recv(fd_, buf, sizeof buf, 0);
      if (n <= 0) return raw;
      raw.append(buf, static_cast<std::size_t>(n));
    }
    return raw;
  }

 private:
  int fd_ = -1;
};

std::uint64_t epoch_of(const std::string& reply) {
  const std::string e = service::response_field(reply, "epoch");
  return e.empty() ? 0 : std::strtoull(e.c_str(), nullptr, 10);
}

double field_d(const std::string& reply, const std::string& key) {
  const std::string v = service::response_field(reply, key);
  return v.empty() ? NAN : std::strtod(v.c_str(), nullptr);
}

/// The qwm_serve child process; killed and reaped on every exit path.
class ServerProcess {
 public:
  ~ServerProcess() { stop(); }
  bool start(const std::string& bin, const std::vector<std::string>& args,
             const std::string& log) {
    pid_ = ::fork();
    if (pid_ < 0) return false;
    if (pid_ == 0) {
      // Die with the benchmark, even if it crashes before stop().
      ::prctl(PR_SET_PDEATHSIG, SIGKILL);
      std::FILE* f = std::fopen(log.c_str(), "w");
      if (f) {
        ::dup2(fileno(f), 1);
        ::dup2(fileno(f), 2);
      }
      std::vector<char*> argv;
      argv.push_back(const_cast<char*>(bin.c_str()));
      for (const auto& a : args) argv.push_back(const_cast<char*>(a.c_str()));
      argv.push_back(nullptr);
      ::execv(bin.c_str(), argv.data());
      std::_Exit(127);
    }
    return true;
  }
  int pid() const { return pid_; }
  /// Waits up to `seconds` for a clean exit, then kills.
  void stop(double seconds = 5.0) {
    if (pid_ <= 0) return;
    const auto t0 = Clock::now();
    int status = 0;
    while (::waitpid(pid_, &status, WNOHANG) == 0) {
      if (seconds_since(t0) > seconds) {
        ::kill(pid_, SIGKILL);
        ::waitpid(pid_, &status, 0);
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    pid_ = -1;
  }

 private:
  int pid_ = -1;
};

/// A fresh full analysis of the deck with the first `prefix` what-ifs
/// applied before run() (the server's engine options: 1 lane, memo on).
std::unique_ptr<sta::StaEngine> full_analysis(const LocalDeck& d,
                                              const std::vector<Whatif>& w,
                                              std::size_t prefix) {
  auto eng = std::make_unique<sta::StaEngine>(d.design, d.models, sta::StaOptions{});
  for (std::size_t i = 0; i < prefix; ++i)
    eng->resize_transistor(w[i].stage, w[i].edge, w[i].width);
  eng->run();
  return eng;
}

/// Largest |served - reference| seen by agrees() [s].
double g_max_dev = 0.0;

bool agrees(double served, double ref) {
  if (std::isfinite(served) && std::isfinite(ref))
    g_max_dev = std::max(g_max_dev, std::abs(served - ref));
  return served_close(served, ref, kServedRel, kServedAbs);
}

/// Checks one recorded OK reply against the reference engine; false on a
/// disagreement. STATS, RESIZE and UPDATE have no reference value.
bool reply_matches(const Record& r, const LocalDeck& d,
                   const sta::StaEngine& ref, double period,
                   const std::unordered_map<netlist::NetId, sta::StaEngine::Slack>& slacks) {
  const auto p = service::parse_request(r.request);
  if (!p.ok) return false;
  if (r.verb == service::Verb::kArrival) {
    const auto id = d.nl.find_net(p.request.net);
    if (!id) return false;
    const sta::NetTiming& t = ref.timing(*id);
    if (field_d(r.raw, "rise_valid") != (t.rise.valid() ? 1.0 : 0.0) ||
        field_d(r.raw, "fall_valid") != (t.fall.valid() ? 1.0 : 0.0))
      return false;
    return (!t.rise.valid() ||
            agrees(field_d(r.raw, "rise"), t.rise.time)) &&
           (!t.fall.valid() ||
            agrees(field_d(r.raw, "fall"), t.fall.time));
  }
  if (r.verb == service::Verb::kSlack) {
    const auto id = d.nl.find_net(p.request.net);
    if (!id || std::abs(p.request.period - period) > 1e-15) return false;
    const auto it = slacks.find(*id);
    const bool valid = it != slacks.end() && it->second.valid;
    if (field_d(r.raw, "valid") != (valid ? 1.0 : 0.0)) return false;
    return !valid ||
           agrees(field_d(r.raw, "slack"), it->second.slack);
  }
  if (r.verb == service::Verb::kCritPath)
    return agrees(field_d(r.raw, "worst"), ref.worst_arrival());
  return true;
}

std::size_t rtt_count(const std::vector<std::vector<Record>>& reads) {
  std::size_t n = 0;
  for (const auto& v : reads) n += v.size();
  return n;
}

}  // namespace

RunResult run_serve_workload(const RunConfig& cfg, const std::string& serve_bin) {
  RunResult res;
  Metrics& m = res.metrics;
  Tracer tr(cfg.trace);
  namespace fs = std::filesystem;

  // ---- setup: deck, server start, LOAD.
  const std::string deck = decoder_deck(cfg.seed);
  const std::string deck_path =
      fs::absolute(fs::path(cfg.out_dir) / ("decoder_" + std::to_string(cfg.seed) + ".sp"));
  const std::string port_path =
      fs::absolute(fs::path(cfg.out_dir) / ("serve_port_" + std::to_string(cfg.seed)));
  {
    std::ofstream f(deck_path);
    f << deck;
    if (!f) {
      res.fail_check("cannot write " + deck_path);
      return res;
    }
  }
  fs::remove(port_path);
  // Lanes: the server's request lanes plus every client connection stay
  // within nproc; the engine runs inside a request lane (1 lane).
  const int server_lanes = std::max(1, cfg.lanes / 2);
  const int readers = std::max(1, cfg.lanes - server_lanes - 1);
  ServerProcess server;
  const int sp_setup = tr.begin("service.startup");
  if (!server.start(serve_bin,
                    {"--port", "0", "--port-file", port_path, "--threads",
                     std::to_string(server_lanes), "--sta-threads", "1"},
                    fs::path(cfg.out_dir) / "qwm_serve.log")) {
    res.fail_check("cannot start " + serve_bin);
    return res;
  }
  // The port file is complete once its trailing newline is there.
  int port = 0;
  for (auto t0 = Clock::now(); seconds_since(t0) < 30.0 && port == 0;) {
    std::ifstream pf(port_path);
    const std::string text((std::istreambuf_iterator<char>(pf)),
                           std::istreambuf_iterator<char>());
    if (!text.empty() && text.back() == '\n')
      port = std::atoi(text.c_str());
    else
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  Conn writer;
  if (port == 0 || !writer.open(port)) {
    res.fail_check("qwm_serve did not come up (see qwm_serve.log)");
    return res;
  }
  std::uint64_t attempted = 0, failed = 0;
  std::vector<std::string> writer_raw;  // every writer reply, for the checks
  const auto call_checked = [&](Conn& c, const std::string& line) {
    std::string raw = c.call(line);
    ++attempted;
    if (!service::is_ok(raw)) ++failed;
    return raw;
  };
  const std::string load_reply = call_checked(writer, "LOAD " + deck_path);
  writer_raw.push_back(load_reply);
  tr.end(sp_setup);
  const double setup_s = since_process_start();
  if (!service::is_ok(load_reply)) {
    res.fail_check("LOAD failed: " + load_reply);
    return res;
  }
  const double period = 1.2 * field_d(load_reply, "worst");
  const std::uint64_t load_epoch = epoch_of(load_reply);

  // The benchmark's own copy of the deck: what-if targets and references.
  const auto local = load_local(deck);
  std::vector<std::string> read_nets;
  std::vector<int> row_stages;  // stages of the rows (not the predecoder)
  for (std::size_t s = 0; s < local->design.stages.size(); ++s)
    for (const auto n : local->design.stages[s].output_nets) {
      const std::string& name = local->nl.net_name(n);
      read_nets.push_back(name);
      if (name[0] == 'w' || name[0] == 'd') row_stages.push_back(static_cast<int>(s));
    }
  // What-ifs: a seeded row stage and transistor, resized to a fresh width
  // (never one seen before, so each UPDATE re-evaluates its cone).
  Rng wrng(cfg.seed * 0x7f4a7c15ull + 5);
  const auto draw_whatif = [&] {
    const int s = row_stages[wrng.below(row_stages.size())];
    const auto& st = local->design.stages[static_cast<std::size_t>(s)].stage;
    std::vector<int> fets;
    for (std::size_t e = 0; e < st.edge_count(); ++e)
      if (st.edge(static_cast<circuit::EdgeId>(e)).kind != circuit::DeviceKind::wire)
        fets.push_back(static_cast<int>(e));
    const int e = fets[wrng.below(fets.size())];
    return Whatif{s, e, st.edge(e).w * (0.7 + 0.6 * wrng.uniform())};
  };

  // ---- load phase.
  std::vector<std::vector<Record>> reads(static_cast<std::size_t>(readers));
  std::vector<Whatif> whatifs;
  std::vector<double> whatif_ms, writer_late_ms, update_rate;
  std::vector<std::pair<double, double>> whatif_windows;  // [send, reply]
  std::vector<Record> writes;
  const auto t_load = Clock::now();
  const double load_origin = tr.now_s();
  const auto since_load = [&] { return seconds_since(t_load); };
  std::atomic<bool> reader_error{false};
  std::vector<std::thread> threads;
  for (int c = 0; c < readers; ++c) {
    threads.emplace_back([&, c] {
      Conn conn;
      if (!conn.open(port)) {
        reader_error = true;
        return;
      }
      Rng rng(cfg.seed * 1000003ull + static_cast<std::uint64_t>(c));
      auto& mine = reads[static_cast<std::size_t>(c)];
      while (since_load() < cfg.seconds) {
        const std::size_t r = rng.below(100);
        const std::string& net = read_nets[rng.below(read_nets.size())];
        Record rec;
        if (r < 70) {
          rec.verb = service::Verb::kArrival;
          rec.request = "ARRIVAL " + net;
        } else if (r < 85) {
          rec.verb = service::Verb::kSlack;
          rec.request = "SLACK " + net + " " + service::format_double(period);
        } else if (r < 95) {
          rec.verb = service::Verb::kCritPath;
          rec.request = "CRITPATH";
        } else {
          rec.verb = service::Verb::kStats;
          rec.request = "STATS";
        }
        rec.sent_s = since_load();
        rec.raw = conn.call(rec.request);
        rec.recv_s = since_load();
        rec.epoch = epoch_of(rec.raw);
        mine.push_back(std::move(rec));
      }
    });
  }
  // Writer: RESIZE + UPDATE due every kWhatifPeriod, open loop.
  for (int k = 0;; ++k) {
    const double due = (0.5 + k) * kWhatifPeriod;
    if (due >= cfg.seconds) break;
    while (since_load() < due)
      std::this_thread::sleep_for(std::chrono::microseconds(
          static_cast<long>(1e6 * std::min(0.001, due - since_load()) + 1)));
    const Whatif w = draw_whatif();
    whatifs.push_back(w);
    Record rz;
    rz.verb = service::Verb::kResize;
    rz.request = "RESIZE " + std::to_string(w.stage) + " " + std::to_string(w.edge) +
                 " " + service::format_double(w.width);
    rz.sent_s = since_load();
    writer_late_ms.push_back(1e3 * (rz.sent_s - due));
    rz.raw = writer.call(rz.request);
    rz.recv_s = since_load();
    Record up;
    up.verb = service::Verb::kUpdate;
    up.request = "UPDATE";
    up.sent_s = since_load();
    up.raw = writer.call(up.request);
    up.recv_s = since_load();
    whatif_ms.push_back(1e3 * (up.recv_s - due));
    whatif_windows.emplace_back(rz.sent_s, up.recv_s);
    update_rate.push_back(field_d(up.raw, "evals") / (up.recv_s - up.sent_s));
    writes.push_back(std::move(rz));
    writes.push_back(std::move(up));
  }
  for (auto& th : threads) th.join();
  const double load_wall = since_load();
  if (reader_error) res.fail_check("reader connection failed");

  // ---- final epoch: a seeded sweep of ARRIVALs and a CRITPATH.
  std::vector<Record> final_reads;
  {
    Rng rng(cfg.seed * 31 + 7);
    for (int i = 0; i < 64; ++i) {
      Record rec;
      rec.verb = i == 0 ? service::Verb::kCritPath : service::Verb::kArrival;
      rec.request = i == 0 ? "CRITPATH"
                           : "ARRIVAL " + read_nets[rng.below(read_nets.size())];
      rec.raw = writer.call(rec.request);
      rec.epoch = epoch_of(rec.raw);
      final_reads.push_back(std::move(rec));
    }
  }
  const std::string stats_reply = call_checked(writer, "STATS");
  writer_raw.push_back(stats_reply);
  const double serve_rss = peak_rss_mb(server.pid());
  writer_raw.push_back(call_checked(writer, "SHUTDOWN"));
  server.stop();

  // ---- accounting and reply checks.
  std::vector<const Record*> all;
  for (const auto& v : reads)
    for (const auto& r : v) all.push_back(&r);
  for (const auto& r : writes) all.push_back(&r);
  for (const auto& r : final_reads) all.push_back(&r);
  std::size_t malformed = 0;
  for (const Record* r : all) {
    ++attempted;
    if (!service::is_ok(r->raw)) ++failed;
    if (!well_formed_reply(r->raw)) ++malformed;
  }
  for (const auto& raw : writer_raw)
    if (!well_formed_reply(raw)) ++malformed;
  if (malformed) res.fail_check(std::to_string(malformed) + " malformed replies");

  // ---- served answers vs fresh full analyses with the same RESIZE prefix.
  // A read at epoch E sees floor((E - load_epoch) / 2) applied what-ifs
  // (RESIZE and UPDATE each bump the epoch; a staged RESIZE changes no
  // timing until its UPDATE).
  const auto prefix_of = [&](std::uint64_t e) {
    return static_cast<std::size_t>((e - load_epoch) / 2);
  };
  std::map<std::uint64_t, std::vector<const Record*>> by_epoch;
  for (const auto& v : reads)
    for (const auto& r : v)
      if (service::is_ok(r.raw) && r.epoch >= load_epoch) by_epoch[r.epoch].push_back(&r);
  const std::uint64_t final_epoch = final_reads.empty() ? 0 : final_reads.back().epoch;
  std::vector<std::uint64_t> epochs;
  for (const auto& [e, v] : by_epoch) epochs.push_back(e);
  std::vector<std::uint64_t> checked;
  {
    Rng rng(cfg.seed * 97 + 1);
    for (const std::size_t i : sample_indices(epochs.size(), 3, rng))
      checked.push_back(epochs[i]);
  }
  std::size_t compared = 0, mismatched = 0;
  const Record* first_compared = nullptr;
  const sta::StaEngine* first_ref = nullptr;
  std::unique_ptr<sta::StaEngine> final_ref;
  std::unordered_map<netlist::NetId, sta::StaEngine::Slack> final_slacks;
  {
    Scope sp(tr, "check.full_reanalysis");
    for (const std::uint64_t e : checked) {
      const auto ref = full_analysis(*local, whatifs, prefix_of(e));
      const auto slacks = ref->compute_slacks(period);
      for (const Record* r : by_epoch[e]) {
        ++compared;
        if (!reply_matches(*r, *local, *ref, period, slacks)) ++mismatched;
      }
    }
    final_ref = full_analysis(*local, whatifs, prefix_of(final_epoch));
    final_slacks = final_ref->compute_slacks(period);
    for (const auto& r : final_reads) {
      ++compared;
      if (r.epoch != final_epoch ||
          !reply_matches(r, *local, *final_ref, period, final_slacks))
        ++mismatched;
      if (!first_compared && r.verb == service::Verb::kArrival &&
          field_d(r.raw, "rise_valid") == 1.0) {
        first_compared = &r;
        first_ref = final_ref.get();
      }
    }
  }
  if (final_epoch != load_epoch + 2 * whatifs.size())
    res.fail_check("final epoch " + std::to_string(final_epoch) + " != " +
                   std::to_string(load_epoch + 2 * whatifs.size()));
  std::fprintf(stderr,
               "decoder_serve: %zu reads, %zu what-ifs; %zu served replies over "
               "%zu epochs checked against full re-analysis, max deviation "
               "%.3g ps\n",
               rtt_count(reads), whatifs.size(), compared, checked.size() + 1,
               g_max_dev * 1e12);
  if (mismatched)
    res.fail_check(std::to_string(mismatched) + " of " + std::to_string(compared) +
                   " served replies disagree with a full re-analysis");

  // ---- negative controls: an altered reply must fail both checks.
  if (first_compared) {
    Record bad = *first_compared;
    const double rise = field_d(bad.raw, "rise");
    bad.raw = service::with_field(bad.raw.substr(0, bad.raw.size() - 1), "rise",
                                  service::format_double(rise * 1.2)) + "\n";
    if (reply_matches(bad, *local, *first_ref, period, final_slacks))
      res.fail_check("negative control: 20 % shifted served arrival passed");
    Record torn = *first_compared;
    torn.raw.insert(torn.raw.size() / 2, "\n");
    if (well_formed_reply(torn.raw))
      res.fail_check("negative control: two-line reply passed");
  } else {
    res.fail_check("no ARRIVAL reply to perturb");
  }

  res.attempted = attempted;
  res.failed = failed;

  std::vector<double> rtt;
  for (const auto& v : reads)
    for (const auto& r : v) rtt.push_back(1e6 * (r.recv_s - r.sent_s));
  if (!cfg.trace) {
    m.set("setup_s", setup_s, "s");
    m.set("arcs_per_s", median(update_rate), "arcs/s");
    m.set("peak_rss_mb", serve_rss, "MB");
    m.set("read_qps", static_cast<double>(rtt.size()) / load_wall, "1/s");
    m.set("read_p50_us", quantile(rtt, 0.5), "us");
    m.set("read_p99_us", quantile(rtt, 0.99), "us");
    return res;
  }

  // ---- traced run: per-layer figures.
  m.set("netlist.parse_s", local->parse_s, "s");
  m.set("circuit.partition_s", local->partition_s, "s");
  m.set("device.characterize_s", local->characterize_s, "s");
  m.set("loadgen.writer_late_ms", median(writer_late_ms), "ms");
  m.set("service.whatif_p50_ms", median(whatif_ms), "ms");
  const char* verbs[] = {"arrival", "slack", "critpath", "stats"};
  const service::Verb vv[] = {service::Verb::kArrival, service::Verb::kSlack,
                              service::Verb::kCritPath, service::Verb::kStats};
  std::vector<double> during, idle;
  for (const auto& v : reads)
    for (const auto& r : v) {
      bool overlaps = false;
      for (const auto& [a, b] : whatif_windows)
        if (r.sent_s < b && r.recv_s > a) {
          overlaps = true;
          break;
        }
      (overlaps ? during : idle).push_back(1e6 * (r.recv_s - r.sent_s));
    }
  m.set("service.read_p99_during_whatif_us", quantile(during, 0.99), "us");
  m.set("service.read_p99_idle_us", quantile(idle, 0.99), "us");
  for (int i = 0; i < 4; ++i) {
    std::vector<double> x;
    for (const auto& v : reads)
      for (const auto& r : v)
        if (r.verb == vv[i]) x.push_back(1e6 * (r.recv_s - r.sent_s));
    m.set(std::string("service.rtt_us.") + verbs[i] + ".p50", quantile(x, 0.5), "us");
    m.set(std::string("service.rtt_us.") + verbs[i] + ".p99", quantile(x, 0.99), "us");
  }
  const double memo_hits = field_d(stats_reply, "slack_memo_hits");
  const double memo_misses = field_d(stats_reply, "slack_memo_misses");
  m.set("service.slack_memo_hit_ratio", memo_hits / std::max(memo_hits + memo_misses, 1.0),
        "ratio");

  // In-process replay of the same request stream through handle_line.
  {
    Scope sp(tr, "service.replay");
    service::ServerOptions so;
    so.threads = 1;
    service::Server srv(so);
    const auto l0 = Clock::now();
    const std::string lr = srv.handle_line("LOAD " + deck_path);
    m.set("service.load_s", seconds_since(l0), "s");
    if (!service::is_ok(lr)) res.fail_check("in-process LOAD failed: " + lr);
    std::vector<const Record*> stream;
    for (const auto& v : reads)
      for (const auto& r : v) stream.push_back(&r);
    for (const auto& r : writes) stream.push_back(&r);
    std::stable_sort(stream.begin(), stream.end(),
                     [](const Record* a, const Record* b) { return a->sent_s < b->sent_s; });
    std::map<service::Verb, std::vector<double>> handle_us;
    for (const Record* r : stream) {
      const auto h0 = Clock::now();
      srv.handle_line(r->request);
      handle_us[r->verb].push_back(1e6 * seconds_since(h0));
    }
    std::vector<double> read_handle;
    for (int i = 0; i < 4; ++i) {
      m.set(std::string("service.handle_us.") + verbs[i], median(handle_us[vv[i]]), "us");
      read_handle.insert(read_handle.end(), handle_us[vv[i]].begin(), handle_us[vv[i]].end());
    }
    m.set("service.transport_us", quantile(rtt, 0.5) - median(read_handle), "us");
  }

  // In-process replay of the what-if sequence on one engine.
  {
    Scope sp(tr, "sta.whatif_replay");
    const auto c0 = Clock::now();
    sta::StaEngine eng(local->design, local->models, sta::StaOptions{});
    m.set("sta.construct_s", seconds_since(c0), "s");
    const auto r0 = Clock::now();
    const std::size_t evals = eng.run();
    m.set("sta.first_run_s", seconds_since(r0), "s");
    const std::vector<Arc> arcs = collect_arcs(eng);
    m.set("sta.dropped_arcs", static_cast<double>(dropped_arcs(arcs)), "count");
    m.set("sta.untimed_arcs", static_cast<double>(untimed_arcs(arcs)), "count");
    const core::QwmStats q0 = eng.qwm_stats();
    report_solver_counters(m, q0, evals, eng.cache_stats().hits);
    m.set("core.workspace_hwm_mb",
          static_cast<double>(eng.workspace_stats().high_water_bytes) / 1048576.0, "MB");
    eng.reset_qwm_stats();
    eng.reset_cache_stats();
    std::vector<double> upd_ms;
    double upd_evals = 0.0;
    for (const Whatif& w : whatifs) {
      eng.resize_transistor(w.stage, w.edge, w.width);
      const auto u0 = Clock::now();
      upd_evals += static_cast<double>(eng.update());
      upd_ms.push_back(1e3 * seconds_since(u0));
    }
    const core::QwmStats& q = eng.qwm_stats();
    const support::CacheStats cs = eng.cache_stats();
    m.set("sta.update_ms", median(upd_ms), "ms");
    m.set("sta.update_evals", upd_evals / std::max<double>(1.0, whatifs.size()), "count");
    m.set("core.qwm_runs", upd_evals - static_cast<double>(cs.hits), "count");
    m.set("core.cache_hit_ratio", static_cast<double>(cs.hits) / std::max(upd_evals, 1.0),
          "ratio");
    m.set("core.warm_starts", static_cast<double>(q.warm_starts), "count");
    m.set("core.warm_retries", static_cast<double>(q.warm_retries), "count");
  }
  // The load phase records no spans (its requests are recorded as they
  // are anyway); they are written out as spans here, after the fact.
  for (const auto& v : reads)
    for (const auto& r : v)
      tr.add(std::string("service.rtt.") + service::verb_name(r.verb),
             load_origin + r.sent_s, load_origin + r.recv_s);
  for (const auto& r : writes)
    tr.add(std::string("service.rtt.") + service::verb_name(r.verb),
           load_origin + r.sent_s, load_origin + r.recv_s);
  tr.write(cfg.out_dir + "/trace_" + cfg.workload + "_" + std::to_string(cfg.seed) +
           ".jsonl");
  return res;
}

}  // namespace qwmbench
