// Service throughput benchmark: concurrent timing queries through the
// qwm_serve dispatch layer (in-process, no sockets) over the two
// paper-shaped workloads — the Fig. 10 row decoder and the Table I gate
// farm. N client threads issue a mixed read workload (70% ARRIVAL, 15%
// SLACK, 10% CRITPATH, 5% STATS) through Server::handle_line while one
// writer thread runs RESIZE+UPDATE what-if transactions; the harness
// reports sustained QPS and per-verb p50/p99 latency.
// Flags: --clients N (default 8), --requests M per client (default 400),
//        --rows N (workload size, default 32), --threads N (engine
//        lanes, default 4), --no-cache, --json FILE.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "common.h"
#include "qwm/service/server.h"

namespace {

using Clock = std::chrono::steady_clock;
using qwm::service::Verb;

struct Flags {
  int clients = 8;
  int requests = 400;
  int rows = 32;
  int threads = 4;
  bool cache = true;
  std::string json_path;

  static Flags parse(int argc, char** argv) {
    Flags f;
    for (int i = 1; i < argc; ++i) {
      if (std::strcmp(argv[i], "--clients") == 0 && i + 1 < argc)
        f.clients = std::atoi(argv[++i]);
      else if (std::strcmp(argv[i], "--requests") == 0 && i + 1 < argc)
        f.requests = std::atoi(argv[++i]);
      else if (std::strcmp(argv[i], "--rows") == 0 && i + 1 < argc)
        f.rows = std::atoi(argv[++i]);
      else if (std::strcmp(argv[i], "--threads") == 0 && i + 1 < argc)
        f.threads = std::atoi(argv[++i]);
      else if (std::strcmp(argv[i], "--no-cache") == 0)
        f.cache = false;
      else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc)
        f.json_path = argv[++i];
      else {
        std::fprintf(stderr,
                     "unknown flag: %s\nusage: %s [--clients N] "
                     "[--requests M] [--rows N] [--threads N] [--no-cache] "
                     "[--json FILE]\n",
                     argv[i], argv[0]);
        std::exit(2);
      }
    }
    f.clients = std::max(f.clients, 1);
    f.requests = std::max(f.requests, 1);
    f.rows = std::max(f.rows, 1);
    f.threads = std::max(f.threads, 1);
    return f;
  }
};

std::uint64_t next_rand(std::uint64_t* s) {
  *s += 0x9e3779b97f4a7c15ull;
  std::uint64_t z = *s;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

double pct(std::vector<double>* v, double p) {
  if (v->empty()) return 0.0;
  std::sort(v->begin(), v->end());
  return (*v)[static_cast<std::size_t>(p * static_cast<double>(v->size() - 1))];
}

void run_workload(const char* name, const std::string& deck, int rows,
                  const Flags& flags, std::string* json_out) {
  using namespace qwm;
  service::ServerOptions opt;
  opt.db.sta.threads = flags.threads;
  opt.db.sta.use_cache = flags.cache;
  service::Server server(opt);
  const service::LoadReply load = server.db().load_text(deck, name);
  if (!load.status.ok) {
    std::fprintf(stderr, "%s: load failed: %s\n", name,
                 load.status.message.c_str());
    if (json_out != nullptr)
      *json_out = qwm::bench::JsonObject()
                      .str("name", name)
                      .integer("load_failed", 1)
                      .str();
    return;
  }

  // Query universe: the critical-path nets plus the generators' known
  // per-row output names.
  std::vector<std::string> nets;
  const service::CritPathReply cp = server.db().critical_path();
  for (const auto& s : cp.steps) nets.push_back(s.net);
  for (int r = 0; r < rows; ++r) {
    if (std::strcmp(name, "decoder") == 0) {
      nets.push_back("wl" + std::to_string(r));
      nets.push_back("d" + std::to_string(r));
    } else {
      nets.push_back("yi" + std::to_string(r));
      for (int k = 2; k <= 4; ++k)
        nets.push_back("yn" + std::to_string(k) + "_" + std::to_string(r));
    }
  }

  struct PerThread {
    std::vector<double> lat_us[qwm::service::kVerbCount];
    std::uint64_t errors = 0;
  };
  std::vector<PerThread> per(static_cast<std::size_t>(flags.clients));
  std::atomic<bool> done{false};

  const auto t0 = Clock::now();
  std::vector<std::thread> clients;
  for (int c = 0; c < flags.clients; ++c) {
    clients.emplace_back([&, c] {
      PerThread& me = per[static_cast<std::size_t>(c)];
      std::uint64_t rng = 0x1234u + static_cast<std::uint64_t>(c);
      for (int i = 0; i < flags.requests; ++i) {
        const std::uint64_t dice = next_rand(&rng) % 100;
        const std::string& net = nets[next_rand(&rng) % nets.size()];
        std::string req;
        Verb verb;
        if (dice < 70) {
          req = "ARRIVAL " + net;
          verb = Verb::kArrival;
        } else if (dice < 85) {
          req = "SLACK " + net + " 2n";
          verb = Verb::kSlack;
        } else if (dice < 95) {
          req = "CRITPATH";
          verb = Verb::kCritPath;
        } else {
          req = "STATS";
          verb = Verb::kStats;
        }
        const auto q0 = Clock::now();
        const std::string resp = server.handle_line(req);
        const auto q1 = Clock::now();
        if (!service::is_ok(resp)) ++me.errors;
        me.lat_us[static_cast<int>(verb)].push_back(
            std::chrono::duration<double, std::micro>(q1 - q0).count());
      }
    });
  }
  // Probe for a resizable (non-wire) edge so the writer's what-ifs are
  // real transactions.
  int wr_edge = -1;
  for (int e = 0; e < 8 && wr_edge < 0; ++e)
    if (service::is_ok(server.handle_line("RESIZE 0 " + std::to_string(e) +
                                          " 2.2u")))
      wr_edge = e;
  std::thread writer([&] {
    // Steady what-if pressure on the exclusive-lock path for the
    // benchmark's duration.
    std::uint64_t k = 0;
    while (wr_edge >= 0 && !done.load(std::memory_order_acquire)) {
      const double w = (k % 2 == 0) ? 2.5e-6 : 3.0e-6;
      server.handle_line("RESIZE 0 " + std::to_string(wr_edge) + " " +
                         service::format_double(w));
      server.handle_line("UPDATE");
      ++k;
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  });
  for (auto& c : clients) c.join();
  const double wall_s =
      std::chrono::duration<double>(Clock::now() - t0).count();
  done.store(true, std::memory_order_release);
  writer.join();

  std::uint64_t total = 0, errors = 0;
  std::vector<double> merged[qwm::service::kVerbCount];
  for (auto& p : per) {
    errors += p.errors;
    for (int v = 0; v < qwm::service::kVerbCount; ++v) {
      total += p.lat_us[v].size();
      merged[v].insert(merged[v].end(), p.lat_us[v].begin(),
                       p.lat_us[v].end());
    }
  }

  std::printf("%s: %zu stages, %d clients x %d requests, engine lanes=%d "
              "cache=%s\n",
              name, load.stages, flags.clients, flags.requests, flags.threads,
              flags.cache ? "on" : "off");
  std::printf("  %.0f QPS over %.3f s (%llu requests, %llu errors)\n",
              static_cast<double>(total) / wall_s, wall_s,
              (unsigned long long)total, (unsigned long long)errors);
  std::printf("  %-10s %10s %10s %10s %8s\n", "verb", "p50[us]", "p99[us]",
              "max[us]", "count");
  std::vector<std::string> verb_json;
  for (const Verb v : {Verb::kArrival, Verb::kSlack, Verb::kCritPath,
                       Verb::kStats}) {
    std::vector<double>& lat = merged[static_cast<int>(v)];
    if (lat.empty()) continue;
    const double p50 = pct(&lat, 0.50), p99 = pct(&lat, 0.99);
    std::printf("  %-10s %10.1f %10.1f %10.1f %8zu\n",
                service::verb_name(v), p50, p99, lat.back(), lat.size());
    if (json_out != nullptr)
      verb_json.push_back(qwm::bench::JsonObject()
                              .str("verb", service::verb_name(v))
                              .num("p50_us", p50)
                              .num("p99_us", p99)
                              .num("max_us", lat.back())
                              .integer("count", lat.size())
                              .str());
  }
  std::printf("\n");
  if (json_out != nullptr) {
    qwm::bench::JsonObject o;
    o.str("name", name)
        .integer("stages", load.stages)
        .integer("clients", static_cast<std::uint64_t>(flags.clients))
        .integer("requests", total)
        .integer("errors", errors)
        .num("wall_s", wall_s)
        .num("qps", static_cast<double>(total) / wall_s)
        .raw("verbs", qwm::bench::json_array(verb_json, "      "));
    *json_out = o.str();
  }
}

}  // namespace

int main(int argc, char** argv) {
  const Flags flags = Flags::parse(argc, argv);
  std::printf("qwm_serve in-process query throughput (mixed read workload + "
              "what-if writer)\n\n");
  const int farm_rows = std::max(flags.rows / 4, 1);
  const bool want_json = !flags.json_path.empty();
  std::string decoder_json, farm_json;
  run_workload("decoder", qwm::bench::make_decoder_deck(flags.rows, 4),
               flags.rows, flags, want_json ? &decoder_json : nullptr);
  run_workload("gatefarm", qwm::bench::make_gate_farm_deck(farm_rows),
               farm_rows, flags, want_json ? &farm_json : nullptr);

  if (want_json) {
    const std::string doc =
        "{\n  \"bench\": \"service_qps\",\n  \"workloads\": " +
        qwm::bench::json_array({decoder_json, farm_json}, "    ") + "\n}\n";
    if (!qwm::bench::write_text_file(flags.json_path, doc)) return 1;
    std::printf("wrote %s\n", flags.json_path.c_str());
  }
  return 0;
}
