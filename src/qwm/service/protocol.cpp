#include "qwm/service/protocol.h"

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "qwm/netlist/parser.h"

namespace qwm::service {

namespace {

std::vector<std::string> split_ws(const std::string& line) {
  std::vector<std::string> toks;
  std::string cur;
  for (char c : line) {
    if (std::isspace(static_cast<unsigned char>(c))) {
      if (!cur.empty()) {
        toks.push_back(cur);
        cur.clear();
      }
    } else {
      cur.push_back(c);
    }
  }
  if (!cur.empty()) toks.push_back(cur);
  return toks;
}

std::string lower(std::string s) {
  for (char& c : s) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  return s;
}

bool parse_int(const std::string& tok, int* out) {
  char* end = nullptr;
  const long v = std::strtol(tok.c_str(), &end, 10);
  if (end == tok.c_str() || *end != '\0') return false;
  *out = static_cast<int>(v);
  return true;
}

ParsedRequest bad(const std::string& code, const std::string& msg) {
  ParsedRequest p;
  p.code = code;
  p.error = msg;
  return p;
}

}  // namespace

const char* verb_name(Verb v) {
  switch (v) {
    case Verb::kLoad: return "load";
    case Verb::kArrival: return "arrival";
    case Verb::kCorners: return "corners";
    case Verb::kSlack: return "slack";
    case Verb::kCritPath: return "critpath";
    case Verb::kResize: return "resize";
    case Verb::kUpdate: return "update";
    case Verb::kStats: return "stats";
    case Verb::kShutdown: return "shutdown";
  }
  return "?";
}

ParsedRequest parse_request(const std::string& line) {
  const std::vector<std::string> t = split_ws(line);
  if (t.empty() || t[0][0] == '#') return ParsedRequest{};  // skip silently

  ParsedRequest p;
  const std::string verb = lower(t[0]);
  Request& r = p.request;
  if (verb == "load") {
    if (t.size() != 2) return bad("ARG", "usage: LOAD <deck.sp>");
    r.verb = Verb::kLoad;
    r.path = t[1];
  } else if (verb == "arrival") {
    if (t.size() != 2) return bad("ARG", "usage: ARRIVAL <net>");
    r.verb = Verb::kArrival;
    r.net = lower(t[1]);
  } else if (verb == "corners") {
    if (t.size() != 2 && t.size() != 3)
      return bad("ARG", "usage: CORNERS <net> [period]");
    r.verb = Verb::kCorners;
    r.net = lower(t[1]);
    if (t.size() == 3 &&
        (!netlist::parse_spice_number(t[2], &r.period) || r.period <= 0.0))
      return bad("ARG", "bad period: " + t[2]);
  } else if (verb == "slack") {
    if (t.size() != 3) return bad("ARG", "usage: SLACK <net> <period>");
    r.verb = Verb::kSlack;
    r.net = lower(t[1]);
    if (!netlist::parse_spice_number(t[2], &r.period) || r.period <= 0.0)
      return bad("ARG", "bad period: " + t[2]);
  } else if (verb == "critpath") {
    if (t.size() > 3) return bad("ARG", "usage: CRITPATH [net [R|F]]");
    r.verb = Verb::kCritPath;
    if (t.size() >= 2) r.net = lower(t[1]);
    if (t.size() == 3) {
      const std::string e = lower(t[2]);
      if (e != "r" && e != "f") return bad("ARG", "bad edge (want R|F): " + t[2]);
      r.path_edge = e == "r" ? 'R' : 'F';
    }
  } else if (verb == "resize") {
    if (t.size() != 4) return bad("ARG", "usage: RESIZE <stage> <edge> <width>");
    r.verb = Verb::kResize;
    if (!parse_int(t[1], &r.stage)) return bad("ARG", "bad stage index: " + t[1]);
    if (!parse_int(t[2], &r.edge)) return bad("ARG", "bad edge index: " + t[2]);
    if (!netlist::parse_spice_number(t[3], &r.width) || r.width <= 0.0)
      return bad("ARG", "bad width: " + t[3]);
  } else if (verb == "update") {
    if (t.size() != 1) return bad("ARG", "usage: UPDATE");
    r.verb = Verb::kUpdate;
  } else if (verb == "stats") {
    if (t.size() != 1) return bad("ARG", "usage: STATS");
    r.verb = Verb::kStats;
  } else if (verb == "shutdown") {
    if (t.size() != 1) return bad("ARG", "usage: SHUTDOWN");
    r.verb = Verb::kShutdown;
  } else {
    return bad("BADCMD", "unknown verb: " + t[0]);
  }
  p.ok = true;
  return p;
}

std::string ok_line(const std::string& payload) {
  return payload.empty() ? "OK" : "OK " + payload;
}

std::string err_line(const std::string& code, const std::string& message) {
  std::string out = "ERR " + code;
  if (!message.empty()) {
    out += " ";
    // The protocol is newline-delimited; fold any embedded newlines.
    for (char c : message) out += (c == '\n' || c == '\r') ? ' ' : c;
  }
  return out;
}

std::string ok_degraded_line(const std::string& payload) {
  return payload.empty() ? "OK DEGRADED" : "OK DEGRADED " + payload;
}

bool is_ok(const std::string& response) {
  return response == "OK" || response.rfind("OK ", 0) == 0;
}

bool is_degraded(const std::string& response) {
  return response == "OK DEGRADED" || response.rfind("OK DEGRADED ", 0) == 0;
}

bool is_err(const std::string& response, const std::string& code) {
  if (response.rfind("ERR ", 0) != 0) return false;
  if (code.empty()) return true;
  const std::string want = "ERR " + code;
  return response == want || response.rfind(want + " ", 0) == 0;
}

std::string err_code(const std::string& response) {
  if (response.rfind("ERR ", 0) != 0) return "";
  const std::size_t begin = 4;
  const std::size_t end = response.find(' ', begin);
  return response.substr(begin, end == std::string::npos ? std::string::npos
                                                         : end - begin);
}

bool retryable_code(const std::string& code) {
  return code == "BUSY" || code == "DEADLINE" || code == "DEGRADED";
}

std::string with_field(const std::string& response, const std::string& key,
                       const std::string& value) {
  const std::string needle = key + "=";
  std::size_t pos = 0;
  while ((pos = response.find(needle, pos)) != std::string::npos) {
    if (pos == 0 || response[pos - 1] == ' ') {
      const std::size_t vbegin = pos + needle.size();
      const std::size_t vend = response.find(' ', vbegin);
      std::string out = response.substr(0, vbegin) + value;
      if (vend != std::string::npos) out += response.substr(vend);
      return out;
    }
    pos += needle.size();
  }
  return response + " " + needle + value;
}

std::string format_double(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string response_field(const std::string& response, const std::string& key) {
  const std::string needle = key + "=";
  std::size_t pos = 0;
  while ((pos = response.find(needle, pos)) != std::string::npos) {
    // Key must start a token (preceded by a space or line start).
    if (pos == 0 || response[pos - 1] == ' ') {
      const std::size_t vbegin = pos + needle.size();
      const std::size_t vend = response.find(' ', vbegin);
      return response.substr(vbegin, vend == std::string::npos
                                         ? std::string::npos
                                         : vend - vbegin);
    }
    pos += needle.size();
  }
  return "";
}

}  // namespace qwm::service
