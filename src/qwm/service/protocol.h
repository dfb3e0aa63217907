// Wire protocol of the qwm_serve timing-query daemon.
//
// Dependency-free, newline-delimited text: every request is one line
// (verb + space-separated operands), every response is exactly one line
// beginning with "OK" or "ERR <CODE>". The format is deliberately
// trivial so any client — the qwm_load generator, a shell script piping
// into the stdio transport, or a test — can speak it with getline().
//
//   LOAD <deck.sp>             parse + partition + full STA analysis
//   ARRIVAL <net>              rise/fall arrival + slew of one net
//   CORNERS <net> [period]     per-corner arrivals; with a period, the
//                              min/max envelope's setup/hold slack too
//                              (requires a --corners server)
//   SLACK <net> <period>       slack against a clock period (SPICE suffixes ok)
//   CRITPATH [net [R|F]]       worst path from endpoint to primary input;
//                              with a net (and optional edge), the path
//                              feeding that arrival instead
//   RESIZE <stage> <edge> <w>  stage a transistor resize (width in meters)
//   UPDATE                     incremental re-analysis of the dirty cone
//   STATS                      server + cache + per-verb counters
//   SHUTDOWN                   stop the daemon
//
// Error responses are "ERR <CODE> [message]" with a structured code
// (BADCMD, ARG, LOAD, NODESIGN, NOTFOUND, UNSUPPORTED, BUSY, DEADLINE,
// DEGRADED, SHUTDOWN, INJECTED, INTERNAL); err_code() extracts the code
// so clients classify by token instead of ad-hoc prefix matching.
//
// Doubles are printed with "%.17g" so a response round-trips the exact
// bits of the engine's answer — the property the cross-engine
// verification in qwm_load, the crash/replay smoke in tools/ci.sh, and
// the service stress test rely on.
#pragma once

#include <string>

namespace qwm::service {

enum class Verb {
  kLoad,
  kArrival,
  kCorners,
  kSlack,
  kCritPath,
  kResize,
  kUpdate,
  kStats,
  kShutdown,
};
inline constexpr int kVerbCount = 9;

/// Lower-case wire name of a verb ("arrival", "critpath", ...).
const char* verb_name(Verb v);

struct Request {
  Verb verb = Verb::kStats;
  std::string path;    ///< LOAD
  std::string net;     ///< ARRIVAL / CORNERS / SLACK / CRITPATH opt.
  double period = 0.0; ///< SLACK [s]; CORNERS optional (0 = arrivals only)
  int stage = -1;      ///< RESIZE
  int edge = -1;       ///< RESIZE
  double width = 0.0;  ///< RESIZE [m]
  /// CRITPATH endpoint edge: 'R', 'F', or 0 (pick the worse edge).
  char path_edge = 0;
};

/// Outcome of parsing one request line.
struct ParsedRequest {
  bool ok = false;
  Request request;
  std::string code;    ///< error code when !ok (BADCMD or ARG)
  std::string error;   ///< human-readable parse failure
};

/// Parses a request line (verbs are case-insensitive; blank lines and
/// '#' comment lines yield !ok with an empty code — callers skip them).
ParsedRequest parse_request(const std::string& line);

/// Response construction. Both return a full line without the newline.
std::string ok_line(const std::string& payload);
std::string err_line(const std::string& code, const std::string& message);
/// "OK DEGRADED <payload>": the answer is usable but was produced by the
/// QWM fallback ladder (or depends on an upstream fallback result) —
/// within documented tolerance, not nominal-accuracy. is_ok() accepts it;
/// clients that care test is_degraded().
std::string ok_degraded_line(const std::string& payload);

bool is_ok(const std::string& response);
/// True when the response is "OK DEGRADED ..." (a usable fallback answer).
bool is_degraded(const std::string& response);
/// True when the response is "ERR <code> ..." (any code if empty).
bool is_err(const std::string& response, const std::string& code = "");

/// Code token of an "ERR <CODE> ..." response; "" when the response is
/// not an error (or carries no code). The structured-classification
/// helper clients use instead of per-client prefix matching.
std::string err_code(const std::string& response);

/// True for error codes that are transient by contract — load shedding
/// (BUSY), queue-wait expiry (DEADLINE) and degraded service (DEGRADED)
/// — the set a client may retry with backoff; everything else is a
/// definitive answer.
bool retryable_code(const std::string& code);

/// Returns `response` with the `key=value` token replaced (or appended
/// when absent), without reprinting any other field.
std::string with_field(const std::string& response, const std::string& key,
                       const std::string& value);

/// "%.17g": doubles survive a print/parse round trip bit-exactly.
std::string format_double(double v);

/// Extracts the value of `key` from an "OK k=v k=v ..." payload line;
/// empty string when absent.
std::string response_field(const std::string& response, const std::string& key);

}  // namespace qwm::service
