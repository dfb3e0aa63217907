// LineTransport — the newline-protocol transport engine behind
// qwm_serve's Server: admission, worker lanes and stdio/TCP plumbing,
// kept apart from the protocol logic in server.h.
//
// Two transports over one machinery:
//
//  * stdio  — serve_stream(): one client session on an istream/ostream
//    pair, requests answered in order (the scripted-CI mode).
//  * TCP    — listen() + serve(): POSIX sockets on 127.0.0.1, one reader
//    thread per connection, strict request/response per connection,
//    concurrency across connections.
//
// Requests funnel through a *bounded admission queue* drained by worker
// lanes on a support::ThreadPool. A full queue rejects immediately with
// "ERR BUSY" — overload sheds load instead of stalling the readers —
// and a request that waited past deadline_ms is answered "ERR DEADLINE"
// without reaching the handler.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "qwm/support/thread_pool.h"

namespace qwm::service {

struct TransportOptions {
  /// Worker lanes draining the admission queue (request concurrency).
  int threads = 4;
  /// Bounded admission queue capacity; a full queue answers ERR BUSY.
  /// 0 rejects everything (useful to test the overload path).
  int queue_capacity = 64;
  /// > 0: requests that waited in the queue longer than this are
  /// answered ERR DEADLINE instead of being executed.
  double deadline_ms = 0.0;
};

struct TransportStats {
  std::uint64_t busy_rejections = 0;
  std::uint64_t deadline_expirations = 0;
};

class LineTransport {
 public:
  /// Executes one request line, returning the one-line response ("" =
  /// nothing to write). Runs on a worker lane; must be thread-safe.
  using Handler = std::function<std::string(const std::string& line)>;

  explicit LineTransport(TransportOptions opt);
  ~LineTransport();

  LineTransport(const LineTransport&) = delete;
  LineTransport& operator=(const LineTransport&) = delete;

  void set_handler(Handler h) { handler_ = std::move(h); }

  const TransportOptions& options() const { return opt_; }

  /// Stdio transport: serves requests from `in` until EOF or shutdown.
  /// Responses are written to `out` in request order. Returns 0 on a
  /// clean session.
  int serve_stream(std::istream& in, std::ostream& out);

  /// Binds 127.0.0.1:`port` (0 = ephemeral; see port()) with
  /// SO_REUSEADDR, so a restarted server can rebind its port immediately
  /// instead of tripping over the dead process's TIME_WAIT socket.
  /// False on failure; listen_error() then carries strerror(errno).
  bool listen(int port);
  /// Human-readable reason of the last listen() failure ("" if none).
  const std::string& listen_error() const { return listen_error_; }
  int port() const { return port_; }
  /// Accept loop + worker lanes; blocks until request_shutdown().
  /// Requires a successful listen().
  void serve();

  /// Thread-safe: stops accepting, drains in-flight requests, unblocks
  /// every transport.
  void request_shutdown();
  bool shutdown_requested() const {
    return stop_.load(std::memory_order_acquire);
  }

  TransportStats stats() const;

 private:
  struct Conn;
  struct Job;

  /// Admission + execution for one request line read by a transport:
  /// enqueue (or shed with BUSY), wait for the worker's response write.
  void submit_and_wait(const std::shared_ptr<Conn>& conn,
                       const std::string& line);
  void worker_loop();
  void run_workers();  ///< parallel_for the worker lanes (blocks)
  void reader_loop(std::shared_ptr<Conn> conn);

  TransportOptions opt_;
  Handler handler_;
  support::ThreadPool pool_;
  std::atomic<bool> stop_{false};

  // Bounded admission queue.
  mutable std::mutex queue_mu_;
  std::condition_variable queue_cv_;
  std::deque<std::shared_ptr<Job>> queue_;
  bool queue_closed_ = false;

  mutable std::mutex stats_mu_;
  TransportStats stats_;

  // TCP state.
  int listen_fd_ = -1;
  int port_ = 0;
  std::string listen_error_;
  std::mutex conns_mu_;
  std::vector<std::weak_ptr<Conn>> conns_;
  std::vector<std::thread> readers_;
};

}  // namespace qwm::service
