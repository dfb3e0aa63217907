#include "qwm/service/transport.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cctype>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <future>
#include <istream>
#include <ostream>

#include "qwm/service/protocol.h"

namespace qwm::service {

namespace {

using Clock = std::chrono::steady_clock;

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// Lines the protocol ignores: empty/whitespace or '#' comments.
bool ignorable(const std::string& line) {
  for (char c : line) {
    if (c == '#') return true;
    if (!std::isspace(static_cast<unsigned char>(c))) return false;
  }
  return true;
}

}  // namespace

/// One client session: either a connected socket (fd >= 0) or a stream
/// pair. write_line is serialized per connection; with the strict
/// request/response discipline there is at most one response in flight.
struct LineTransport::Conn {
  int fd = -1;
  std::ostream* out = nullptr;
  std::mutex write_mu;

  ~Conn() {
    if (fd >= 0) ::close(fd);
  }

  void write_line(const std::string& s) {
    std::lock_guard lock(write_mu);
    if (out) {
      (*out) << s << '\n';
      out->flush();
      return;
    }
    std::string msg = s;
    msg += '\n';
    std::size_t off = 0;
    while (off < msg.size()) {
      const ssize_t n =
          ::send(fd, msg.data() + off, msg.size() - off, MSG_NOSIGNAL);
      if (n <= 0) return;  // peer went away; drop the response
      off += static_cast<std::size_t>(n);
    }
  }

  /// Unblocks a reader parked in recv() on this connection.
  void shutdown_io() {
    if (fd >= 0) ::shutdown(fd, SHUT_RDWR);
  }
};

/// One admitted request. The transport's reader thread blocks on `done`
/// until a worker has written the response, which keeps responses in
/// request order per connection.
struct LineTransport::Job {
  std::shared_ptr<Conn> conn;
  std::string line;
  Clock::time_point enqueued;
  std::promise<void> done;
};

LineTransport::LineTransport(TransportOptions opt)
    : opt_(opt), pool_(opt.threads) {}

LineTransport::~LineTransport() { request_shutdown(); }

void LineTransport::submit_and_wait(const std::shared_ptr<Conn>& conn,
                                    const std::string& line) {
  auto job = std::make_shared<Job>();
  job->conn = conn;
  job->line = line;
  job->enqueued = Clock::now();
  std::future<void> done = job->done.get_future();
  bool shed_busy = false;
  {
    std::lock_guard lock(queue_mu_);
    if (queue_closed_) {
      conn->write_line(err_line("SHUTDOWN", "server stopping"));
      return;
    }
    if (static_cast<int>(queue_.size()) >= opt_.queue_capacity) {
      shed_busy = true;
    } else {
      queue_.push_back(std::move(job));
    }
  }
  if (shed_busy) {
    {
      std::lock_guard lock(stats_mu_);
      ++stats_.busy_rejections;
    }
    conn->write_line(err_line("BUSY", "admission queue full"));
    return;
  }
  queue_cv_.notify_one();
  done.wait();
}

void LineTransport::worker_loop() {
  for (;;) {
    std::shared_ptr<Job> job;
    {
      std::unique_lock lock(queue_mu_);
      queue_cv_.wait(lock, [&] { return queue_closed_ || !queue_.empty(); });
      if (queue_.empty()) return;  // closed and fully drained
      job = std::move(queue_.front());
      queue_.pop_front();
    }
    const double waited_ms = ms_between(job->enqueued, Clock::now());
    std::string resp;
    if (opt_.deadline_ms > 0.0 && waited_ms > opt_.deadline_ms) {
      {
        std::lock_guard lock(stats_mu_);
        ++stats_.deadline_expirations;
      }
      resp = err_line("DEADLINE", "request waited " + format_double(waited_ms) +
                                      " ms in queue");
    } else {
      resp = handler_ ? handler_(job->line) : err_line("INTERNAL", "no handler");
    }
    if (!resp.empty()) job->conn->write_line(resp);
    job->done.set_value();
  }
}

void LineTransport::run_workers() {
  const std::size_t lanes = static_cast<std::size_t>(pool_.thread_count());
  pool_.parallel_for(lanes, [this](std::size_t) { worker_loop(); });
}

int LineTransport::serve_stream(std::istream& in, std::ostream& out) {
  auto conn = std::make_shared<Conn>();
  conn->out = &out;
  // The worker lanes run on the pool (pumped from this helper thread);
  // the calling thread is the transport reader.
  std::thread pump([this] { run_workers(); });
  std::string line;
  while (!shutdown_requested() && std::getline(in, line)) {
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (ignorable(line)) continue;
    submit_and_wait(conn, line);
  }
  request_shutdown();
  pump.join();
  return 0;
}

bool LineTransport::listen(int port) {
  listen_error_.clear();
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    listen_error_ = std::string("socket: ") + std::strerror(errno);
    return false;
  }
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr),
             sizeof addr) < 0) {
    listen_error_ = "bind 127.0.0.1:" + std::to_string(port) + ": " +
                    std::strerror(errno);
    ::close(listen_fd_);
    listen_fd_ = -1;
    return false;
  }
  if (::listen(listen_fd_, 64) < 0) {
    listen_error_ = std::string("listen: ") + std::strerror(errno);
    ::close(listen_fd_);
    listen_fd_ = -1;
    return false;
  }
  socklen_t len = sizeof addr;
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len);
  port_ = ntohs(addr.sin_port);
  return true;
}

void LineTransport::serve() {
  std::thread accept_thread([this] {
    for (;;) {
      const int fd = ::accept(listen_fd_, nullptr, nullptr);
      if (fd < 0) {
        if (errno == EINTR) continue;
        return;  // listener shut down (or hard error): stop accepting
      }
      if (shutdown_requested()) {
        ::close(fd);
        return;
      }
      auto conn = std::make_shared<Conn>();
      conn->fd = fd;
      std::lock_guard lock(conns_mu_);
      conns_.push_back(conn);
      readers_.emplace_back([this, conn] { reader_loop(conn); });
    }
  });
  run_workers();  // blocks until shutdown closes and drains the queue
  // All responses are written; now unblock readers parked in recv().
  {
    std::lock_guard lock(conns_mu_);
    for (auto& w : conns_)
      if (auto c = w.lock()) c->shutdown_io();
  }
  accept_thread.join();
  // The accept thread (sole mutator of readers_) has exited.
  for (auto& t : readers_) t.join();
  readers_.clear();
  {
    std::lock_guard lock(conns_mu_);
    conns_.clear();
  }
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
}

void LineTransport::reader_loop(std::shared_ptr<Conn> conn) {
  std::string buf;
  char chunk[4096];
  for (;;) {
    std::size_t nl;
    while ((nl = buf.find('\n')) != std::string::npos) {
      std::string line = buf.substr(0, nl);
      buf.erase(0, nl + 1);
      if (!line.empty() && line.back() == '\r') line.pop_back();
      if (ignorable(line)) continue;
      submit_and_wait(conn, line);
      if (shutdown_requested()) return;
    }
    const ssize_t n = ::recv(conn->fd, chunk, sizeof chunk, 0);
    if (n <= 0) return;  // EOF, error, or shutdown_io()
    buf.append(chunk, static_cast<std::size_t>(n));
  }
}

void LineTransport::request_shutdown() {
  stop_.store(true, std::memory_order_release);
  {
    std::lock_guard lock(queue_mu_);
    queue_closed_ = true;
  }
  queue_cv_.notify_all();
  // Unblock accept(); connection fds are shut down by serve() after the
  // workers have drained every pending response.
  if (listen_fd_ >= 0) ::shutdown(listen_fd_, SHUT_RDWR);
}

TransportStats LineTransport::stats() const {
  std::lock_guard lock(stats_mu_);
  return stats_;
}

}  // namespace qwm::service
