#include "src/rpc/server.h"

#include <arpa/inet.h>
#include <cerrno>
#include <cstring>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <utility>

namespace senn::rpc {
namespace {

/// A connection with more unsent reply bytes than this is not read until
/// the peer drains them (read-side backpressure).
constexpr size_t kMaxUnsentReplyBytes = size_t{1} << 20;

Status Errno(const char* what) {
  return Status::Internal(std::string(what) + ": " + std::strerror(errno));
}

void CloseFd(int* fd) {
  if (*fd >= 0) ::close(*fd);
  *fd = -1;
}

}  // namespace

Server::Server(core::SpatialServer* spatial, ServerOptions options,
               obs::MetricsRegistry* metrics)
    : options_(std::move(options)), service_(spatial, options_.service, metrics) {}

Server::~Server() { Stop(); }

Status Server::Listen() {
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK, 0);
  if (listen_fd_ < 0) return Errno("socket");
  int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  struct sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options_.port);
  if (::inet_pton(AF_INET, options_.bind_address.c_str(), &addr.sin_addr) != 1) {
    return Status::InvalidArgument("not a numeric IPv4 bind address: " +
                                   options_.bind_address);
  }
  if (::bind(listen_fd_, reinterpret_cast<struct sockaddr*>(&addr), sizeof(addr)) < 0) {
    return Errno("bind");
  }
  if (::listen(listen_fd_, options_.listen_backlog) < 0) return Errno("listen");
  // Read back the bound port (meaningful when options_.port was 0).
  struct sockaddr_in bound;
  socklen_t len = sizeof(bound);
  if (::getsockname(listen_fd_, reinterpret_cast<struct sockaddr*>(&bound), &len) < 0) {
    return Errno("getsockname");
  }
  port_ = ntohs(bound.sin_port);
  return Status::OK();
}

Status Server::Start() {
  if (started_) return Status::FailedPrecondition("server already started");
  Status st = Listen();
  if (st.ok() && ::pipe(stop_fds_) < 0) st = Errno("pipe");
  if (!st.ok()) {
    CloseFd(&listen_fd_);
    for (int& fd : stop_fds_) CloseFd(&fd);
    return st;
  }

  started_ = true;
  running_.store(true, std::memory_order_release);
  const int n_loops = std::max(1, options_.worker_threads);
  loops_.reserve(static_cast<size_t>(n_loops));
  for (int i = 0; i < n_loops; ++i) loops_.emplace_back([this] { EventLoop(); });
  return Status::OK();
}

void Server::Stop() {
  if (!started_) return;
  started_ = false;
  running_.store(false, std::memory_order_release);
  // Nobody reads the pipe, so this one byte keeps every loop's poll awake
  // until that loop has seen running_ go false.
  const uint8_t byte = 1;
  [[maybe_unused]] ssize_t rc = ::write(stop_fds_[1], &byte, 1);
  for (std::thread& loop : loops_) loop.join();
  loops_.clear();
  // Each loop closed its own connections on exit.
  CloseFd(&listen_fd_);
  for (int& fd : stop_fds_) CloseFd(&fd);
}

ServerCounters Server::counters() const {
  ServerCounters c;
  c.connections_accepted = accepted_.load(std::memory_order_relaxed);
  c.connections_closed = closed_.load(std::memory_order_relaxed);
  c.frames_received = frames_received_.load(std::memory_order_relaxed);
  c.groups_dispatched = groups_dispatched_.load(std::memory_order_relaxed);
  c.requests_shed = requests_shed_.load(std::memory_order_relaxed);
  c.framing_errors = framing_errors_.load(std::memory_order_relaxed);
  return c;
}

void Server::EventLoop() {
  std::vector<Connection> conns;  // this loop's own connections
  std::vector<struct pollfd> pfds;
  while (running_.load(std::memory_order_acquire)) {
    pfds.clear();
    pfds.push_back({stop_fds_[0], POLLIN, 0});
    pfds.push_back({listen_fd_, POLLIN, 0});
    for (const Connection& conn : conns) {
      const size_t unsent = conn.outbuf.size() - conn.out_off;
      short events = POLLRDHUP;
      if (unsent <= kMaxUnsentReplyBytes) events |= POLLIN;
      if (unsent > 0) events |= POLLOUT;
      pfds.push_back({conn.fd, events, 0});
    }

    if (::poll(pfds.data(), pfds.size(), -1) < 0) {
      if (errno == EINTR) continue;
      break;  // unrecoverable; Stop() will clean up
    }
    if (!running_.load(std::memory_order_acquire)) break;

    // pfds[i + 2] is conns[i]; connections accepted below wait for the next
    // round.
    for (size_t i = 0; i < conns.size(); ++i) {
      const struct pollfd& pfd = pfds[i + 2];
      if (pfd.revents == 0) continue;
      Connection* conn = &conns[i];
      // A peer that shut down its sending side is done with the connection:
      // what it sent last is not answered, and unsent replies are dropped.
      bool alive = (pfd.revents & (POLLRDHUP | POLLHUP | POLLERR)) == 0;
      if (alive && (pfd.revents & POLLIN)) {
        alive = HandleReadable(conn);
        if (alive) DispatchReady(conn);
      }
      if (alive) alive = FlushWrites(conn);
      if (!alive) CloseConnection(conn);
    }
    std::erase_if(conns, [](const Connection& conn) { return conn.fd < 0; });
    if (pfds[1].revents & POLLIN) AcceptReady(&conns);
  }
  for (Connection& conn : conns) CloseConnection(&conn);
}

void Server::AcceptReady(std::vector<Connection>* conns) {
  for (;;) {
    const int fd = ::accept4(listen_fd_, nullptr, nullptr, SOCK_NONBLOCK);
    // EAGAIN: the accept queue is drained, or another loop took the
    // connection; anything else: try again on the next poll round.
    if (fd < 0) return;
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    conns->emplace_back(options_.max_payload).fd = fd;
    accepted_.fetch_add(1, std::memory_order_relaxed);
  }
}

bool Server::HandleReadable(Connection* conn) {
  uint8_t buf[65536];
  ssize_t r;
  do {
    r = ::read(conn->fd, buf, sizeof(buf));
  } while (r < 0 && errno == EINTR);
  if (r == 0) return false;  // peer closed
  if (r < 0) return errno == EAGAIN || errno == EWOULDBLOCK;
  // Bytes after a poison point are discarded; the close is pending.
  if (conn->decoder.poisoned()) return true;
  if (!conn->decoder.Feed(buf, static_cast<size_t>(r)).ok()) {
    framing_errors_.fetch_add(1, std::memory_order_relaxed);
  }
  Frame frame;
  while (conn->decoder.Next(&frame)) {
    frames_received_.fetch_add(1, std::memory_order_relaxed);
    conn->backlog.push_back(std::move(frame));
  }
  return true;
}

void Server::DispatchReady(Connection* conn) {
  if (!conn->backlog.empty()) {
    const size_t n = conn->backlog.size();
    const size_t before = inflight_requests_.fetch_add(n);
    if (options_.max_inflight_requests > 0 && before + n > options_.max_inflight_requests) {
      // Load shed: answer the whole burst with kOverloaded error replies —
      // cheap encodes, no engine work.
      for (const Frame& f : conn->backlog) {
        ErrorReply err{ErrorCode::kOverloaded, "server overloaded: in-flight request cap"};
        EncodeError(f.header.request_id, err, &conn->outbuf);
      }
      requests_shed_.fetch_add(n, std::memory_order_relaxed);
      service_.RecordShed(n);
    } else {
      groups_dispatched_.fetch_add(1, std::memory_order_relaxed);
      service_.AnswerGroup(conn->backlog, &conn->outbuf);
    }
    inflight_requests_.fetch_sub(n);
    conn->backlog.clear();
  }
  if (conn->decoder.poisoned() && !conn->error_sent) {
    // Queued after the replies of the frames that decoded cleanly; request
    // id 0, since there is no frame boundary to attribute it to.
    ErrorReply err{ErrorCode::kMalformedFrame, conn->decoder.error().message()};
    EncodeError(0, err, &conn->outbuf);
    conn->error_sent = true;
  }
}

bool Server::FlushWrites(Connection* conn) {
  while (conn->out_off < conn->outbuf.size()) {
    // MSG_NOSIGNAL: a peer that closed mid-reply is an EPIPE for this
    // connection, not a SIGPIPE that kills the whole server.
    ssize_t w = ::send(conn->fd, conn->outbuf.data() + conn->out_off,
                       conn->outbuf.size() - conn->out_off, MSG_NOSIGNAL);
    if (w > 0) {
      conn->out_off += static_cast<size_t>(w);
      continue;
    }
    if (w < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return true;  // retry on POLLOUT
    if (w < 0 && errno == EINTR) continue;
    return false;  // write error
  }
  conn->outbuf.clear();
  conn->out_off = 0;
  return !conn->error_sent;  // a framing error closes once its kError is out
}

void Server::CloseConnection(Connection* conn) {
  CloseFd(&conn->fd);
  closed_.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace senn::rpc
