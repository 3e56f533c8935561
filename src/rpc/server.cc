#include "src/rpc/server.h"

#include <arpa/inet.h>
#include <cerrno>
#include <cstring>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <utility>

#include "src/obs/metrics.h"

namespace senn::rpc {
namespace {

Status Errno(const char* what) {
  return Status::Internal(std::string(what) + ": " + std::strerror(errno));
}

Status SetNonBlocking(int fd) {
  int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
    return Errno("fcntl(O_NONBLOCK)");
  }
  return Status::OK();
}

}  // namespace

Server::Server(core::SpatialServer* spatial, ServerOptions options,
               obs::MetricsRegistry* metrics)
    : options_(std::move(options)),
      service_(spatial, options_.service, metrics),
      metrics_(metrics) {}

Server::~Server() { Stop(); }

Status Server::Start() {
  if (started_) return Status::FailedPrecondition("server already started");

  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) return Errno("socket");
  int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  struct sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options_.port);
  if (::inet_pton(AF_INET, options_.bind_address.c_str(), &addr.sin_addr) != 1) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    return Status::InvalidArgument("not a numeric IPv4 bind address: " +
                                   options_.bind_address);
  }
  if (::bind(listen_fd_, reinterpret_cast<struct sockaddr*>(&addr), sizeof(addr)) < 0) {
    Status st = Errno("bind");
    ::close(listen_fd_);
    listen_fd_ = -1;
    return st;
  }
  if (::listen(listen_fd_, options_.listen_backlog) < 0) {
    Status st = Errno("listen");
    ::close(listen_fd_);
    listen_fd_ = -1;
    return st;
  }
  // Read back the bound port (meaningful when options_.port was 0).
  struct sockaddr_in bound;
  socklen_t len = sizeof(bound);
  if (::getsockname(listen_fd_, reinterpret_cast<struct sockaddr*>(&bound), &len) < 0) {
    Status st = Errno("getsockname");
    ::close(listen_fd_);
    listen_fd_ = -1;
    return st;
  }
  port_ = ntohs(bound.sin_port);

  Status st = SetNonBlocking(listen_fd_);
  if (st.ok() && ::pipe(wake_fds_) < 0) st = Errno("pipe");
  if (st.ok()) st = SetNonBlocking(wake_fds_[0]);
  if (!st.ok()) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    for (int& fd : wake_fds_) {
      if (fd >= 0) ::close(fd);
      fd = -1;
    }
    return st;
  }

  started_ = true;
  running_.store(true, std::memory_order_release);
  work_stop_ = false;
  const int n_workers = std::max(1, options_.worker_threads);
  workers_.reserve(static_cast<size_t>(n_workers));
  for (int i = 0; i < n_workers; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
  network_thread_ = std::thread([this] { NetworkLoop(); });
  return Status::OK();
}

void Server::Stop() {
  if (!started_) return;
  started_ = false;
  running_.store(false, std::memory_order_release);
  WakeNetwork();
  if (network_thread_.joinable()) network_thread_.join();
  {
    std::lock_guard<std::mutex> lock(work_mu_);
    work_stop_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& w : workers_) {
    if (w.joinable()) w.join();
  }
  workers_.clear();
  // The network thread closed every connection on exit; tear down the
  // listener and the wakeup pipe here.
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  for (int& fd : wake_fds_) {
    if (fd >= 0) ::close(fd);
    fd = -1;
  }
  work_.clear();
  done_.clear();
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

void Server::WakeNetwork() {
  const uint8_t byte = 1;
  // Best-effort: a full pipe already guarantees a pending wakeup.
  [[maybe_unused]] ssize_t rc = ::write(wake_fds_[1], &byte, 1);
}

void Server::NetworkLoop() {
  std::vector<struct pollfd> pfds;
  std::vector<uint64_t> pfd_conn;  // conn id per pollfd slot (0 = not a conn)
  while (running_.load(std::memory_order_acquire)) {
    pfds.clear();
    pfd_conn.clear();
    pfds.push_back({wake_fds_[0], POLLIN, 0});
    pfd_conn.push_back(0);
    pfds.push_back({listen_fd_, POLLIN, 0});
    pfd_conn.push_back(0);
    for (const auto& [id, conn] : conns_) {
      short events = POLLIN;
      if (conn.out_off < conn.outbuf.size()) events |= POLLOUT;
      pfds.push_back({conn.fd, events, 0});
      pfd_conn.push_back(id);
    }

    int rc = ::poll(pfds.data(), pfds.size(), -1);
    if (rc < 0) {
      if (errno == EINTR) continue;
      break;  // unrecoverable; Stop() will clean up
    }
    if (!running_.load(std::memory_order_acquire)) break;

    if (pfds[0].revents & POLLIN) {
      uint8_t drain[256];
      while (::read(wake_fds_[0], drain, sizeof(drain)) > 0) {
      }
    }
    DrainCompletions();
    if (pfds[1].revents & POLLIN) AcceptReady();

    std::vector<uint64_t> to_close;
    for (size_t i = 2; i < pfds.size(); ++i) {
      const uint64_t id = pfd_conn[i];
      auto it = conns_.find(id);
      if (it == conns_.end()) continue;  // closed by an earlier completion
      Connection* conn = &it->second;
      bool alive = true;
      if (pfds[i].revents & (POLLIN | POLLHUP | POLLERR)) {
        alive = HandleReadable(conn);
      }
      if (alive) {
        DispatchReady(conn);
        alive = FlushWrites(conn);
      }
      if (!alive) to_close.push_back(id);
    }
    for (uint64_t id : to_close) CloseConnection(id);
  }
  // Shutdown: close every connection (workers may still hold groups; their
  // completions are dropped in Stop()).
  std::vector<uint64_t> ids;
  ids.reserve(conns_.size());
  for (const auto& [id, conn] : conns_) ids.push_back(id);
  for (uint64_t id : ids) CloseConnection(id);
}

void Server::AcceptReady() {
  for (;;) {
    int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      // EAGAIN: drained the accept queue; anything else: try again on the
      // next poll round.
      return;
    }
    if (!SetNonBlocking(fd).ok()) {
      ::close(fd);
      continue;
    }
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    const uint64_t id = next_conn_id_++;
    auto [it, inserted] = conns_.emplace(id, Connection(options_.max_payload));
    it->second.fd = fd;
    it->second.id = id;
    accepted_.fetch_add(1, std::memory_order_relaxed);
  }
}

bool Server::HandleReadable(Connection* conn) {
  uint8_t buf[65536];
  for (;;) {
    ssize_t r = ::read(conn->fd, buf, sizeof(buf));
    if (r > 0) {
      if (!conn->decoder.poisoned()) {
        Status st = conn->decoder.Feed(buf, static_cast<size_t>(r));
        if (!st.ok()) {
          // Framing error: answer what decoded cleanly, describe the
          // corruption in a kError frame (request id 0 — no frame boundary
          // to attribute it to), and close once everything is flushed.
          framing_errors_.fetch_add(1, std::memory_order_relaxed);
          conn->close_requested = true;
        }
      }
      // else: discard bytes after the poison point; the close is pending.
      continue;
    }
    if (r == 0) return false;  // peer closed
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    if (errno == EINTR) continue;
    return false;  // read error
  }
  Frame frame;
  while (conn->decoder.Next(&frame)) {
    frames_received_.fetch_add(1, std::memory_order_relaxed);
    conn->backlog.push_back(std::move(frame));
  }
  return true;
}

void Server::DispatchReady(Connection* conn) {
  if (conn->group_in_flight || conn->backlog.empty()) {
    // A framing-error close with nothing left to answer still owes the
    // error frame; emit it as soon as the backlog is empty.
    if (!conn->group_in_flight && conn->backlog.empty() && conn->close_requested &&
        conn->decoder.poisoned() && !conn->error_sent) {
      ErrorReply err{ErrorCode::kMalformedFrame, conn->decoder.error().message()};
      EncodeError(0, err, &conn->outbuf);
      conn->error_sent = true;
    }
    return;
  }

  const size_t n = conn->backlog.size();
  if (options_.max_inflight_requests > 0 &&
      inflight_requests_ + n > options_.max_inflight_requests) {
    // Load shed: answer the whole burst with kOverloaded error replies
    // right here on the network thread — cheap encodes, no engine work.
    for (const Frame& f : conn->backlog) {
      ErrorReply err{ErrorCode::kOverloaded, "server overloaded: in-flight request cap"};
      EncodeError(f.header.request_id, err, &conn->outbuf);
    }
    requests_shed_.fetch_add(n, std::memory_order_relaxed);
    if (metrics_ != nullptr) {
      std::lock_guard<std::mutex> lock(metrics_mu_);
      metrics_->Inc("rpc/shed", n);
    }
    conn->backlog.clear();
    return;
  }

  Group group;
  group.conn_id = conn->id;
  group.frames = std::move(conn->backlog);
  conn->backlog.clear();
  conn->group_in_flight = true;
  inflight_requests_ += n;
  groups_dispatched_.fetch_add(1, std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(work_mu_);
    work_.push_back(std::move(group));
  }
  work_cv_.notify_one();
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
  if (conn->out_off == conn->outbuf.size()) {
    conn->outbuf.clear();
    conn->out_off = 0;
    if (conn->close_requested && !conn->group_in_flight && conn->backlog.empty()) {
      // A poisoned connection that still owes its error frame is not done.
      if (!conn->decoder.poisoned() || conn->error_sent) return false;
    }
  }
  return true;
}

void Server::CloseConnection(uint64_t conn_id) {
  auto it = conns_.find(conn_id);
  if (it == conns_.end()) return;
  ::close(it->second.fd);
  conns_.erase(it);
  closed_.fetch_add(1, std::memory_order_relaxed);
}

void Server::DrainCompletions() {
  std::deque<Completion> done;
  {
    std::lock_guard<std::mutex> lock(done_mu_);
    done.swap(done_);
  }
  for (Completion& c : done) {
    inflight_requests_ -= std::min(inflight_requests_, c.request_count);
    auto it = conns_.find(c.conn_id);
    if (it == conns_.end()) continue;  // connection died while the group ran
    Connection* conn = &it->second;
    conn->group_in_flight = false;
    conn->outbuf.insert(conn->outbuf.end(), c.bytes.begin(), c.bytes.end());
    DispatchReady(conn);
    if (!FlushWrites(conn)) CloseConnection(c.conn_id);
  }
}

void Server::WorkerLoop() {
  for (;;) {
    Group group;
    {
      std::unique_lock<std::mutex> lock(work_mu_);
      work_cv_.wait(lock, [this] { return work_stop_ || !work_.empty(); });
      if (work_stop_ && work_.empty()) return;
      group = std::move(work_.front());
      work_.pop_front();
    }
    Completion completion;
    completion.conn_id = group.conn_id;
    completion.request_count = group.frames.size();
    service_.AnswerGroup(group.frames, &completion.bytes);
    {
      std::lock_guard<std::mutex> lock(done_mu_);
      done_.push_back(std::move(completion));
    }
    WakeNetwork();
  }
}

}  // namespace senn::rpc
