#include "src/rpc/tcp.h"

#include <arpa/inet.h>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>

namespace senn::rpc {
namespace {

Status Errno(const char* what) {
  return Status::Internal(std::string(what) + ": " + std::strerror(errno));
}

// Monotonic milliseconds for socket deadlines. Sockets are the one rpc
// component whose progress is paced by a real remote peer, so their
// timeouts must be real time; nothing derived from this value ever feeds
// an algorithm or a report.
int64_t MonotonicNowMs() {
  // senn-lint: allow(L3-wallclock): socket I/O deadlines are inherently
  // wall-clock — a remote peer's pace is not simulated time. Deterministic
  // runs use the loopback transport, which never reaches this file.
  const auto now = std::chrono::steady_clock::now();
  return std::chrono::duration_cast<std::chrono::milliseconds>(now.time_since_epoch())
      .count();
}

// Waits for `events` on fd until the deadline; returns 1 ready, 0 timeout,
// -1 error.
int PollUntil(int fd, short events, int64_t deadline_ms) {
  int64_t remaining = deadline_ms - MonotonicNowMs();
  if (remaining < 0) remaining = 0;
  struct pollfd pfd;
  pfd.fd = fd;
  pfd.events = events;
  pfd.revents = 0;
  for (;;) {
    int rc = ::poll(&pfd, 1, static_cast<int>(std::min<int64_t>(remaining, 1 << 30)));
    if (rc >= 0) return rc > 0 ? 1 : 0;
    if (errno != EINTR) return -1;
    remaining = deadline_ms - MonotonicNowMs();
    if (remaining < 0) remaining = 0;
  }
}

Status SetNonBlocking(int fd) {
  int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
    return Errno("fcntl(O_NONBLOCK)");
  }
  return Status::OK();
}

}  // namespace

Result<std::unique_ptr<TcpClientTransport>> TcpClientTransport::Connect(
    const std::string& host, uint16_t port, TcpOptions options) {
  struct sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  const std::string numeric = host == "localhost" ? "127.0.0.1" : host;
  if (::inet_pton(AF_INET, numeric.c_str(), &addr.sin_addr) != 1) {
    return Status::InvalidArgument("not a numeric IPv4 address: " + host);
  }

  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return Errno("socket");
  Status st = SetNonBlocking(fd);
  if (!st.ok()) {
    ::close(fd);
    return st;
  }
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));

  if (::connect(fd, reinterpret_cast<struct sockaddr*>(&addr), sizeof(addr)) < 0) {
    if (errno != EINPROGRESS) {
      Status err = Errno("connect");
      ::close(fd);
      return err;
    }
    const int64_t deadline = MonotonicNowMs() + options.connect_timeout_ms;
    int rc = PollUntil(fd, POLLOUT, deadline);
    if (rc <= 0) {
      ::close(fd);
      return rc == 0 ? Status::OutOfRange("connect timed out") : Errno("poll(connect)");
    }
    int soerr = 0;
    socklen_t len = sizeof(soerr);
    if (::getsockopt(fd, SOL_SOCKET, SO_ERROR, &soerr, &len) < 0 || soerr != 0) {
      ::close(fd);
      errno = soerr != 0 ? soerr : errno;
      return Errno("connect");
    }
  }
  return std::unique_ptr<TcpClientTransport>(new TcpClientTransport(fd, options));
}

TcpClientTransport::~TcpClientTransport() {
  if (fd_ >= 0) ::close(fd_);
}

Status TcpClientTransport::Send(const uint8_t* data, size_t n) {
  const int64_t deadline = MonotonicNowMs() + options_.send_timeout_ms;
  size_t off = 0;
  while (off < n) {
    // MSG_NOSIGNAL: a server gone away surfaces as an EPIPE Status, not
    // as a SIGPIPE that kills the client process.
    ssize_t w = ::send(fd_, data + off, n - off, MSG_NOSIGNAL);
    if (w > 0) {
      off += static_cast<size_t>(w);
      continue;
    }
    if (w < 0 && errno != EAGAIN && errno != EWOULDBLOCK && errno != EINTR) {
      return Errno("send");
    }
    int rc = PollUntil(fd_, POLLOUT, deadline);
    if (rc == 0) return Status::OutOfRange("send timed out");
    if (rc < 0) return Errno("poll(send)");
  }
  return Status::OK();
}

Status TcpClientTransport::Receive(std::vector<uint8_t>* out) {
  const int64_t deadline = MonotonicNowMs() + options_.receive_timeout_ms;
  uint8_t buf[65536];
  for (;;) {
    ssize_t r = ::read(fd_, buf, sizeof(buf));
    if (r > 0) {
      out->insert(out->end(), buf, buf + r);
      return Status::OK();
    }
    if (r == 0) return Status::FailedPrecondition("connection closed by peer");
    if (errno != EAGAIN && errno != EWOULDBLOCK && errno != EINTR) return Errno("read");
    int rc = PollUntil(fd_, POLLIN, deadline);
    if (rc == 0) return Status::OutOfRange("receive timed out");
    if (rc < 0) return Errno("poll(receive)");
  }
}

}  // namespace senn::rpc
