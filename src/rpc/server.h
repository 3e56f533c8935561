// The standalone kNN query server runtime: `worker_threads` identical
// event loops, pipelined framing, batched dispatch.
//
// Every loop polls the shared listening socket and the stop pipe, and owns
// the connections it accepts; no socket, buffer or request ever crosses
// threads. When a loop reads a connection, it decodes every complete frame
// into the connection's backlog and answers the whole backlog inline as
// one dispatch GROUP through QueryService::AnswerGroup (one
// core::BatchServer call, so co-located queries share EINN traversals),
// then writes the reply bytes. A pipelined burst that arrives in one read
// is therefore one group, and since a connection is only read after its
// previous group was answered, replies come back in FIFO order per
// connection by construction.
//
// The engine is serialized by QueryService's lock, so loops answering
// groups at the same time queue there. Admission control counts those
// requests: when the server-wide count of requests being answered or
// waiting for the engine lock would exceed `max_inflight_requests`, the
// burst is load-shed with kOverloaded error replies (counted as rpc/shed in
// the metrics registry) instead of queueing without bound.
//
// Read-side backpressure bounds the bytes a connection can pin: one pass
// reads at most 64 KiB of request bytes, and a connection with more than
// 1 MiB of unsent reply bytes is not read again until the peer drains
// them.
//
// Framing errors are fail-stop per connection: the decoded-so-far requests
// are still answered, a kError frame describes the corruption, and the
// connection closes once its replies are flushed.
// A peer that shuts down its sending side is closed at once, unanswered.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "src/common/status.h"
#include "src/core/server.h"
#include "src/rpc/service.h"
#include "src/rpc/wire.h"

namespace senn::obs {
class MetricsRegistry;
}

namespace senn::rpc {

struct ServerOptions {
  /// Bind address; the default serves loopback only (tests, local bench).
  std::string bind_address = "127.0.0.1";
  /// 0 picks an ephemeral port (read it back via port() after Start()).
  uint16_t port = 0;
  /// Event-loop threads; each accepts, reads, answers and writes its own
  /// connections.
  int worker_threads = 2;
  /// Dispatch/batching knobs (QueryService).
  ServiceOptions service;
  /// Frame size cap applied per connection.
  size_t max_payload = kDefaultMaxPayload;
  /// Admission control: server-wide cap on requests being answered or
  /// waiting for the engine lock; a group that would exceed it is load-shed
  /// with kOverloaded replies. 0 disables.
  size_t max_inflight_requests = 4096;
  /// Listen backlog. While every loop is answering a group, nobody
  /// accepts, so the queue must absorb a burst of connects.
  int listen_backlog = 1024;
};

/// Snapshot of the server-level counters (the per-connection and engine
/// counters live in QueryService / MetricsRegistry).
struct ServerCounters {
  uint64_t connections_accepted = 0;
  uint64_t connections_closed = 0;
  uint64_t frames_received = 0;
  uint64_t groups_dispatched = 0;
  uint64_t requests_shed = 0;
  uint64_t framing_errors = 0;
};

class Server {
 public:
  /// `spatial` must outlive the server. `metrics`, when given, receives
  /// rpc/ + batch/ counters, all written by the QueryService under its
  /// lock; reads are only consistent while the server is stopped (a
  /// concurrent reader would race).
  Server(core::SpatialServer* spatial, ServerOptions options,
         obs::MetricsRegistry* metrics = nullptr);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds, listens, and spawns the event loops.
  Status Start();
  /// Stops the loops and closes every socket. Idempotent.
  void Stop();

  /// The bound port (valid after a successful Start()).
  uint16_t port() const { return port_; }
  QueryService& service() { return service_; }
  ServerCounters counters() const;

 private:
  struct Connection {
    int fd = -1;
    FrameDecoder decoder;
    /// Decoded requests awaiting the next group.
    std::vector<Frame> backlog;
    /// Reply bytes awaiting the socket.
    std::vector<uint8_t> outbuf;
    size_t out_off = 0;
    /// The kError frame of a framing error is queued; close once flushed.
    bool error_sent = false;

    explicit Connection(size_t max_payload) : decoder(max_payload) {}
  };

  /// Opens the non-blocking listening socket and reads back its port.
  Status Listen();
  void EventLoop();
  void AcceptReady(std::vector<Connection>* conns);
  /// Reads one buffer of bytes; returns false when the connection died.
  bool HandleReadable(Connection* conn);
  /// Answers the backlog as one group (or sheds it), then queues the kError
  /// frame of a framing error.
  void DispatchReady(Connection* conn);
  /// Writes as much of outbuf as the socket takes; returns false when the
  /// connection should be closed (write error, or drained after a framing
  /// error).
  bool FlushWrites(Connection* conn);
  void CloseConnection(Connection* conn);

  ServerOptions options_;
  /// The only writer of the metrics registry, shed counter included.
  QueryService service_;

  int listen_fd_ = -1;
  /// Written once by Stop() and never drained, so every loop's poll sees it.
  int stop_fds_[2] = {-1, -1};
  uint16_t port_ = 0;
  std::atomic<bool> running_{false};
  bool started_ = false;

  std::atomic<size_t> inflight_requests_{0};
  std::atomic<uint64_t> accepted_{0};
  std::atomic<uint64_t> closed_{0};
  std::atomic<uint64_t> frames_received_{0};
  std::atomic<uint64_t> groups_dispatched_{0};
  std::atomic<uint64_t> requests_shed_{0};
  std::atomic<uint64_t> framing_errors_{0};

  /// Declared last: the loops use every member above.
  std::vector<std::thread> loops_;
};

}  // namespace senn::rpc
