// Client library of the kNN query server: blocking and pipelined APIs over
// any Transport.
//
// Blocking:
//   rpc::Client client(&transport);
//   Result<core::ServerReply> r = client.Knn({q, k, certified, bounds});
//   (RegionKnn and Rivals are the blocking calls of the other two requests.)
//
// Pipelined (the server batches a burst into shared traversals):
//   std::vector<uint64_t> ids;
//   for (const KnnRequest& req : burst) ids.push_back(client.SendKnn(req));
//   client.Flush();
//   for (uint64_t id : ids) Result<core::ServerReply> r = client.Wait(id);
//
// SendKnn only buffers; Flush pushes the encoded bytes to the transport in
// one Send (one syscall on TCP — the burst arrives together, which is what
// lets the server's event loop hand it to the engine as one group).
// Wait pumps the transport until the awaited request id's reply arrives,
// parking replies that belong to other in-flight ids; waiting in any order
// works, send order is cheapest (the server answers FIFO per connection).
//
// A kError reply surfaces as a non-OK Result whose Status mirrors the
// server's error code; transport and framing failures surface the same
// way. The client is single-threaded by design — one connection, one
// pipeline, like a simulator driving its server link.
#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "src/common/status.h"
#include "src/core/server.h"
#include "src/rpc/transport.h"
#include "src/rpc/wire.h"

namespace senn::rpc {

class Client {
 public:
  /// `transport` must outlive the client.
  explicit Client(Transport* transport, size_t max_payload = kDefaultMaxPayload)
      : transport_(transport), decoder_(max_payload) {}

  /// Blocking round trip: SendKnn + Flush + Wait.
  Result<core::ServerReply> Knn(const KnnRequest& request);
  /// Blocking round trips of the region kNN and rival requests.
  Result<core::ServerReply> RegionKnn(const RegionKnnRequest& request);
  Result<core::ServerReply> Rivals(const RivalRequest& request);

  /// Pipelined half-calls ----------------------------------------------------
  /// Encodes the request into the send buffer; returns its request id.
  uint64_t SendKnn(const KnnRequest& request);
  /// Pushes all buffered request bytes to the transport.
  Status Flush();
  /// Blocks until the reply for `request_id` arrives (flushing first).
  Result<core::ServerReply> Wait(uint64_t request_id);

  /// Liveness no-op round trip.
  Status Ping();

  /// Requests sent (or buffered) and not yet resolved by Wait.
  size_t inflight() const { return inflight_; }
  /// Request ids of every reply frame in arrival order, across the
  /// client's lifetime — the pipelined tests assert per-connection FIFO
  /// against this log.
  const std::vector<uint64_t>& reply_log() const { return reply_log_; }

 private:
  /// Reads transport bytes and files decoded reply frames until at least
  /// one new frame arrived.
  Status Pump();
  void FileFrame(Frame frame);
  /// Buffers one request frame via `encode`, then waits for its reply.
  template <class Request>
  Result<core::ServerReply> Call(
      const Request& request, void (*encode)(uint64_t, const Request&, std::vector<uint8_t>*));

  Transport* transport_;
  FrameDecoder decoder_;
  std::vector<uint8_t> outbox_;
  uint64_t next_id_ = 1;
  size_t inflight_ = 0;
  /// Completed kNN calls not yet claimed by Wait, keyed by request id.
  std::map<uint64_t, Result<core::ServerReply>> done_;
  /// Pong ids not yet claimed by Ping.
  std::map<uint64_t, bool> pongs_;
  std::vector<uint64_t> reply_log_;
};

}  // namespace senn::rpc
