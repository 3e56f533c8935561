// Deterministic in-process transport: the tier-1 contract of the rpc
// subsystem.
//
// LoopbackTransport connects an rpc::Client to a QueryService without a
// socket, but WITH the full wire path: Send() runs the server-side frame
// decoder over the exact bytes the client encoded, and the first Receive()
// after a burst dispatches everything decoded so far as ONE group through
// QueryService::AnswerGroup — precisely how the TCP server's event loop
// answers everything one read of a connection decoded, made synchronous
// and deterministic. Replies come back as encoded bytes the client's own
// decoder parses.
//
// Consequences:
//   * a blocking Client::Knn call is a group of one — a verbatim
//     sequential SpatialServer::QueryKnn, bitwise reply and accounting,
//     which the simulator's --server-transport loopback relies on;
//   * a pipelined burst (SendKnn x n, then Wait) is a group of n — one
//     BatchServer::AnswerBatch over the n requests in send order;
//   * two identical byte streams produce identical reply bytes; nothing
//     depends on threads, timing, or the wall clock.
//
// Malformed input mirrors the TCP server: the offending Send still returns
// OK (the bytes were accepted), a kError reply frame is queued for the
// client, and the transport poisons — later Sends fail like writes on a
// closed connection.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/rpc/service.h"
#include "src/rpc/transport.h"
#include "src/rpc/wire.h"

namespace senn::obs {
class QueryTracer;
}

namespace senn::rpc {

class LoopbackTransport : public Transport {
 public:
  /// `service` must outlive the transport.
  explicit LoopbackTransport(QueryService* service, size_t max_payload = kDefaultMaxPayload)
      : service_(service), decoder_(max_payload) {}

  Status Send(const uint8_t* data, size_t n) override;
  Status Receive(std::vector<uint8_t>* out) override;

  /// In-process observability side-band for the NEXT dispatches: the
  /// simulator threads its span tracer through here, so buffer_fetch spans
  /// keep working over loopback. Sticky until changed; pass null to detach.
  /// Remote transports have no equivalent — this is exactly the
  /// observability a process boundary would cost.
  void SetTracer(obs::QueryTracer* tracer) { tracer_ = tracer; }

  /// Requests decoded and awaiting the next Receive()'s dispatch.
  size_t pending_requests() const { return pending_.size(); }

 private:
  QueryService* service_;
  FrameDecoder decoder_;
  std::vector<Frame> pending_;
  std::vector<uint8_t> inbox_;
  bool poisoned_ = false;
  /// Framing-error description awaiting its kError reply.
  std::string framing_error_;
  bool error_emitted_ = false;
  obs::QueryTracer* tracer_ = nullptr;
};

}  // namespace senn::rpc
