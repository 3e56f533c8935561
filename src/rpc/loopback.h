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
//     sequential SpatialServer::QueryKnn, bitwise reply and accounting
//     (likewise RegionKnn and Rivals), which LoopbackLink relies on;
//   * a pipelined burst (SendKnn x n, then Wait) is a group of n — one
//     BatchServer::AnswerBatch over the n requests in send order;
//   * two identical byte streams produce identical reply bytes; nothing
//     depends on threads, timing, or the wall clock.
//
// LoopbackLink packages the three for the simulator: it is the
// core::ServerLink through which every simulator contact reaches its
// server, over the full wire path.
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
#include "src/core/server.h"
#include "src/core/server_link.h"
#include "src/rpc/client.h"
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

/// A core::ServerLink over the wire: each call is one blocking
/// rpc::Client round trip over a LoopbackTransport into a QueryService that
/// answers groups of one (max_group = 1), so every reply, and the server's
/// pool and stats, are bitwise those of the direct SpatialServer call. The
/// tracer of each call is threaded through the transport, so the server's
/// spans (buffer_fetch) land in the caller's trace.
///
/// The engine only emits valid requests over a transport that cannot drop
/// bytes, and the simulator checks up front that every reply fits one frame
/// (sim::ValidateServerLimits). A call that still fails (a rival set of more
/// than kMaxKnnK POIs) aborts the process with the server's error: there is
/// no answer the caller could go on with.
class LoopbackLink final : public core::ServerLink {
 public:
  /// `server` must outlive the link.
  explicit LoopbackLink(core::SpatialServer* server);

  core::ServerReply QueryKnn(geom::Vec2 q, int k, rtree::PruneBounds bounds,
                             int already_certified, obs::QueryTracer* tracer) override;
  core::ServerReply QueryKnnWithRegion(geom::Vec2 q, int k, double horizon,
                                       const std::vector<geom::Circle>& region,
                                       obs::QueryTracer* tracer) override;
  core::ServerReply QueryRivals(geom::Vec2 q, double radius) override;

  /// Dispatch counters of the service behind the link.
  ServiceStats stats() const { return service_.stats(); }

 private:
  /// Runs `call` with `tracer` attached to the transport and unwraps it.
  template <class Call>
  core::ServerReply Traced(obs::QueryTracer* tracer, Call&& call);

  QueryService service_;
  LoopbackTransport transport_;
  Client client_;
};

}  // namespace senn::rpc
