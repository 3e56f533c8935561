// Transport-independent dispatch engine of the kNN query server.
//
// A `QueryService` is the seam every transport feeds: the TCP server's event
// loops and the deterministic loopback transport both hand it one *dispatch
// group* at a time — the frames a connection had pipelined by the time it
// was read — and receive the encoded reply bytes, in request order. One
// group's kNN requests are answered by ONE core::BatchServer call, so
// co-located queries inside a pipelined burst share EINN traversals,
// single-charge miss accounting included.
//
// Answer order within a group: the engine sees the group's region and
// rival requests first, one SpatialServer call each in arrival order, and
// then its kNN requests as one batch. Replies still leave in request
// order. Only a bounded pool's miss counters can tell the two orders apart,
// and the simulator's groups hold one request each.
//
// Protocol-boundary hardening happens here, before anything reaches the
// engine: undecodable payloads, unsupported opcodes, and semantically
// invalid requests (k <= 0, non-finite coordinates, inconsistent
// PruneBounds) each produce a well-formed kError reply in the request's
// slot — never a crash, never a silent empty result.
//
// Thread safety: AnswerGroup serializes on an internal mutex (the
// SpatialServer/BatchServer engine and the buffer pool underneath are
// single-threaded by contract), so any number of the server's event loops
// may call it concurrently; a loop whose group waits for the lock serves
// none of its other connections meanwhile. Reply ENCODING for a group also
// runs under the lock; it is microseconds against the traversal's page work,
// and keeping it inside makes the metrics registry updates race-free too.
#pragma once

#include <cstdint>
#include <mutex>
#include <vector>

#include "src/common/thread_annotations.h"
#include "src/core/batch_server.h"
#include "src/core/server.h"
#include "src/rpc/wire.h"

namespace senn::obs {
class MetricsRegistry;
class QueryTracer;
}  // namespace senn::obs

namespace senn::rpc {

struct ServiceOptions {
  /// Clustering knobs of the per-group shared traversals. The default
  /// batches up to core::BatchOptions::max_group (8) co-located requests;
  /// `max_group = 1` answers every request with a verbatim sequential
  /// QueryKnn call, which rpc::LoopbackLink sets explicitly.
  core::BatchOptions batch;
};

/// Cumulative dispatch counters (monotone; snapshot under the same lock as
/// AnswerGroup, so the numbers are mutually consistent).
struct ServiceStats {
  uint64_t groups = 0;
  uint64_t requests = 0;
  /// kKnnReply and kPong frames sent: knn + region + rival + pings.
  uint64_t replies = 0;
  uint64_t errors = 0;
  uint64_t pings = 0;
  /// Answered requests per opcode (kKnnRequest, kRegionKnnRequest,
  /// kRivalRequest).
  uint64_t knn = 0;
  uint64_t region = 0;
  uint64_t rival = 0;
};

class QueryService {
 public:
  /// `server` must outlive the service. `metrics`, when given, receives the
  /// "rpc/" dispatch counters and the "batch/" engine counters; it is
  /// updated only under the service lock and by no one else, so a registry
  /// may be shared with other single-threaded readers only after the
  /// service is idle.
  QueryService(core::SpatialServer* server, ServiceOptions options,
               obs::MetricsRegistry* metrics = nullptr);

  /// Answers one dispatch group: `frames` in arrival order, encoded reply
  /// frames appended to `*out` in the SAME order (per-connection FIFO is
  /// the transport contract, and it starts here). All decodable, valid kNN
  /// requests of the group are answered by one BatchServer::AnswerBatch
  /// call, after the region and rival requests (see the header comment);
  /// everything else gets its kError/kPong reply in place.
  ///
  /// `tracer` is an in-process observability side-band (rpc::LoopbackLink
  /// threads the simulator's span tracer through it); remote transports
  /// pass null.
  void AnswerGroup(const std::vector<Frame>& frames, std::vector<uint8_t>* out,
                   obs::QueryTracer* tracer = nullptr) SENN_EXCLUDES(mu_);

  /// Counts `n` requests the transport load-shed without engine work into
  /// the registry's "rpc/shed". Takes the service lock, the registry's one
  /// guard, so a shed on one event loop cannot race an answer on another.
  void RecordShed(size_t n) SENN_EXCLUDES(mu_);

  /// Engine batch counters (shared traversals, singleton delegations).
  core::BatchStats batch_stats() const SENN_EXCLUDES(mu_);
  ServiceStats stats() const SENN_EXCLUDES(mu_);
  const ServiceOptions& options() const { return options_; }

 private:
  ServiceOptions options_;
  obs::MetricsRegistry* metrics_ SENN_PT_GUARDED_BY(mu_);
  /// mu_ is the serialization boundary of the ENTIRE engine below: the
  /// BatchServer, the SpatialServer it wraps, and the storage::BufferPool
  /// underneath are single-threaded by contract and carry no locks of
  /// their own — every page fetch the engine performs happens inside this
  /// critical section, which is why senn_lint L9 need not look below rpc/.
  mutable std::mutex mu_;
  core::SpatialServer* server_ SENN_PT_GUARDED_BY(mu_);
  core::BatchServer batch_ SENN_GUARDED_BY(mu_);
  ServiceStats stats_ SENN_GUARDED_BY(mu_);
};

}  // namespace senn::rpc
