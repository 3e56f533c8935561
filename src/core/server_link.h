// The client's one seam to the spatial database server.
//
// Everything a client-side processor asks of the server crosses this
// interface: the kNN query with the heap's pruning bounds (Algorithm 1),
// the region-aware kNN of the ship_region extension, and the INSQ rival
// fetch of continuous queries. core::SpatialServer implements it directly;
// rpc::LoopbackLink implements it over the wire (src/rpc/loopback.h), which
// is how the simulator reaches its server. Client code holds a ServerLink*
// and never learns which one it talks to.
#pragma once

#include <vector>

#include "src/core/types.h"
#include "src/geom/circle.h"
#include "src/geom/vec2.h"
#include "src/rtree/knn.h"

namespace senn::obs {
class QueryTracer;
}

namespace senn::core {

/// The most disks of R_c one region request carries. A client has one disk
/// per consulted peer, and the server's per-node coverage test grows
/// steeply with the disks, so the wire takes a fixed few: SennProcessor
/// ships those of the first peers in consult order (the nearest, under
/// Heuristic 3.3), a subset of R_c still fully known, and rpc refuses
/// longer regions.
inline constexpr int kMaxRegionDisks = 64;

/// One server reply.
struct ServerReply {
  /// Neighbors found by EINN, ascending by distance. When a lower bound was
  /// supplied, POIs at distance <= lower are omitted (the client certified
  /// them locally and merges them back).
  std::vector<RankedPoi> neighbors;
  /// Page accesses of the answering (EINN) run.
  rtree::AccessCounter einn_accesses;

  /// Memberwise (bitwise for distances) equality; the rpc layer's
  /// loopback-determinism tests compare transported replies against the
  /// direct SpatialServer result with it.
  bool operator==(const ServerReply&) const = default;
};

/// The server calls a client can make. See core::SpatialServer for the
/// semantics of each; `tracer`, when given, receives the server's spans.
class ServerLink {
 public:
  ServerLink() = default;
  ServerLink(const ServerLink&) = delete;
  ServerLink& operator=(const ServerLink&) = delete;
  virtual ~ServerLink() = default;

  /// kNN with the client's pruning bounds (SpatialServer::QueryKnn).
  virtual ServerReply QueryKnn(geom::Vec2 q, int k, rtree::PruneBounds bounds,
                               int already_certified, obs::QueryTracer* tracer) = 0;
  /// kNN outside the client's certain region R_c, within `horizon`
  /// (SpatialServer::QueryKnnWithRegion).
  virtual ServerReply QueryKnnWithRegion(geom::Vec2 q, int k, double horizon,
                                         const std::vector<geom::Circle>& region,
                                         obs::QueryTracer* tracer) = 0;
  /// Every POI within `radius` of q (SpatialServer::QueryRivals).
  virtual ServerReply QueryRivals(geom::Vec2 q, double radius) = 0;
};

}  // namespace senn::core
