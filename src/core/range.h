// Sharing-based range queries (SRQ) — the paper's stated future work
// ("We plan to extend our work to investigate other types of spatial
// queries, such as range ... searches"), built from the same primitives.
//
// A range query asks for ALL POIs within radius r of the query host Q.
// Membership of a known POI is trivially certain (its position is cached);
// the hard part is COMPLETENESS: the answer may be returned locally iff the
// query disk C(Q, r) is fully covered by the certain region R_c — then
// every POI in C(Q, r) lies inside some peer's fully-known disk and is
// therefore already cached.
//
// When coverage fails, the query goes to the server carrying a *certain
// radius* rho = the largest radius around Q that R_c does cover: the server
// skips everything within rho (downward pruning, exactly like EINN's lower
// bound) and the client merges its locally-known prefix.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/core/server.h"
#include "src/core/types.h"
#include "src/geom/circle.h"
#include "src/rtree/packed_tree.h"

namespace senn::core {

/// How a range query was resolved.
enum class RangeResolution {
  kSinglePeer = 0,  // one peer disk covered the whole query disk
  kMultiPeer = 1,   // the merged region covered it
  kServer = 2,      // completeness required the server
};

const char* RangeResolutionName(RangeResolution r);

/// Outcome of one sharing-based range query.
struct RangeOutcome {
  RangeResolution resolution = RangeResolution::kServer;
  /// All POIs within the query radius, ascending by distance. Exact.
  std::vector<RankedPoi> pois;
  /// The locally-certain radius rho (meters) around Q; 0 when nothing was
  /// verifiable. pois within rho came from peers even on the server path.
  double certain_radius = 0.0;
  /// Pages the server's pruned scan touched (server path only), and the
  /// pages the same scan needs without the certain-radius pruning (a
  /// comparison the processor measures itself, off the buffer pool).
  rtree::AccessCounter pruned_accesses;
  rtree::AccessCounter plain_accesses;
  int peers_consulted = 0;
};

/// Options for the range processor.
struct RangeOptions {
  /// Precision (meters) of the certain-radius bisection.
  double radius_precision = 0.5;
};

/// Executes sharing-based range queries against a fixed server.
class RangeProcessor {
 public:
  RangeProcessor(SpatialServer* server, RangeOptions options = {});

  /// All POIs within `radius` of q, harvesting the given peer caches first.
  RangeOutcome Execute(geom::Vec2 q, double radius,
                       const std::vector<const CachedResult*>& peer_caches) const;

  const RangeOptions& options() const { return options_; }

 private:
  SpatialServer* server_;
  RangeOptions options_;
};

/// Server-side circle query with a "known inner disk" exclusion: returns all
/// POIs with inner < dist <= radius, pruning subtrees fully inside the inner
/// disk (MAXDIST < inner) or fully outside the query disk (MINDIST >
/// radius). Exposed for tests and the server facade. When `hook` is set the
/// scan fetches each visited node through the storage engine (pinning the
/// page for the duration of the entry scan), and the counter additionally
/// records physical misses. The scan stops once `max_results` POIs are
/// found; the result then holds the first `max_results` in tree-walk order.
std::vector<RankedPoi> PrunedCircleQuery(const rtree::PackedTree& tree, geom::Vec2 q,
                                         double radius, double inner,
                                         rtree::AccessCounter* counter = nullptr,
                                         rtree::NodePageHook* hook = nullptr,
                                         size_t max_results = SIZE_MAX);

}  // namespace senn::core
