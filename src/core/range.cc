#include "src/core/range.h"

#include <algorithm>
#include <unordered_set>

#include "src/geom/disk_cover.h"

namespace senn::core {

const char* RangeResolutionName(RangeResolution r) {
  switch (r) {
    case RangeResolution::kSinglePeer:
      return "single-peer";
    case RangeResolution::kMultiPeer:
      return "multi-peer";
    case RangeResolution::kServer:
      return "server";
  }
  return "unknown";
}

RangeProcessor::RangeProcessor(SpatialServer* server, RangeOptions options)
    : server_(server), options_(options) {}

std::vector<RankedPoi> PrunedCircleQuery(const rtree::PackedTree& tree, geom::Vec2 q,
                                         double radius, double inner,
                                         rtree::AccessCounter* counter,
                                         rtree::NodePageHook* hook, size_t max_results) {
  std::vector<RankedPoi> out;
  std::vector<rtree::NodeId> stack{rtree::PackedTree::root()};
  while (!stack.empty() && out.size() < max_results) {
    const rtree::NodeId id = stack.back();
    stack.pop_back();
    const bool pinned = rtree::ChargeNodeAccess(tree, id, counter, hook);
    const rtree::PackedTree::Node& node = tree.node(id);
    if (node.IsLeaf()) {
      for (const rtree::ObjectEntry& o : tree.objects(node)) {
        double d = geom::Dist(q, o.position);
        // The inner exclusion is strict (POIs exactly at the certain radius
        // are the client's own boundary neighbors), but an inner of 0 means
        // "nothing known" and must not drop a POI at the query point itself.
        if (d <= radius && (inner <= 0.0 || d > inner)) {
          out.push_back({o.id, o.position, d});
          if (out.size() == max_results) break;
        }
      }
    } else {
      for (const rtree::PackedTree::Branch& b : tree.branches(node)) {
        if (b.mbr.MinDist(q) > radius) continue;  // fully outside
        if (b.mbr.MaxDist(q) < inner) continue;   // fully known already
        stack.push_back(b.child);
      }
    }
    if (pinned) hook->Unpin(id);
  }
  std::sort(out.begin(), out.end(),
            [](const RankedPoi& a, const RankedPoi& b) { return RanksBefore(a, b); });
  return out;
}

RangeOutcome RangeProcessor::Execute(
    geom::Vec2 q, double radius,
    const std::vector<const CachedResult*>& peer_caches) const {
  RangeOutcome outcome;
  geom::Circle query_disk(q, radius);

  // Collect peer disks and the deduplicated known POIs within the radius.
  std::vector<geom::Circle> region;
  std::vector<RankedPoi> known_in_range;
  std::unordered_set<PoiId> seen;
  bool single_peer_covers = false;
  for (const CachedResult* peer : peer_caches) {
    if (peer == nullptr || peer->Empty()) continue;
    ++outcome.peers_consulted;
    geom::Circle disk(peer->query_location, peer->Radius());
    single_peer_covers |= disk.ContainsCircle(query_disk);
    region.push_back(disk);
    for (const RankedPoi& n : peer->neighbors) {
      if (!seen.insert(n.id).second) continue;
      double d = geom::Dist(q, n.position);
      if (d <= radius) known_in_range.push_back({n.id, n.position, d});
    }
  }
  std::sort(known_in_range.begin(), known_in_range.end(),
            [](const RankedPoi& a, const RankedPoi& b) { return RanksBefore(a, b); });

  // Completeness check: is the query disk covered by the certain region?
  if (!region.empty() && geom::DiskCoveredByUnion(query_disk, region)) {
    outcome.resolution =
        single_peer_covers ? RangeResolution::kSinglePeer : RangeResolution::kMultiPeer;
    outcome.certain_radius = radius;
    outcome.pois = std::move(known_in_range);
    return outcome;
  }

  // Partial answer: the largest certain radius becomes the server's inner
  // pruning disk; everything within it is already known and complete.
  outcome.resolution = RangeResolution::kServer;
  double rho = region.empty()
                   ? 0.0
                   : geom::MaxCoveredRadius(q, region, radius, options_.radius_precision);
  outcome.certain_radius = rho;

  ServerReply reply = server_->QueryRange(q, radius, rho);
  std::vector<RankedPoi> fresh = std::move(reply.neighbors);
  outcome.pruned_accesses = reply.einn_accesses;
  // Comparison run: the same scan without the certain disk, off the pool.
  PrunedCircleQuery(server_->tree(), q, radius, 0.0, &outcome.plain_accesses);

  // Merge: known POIs within rho are complete; known POIs beyond rho may
  // duplicate fresh server results (dedup by id).
  std::vector<RankedPoi> merged;
  std::unordered_set<PoiId> in_answer;
  for (const RankedPoi& n : known_in_range) {
    if (n.distance <= rho && in_answer.insert(n.id).second) merged.push_back(n);
  }
  for (const RankedPoi& n : fresh) {
    if (in_answer.insert(n.id).second) merged.push_back(n);
  }
  std::sort(merged.begin(), merged.end(),
            [](const RankedPoi& a, const RankedPoi& b) { return RanksBefore(a, b); });
  outcome.pois = std::move(merged);
  return outcome;
}

}  // namespace senn::core
