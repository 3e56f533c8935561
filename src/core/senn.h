// SENN — Sharing-based Euclidean distance Nearest Neighbor query
// (Algorithm 1 of the paper).
//
// Given the cached results collected from reachable peers, SENN:
//   1. sorts them by the distance of their cached query locations to Q
//      (Heuristic 3.3),
//   2. runs kNN_single over each peer in order, stopping as soon as k
//      certain objects are in the heap,
//   3. otherwise runs kNN_multiple over the merged certain region,
//   4. otherwise (optionally) accepts an uncertain answer, and finally
//   5. forwards the query to the spatial database server together with the
//      branch-expanding bounds derived from the heap state (Section 3.3),
//      merging the server's reply with the locally certified prefix.
#pragma once

#include <vector>

#include "src/core/candidate_heap.h"
#include "src/core/multi_peer.h"
#include "src/core/server.h"
#include "src/core/single_peer.h"
#include "src/core/types.h"

namespace senn::obs {
class QueryTracer;
}

namespace senn::core {

/// How a query was ultimately resolved (the classification the paper's
/// Figures 9-16 report).
enum class Resolution {
  kSinglePeer = 0,   // answered via kNN_single
  kMultiPeer = 1,    // answered via kNN_multiple
  kUncertain = 2,    // client accepted an unverified (uncertain) answer
  kServer = 3,       // forwarded to the spatial database server
};

const char* ResolutionName(Resolution r);

/// SENN tuning parameters.
struct SennOptions {
  /// Heap capacity / number of POIs requested from the server. Per the
  /// paper's cache policy 2 this is usually the cache capacity C_Size, which
  /// must be >= the user's k. Values below k are raised to k (HeapCapacity).
  int server_request_k = 10;
  /// Accept a full heap of (partly) uncertain candidates instead of asking
  /// the server (Algorithm 1, line 15). Off by default: the simulation
  /// measures server load under exact answers.
  bool accept_uncertain = false;
  /// Multi-peer verification configuration.
  MultiPeerOptions multi_peer;
  /// Skip the kNN_multiple stage entirely (ablation switch).
  bool enable_multi_peer = true;
  /// Process peers in Heuristic 3.3 order (ablation switch; off = given order).
  bool sort_peers = true;
  /// Stop consulting peers as soon as k certain objects are verified. Saves
  /// verification work (what Heuristic 3.3 is for) at the cost of a thinner
  /// cached prefix. Off by default: Algorithm 1 processes every peer, and
  /// fatter caches help the neighborhood.
  bool early_exit = false;
  /// Extension beyond the paper: when the heap is full (an upper bound
  /// exists), ship the entire certain region R_c (the peer disks) to the
  /// server instead of only the scalar bounds, enabling region-covered
  /// subtree pruning (ServerLink::QueryKnnWithRegion). Falls back to the
  /// scalar protocol when no upper bound is available. Off by default: the
  /// paper's protocol ships two scalars.
  bool ship_region = false;
};

/// Outcome of one SENN execution.
struct SennOutcome {
  Resolution resolution = Resolution::kServer;
  /// Final neighbors, ascending by distance to Q. Exactly the true top-k
  /// unless resolution == kUncertain (then candidates are best-effort) or
  /// the database holds fewer than k POIs.
  std::vector<RankedPoi> neighbors;
  /// All certain objects discovered (a rank prefix, possibly longer than k);
  /// this is what the host caches afterwards.
  std::vector<RankedPoi> certain_prefix;
  /// Heap state just before the server was contacted (kSolved otherwise).
  HeapState heap_state = HeapState::kEmpty;
  /// Bounds shipped to the server (empty unless resolution == kServer).
  rtree::PruneBounds bounds;
  /// Page accesses of the answering server traversal (valid when the
  /// server was contacted).
  rtree::AccessCounter einn_accesses;
  /// Verification work performed (for the ablation benches).
  VerifyStats single_peer_stats;
  VerifyStats multi_peer_stats;
  int peers_consulted = 0;
};

/// A SENN execution paused at the server boundary (the batched-answering
/// seam). `Prepare` runs every client-side stage and never contacts the
/// server: when the query needs it, it stops there with `needs_server` set
/// and the request captured, so a driver can answer it (Contact, or for the
/// scalar protocol a core::BatchServer call grouping many pending queries)
/// and hand the reply to `Finish`. Queries resolved locally come back
/// complete with `needs_server` false.
struct PendingSenn {
  bool needs_server = false;
  SennOutcome outcome;
  /// The request (valid when needs_server): query point, the user's k, the
  /// heap capacity requested from the server, and the POIs the client knows
  /// (the certified prefix backing outcome.bounds, or under the region
  /// protocol every POI the peers cached).
  geom::Vec2 q;
  int k = 0;
  int heap_capacity = 0;
  std::vector<RankedPoi> certain;
  /// R_c (at most kMaxRegionDisks peer disks) under the region protocol,
  /// whose horizon is *outcome.bounds.upper; empty under the scalar one.
  std::vector<geom::Circle> region;
};

/// Executes SENN queries against a fixed server link. The link must outlive
/// the processor. Thread-compatible (no shared mutable state but the link).
class SennProcessor {
 public:
  SennProcessor(ServerLink* link, SennOptions options);

  /// Runs Algorithm 1 for query point q and result size k over the given
  /// peer caches (nullptr / empty entries are ignored). `tracer`, when
  /// given, receives one span per executed stage (verify_single,
  /// verify_multi, heap_classify, server_einn); null is the zero-cost
  /// default. Exactly Prepare + Contact + Finish.
  SennOutcome Execute(geom::Vec2 q, int k,
                      const std::vector<const CachedResult*>& peer_caches,
                      obs::QueryTracer* tracer = nullptr) const;

  /// First half of Execute: all peer stages, heap classification and the
  /// server request. Never contacts the server.
  PendingSenn Prepare(geom::Vec2 q, int k,
                      const std::vector<const CachedResult*>& peer_caches,
                      obs::QueryTracer* tracer = nullptr) const;

  /// The contact a pending query owes (needs_server set), through the link:
  /// QueryKnn, or QueryKnnWithRegion under the region protocol; `tracer` gets its spans.
  ServerReply Contact(const PendingSenn& pending, obs::QueryTracer* tracer = nullptr) const;

  /// Second half of Execute: merges the server reply into the pending
  /// outcome (result sort, certified prefix, access counters).
  void Finish(PendingSenn* pending, const ServerReply& reply) const;

  /// Runs only the peer stages of Algorithm 1 (kNN_single, kNN_multiple —
  /// never the server) and reports whether the given peer set alone
  /// certifies a k answer. This is the partial-peer entry point: a caller
  /// whose harvest was truncated by the wireless channel can ask whether
  /// the complete peer set would have sufficed (classifying a server
  /// contact as loss-induced), without charging any page accesses.
  bool ResolvesLocally(geom::Vec2 q, int k,
                       const std::vector<const CachedResult*>& peer_caches) const;

  const SennOptions& options() const { return options_; }
  /// The heap size of a k query, and the POIs its server contact requests.
  int HeapCapacity(int k) const;
  /// The link every server contact takes (continuous.cc's rival fetch too).
  ServerLink* link() const { return link_; }

 private:
  /// Drops null/empty caches and applies the Heuristic 3.3 ordering.
  std::vector<const CachedResult*> UsablePeers(
      geom::Vec2 q, const std::vector<const CachedResult*>& peer_caches) const;

  ServerLink* link_;
  SennOptions options_;
};

}  // namespace senn::core
