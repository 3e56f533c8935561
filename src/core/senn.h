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
class ScopedSpan;
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
  /// must be >= the user's k. Values below k are raised to k.
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
  /// subtree pruning (SpatialServer::QueryKnnWithRegion). Falls back to the
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
  /// Page accesses (valid when the server was contacted): the answering
  /// EINN traversal's, and the plain INN baseline's for the same query
  /// (SpatialServer::InnBaseline, the paper's Fig. 17 comparison).
  rtree::AccessCounter einn_accesses;
  rtree::AccessCounter inn_accesses;
  /// Verification work performed (for the ablation benches).
  VerifyStats single_peer_stats;
  VerifyStats multi_peer_stats;
  int peers_consulted = 0;
};

/// A SENN execution paused at the server boundary (the batched-answering
/// seam). `Prepare` runs every client-side stage; when the query needs the
/// scalar-protocol server contact it stops there with `needs_server` set and
/// the exact QueryKnn arguments captured, so a driver can group many pending
/// queries into one core::BatchServer call and hand each reply to `Finish`.
/// Queries resolved locally (and region-protocol contacts, which have no
/// batched path) come back complete with `needs_server` false.
struct PendingSenn {
  bool needs_server = false;
  SennOutcome outcome;
  /// The QueryKnn arguments (valid when needs_server): query point, the
  /// user's k, the heap capacity actually requested from the server, and the
  /// certified rank prefix backing outcome.bounds.
  geom::Vec2 q;
  int k = 0;
  int heap_capacity = 0;
  std::vector<RankedPoi> certain;
};

/// Executes SENN queries against a fixed server. The server must outlive the
/// processor. Thread-compatible (no shared mutable state besides the server).
class SennProcessor {
 public:
  SennProcessor(SpatialServer* server, SennOptions options);

  /// Runs Algorithm 1 for query point q and result size k over the given
  /// peer caches (nullptr / empty entries are ignored). `tracer`, when
  /// given, receives one span per executed stage (verify_single,
  /// verify_multi, heap_classify, server_einn); null is the zero-cost
  /// default. Exactly Prepare + QueryKnn + Finish: the split path with an
  /// immediate server call produces byte-identical outcomes and traces.
  SennOutcome Execute(geom::Vec2 q, int k,
                      const std::vector<const CachedResult*>& peer_caches,
                      obs::QueryTracer* tracer = nullptr) const;

  /// First half of Execute: all peer stages, heap classification, bounds
  /// computation, and any region-protocol contact. When the result has
  /// `needs_server` set, the caller owes a
  /// `server->QueryKnn(p.q, p.heap_capacity, p.outcome.bounds,
  /// p.certain.size())` reply (or a batched equivalent) passed to Finish.
  PendingSenn Prepare(geom::Vec2 q, int k,
                      const std::vector<const CachedResult*>& peer_caches,
                      obs::QueryTracer* tracer = nullptr) const;

  /// Second half of Execute: merges the server reply into the pending
  /// outcome (result sort, certified prefix, access counters) and measures
  /// the query's INN baseline. `span` is the ScopedSpan bracketing the
  /// server contact; it receives the server_einn args.
  void Finish(PendingSenn* pending, const ServerReply& reply, obs::ScopedSpan& span) const;

  /// Runs only the peer stages of Algorithm 1 (kNN_single, kNN_multiple —
  /// never the server) and reports whether the given peer set alone
  /// certifies a k answer. This is the partial-peer entry point: a caller
  /// whose harvest was truncated by the wireless channel can ask whether
  /// the complete peer set would have sufficed (classifying a server
  /// contact as loss-induced), without charging any page accesses.
  bool ResolvesLocally(geom::Vec2 q, int k,
                       const std::vector<const CachedResult*>& peer_caches) const;

  const SennOptions& options() const { return options_; }
  /// The server this processor queries — server-assisted extensions (the
  /// INSQ safe-region rival fetch in continuous.cc) piggyback structures
  /// computed from the full POI table on an answering contact.
  SpatialServer* server() const { return server_; }

 private:
  /// Drops null/empty caches and applies the Heuristic 3.3 ordering.
  std::vector<const CachedResult*> UsablePeers(
      geom::Vec2 q, const std::vector<const CachedResult*>& peer_caches) const;

  SpatialServer* server_;
  SennOptions options_;
};

}  // namespace senn::core
