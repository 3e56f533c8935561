// Continuous kNN for a moving query point (k-NNMP), built on the sharing
// machinery. The related-work section of the paper contrasts naive
// multi-step search (re-issuing a kNN query at every sampled position) with
// approaches that reuse prior results; this module packages the paper's own
// mechanism as a continuous-query API with a safe-region fast path in the
// spirit of INSQ (PAPERS.md): as the host moves, each answered query also
// yields a validity region whose covered disk guarantees the top-k locally
// computable (and whose inner cell guarantees it unchanged), so a step
// inside the region costs pure arithmetic — no heap, no communication. When
// the region test fails, the previous result still acts
// as a "peer cache" with a growing delta and Lemma 3.2 decides locally
// whether it certifies the current top k; only then does the host fall back
// to the full SENN pipeline (peers, then server) and refresh both cache and
// region.
//
// Exactness contract: every StepResult except StepSource::kUncertain carries
// the exact top-k at the step position. kUncertain can only occur when the
// underlying SennProcessor was built with `accept_uncertain = true` — its
// neighbors are best-effort (senn.h), and exact continuous operation
// REQUIRES `accept_uncertain = false`. The stats count uncertain steps
// separately so an accept_uncertain run can report how many of its answers
// were unverified.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "src/common/status.h"
#include "src/core/safe_region.h"
#include "src/core/senn.h"
#include "src/core/types.h"

namespace senn::core {

/// Who answered one continuous-query step. Numeric values are wire/report
/// stable; new sources append.
enum class StepSource {
  kOwnCache = 0,    // certified from the host's own previous result; no I/O
  kSinglePeer = 1,  // SENN: a peer cache certified it
  kMultiPeer = 2,   // SENN: the merged peer region certified it
  kServer = 3,      // SENN fell through to the server
  kSafeRegion = 4,  // inside the host's own safe region; pure arithmetic
  kPeerRegion = 5,  // inside a safe region shared by a peer
  kUncertain = 6,   // SENN accepted an unverified answer (best-effort!)
  kStepSourceCount = 7,
};

const char* StepSourceName(StepSource s);

/// Continuous-query tuning.
struct ContinuousOptions {
  /// Which safe-region construction to maintain after each resolved step.
  /// kInsq additionally fetches the rival set from the server's POI table on
  /// server-answered steps (riding on the reply; counted as region_pages)
  /// and degrades to the client-only disk when no server contact happens.
  SafeRegionMode safe_region = SafeRegionMode::kOff;
};

/// Result of one step of the continuous query.
struct StepResult {
  StepSource source = StepSource::kServer;
  /// Top-k at the step's position, ascending. Exact unless source ==
  /// StepSource::kUncertain (see the header contract).
  std::vector<RankedPoi> neighbors;
  /// Server page accesses (kServer steps only).
  rtree::AccessCounter einn_accesses;
  /// Logical R*-tree accesses of the INSQ rival fetch (server-answered
  /// steps in kInsq mode only).
  uint64_t region_pages = 0;
  /// Peers SENN consulted on this step (0 on local steps).
  int peers_consulted = 0;
};

/// Lifetime counters for a continuous query. Invariant:
/// steps == safe_region_hits + peer_region_hits + own_cache_hits
///        + peer_answers + uncertain_answers + server_answers.
struct ContinuousStats {
  uint64_t steps = 0;
  uint64_t safe_region_hits = 0;
  uint64_t peer_region_hits = 0;
  uint64_t own_cache_hits = 0;
  uint64_t peer_answers = 0;       // kSinglePeer + kMultiPeer
  uint64_t uncertain_answers = 0;  // best-effort steps (accept_uncertain)
  uint64_t server_answers = 0;
  /// Valid safe regions installed (== the steps whose Area() is worth
  /// sampling for a mean-region-area metric).
  uint64_t regions_built = 0;
};

/// A continuous k-nearest-neighbor query attached to one moving host.
///
/// Call Step() at every sampled position (with whatever peer caches and peer
/// safe regions are in radio range there). Step is TryLocal() then
/// ResolveWithPeers(); drivers that must know whether communication is
/// needed BEFORE harvesting peers (the simulator's exchange protocol) call
/// the two halves directly.
class ContinuousKnn {
 public:
  /// Rejects degenerate result sizes, matching rpc::ValidateKnnRequest's
  /// convention. Callers constructing from untrusted input validate first;
  /// the constructor asserts the same precondition.
  static Status ValidateK(int k);

  /// `senn` must outlive this object; its link serves every server contact.
  /// `k` is fixed for the query's lifetime and must be >= 1 (see ValidateK)
  /// — invalid k is a programming error here, not silently clamped.
  ContinuousKnn(const SennProcessor* senn, int k, ContinuousOptions options = {});

  /// The zero-communication half of a step: the safe region first (one
  /// arithmetic test), then the Lemma 3.2 recheck of the own cache. Returns
  /// nullopt when neither certifies — the caller then harvests peers and
  /// calls ResolveWithPeers with the SAME position.
  std::optional<StepResult> TryLocal(geom::Vec2 position);

  /// The communicating half: adoptable peer safe regions first (a region
  /// with k() >= our k containing `position` answers exactly, chosen
  /// deterministically independent of list order), then full SENN over the
  /// peer caches (the own cache joins the peer list). Refreshes the cache
  /// and rebuilds the safe region.
  StepResult ResolveWithPeers(
      geom::Vec2 position, const std::vector<const CachedResult*>& peer_caches = {},
      const std::vector<const SafeRegion*>& peer_regions = {});

  /// Advances the query to `position`: TryLocal, else ResolveWithPeers.
  StepResult Step(geom::Vec2 position,
                  const std::vector<const CachedResult*>& peer_caches = {},
                  const std::vector<const SafeRegion*>& peer_regions = {});

  /// Seeds the rolling cache from an externally-answered result (e.g. the
  /// simulator's warm start). `cache.neighbors` must be an exact rank prefix
  /// at `cache.query_location`; the safe region is rebuilt as if a server
  /// answer had just landed there.
  void Prime(const CachedResult& cache);

  const ContinuousStats& stats() const { return stats_; }
  /// What this host shares with peers: the rolling certified result. Its
  /// `query_location` is the position of the last RESOLVING step (the anchor
  /// of the prefix) — deliberately NOT advanced by local fast-path steps,
  /// which add no information; the anchor plus Radius() still bounds exactly
  /// the fully-known disk (the CachedResult invariant peers rely on).
  const CachedResult& shared_cache() const { return cache_; }
  /// The current safe region (possibly invalid), also shareable with peers.
  const SafeRegion& safe_region() const { return region_; }
  int k() const { return k_; }
  const ContinuousOptions& options() const { return options_; }

 private:
  /// Rebuilds region_ from the freshly-refreshed cache_ anchored at
  /// `position`. `server_grade` marks answers whose prefix came from the
  /// server (rival fetches are only sound there — the answering contact
  /// ships them); sets last_region_pages_.
  void RebuildRegion(geom::Vec2 position, bool server_grade);

  /// Deterministic choice among adoptable peer regions (Valid, k() >= k_,
  /// CoversExact(position)): prefer larger k(), then smaller center distance,
  /// then smaller center coordinates — invariant under list permutation.
  const SafeRegion* ChoosePeerRegion(
      geom::Vec2 position, const std::vector<const SafeRegion*>& peer_regions) const;

  const SennProcessor* senn_;
  int k_;
  ContinuousOptions options_;
  CachedResult cache_;
  SafeRegion region_;
  uint64_t last_region_pages_ = 0;
  ContinuousStats stats_;
};

}  // namespace senn::core
