#include "src/core/continuous.h"

#include <cassert>
#include <utility>

#include "src/core/single_peer.h"

namespace senn::core {

const char* StepSourceName(StepSource s) {
  switch (s) {
    case StepSource::kOwnCache:
      return "own-cache";
    case StepSource::kSinglePeer:
      return "single-peer";
    case StepSource::kMultiPeer:
      return "multi-peer";
    case StepSource::kServer:
      return "server";
    case StepSource::kSafeRegion:
      return "safe-region";
    case StepSource::kPeerRegion:
      return "peer-region";
    case StepSource::kUncertain:
      return "uncertain";
    case StepSource::kStepSourceCount:
      break;
  }
  return "unknown";
}

Status ContinuousKnn::ValidateK(int k) {
  // Same convention (and message) as rpc::ValidateKnnRequest: a degenerate k
  // is the caller's bug, never silently answered as k = 1.
  if (k <= 0) return Status::InvalidArgument("k must be positive");
  return Status::OK();
}

ContinuousKnn::ContinuousKnn(const SennProcessor* senn, int k, ContinuousOptions options)
    : senn_(senn), k_(k), options_(options) {
  assert(ValidateK(k).ok() && "ContinuousKnn requires k >= 1; see ValidateK");
}

std::optional<StepResult> ContinuousKnn::TryLocal(geom::Vec2 position) {
  // Fastest path: inside the safe region's covered disk the known
  // member+rival set provably holds the whole top k — one arithmetic test,
  // then rank the known POIs at the new position. (For INSQ this is the
  // influential-set update: the ANSWER may change inside the horizon, the
  // exactness guarantee does not.)
  if (region_.CoversExact(position)) {
    ++stats_.steps;
    ++stats_.safe_region_hits;
    StepResult result;
    result.source = StepSource::kSafeRegion;
    result.neighbors = region_.TopKAt(position, k_);
    return result;
  }
  // Fast path: can the previous result still certify k neighbors here?
  // (The cache is an exact rank prefix at cache_.query_location, so
  // kNN_single against it is sound; no communication happens.)
  if (!cache_.Empty()) {
    CandidateHeap heap(k_);
    VerifySinglePeer(position, cache_, &heap);
    if (heap.HasCertain(k_)) {
      ++stats_.steps;
      ++stats_.own_cache_hits;
      StepResult result;
      result.source = StepSource::kOwnCache;
      result.neighbors.assign(heap.certain().begin(), heap.certain().begin() + k_);
      return result;
    }
  }
  return std::nullopt;
}

StepResult ContinuousKnn::ResolveWithPeers(
    geom::Vec2 position, const std::vector<const CachedResult*>& peer_caches,
    const std::vector<const SafeRegion*>& peer_regions) {
  ++stats_.steps;
  last_region_pages_ = 0;

  // A peer's safe region whose covered disk holds us and whose prefix is at
  // least our k answers exactly without any verification work: ranking its
  // known set at `position` is an exact rank prefix — adopt it as our new
  // cache and seed a client-side region from it.
  if (const SafeRegion* adopted = ChoosePeerRegion(position, peer_regions)) {
    ++stats_.peer_region_hits;
    StepResult result;
    result.source = StepSource::kPeerRegion;
    std::vector<RankedPoi> ranked = adopted->TopKAt(position, adopted->k());
    result.neighbors.assign(ranked.begin(), ranked.begin() + k_);
    cache_.query_location = position;
    cache_.neighbors = std::move(ranked);
    RebuildRegion(position, /*server_grade=*/false);
    result.region_pages = last_region_pages_;
    return result;
  }

  // Slow path: full SENN over the reachable peers (the own cache joins the
  // peer list — it may still contribute certain candidates).
  std::vector<const CachedResult*> peers = peer_caches;
  if (!cache_.Empty()) peers.push_back(&cache_);
  SennOutcome outcome = senn_->Execute(position, k_, peers);
  StepResult result;
  switch (outcome.resolution) {
    case Resolution::kSinglePeer:
      result.source = StepSource::kSinglePeer;
      ++stats_.peer_answers;
      break;
    case Resolution::kMultiPeer:
      result.source = StepSource::kMultiPeer;
      ++stats_.peer_answers;
      break;
    case Resolution::kUncertain:
      // Soundness: an uncertain outcome is best-effort (senn.h), so it must
      // surface as kUncertain — never disguised as a verified peer answer.
      result.source = StepSource::kUncertain;
      ++stats_.uncertain_answers;
      break;
    case Resolution::kServer:
      result.source = StepSource::kServer;
      ++stats_.server_answers;
      break;
  }
  result.neighbors = outcome.neighbors;
  result.einn_accesses = outcome.einn_accesses;
  result.peers_consulted = outcome.peers_consulted;
  // Refresh the rolling cache with the new certain prefix (cache policy 1),
  // then rebuild the safe region anchored at the answer position. Rival
  // fetches are only sound on server answers (the reply ships them).
  cache_.query_location = position;
  cache_.neighbors = outcome.certain_prefix;
  RebuildRegion(position, outcome.resolution == Resolution::kServer);
  result.region_pages = last_region_pages_;
  return result;
}

StepResult ContinuousKnn::Step(geom::Vec2 position,
                               const std::vector<const CachedResult*>& peer_caches,
                               const std::vector<const SafeRegion*>& peer_regions) {
  if (std::optional<StepResult> local = TryLocal(position)) return *std::move(local);
  return ResolveWithPeers(position, peer_caches, peer_regions);
}

void ContinuousKnn::Prime(const CachedResult& cache) {
  cache_ = cache;
  RebuildRegion(cache_.query_location, /*server_grade=*/true);
  // Priming models a result that already arrived (warm start); its rival
  // fetch rides on that original answer and is not charged to any step.
  last_region_pages_ = 0;
}

void ContinuousKnn::RebuildRegion(geom::Vec2 position, bool server_grade) {
  last_region_pages_ = 0;
  region_ = SafeRegion();
  if (options_.safe_region == SafeRegionMode::kOff) return;
  const std::vector<RankedPoi>& prefix = cache_.neighbors;
  if (options_.safe_region == SafeRegionMode::kInsq && server_grade &&
      prefix.size() >= static_cast<size_t>(k_) && senn_->link() != nullptr) {
    // INSQ rival fetch: every POI of the FULL table within d_k + 2*horizon
    // of the answer position (horizon = the prefix radius d_m). Logical
    // accesses only — the fetch piggybacks on the answering contact, so it
    // is reported as region_pages, not as an extra server query.
    const double d_k = prefix[static_cast<size_t>(k_) - 1].distance;
    const double horizon = prefix.back().distance;
    if (horizon > 0.0) {
      ServerReply rivals = senn_->link()->QueryRivals(position, d_k + 2.0 * horizon);
      last_region_pages_ = rivals.einn_accesses.total();
      region_ =
          SafeRegion::BuildInsq(position, prefix, k_, horizon, std::move(rivals.neighbors));
    }
  }
  if (!region_.Valid()) {
    // Client-only fallback (and the whole of kDisk mode): the order-k
    // bisector disk needs a certified prefix strictly longer than k.
    region_ = SafeRegion::BuildDisk(position, prefix, k_);
  }
  if (region_.Valid()) ++stats_.regions_built;
}

const SafeRegion* ContinuousKnn::ChoosePeerRegion(
    geom::Vec2 position, const std::vector<const SafeRegion*>& peer_regions) const {
  const SafeRegion* best = nullptr;
  for (const SafeRegion* r : peer_regions) {
    if (r == nullptr || r->k() < k_ || !r->CoversExact(position)) continue;
    if (best == nullptr) {
      best = r;
      continue;
    }
    // Permutation-invariant preference: the longer adoptable prefix, then
    // the closer region center, then lexicographic center coordinates.
    // Written as mirrored strict comparisons so ties fall through to the
    // next key without any floating-point equality test.
    if (r->k() > best->k()) {
      best = r;
      continue;
    }
    if (r->k() < best->k()) continue;
    const double dr = geom::Dist2(r->center(), position);
    const double db = geom::Dist2(best->center(), position);
    if (dr < db) {
      best = r;
      continue;
    }
    if (db < dr) continue;
    if (r->center().x < best->center().x) {
      best = r;
      continue;
    }
    if (best->center().x < r->center().x) continue;
    if (r->center().y < best->center().y) best = r;
  }
  return best;
}

}  // namespace senn::core
