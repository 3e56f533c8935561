#include "src/core/senn.h"

#include <algorithm>
#include <unordered_set>

#include "src/obs/trace.h"

namespace senn::core {

const char* ResolutionName(Resolution r) {
  switch (r) {
    case Resolution::kSinglePeer:
      return "single-peer";
    case Resolution::kMultiPeer:
      return "multi-peer";
    case Resolution::kUncertain:
      return "uncertain";
    case Resolution::kServer:
      return "server";
  }
  return "unknown";
}

SennProcessor::SennProcessor(ServerLink* link, SennOptions options)
    : link_(link), options_(options) {}

int SennProcessor::HeapCapacity(int k) const { return std::max(k, options_.server_request_k); }

std::vector<const CachedResult*> SennProcessor::UsablePeers(
    geom::Vec2 q, const std::vector<const CachedResult*>& peer_caches) const {
  // Heuristic 3.3: consult peers whose cached query locations are closest
  // to Q first.
  std::vector<const CachedResult*> peers;
  peers.reserve(peer_caches.size());
  for (const CachedResult* p : peer_caches) {
    if (p != nullptr && !p->Empty()) peers.push_back(p);
  }
  if (options_.sort_peers) {
    // Consult-order heuristic, not a result order: peers carry no POI id to
    // tie-break on, so a stable sort pins co-distant peers to their
    // deterministic harvest order. The answer itself stays peer-permutation
    // invariant through the RanksBefore heap (tie_break_test).
    // senn-lint: allow(L1-raw-order): consult-order heuristic over peers
    // (no ids exist); stable_sort keeps equal-distance peers in harvest
    // order and results are permutation-invariant regardless.
    std::stable_sort(peers.begin(), peers.end(),
                     [&](const CachedResult* a, const CachedResult* b) {
                       return geom::Dist2(q, a->query_location) <
                              geom::Dist2(q, b->query_location);
                     });
  }
  return peers;
}

bool SennProcessor::ResolvesLocally(
    geom::Vec2 q, int k, const std::vector<const CachedResult*>& peer_caches) const {
  const int heap_capacity = HeapCapacity(k);
  CandidateHeap heap(heap_capacity);
  std::vector<const CachedResult*> peers = UsablePeers(q, peer_caches);
  for (const CachedResult* peer : peers) {
    if (options_.early_exit && heap.HasCertain(k)) break;
    VerifySinglePeer(q, *peer, &heap);
  }
  if (heap.HasCertain(k)) return true;
  if (options_.enable_multi_peer && peers.size() > 1) {
    VerifyMultiPeer(q, peers, &heap, options_.multi_peer);
    if (heap.HasCertain(k)) return true;
  }
  return options_.accept_uncertain && heap.IsFull();
}

SennOutcome SennProcessor::Execute(geom::Vec2 q, int k,
                                   const std::vector<const CachedResult*>& peer_caches,
                                   obs::QueryTracer* tracer) const {
  PendingSenn pending = Prepare(q, k, peer_caches, tracer);
  if (pending.needs_server) {
    obs::ScopedSpan server_span(tracer, obs::Phase::kServerEinn);
    Finish(&pending, Contact(pending, tracer));
  }
  return std::move(pending.outcome);
}

PendingSenn SennProcessor::Prepare(geom::Vec2 q, int k,
                                   const std::vector<const CachedResult*>& peer_caches,
                                   obs::QueryTracer* tracer) const {
  PendingSenn pending;
  SennOutcome& outcome = pending.outcome;
  const int heap_capacity = HeapCapacity(k);
  CandidateHeap heap(heap_capacity);

  std::vector<const CachedResult*> peers = UsablePeers(q, peer_caches);

  // Stage 1: kNN_single over each peer.
  {
    obs::ScopedSpan span(tracer, obs::Phase::kVerifySingle);
    for (const CachedResult* peer : peers) {
      if (options_.early_exit && heap.HasCertain(k)) break;
      VerifyStats s = VerifySinglePeer(q, *peer, &heap);
      outcome.single_peer_stats.candidates += s.candidates;
      outcome.single_peer_stats.certified += s.certified;
      outcome.single_peer_stats.uncertain += s.uncertain;
      ++outcome.peers_consulted;
    }
    heap.AssertInvariants();
    span.AddArg("peers", static_cast<uint64_t>(outcome.peers_consulted));
    span.AddArg("candidates", static_cast<uint64_t>(outcome.single_peer_stats.candidates));
    span.AddArg("certified", static_cast<uint64_t>(outcome.single_peer_stats.certified));
  }
  if (heap.HasCertain(k)) {
    outcome.resolution = Resolution::kSinglePeer;
    outcome.heap_state = heap.state();
    outcome.certain_prefix = heap.certain();
    outcome.neighbors.assign(heap.certain().begin(), heap.certain().begin() + k);
    return pending;
  }

  // Stage 2: kNN_multiple over the merged certain region.
  if (options_.enable_multi_peer && peers.size() > 1) {
    obs::ScopedSpan span(tracer, obs::Phase::kVerifyMulti);
    outcome.multi_peer_stats = VerifyMultiPeer(q, peers, &heap, options_.multi_peer);
    heap.AssertInvariants();
    span.AddArg("candidates", static_cast<uint64_t>(outcome.multi_peer_stats.candidates));
    span.AddArg("certified", static_cast<uint64_t>(outcome.multi_peer_stats.certified));
    span.AddArg("uncertain", static_cast<uint64_t>(outcome.multi_peer_stats.uncertain));
    if (heap.HasCertain(k)) {
      outcome.resolution = Resolution::kMultiPeer;
      outcome.heap_state = heap.state();
      outcome.certain_prefix = heap.certain();
      outcome.neighbors.assign(heap.certain().begin(), heap.certain().begin() + k);
      return pending;
    }
  }

  // The heap could not be solved locally: classify its terminal state
  // (Section 3.3). The solved early-return branches above never get here.
  {
    obs::ScopedSpan span(tracer, obs::Phase::kHeapClassify);
    outcome.heap_state = heap.state();
    span.AddArg("state", static_cast<uint64_t>(outcome.heap_state));
    span.AddArg("certain", static_cast<uint64_t>(heap.certain().size()));
    span.AddArg("uncertain", static_cast<uint64_t>(heap.uncertain().size()));
  }

  // Stage 3: optionally accept an uncertain answer (Algorithm 1, line 15).
  if (options_.accept_uncertain && heap.IsFull()) {
    outcome.resolution = Resolution::kUncertain;
    outcome.certain_prefix = heap.certain();
    std::vector<RankedPoi> merged = heap.certain();
    merged.insert(merged.end(), heap.uncertain().begin(), heap.uncertain().end());
    std::sort(merged.begin(), merged.end(),
              [](const RankedPoi& a, const RankedPoi& b) { return RanksBefore(a, b); });
    if (static_cast<int>(merged.size()) > k) merged.resize(static_cast<size_t>(k));
    outcome.neighbors = std::move(merged);
    return pending;
  }

  // Stage 4: the query needs the server. Capture its request (Contact) and
  // the POIs the reply merges with (Finish).
  outcome.resolution = Resolution::kServer;
  outcome.bounds = heap.ComputeBounds();
  pending.needs_server = true;
  pending.q = q;
  pending.k = k;
  pending.heap_capacity = heap_capacity;
  if (!options_.ship_region || !outcome.bounds.upper.has_value()) {
    pending.certain = heap.certain();
  } else {
    // Region protocol (extension): the server returns every POI within the
    // upper-bound horizon that lies outside R_c; the client merges with ALL
    // the POIs it knows (everything inside R_c is cached at some peer). At
    // most kMaxRegionDisks disks travel: those of the first peers in
    // consult order, whose union the client still knows completely.
    const size_t shipped = std::min(peers.size(), static_cast<size_t>(kMaxRegionDisks));
    pending.region.reserve(shipped);
    for (size_t i = 0; i < shipped; ++i) {
      pending.region.emplace_back(peers[i]->query_location, peers[i]->Radius());
    }
    std::unordered_set<PoiId> seen;
    for (const CachedResult* peer : peers) {
      for (const RankedPoi& n : peer->neighbors) {
        if (!seen.insert(n.id).second) continue;
        pending.certain.push_back({n.id, n.position, geom::Dist(q, n.position)});
      }
    }
  }
  return pending;
}

ServerReply SennProcessor::Contact(const PendingSenn& pending,
                                   obs::QueryTracer* tracer) const {
  if (!pending.region.empty()) {
    return link_->QueryKnnWithRegion(pending.q, pending.heap_capacity,
                                     *pending.outcome.bounds.upper, pending.region, tracer);
  }
  return link_->QueryKnn(pending.q, pending.heap_capacity, pending.outcome.bounds,
                         static_cast<int>(pending.certain.size()), tracer);
}

void SennProcessor::Finish(PendingSenn* pending, const ServerReply& reply) const {
  SennOutcome& outcome = pending->outcome;
  std::vector<RankedPoi> merged = std::move(pending->certain);
  // The reply holds only POIs the client did not know, but a shared
  // traversal's reply (core::BatchServer) may overlap the certified prefix:
  // dedup by id.
  for (const RankedPoi& n : reply.neighbors) {
    bool duplicate = std::any_of(merged.begin(), merged.end(),
                                 [&](const RankedPoi& m) { return m.id == n.id; });
    if (!duplicate) merged.push_back(n);
  }
  pending->needs_server = false;
  outcome.einn_accesses = reply.einn_accesses;
  std::sort(merged.begin(), merged.end(),
            [](const RankedPoi& a, const RankedPoi& b) { return RanksBefore(a, b); });
  if (static_cast<int>(merged.size()) > pending->heap_capacity) {
    merged.resize(static_cast<size_t>(pending->heap_capacity));
  }
  outcome.certain_prefix = merged;  // server-backed: the whole set is exact
  outcome.neighbors = merged;
  if (static_cast<int>(outcome.neighbors.size()) > pending->k) {
    outcome.neighbors.resize(static_cast<size_t>(pending->k));
  }
}

}  // namespace senn::core
