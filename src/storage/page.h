// Page identities and buffer-pool settings: the unit the pool tracks and
// the unit the paper's evaluation counts ("page accesses", Figure 17 /
// Table 1).
//
// The paper's R*-tree uses branching factor 30 because one node fills one
// disk page. Here a node IS a page: the packed tree (rtree/packed_tree.h)
// holds every node's entries, and the pool models only which pages are
// resident. What keeps the identification honest is a size bound,
// asserted by storage/node_pager.cc: a full node's packed run of entries
// fits kPageSizeBytes.
#pragma once

#include <cstddef>
#include <cstdint>

namespace senn::storage {

/// Identifies one page of the (simulated) backing store. Assigned densely
/// from 0 by the mapping layer (node_pager.h).
using PageId = uint32_t;
inline constexpr PageId kInvalidPageId = 0xFFFFFFFFu;

/// The disk page a node stands for (a classic 4 KiB page).
inline constexpr size_t kPageSizeBytes = 4096;

/// Which unpinned page a full pool evicts on a miss.
///
///  * kLru   — evict the least recently fetched page. A stack algorithm:
///    for a fixed access sequence, the hit count is monotonically
///    non-decreasing in the pool size (the inclusion property), which the
///    buffer-pool bench relies on.
///  * kClock — the classic second-chance approximation: a hand sweeps the
///    frames, clearing reference bits, and evicts the first unpinned frame
///    whose bit is already clear. Cheaper bookkeeping, near-LRU behavior,
///    but not a stack algorithm.
enum class ReplacementPolicy {
  kLru = 0,
  kClock = 1,
};

const char* ReplacementPolicyName(ReplacementPolicy policy);

/// Buffer pool sizing and policy.
struct BufferPoolOptions {
  /// Maximum resident pages; 0 = unbounded (nothing is ever evicted, every
  /// page faults in exactly once — the in-memory engine this repo had
  /// before the storage layer, with cold misses made visible).
  size_t capacity_pages = 0;
  ReplacementPolicy policy = ReplacementPolicy::kLru;
};

/// Cumulative pool counters. `logical` counts successful fetches only, so
/// logical == hits + misses always holds (a fetch that fails because every
/// frame is pinned charges nothing).
struct BufferPoolStats {
  uint64_t logical = 0;
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t evictions = 0;

  double HitRatio() const {
    return logical > 0 ? static_cast<double>(hits) / static_cast<double>(logical) : 0.0;
  }
};

}  // namespace senn::storage
