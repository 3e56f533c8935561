#include "src/storage/node_pager.h"

#include <cassert>
#include <type_traits>

#include "src/obs/paranoid.h"

namespace senn::storage {

// A node's id is its page id.
static_assert(std::is_same_v<rtree::NodeId, PageId>);

NodePager::NodePager(const rtree::PackedTree& tree, BufferPoolOptions options)
    : pool_([&] {
        if (options.capacity_pages > 0 && options.capacity_pages < 2) {
          options.capacity_pages = 2;
        }
        return options;
      }()) {
  // Node == page: a full index node's run of branches (the larger entry
  // kind: 1,200 B at fan-out 30) must fit one disk page.
  const bool fits = static_cast<size_t>(tree.options().max_entries) *
                        sizeof(rtree::PackedTree::Branch) <=
                    kPageSizeBytes;
  assert(fits && "node fan-out exceeds the fixed page size");
  SENN_PARANOID_CHECK(fits, "node fan-out exceeds the fixed page size");
}

bool NodePager::Fetch(rtree::NodeId id) {
  const BufferPool::FetchResult result = pool_.Fetch(id);
  if (!result.pinned) {
    // Every frame pinned — unreachable through the tree traversals (at most
    // two concurrent pins vs. the clamped minimum capacity of two), but a
    // hostile caller gets a degraded answer, not UB: treat the access as an
    // unbuffered physical read. Unpin() below tolerates the missing pin.
    assert(false && "buffer pool exhausted by pins");
    return true;
  }
  return result.miss;
}

void NodePager::Unpin(rtree::NodeId id) { pool_.UnpinIfPinned(id); }

}  // namespace senn::storage
