// Sort-Tile-Recursive (STR) bulk loading for the R*-tree (Leutenegger,
// Lopez, Edgington, ICDE 1997). Packs a static point set bottom-up into a
// tree with near-100% node utilization — the natural way to build the
// server's POI index for county-scale data sets, orders of magnitude faster
// than one-at-a-time insertion and yielding tighter leaves.
//
// One packer serves every level. At the leaf level it stable-sorts the
// 24-byte ObjectEntry items themselves, in place in the consumed input;
// above, it sorts (MBR, child) pairs. Each node is allocated once, its slots
// filled in final order. Besides the finished nodes, the temporary memory is
// the input vector plus std::stable_sort's scratch buffer (n/2 entries in
// libstdc++), both freed once the leaves are packed; each upper level needs
// a few percent of that.
//
// The resulting tree satisfies every RStarTree invariant (validated by
// CheckInvariants in tests) and supports subsequent dynamic inserts and
// removals.
#pragma once

#include <vector>

#include "src/rtree/rstar_tree.h"

namespace senn::rtree {

/// Builds a tree over `objects` with STR packing. The input vector is
/// consumed (sorted in place, then freed). Duplicate positions are allowed;
/// co-located objects keep their input order.
RStarTree BulkLoad(std::vector<ObjectEntry> objects,
                   RStarTree::Options options = RStarTree::Options());

}  // namespace senn::rtree
