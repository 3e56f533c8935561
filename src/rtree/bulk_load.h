// Sort-Tile-Recursive (STR) bulk loading for the R*-tree (Leutenegger,
// Lopez, Edgington, ICDE 1997). Packs a static point set bottom-up into a
// tree with near-100% node utilization — the natural way to build the
// server's POI index for county-scale data sets, orders of magnitude faster
// than one-at-a-time insertion and yielding tighter leaves.
//
// One packer serves every level and writes the packed layout
// (rtree/packed_tree.h) directly. At the leaf level it stable-sorts the
// 24-byte ObjectEntry items themselves, in place in the consumed input, and
// that sorted vector becomes the packed tree's leaf array: a leaf is a run
// of it. Above, it sorts (MBR, child) branches. A final preorder walk gives
// every node its id and lays the index nodes' branches out in that order.
// The sorts are stable with bounded scratch: chunks of 32K items are
// bucket-sorted (distributed by key into about one bucket per item, each
// bucket then stable-sorted) through one buffer of the same size, then
// merged through that buffer, in exactly std::stable_sort's order. So
// besides the finished tree, the temporary memory is that buffer (768 KiB
// of entries, whatever n is) and its 128 KiB of bucket counts, plus the
// upper levels' branches, a few percent of the leaf array.
//
// The resulting tree satisfies every PackedTree invariant.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "src/rtree/packed_tree.h"
#include "src/rtree/rstar_tree.h"

namespace senn::rtree {

/// Builds a packed tree over `objects` with STR packing. The input vector
/// is consumed: sorted in place, it becomes the leaf array. Duplicate
/// positions are allowed; co-located objects keep their input order.
PackedTree BulkLoadPacked(std::vector<ObjectEntry> objects,
                          RStarTree::Options options = RStarTree::Options());

namespace detail {

/// The packer's sort chunk, which is also its merge buffer's length: 32K
/// items.
inline constexpr size_t kSortChunk = size_t{1} << 15;

/// The packer's stable sort, exposed for its differential test: sorts
/// `items` by their MBR center's `axis` coordinate (&geom::Vec2::x or
/// &geom::Vec2::y) into exactly the order std::stable_sort gives under "<"
/// on that coordinate.
void StableSortByCenter(std::span<ObjectEntry> items, double geom::Vec2::*axis);

}  // namespace detail

}  // namespace senn::rtree
