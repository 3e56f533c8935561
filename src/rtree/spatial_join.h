// R-tree distance join: all pairs (a, b), a from tree A and b from tree B,
// with Dist(a, b) <= threshold — the classic synchronized-descent spatial
// join (Brinkhoff, Kriegel, Seeger, SIGMOD 1993, adapted to point data and
// a distance predicate) over two packed trees (rtree/packed_tree.h). This
// is the server-side substrate for the paper's second named future-work
// query type ("range and spatial join searches"); core/join.h builds the
// sharing-based variant on top.
#pragma once

#include <utility>
#include <vector>

#include "src/rtree/packed_tree.h"

namespace senn::rtree {

/// One join result pair.
struct JoinPair {
  ObjectEntry left;
  ObjectEntry right;
  double distance = 0.0;
};

/// Computes all pairs within `threshold`. Self-joins (passing the same tree
/// twice) return both (a,b) and (b,a) plus (a,a) diagonal pairs; callers
/// filter if needed. Node accesses are charged per visited node of each
/// tree into the respective counter when provided.
std::vector<JoinPair> DistanceJoin(const PackedTree& left, const PackedTree& right,
                                   double threshold, AccessCounter* left_counter = nullptr,
                                   AccessCounter* right_counter = nullptr);

}  // namespace senn::rtree
