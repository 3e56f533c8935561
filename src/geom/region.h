// Plane regions represented as unions of convex polygon pieces, with the
// boolean-difference operation needed to test coverage — the computational
// role the paper assigns to "polygonization + MapOverlay" (de Berg et al.).
//
// Instead of maintaining a doubly-connected edge list, we keep the *uncovered
// remainder* of the query polygon as a set of disjoint convex pieces:
// subtracting a convex polygon C (edges h_1..h_m, inside = intersection of
// half-planes) from a convex piece P decomposes exactly as
//     P \ C = union over i of ( P n h_1 n ... n h_{i-1} n complement(h_i) ),
// each term convex. Coverage holds iff the remainder becomes empty. This is
// the same overlay arithmetic with a representation suited to the one query
// the algorithm needs ("is the union covering?") rather than a full map.
#pragma once

#include <cstdint>
#include <vector>

#include "src/geom/circle.h"
#include "src/geom/mbr.h"
#include "src/geom/polygon.h"

namespace senn::geom {

/// A (possibly empty, possibly disconnected) region stored as disjoint
/// convex pieces.
class ConvexPieceRegion {
 public:
  ConvexPieceRegion() = default;
  /// Region consisting of a single convex polygon.
  explicit ConvexPieceRegion(ConvexPolygon piece);

  /// Removes the given convex polygon from the region (boolean difference).
  /// Pieces whose area falls below `min_area` are dropped, which keeps the
  /// piece count bounded in the presence of floating-point slivers.
  void SubtractConvex(const ConvexPolygon& clip, double min_area = 1e-9);

  /// True iff nothing (above the sliver threshold) remains.
  bool IsEmpty() const { return pieces_.empty(); }

  /// Total area of the remaining pieces.
  double Area() const;

  /// Number of convex pieces currently representing the region.
  size_t PieceCount() const { return pieces_.size(); }

  const std::vector<ConvexPolygon>& pieces() const { return pieces_; }

 private:
  std::vector<ConvexPolygon> pieces_;
};

/// Options for the polygonized (paper-style) coverage test.
struct PolygonizeOptions {
  /// Polygon resolution: peer disks become inscribed `sides`-gons and the
  /// query disk a circumscribed `sides`-gon. Higher = tighter approximation.
  int sides = 32;
  /// Remainder pieces below this area (square meters) are considered
  /// floating-point slivers and dropped.
  double min_area = 1e-6;
};

/// Paper-style coverage test: polygonize `cover` and `subject` conservatively
/// and report whether the polygonized union covers the polygonized subject.
/// Guaranteed one-sided: a `true` here implies DiskCoveredByUnion(...) would
/// also hold (up to the sliver threshold); a `false` may be a false negative
/// caused by the polygon approximation.
bool PolygonizedDiskCoveredByUnion(const Circle& subject, const std::vector<Circle>& cover,
                                   const PolygonizeOptions& options = {});

/// True iff the axis-aligned rectangle is covered by the union of disks.
/// Conservative (inscribed polygonization of the disks): a `true` verdict is
/// exact; a `false` may be a false negative. Used by the region-aware server
/// pruning extension: an MBR covered by the clients' certain region R_c
/// contains only POIs the client already knows.
///
/// The polygon work grows steeply with the number of disks cutting the box
/// (each disk can split every remaining piece). `work_budget`, when given,
/// caps it: subtracting one disk costs the remainder's vertex count times
/// `options.sides`, taken from the budget; a test that would overdraw it
/// answers false (the conservative verdict) and empties the budget, so
/// every later test sharing it answers false at once.
bool MbrCoveredByDiskUnion(const Mbr& box, const std::vector<Circle>& cover,
                           const PolygonizeOptions& options = {},
                           uint64_t* work_budget = nullptr);

}  // namespace senn::geom
