#include "src/geom/region.h"

namespace senn::geom {

ConvexPieceRegion::ConvexPieceRegion(ConvexPolygon piece) {
  if (!piece.IsEmpty()) pieces_.push_back(std::move(piece));
}

void ConvexPieceRegion::SubtractConvex(const ConvexPolygon& clip, double min_area) {
  if (clip.IsEmpty() || pieces_.empty()) return;
  std::vector<HalfPlane> edges = clip.EdgeHalfPlanes();
  std::vector<ConvexPolygon> next;
  next.reserve(pieces_.size());
  for (const ConvexPolygon& piece : pieces_) {
    // Peel the piece: for edge i, emit the part inside edges 1..i-1 but
    // outside edge i; what survives all edges is inside `clip` and vanishes.
    ConvexPolygon inside_so_far = piece;
    for (const HalfPlane& edge : edges) {
      if (inside_so_far.IsEmpty()) break;
      HalfPlane complement{edge.b, edge.a};  // flips the inside direction
      ConvexPolygon outside = inside_so_far.ClipToHalfPlane(complement);
      if (!outside.IsEmpty() && outside.Area() > min_area) {
        next.push_back(std::move(outside));
      }
      inside_so_far = inside_so_far.ClipToHalfPlane(edge);
    }
  }
  pieces_ = std::move(next);
}

double ConvexPieceRegion::Area() const {
  double total = 0.0;
  for (const ConvexPolygon& piece : pieces_) total += piece.Area();
  return total;
}

bool MbrCoveredByDiskUnion(const Mbr& box, const std::vector<Circle>& cover,
                           const PolygonizeOptions& options, uint64_t* work_budget) {
  if (box.IsEmpty()) return true;
  if (cover.empty()) return false;
  // Quick single-disk win: a disk covers the box iff it contains the
  // farthest corner (exact, no polygonization loss).
  for (const Circle& c : cover) {
    if (box.MaxDist(c.center) <= c.radius) return true;
  }
  ConvexPieceRegion remainder(ConvexPolygon(
      {{box.lo.x, box.lo.y}, {box.hi.x, box.lo.y}, {box.hi.x, box.hi.y}, {box.lo.x, box.hi.y}}));
  for (const Circle& c : cover) {
    if (c.radius <= 0.0) continue;
    if (work_budget != nullptr) {
      uint64_t cost = 0;
      for (const ConvexPolygon& piece : remainder.pieces()) cost += piece.vertices().size();
      cost *= static_cast<uint64_t>(options.sides);
      if (cost > *work_budget) {
        *work_budget = 0;
        return false;
      }
      *work_budget -= cost;
    }
    remainder.SubtractConvex(ConvexPolygon::InscribedInCircle(c, options.sides),
                             options.min_area);
    if (remainder.IsEmpty()) return true;
  }
  return remainder.IsEmpty();
}

bool PolygonizedDiskCoveredByUnion(const Circle& subject, const std::vector<Circle>& cover,
                                   const PolygonizeOptions& options) {
  if (cover.empty()) return false;
  if (subject.radius <= 0.0) {
    // Degenerate query disk: exact point-membership (still one-sided).
    for (const Circle& c : cover) {
      if (c.Contains(subject.center)) return true;
    }
    return false;
  }
  ConvexPieceRegion remainder(
      ConvexPolygon::CircumscribedAboutCircle(subject, options.sides));
  for (const Circle& c : cover) {
    if (c.radius <= 0.0) continue;
    remainder.SubtractConvex(ConvexPolygon::InscribedInCircle(c, options.sides),
                             options.min_area);
    if (remainder.IsEmpty()) return true;
  }
  return remainder.IsEmpty();
}

}  // namespace senn::geom
