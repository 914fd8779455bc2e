// Planar point and query-region types shared by all index structures.
//
// Fig. 1 of the paper: diagonal corner queries ⊂ 2-sided queries ⊂ 3-sided
// queries ⊂ general 2-d range queries. Each specialization below models one
// of those regions; the containment chain is exercised by unit tests.

#ifndef CCIDX_CORE_GEOMETRY_H_
#define CCIDX_CORE_GEOMETRY_H_

#include <cstdint>
#include <limits>
#include <string>

namespace ccidx {

/// Coordinate type. The constraint domain (rationals) is represented by
/// int64 order-isomorphic codes; only comparisons matter to the structures.
using Coord = int64_t;

inline constexpr Coord kCoordMin = std::numeric_limits<Coord>::min();
inline constexpr Coord kCoordMax = std::numeric_limits<Coord>::max();

/// A point in the plane, with an opaque payload id carried through queries
/// (e.g. the generalized-tuple id whose x-projection produced it).
struct Point {
  Coord x;
  Coord y;
  uint64_t id;

  bool operator==(const Point& o) const {
    return x == o.x && y == o.y && id == o.id;
  }
};

/// Orders by (x, y, id); the id tiebreak makes sorts deterministic.
struct PointXOrder {
  bool operator()(const Point& a, const Point& b) const {
    if (a.x != b.x) return a.x < b.x;
    if (a.y != b.y) return a.y < b.y;
    return a.id < b.id;
  }
};

/// Orders by (y, x, id).
struct PointYOrder {
  bool operator()(const Point& a, const Point& b) const {
    if (a.y != b.y) return a.y < b.y;
    if (a.x != b.x) return a.x < b.x;
    return a.id < b.id;
  }
};

/// PointYOrder reversed: the order of every horizontal (descending-y)
/// chain. A functor, so sorts and selections inline it.
struct PointDescYOrder {
  bool operator()(const Point& a, const Point& b) const {
    return PointYOrder()(b, a);
  }
};

/// Diagonal corner query: corner (a, a) on the line x = y; region is the
/// quarter plane above and to the left, { (x, y) : x <= a, y >= a }.
/// An interval stabbing query at a maps to exactly this (Prop. 2.2).
struct DiagonalQuery {
  Coord a;

  bool Contains(const Point& p) const { return p.x <= a && p.y >= a; }
  std::string ToString() const;
};

/// 2-sided query with corner (xc, yc): region { x <= xc, y >= yc }.
/// A diagonal corner query is the special case xc == yc.
struct TwoSidedQuery {
  Coord xc;
  Coord yc;

  bool Contains(const Point& p) const { return p.x <= xc && p.y >= yc; }
  std::string ToString() const;
};

/// 3-sided query: region { xlo <= x <= xhi, y >= ylo } (fourth side at
/// +infinity). A 2-sided query is the special case xlo == -infinity.
struct ThreeSidedQuery {
  Coord xlo;
  Coord xhi;
  Coord ylo;

  bool Contains(const Point& p) const {
    return p.x >= xlo && p.x <= xhi && p.y >= ylo;
  }
  std::string ToString() const;
};

/// General 2-d range query [xlo, xhi] x [ylo, yhi].
struct RangeQuery2D {
  Coord xlo;
  Coord xhi;
  Coord ylo;
  Coord yhi;

  bool Contains(const Point& p) const {
    return p.x >= xlo && p.x <= xhi && p.y >= ylo && p.y <= yhi;
  }
  std::string ToString() const;
};

/// Widening conversions along the Fig. 1 specialization chain.
inline TwoSidedQuery AsTwoSided(const DiagonalQuery& q) { return {q.a, q.a}; }
inline ThreeSidedQuery AsThreeSided(const TwoSidedQuery& q) {
  return {kCoordMin, q.xc, q.yc};
}
inline RangeQuery2D AsRange(const ThreeSidedQuery& q) {
  return {q.xlo, q.xhi, q.ylo, kCoordMax};
}

}  // namespace ccidx

#endif  // CCIDX_CORE_GEOMETRY_H_
