// ThreeSidedTree: the metablock-tree variant for 3-sided queries
// (Section 4, Lemma 4.3).
//
// Adapts the metablock tree to answer q = [xlo, xhi] x [ylo, +inf) in
// O(log_B n + log2 B + t/B) I/Os on arbitrary planar points (no y >= x
// restriction — class indexing maps objects to (attribute, class-label)
// points). The five complications of 3-sided queries (Fig. 20) are handled
// exactly as the lemma prescribes:
//   (1,2) corners need not lie on the diagonal / both corners in one
//         metablock  -> each metablock stores a Lemma 4.1 structure
//         (ExternalPst) over its own points; corner structures are
//         dispensed with,
//   (3)   both vertical sides through one metablock -> the vertical
//         blocking reports the x-slab directly,
//   (4)   the two vertical sides on sibling metablocks -> every interior
//         metablock M stores a 3-sided structure over the union of its
//         children's points (O(B^3) of them) that is queried once,
//   (5)   TS structures must serve both directions -> every child carries
//         two TS structures, one over left siblings and one over right.
//
// The query walks a single "slab path" while both vertical sides route to
// the same child, then forks into a left path (right side unbounded within
// the subtree, fenced by TS-right) and a right path (fenced by TS-left).
// The own-point PSTs hold <= B^2 points and the children structures
// <= B^3, so each of the at most three PST accesses costs O(log2 B + t/B)
// — the additive log2 B of the lemma.
//
// This structure is static; the paper's dynamization (Lemma 4.4) reuses
// the Section 3.2 machinery verbatim (update blocks, TD structures now
// 3-sided, level I/II reorganizations) — AugmentedThreeSidedTree, on the
// shared update engine (DESIGN.md §8, "The Section 3.2 update engine").

#ifndef CCIDX_CORE_THREE_SIDED_TREE_H_
#define CCIDX_CORE_THREE_SIDED_TREE_H_

#include <span>
#include <vector>

#include "ccidx/build/point_group.h"
#include "ccidx/build/record_stream.h"
#include "ccidx/core/blocking.h"
#include "ccidx/core/geometry.h"
#include "ccidx/io/pager.h"
#include "ccidx/pst/external_pst.h"

namespace ccidx {

/// Static metablock tree answering 3-sided queries (Lemma 4.3).
///
/// Thread safety (DESIGN.md §7/§11): Query is const and safe to run from
/// any number of threads concurrently over one shared Pager. The
/// structure is static — Build/Destroy are its only writes and require
/// full quiescence (no internal latches to rely on within a write epoch).
class ThreeSidedTree {
 public:
  /// Builds from an x-sorted group of arbitrary planar points — the one
  /// construction implementation (fault-atomic).
  static Result<ThreeSidedTree> Build(Pager* pager, PointGroup points);

  /// Builds from a stream in any order (external sort, then build).
  static Result<ThreeSidedTree> Build(Pager* pager,
                                      RecordStream<Point>* points);

  /// In-memory wrappers over the stream build.
  static Result<ThreeSidedTree> Build(Pager* pager,
                                      std::span<const Point> points);
  static Result<ThreeSidedTree> Build(Pager* pager,
                                      std::vector<Point>&& points);

  /// Streams all points with q.xlo <= x <= q.xhi and y >= q.ylo into
  /// `sink`; kStop halts the slab walk, both one-sided paths, and every
  /// subtree scan. O(log_B n + log2 B + t/B) I/Os.
  Status Query(const ThreeSidedQuery& q, ResultSink<Point>* sink) const;

  uint64_t size() const { return size_; }
  uint32_t branching() const { return branching_; }

  /// Root control page (kInvalidPageId when empty).
  PageId root_page() const { return root_; }

  /// Streams every stored point into `sink`, in no particular order (each
  /// metablock's horizontal chain, top-down; PSTs, TS chains and vertical
  /// blockings hold copies). O(n/B) I/Os. The merge source of the
  /// dynamization layer's DynamicThreeSidedTree adapter (DESIGN.md §8).
  Status ScanAll(ResultSink<Point>* sink) const;

  /// Frees all pages.
  Status Destroy();

  /// Appends every page id of the tree to `out`, each exactly once.
  /// O(n/B) I/Os.
  Status VisitPages(std::vector<PageId>* out) const;

  /// Structural checks (heap order, blockings, TS contents, PST presence,
  /// ChildFanout shape).
  Status CheckInvariants() const;

 private:
  // The dynamic tree's metablocks are these metablocks plus an update
  // state: it extends Control and reports own points through
  // ReportOwnPoints.
  friend class AugmentedThreeSidedTree;
  friend struct AugmentedThreeSidedLayout;

  struct Control {
    uint32_t num_points;
    uint32_t num_children;
    Coord bbox_xmin, bbox_xmax, bbox_ymin, bbox_ymax;
    Coord sub_xlo, sub_xhi;
    uint64_t children_head = kInvalidPageId;
    uint64_t vindex_head = kInvalidPageId;
    uint64_t horiz_head = kInvalidPageId;
    // Top B^2 of LEFT siblings (right path fence), and of RIGHT siblings
    // (left path fence).
    uint64_t ts_left_head = kInvalidPageId;
    uint64_t ts_right_head = kInvalidPageId;
    uint64_t own_pst_root = kInvalidPageId;  // Lemma 4.1 over own points
    // Over the union of the children's own points.
    uint64_t children_pst_root = kInvalidPageId;
  };

  struct ChildEntry {
    Coord sub_xlo;
    Coord sub_xhi;
    Coord ymax;  // max y of the child metablock's own points
    Coord ymin;  // min y of the child metablock's own points
    uint64_t control;
  };

  struct BuiltNode {
    Control ctrl;
    std::vector<Point> own_points;
    PageId control_page;
  };

  ThreeSidedTree(Pager* pager, PageId root, uint64_t size, uint32_t branching)
      : pager_(pager), root_(root), size_(size), branching_(branching) {}

  static Result<BuiltNode> BuildNode(Pager* pager, PointGroup group,
                                     uint32_t branching);
  static Status WriteControl(Pager* pager, PageId id, const Control& c);
  Status LoadControl(PageId id, Control* c) const;

  // Own-point reporting, clipped to the given sides (kCoordMin/kCoordMax
  // mean "unbounded"). Uses vertical / horizontal blockings when only one
  // kind of boundary cuts the bbox, and the own PST when a corner lies
  // inside.
  static Status ReportOwnPoints(Pager* pager, const Control& ctrl, Coord xlo,
                                Coord xhi, Coord ylo, SinkEmitter<Point>& em);

  // Subtree known to lie fully inside the x-slab: descending-y scans with
  // the heap-order stop rule (as in the static metablock tree).
  Status ReportSubtree(PageId id, Coord ylo, SinkEmitter<Point>& em) const;

  // Children of a fully-inside metablock whose own points were already
  // reported by a children-PST: recurse into qualifying children only.
  Status DescendMiddle(const Control& ctrl, Coord ylo,
                       SinkEmitter<Point>& em) const;

  // One-sided paths after the fork. skip_own: the first node's own points
  // were already reported by the parent's children PST.
  Status LeftPath(PageId id, Coord xlo, Coord ylo, bool skip_own,
                  SinkEmitter<Point>& em) const;
  Status RightPath(PageId id, Coord xhi, Coord ylo, bool skip_own,
                   SinkEmitter<Point>& em) const;

  Status ScanSubtree(PageId id, SinkEmitter<Point>& em) const;
  Status VisitSubtreePages(PageId id, std::vector<PageId>* out) const;
  Status CheckSubtree(PageId id, Coord parent_min_y, bool is_root,
                      uint64_t* count) const;

  Pager* pager_;
  PageId root_;
  uint64_t size_;
  uint32_t branching_;
};

}  // namespace ccidx

#endif  // CCIDX_CORE_THREE_SIDED_TREE_H_
