// MetablockTree: the paper's core contribution (Section 3.1).
//
// A static, I/O-optimal structure for diagonal corner queries on n points
// in the region y >= x:
//   * space O(n/B) pages,
//   * query O(log_B n + t/B) I/Os (Theorem 3.2),
// matching the lower bound of Proposition 3.3.
//
// Shape (Fig. 8): a B-ary tree of metablocks. The root metablock holds the
// B^2 points with the largest y values; the remaining `rest` points are
// divided by x into ChildFanout(rest, B) = min(B, ceil(rest / B^2)) groups,
// each built recursively — B groups above B^3 points, and below that as
// few as hold the rest at <= B^2 each, so no child is a half-full leaf
// (DESIGN.md §6). Every metablock stores its points twice — vertically
// blocked (by x) and horizontally blocked (by descending y) — plus, when
// the diagonal crosses its bounding box, a CornerStructure (Lemma 3.1)
// built over that same vertical blocking rather than a copy of it. Each
// non-leftmost child c also carries
// TS(c): the B^2 highest-y points among the points *stored in* its left
// siblings (Fig. 10), which lets a query either read all left-sibling
// output from TS in output-dense pages, or prove there are >= B^2 results
// and afford visiting each sibling individually (Fig. 17).
//
// The query walks the "corner path" — the one metablock per level whose
// subtree x-interval contains the anchor a — classifying every touched
// metablock as Type I-IV (Fig. 16) and handling it per the proof of
// Theorem 3.2.
//
// The page size of the pager determines B: B = points per page.

#ifndef CCIDX_CORE_METABLOCK_TREE_H_
#define CCIDX_CORE_METABLOCK_TREE_H_

#include <span>
#include <vector>

#include "ccidx/build/point_group.h"
#include "ccidx/build/record_stream.h"
#include "ccidx/core/blocking.h"
#include "ccidx/core/corner_structure.h"
#include "ccidx/core/geometry.h"
#include "ccidx/io/pager.h"

namespace ccidx {

/// Returns the device page size that yields `b` points per page.
inline uint32_t PageSizeForBranching(uint32_t b) {
  return PageIo::kHeaderSize + b * static_cast<uint32_t>(sizeof(Point));
}

/// Ablation switches (experiment EA, bench_ablation): disable individual
/// side structures to measure what each contributes to Theorem 3.2.
struct MetablockOptions {
  /// Lemma 3.1 corner structures. When off, a Type II metablock falls back
  /// to scanning its vertical blocking left of the corner — every block
  /// left of a is read even if it holds no output.
  bool use_corner_structures = true;
  /// TS structures (Figs. 10/17). When off, the left siblings of the
  /// corner-path child are always visited individually — up to B control +
  /// data page reads per level with no output to charge them to.
  bool use_ts_structures = true;
};

/// Static metablock tree (Section 3.1). Build once, query many times; for
/// insertions use AugmentedMetablockTree (Section 3.2).
///
/// Thread safety (DESIGN.md §7/§11): Query is const and safe to run from
/// any number of threads concurrently over one shared Pager. The
/// structure is static — Build/Destroy are its only writes and require
/// full quiescence (no internal latches to rely on within a write epoch).
class MetablockTree {
 public:
  /// Builds from an x-sorted group (resident or device-resident); every
  /// point must satisfy y >= x. This is the one construction
  /// implementation — the overloads below funnel here. Space O(n/B)
  /// pages; build I/O O((n/B) log_B n); fault-atomic (a failed build
  /// frees every page it allocated).
  static Result<MetablockTree> Build(Pager* pager, PointGroup points,
                                     const MetablockOptions& options = {});

  /// Builds from a stream of points in any order, sorting externally via
  /// ExternalSorter at O((n/B) log_{M/B}(n/B)) I/Os — datasets far larger
  /// than main memory stage through device-resident runs.
  static Result<MetablockTree> Build(Pager* pager,
                                     RecordStream<Point>* points,
                                     const MetablockOptions& options = {});

  /// As above over an in-memory point set (streamed block-at-a-time; no
  /// extra copy of the dataset is made beyond the sorter's bounded
  /// working memory).
  static Result<MetablockTree> Build(Pager* pager,
                                     std::span<const Point> points,
                                     const MetablockOptions& options = {});

  /// Rvalue convenience (braced initializers, generator temporaries).
  static Result<MetablockTree> Build(Pager* pager,
                                     std::vector<Point>&& points,
                                     const MetablockOptions& options = {});

  /// Re-opens a handle onto already-built (e.g. WAL-recovered) pages from
  /// the descriptor a prior Build produced — no I/O. `branching` must
  /// match the pager geometry the tree was built with.
  static MetablockTree Open(Pager* pager, PageId root, uint64_t size,
                            uint32_t branching,
                            const MetablockOptions& options = {}) {
    return MetablockTree(pager, root, size, branching, options);
  }

  /// Streams all points with x <= q.a and y >= q.a into `sink`,
  /// block-at-a-time out of pinned pages. O(log_B n + t/B) I/Os
  /// (Theorem 3.2); a kStop verdict halts the corner-path walk and every
  /// subtree scan before another page is pinned, so count/exists/top-k
  /// consumers pay only O(log_B n + k/B).
  Status Query(const DiagonalQuery& q, ResultSink<Point>* sink) const;

  /// Number of indexed points.
  uint64_t size() const { return size_; }

  /// Root control page (kInvalidPageId when empty) — the entry page a
  /// batch warm-up stages before cold serving (QueryExecutor::Warmup).
  PageId root_page() const { return root_; }

  /// B: points per page (the branching factor).
  uint32_t branching() const { return branching_; }

  /// Ablation switches this tree was built with (persisted by the
  /// dynamization layer's WAL meta descriptor).
  const MetablockOptions& options() const { return options_; }

  /// B^2: capacity of one metablock.
  uint32_t metablock_capacity() const { return branching_ * branching_; }

  /// Streams every stored point into `sink`, in no particular order (each
  /// metablock's horizontal chain, top-down). O(n/B) I/Os. This is the
  /// merge source of the dynamization layer (DESIGN.md §8): the
  /// logarithmic-method adapter DynamicMetablockTree scans retiring
  /// levels through it into the bulk-build pipeline.
  Status ScanAll(ResultSink<Point>* sink) const;

  /// Frees all pages.
  Status Destroy();

  /// Appends every page id of the tree to `out`, each exactly once (a
  /// corner structure reports only the pages it owns; the vertical
  /// blocking it reads is its metablock's). O(n/B) I/Os.
  Status VisitPages(std::vector<PageId>* out) const;

  /// Structural checks: every metablock's own points within its recorded
  /// bbox, children partition the subtree x-interval, metablock sizes
  /// within capacity, descendants' y below the metablock's min y, each
  /// node's fan-out is ChildFanout of its subtree, and every corner
  /// structure reads its metablock's own vertical blocking.
  Status CheckInvariants() const;

 private:
  // The dynamic tree's metablocks are these metablocks plus an update
  // state: it extends Control and reports own points through
  // ReportOwnPoints.
  friend class AugmentedMetablockTree;
  friend struct AugmentedMetablockLayout;

  // On-page control record for one metablock. One control page per
  // metablock ("a constant number of disk blocks per metablock to store
  // control information", Thm. 3.2 proof).
  struct Control {
    uint32_t num_points;
    uint32_t num_children;
    Coord bbox_xmin, bbox_xmax, bbox_ymin, bbox_ymax;  // of own points
    Coord sub_xlo, sub_xhi;                            // subtree x-interval
    uint64_t children_head = kInvalidPageId;  // chain of ChildEntry
    uint64_t vindex_head = kInvalidPageId;    // vertical blocking index chain
    uint64_t horiz_head = kInvalidPageId;     // desc-y chain of own points
    uint64_t ts_head = kInvalidPageId;  // TS(this): desc-y chain (kInvalid at
                                        // root / leftmost children)
    uint64_t corner_header = kInvalidPageId;  // CornerStructure, if built
  };

  struct ChildEntry {
    Coord sub_xlo;   // first x of the child's group
    Coord ymax;      // max y among the child metablock's own points
    uint64_t control;
  };

  // In-memory result of building one node, before its control page (which
  // must wait for the parent to attach TS) is written.
  struct BuiltNode {
    Control ctrl;
    std::vector<Point> own_points;  // for the parent's TS construction
    PageId control_page;            // pre-allocated
  };

  MetablockTree(Pager* pager, PageId root, uint64_t size, uint32_t branching,
                const MetablockOptions& options)
      : pager_(pager),
        root_(root),
        size_(size),
        branching_(branching),
        options_(options) {}

  static Result<BuiltNode> BuildNode(Pager* pager, PointGroup group,
                                     uint32_t branching,
                                     const MetablockOptions& options);
  static Status WriteControl(Pager* pager, PageId id, const Control& c);
  Status LoadControl(PageId id, Control* c) const;

  // Reports this metablock's own points that fall in the query, per its
  // Type I-IV classification.
  static Status ReportOwnPoints(Pager* pager, const Control& ctrl, Coord a,
                                SinkEmitter<Point>& em);

  // Reports the entire subtree rooted at `control_id`, whose x-interval is
  // known to lie at or left of a: a top-down descending-y scan per node,
  // recursing only below fully-inside (Type III) metablocks.
  Status ReportSubtree(PageId control_id, Coord a,
                       SinkEmitter<Point>& em) const;

  Status ScanSubtree(PageId control_id, SinkEmitter<Point>& em) const;
  Status VisitSubtreePages(PageId control_id, std::vector<PageId>* out) const;
  // Checks the subtree at `control_id` and adds its point count to *count.
  Status CheckSubtree(PageId control_id, Coord parent_min_y, bool is_root,
                      uint64_t* count) const;

  Pager* pager_;
  PageId root_;
  uint64_t size_;
  uint32_t branching_;
  MetablockOptions options_;
};

}  // namespace ccidx

#endif  // CCIDX_CORE_METABLOCK_TREE_H_
