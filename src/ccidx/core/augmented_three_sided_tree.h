// AugmentedThreeSidedTree: the semi-dynamic 3-sided metablock tree
// (Lemma 4.4) — the Section 3.2 insertion machinery applied to the
// Section 4 variant.
//
// Answers q = [xlo, xhi] x [ylo, +inf) in O(log_B n + log2 B + t/B) I/Os
// while supporting inserts at amortized O(log_B n + (log2_B n)/B)-grade
// cost, exactly as the lemma prescribes:
//   * the corner structures of Section 3.2 "become 3-sided structures":
//     each metablock's own points carry an ExternalPst, rebuilt at level I
//     reorganizations; the TD structure is likewise an ExternalPst over
//     points pushed into the children since the last TS reorganization;
//   * level II reorganizations additionally rebuild the per-parent
//     children-union 3-sided structure and BOTH TS chains of every child.
//
// Query-time consistency (the dynamic analogues of DESIGN.md §5.2):
//   * the one-sided paths use the crossed/exhausted TS dichotomy with the
//     TD structure consulted on crossings (hits filtered to the sibling
//     side by deterministic x-routing), mirroring the diagonal tree;
//   * at the fork, the children-union PST and TD are stale snapshots, so
//     each child in the slab is handled EITHER by full traversal (when its
//     watermarks admit deep output, or it is a fork endpoint) OR from the
//     snapshots (filtered to its routed x-interval) — never both, which is
//     what rules out double reporting of points that have since been
//     pushed deeper;
//   * desc_ymax / node_ymax watermarks guard subtree descent as in the
//     diagonal augmented tree.

#ifndef CCIDX_CORE_AUGMENTED_THREE_SIDED_TREE_H_
#define CCIDX_CORE_AUGMENTED_THREE_SIDED_TREE_H_

#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "ccidx/build/point_group.h"
#include "ccidx/build/record_stream.h"
#include "ccidx/core/blocking.h"
#include "ccidx/core/geometry.h"
#include "ccidx/dynamic/rebuild.h"
#include "ccidx/dynamic/tombstones.h"
#include "ccidx/io/pager.h"
#include "ccidx/pst/external_pst.h"

namespace ccidx {

/// Dynamic 3-sided metablock tree: Lemma 4.4's native inserts plus weak
/// deletes through the shared dynamization layer (DESIGN.md §8).
///
/// Amortized I/O bounds:
///   insert O(log_B n + log2 B + (log_B n)^2 / B)   (Lemma 4.4)
///   delete one membership probe (a degenerate-slab query) + amortized
///          O((log_B n)/B) purge charge: tombstoned points are filtered
///          out of every reporting path at zero extra I/O, and the shared
///          RebuildScheduler triggers a fault-atomic global rebuild
///          before dead points reach half the live weight, keeping space
///          O(n/B) and queries O(log_B n + log2 B + t/B) on live output.
///
/// Thread safety (DESIGN.md §7/§11): Query is const and safe to run from
/// any number of threads concurrently over one shared Pager. Insert/
/// Delete/DeleteKnown/Destroy serialize on an internal per-structure
/// write latch — N writer threads may call them within a write epoch
/// (progress is one-at-a-time: metablock reorganizations rewrite control
/// pages, PSTs, and TS chains in place along arbitrary paths; spread
/// load across structures when write scaling matters). Build and
/// CheckInvariants require full quiescence (QueryExecutor::Quiesce;
/// writers fan out via UpdateExecutor).
class AugmentedThreeSidedTree {
 public:
  /// Creates an empty tree (B >= 8 required; B from the pager page size).
  explicit AugmentedThreeSidedTree(Pager* pager);

  /// Bulk-builds a balanced tree from an x-sorted group of arbitrary
  /// planar points — the one construction implementation (fault-atomic).
  static Result<AugmentedThreeSidedTree> Build(Pager* pager,
                                               PointGroup points);

  /// Bulk-builds from a stream in any order (external sort, then build).
  static Result<AugmentedThreeSidedTree> Build(Pager* pager,
                                               RecordStream<Point>* points);

  /// In-memory wrappers over the stream build.
  static Result<AugmentedThreeSidedTree> Build(Pager* pager,
                                               std::span<const Point> points);
  static Result<AugmentedThreeSidedTree> Build(Pager* pager,
                                               std::vector<Point>&& points);

  /// Inserts one point. Re-inserting a tombstoned identity resurrects
  /// the stored point at zero I/O.
  Status Insert(const Point& p);

  /// Weak-deletes the exact point (x, y, id); sets *found. One membership
  /// probe + amortized O((log_B n)/B) purge charge (see class comment).
  Status Delete(const Point& p, bool* found);

  /// Weak-deletes a point the caller KNOWS is stored (composition
  /// invariant — see AugmentedMetablockTree::DeleteKnown). Pure memory
  /// except the scheduled purge, which can only fail after the delete
  /// has landed.
  Status DeleteKnown(const Point& p);

  /// Streams all points with q.xlo <= x <= q.xhi and y >= q.ylo into
  /// `sink`; kStop halts descent and every subtree scan.
  Status Query(const ThreeSidedQuery& q, ResultSink<Point>* sink) const;

  /// Live points (excludes tombstoned-but-not-yet-purged points). Safe
  /// against concurrent updates (reads under the write latch).
  uint64_t size() const {
    std::lock_guard<std::mutex> lk(*write_mu_);
    return size_;
  }
  /// Weak deletes awaiting the next purge (diagnostics).
  size_t outstanding_tombstones() const { return tombstones_.size(); }
  uint32_t branching() const { return branching_; }
  uint32_t metablock_capacity() const { return branching_ * branching_; }

  /// Root control page (kInvalidPageId when empty).
  PageId root_page() const { return root_; }

  Status Destroy();

  /// Appends every page id of the tree to `out`, each exactly once (the
  /// read-only mirror of Destroy). O(n/B) I/Os; requires quiescence.
  Status VisitPages(std::vector<PageId>* out) const;

  /// Structural checks (blockings, watermarks, TS/PST presence, counts).
  Status CheckInvariants() const;

 private:
  struct Control {
    uint32_t num_points;
    uint32_t num_children;
    Coord bbox_xmin, bbox_xmax, bbox_ymin, bbox_ymax;
    Coord sub_xlo, sub_xhi;
    uint64_t children_head = kInvalidPageId;
    uint64_t vindex_head = kInvalidPageId;
    uint64_t horiz_head = kInvalidPageId;
    uint64_t ts_left_head = kInvalidPageId;
    uint64_t ts_right_head = kInvalidPageId;
    uint64_t own_pst_root = kInvalidPageId;       // rebuilt at level I
    uint64_t children_pst_root = kInvalidPageId;  // rebuilt at TS reorgs
    // --- dynamic state (Section 3.2 / Lemma 4.4) ---
    uint64_t update_page;
    uint32_t update_count;
    uint32_t td_update_count;
    uint64_t td_update_page = kInvalidPageId;
    uint64_t td_pst_root = kInvalidPageId;  // TD, 3-sided (ExternalPst)
    uint32_t td_count;
    uint32_t pad;
    Coord update_ymax = kCoordMin;
    Coord desc_ymax = kCoordMin;
    Coord node_ymax;
  };

  struct ChildEntry {
    Coord sub_xlo;
    Coord sub_xhi;
    Coord node_ymax;  // max y anywhere in the child's subtree (watermark)
    Coord desc_ymax;  // max y strictly below the child (watermark)
    uint64_t control;
  };

  struct SplitEntry {
    PageId id;
    Coord xlo;
    Coord xhi;
    Coord node_ymax;
  };

  struct AddResult {
    PageId id;
    Coord sub_xlo, sub_xhi;
    Coord node_ymax;
    Coord desc_ymax;
    std::vector<SplitEntry> splits;
    bool structural = false;
  };

  struct BuiltNode {
    Control ctrl;
    std::vector<Point> own_points;
    PageId control_page;
  };

  AugmentedThreeSidedTree(Pager* pager, PageId root, uint64_t size,
                          uint32_t branching)
      : pager_(pager), root_(root), size_(size), branching_(branching) {}

  static Result<BuiltNode> BuildNode(Pager* pager, PointGroup group,
                                     uint32_t branching);
  static Status WriteControl(Pager* pager, PageId id, const Control& c);
  Status LoadControl(PageId id, Control* c) const;

  static Status RebuildOrganizations(Pager* pager, Control* ctrl,
                                     std::vector<Point> own, bool free_old);

  Result<AddResult> AddPoints(PageId id, std::vector<Point> pts);
  Status LevelOne(Control* ctrl);
  Status LevelTwoInternal(PageId id, Control* ctrl, AddResult* result);
  Status AddToTd(Control* ctrl, std::span<const Point> pts);
  Status ClearTd(Control* ctrl);
  Status TsReorganizeChildren(Control* ctrl);

  Status CollectSubtree(PageId id, std::vector<Point>* out) const;
  Status DestroySubtree(PageId id, bool keep_ts);
  Result<PageId> RebuildSubtree(PageId id);

  Status ReadUpdatePoints(const Control& ctrl, std::vector<Point>* out) const;
  // Own + update points clipped to [xlo, xhi] x [ylo, inf).
  Status ReportOwnPoints(const Control& ctrl, Coord xlo, Coord xhi,
                         Coord ylo, SinkEmitter<Point>& em) const;
  // Full traversal of a subtree known to lie inside the x-slab.
  Status ReportSubtree(PageId id, Coord ylo, SinkEmitter<Point>& em) const;
  Status LeftPath(PageId id, Coord xlo, Coord ylo,
                  SinkEmitter<Point>& em) const;
  Status RightPath(PageId id, Coord xhi, Coord ylo,
                   SinkEmitter<Point>& em) const;
  // Emits TD-structure + TD-buffer hits matching q that `keep` accepts.
  Status ReportTd(const Control& ctrl, const ThreeSidedQuery& q,
                  const std::function<bool(const Point&)>& keep,
                  SinkEmitter<Point>& em) const;

  // The pre-dynamization reporting path (no tombstone filter); the public
  // Query wraps it when weak deletes are outstanding.
  Status QueryRaw(const ThreeSidedQuery& q, ResultSink<Point>* sink) const;

  // Read-only mirror of DestroySubtree (every page id of the subtree) —
  // the fail-safe first half of the fault-atomic purge rebuild.
  Status VisitSubtreePages(PageId id, std::vector<PageId>* out) const;

  // Collects live points, rebuilds the whole tree, then retires the old
  // pages by id (fault-atomic; DESIGN.md §8).
  Status GlobalPurgeRebuild();

  // DeleteKnown's body, called with write_mu_ held (Delete holds the
  // latch across its membership probe, so it must not re-lock).
  Status DeleteKnownLocked(const Point& p);

  Status CheckSubtree(PageId id, Coord* node_ymax_out,
                      uint64_t* count_out) const;

  Pager* pager_;
  PageId root_;
  uint64_t size_;  // live points (physical count = size_ + tombstones)
  uint32_t branching_;
  PointTombstones tombstones_;
  RebuildScheduler sched_;
  // Per-structure write latch (boxed so the class stays movable):
  // serializes Insert/Delete/DeleteKnown/Destroy within a write epoch
  // (DESIGN.md §11).
  std::unique_ptr<std::mutex> write_mu_ = std::make_unique<std::mutex>();
};

}  // namespace ccidx

#endif  // CCIDX_CORE_AUGMENTED_THREE_SIDED_TREE_H_
