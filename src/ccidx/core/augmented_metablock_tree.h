// AugmentedMetablockTree: the semi-dynamic metablock tree of Section 3.2.
//
// Supports insertions at amortized O(log_B n + (log_B n)^2 / B) I/Os while
// keeping diagonal corner queries at O(log_B n + t/B) I/Os and space at
// O(n/B) pages (Theorem 3.7). Deletions are out of scope, as in the paper.
//
// Mechanisms, following the paper:
//   * Update block: each metablock buffers up to B inserted points in one
//     page. When full, a LEVEL I reorganization merges them into the
//     metablock's own set and rebuilds its vertical / horizontal / corner
//     organizations — O(B) I/Os once per B inserts, amortized O(1).
//   * LEVEL II reorganization: when a metablock reaches 2B^2 own points, a
//     non-leaf keeps the B^2 highest-y points and pushes the bottom B^2
//     down into its children by x; a leaf splits into two B^2-point leaves.
//   * TD corner structure: each non-leaf M keeps a corner structure over
//     every point pushed into its children since the last TS
//     reorganization, with its own one-page buffer (rebuilt every B
//     pushes). Queries consult TD wherever they consult a TS structure, so
//     TS staleness never loses points.
//   * TS reorganization: when TD reaches B^2 points, or a child performs a
//     level II reorganization / split, the TS structures of all children
//     are rebuilt from their current point sets and TD is discarded —
//     O(B^2) I/Os once per Theta(B^2) inserts.
//   * Branching-factor control: leaf splits grow a parent's child count;
//     at 2B the subtree rooted there is rebuilt as a perfectly balanced
//     static metablock tree. (The paper splits the parent in two and
//     propagates upward; a full subtree rebuild has the same amortized
//     cost — the induction of Lemma 3.6 applies verbatim — and is simpler.
//     Documented in DESIGN.md.)
//
// One strengthening over the paper's terse description (DESIGN.md §5):
// push-downs let a metablock's own minimum y drift below points that were
// pushed into its subtree earlier, which breaks the static tree's implicit
// heap order and hence the Type-IV early-stop rule. Each node therefore
// maintains desc_ymax — the maximum y among its strict descendants
// (monotone under pushes, recomputed on rebuild) — and subtree reporting
// recurses iff desc_ymax >= a. Measured query I/O is verified against the
// theorem's bound in bench_metablock_insert / tests.

#ifndef CCIDX_CORE_AUGMENTED_METABLOCK_TREE_H_
#define CCIDX_CORE_AUGMENTED_METABLOCK_TREE_H_

#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "ccidx/build/point_group.h"
#include "ccidx/build/record_stream.h"
#include "ccidx/core/blocking.h"
#include "ccidx/core/corner_structure.h"
#include "ccidx/core/geometry.h"
#include "ccidx/dynamic/rebuild.h"
#include "ccidx/dynamic/tombstones.h"
#include "ccidx/io/pager.h"

namespace ccidx {

/// Dynamic metablock tree: the paper's semi-dynamic structure of Section
/// 3.2 (Theorem 3.7, native inserts) extended with weak deletes through
/// the shared dynamization layer (DESIGN.md §8).
///
/// Amortized I/O bounds:
///   insert O(log_B n + (log_B n)^2 / B)            (Theorem 3.7)
///   delete O(log_B n + t_probe/B) membership probe + O((log_B n)/B)
///          global-rebuild charge: deletes tombstone the point (queries
///          filter at zero extra I/O) and the shared RebuildScheduler
///          purges — a fault-atomic global rebuild through the bulk-build
///          pipeline — before dead points reach half the live weight, so
///          queries stay O(log_B n + t/B) on live output and space stays
///          O(n/B) pages.
///
/// Thread safety (DESIGN.md §7/§11): Query is const and safe to run from
/// any number of threads concurrently over one shared Pager. Insert/
/// Delete/DeleteKnown/Destroy serialize on an internal per-structure
/// write latch — N writer threads may call them within a write epoch
/// (progress is one-at-a-time: metablock reorganizations rewrite control
/// pages, buffers, and TS chains in place along arbitrary paths; spread
/// load across structures when write scaling matters). Build and
/// CheckInvariants require full quiescence (QueryExecutor::Quiesce;
/// writers fan out via UpdateExecutor).
class AugmentedMetablockTree {
 public:
  /// Creates an empty tree.
  explicit AugmentedMetablockTree(Pager* pager);

  /// Bulk-builds a balanced tree from an x-sorted group (y >= x required
  /// each). The one construction implementation; fault-atomic.
  static Result<AugmentedMetablockTree> Build(Pager* pager,
                                              PointGroup points);

  /// Bulk-builds from a stream in any order (external sort, then build).
  static Result<AugmentedMetablockTree> Build(Pager* pager,
                                              RecordStream<Point>* points);

  /// In-memory wrappers over the stream build.
  static Result<AugmentedMetablockTree> Build(Pager* pager,
                                              std::span<const Point> points);
  static Result<AugmentedMetablockTree> Build(Pager* pager,
                                              std::vector<Point>&& points);

  /// Inserts one point (y >= x). Amortized O(log_B n + (log_B n)^2/B) I/Os.
  /// Re-inserting a tombstoned identity resurrects the stored point.
  Status Insert(const Point& p);

  /// Weak-deletes the exact point (x, y, id); sets *found. One membership
  /// probe + amortized O((log_B n)/B) purge charge (see class comment).
  Status Delete(const Point& p, bool* found);

  /// Weak-deletes a point the caller KNOWS is stored (a composition
  /// invariant, e.g. IntervalIndex's endpoint entry for the same
  /// interval). Skips the membership probe, so the deletion itself is
  /// pure memory and cannot fail part-way: an error can only come from
  /// the scheduled purge, by which time the delete has landed — the
  /// fault-atomicity hook for composite indexes.
  Status DeleteKnown(const Point& p);

  /// Streams all points with x <= q.a and y >= q.a into `sink`; kStop
  /// halts descent (see MetablockTree::Query). O(log_B n + t/B) I/Os.
  Status Query(const DiagonalQuery& q, ResultSink<Point>* sink) const;

  /// Appends all points with x <= q.a and y >= q.a to `out`.
  /// O(log_B n + t/B) I/Os.
  Status Query(const DiagonalQuery& q, std::vector<Point>* out) const;

  /// Live points (excludes tombstoned-but-not-yet-purged points). Safe
  /// against concurrent updates (reads under the write latch).
  uint64_t size() const {
    std::lock_guard<std::mutex> lk(*write_mu_);
    return size_;
  }
  /// Weak deletes awaiting the next purge (diagnostics; always less than
  /// half the live weight by the scheduler's purge rule).
  size_t outstanding_tombstones() const { return tombstones_.size(); }
  uint32_t branching() const { return branching_; }
  uint32_t metablock_capacity() const { return branching_ * branching_; }

  /// Root control page (kInvalidPageId when empty) and owning pager —
  /// exposed so composite indexes can stage batched warm-ups of their
  /// component roots before the serial query sequence touches them.
  PageId root_page() const { return root_; }
  Pager* pager() const { return pager_; }

  /// Frees all pages.
  Status Destroy();

  /// Structural checks (sizes, bboxes, blocking agreement, desc_ymax and
  /// node_ymax watermarks, TS freshness envelope). O(n/B) I/Os.
  Status CheckInvariants() const;

 private:
  // Control record for one metablock (one control page each).
  struct Control {
    uint32_t num_points;    // merged (organized) own points
    uint32_t num_children;
    Coord bbox_xmin, bbox_xmax, bbox_ymin, bbox_ymax;  // organized points
    Coord sub_xlo, sub_xhi;  // subtree x-interval
    uint64_t children_head = kInvalidPageId;
    uint64_t vindex_head = kInvalidPageId;
    uint64_t horiz_head = kInvalidPageId;
    uint64_t ts_head = kInvalidPageId;  // TS(this), maintained by the parent
    uint64_t corner_header = kInvalidPageId;
    // --- dynamic state ---
    uint64_t update_page;    // one page of buffered inserts (always valid)
    uint32_t update_count;
    uint32_t td_update_count;
    uint64_t td_update_page = kInvalidPageId;  // TD additions (non-leaf)
    uint64_t td_header = kInvalidPageId;  // TD corner structure, if non-empty
    uint32_t td_count;        // points inside td_header
    uint32_t pad;
    Coord update_ymax = kCoordMin;  // max y among buffered inserts
    Coord desc_ymax = kCoordMin;    // max y among strict descendants
    Coord node_ymax;         // max(bbox_ymax, update_ymax, desc_ymax)
  };

  struct ChildEntry {
    Coord sub_xlo;
    Coord node_ymax;  // child's node_ymax at last parent write
    uint64_t control;
  };

  // A sibling metablock created by a leaf split, to be spliced into the
  // parent's child list right after the splitting child.
  struct SplitEntry {
    PageId id;
    Coord xlo;
    Coord node_ymax;
  };

  // Outcome of AddPoints on a child, reported to the parent.
  struct AddResult {
    PageId id;          // possibly new control id (after a rebuild)
    Coord sub_xlo, sub_xhi;
    Coord node_ymax;
    std::vector<SplitEntry> splits;  // leaf splits, in x order
    bool structural = false;  // level II / split at this node: parent must
                              // TS-reorganize its children
  };

  struct BuiltNode {
    Control ctrl;
    std::vector<Point> own_points;
    PageId control_page;
  };

  AugmentedMetablockTree(Pager* pager, PageId root, uint64_t size,
                         uint32_t branching)
      : pager_(pager), root_(root), size_(size), branching_(branching) {}

  static Result<BuiltNode> BuildNode(Pager* pager, PointGroup group,
                                     uint32_t branching);
  static Status WriteControl(Pager* pager, PageId id, const Control& c);
  Status LoadControl(PageId id, Control* c) const;

  // Rebuilds own-point organizations from `own` (frees the old ones first
  // when free_old). Updates bbox / num_points / node_ymax in *ctrl.
  static Status RebuildOrganizations(Pager* pager, Control* ctrl,
                                     std::vector<Point> own, bool free_old);

  // Adds points into this node's update block, cascading level I / II.
  Result<AddResult> AddPoints(PageId id, std::vector<Point> pts);

  Status LevelOne(PageId id, Control* ctrl);     // merge update block
  // Level II for a non-leaf: keep top B^2, push bottom into children.
  // Sets result->structural.
  Status LevelTwoInternal(PageId id, Control* ctrl, AddResult* result);

  // Records pushed points into TD(M); rebuilds the TD corner structure
  // every B additions.
  Status AddToTd(Control* ctrl, std::span<const Point> pts);
  Status ClearTd(Control* ctrl);

  // Rebuilds TS(child) for every child of `ctrl` from current child state
  // and clears TD. O(B^2) I/Os.
  Status TsReorganizeChildren(Control* ctrl);

  // Collects every point in the subtree (own + update blocks, recursively).
  Status CollectSubtree(PageId id, std::vector<Point>* out) const;
  // Destroys the subtree's pages. If keep_ts, the node's own TS chain is
  // not freed (the caller re-attaches it to the rebuilt node).
  Status DestroySubtree(PageId id, bool keep_ts);
  // Rebuilds the subtree at `id` as a balanced static tree; returns the new
  // control id (the old node's TS chain is carried over).
  Result<PageId> RebuildSubtree(PageId id);

  Status ReadUpdatePoints(const Control& ctrl, std::vector<Point>* out) const;
  Status ReportOwnPoints(const Control& ctrl, Coord a,
                         SinkEmitter<Point>& em) const;
  Status ReportSubtree(PageId id, Coord a, SinkEmitter<Point>& em) const;

  // The pre-dynamization reporting path (no tombstone filter); the public
  // Query wraps it when weak deletes are outstanding.
  Status QueryRaw(const DiagonalQuery& q, ResultSink<Point>* sink) const;

  // Read-only mirror of DestroySubtree: every page id of the subtree.
  // The fail-safe first half of the fault-atomic purge rebuild.
  Status VisitSubtreePages(PageId id, std::vector<PageId>* out) const;

  // Collects live points, rebuilds the whole tree through the bulk-build
  // pipeline, then retires the old pages by id (fault-atomic).
  Status GlobalPurgeRebuild();

  // DeleteKnown's body, called with write_mu_ held (Delete holds the
  // latch across its membership probe, so it must not re-lock).
  Status DeleteKnownLocked(const Point& p);

  Status CheckSubtree(PageId id, bool is_root, Coord* node_ymax_out,
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

#endif  // CCIDX_CORE_AUGMENTED_METABLOCK_TREE_H_
