// AugmentedTree: the Section 3.2 update engine, shared by the dynamic
// metablock tree (Theorem 3.7) and the dynamic 3-sided tree (Lemma 4.4,
// "the Section 3.2 insertion machinery" applied to the Section 4 variant).
//
// The engine owns everything the paper describes once (DESIGN.md §8, "The
// Section 3.2 update engine"):
//   * the update block: each metablock buffers up to B inserts in one page;
//     a full block triggers a LEVEL I reorganization, which merges it into
//     the metablock's own set and rebuilds its organizations;
//   * LEVEL II: at 2B^2 own points a non-leaf keeps the top B^2 and pushes
//     the rest into its children by x, recording the pushes in its TD
//     structure (rebuilt every B additions); a leaf splits in two;
//   * the TS reorganization trigger (a structural change below, or TD at
//     B^2 points) and the 2B-children subtree rebuild;
//   * the desc_ymax / node_ymax watermarks that keep subtree reporting
//     correct once push-downs break the static heap order;
//   * weak deletes through the shared tombstone set and the fault-atomic
//     purge rebuild, bulk builds, Destroy and VisitPages.
//
// A family is a class `Tree` deriving from AugmentedTree<Tree, Layout>.
// Layout names the on-device pieces: StaticControl (the static tree's
// metablock control record, which the engine's Control extends with the
// update state), ChildEntry, Index (the structure type of the own-point
// index and of TD) and QueryShape. Tree supplies the hooks the engine calls:
//
//   static constexpr bool kAboveDiagonal;  // admit only points with y >= x
//   static constexpr uint64_t Control::* kOwnIndex;  // own-point Index root
//   // Index roots over the children, rebuilt at TS reorganizations:
//   static constexpr std::array<uint64_t Control::*, N> kChildrenIndexes;
//   // The TS chain heads of a child, kept across a subtree rebuild:
//   static constexpr std::array<uint64_t Control::*, M> kTsChains;
//   static ChildEntry EntryFor(PageId id, const Control& ctrl);
//   static size_t LeafSplitPoint(const std::vector<Point>& sorted_by_x);
//   static Result<PageId> BuildOwnIndex(Pager*, const Control&,
//       std::span<const Point> sorted_by_x, const VerticalBlocking&);
//   static Result<PageId> BuildTd(Pager*, std::vector<Point> points);
//   static Result<std::vector<Point>> BuildChildren(Pager*, PointGroup,
//       uint32_t branching, Control*, std::vector<ChildEntry>*);
//   Status TsReorganizeChildren(Control* ctrl);
//   static QueryShape ProbeQuery(const Point& p);
//   Status QueryRaw(const QueryShape& q, ResultSink<Point>* sink) const;
//   Status CheckNode(const Control&, const std::vector<Point>& own) const;
//   Status CheckChildren(const Control&, const std::vector<ChildEntry>&,
//       const std::vector<Control>& child_ctrls,
//       std::vector<std::vector<Point>> stored) const;
//
// The engine is explicitly instantiated for the two families in
// augmented_tree.cc.

#ifndef CCIDX_CORE_AUGMENTED_TREE_H_
#define CCIDX_CORE_AUGMENTED_TREE_H_

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
#include "ccidx/query/sink.h"

namespace ccidx {

template <class Tree, class Layout>
class AugmentedTree {
 public:
  using QueryShape = typename Layout::QueryShape;

  /// Creates an empty tree (B >= 8 required; B from the pager page size).
  explicit AugmentedTree(Pager* pager);

  /// Bulk-builds a balanced tree from an x-sorted group — the one
  /// construction implementation (fault-atomic).
  static Result<Tree> Build(Pager* pager, PointGroup points);

  /// Bulk-builds from a stream in any order (external sort, then build).
  static Result<Tree> Build(Pager* pager, RecordStream<Point>* points);

  /// In-memory wrappers over the stream build.
  static Result<Tree> Build(Pager* pager, std::span<const Point> points);
  static Result<Tree> Build(Pager* pager, std::vector<Point>&& points);

  /// Inserts one point. Re-inserting a tombstoned identity resurrects the
  /// stored point at zero I/O.
  Status Insert(const Point& p);

  /// Weak-deletes the exact point (x, y, id); sets *found. One membership
  /// probe + amortized O((log_B n)/B) purge charge.
  Status Delete(const Point& p, bool* found);

  /// Weak-deletes a point the caller KNOWS is stored (a composition
  /// invariant, e.g. IntervalIndex's endpoint entry for the same
  /// interval). Skips the membership probe, so the deletion itself is
  /// pure memory and cannot fail part-way: an error can only come from
  /// the scheduled purge, by which time the delete has landed — the
  /// fault-atomicity hook for composite indexes.
  Status DeleteKnown(const Point& p);

  /// Streams every live point in `q` into `sink`; kStop halts descent.
  /// Tombstoned points are filtered at zero extra I/O.
  Status Query(const QueryShape& q, ResultSink<Point>* sink) const;

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

  /// Appends every page id of the tree to `out`, each exactly once (the
  /// read-only mirror of Destroy). O(n/B) I/Os; requires quiescence.
  Status VisitPages(std::vector<PageId>* out) const;

  /// Structural checks: metablock sizes, update blocks, subtree
  /// x-intervals, the desc_ymax / node_ymax watermarks, the TS freshness
  /// envelope (TS = the siblings' stored points less TD's pushes), the
  /// family's organizations, and the stored-point count against live
  /// points and tombstones. O(n/B) I/Os.
  Status CheckInvariants() const;

 protected:
  using ChildEntry = typename Layout::ChildEntry;
  using Index = typename Layout::Index;

  // Control record for one metablock (one control page each): the static
  // tree's record, then the dynamic state.
  struct Control : Layout::StaticControl {
    uint64_t update_page;    // one page of buffered inserts (always valid)
    uint32_t update_count;
    uint32_t td_update_count;
    uint64_t td_update_page = kInvalidPageId;  // TD additions (non-leaf)
    uint64_t td_root = kInvalidPageId;  // TD Index, if non-empty
    uint32_t td_count;                  // points inside td_root
    uint32_t pad;
    Coord update_ymax = kCoordMin;  // max y among buffered inserts
    Coord desc_ymax = kCoordMin;    // max y among strict descendants
    Coord node_ymax;                // max(bbox_ymax, update_ymax, desc_ymax)
  };

  // Outcome of AddPoints on a child, reported to the parent.
  struct AddResult {
    ChildEntry self;  // the child's refreshed entry (new id after a rebuild)
    std::vector<ChildEntry> splits;  // leaf-split siblings, in x order
    bool structural = false;  // level II / split at this node: the parent
                              // must TS-reorganize its children
  };

  struct BuiltNode {
    Control ctrl;
    std::vector<Point> own_points;
    PageId control_page;
  };

  AugmentedTree(Pager* pager, PageId root, uint64_t size, uint32_t branching)
      : pager_(pager), root_(root), size_(size), branching_(branching) {}

  // Routes a coordinate to a child slot: the last child whose subtree
  // starts at or left of x, or child 0 when x precedes every child.
  static size_t RouteChild(const std::vector<ChildEntry>& children, Coord x) {
    size_t idx = 0;
    for (size_t i = 1; i < children.size(); ++i) {
      if (children[i].sub_xlo <= x) idx = i;
    }
    return idx;
  }

  // Builds a subtree over `group`; the caller writes the root's control
  // page (its TS chains are attached by the parent first).
  static Result<BuiltNode> BuildNode(Pager* pager, PointGroup group,
                                     uint32_t branching);
  static Status WriteControl(Pager* pager, PageId id, const Control& c);
  Status LoadControl(PageId id, Control* c) const;

  // Appends the update block's points.
  Status ReadUpdatePoints(const Control& ctrl, std::vector<Point>* out) const;
  // Appends the points stored in the metablock: organized + buffered.
  Status ReadStoredPoints(const Control& ctrl, std::vector<Point>* out) const;

  // Reports a subtree known to lie inside the query's x-range: every point
  // with y >= ylo, descending iff the desc_ymax watermark admits output.
  Status ReportSubtree(PageId id, Coord ylo, SinkEmitter<Point>& em) const;

  // Frees the TS chain at *head, then writes one over `ts` there (none
  // when `ts` is empty).
  Status ReplaceTsChain(uint64_t* head, const std::vector<Point>& ts);

  // Clears TD (after a TS reorganization refreshed every TS chain).
  Status ClearTd(Control* ctrl);

  Pager* pager_;
  PageId root_;

 private:
  // Rebuilds own-point organizations from `own` (frees the old ones first
  // when free_old). Updates bbox / num_points / node_ymax in *ctrl.
  static Status RebuildOrganizations(Pager* pager, Control* ctrl,
                                     std::vector<Point> own, bool free_old);
  // Sorts `points` by x and builds a subtree over them, TS chains unset.
  Result<BuiltNode> BuildSorted(std::vector<Point> points);

  // Adds points into this node's update block, cascading level I / II.
  Result<AddResult> AddPoints(PageId id, std::vector<Point> pts);
  Status LevelOne(Control* ctrl);  // merge the update block
  // Level II for a non-leaf: keep top B^2, push the bottom into children.
  Status LevelTwoInternal(Control* ctrl, AddResult* result);
  // Records pushed points into TD; rebuilds the TD Index every B additions.
  Status AddToTd(Control* ctrl, std::span<const Point> pts);

  // Collects every point in the subtree (own + update blocks, recursively).
  Status CollectSubtree(PageId id, std::vector<Point>* out) const;
  Status DestroySubtree(PageId id);
  // Read-only mirror of DestroySubtree: every page id of the subtree.
  // The fail-safe first half of the fault-atomic purge rebuild.
  Status VisitSubtreePages(PageId id, std::vector<PageId>* out) const;
  // Rebuilds the subtree at `id` as a balanced static tree; returns the new
  // control id (the old node's TS chains are carried over).
  Result<PageId> RebuildSubtree(PageId id);

  // Collects live points, rebuilds the whole tree through the bulk-build
  // pipeline, then retires the old pages by id (fault-atomic).
  Status GlobalPurgeRebuild();
  // Appends TD's points: its Index and its one-page buffer.
  Status CollectTd(const Control& ctrl, std::vector<Point>* out) const;
  // Checks the subtree at `id`; returns the max y stored in it and its
  // point count.
  Status CheckSubtree(PageId id, Coord* node_ymax_out,
                      uint64_t* count_out) const;

  // DeleteKnown's body, called with write_mu_ held (Delete holds the
  // latch across its membership probe, so it must not re-lock).
  Status DeleteKnownLocked(const Point& p);

  // The node's valid Index roots besides TD: the own-point index, then
  // the family's children indexes.
  static std::vector<PageId> IndexRoots(const Control& ctrl);

  static bool Admissible(const Point& p) {
    return !Tree::kAboveDiagonal || p.y >= p.x;
  }
  Tree& tree() { return static_cast<Tree&>(*this); }
  const Tree& tree() const { return static_cast<const Tree&>(*this); }

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

#endif  // CCIDX_CORE_AUGMENTED_TREE_H_
