// AugmentedThreeSidedTree: the semi-dynamic 3-sided metablock tree
// (Lemma 4.4) — the Section 3.2 insertion machinery applied to the
// Section 4 variant.
//
// Answers q = [xlo, xhi] x [ylo, +inf) in O(log_B n + log2 B + t/B) I/Os
// while supporting inserts at amortized O(log_B n + log2 B +
// (log_B n)^2 / B) I/Os, exactly as the lemma prescribes. The update
// machinery is the shared Section 3.2 engine (core/augmented_tree.h;
// DESIGN.md §8, "The Section 3.2 update engine"); with it, the corner
// structures of Section 3.2 "become 3-sided structures":
//   * each metablock is the static tree's (ThreeSidedTree::Control), with
//     an ExternalPst over its own points, rebuilt at level I;
//   * TD is likewise an ExternalPst over the points pushed into the
//     children since the last TS reorganization;
//   * TS reorganizations rebuild the per-parent children-union PST and
//     BOTH TS chains of every child;
//   * leaves split tie-free (never separating an equal-x run), so routing
//     by sub_xlo equals membership.
//
// Query-time consistency (the dynamic analogue of the static tree's
// slab path and fork):
//   * the one-sided paths use the crossed/exhausted TS dichotomy with the
//     TD structure consulted on crossings (hits filtered to the sibling
//     side by deterministic x-routing), mirroring the diagonal tree;
//   * at the fork, the children-union PST and TD are stale snapshots, so
//     each child in the slab is handled EITHER by full traversal (when its
//     watermarks admit deep output, or it is a fork endpoint) OR from the
//     snapshots (filtered to its routed x-interval) — never both, which is
//     what rules out double reporting of points that have since been
//     pushed deeper.

#ifndef CCIDX_CORE_AUGMENTED_THREE_SIDED_TREE_H_
#define CCIDX_CORE_AUGMENTED_THREE_SIDED_TREE_H_

#include <array>
#include <functional>
#include <span>
#include <vector>

#include "ccidx/core/augmented_tree.h"
#include "ccidx/core/three_sided_tree.h"
#include "ccidx/pst/external_pst.h"

namespace ccidx {

/// On-device node layout of the dynamic 3-sided tree.
struct AugmentedThreeSidedLayout {
  using StaticControl = ThreeSidedTree::Control;
  struct ChildEntry {
    Coord sub_xlo;
    Coord sub_xhi;
    Coord node_ymax;  // max y anywhere in the child's subtree (watermark)
    Coord desc_ymax;  // max y strictly below the child (watermark)
    uint64_t control;
  };
  using Index = ExternalPst;  // own-point PST, children-union PST and TD
  using QueryShape = ThreeSidedQuery;
};

/// Dynamic 3-sided metablock tree: Lemma 4.4's native inserts plus weak
/// deletes through the shared dynamization layer (DESIGN.md §8). Points
/// are arbitrary planar points.
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
/// Query streams all points with q.xlo <= x <= q.xhi and y >= q.ylo into
/// the sink; kStop halts descent and every subtree scan.
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
class AugmentedThreeSidedTree
    : public AugmentedTree<AugmentedThreeSidedTree,
                           AugmentedThreeSidedLayout> {
 public:
  using AugmentedTree::AugmentedTree;

 private:
  friend AugmentedTree;

  // --- Engine hooks (see core/augmented_tree.h) ---
  static constexpr bool kAboveDiagonal = false;
  static constexpr uint64_t Control::* kOwnIndex = &Control::own_pst_root;
  static constexpr std::array<uint64_t Control::*, 1> kChildrenIndexes{
      &Control::children_pst_root};
  static constexpr std::array<uint64_t Control::*, 2> kTsChains{
      &Control::ts_left_head, &Control::ts_right_head};

  static ChildEntry EntryFor(PageId id, const Control& ctrl) {
    return {ctrl.sub_xlo, ctrl.sub_xhi, ctrl.node_ymax, ctrl.desc_ymax, id};
  }
  // Splits near the middle without separating an equal-x run; zero (all x
  // equal) defers the split.
  static size_t LeafSplitPoint(const std::vector<Point>& sorted_by_x);
  static QueryShape ProbeQuery(const Point& p) { return {p.x, p.x, p.y}; }

  static Result<PageId> BuildOwnIndex(Pager* pager, const Control& ctrl,
                                      std::span<const Point> sorted_by_x,
                                      const VerticalBlocking& blocking);
  static Result<PageId> BuildTd(Pager* pager, std::vector<Point> points);
  // Builds the children (tie-free x split), then both TS chains of every
  // child and the children-union PST.
  static Result<std::vector<Point>> BuildChildren(
      Pager* pager, PointGroup group, uint32_t branching, Control* ctrl,
      std::vector<ChildEntry>* children);
  // Rebuilds both TS chains of every child and the children-union PST from
  // one snapshot of the children's stored points, and clears TD.
  Status TsReorganizeChildren(Control* ctrl);

  // --- Queries ---
  Status QueryRaw(const ThreeSidedQuery& q, ResultSink<Point>* sink) const;
  // The update block's hits, then the static tree's own-point dispatch,
  // clipped to [xlo, xhi] x [ylo, inf).
  Status ReportOwnPoints(const Control& ctrl, Coord xlo, Coord xhi,
                         Coord ylo, SinkEmitter<Point>& em) const;
  Status LeftPath(PageId id, Coord xlo, Coord ylo,
                  SinkEmitter<Point>& em) const;
  Status RightPath(PageId id, Coord xhi, Coord ylo,
                   SinkEmitter<Point>& em) const;
  // Emits TD-structure + TD-buffer hits matching q that `keep` accepts.
  Status ReportTd(const Control& ctrl, const ThreeSidedQuery& q,
                  const std::function<bool(const Point&)>& keep,
                  SinkEmitter<Point>& em) const;

  // --- Checks (beside the engine's) ---
  // The metablock's own organizations; `own` is its horizontal chain.
  Status CheckNode(const Control& ctrl, const std::vector<Point>& own) const;
  // Child x order and TS chains; stored[i] is what child i stored at the
  // last TS reorganization.
  Status CheckChildren(const Control& ctrl,
                       const std::vector<ChildEntry>& children,
                       const std::vector<Control>& child_ctrls,
                       std::vector<std::vector<Point>> stored) const;
};

}  // namespace ccidx

#endif  // CCIDX_CORE_AUGMENTED_THREE_SIDED_TREE_H_
