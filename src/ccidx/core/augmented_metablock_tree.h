// AugmentedMetablockTree: the semi-dynamic metablock tree of Section 3.2.
//
// Supports insertions at amortized O(log_B n + (log_B n)^2 / B) I/Os while
// keeping diagonal corner queries at O(log_B n + t/B) I/Os and space at
// O(n/B) pages (Theorem 3.7).
//
// The update machinery — update blocks, level I / II reorganizations, TD,
// TS reorganizations, the 2B-children subtree rebuild, the desc_ymax /
// node_ymax watermarks, weak deletes — is the shared Section 3.2 engine
// (core/augmented_tree.h; DESIGN.md §8, "The Section 3.2 update engine").
// This family contributes the diagonal-corner pieces:
//   * each metablock is the static tree's (MetablockTree::Control), with a
//     corner structure over its own vertical blocking, rebuilt at level I;
//   * TD is a corner structure over the points pushed into the children
//     since the last TS reorganization;
//   * one TS chain per child (the top B^2 of its left siblings), rebuilt
//     in one left-to-right pass;
//   * leaves split at the even half;
//   * queries walk the static tree's path, consulting TD wherever they
//     consult a TS chain, so TS staleness never loses points.
// Measured query I/O is verified against the theorem's bound in
// bench_metablock_insert / tests.

#ifndef CCIDX_CORE_AUGMENTED_METABLOCK_TREE_H_
#define CCIDX_CORE_AUGMENTED_METABLOCK_TREE_H_

#include <array>
#include <span>
#include <vector>

#include "ccidx/core/augmented_tree.h"
#include "ccidx/core/corner_structure.h"
#include "ccidx/core/metablock_tree.h"

namespace ccidx {

/// On-device node layout of the dynamic metablock tree.
struct AugmentedMetablockLayout {
  using StaticControl = MetablockTree::Control;
  struct ChildEntry {
    Coord sub_xlo;
    Coord node_ymax;  // child's node_ymax at last parent write
    uint64_t control;
  };
  using Index = CornerStructure;  // own-point corner structure and TD
  using QueryShape = DiagonalQuery;
};

/// Dynamic metablock tree: the paper's semi-dynamic structure of Section
/// 3.2 (Theorem 3.7, native inserts) extended with weak deletes through
/// the shared dynamization layer (DESIGN.md §8). Points must satisfy
/// y >= x.
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
/// Query streams all points with x <= q.a and y >= q.a into the sink;
/// kStop halts descent (see MetablockTree::Query).
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
class AugmentedMetablockTree
    : public AugmentedTree<AugmentedMetablockTree, AugmentedMetablockLayout> {
 public:
  using AugmentedTree::AugmentedTree;

 private:
  friend AugmentedTree;

  // --- Engine hooks (see core/augmented_tree.h) ---
  static constexpr bool kAboveDiagonal = true;
  static constexpr uint64_t Control::* kOwnIndex = &Control::corner_header;
  static constexpr std::array<uint64_t Control::*, 0> kChildrenIndexes{};
  static constexpr std::array<uint64_t Control::*, 1> kTsChains{
      &Control::ts_head};

  static ChildEntry EntryFor(PageId id, const Control& ctrl) {
    return {ctrl.sub_xlo, ctrl.node_ymax, id};
  }
  static size_t LeafSplitPoint(const std::vector<Point>& sorted_by_x) {
    return sorted_by_x.size() / 2;
  }
  static QueryShape ProbeQuery(const Point& p) { return {p.y}; }

  // A corner structure over the metablock's own vertical blocking, when
  // the diagonal crosses its bbox.
  static Result<PageId> BuildOwnIndex(Pager* pager, const Control& ctrl,
                                      std::span<const Point> sorted_by_x,
                                      const VerticalBlocking& blocking);
  static Result<PageId> BuildTd(Pager* pager, std::vector<Point> points);
  // Builds the children (even x split) and their TS chains as they come.
  static Result<std::vector<Point>> BuildChildren(
      Pager* pager, PointGroup group, uint32_t branching, Control* ctrl,
      std::vector<ChildEntry>* children);
  // Rebuilds TS(child) for every child from current child state and
  // clears TD. O(B^2) I/Os.
  Status TsReorganizeChildren(Control* ctrl);

  // --- Queries ---
  Status QueryRaw(const DiagonalQuery& q, ResultSink<Point>* sink) const;
  // The update block's hits, then the static tree's Type I-IV dispatch.
  Status ReportOwnPoints(const Control& ctrl, Coord a,
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

#endif  // CCIDX_CORE_AUGMENTED_METABLOCK_TREE_H_
