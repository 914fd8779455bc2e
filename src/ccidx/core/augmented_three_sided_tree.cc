#include "ccidx/core/augmented_three_sided_tree.h"

#include <algorithm>

namespace ccidx {

size_t AugmentedThreeSidedTree::LeafSplitPoint(
    const std::vector<Point>& sorted_by_x) {
  const size_t n = sorted_by_x.size();
  // Try moving right from the middle, then left.
  for (size_t m = n / 2; m < n; ++m) {
    if (sorted_by_x[m - 1].x != sorted_by_x[m].x) return m;
  }
  for (size_t m = n / 2; m > 0; --m) {
    if (sorted_by_x[m - 1].x != sorted_by_x[m].x) return m;
  }
  return 0;
}

Result<PageId> AugmentedThreeSidedTree::BuildOwnIndex(
    Pager* pager, const Control& /*ctrl*/, std::span<const Point> sorted_by_x,
    const VerticalBlocking& /*blocking*/) {
  auto pst = ExternalPst::Build(pager, sorted_by_x);
  CCIDX_RETURN_IF_ERROR(pst.status());
  return pst->root();
}

Result<PageId> AugmentedThreeSidedTree::BuildTd(Pager* pager,
                                                std::vector<Point> points) {
  auto pst = ExternalPst::Build(pager, std::move(points));
  CCIDX_RETURN_IF_ERROR(pst.status());
  return pst->root();
}

Result<std::vector<Point>> AugmentedThreeSidedTree::BuildChildren(
    Pager* pager, PointGroup group, uint32_t branching, Control* ctrl,
    std::vector<ChildEntry>* entries) {
  const uint32_t b2 = branching * branching;
  // Tie-free boundaries: never separate an equal-x run, so routing by
  // sub_xlo equals membership (fork filtering depends on this).
  const uint32_t fanout = ChildFanout(group.size() - b2, branching);
  std::vector<BuiltNode> children;
  auto top = std::move(group).PartitionTopY(
      b2, fanout, PointGroup::SplitMode::kTieFreeX,
      [&](PointGroup sub) -> Status {
        auto child = BuildNode(pager, std::move(sub), branching);
        CCIDX_RETURN_IF_ERROR(child.status());
        children.push_back(std::move(*child));
        return Status::OK();
      });
  CCIDX_RETURN_IF_ERROR(top.status());

  // TS chains in both directions (running top-B^2 folds); children-union
  // PST.
  std::vector<Point> ts;
  std::vector<Point> acc;
  for (BuiltNode& child : children) {
    if (!ts.empty()) {
      auto head = WriteDescYChain(pager, ts);
      CCIDX_RETURN_IF_ERROR(head.status());
      child.ctrl.ts_left_head = *head;
    }
    FoldTopK(&ts, child.own_points, b2);
    acc.insert(acc.end(), child.own_points.begin(), child.own_points.end());
  }
  auto pst = ExternalPst::Build(pager, std::move(acc));
  CCIDX_RETURN_IF_ERROR(pst.status());
  ctrl->children_pst_root = pst->root();
  ts.clear();
  for (size_t i = children.size(); i-- > 0;) {
    if (!ts.empty()) {
      auto head = WriteDescYChain(pager, ts);
      CCIDX_RETURN_IF_ERROR(head.status());
      children[i].ctrl.ts_right_head = *head;
    }
    FoldTopK(&ts, children[i].own_points, b2);
  }
  for (BuiltNode& child : children) {
    CCIDX_RETURN_IF_ERROR(WriteControl(pager, child.control_page, child.ctrl));
    entries->push_back(EntryFor(child.control_page, child.ctrl));
  }
  return top;
}

Status AugmentedThreeSidedTree::TsReorganizeChildren(Control* ctrl) {
  const uint32_t b2 = metablock_capacity();
  PageIo io(pager_);
  std::vector<ChildEntry> children;
  CCIDX_RETURN_IF_ERROR(
      io.ReadChain<ChildEntry>(ctrl->children_head, &children));

  // Gather every child's current stored set once.
  std::vector<std::vector<Point>> sets(children.size());
  std::vector<Control> ctrls(children.size());
  for (size_t i = 0; i < children.size(); ++i) {
    CCIDX_RETURN_IF_ERROR(LoadControl(children[i].control, &ctrls[i]));
    CCIDX_RETURN_IF_ERROR(ReadStoredPoints(ctrls[i], &sets[i]));
  }
  std::vector<Point> ts;
  std::vector<Point> acc;
  for (size_t i = 0; i < children.size(); ++i) {
    CCIDX_RETURN_IF_ERROR(ReplaceTsChain(&ctrls[i].ts_left_head, ts));
    FoldTopK(&ts, sets[i], b2);
    acc.insert(acc.end(), sets[i].begin(), sets[i].end());
  }
  // Children-union PST from the same snapshot.
  if (ctrl->children_pst_root != kInvalidPageId) {
    CCIDX_RETURN_IF_ERROR(
        ExternalPst::Open(pager_, ctrl->children_pst_root).Free());
  }
  auto pst = ExternalPst::Build(pager_, std::move(acc));
  CCIDX_RETURN_IF_ERROR(pst.status());
  ctrl->children_pst_root = pst->root();
  ts.clear();
  for (size_t i = children.size(); i-- > 0;) {
    CCIDX_RETURN_IF_ERROR(ReplaceTsChain(&ctrls[i].ts_right_head, ts));
    FoldTopK(&ts, sets[i], b2);
  }
  for (size_t i = 0; i < children.size(); ++i) {
    CCIDX_RETURN_IF_ERROR(WriteControl(pager_, children[i].control,
                                       ctrls[i]));
  }
  return ClearTd(ctrl);
}

// ---------------------------------------------------------------------------
// Queries
// ---------------------------------------------------------------------------

Status AugmentedThreeSidedTree::ReportOwnPoints(
    const Control& ctrl, Coord xlo, Coord xhi, Coord ylo,
    SinkEmitter<Point>& em) const {
  if (em.stopped()) return Status::OK();
  if (ctrl.update_count > 0) {
    std::vector<Point> upd;
    CCIDX_RETURN_IF_ERROR(ReadUpdatePoints(ctrl, &upd));
    simd::EmitFiltered3Sided(em, upd, xlo, xhi, ylo);
  }
  return ThreeSidedTree::ReportOwnPoints(pager_, ctrl, xlo, xhi, ylo, em);
}

Status AugmentedThreeSidedTree::ReportTd(
    const Control& ctrl, const ThreeSidedQuery& q,
    const std::function<bool(const Point&)>& keep,
    SinkEmitter<Point>& em) const {
  if (em.stopped()) return Status::OK();
  // The snapshot hits must be buffered: they are filtered by the routing
  // predicate before any of them may reach the sink.
  std::vector<Point> hits;
  if (ctrl.td_root != kInvalidPageId) {
    ExternalPst td = ExternalPst::Open(pager_, ctrl.td_root);
    VectorSink<Point> td_sink(&hits);
    CCIDX_RETURN_IF_ERROR(td.Query(q, &td_sink));
  }
  if (ctrl.td_update_count > 0) {
    PageIo io(pager_);
    std::vector<Point> buf;
    auto next = io.ReadRecords<Point>(ctrl.td_update_page, &buf);
    CCIDX_RETURN_IF_ERROR(next.status());
    for (const Point& p : buf) {
      if (q.Contains(p)) hits.push_back(p);
    }
  }
  em.EmitFiltered(hits, keep);
  return Status::OK();
}

Status AugmentedThreeSidedTree::LeftPath(PageId id, Coord xlo, Coord ylo,
                                         SinkEmitter<Point>& em) const {
  PageIo io(pager_);
  while (id != kInvalidPageId && !em.stopped()) {
    Control ctrl;
    CCIDX_RETURN_IF_ERROR(LoadControl(id, &ctrl));
    CCIDX_RETURN_IF_ERROR(ReportOwnPoints(ctrl, xlo, kCoordMax, ylo, em));
    if (ctrl.num_children == 0 || em.stopped()) return Status::OK();
    std::vector<ChildEntry> children;
    CCIDX_RETURN_IF_ERROR(io.ReadChain<ChildEntry>(ctrl.children_head,
                                                   &children));
    size_t j = children.size();
    for (size_t i = 0; i < children.size(); ++i) {
      if (children[i].sub_xhi >= xlo) {
        j = i;
        break;
      }
    }
    if (j == children.size()) return Status::OK();
    if (j + 1 < children.size()) {
      Control jc;
      CCIDX_RETURN_IF_ERROR(LoadControl(children[j].control, &jc));
      std::vector<Point> ts_hits;
      auto crossed = CollectDescYChain(
          pager_, jc.ts_right_head, ylo, &ts_hits);
      CCIDX_RETURN_IF_ERROR(crossed.status());
      if (*crossed) {
        em.Emit(ts_hits);
        if (!em.stopped()) {
          // TD(M) supplements the snapshot for pushes since the last TS
          // reorganization, restricted to the right-sibling x range.
          Coord right_lo = children[j + 1].sub_xlo;
          CCIDX_RETURN_IF_ERROR(ReportTd(
              ctrl, {right_lo, kCoordMax, ylo},
              [&](const Point& p) { return RouteChild(children, p.x) > j; },
              em));
        }
      } else {
        for (size_t i = j + 1; i < children.size() && !em.stopped(); ++i) {
          if (children[i].node_ymax >= ylo) {
            CCIDX_RETURN_IF_ERROR(
                ReportSubtree(children[i].control, ylo, em));
          }
        }
      }
      if (em.stopped()) return Status::OK();
    }
    if (children[j].node_ymax < ylo) return Status::OK();
    id = children[j].control;
  }
  return Status::OK();
}

Status AugmentedThreeSidedTree::RightPath(PageId id, Coord xhi, Coord ylo,
                                          SinkEmitter<Point>& em) const {
  PageIo io(pager_);
  while (id != kInvalidPageId && !em.stopped()) {
    Control ctrl;
    CCIDX_RETURN_IF_ERROR(LoadControl(id, &ctrl));
    CCIDX_RETURN_IF_ERROR(ReportOwnPoints(ctrl, kCoordMin, xhi, ylo, em));
    if (ctrl.num_children == 0 || em.stopped()) return Status::OK();
    std::vector<ChildEntry> children;
    CCIDX_RETURN_IF_ERROR(io.ReadChain<ChildEntry>(ctrl.children_head,
                                                   &children));
    size_t j = children.size();
    for (size_t i = 0; i < children.size(); ++i) {
      if (children[i].sub_xlo <= xhi) j = i;
    }
    if (j == children.size()) return Status::OK();
    if (j > 0) {
      Control jc;
      CCIDX_RETURN_IF_ERROR(LoadControl(children[j].control, &jc));
      std::vector<Point> ts_hits;
      auto crossed = CollectDescYChain(
          pager_, jc.ts_left_head, ylo, &ts_hits);
      CCIDX_RETURN_IF_ERROR(crossed.status());
      if (*crossed) {
        em.Emit(ts_hits);
        if (!em.stopped()) {
          Coord left_hi = children[j].sub_xlo - 1;
          CCIDX_RETURN_IF_ERROR(ReportTd(
              ctrl, {kCoordMin, left_hi, ylo},
              [&](const Point& p) { return RouteChild(children, p.x) < j; },
              em));
        }
      } else {
        for (size_t i = 0; i < j && !em.stopped(); ++i) {
          if (children[i].node_ymax >= ylo) {
            CCIDX_RETURN_IF_ERROR(
                ReportSubtree(children[i].control, ylo, em));
          }
        }
      }
      if (em.stopped()) return Status::OK();
    }
    if (children[j].node_ymax < ylo) return Status::OK();
    id = children[j].control;
  }
  return Status::OK();
}

Status AugmentedThreeSidedTree::QueryRaw(const ThreeSidedQuery& q,
                                         ResultSink<Point>* sink) const {
  if (root_ == kInvalidPageId || q.xlo > q.xhi) return Status::OK();
  PageIo io(pager_);
  SinkEmitter<Point> em(sink);
  PageId id = root_;
  while (true) {
    Control ctrl;
    CCIDX_RETURN_IF_ERROR(LoadControl(id, &ctrl));
    CCIDX_RETURN_IF_ERROR(
        ReportOwnPoints(ctrl, q.xlo, q.xhi, q.ylo, em));
    if (ctrl.num_children == 0 || em.stopped()) return Status::OK();
    std::vector<ChildEntry> children;
    CCIDX_RETURN_IF_ERROR(io.ReadChain<ChildEntry>(ctrl.children_head,
                                                   &children));
    size_t jl = children.size(), jr = children.size();
    for (size_t i = 0; i < children.size(); ++i) {
      if (jl == children.size() && children[i].sub_xhi >= q.xlo) jl = i;
      if (children[i].sub_xlo <= q.xhi) jr = i;
    }
    if (jl == children.size() || jr == children.size() || jl > jr) {
      return Status::OK();
    }
    if (jl == jr) {
      if (children[jl].node_ymax < q.ylo) return Status::OK();
      id = children[jl].control;
      continue;
    }
    // Fork. Per-child dichotomy: traversal or snapshot, never both.
    // Fork endpoints are always traversed (their x clipping needs the
    // path machinery); a middle child is traversed when its watermarks
    // admit output below it, otherwise served from the snapshots.
    std::vector<bool> use_snapshot(children.size(), false);
    for (size_t m = jl + 1; m < jr; ++m) {
      if (children[m].node_ymax < q.ylo) continue;  // nothing anywhere
      if (children[m].desc_ymax >= q.ylo) {
        if (em.stopped()) return Status::OK();
        CCIDX_RETURN_IF_ERROR(ReportSubtree(children[m].control, q.ylo,
                                            em));
      } else {
        use_snapshot[m] = true;
      }
    }
    bool any_snapshot = false;
    for (bool b : use_snapshot) any_snapshot |= b;
    if (any_snapshot && !em.stopped()) {
      auto keep = [&](const Point& p) {
        return use_snapshot[RouteChild(children, p.x)];
      };
      if (ctrl.children_pst_root != kInvalidPageId) {
        ExternalPst pst =
            ExternalPst::Open(pager_, ctrl.children_pst_root);
        // Routed through the keep predicate before reaching the sink; the
        // PST's own early termination still applies underneath.
        FunctionSink<Point> routed([&](std::span<const Point> batch) {
          em.EmitFiltered(batch, keep);
          return em.stopped() ? SinkState::kStop : SinkState::kContinue;
        });
        SinkEmitter<Point> routed_em(&routed);
        CCIDX_RETURN_IF_ERROR(pst.Query(q, routed_em));
      }
      if (!em.stopped()) {
        CCIDX_RETURN_IF_ERROR(ReportTd(ctrl, q, keep, em));
      }
    }
    if (children[jl].node_ymax >= q.ylo && !em.stopped()) {
      CCIDX_RETURN_IF_ERROR(
          LeftPath(children[jl].control, q.xlo, q.ylo, em));
    }
    if (children[jr].node_ymax >= q.ylo && !em.stopped()) {
      CCIDX_RETURN_IF_ERROR(
          RightPath(children[jr].control, q.xhi, q.ylo, em));
    }
    return Status::OK();
  }
}

// ---------------------------------------------------------------------------
// Checks
// ---------------------------------------------------------------------------

Status AugmentedThreeSidedTree::CheckNode(
    const Control& ctrl, const std::vector<Point>& own) const {
  if (ctrl.own_pst_root == kInvalidPageId) {
    return own.empty() ? Status::OK()
                       : Status::Corruption("missing own PST");
  }
  return ExternalPst::Open(pager_, ctrl.own_pst_root).CheckInvariants();
}

Status AugmentedThreeSidedTree::CheckChildren(
    const Control& ctrl, const std::vector<ChildEntry>& children,
    const std::vector<Control>& child_ctrls,
    std::vector<std::vector<Point>> stored) const {
  if (ctrl.children_pst_root == kInvalidPageId) {
    return Status::Corruption("missing children PST");
  }
  std::vector<PageId> left_heads, right_heads;
  for (size_t i = 0; i < children.size(); ++i) {
    if (i > 0 && children[i].sub_xlo <= children[i - 1].sub_xhi) {
      return Status::Corruption("child x-intervals overlap");
    }
    left_heads.push_back(child_ctrls[i].ts_left_head);
    right_heads.push_back(child_ctrls[i].ts_right_head);
  }
  // TS-left (TS-right) of child i is the top B^2 of its left (right)
  // siblings' stored points.
  const uint32_t b2 = metablock_capacity();
  CCIDX_RETURN_IF_ERROR(CheckTsChains(pager_, left_heads, stored, b2));
  std::reverse(right_heads.begin(), right_heads.end());
  std::reverse(stored.begin(), stored.end());
  return CheckTsChains(pager_, right_heads, stored, b2);
}

}  // namespace ccidx
