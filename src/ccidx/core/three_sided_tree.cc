#include "ccidx/core/three_sided_tree.h"

#include <algorithm>

namespace ccidx {

Status ThreeSidedTree::WriteControl(Pager* pager, PageId id,
                                    const Control& c) {
  auto ref = pager->PinMut(id, Pager::MutMode::kOverwrite);
  CCIDX_RETURN_IF_ERROR(ref.status());
  PageWriter w(ref->data());
  w.Put(c);
  return ref->Release();
}

Status ThreeSidedTree::LoadControl(PageId id, Control* c) const {
  auto ref = pager_->Pin(id);
  CCIDX_RETURN_IF_ERROR(ref.status());
  PageReader r(ref->data());
  *c = r.Get<Control>();
  return Status::OK();
}

Result<ThreeSidedTree::BuiltNode> ThreeSidedTree::BuildNode(
    Pager* pager, PointGroup group, uint32_t branching) {
  const uint32_t b2 = branching * branching;
  CCIDX_CHECK(!group.empty());
  PageIo io(pager);

  BuiltNode node;
  node.control_page = pager->Allocate();
  Control& ctrl = node.ctrl;
  ctrl = Control{};
  ctrl.sub_xlo = group.first_x();
  ctrl.sub_xhi = group.last_x();

  std::vector<Point> own;
  if (group.size() <= b2) {
    auto all = std::move(group).TakeAll();
    CCIDX_RETURN_IF_ERROR(all.status());
    own = std::move(*all);
  } else {
    const uint32_t fanout = ChildFanout(group.size() - b2, branching);
    // Build all children first; TS structures need both directions.
    std::vector<BuiltNode> children;
    auto top = std::move(group).PartitionTopY(
        b2, fanout, PointGroup::SplitMode::kEven,
        [&](PointGroup sub) -> Status {
          auto child = BuildNode(pager, std::move(sub), branching);
          CCIDX_RETURN_IF_ERROR(child.status());
          children.push_back(std::move(*child));
          return Status::OK();
        });
    CCIDX_RETURN_IF_ERROR(top.status());
    own = std::move(*top);

    // TS-left from running prefix top-B^2 folds, TS-right from suffix
    // folds.
    std::vector<Point> ts;
    std::vector<Point> acc;
    for (size_t i = 0; i < children.size(); ++i) {
      if (!ts.empty()) {
        auto head = WriteDescYChain(pager, ts);
        CCIDX_RETURN_IF_ERROR(head.status());
        children[i].ctrl.ts_left_head = *head;
      }
      FoldTopK(&ts, children[i].own_points, b2);
      acc.insert(acc.end(), children[i].own_points.begin(),
                 children[i].own_points.end());
    }
    // `acc` now holds the union of all children's points in x order: the
    // case-(4) structure for the children of this metablock (<= B^3
    // points).
    {
      auto pst = ExternalPst::Build(pager, std::move(acc));
      CCIDX_RETURN_IF_ERROR(pst.status());
      ctrl.children_pst_root = pst->root();
    }
    ts.clear();
    for (size_t i = children.size(); i-- > 0;) {
      if (!ts.empty()) {
        auto head = WriteDescYChain(pager, ts);
        CCIDX_RETURN_IF_ERROR(head.status());
        children[i].ctrl.ts_right_head = *head;
      }
      FoldTopK(&ts, children[i].own_points, b2);
    }

    std::vector<ChildEntry> entries;
    for (BuiltNode& child : children) {
      CCIDX_RETURN_IF_ERROR(
          WriteControl(pager, child.control_page, child.ctrl));
      entries.push_back({child.ctrl.sub_xlo, child.ctrl.sub_xhi,
                         child.ctrl.bbox_ymax, child.ctrl.bbox_ymin,
                         child.control_page});
    }
    auto ids = io.WriteChain<ChildEntry>(entries);
    CCIDX_RETURN_IF_ERROR(ids.status());
    ctrl.children_head = ids->empty() ? kInvalidPageId : ids->front();
    ctrl.num_children = static_cast<uint32_t>(entries.size());
  }

  ctrl.num_points = static_cast<uint32_t>(own.size());
  ctrl.bbox_xmin = ctrl.bbox_ymin = kCoordMax;
  ctrl.bbox_xmax = ctrl.bbox_ymax = kCoordMin;
  for (const Point& p : own) {
    ctrl.bbox_xmin = std::min(ctrl.bbox_xmin, p.x);
    ctrl.bbox_xmax = std::max(ctrl.bbox_xmax, p.x);
    ctrl.bbox_ymin = std::min(ctrl.bbox_ymin, p.y);
    ctrl.bbox_ymax = std::max(ctrl.bbox_ymax, p.y);
  }
  std::sort(own.begin(), own.end(), PointXOrder());
  auto vb = WriteVerticalBlocking(pager, own);
  CCIDX_RETURN_IF_ERROR(vb.status());
  ctrl.vindex_head = vb->index_head;
  auto horiz = WriteDescYChain(pager, own);
  CCIDX_RETURN_IF_ERROR(horiz.status());
  ctrl.horiz_head = *horiz;
  {
    auto pst = ExternalPst::Build(pager, own);
    CCIDX_RETURN_IF_ERROR(pst.status());
    ctrl.own_pst_root = pst->root();
  }
  node.own_points = std::move(own);
  return node;
}

Result<ThreeSidedTree> ThreeSidedTree::Build(Pager* pager,
                                             PointGroup points) {
  PageIo io(pager);
  const uint32_t branching = io.CapacityFor(sizeof(Point));
  if (branching < 4 || sizeof(Control) > pager->page_size()) {
    return Status::InvalidArgument("page size too small");
  }
  if (points.empty()) {
    return ThreeSidedTree(pager, kInvalidPageId, 0, branching);
  }
  TxnScope txn(pager);
  uint64_t n = points.size();
  auto root = BuildNode(pager, std::move(points), branching);
  CCIDX_RETURN_IF_ERROR(root.status());
  CCIDX_RETURN_IF_ERROR(WriteControl(pager, root->control_page, root->ctrl));
  CCIDX_RETURN_IF_ERROR(txn.Commit());
  return ThreeSidedTree(pager, root->control_page, n, branching);
}

Result<ThreeSidedTree> ThreeSidedTree::Build(Pager* pager,
                                             RecordStream<Point>* points) {
  TxnScope txn(pager);
  auto group =
      SortPointStream(pager, points, /*require_above_diagonal=*/false);
  CCIDX_RETURN_IF_ERROR(group.status());
  auto tree = Build(pager, std::move(*group));
  CCIDX_RETURN_IF_ERROR(tree.status());
  CCIDX_RETURN_IF_ERROR(txn.Commit());
  return tree;
}

Result<ThreeSidedTree> ThreeSidedTree::Build(Pager* pager,
                                             std::span<const Point> points) {
  SpanStream<Point> stream(points);
  return Build(pager, &stream);
}

Result<ThreeSidedTree> ThreeSidedTree::Build(Pager* pager,
                                             std::vector<Point>&& points) {
  return Build(pager, std::span<const Point>(points));
}

Status ThreeSidedTree::ReportOwnPoints(Pager* pager, const Control& ctrl,
                                       Coord xlo, Coord xhi, Coord ylo,
                                       SinkEmitter<Point>& em) {
  if (ctrl.num_points == 0 || em.stopped()) return Status::OK();
  if (ctrl.bbox_xmin > xhi || ctrl.bbox_xmax < xlo || ctrl.bbox_ymax < ylo) {
    return Status::OK();
  }
  const bool x_all = ctrl.bbox_xmin >= xlo && ctrl.bbox_xmax <= xhi;
  const bool y_all = ctrl.bbox_ymin >= ylo;
  PageIo io(pager);
  if (x_all && y_all) {
    return EmitChain<Point>(pager, ctrl.horiz_head, em);
  }
  if (y_all) {
    // Only vertical boundaries cut: scan the x-slab of vertical blocks
    // (at most two partially-useful pages).
    std::vector<VerticalBlock> index;
    CCIDX_RETURN_IF_ERROR(ReadVerticalIndex(pager, ctrl.vindex_head, &index));
    return ScanVerticalBlocks(pager, index, xlo, xhi, em);
  }
  if (x_all) {
    // Only the bottom boundary cuts: top-down scan.
    auto crossed = ScanDescYChain(pager, ctrl.horiz_head, ylo, em);
    return crossed.status();
  }
  // A corner of the query lies inside the bbox: Lemma 4.1 structure.
  ExternalPst pst = ExternalPst::Open(pager, ctrl.own_pst_root);
  return pst.Query({xlo, xhi, ylo}, em);
}

Status ThreeSidedTree::ReportSubtree(PageId id, Coord ylo,
                                     SinkEmitter<Point>& em) const {
  if (em.stopped()) return Status::OK();
  Control ctrl;
  CCIDX_RETURN_IF_ERROR(LoadControl(id, &ctrl));
  auto crossed = ScanDescYChain(pager_, ctrl.horiz_head, ylo, em);
  CCIDX_RETURN_IF_ERROR(crossed.status());
  if (*crossed || ctrl.num_children == 0 || em.stopped()) {
    return Status::OK();
  }
  return DescendMiddle(ctrl, ylo, em);
}

Status ThreeSidedTree::DescendMiddle(const Control& ctrl, Coord ylo,
                                     SinkEmitter<Point>& em) const {
  PageIo io(pager_);
  std::vector<ChildEntry> children;
  CCIDX_RETURN_IF_ERROR(
      io.ReadChain<ChildEntry>(ctrl.children_head, &children));
  for (const ChildEntry& c : children) {
    if (em.stopped()) break;
    if (c.ymax >= ylo) {
      CCIDX_RETURN_IF_ERROR(ReportSubtree(c.control, ylo, em));
    }
  }
  return Status::OK();
}

Status ThreeSidedTree::LeftPath(PageId id, Coord xlo, Coord ylo,
                                bool skip_own,
                                SinkEmitter<Point>& em) const {
  PageIo io(pager_);
  while (id != kInvalidPageId && !em.stopped()) {
    Control ctrl;
    CCIDX_RETURN_IF_ERROR(LoadControl(id, &ctrl));
    if (!skip_own) {
      CCIDX_RETURN_IF_ERROR(
          ReportOwnPoints(pager_, ctrl, xlo, kCoordMax, ylo, em));
    }
    skip_own = false;
    if (ctrl.num_children == 0 || em.stopped()) return Status::OK();
    std::vector<ChildEntry> children;
    CCIDX_RETURN_IF_ERROR(
        io.ReadChain<ChildEntry>(ctrl.children_head, &children));
    // First child whose subtree reaches xlo; right siblings lie fully
    // inside the slab.
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
      } else {
        for (size_t i = j + 1; i < children.size() && !em.stopped(); ++i) {
          if (children[i].ymax >= ylo) {
            CCIDX_RETURN_IF_ERROR(
                ReportSubtree(children[i].control, ylo, em));
          }
        }
      }
      if (em.stopped()) return Status::OK();
    }
    if (children[j].ymax < ylo) return Status::OK();
    id = children[j].control;
  }
  return Status::OK();
}

Status ThreeSidedTree::RightPath(PageId id, Coord xhi, Coord ylo,
                                 bool skip_own,
                                 SinkEmitter<Point>& em) const {
  PageIo io(pager_);
  while (id != kInvalidPageId && !em.stopped()) {
    Control ctrl;
    CCIDX_RETURN_IF_ERROR(LoadControl(id, &ctrl));
    if (!skip_own) {
      CCIDX_RETURN_IF_ERROR(
          ReportOwnPoints(pager_, ctrl, kCoordMin, xhi, ylo, em));
    }
    skip_own = false;
    if (ctrl.num_children == 0 || em.stopped()) return Status::OK();
    std::vector<ChildEntry> children;
    CCIDX_RETURN_IF_ERROR(
        io.ReadChain<ChildEntry>(ctrl.children_head, &children));
    // Last child whose subtree starts at or left of xhi; left siblings lie
    // fully inside the slab.
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
      } else {
        for (size_t i = 0; i < j && !em.stopped(); ++i) {
          if (children[i].ymax >= ylo) {
            CCIDX_RETURN_IF_ERROR(
                ReportSubtree(children[i].control, ylo, em));
          }
        }
      }
      if (em.stopped()) return Status::OK();
    }
    if (children[j].ymax < ylo) return Status::OK();
    id = children[j].control;
  }
  return Status::OK();
}

Status ThreeSidedTree::Query(const ThreeSidedQuery& q,
                             ResultSink<Point>* sink) const {
  if (root_ == kInvalidPageId || q.xlo > q.xhi) return Status::OK();
  PageIo io(pager_);
  SinkEmitter<Point> em(sink);
  PageId id = root_;
  while (true) {
    Control ctrl;
    CCIDX_RETURN_IF_ERROR(LoadControl(id, &ctrl));
    CCIDX_RETURN_IF_ERROR(
        ReportOwnPoints(pager_, ctrl, q.xlo, q.xhi, q.ylo, em));
    if (ctrl.num_children == 0 || em.stopped()) return Status::OK();
    std::vector<ChildEntry> children;
    CCIDX_RETURN_IF_ERROR(
        io.ReadChain<ChildEntry>(ctrl.children_head, &children));
    // Slab routing (tie-safe): jl = first child reaching xlo, jr = last
    // child starting at or left of xhi.
    size_t jl = children.size(), jr = children.size();
    for (size_t i = 0; i < children.size(); ++i) {
      if (jl == children.size() && children[i].sub_xhi >= q.xlo) jl = i;
      if (children[i].sub_xlo <= q.xhi) jr = i;
    }
    if (jl == children.size() || jr == children.size() || jl > jr) {
      return Status::OK();  // no child subtree intersects the slab
    }
    if (jl == jr) {
      if (children[jl].ymax < q.ylo) return Status::OK();
      id = children[jl].control;
      continue;
    }
    // Fork (case 4): the children-union PST reports every child-stored
    // point in the query in one O(log2 B^3 + t/B) access.
    ExternalPst pst = ExternalPst::Open(pager_, ctrl.children_pst_root);
    CCIDX_RETURN_IF_ERROR(pst.Query(q, em));
    if (em.stopped()) return Status::OK();
    // Middle children lie fully inside the slab; their own points are
    // reported; descend only below fully-inside ones (heap order kills
    // the rest).
    for (size_t m = jl + 1; m < jr && !em.stopped(); ++m) {
      if (children[m].ymin >= q.ylo) {
        Control mc;
        CCIDX_RETURN_IF_ERROR(LoadControl(children[m].control, &mc));
        if (mc.num_children > 0) {
          CCIDX_RETURN_IF_ERROR(DescendMiddle(mc, q.ylo, em));
        }
      }
    }
    // Heap order: a fork child's descendants all lie at or below its own
    // minimum y, so the one-sided path is needed only when ymin >= ylo.
    if (children[jl].ymin >= q.ylo && !em.stopped()) {
      CCIDX_RETURN_IF_ERROR(
          LeftPath(children[jl].control, q.xlo, q.ylo, true, em));
    }
    if (children[jr].ymin >= q.ylo && !em.stopped()) {
      CCIDX_RETURN_IF_ERROR(
          RightPath(children[jr].control, q.xhi, q.ylo, true, em));
    }
    return Status::OK();
  }
}

Status ThreeSidedTree::ScanSubtree(PageId id, SinkEmitter<Point>& em) const {
  Control ctrl;
  CCIDX_RETURN_IF_ERROR(LoadControl(id, &ctrl));
  // Own points live exactly once in the horizontal chain; the PSTs, TS
  // chains, and vertical blockings hold copies.
  CCIDX_RETURN_IF_ERROR(EmitChain<Point>(pager_, ctrl.horiz_head, em));
  if (ctrl.num_children > 0 && !em.stopped()) {
    std::vector<ChildEntry> children;
    PageIo io(pager_);
    CCIDX_RETURN_IF_ERROR(
        io.ReadChain<ChildEntry>(ctrl.children_head, &children));
    for (const ChildEntry& c : children) {
      if (em.stopped()) break;
      CCIDX_RETURN_IF_ERROR(ScanSubtree(c.control, em));
    }
  }
  return Status::OK();
}

Status ThreeSidedTree::ScanAll(ResultSink<Point>* sink) const {
  if (root_ == kInvalidPageId) return Status::OK();
  SinkEmitter<Point> em(sink);
  return ScanSubtree(root_, em);
}

Status ThreeSidedTree::VisitSubtreePages(PageId id,
                                         std::vector<PageId>* out) const {
  Control ctrl;
  CCIDX_RETURN_IF_ERROR(LoadControl(id, &ctrl));
  PageIo io(pager_);
  CCIDX_RETURN_IF_ERROR(VisitVerticalBlocking(pager_, ctrl.vindex_head, out));
  for (PageId head : {static_cast<PageId>(ctrl.horiz_head),
                      static_cast<PageId>(ctrl.ts_left_head),
                      static_cast<PageId>(ctrl.ts_right_head)}) {
    if (head != kInvalidPageId) {
      CCIDX_RETURN_IF_ERROR(io.VisitChain(head, out));
    }
  }
  for (PageId root : {static_cast<PageId>(ctrl.own_pst_root),
                      static_cast<PageId>(ctrl.children_pst_root)}) {
    if (root != kInvalidPageId) {
      ExternalPst pst = ExternalPst::Open(pager_, root);
      CCIDX_RETURN_IF_ERROR(pst.VisitPages(out));
    }
  }
  if (ctrl.num_children > 0) {
    std::vector<ChildEntry> children;
    CCIDX_RETURN_IF_ERROR(
        io.ReadChain<ChildEntry>(ctrl.children_head, &children));
    for (const ChildEntry& c : children) {
      CCIDX_RETURN_IF_ERROR(VisitSubtreePages(c.control, out));
    }
    CCIDX_RETURN_IF_ERROR(io.VisitChain(ctrl.children_head, out));
  }
  out->push_back(id);
  return Status::OK();
}

Status ThreeSidedTree::VisitPages(std::vector<PageId>* out) const {
  if (root_ == kInvalidPageId) return Status::OK();
  return VisitSubtreePages(root_, out);
}

Status ThreeSidedTree::Destroy() {
  std::vector<PageId> pages;
  CCIDX_RETURN_IF_ERROR(VisitPages(&pages));
  for (PageId id : pages) {
    CCIDX_RETURN_IF_ERROR(pager_->Free(id));
  }
  root_ = kInvalidPageId;
  size_ = 0;
  return Status::OK();
}

Status ThreeSidedTree::CheckSubtree(PageId id, Coord parent_min_y,
                                    bool is_root, uint64_t* count) const {
  Control ctrl;
  CCIDX_RETURN_IF_ERROR(LoadControl(id, &ctrl));
  PageIo io(pager_);
  const uint32_t b2 = branching_ * branching_;

  std::vector<Point> own;
  CCIDX_RETURN_IF_ERROR(io.ReadChain<Point>(ctrl.horiz_head, &own));
  if (own.size() != ctrl.num_points) {
    return Status::Corruption("own point count mismatch");
  }
  if (ctrl.num_children > 0 && ctrl.num_points != b2) {
    return Status::Corruption("internal metablock must hold exactly B^2");
  }
  if (!std::is_sorted(own.begin(), own.end(), PointDescYOrder())) {
    return Status::Corruption("horizontal chain not descending by y");
  }
  for (const Point& p : own) {
    if (p.x < ctrl.sub_xlo || p.x > ctrl.sub_xhi) {
      return Status::Corruption("point outside subtree x-interval");
    }
    if (!is_root && p.y > parent_min_y) {
      return Status::Corruption("heap order violated");
    }
  }
  if (ctrl.own_pst_root != kInvalidPageId) {
    ExternalPst pst = ExternalPst::Open(pager_, ctrl.own_pst_root);
    CCIDX_RETURN_IF_ERROR(pst.CheckInvariants());
  } else if (ctrl.num_points > 0) {
    return Status::Corruption("missing own PST");
  }
  const uint64_t count_before = *count;
  *count += own.size();
  if (ctrl.num_children > 0) {
    if (ctrl.children_pst_root == kInvalidPageId) {
      return Status::Corruption("missing children PST");
    }
    std::vector<ChildEntry> children;
    CCIDX_RETURN_IF_ERROR(
        io.ReadChain<ChildEntry>(ctrl.children_head, &children));
    if (children.size() != ctrl.num_children) {
      return Status::Corruption("children count mismatch");
    }
    std::vector<PageId> left_heads, right_heads;
    std::vector<std::vector<Point>> stored(children.size());
    for (size_t i = 0; i < children.size(); ++i) {
      if (i > 0 && children[i].sub_xlo < children[i - 1].sub_xhi) {
        return Status::Corruption("children x-intervals out of order");
      }
      Control cc;
      CCIDX_RETURN_IF_ERROR(LoadControl(children[i].control, &cc));
      left_heads.push_back(cc.ts_left_head);
      right_heads.push_back(cc.ts_right_head);
      CCIDX_RETURN_IF_ERROR(io.ReadChain<Point>(cc.horiz_head, &stored[i]));
      CCIDX_RETURN_IF_ERROR(
          CheckSubtree(children[i].control, ctrl.bbox_ymin, false, count));
    }
    // TS-left of child i: top B^2 of children [0, i); TS-right: of
    // children (i, end).
    CCIDX_RETURN_IF_ERROR(CheckTsChains(pager_, left_heads, stored, b2));
    std::reverse(right_heads.begin(), right_heads.end());
    std::reverse(stored.begin(), stored.end());
    CCIDX_RETURN_IF_ERROR(CheckTsChains(pager_, right_heads, stored, b2));
    const uint64_t rest = *count - count_before - own.size();
    if (ctrl.num_children != ChildFanout(rest, branching_)) {
      return Status::Corruption("fan-out differs from ChildFanout");
    }
  }
  return Status::OK();
}

Status ThreeSidedTree::CheckInvariants() const {
  if (root_ == kInvalidPageId) return Status::OK();
  uint64_t count = 0;
  CCIDX_RETURN_IF_ERROR(CheckSubtree(root_, kCoordMax, true, &count));
  if (count != size_) {
    return Status::Corruption("total count mismatch");
  }
  return Status::OK();
}

}  // namespace ccidx
