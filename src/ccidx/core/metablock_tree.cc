#include "ccidx/core/metablock_tree.h"

#include <algorithm>
#include <cstddef>

#include "ccidx/simd/filter_emit.h"

namespace ccidx {

namespace {

// Upper bound on one fan-out batch staged through WarmMany: keeps a
// single subtree visit's speculative footprint (and thus the pages an
// early-stopping sink can leave unused) small and independent of the
// node's branching factor.
constexpr size_t kWarmFanoutCap = 16;

}  // namespace

Status MetablockTree::WriteControl(Pager* pager, PageId id,
                                   const Control& c) {
  auto ref = pager->PinMut(id, Pager::MutMode::kOverwrite);
  CCIDX_RETURN_IF_ERROR(ref.status());
  PageWriter w(ref->data());
  w.Put(c);
  return ref->Release();
}

Status MetablockTree::LoadControl(PageId id, Control* c) const {
  auto ref = pager_->Pin(id);
  CCIDX_RETURN_IF_ERROR(ref.status());
  PageReader r(ref->data());
  *c = r.Get<Control>();
  return Status::OK();
}

Result<MetablockTree::BuiltNode> MetablockTree::BuildNode(
    Pager* pager, PointGroup group, uint32_t branching,
    const MetablockOptions& options) {
  const uint32_t b2 = branching * branching;
  CCIDX_CHECK(!group.empty());

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
    // The B^2 points with the largest y values stay here; the rest are
    // divided by x into ChildFanout groups — B, or as few as hold the
    // rest at <= B^2 each — one child each (Fig. 8).
    const uint32_t fanout = ChildFanout(group.size() - b2, branching);
    std::vector<ChildEntry> child_entries;
    std::vector<Point> ts;  // top B^2 of the left siblings' own points
    auto top = std::move(group).PartitionTopY(
        b2, fanout, PointGroup::SplitMode::kEven,
        [&](PointGroup sub) -> Status {
          auto child = BuildNode(pager, std::move(sub), branching, options);
          CCIDX_RETURN_IF_ERROR(child.status());

          // TS(child) = the B^2 highest-y points stored in its left
          // siblings.
          if (options.use_ts_structures && !ts.empty()) {
            auto head = WriteDescYChain(pager, ts);
            CCIDX_RETURN_IF_ERROR(head.status());
            child->ctrl.ts_head = *head;
          }
          CCIDX_RETURN_IF_ERROR(
              WriteControl(pager, child->control_page, child->ctrl));
          child_entries.push_back({child->ctrl.sub_xlo,
                                   child->ctrl.bbox_ymax,
                                   child->control_page});
          if (options.use_ts_structures) {
            FoldTopK(&ts, child->own_points, b2);
          }
          return Status::OK();
        });
    CCIDX_RETURN_IF_ERROR(top.status());
    own = std::move(*top);
    PageIo io(pager);
    auto ids = io.WriteChain<ChildEntry>(child_entries);
    CCIDX_RETURN_IF_ERROR(ids.status());
    ctrl.children_head = ids->empty() ? kInvalidPageId : ids->front();
    ctrl.num_children = static_cast<uint32_t>(child_entries.size());
  }

  // Own-point organizations: bbox, vertical and horizontal blockings, and
  // a corner structure when the diagonal crosses the bbox.
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
  if (options.use_corner_structures && ctrl.bbox_ymin <= ctrl.bbox_xmax) {
    auto corner = CornerStructure::BuildOnBlocking(pager, own, *vb);
    CCIDX_RETURN_IF_ERROR(corner.status());
    ctrl.corner_header = *corner;
  }
  node.own_points = std::move(own);
  return node;
}

Result<MetablockTree> MetablockTree::Build(Pager* pager, PointGroup points,
                                           const MetablockOptions& options) {
  PageIo io(pager);
  const uint32_t branching = io.CapacityFor(sizeof(Point));
  if (branching < 2) {
    return Status::InvalidArgument("page size too small for metablock tree");
  }
  if (points.empty()) {
    return MetablockTree(pager, kInvalidPageId, 0, branching, options);
  }
  TxnScope txn(pager);
  uint64_t n = points.size();
  auto root = BuildNode(pager, std::move(points), branching, options);
  CCIDX_RETURN_IF_ERROR(root.status());
  CCIDX_RETURN_IF_ERROR(
      WriteControl(pager, root->control_page, root->ctrl));
  CCIDX_RETURN_IF_ERROR(txn.Commit());
  return MetablockTree(pager, root->control_page, n, branching, options);
}

Result<MetablockTree> MetablockTree::Build(Pager* pager,
                                           RecordStream<Point>* points,
                                           const MetablockOptions& options) {
  TxnScope txn(pager);
  auto group = SortPointStream(pager, points, /*require_above_diagonal=*/true);
  CCIDX_RETURN_IF_ERROR(group.status());
  auto tree = Build(pager, std::move(*group), options);
  CCIDX_RETURN_IF_ERROR(tree.status());
  CCIDX_RETURN_IF_ERROR(txn.Commit());
  return tree;
}

Result<MetablockTree> MetablockTree::Build(Pager* pager,
                                           std::span<const Point> points,
                                           const MetablockOptions& options) {
  SpanStream<Point> stream(points);
  return Build(pager, &stream, options);
}

Result<MetablockTree> MetablockTree::Build(Pager* pager,
                                           std::vector<Point>&& points,
                                           const MetablockOptions& options) {
  return Build(pager, std::span<const Point>(points), options);
}

Status MetablockTree::ReportOwnPoints(Pager* pager, const Control& ctrl,
                                      Coord a, SinkEmitter<Point>& em) {
  if (ctrl.num_points == 0 || em.stopped()) return Status::OK();
  if (ctrl.bbox_xmin > a || ctrl.bbox_ymax < a) return Status::OK();
  const bool x_all = ctrl.bbox_xmax <= a;  // every own point has x <= a
  const bool y_all = ctrl.bbox_ymin >= a;  // every own point has y >= a
  PageIo io(pager);

  if (x_all && y_all) {
    // Type III: the whole metablock is output; stream the horizontal
    // chain page by page.
    return EmitChain<Point>(pager, ctrl.horiz_head, em);
  }
  if (y_all) {
    // Type I: only the vertical boundary x = a cuts the region. Scan
    // vertical blocks left of a; at most one is partially useful.
    std::vector<VerticalBlock> index;
    CCIDX_RETURN_IF_ERROR(
        ReadVerticalIndex(pager, ctrl.vindex_head, &index));
    return ScanVerticalBlocks(pager, index, kCoordMin, a, em);
  }
  if (x_all) {
    // Type IV: only the horizontal boundary y = a cuts the region. Scan
    // the descending-y chain until we cross below a.
    auto crossed = ScanDescYChain(pager, ctrl.horiz_head, a, em);
    return crossed.status();
  }
  // Type II: the corner (a, a) lies inside the bbox; by construction the
  // diagonal crosses this bbox, so the corner structure exists — unless it
  // was ablated away, in which case we pay the fallback the lemma saves us
  // from: scan every vertical block left of the corner and filter.
  if (ctrl.corner_header == kInvalidPageId) {
    std::vector<VerticalBlock> index;
    CCIDX_RETURN_IF_ERROR(ReadVerticalIndex(pager, ctrl.vindex_head, &index));
    for (const VerticalBlock& blk : index) {
      if (blk.xlo > a || em.stopped()) break;
      auto view = io.ViewRecords<Point>(blk.page);
      CCIDX_RETURN_IF_ERROR(view.status());
      simd::EmitFiltered2Sided(em, view->records, a, a);
    }
    return Status::OK();
  }
  CornerStructure corner = CornerStructure::Open(pager, ctrl.corner_header);
  return corner.Query(a, em);
}

Status MetablockTree::ReportSubtree(PageId control_id, Coord a,
                                    SinkEmitter<Point>& em) const {
  if (em.stopped()) return Status::OK();
  Control ctrl;
  CCIDX_RETURN_IF_ERROR(LoadControl(control_id, &ctrl));
  if (ctrl.bbox_ymax < a && ctrl.num_points > 0) return Status::OK();
  // Subtree x-interval is at or left of a (caller invariant), so every
  // point here with y >= a is output. Top-down scan; if it exhausts the
  // chain (all own points inside — Type III), descendants may qualify too.
  auto crossed = ScanDescYChain(pager_, ctrl.horiz_head, a, em);
  CCIDX_RETURN_IF_ERROR(crossed.status());
  if (*crossed || ctrl.num_children == 0 || em.stopped()) {
    return Status::OK();
  }
  PageIo io(pager_);
  std::vector<ChildEntry> children;
  CCIDX_RETURN_IF_ERROR(io.ReadChain<ChildEntry>(ctrl.children_head,
                                                 &children));
  if (pager_->speculation_budget() > 0) {
    // Every qualifying child's control page will be read by the recursion
    // below (unless the sink stops early): one batched device round now
    // instead of a dependent read per child.
    std::vector<PageId> warm;
    for (const ChildEntry& c : children) {
      if (c.ymax >= a && warm.size() < kWarmFanoutCap) {
        warm.push_back(c.control);
      }
    }
    if (warm.size() >= 2) pager_->WarmMany(warm);
  }
  for (const ChildEntry& c : children) {
    if (em.stopped()) break;
    if (c.ymax >= a) {
      CCIDX_RETURN_IF_ERROR(ReportSubtree(c.control, a, em));
    }
  }
  return Status::OK();
}

Status MetablockTree::Query(const DiagonalQuery& q,
                            ResultSink<Point>* sink) const {
  if (root_ == kInvalidPageId) return Status::OK();
  const Coord a = q.a;
  PageIo io(pager_);
  SinkEmitter<Point> em(sink);

  Control ctrl;
  CCIDX_RETURN_IF_ERROR(LoadControl(root_, &ctrl));
  while (true) {
    CCIDX_RETURN_IF_ERROR(ReportOwnPoints(pager_, ctrl, a, em));
    if (ctrl.num_children == 0 || em.stopped()) return Status::OK();

    std::vector<ChildEntry> children;
    CCIDX_RETURN_IF_ERROR(io.ReadChain<ChildEntry>(ctrl.children_head,
                                                   &children));
    // Corner path: the last child whose subtree starts at or left of a —
    // children ascend by sub_xlo, so that is the upper bound minus one
    // (found by the dispatched branchless search).
    size_t ub = simd::UpperBoundI64(
        simd::Kernels(),
        simd::FieldBase(children.data(), offsetof(ChildEntry, sub_xlo)),
        sizeof(ChildEntry), children.size(), a);
    if (ub == 0) return Status::OK();  // all children right of a
    size_t j = ub - 1;

    Control next_ctrl;
    CCIDX_RETURN_IF_ERROR(LoadControl(children[j].control, &next_ctrl));

    if (pager_->speculation_budget() > 0) {
      // Speculative descent (DESIGN.md §10): the pages the rest of this
      // round touches first — the TS chain head for the sibling dichotomy,
      // then the child's own-point chains and children index — are all
      // known now. Stage them as one device batch instead of a dependent
      // read each; whichever the query type skips is bounded overshoot.
      std::vector<PageId> warm;
      auto stage = [&](PageId id) {
        if (id != kInvalidPageId &&
            warm.size() < pager_->speculation_budget()) {
          warm.push_back(id);
        }
      };
      if (j > 0) stage(next_ctrl.ts_head);
      stage(next_ctrl.horiz_head);
      stage(next_ctrl.vindex_head);
      stage(next_ctrl.children_head);
      if (warm.size() >= 2) pager_->WarmMany(warm);
    }

    if (j > 0) {
      // Left siblings of the corner-path child, via TS (Fig. 17): read
      // TS(c_j) top-down. If the scan crosses y = a, TS contained every
      // qualifying sibling point and no sibling subtree can qualify. If it
      // is exhausted, the siblings hold >= B^2 output (or TS held all
      // sibling points), and we can afford to visit each one. The hits
      // must be buffered until the dichotomy is resolved (exhausted TS
      // hits are discarded — siblings re-report them).
      std::vector<Point> ts_hits;
      auto crossed = CollectDescYChain(
          pager_, next_ctrl.ts_head, a, &ts_hits);
      CCIDX_RETURN_IF_ERROR(crossed.status());
      if (*crossed) {
        em.Emit(ts_hits);
      } else {
        for (size_t i = 0; i < j && !em.stopped(); ++i) {
          if (children[i].ymax >= a) {
            CCIDX_RETURN_IF_ERROR(
                ReportSubtree(children[i].control, a, em));
          }
        }
      }
      if (em.stopped()) return Status::OK();
    }

    if (children[j].ymax < a) return Status::OK();  // subtree below query
    ctrl = next_ctrl;
  }
}

Status MetablockTree::ScanSubtree(PageId control_id,
                                  SinkEmitter<Point>& em) const {
  Control ctrl;
  CCIDX_RETURN_IF_ERROR(LoadControl(control_id, &ctrl));
  // Own points live exactly once in the horizontal chain (vertical
  // blockings, TS chains, and corner structures hold copies).
  CCIDX_RETURN_IF_ERROR(EmitChain<Point>(pager_, ctrl.horiz_head, em));
  if (ctrl.children_head != kInvalidPageId && !em.stopped()) {
    std::vector<ChildEntry> children;
    PageIo io(pager_);
    CCIDX_RETURN_IF_ERROR(
        io.ReadChain<ChildEntry>(ctrl.children_head, &children));
    if (pager_->speculation_budget() > 0 && children.size() >= 2) {
      std::vector<PageId> warm;
      for (const ChildEntry& c : children) {
        if (warm.size() >= kWarmFanoutCap) break;
        warm.push_back(c.control);
      }
      pager_->WarmMany(warm);
    }
    for (const ChildEntry& c : children) {
      if (em.stopped()) break;
      CCIDX_RETURN_IF_ERROR(ScanSubtree(c.control, em));
    }
  }
  return Status::OK();
}

Status MetablockTree::ScanAll(ResultSink<Point>* sink) const {
  if (root_ == kInvalidPageId) return Status::OK();
  SinkEmitter<Point> em(sink);
  return ScanSubtree(root_, em);
}

Status MetablockTree::VisitSubtreePages(PageId control_id,
                                        std::vector<PageId>* out) const {
  Control ctrl;
  CCIDX_RETURN_IF_ERROR(LoadControl(control_id, &ctrl));
  PageIo io(pager_);
  CCIDX_RETURN_IF_ERROR(VisitVerticalBlocking(pager_, ctrl.vindex_head, out));
  for (PageId head : {static_cast<PageId>(ctrl.horiz_head),
                      static_cast<PageId>(ctrl.ts_head)}) {
    if (head != kInvalidPageId) {
      CCIDX_RETURN_IF_ERROR(io.VisitChain(head, out));
    }
  }
  if (ctrl.corner_header != kInvalidPageId) {
    CornerStructure corner = CornerStructure::Open(pager_,
                                                   ctrl.corner_header);
    CCIDX_RETURN_IF_ERROR(corner.VisitPages(out));
  }
  if (ctrl.children_head != kInvalidPageId) {
    std::vector<ChildEntry> children;
    CCIDX_RETURN_IF_ERROR(io.ReadChain<ChildEntry>(ctrl.children_head,
                                                   &children));
    for (const ChildEntry& c : children) {
      CCIDX_RETURN_IF_ERROR(VisitSubtreePages(c.control, out));
    }
    CCIDX_RETURN_IF_ERROR(io.VisitChain(ctrl.children_head, out));
  }
  out->push_back(control_id);
  return Status::OK();
}

Status MetablockTree::VisitPages(std::vector<PageId>* out) const {
  if (root_ == kInvalidPageId) return Status::OK();
  return VisitSubtreePages(root_, out);
}

Status MetablockTree::Destroy() {
  std::vector<PageId> pages;
  CCIDX_RETURN_IF_ERROR(VisitPages(&pages));
  for (PageId id : pages) {
    CCIDX_RETURN_IF_ERROR(pager_->Free(id));
  }
  root_ = kInvalidPageId;
  size_ = 0;
  return Status::OK();
}

Status MetablockTree::CheckSubtree(PageId control_id, Coord parent_min_y,
                                   bool is_root, uint64_t* count) const {
  Control ctrl;
  CCIDX_RETURN_IF_ERROR(LoadControl(control_id, &ctrl));
  PageIo io(pager_);

  std::vector<Point> own;
  CCIDX_RETURN_IF_ERROR(io.ReadChain<Point>(ctrl.horiz_head, &own));
  if (own.size() != ctrl.num_points) {
    return Status::Corruption("metablock point count mismatch");
  }
  const uint32_t b2 = branching_ * branching_;
  if (ctrl.num_children > 0 && ctrl.num_points != b2) {
    return Status::Corruption("internal metablock must hold exactly B^2");
  }
  if (ctrl.num_points > 2 * b2) {
    return Status::Corruption("metablock exceeds capacity");
  }
  for (const Point& p : own) {
    if (p.x < ctrl.bbox_xmin || p.x > ctrl.bbox_xmax ||
        p.y < ctrl.bbox_ymin || p.y > ctrl.bbox_ymax) {
      return Status::Corruption("point outside recorded bbox");
    }
    if (p.x < ctrl.sub_xlo || p.x > ctrl.sub_xhi) {
      return Status::Corruption("point outside subtree x-interval");
    }
    if (!is_root && p.y > parent_min_y) {
      return Status::Corruption("descendant above parent metablock");
    }
  }
  // Horizontal chain must be in descending-y order.
  if (!std::is_sorted(own.begin(), own.end(), PointDescYOrder())) {
    return Status::Corruption("horizontal chain not descending by y");
  }
  // Vertical blocking must hold the same multiset, ascending by x.
  std::vector<VerticalBlock> index;
  CCIDX_RETURN_IF_ERROR(ReadVerticalIndex(pager_, ctrl.vindex_head, &index));
  std::vector<Point> vpoints;
  for (const VerticalBlock& blk : index) {
    auto view = io.ViewRecords<Point>(blk.page);
    CCIDX_RETURN_IF_ERROR(view.status());
    for (const Point& p : view->records) {
      if (p.x < blk.xlo || p.x > blk.xhi) {
        return Status::Corruption("vertical block range mismatch");
      }
    }
    vpoints.insert(vpoints.end(), view->records.begin(),
                   view->records.end());
  }
  if (!std::is_sorted(vpoints.begin(), vpoints.end(), PointXOrder())) {
    return Status::Corruption("vertical blocking not ascending by x");
  }
  std::vector<Point> hsorted = own;
  std::sort(hsorted.begin(), hsorted.end(), PointXOrder());
  if (hsorted != vpoints) {
    return Status::Corruption("vertical / horizontal blockings disagree");
  }
  // Corner structure must exist iff enabled and the diagonal crosses the
  // bbox.
  bool diagonal_crosses = options_.use_corner_structures &&
                          ctrl.num_points > 0 &&
                          ctrl.bbox_ymin <= ctrl.bbox_xmax;
  if (diagonal_crosses != (ctrl.corner_header != kInvalidPageId)) {
    return Status::Corruption("corner structure presence mismatch");
  }
  if (ctrl.corner_header != kInvalidPageId) {
    // The corner indexes this metablock's own blocking; it holds no copy.
    PageId corner_vindex;
    bool owned;
    CCIDX_RETURN_IF_ERROR(CornerStructure::Open(pager_, ctrl.corner_header)
                              .LoadBlocking(&corner_vindex, &owned));
    if (owned || corner_vindex != ctrl.vindex_head) {
      return Status::Corruption("corner structure copies its blocking");
    }
  }

  const uint64_t count_before = *count;
  *count += own.size();
  if (ctrl.num_children > 0) {
    std::vector<ChildEntry> children;
    CCIDX_RETURN_IF_ERROR(io.ReadChain<ChildEntry>(ctrl.children_head,
                                                   &children));
    if (children.size() != ctrl.num_children) {
      return Status::Corruption("children count mismatch");
    }
    std::vector<PageId> ts_heads;
    std::vector<std::vector<Point>> stored(children.size());
    for (size_t i = 0; i < children.size(); ++i) {
      if (i > 0 && children[i].sub_xlo < children[i - 1].sub_xlo) {
        return Status::Corruption("children not ordered by x");
      }
      CCIDX_RETURN_IF_ERROR(
          CheckSubtree(children[i].control, ctrl.bbox_ymin, false, count));
      Control cc;
      CCIDX_RETURN_IF_ERROR(LoadControl(children[i].control, &cc));
      ts_heads.push_back(cc.ts_head);
      if (options_.use_ts_structures) {  // else every TS chain is absent
        CCIDX_RETURN_IF_ERROR(io.ReadChain<Point>(cc.horiz_head, &stored[i]));
      }
    }
    CCIDX_RETURN_IF_ERROR(CheckTsChains(pager_, ts_heads, stored, b2));
    const uint64_t rest = *count - count_before - own.size();
    if (ctrl.num_children != ChildFanout(rest, branching_)) {
      return Status::Corruption("fan-out differs from ChildFanout");
    }
  }
  return Status::OK();
}

Status MetablockTree::CheckInvariants() const {
  if (root_ == kInvalidPageId) return Status::OK();
  uint64_t count = 0;
  return CheckSubtree(root_, kCoordMax, true, &count);
}

}  // namespace ccidx
