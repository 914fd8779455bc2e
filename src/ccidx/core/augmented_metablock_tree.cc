#include "ccidx/core/augmented_metablock_tree.h"

#include <algorithm>

namespace ccidx {

Result<PageId> AugmentedMetablockTree::BuildOwnIndex(
    Pager* pager, const Control& ctrl, std::span<const Point> sorted_by_x,
    const VerticalBlocking& blocking) {
  if (sorted_by_x.empty() || ctrl.bbox_ymin > ctrl.bbox_xmax) {
    return kInvalidPageId;
  }
  return CornerStructure::BuildOnBlocking(pager, sorted_by_x, blocking);
}

Result<PageId> AugmentedMetablockTree::BuildTd(Pager* pager,
                                               std::vector<Point> points) {
  auto td = CornerStructure::Build(pager, std::move(points));
  CCIDX_RETURN_IF_ERROR(td.status());
  return td->header();
}

Result<std::vector<Point>> AugmentedMetablockTree::BuildChildren(
    Pager* pager, PointGroup group, uint32_t branching, Control* /*ctrl*/,
    std::vector<ChildEntry>* children) {
  const uint32_t b2 = branching * branching;
  const uint32_t fanout = ChildFanout(group.size() - b2, branching);
  std::vector<Point> ts;  // top B^2 of the left siblings' own points
  return std::move(group).PartitionTopY(
      b2, fanout, PointGroup::SplitMode::kEven,
      [&](PointGroup sub) -> Status {
        auto child = BuildNode(pager, std::move(sub), branching);
        CCIDX_RETURN_IF_ERROR(child.status());
        if (!ts.empty()) {
          auto head = WriteDescYChain(pager, ts);
          CCIDX_RETURN_IF_ERROR(head.status());
          child->ctrl.ts_head = *head;
        }
        CCIDX_RETURN_IF_ERROR(
            WriteControl(pager, child->control_page, child->ctrl));
        children->push_back(EntryFor(child->control_page, child->ctrl));
        FoldTopK(&ts, child->own_points, b2);
        return Status::OK();
      });
}

Status AugmentedMetablockTree::TsReorganizeChildren(Control* ctrl) {
  const uint32_t b2 = metablock_capacity();
  PageIo io(pager_);
  std::vector<ChildEntry> children;
  CCIDX_RETURN_IF_ERROR(
      io.ReadChain<ChildEntry>(ctrl->children_head, &children));
  std::vector<Point> ts;  // top B^2 of the left siblings' stored points
  for (const ChildEntry& entry : children) {
    Control child;
    CCIDX_RETURN_IF_ERROR(LoadControl(entry.control, &child));
    CCIDX_RETURN_IF_ERROR(ReplaceTsChain(&child.ts_head, ts));
    CCIDX_RETURN_IF_ERROR(WriteControl(pager_, entry.control, child));
    // TS covers points *stored in* the sibling: organized + buffered.
    std::vector<Point> stored;
    CCIDX_RETURN_IF_ERROR(ReadStoredPoints(child, &stored));
    FoldTopK(&ts, stored, b2);
  }
  return ClearTd(ctrl);
}

// ---------------------------------------------------------------------------
// Queries
// ---------------------------------------------------------------------------

Status AugmentedMetablockTree::ReportOwnPoints(const Control& ctrl, Coord a,
                                               SinkEmitter<Point>& em) const {
  if (em.stopped()) return Status::OK();
  // Buffered inserts are examined alongside every organization (Lemma 3.5).
  if (ctrl.update_count > 0) {
    std::vector<Point> upd;
    CCIDX_RETURN_IF_ERROR(ReadUpdatePoints(ctrl, &upd));
    simd::EmitFiltered2Sided(em, upd, a, a);
  }
  return MetablockTree::ReportOwnPoints(pager_, ctrl, a, em);
}

Status AugmentedMetablockTree::QueryRaw(const DiagonalQuery& q,
                                        ResultSink<Point>* sink) const {
  if (root_ == kInvalidPageId) return Status::OK();
  const Coord a = q.a;
  PageIo io(pager_);
  SinkEmitter<Point> em(sink);

  Control ctrl;
  CCIDX_RETURN_IF_ERROR(LoadControl(root_, &ctrl));
  while (true) {
    CCIDX_RETURN_IF_ERROR(ReportOwnPoints(ctrl, a, em));
    if (ctrl.num_children == 0 || em.stopped()) return Status::OK();

    std::vector<ChildEntry> children;
    CCIDX_RETURN_IF_ERROR(io.ReadChain<ChildEntry>(ctrl.children_head,
                                                   &children));
    size_t j = children.size();
    for (size_t i = 0; i < children.size(); ++i) {
      if (children[i].sub_xlo <= a) j = i;
    }
    if (j == children.size()) return Status::OK();

    Control next_ctrl;
    CCIDX_RETURN_IF_ERROR(LoadControl(children[j].control, &next_ctrl));

    if (j > 0) {
      // TS hits must be buffered until the crossed/exhausted dichotomy is
      // resolved (exhausted TS hits are discarded; siblings re-report).
      std::vector<Point> ts_hits;
      auto crossed = CollectDescYChain(
          pager_, next_ctrl.ts_head, a, &ts_hits);
      CCIDX_RETURN_IF_ERROR(crossed.status());
      if (*crossed) {
        em.Emit(ts_hits);
        if (!em.stopped()) {
          // TS is a snapshot: points pushed into left siblings since the
          // last TS reorganization are found via TD(M) instead
          // (Lemma 3.5). TD hits are buffered too — only those routing
          // left of j qualify. Read only if the sink still wants more.
          std::vector<Point> td_hits;
          if (ctrl.td_root != kInvalidPageId) {
            CornerStructure td = CornerStructure::Open(pager_, ctrl.td_root);
            VectorSink<Point> td_sink(&td_hits);
            CCIDX_RETURN_IF_ERROR(td.Query(a, &td_sink));
          }
          if (ctrl.td_update_count > 0) {
            std::vector<Point> buf;
            auto next = io.ReadRecords<Point>(ctrl.td_update_page, &buf);
            CCIDX_RETURN_IF_ERROR(next.status());
            for (const Point& p : buf) {
              if (q.Contains(p)) td_hits.push_back(p);
            }
          }
          em.EmitFiltered(td_hits, [&](const Point& p) {
            return RouteChild(children, p.x) < j;
          });
        }
      } else {
        for (size_t i = 0; i < j && !em.stopped(); ++i) {
          if (children[i].node_ymax >= a) {
            CCIDX_RETURN_IF_ERROR(
                ReportSubtree(children[i].control, a, em));
          }
        }
      }
      if (em.stopped()) return Status::OK();
    }

    if (children[j].node_ymax < a) return Status::OK();
    ctrl = next_ctrl;
  }
}

// ---------------------------------------------------------------------------
// Checks
// ---------------------------------------------------------------------------

Status AugmentedMetablockTree::CheckNode(const Control& ctrl,
                                         const std::vector<Point>& own) const {
  // Leaves split at 2B^2 (the even half always exists).
  if (ctrl.num_points >= 2 * metablock_capacity()) {
    return Status::Corruption("metablock at or above 2B^2");
  }
  Coord bx0 = kCoordMax, bx1 = kCoordMin, by0 = kCoordMax, by1 = kCoordMin;
  for (const Point& p : own) {
    bx0 = std::min(bx0, p.x);
    bx1 = std::max(bx1, p.x);
    by0 = std::min(by0, p.y);
    by1 = std::max(by1, p.y);
  }
  if (!own.empty() && (bx0 != ctrl.bbox_xmin || bx1 != ctrl.bbox_xmax ||
                       by0 != ctrl.bbox_ymin || by1 != ctrl.bbox_ymax)) {
    return Status::Corruption("bbox mismatch");
  }
  // Vertical blocking consistency.
  PageIo io(pager_);
  std::vector<VerticalBlock> index;
  CCIDX_RETURN_IF_ERROR(ReadVerticalIndex(pager_, ctrl.vindex_head, &index));
  std::vector<Point> vpoints;
  for (const VerticalBlock& blk : index) {
    auto next = io.ReadRecords<Point>(blk.page, &vpoints);
    CCIDX_RETURN_IF_ERROR(next.status());
  }
  std::vector<Point> hsorted = own;
  std::sort(hsorted.begin(), hsorted.end(), PointXOrder());
  if (hsorted != vpoints) {
    return Status::Corruption("vertical / horizontal blockings disagree");
  }
  bool diagonal = !own.empty() && ctrl.bbox_ymin <= ctrl.bbox_xmax;
  if (diagonal != (ctrl.corner_header != kInvalidPageId)) {
    return Status::Corruption("corner structure presence mismatch");
  }
  // The metablock's corner indexes its own blocking in place; a TD corner
  // (over pushed points no blocking holds) owns its own.
  PageId vindex;
  bool owned;
  if (ctrl.corner_header != kInvalidPageId) {
    CCIDX_RETURN_IF_ERROR(CornerStructure::Open(pager_, ctrl.corner_header)
                              .LoadBlocking(&vindex, &owned));
    if (owned || vindex != ctrl.vindex_head) {
      return Status::Corruption("corner structure copies its blocking");
    }
  }
  if (ctrl.td_root != kInvalidPageId) {
    CCIDX_RETURN_IF_ERROR(CornerStructure::Open(pager_, ctrl.td_root)
                              .LoadBlocking(&vindex, &owned));
    if (!owned) return Status::Corruption("TD corner borrows a blocking");
  }
  return Status::OK();
}

Status AugmentedMetablockTree::CheckChildren(
    const Control& /*ctrl*/, const std::vector<ChildEntry>& children,
    const std::vector<Control>& child_ctrls,
    std::vector<std::vector<Point>> stored) const {
  std::vector<PageId> ts_heads;
  for (size_t i = 0; i < children.size(); ++i) {
    if (i > 0 && children[i].sub_xlo < children[i - 1].sub_xlo) {
      return Status::Corruption("children not ordered by x");
    }
    ts_heads.push_back(child_ctrls[i].ts_head);
  }
  // TS(child i) is the top B^2 of its left siblings' stored points.
  return CheckTsChains(pager_, ts_heads, stored, metablock_capacity());
}

}  // namespace ccidx
