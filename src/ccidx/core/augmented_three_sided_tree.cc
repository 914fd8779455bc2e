#include "ccidx/core/augmented_three_sided_tree.h"

#include <algorithm>

#include "ccidx/dynamic/purge_rebuild.h"
#include "ccidx/io/wal.h"

namespace ccidx {

namespace {

// Push/query routing: the last child whose subtree starts at or left of x.
// Child x-intervals are kept strictly disjoint (tie-free split boundaries),
// so for stored points routing equals membership.
template <typename Entries>
size_t RouteChild(const Entries& children, Coord x) {
  size_t idx = 0;
  for (size_t i = 1; i < children.size(); ++i) {
    if (children[i].sub_xlo <= x) idx = i;
  }
  return idx;
}

// Splits [0, n) near n/2 without separating an equal-x run. Returns 0 if
// impossible (all x equal).
size_t TieFreeSplit(const std::vector<Point>& sorted_by_x) {
  size_t n = sorted_by_x.size();
  size_t mid = n / 2;
  // Try moving right, then left.
  for (size_t m = mid; m < n; ++m) {
    if (sorted_by_x[m - 1].x != sorted_by_x[m].x) return m;
  }
  for (size_t m = mid; m > 0; --m) {
    if (sorted_by_x[m - 1].x != sorted_by_x[m].x) return m;
  }
  return 0;
}

}  // namespace

AugmentedThreeSidedTree::AugmentedThreeSidedTree(Pager* pager)
    : pager_(pager), root_(kInvalidPageId), size_(0) {
  PageIo io(pager_);
  branching_ = io.CapacityFor(sizeof(Point));
  CCIDX_CHECK(branching_ >= 8);
  CCIDX_CHECK(sizeof(Control) <= pager_->page_size());
}

Status AugmentedThreeSidedTree::WriteControl(Pager* pager, PageId id,
                                             const Control& c) {
  auto ref = pager->PinMut(id, Pager::MutMode::kOverwrite);
  CCIDX_RETURN_IF_ERROR(ref.status());
  PageWriter w(ref->data());
  w.Put(c);
  return ref->Release();
}

Status AugmentedThreeSidedTree::LoadControl(PageId id, Control* c) const {
  auto ref = pager_->Pin(id);
  CCIDX_RETURN_IF_ERROR(ref.status());
  PageReader r(ref->data());
  *c = r.Get<Control>();
  return Status::OK();
}

Status AugmentedThreeSidedTree::ReadUpdatePoints(
    const Control& ctrl, std::vector<Point>* out) const {
  if (ctrl.update_count == 0) return Status::OK();
  PageIo io(pager_);
  auto next = io.ReadRecords<Point>(ctrl.update_page, out);
  return next.status();
}

Status AugmentedThreeSidedTree::RebuildOrganizations(
    Pager* pager, Control* ctrl, std::vector<Point> own, bool free_old) {
  PageIo io(pager);
  if (free_old) {
    CCIDX_RETURN_IF_ERROR(FreeVerticalBlocking(pager, ctrl->vindex_head));
    if (ctrl->horiz_head != kInvalidPageId) {
      CCIDX_RETURN_IF_ERROR(io.FreeChain(ctrl->horiz_head));
    }
    if (ctrl->own_pst_root != kInvalidPageId) {
      ExternalPst pst = ExternalPst::Open(pager, ctrl->own_pst_root);
      CCIDX_RETURN_IF_ERROR(pst.Free());
      ctrl->own_pst_root = kInvalidPageId;
    }
  }
  ctrl->num_points = static_cast<uint32_t>(own.size());
  ctrl->bbox_xmin = ctrl->bbox_ymin = kCoordMax;
  ctrl->bbox_xmax = ctrl->bbox_ymax = kCoordMin;
  for (const Point& p : own) {
    ctrl->bbox_xmin = std::min(ctrl->bbox_xmin, p.x);
    ctrl->bbox_xmax = std::max(ctrl->bbox_xmax, p.x);
    ctrl->bbox_ymin = std::min(ctrl->bbox_ymin, p.y);
    ctrl->bbox_ymax = std::max(ctrl->bbox_ymax, p.y);
  }
  std::sort(own.begin(), own.end(), PointXOrder());
  auto vb = WriteVerticalBlocking(pager, own);
  CCIDX_RETURN_IF_ERROR(vb.status());
  ctrl->vindex_head = vb->index_head;
  auto horiz = WriteDescYChain(pager, own);
  CCIDX_RETURN_IF_ERROR(horiz.status());
  ctrl->horiz_head = *horiz;
  auto pst = ExternalPst::Build(pager, std::move(own));
  CCIDX_RETURN_IF_ERROR(pst.status());
  ctrl->own_pst_root = pst->root();
  ctrl->node_ymax = std::max({ctrl->bbox_ymax, ctrl->update_ymax,
                              ctrl->desc_ymax});
  return Status::OK();
}

Result<AugmentedThreeSidedTree::BuiltNode>
AugmentedThreeSidedTree::BuildNode(Pager* pager, PointGroup group,
                                   uint32_t branching) {
  const uint32_t b2 = branching * branching;
  CCIDX_CHECK(!group.empty());
  PageIo io(pager);

  BuiltNode node;
  node.control_page = pager->Allocate();
  Control& ctrl = node.ctrl;
  ctrl = Control{};
  ctrl.sub_xlo = group.first_x();
  ctrl.sub_xhi = group.last_x();
  ctrl.update_page = pager->Allocate();
  CCIDX_RETURN_IF_ERROR(io.WriteRecords<Point>(ctrl.update_page, {}));

  std::vector<Point> own;
  if (group.size() <= b2) {
    auto all = std::move(group).TakeAll();
    CCIDX_RETURN_IF_ERROR(all.status());
    own = std::move(*all);
  } else {
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
    own = std::move(*top);

    // TS chains in both directions (running top-B^2 folds); children-union
    // PST.
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
                         child.ctrl.node_ymax, child.ctrl.desc_ymax,
                         child.control_page});
      ctrl.desc_ymax = std::max(ctrl.desc_ymax, child.ctrl.node_ymax);
    }
    auto ids = io.WriteChain<ChildEntry>(entries);
    CCIDX_RETURN_IF_ERROR(ids.status());
    ctrl.children_head = ids->empty() ? kInvalidPageId : ids->front();
    ctrl.num_children = static_cast<uint32_t>(entries.size());
    ctrl.td_update_page = pager->Allocate();
    CCIDX_RETURN_IF_ERROR(io.WriteRecords<Point>(ctrl.td_update_page, {}));
  }

  // Own organizations (fresh; nothing to free).
  node.own_points = own;
  CCIDX_RETURN_IF_ERROR(
      RebuildOrganizations(pager, &ctrl, std::move(own), false));
  return node;
}

Result<AugmentedThreeSidedTree> AugmentedThreeSidedTree::Build(
    Pager* pager, PointGroup points) {
  PageIo io(pager);
  const uint32_t branching = io.CapacityFor(sizeof(Point));
  if (branching < 8 || sizeof(Control) > pager->page_size()) {
    return Status::InvalidArgument("page size too small (need B >= 8)");
  }
  if (points.empty()) {
    return AugmentedThreeSidedTree(pager, kInvalidPageId, 0, branching);
  }
  TxnScope txn(pager);
  uint64_t n = points.size();
  auto root = BuildNode(pager, std::move(points), branching);
  CCIDX_RETURN_IF_ERROR(root.status());
  CCIDX_RETURN_IF_ERROR(WriteControl(pager, root->control_page, root->ctrl));
  CCIDX_RETURN_IF_ERROR(txn.Commit());
  return AugmentedThreeSidedTree(pager, root->control_page, n, branching);
}

Result<AugmentedThreeSidedTree> AugmentedThreeSidedTree::Build(
    Pager* pager, RecordStream<Point>* points) {
  TxnScope txn(pager);
  auto group =
      SortPointStream(pager, points, /*require_above_diagonal=*/false);
  CCIDX_RETURN_IF_ERROR(group.status());
  auto tree = Build(pager, std::move(*group));
  CCIDX_RETURN_IF_ERROR(tree.status());
  CCIDX_RETURN_IF_ERROR(txn.Commit());
  return tree;
}

Result<AugmentedThreeSidedTree> AugmentedThreeSidedTree::Build(
    Pager* pager, std::span<const Point> points) {
  SpanStream<Point> stream(points);
  return Build(pager, &stream);
}

Result<AugmentedThreeSidedTree> AugmentedThreeSidedTree::Build(
    Pager* pager, std::vector<Point>&& points) {
  return Build(pager, std::span<const Point>(points));
}

// ---------------------------------------------------------------------------
// Insertion machinery
// ---------------------------------------------------------------------------

Status AugmentedThreeSidedTree::LevelOne(Control* ctrl) {
  PageIo io(pager_);
  std::vector<Point> own;
  CCIDX_RETURN_IF_ERROR(io.ReadChain<Point>(ctrl->horiz_head, &own));
  CCIDX_RETURN_IF_ERROR(ReadUpdatePoints(*ctrl, &own));
  ctrl->update_count = 0;
  ctrl->update_ymax = kCoordMin;
  CCIDX_RETURN_IF_ERROR(io.WriteRecords<Point>(ctrl->update_page, {}));
  return RebuildOrganizations(pager_, ctrl, std::move(own), true);
}

Status AugmentedThreeSidedTree::AddToTd(Control* ctrl,
                                        std::span<const Point> pts) {
  if (pts.empty()) return Status::OK();
  PageIo io(pager_);
  std::vector<Point> buffer;
  if (ctrl->td_update_count > 0) {
    auto next = io.ReadRecords<Point>(ctrl->td_update_page, &buffer);
    CCIDX_RETURN_IF_ERROR(next.status());
  }
  buffer.insert(buffer.end(), pts.begin(), pts.end());
  if (buffer.size() >= branching_) {
    std::vector<Point> all;
    if (ctrl->td_pst_root != kInvalidPageId) {
      ExternalPst old = ExternalPst::Open(pager_, ctrl->td_pst_root);
      CCIDX_RETURN_IF_ERROR(old.CollectPoints(&all));
      CCIDX_RETURN_IF_ERROR(old.Free());
      ctrl->td_pst_root = kInvalidPageId;
    }
    all.insert(all.end(), buffer.begin(), buffer.end());
    ctrl->td_count = static_cast<uint32_t>(all.size());
    auto pst = ExternalPst::Build(pager_, std::move(all));
    CCIDX_RETURN_IF_ERROR(pst.status());
    ctrl->td_pst_root = pst->root();
    buffer.clear();
  }
  ctrl->td_update_count = static_cast<uint32_t>(buffer.size());
  return io.WriteRecords<Point>(ctrl->td_update_page, buffer);
}

Status AugmentedThreeSidedTree::ClearTd(Control* ctrl) {
  PageIo io(pager_);
  if (ctrl->td_pst_root != kInvalidPageId) {
    ExternalPst old = ExternalPst::Open(pager_, ctrl->td_pst_root);
    CCIDX_RETURN_IF_ERROR(old.Free());
    ctrl->td_pst_root = kInvalidPageId;
  }
  ctrl->td_count = 0;
  if (ctrl->td_update_count > 0) {
    CCIDX_RETURN_IF_ERROR(io.WriteRecords<Point>(ctrl->td_update_page, {}));
    ctrl->td_update_count = 0;
  }
  return Status::OK();
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
    CCIDX_RETURN_IF_ERROR(io.ReadChain<Point>(ctrls[i].horiz_head, &sets[i]));
    CCIDX_RETURN_IF_ERROR(ReadUpdatePoints(ctrls[i], &sets[i]));
  }
  std::vector<Point> ts;
  std::vector<Point> acc;
  for (size_t i = 0; i < children.size(); ++i) {
    if (ctrls[i].ts_left_head != kInvalidPageId) {
      CCIDX_RETURN_IF_ERROR(io.FreeChain(ctrls[i].ts_left_head));
      ctrls[i].ts_left_head = kInvalidPageId;
    }
    if (!ts.empty()) {
      auto head = WriteDescYChain(pager_, ts);
      CCIDX_RETURN_IF_ERROR(head.status());
      ctrls[i].ts_left_head = *head;
    }
    FoldTopK(&ts, sets[i], b2);
    acc.insert(acc.end(), sets[i].begin(), sets[i].end());
  }
  // Children-union PST from the same snapshot.
  if (ctrl->children_pst_root != kInvalidPageId) {
    ExternalPst old = ExternalPst::Open(pager_, ctrl->children_pst_root);
    CCIDX_RETURN_IF_ERROR(old.Free());
  }
  {
    auto pst = ExternalPst::Build(pager_, std::move(acc));
    CCIDX_RETURN_IF_ERROR(pst.status());
    ctrl->children_pst_root = pst->root();
  }
  ts.clear();
  for (size_t i = children.size(); i-- > 0;) {
    if (ctrls[i].ts_right_head != kInvalidPageId) {
      CCIDX_RETURN_IF_ERROR(io.FreeChain(ctrls[i].ts_right_head));
      ctrls[i].ts_right_head = kInvalidPageId;
    }
    if (!ts.empty()) {
      auto head = WriteDescYChain(pager_, ts);
      CCIDX_RETURN_IF_ERROR(head.status());
      ctrls[i].ts_right_head = *head;
    }
    FoldTopK(&ts, sets[i], b2);
  }
  for (size_t i = 0; i < children.size(); ++i) {
    CCIDX_RETURN_IF_ERROR(WriteControl(pager_, children[i].control,
                                       ctrls[i]));
  }
  return ClearTd(ctrl);
}

Status AugmentedThreeSidedTree::LevelTwoInternal(PageId id, Control* ctrl,
                                                 AddResult* result) {
  const uint32_t b2 = metablock_capacity();
  PageIo io(pager_);

  std::vector<Point> own;
  CCIDX_RETURN_IF_ERROR(io.ReadChain<Point>(ctrl->horiz_head, &own));
  CCIDX_CHECK(own.size() >= 2 * b2);
  std::vector<Point> push(own.begin() + b2, own.end());
  own.resize(b2);
  CCIDX_RETURN_IF_ERROR(
      RebuildOrganizations(pager_, ctrl, std::move(own), true));
  ctrl->desc_ymax = std::max(ctrl->desc_ymax, push.front().y);
  ctrl->node_ymax = std::max({ctrl->bbox_ymax, ctrl->update_ymax,
                              ctrl->desc_ymax});

  std::vector<ChildEntry> children;
  CCIDX_RETURN_IF_ERROR(
      io.ReadChain<ChildEntry>(ctrl->children_head, &children));
  CCIDX_CHECK(!children.empty());
  std::vector<std::vector<Point>> batches(children.size());
  for (const Point& p : push) {
    batches[RouteChild(children, p.x)].push_back(p);
  }

  bool structural = false;
  std::vector<std::pair<size_t, ChildEntry>> new_entries;
  for (size_t i = 0; i < children.size(); ++i) {
    if (batches[i].empty()) continue;
    auto r = AddPoints(children[i].control, std::move(batches[i]));
    CCIDX_RETURN_IF_ERROR(r.status());
    children[i].control = r->id;
    children[i].sub_xlo = r->sub_xlo;
    children[i].sub_xhi = r->sub_xhi;
    children[i].node_ymax = r->node_ymax;
    children[i].desc_ymax = r->desc_ymax;
    for (const SplitEntry& s : r->splits) {
      new_entries.push_back({i, {s.xlo, s.xhi, s.node_ymax, kCoordMin,
                                 s.id}});
      structural = true;
    }
    structural |= r->structural;
  }
  CCIDX_RETURN_IF_ERROR(AddToTd(ctrl, push));

  for (auto it = new_entries.rbegin(); it != new_entries.rend(); ++it) {
    children.insert(children.begin() + it->first + 1, it->second);
  }
  if (ctrl->children_head != kInvalidPageId) {
    CCIDX_RETURN_IF_ERROR(io.FreeChain(ctrl->children_head));
  }
  auto ids = io.WriteChain<ChildEntry>(children);
  CCIDX_RETURN_IF_ERROR(ids.status());
  ctrl->children_head = ids->front();
  ctrl->num_children = static_cast<uint32_t>(children.size());

  result->structural = true;
  if (ctrl->num_children >= 2 * branching_) {
    return Status::OK();  // caller rebuilds the whole subtree
  }
  if (structural || ctrl->td_count >= b2) {
    CCIDX_RETURN_IF_ERROR(TsReorganizeChildren(ctrl));
  }
  (void)id;
  return Status::OK();
}

Result<AugmentedThreeSidedTree::AddResult>
AugmentedThreeSidedTree::AddPoints(PageId id, std::vector<Point> pts) {
  Control ctrl;
  CCIDX_RETURN_IF_ERROR(LoadControl(id, &ctrl));
  PageIo io(pager_);
  const uint32_t b2 = metablock_capacity();

  AddResult res;
  res.id = id;

  if (ctrl.num_children > 0) {
    std::vector<Point> upd;
    CCIDX_RETURN_IF_ERROR(ReadUpdatePoints(ctrl, &upd));
    bool needs_rebuild = false;
    for (const Point& p : pts) {
      ctrl.sub_xlo = std::min(ctrl.sub_xlo, p.x);
      ctrl.sub_xhi = std::max(ctrl.sub_xhi, p.x);
      ctrl.update_ymax = std::max(ctrl.update_ymax, p.y);
      ctrl.node_ymax = std::max(ctrl.node_ymax, p.y);
      upd.push_back(p);
      if (upd.size() >= branching_) {
        ctrl.update_count = static_cast<uint32_t>(upd.size());
        CCIDX_RETURN_IF_ERROR(io.WriteRecords<Point>(ctrl.update_page, upd));
        CCIDX_RETURN_IF_ERROR(LevelOne(&ctrl));
        upd.clear();
        if (ctrl.num_points >= 2 * b2) {
          CCIDX_RETURN_IF_ERROR(LevelTwoInternal(id, &ctrl, &res));
          if (ctrl.num_children >= 2 * branching_) needs_rebuild = true;
        }
      }
    }
    ctrl.update_count = static_cast<uint32_t>(upd.size());
    CCIDX_RETURN_IF_ERROR(io.WriteRecords<Point>(ctrl.update_page, upd));
    CCIDX_RETURN_IF_ERROR(WriteControl(pager_, id, ctrl));
    if (needs_rebuild) {
      auto new_id = RebuildSubtree(id);
      CCIDX_RETURN_IF_ERROR(new_id.status());
      res.id = *new_id;
      res.structural = true;
      CCIDX_RETURN_IF_ERROR(LoadControl(res.id, &ctrl));
    }
    res.sub_xlo = ctrl.sub_xlo;
    res.sub_xhi = ctrl.sub_xhi;
    res.node_ymax = ctrl.node_ymax;
    res.desc_ymax = ctrl.desc_ymax;
    return res;
  }

  // Leaf: may split (tie-free) while absorbing the batch.
  struct Part {
    PageId id;
    Control ctrl;
    std::vector<Point> upd;
  };
  std::vector<Part> parts;
  parts.push_back({id, ctrl, {}});
  CCIDX_RETURN_IF_ERROR(ReadUpdatePoints(ctrl, &parts[0].upd));

  for (const Point& p : pts) {
    size_t target = 0;
    for (size_t i = 1; i < parts.size(); ++i) {
      if (parts[i].ctrl.sub_xlo <= p.x) target = i;
    }
    Part* part = &parts[target];
    part->ctrl.sub_xlo = std::min(part->ctrl.sub_xlo, p.x);
    part->ctrl.sub_xhi = std::max(part->ctrl.sub_xhi, p.x);
    part->ctrl.update_ymax = std::max(part->ctrl.update_ymax, p.y);
    part->ctrl.node_ymax = std::max(part->ctrl.node_ymax, p.y);
    part->upd.push_back(p);
    if (part->upd.size() >= branching_) {
      part->ctrl.update_count = static_cast<uint32_t>(part->upd.size());
      CCIDX_RETURN_IF_ERROR(
          io.WriteRecords<Point>(part->ctrl.update_page, part->upd));
      CCIDX_RETURN_IF_ERROR(LevelOne(&part->ctrl));
      part->upd.clear();
      if (part->ctrl.num_points >= 2 * b2) {
        std::vector<Point> own;
        CCIDX_RETURN_IF_ERROR(io.ReadChain<Point>(part->ctrl.horiz_head,
                                                  &own));
        std::sort(own.begin(), own.end(), PointXOrder());
        size_t half = TieFreeSplit(own);
        if (half == 0) continue;  // all-equal x: defer (stays oversized)
        std::vector<Point> right(own.begin() + half, own.end());
        own.resize(half);

        Part rp;
        rp.id = pager_->Allocate();
        rp.ctrl = Control{};
        rp.ctrl.update_page = pager_->Allocate();
        CCIDX_RETURN_IF_ERROR(
            io.WriteRecords<Point>(rp.ctrl.update_page, {}));
        rp.ctrl.sub_xlo = right.front().x;
        rp.ctrl.sub_xhi = part->ctrl.sub_xhi;
        part->ctrl.sub_xhi = own.back().x;
        CCIDX_RETURN_IF_ERROR(
            RebuildOrganizations(pager_, &part->ctrl, std::move(own), true));
        CCIDX_RETURN_IF_ERROR(
            RebuildOrganizations(pager_, &rp.ctrl, std::move(right), false));
        parts.insert(parts.begin() + target + 1, std::move(rp));
      }
    }
  }
  for (Part& part : parts) {
    part.ctrl.update_count = static_cast<uint32_t>(part.upd.size());
    CCIDX_RETURN_IF_ERROR(
        io.WriteRecords<Point>(part.ctrl.update_page, part.upd));
    CCIDX_RETURN_IF_ERROR(WriteControl(pager_, part.id, part.ctrl));
  }
  res.id = parts[0].id;
  res.sub_xlo = parts[0].ctrl.sub_xlo;
  res.sub_xhi = parts[0].ctrl.sub_xhi;
  res.node_ymax = parts[0].ctrl.node_ymax;
  res.desc_ymax = kCoordMin;
  for (size_t i = 1; i < parts.size(); ++i) {
    res.splits.push_back({parts[i].id, parts[i].ctrl.sub_xlo,
                          parts[i].ctrl.sub_xhi, parts[i].ctrl.node_ymax});
    res.structural = true;
  }
  return res;
}

Result<PageId> AugmentedThreeSidedTree::RebuildSubtree(PageId id) {
  Control ctrl;
  CCIDX_RETURN_IF_ERROR(LoadControl(id, &ctrl));
  PageIo io(pager_);
  std::vector<Point> ts_left, ts_right;
  if (ctrl.ts_left_head != kInvalidPageId) {
    CCIDX_RETURN_IF_ERROR(io.ReadChain<Point>(ctrl.ts_left_head, &ts_left));
  }
  if (ctrl.ts_right_head != kInvalidPageId) {
    CCIDX_RETURN_IF_ERROR(io.ReadChain<Point>(ctrl.ts_right_head,
                                              &ts_right));
  }
  std::vector<Point> all;
  CCIDX_RETURN_IF_ERROR(CollectSubtree(id, &all));
  CCIDX_RETURN_IF_ERROR(DestroySubtree(id, /*keep_ts=*/false));
  CCIDX_CHECK(!all.empty());
  std::sort(all.begin(), all.end(), PointXOrder());
  auto built = BuildNode(pager_, PointGroup::FromVector(std::move(all)),
                         branching_);
  CCIDX_RETURN_IF_ERROR(built.status());
  if (!ts_left.empty()) {
    auto head = WriteDescYChain(pager_, std::move(ts_left));
    CCIDX_RETURN_IF_ERROR(head.status());
    built->ctrl.ts_left_head = *head;
  }
  if (!ts_right.empty()) {
    auto head = WriteDescYChain(pager_, std::move(ts_right));
    CCIDX_RETURN_IF_ERROR(head.status());
    built->ctrl.ts_right_head = *head;
  }
  CCIDX_RETURN_IF_ERROR(
      WriteControl(pager_, built->control_page, built->ctrl));
  return built->control_page;
}

Status AugmentedThreeSidedTree::Insert(const Point& p) {
  std::lock_guard<std::mutex> write_lock(*write_mu_);
  if (tombstones_.Consume(p)) {
    // The identical point is still stored, only tombstoned: consuming the
    // tombstone resurrects it at zero I/O.
    sched_.NoteTombstoneConsumed();
    size_++;
    return Status::OK();
  }
  // Single-writer tree: one txn covers the descent, any split rebuild,
  // and the buffered-update page writes, committed under write_mu_.
  // (The resurrection path above writes nothing.)
  TxnScope txn(pager_);
  if (root_ == kInvalidPageId) {
    auto built = BuildNode(pager_, PointGroup::FromVector({p}), branching_);
    CCIDX_RETURN_IF_ERROR(built.status());
    CCIDX_RETURN_IF_ERROR(
        WriteControl(pager_, built->control_page, built->ctrl));
    root_ = built->control_page;
    size_ = 1;
    return txn.Commit();
  }
  auto res = AddPoints(root_, {p});
  CCIDX_RETURN_IF_ERROR(res.status());
  root_ = res->id;
  if (!res->splits.empty()) {
    std::vector<Point> all;
    CCIDX_RETURN_IF_ERROR(CollectSubtree(root_, &all));
    CCIDX_RETURN_IF_ERROR(DestroySubtree(root_, false));
    for (const SplitEntry& s : res->splits) {
      CCIDX_RETURN_IF_ERROR(CollectSubtree(s.id, &all));
      CCIDX_RETURN_IF_ERROR(DestroySubtree(s.id, false));
    }
    std::sort(all.begin(), all.end(), PointXOrder());
    auto built = BuildNode(pager_, PointGroup::FromVector(std::move(all)),
                           branching_);
    CCIDX_RETURN_IF_ERROR(built.status());
    CCIDX_RETURN_IF_ERROR(
        WriteControl(pager_, built->control_page, built->ctrl));
    root_ = built->control_page;
  }
  size_++;
  return txn.Commit();
}

Status AugmentedThreeSidedTree::Delete(const Point& p, bool* found) {
  std::lock_guard<std::mutex> write_lock(*write_mu_);
  *found = false;
  if (root_ == kInvalidPageId) return Status::OK();
  if (tombstones_.Contains(p)) return Status::OK();  // already dead
  // Membership probe: the degenerate slab through the point; stop at the
  // first exact match. Read-only — a failure changes nothing.
  bool exists = false;
  ExactMatchSink<Point> finder(p, &exists);
  CCIDX_RETURN_IF_ERROR(QueryRaw(ThreeSidedQuery{p.x, p.x, p.y}, &finder));
  if (!exists) return Status::OK();
  *found = true;
  return DeleteKnownLocked(p);
}

Status AugmentedThreeSidedTree::DeleteKnown(const Point& p) {
  std::lock_guard<std::mutex> write_lock(*write_mu_);
  return DeleteKnownLocked(p);
}

Status AugmentedThreeSidedTree::DeleteKnownLocked(const Point& p) {
  if (!tombstones_.Add(p)) return Status::OK();  // already dead
  sched_.NoteDelete();
  if (size_ > 0) size_--;
  if (sched_.ShouldPurge(size_)) return GlobalPurgeRebuild();
  return Status::OK();
}

Status AugmentedThreeSidedTree::VisitSubtreePages(
    PageId id, std::vector<PageId>* out) const {
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
                      static_cast<PageId>(ctrl.children_pst_root),
                      static_cast<PageId>(ctrl.td_pst_root)}) {
    if (root != kInvalidPageId) {
      ExternalPst pst = ExternalPst::Open(pager_, root);
      CCIDX_RETURN_IF_ERROR(pst.VisitPages(out));
    }
  }
  out->push_back(ctrl.update_page);
  if (ctrl.td_update_page != kInvalidPageId) {
    out->push_back(ctrl.td_update_page);
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

Status AugmentedThreeSidedTree::VisitPages(std::vector<PageId>* out) const {
  if (root_ == kInvalidPageId) return Status::OK();
  return VisitSubtreePages(root_, out);
}

Status AugmentedThreeSidedTree::GlobalPurgeRebuild() {
  // Shared fault-atomic skeleton (dynamic/purge_rebuild.h): harvest
  // points + page ids read-only, drop tombstoned points, rebuild the
  // live set through the bulk-build pipeline under a TxnScope, then
  // retire the old pages by id.
  // One txn spans build and retire: a crash mid-purge rolls back to
  // the pre-purge tree (the in-memory tombstones are not durable — this
  // family recovers through its owner's rebuild, not AttachMeta).
  TxnScope txn(pager_);
  PageId new_root = kInvalidPageId;
  CCIDX_RETURN_IF_ERROR(PurgeRebuild(
      pager_, &tombstones_, &sched_,
      [&](std::vector<Point>* out) { return CollectSubtree(root_, out); },
      [&](std::vector<PageId>* out) { return VisitSubtreePages(root_, out); },
      [&](std::vector<Point> live) {
        if (live.empty()) return Status::OK();
        std::sort(live.begin(), live.end(), PointXOrder());
        auto built = BuildNode(pager_, PointGroup::FromVector(std::move(live)),
                               branching_);
        CCIDX_RETURN_IF_ERROR(built.status());
        CCIDX_RETURN_IF_ERROR(
            WriteControl(pager_, built->control_page, built->ctrl));
        new_root = built->control_page;
        return Status::OK();
      }));
  root_ = new_root;
  return txn.Commit();
}

// ---------------------------------------------------------------------------
// Queries
// ---------------------------------------------------------------------------

Status AugmentedThreeSidedTree::ReportOwnPoints(
    const Control& ctrl, Coord xlo, Coord xhi, Coord ylo,
    SinkEmitter<Point>& em) const {
  if (em.stopped()) return Status::OK();
  PageIo io(pager_);
  if (ctrl.update_count > 0) {
    std::vector<Point> upd;
    CCIDX_RETURN_IF_ERROR(ReadUpdatePoints(ctrl, &upd));
    simd::EmitFiltered3Sided(em, upd, xlo, xhi, ylo);
    if (em.stopped()) return Status::OK();
  }
  if (ctrl.num_points == 0) return Status::OK();
  if (ctrl.bbox_xmin > xhi || ctrl.bbox_xmax < xlo || ctrl.bbox_ymax < ylo) {
    return Status::OK();
  }
  const bool x_all = ctrl.bbox_xmin >= xlo && ctrl.bbox_xmax <= xhi;
  const bool y_all = ctrl.bbox_ymin >= ylo;
  if (x_all && y_all) {
    return EmitChain<Point>(pager_, ctrl.horiz_head, em);
  }
  if (y_all) {
    std::vector<VerticalBlock> index;
    CCIDX_RETURN_IF_ERROR(ReadVerticalIndex(pager_, ctrl.vindex_head,
                                            &index));
    return ScanVerticalBlocks(pager_, index, xlo, xhi, em);
  }
  if (x_all) {
    auto crossed = ScanDescYChain(pager_, ctrl.horiz_head, ylo, em);
    return crossed.status();
  }
  ExternalPst pst = ExternalPst::Open(pager_, ctrl.own_pst_root);
  return pst.Query({xlo, xhi, ylo}, em);
}

Status AugmentedThreeSidedTree::ReportSubtree(PageId id, Coord ylo,
                                              SinkEmitter<Point>& em) const {
  if (em.stopped()) return Status::OK();
  Control ctrl;
  CCIDX_RETURN_IF_ERROR(LoadControl(id, &ctrl));
  auto crossed = ScanDescYChain(pager_, ctrl.horiz_head, ylo, em);
  CCIDX_RETURN_IF_ERROR(crossed.status());
  if (ctrl.update_count > 0 && !em.stopped()) {
    std::vector<Point> upd;
    CCIDX_RETURN_IF_ERROR(ReadUpdatePoints(ctrl, &upd));
    simd::EmitFilteredYAtLeast(em, upd, ylo);
  }
  if (ctrl.num_children == 0 || ctrl.desc_ymax < ylo || em.stopped()) {
    return Status::OK();
  }
  PageIo io(pager_);
  std::vector<ChildEntry> children;
  CCIDX_RETURN_IF_ERROR(io.ReadChain<ChildEntry>(ctrl.children_head,
                                                 &children));
  for (const ChildEntry& c : children) {
    if (em.stopped()) break;
    if (c.node_ymax >= ylo) {
      CCIDX_RETURN_IF_ERROR(ReportSubtree(c.control, ylo, em));
    }
  }
  return Status::OK();
}

Status AugmentedThreeSidedTree::ReportTd(
    const Control& ctrl, const ThreeSidedQuery& q,
    const std::function<bool(const Point&)>& keep,
    SinkEmitter<Point>& em) const {
  if (em.stopped()) return Status::OK();
  // The snapshot hits must be buffered: they are filtered by the routing
  // predicate before any of them may reach the sink.
  std::vector<Point> hits;
  if (ctrl.td_pst_root != kInvalidPageId) {
    ExternalPst td = ExternalPst::Open(pager_, ctrl.td_pst_root);
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

Status AugmentedThreeSidedTree::Query(const ThreeSidedQuery& q,
                                      ResultSink<Point>* sink) const {
  if (tombstones_.empty()) return QueryRaw(q, sink);
  // Weak deletes outstanding: filter dead points out of every reporting
  // path (a hash probe per emitted record, zero extra I/O).
  PointLiveFilterSink filter(&tombstones_, sink);
  return QueryRaw(q, &filter);
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
// Maintenance
// ---------------------------------------------------------------------------

Status AugmentedThreeSidedTree::CollectSubtree(PageId id,
                                               std::vector<Point>* out) const {
  Control ctrl;
  CCIDX_RETURN_IF_ERROR(LoadControl(id, &ctrl));
  PageIo io(pager_);
  CCIDX_RETURN_IF_ERROR(io.ReadChain<Point>(ctrl.horiz_head, out));
  CCIDX_RETURN_IF_ERROR(ReadUpdatePoints(ctrl, out));
  if (ctrl.num_children > 0) {
    std::vector<ChildEntry> children;
    CCIDX_RETURN_IF_ERROR(io.ReadChain<ChildEntry>(ctrl.children_head,
                                                   &children));
    for (const ChildEntry& c : children) {
      CCIDX_RETURN_IF_ERROR(CollectSubtree(c.control, out));
    }
  }
  return Status::OK();
}

Status AugmentedThreeSidedTree::DestroySubtree(PageId id, bool keep_ts) {
  Control ctrl;
  CCIDX_RETURN_IF_ERROR(LoadControl(id, &ctrl));
  PageIo io(pager_);
  CCIDX_RETURN_IF_ERROR(FreeVerticalBlocking(pager_, ctrl.vindex_head));
  if (ctrl.horiz_head != kInvalidPageId) {
    CCIDX_RETURN_IF_ERROR(io.FreeChain(ctrl.horiz_head));
  }
  if (!keep_ts) {
    if (ctrl.ts_left_head != kInvalidPageId) {
      CCIDX_RETURN_IF_ERROR(io.FreeChain(ctrl.ts_left_head));
    }
    if (ctrl.ts_right_head != kInvalidPageId) {
      CCIDX_RETURN_IF_ERROR(io.FreeChain(ctrl.ts_right_head));
    }
  }
  for (PageId root : {static_cast<PageId>(ctrl.own_pst_root),
                      static_cast<PageId>(ctrl.children_pst_root),
                      static_cast<PageId>(ctrl.td_pst_root)}) {
    if (root != kInvalidPageId) {
      ExternalPst pst = ExternalPst::Open(pager_, root);
      CCIDX_RETURN_IF_ERROR(pst.Free());
    }
  }
  CCIDX_RETURN_IF_ERROR(pager_->Free(ctrl.update_page));
  if (ctrl.td_update_page != kInvalidPageId) {
    CCIDX_RETURN_IF_ERROR(pager_->Free(ctrl.td_update_page));
  }
  if (ctrl.num_children > 0) {
    std::vector<ChildEntry> children;
    CCIDX_RETURN_IF_ERROR(io.ReadChain<ChildEntry>(ctrl.children_head,
                                                   &children));
    for (const ChildEntry& c : children) {
      CCIDX_RETURN_IF_ERROR(DestroySubtree(c.control, false));
    }
    CCIDX_RETURN_IF_ERROR(io.FreeChain(ctrl.children_head));
  }
  return pager_->Free(id);
}

Status AugmentedThreeSidedTree::Destroy() {
  std::lock_guard<std::mutex> write_lock(*write_mu_);
  if (root_ == kInvalidPageId) return Status::OK();
  TxnScope txn(pager_);
  CCIDX_RETURN_IF_ERROR(DestroySubtree(root_, false));
  root_ = kInvalidPageId;
  size_ = 0;
  tombstones_.Clear();
  sched_.Reset();
  return txn.Commit();
}

Status AugmentedThreeSidedTree::CheckSubtree(PageId id, Coord* node_ymax_out,
                                             uint64_t* count_out) const {
  Control ctrl;
  CCIDX_RETURN_IF_ERROR(LoadControl(id, &ctrl));
  PageIo io(pager_);
  const uint32_t b2 = metablock_capacity();

  std::vector<Point> own;
  CCIDX_RETURN_IF_ERROR(io.ReadChain<Point>(ctrl.horiz_head, &own));
  if (own.size() != ctrl.num_points) {
    return Status::Corruption("own point count mismatch");
  }
  if (!std::is_sorted(own.begin(), own.end(), PointDescYOrder())) {
    return Status::Corruption("horizontal chain not descending");
  }
  if (ctrl.num_children > 0 && ctrl.num_points < b2) {
    return Status::Corruption("internal metablock below B^2");
  }
  std::vector<Point> upd;
  CCIDX_RETURN_IF_ERROR(ReadUpdatePoints(ctrl, &upd));
  if (upd.size() != ctrl.update_count || upd.size() >= branching_) {
    return Status::Corruption("update block inconsistent");
  }
  if (ctrl.own_pst_root == kInvalidPageId && !own.empty()) {
    return Status::Corruption("missing own PST");
  }
  if (ctrl.own_pst_root != kInvalidPageId) {
    ExternalPst pst = ExternalPst::Open(pager_, ctrl.own_pst_root);
    CCIDX_RETURN_IF_ERROR(pst.CheckInvariants());
  }
  Coord actual = kCoordMin;
  for (const Point& p : own) actual = std::max(actual, p.y);
  for (const Point& p : upd) actual = std::max(actual, p.y);
  uint64_t count = own.size() + upd.size();

  if (ctrl.num_children > 0) {
    if (ctrl.children_pst_root == kInvalidPageId) {
      return Status::Corruption("missing children PST");
    }
    std::vector<ChildEntry> children;
    CCIDX_RETURN_IF_ERROR(io.ReadChain<ChildEntry>(ctrl.children_head,
                                                   &children));
    if (children.size() != ctrl.num_children) {
      return Status::Corruption("children count mismatch");
    }
    // The TS chains of child i cover what its left (right) siblings
    // stored at the last TS reorganization: their organized and buffered
    // points, less the pushes recorded in TD(this) since then.
    std::vector<Point> td;
    if (ctrl.td_pst_root != kInvalidPageId) {
      ExternalPst tds = ExternalPst::Open(pager_, ctrl.td_pst_root);
      CCIDX_RETURN_IF_ERROR(tds.CollectPoints(&td));
    }
    if (ctrl.td_update_count > 0) {
      CCIDX_RETURN_IF_ERROR(
          io.ReadRecords<Point>(ctrl.td_update_page, &td).status());
    }
    std::vector<std::vector<Point>> pushed(children.size());
    for (const Point& p : td) pushed[RouteChild(children, p.x)].push_back(p);
    std::vector<PageId> left_heads, right_heads;
    std::vector<std::vector<Point>> stored(children.size());
    Coord desc_actual = kCoordMin;
    for (size_t i = 0; i < children.size(); ++i) {
      if (i > 0 && children[i].sub_xlo <= children[i - 1].sub_xhi) {
        return Status::Corruption("child x-intervals overlap");
      }
      Control child;
      CCIDX_RETURN_IF_ERROR(LoadControl(children[i].control, &child));
      left_heads.push_back(child.ts_left_head);
      right_heads.push_back(child.ts_right_head);
      CCIDX_RETURN_IF_ERROR(io.ReadChain<Point>(child.horiz_head, &stored[i]));
      CCIDX_RETURN_IF_ERROR(ReadUpdatePoints(child, &stored[i]));
      if (!ErasePoints(&stored[i], std::move(pushed[i]))) {
        return Status::Corruption("TD point not stored in its child");
      }
      Coord cy = kCoordMin;
      uint64_t cc = 0;
      CCIDX_RETURN_IF_ERROR(CheckSubtree(children[i].control, &cy, &cc));
      if (children[i].node_ymax < cy) {
        return Status::Corruption("stale child node_ymax");
      }
      desc_actual = std::max(desc_actual, cy);
      count += cc;
    }
    if (ctrl.desc_ymax < desc_actual) {
      return Status::Corruption("desc_ymax watermark below actual");
    }
    CCIDX_RETURN_IF_ERROR(CheckTsChains(pager_, left_heads, stored, b2));
    std::reverse(right_heads.begin(), right_heads.end());
    std::reverse(stored.begin(), stored.end());
    CCIDX_RETURN_IF_ERROR(CheckTsChains(pager_, right_heads, stored, b2));
    actual = std::max(actual, desc_actual);
  }
  if (ctrl.node_ymax < actual) {
    return Status::Corruption("node_ymax watermark below actual");
  }
  *node_ymax_out = actual;
  *count_out = count;
  return Status::OK();
}

Status AugmentedThreeSidedTree::CheckInvariants() const {
  if (root_ == kInvalidPageId) {
    return size_ == 0 ? Status::OK()
                      : Status::Corruption("empty tree, nonzero size");
  }
  Coord ymax = kCoordMin;
  uint64_t count = 0;
  CCIDX_RETURN_IF_ERROR(CheckSubtree(root_, &ymax, &count));
  // Tombstoned points remain physically stored until the next purge.
  if (count != size_ + tombstones_.size()) {
    return Status::Corruption("total count mismatch");
  }
  return Status::OK();
}

}  // namespace ccidx
