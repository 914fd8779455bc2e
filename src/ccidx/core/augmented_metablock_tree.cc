#include "ccidx/core/augmented_metablock_tree.h"

#include <algorithm>

#include "ccidx/dynamic/purge_rebuild.h"
#include "ccidx/io/wal.h"

namespace ccidx {

namespace {

// Routes a coordinate to a child slot: the last child whose subtree starts
// at or left of x, or child 0 when x precedes every child.
template <typename Entries>
size_t RouteChild(const Entries& children, Coord x) {
  size_t idx = 0;
  for (size_t i = 1; i < children.size(); ++i) {
    if (children[i].sub_xlo <= x) idx = i;
  }
  return idx;
}

}  // namespace

AugmentedMetablockTree::AugmentedMetablockTree(Pager* pager)
    : pager_(pager), root_(kInvalidPageId), size_(0) {
  PageIo io(pager_);
  branching_ = io.CapacityFor(sizeof(Point));
  // The control record must fit one page: B >= 8 suffices.
  CCIDX_CHECK(branching_ >= 8);
  CCIDX_CHECK(sizeof(Control) <= pager_->page_size());
}

Status AugmentedMetablockTree::WriteControl(Pager* pager, PageId id,
                                            const Control& c) {
  auto ref = pager->PinMut(id, Pager::MutMode::kOverwrite);
  CCIDX_RETURN_IF_ERROR(ref.status());
  PageWriter w(ref->data());
  w.Put(c);
  return ref->Release();
}

Status AugmentedMetablockTree::LoadControl(PageId id, Control* c) const {
  auto ref = pager_->Pin(id);
  CCIDX_RETURN_IF_ERROR(ref.status());
  PageReader r(ref->data());
  *c = r.Get<Control>();
  return Status::OK();
}

Status AugmentedMetablockTree::ReadUpdatePoints(
    const Control& ctrl, std::vector<Point>* out) const {
  if (ctrl.update_count == 0) return Status::OK();
  PageIo io(pager_);
  auto next = io.ReadRecords<Point>(ctrl.update_page, out);
  return next.status();
}

Status AugmentedMetablockTree::RebuildOrganizations(
    Pager* pager, Control* ctrl, std::vector<Point> own, bool free_old) {
  PageIo io(pager);
  if (free_old) {
    CCIDX_RETURN_IF_ERROR(FreeVerticalBlocking(pager, ctrl->vindex_head));
    if (ctrl->horiz_head != kInvalidPageId) {
      CCIDX_RETURN_IF_ERROR(io.FreeChain(ctrl->horiz_head));
    }
    if (ctrl->corner_header != kInvalidPageId) {
      CornerStructure corner =
          CornerStructure::Open(pager, ctrl->corner_header);
      CCIDX_RETURN_IF_ERROR(corner.Free());
      ctrl->corner_header = kInvalidPageId;
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
  if (!own.empty() && ctrl->bbox_ymin <= ctrl->bbox_xmax) {
    auto corner = CornerStructure::Build(pager, std::move(own));
    CCIDX_RETURN_IF_ERROR(corner.status());
    ctrl->corner_header = corner->header();
  }
  ctrl->node_ymax = std::max({ctrl->bbox_ymax, ctrl->update_ymax,
                              ctrl->desc_ymax});
  return Status::OK();
}

Result<AugmentedMetablockTree::BuiltNode>
AugmentedMetablockTree::BuildNode(Pager* pager, PointGroup group,
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
    auto part = std::move(group).PartitionTopY(b2, branching);
    CCIDX_RETURN_IF_ERROR(part.status());
    own = std::move(part->top);

    std::vector<ChildEntry> child_entries;
    std::vector<Point> ts;  // top B^2 of the left siblings' own points
    for (PointGroup& sub : part->children) {
      auto child = BuildNode(pager, std::move(sub), branching);
      CCIDX_RETURN_IF_ERROR(child.status());
      if (!ts.empty()) {
        auto head = WriteDescYChain(pager, ts);
        CCIDX_RETURN_IF_ERROR(head.status());
        child->ctrl.ts_head = *head;
      }
      CCIDX_RETURN_IF_ERROR(
          WriteControl(pager, child->control_page, child->ctrl));
      child_entries.push_back({child->ctrl.sub_xlo, child->ctrl.node_ymax,
                               child->control_page});
      ctrl.desc_ymax = std::max(ctrl.desc_ymax, child->ctrl.node_ymax);
      FoldTopK(&ts, child->own_points, b2);
    }
    auto ids = io.WriteChain<ChildEntry>(child_entries);
    CCIDX_RETURN_IF_ERROR(ids.status());
    ctrl.children_head = ids->empty() ? kInvalidPageId : ids->front();
    ctrl.num_children = static_cast<uint32_t>(child_entries.size());
    // Non-leaves carry a TD buffer page (initially empty).
    ctrl.td_update_page = pager->Allocate();
    CCIDX_RETURN_IF_ERROR(io.WriteRecords<Point>(ctrl.td_update_page, {}));
  }

  // Organize own points. This is a fresh build: nothing to free.
  node.own_points = own;
  CCIDX_RETURN_IF_ERROR(
      RebuildOrganizations(pager, &ctrl, std::move(own), false));
  return node;
}

Result<AugmentedMetablockTree> AugmentedMetablockTree::Build(
    Pager* pager, PointGroup points) {
  PageIo io(pager);
  const uint32_t branching = io.CapacityFor(sizeof(Point));
  if (branching < 8 || sizeof(Control) > pager->page_size()) {
    return Status::InvalidArgument(
        "page size too small for augmented metablock tree (need B >= 8)");
  }
  if (points.empty()) {
    return AugmentedMetablockTree(pager, kInvalidPageId, 0, branching);
  }
  TxnScope txn(pager);
  uint64_t n = points.size();
  auto root = BuildNode(pager, std::move(points), branching);
  CCIDX_RETURN_IF_ERROR(root.status());
  CCIDX_RETURN_IF_ERROR(WriteControl(pager, root->control_page, root->ctrl));
  CCIDX_RETURN_IF_ERROR(txn.Commit());
  return AugmentedMetablockTree(pager, root->control_page, n, branching);
}

Result<AugmentedMetablockTree> AugmentedMetablockTree::Build(
    Pager* pager, RecordStream<Point>* points) {
  TxnScope txn(pager);
  auto group = SortPointStream(pager, points, /*require_above_diagonal=*/true);
  CCIDX_RETURN_IF_ERROR(group.status());
  auto tree = Build(pager, std::move(*group));
  CCIDX_RETURN_IF_ERROR(tree.status());
  CCIDX_RETURN_IF_ERROR(txn.Commit());
  return tree;
}

Result<AugmentedMetablockTree> AugmentedMetablockTree::Build(
    Pager* pager, std::span<const Point> points) {
  SpanStream<Point> stream(points);
  return Build(pager, &stream);
}

Result<AugmentedMetablockTree> AugmentedMetablockTree::Build(
    Pager* pager, std::vector<Point>&& points) {
  return Build(pager, std::span<const Point>(points));
}

// ---------------------------------------------------------------------------
// Insertion machinery (Section 3.2)
// ---------------------------------------------------------------------------

Status AugmentedMetablockTree::LevelOne(PageId id, Control* ctrl) {
  (void)id;
  PageIo io(pager_);
  std::vector<Point> own;
  CCIDX_RETURN_IF_ERROR(io.ReadChain<Point>(ctrl->horiz_head, &own));
  CCIDX_RETURN_IF_ERROR(ReadUpdatePoints(*ctrl, &own));
  ctrl->update_count = 0;
  ctrl->update_ymax = kCoordMin;
  CCIDX_RETURN_IF_ERROR(io.WriteRecords<Point>(ctrl->update_page, {}));
  return RebuildOrganizations(pager_, ctrl, std::move(own), true);
}

Status AugmentedMetablockTree::AddToTd(Control* ctrl,
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
    // Rebuild the TD corner structure over everything (old TD + buffer).
    std::vector<Point> all;
    if (ctrl->td_header != kInvalidPageId) {
      CornerStructure old = CornerStructure::Open(pager_, ctrl->td_header);
      CCIDX_RETURN_IF_ERROR(old.CollectPoints(&all));
      CCIDX_RETURN_IF_ERROR(old.Free());
      ctrl->td_header = kInvalidPageId;
    }
    all.insert(all.end(), buffer.begin(), buffer.end());
    ctrl->td_count = static_cast<uint32_t>(all.size());
    auto corner = CornerStructure::Build(pager_, std::move(all));
    CCIDX_RETURN_IF_ERROR(corner.status());
    ctrl->td_header = corner->header();
    buffer.clear();
  }
  ctrl->td_update_count = static_cast<uint32_t>(buffer.size());
  return io.WriteRecords<Point>(ctrl->td_update_page, buffer);
}

Status AugmentedMetablockTree::ClearTd(Control* ctrl) {
  PageIo io(pager_);
  if (ctrl->td_header != kInvalidPageId) {
    CornerStructure old = CornerStructure::Open(pager_, ctrl->td_header);
    CCIDX_RETURN_IF_ERROR(old.Free());
    ctrl->td_header = kInvalidPageId;
  }
  ctrl->td_count = 0;
  if (ctrl->td_update_count > 0) {
    CCIDX_RETURN_IF_ERROR(io.WriteRecords<Point>(ctrl->td_update_page, {}));
    ctrl->td_update_count = 0;
  }
  return Status::OK();
}

Status AugmentedMetablockTree::TsReorganizeChildren(Control* ctrl) {
  const uint32_t b2 = metablock_capacity();
  PageIo io(pager_);
  std::vector<ChildEntry> children;
  CCIDX_RETURN_IF_ERROR(
      io.ReadChain<ChildEntry>(ctrl->children_head, &children));
  std::vector<Point> ts;  // top B^2 of the left siblings' stored points
  for (size_t i = 0; i < children.size(); ++i) {
    Control child;
    CCIDX_RETURN_IF_ERROR(LoadControl(children[i].control, &child));
    if (child.ts_head != kInvalidPageId) {
      CCIDX_RETURN_IF_ERROR(io.FreeChain(child.ts_head));
      child.ts_head = kInvalidPageId;
    }
    if (!ts.empty()) {
      auto head = WriteDescYChain(pager_, ts);
      CCIDX_RETURN_IF_ERROR(head.status());
      child.ts_head = *head;
    }
    CCIDX_RETURN_IF_ERROR(WriteControl(pager_, children[i].control, child));
    // TS covers points *stored in* the sibling: organized + buffered.
    std::vector<Point> stored;
    CCIDX_RETURN_IF_ERROR(io.ReadChain<Point>(child.horiz_head, &stored));
    CCIDX_RETURN_IF_ERROR(ReadUpdatePoints(child, &stored));
    FoldTopK(&ts, stored, b2);
  }
  return ClearTd(ctrl);
}

Status AugmentedMetablockTree::LevelTwoInternal(PageId id, Control* ctrl,
                                                AddResult* result) {
  const uint32_t b2 = metablock_capacity();
  PageIo io(pager_);

  // Keep the top B^2 own points; push the bottom down into the children.
  std::vector<Point> own;
  CCIDX_RETURN_IF_ERROR(io.ReadChain<Point>(ctrl->horiz_head, &own));
  CCIDX_CHECK(own.size() >= 2 * b2);
  CCIDX_CHECK(std::is_sorted(own.begin(), own.end(), PointDescYOrder()));
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

  // Partition the pushed points by child x-interval.
  std::vector<std::vector<Point>> batches(children.size());
  for (const Point& p : push) {
    batches[RouteChild(children, p.x)].push_back(p);
  }

  bool structural = false;
  // New siblings created by leaf splits, to splice in after their origin.
  std::vector<std::pair<size_t, ChildEntry>> new_entries;
  for (size_t i = 0; i < children.size(); ++i) {
    if (batches[i].empty()) continue;
    auto r = AddPoints(children[i].control, std::move(batches[i]));
    CCIDX_RETURN_IF_ERROR(r.status());
    children[i].control = r->id;
    children[i].sub_xlo = r->sub_xlo;
    children[i].node_ymax = r->node_ymax;
    for (const SplitEntry& s : r->splits) {
      new_entries.push_back({i, {s.xlo, s.node_ymax, s.id}});
      structural = true;
    }
    structural |= r->structural;
  }
  // Record pushes in TD(M) so queries see them regardless of TS staleness.
  CCIDX_RETURN_IF_ERROR(AddToTd(ctrl, push));

  // Splice split siblings (iterate in reverse so indices stay valid).
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

  result->structural = true;  // this node performed a level II
  if (ctrl->num_children >= 2 * branching_) {
    // Branching overflow: the caller rebuilds this subtree wholesale, which
    // refreshes every TS below; skip the redundant reorganization.
    return Status::OK();
  }
  if (structural || ctrl->td_count >= b2) {
    CCIDX_RETURN_IF_ERROR(TsReorganizeChildren(ctrl));
  }
  (void)id;
  return Status::OK();
}

Result<AugmentedMetablockTree::AddResult> AugmentedMetablockTree::AddPoints(
    PageId id, std::vector<Point> pts) {
  Control ctrl;
  CCIDX_RETURN_IF_ERROR(LoadControl(id, &ctrl));
  PageIo io(pager_);
  const uint32_t b2 = metablock_capacity();

  AddResult res;
  res.id = id;

  if (ctrl.num_children > 0) {
    // --- Internal node ---
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
        CCIDX_RETURN_IF_ERROR(
            io.WriteRecords<Point>(ctrl.update_page, upd));
        CCIDX_RETURN_IF_ERROR(LevelOne(id, &ctrl));
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
    return res;
  }

  // --- Leaf node: may split repeatedly while absorbing a large batch ---
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
      CCIDX_RETURN_IF_ERROR(LevelOne(part->id, &part->ctrl));
      part->upd.clear();
      if (part->ctrl.num_points >= 2 * b2) {
        // Split this leaf into two B^2-point leaves by x.
        std::vector<Point> own;
        CCIDX_RETURN_IF_ERROR(
            io.ReadChain<Point>(part->ctrl.horiz_head, &own));
        std::sort(own.begin(), own.end(), PointXOrder());
        size_t half = own.size() / 2;
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
  for (size_t i = 1; i < parts.size(); ++i) {
    res.splits.push_back(
        {parts[i].id, parts[i].ctrl.sub_xlo, parts[i].ctrl.node_ymax});
    res.structural = true;
  }
  return res;
}

Result<PageId> AugmentedMetablockTree::RebuildSubtree(PageId id) {
  Control ctrl;
  CCIDX_RETURN_IF_ERROR(LoadControl(id, &ctrl));
  PageIo io(pager_);
  // Preserve this node's own TS chain (owned logically by the parent).
  std::vector<Point> ts_points;
  if (ctrl.ts_head != kInvalidPageId) {
    CCIDX_RETURN_IF_ERROR(io.ReadChain<Point>(ctrl.ts_head, &ts_points));
  }
  std::vector<Point> all;
  CCIDX_RETURN_IF_ERROR(CollectSubtree(id, &all));
  CCIDX_RETURN_IF_ERROR(DestroySubtree(id, /*keep_ts=*/false));
  CCIDX_CHECK(!all.empty());
  std::sort(all.begin(), all.end(), PointXOrder());
  auto built = BuildNode(pager_, PointGroup::FromVector(std::move(all)),
                         branching_);
  CCIDX_RETURN_IF_ERROR(built.status());
  if (!ts_points.empty()) {
    auto head = WriteDescYChain(pager_, std::move(ts_points));
    CCIDX_RETURN_IF_ERROR(head.status());
    built->ctrl.ts_head = *head;
  }
  CCIDX_RETURN_IF_ERROR(
      WriteControl(pager_, built->control_page, built->ctrl));
  return built->control_page;
}

Status AugmentedMetablockTree::Insert(const Point& p) {
  if (p.y < p.x) {
    return Status::InvalidArgument("points must satisfy y >= x");
  }
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
    // The root was a leaf and split: rebuild the whole (small) tree so the
    // root becomes a proper internal metablock.
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

Status AugmentedMetablockTree::Delete(const Point& p, bool* found) {
  std::lock_guard<std::mutex> write_lock(*write_mu_);
  *found = false;
  if (root_ == kInvalidPageId || p.y < p.x) return Status::OK();
  if (tombstones_.Contains(p)) return Status::OK();  // already dead
  // Membership probe: the diagonal query anchored at the point's own y
  // contains it; stop at the first exact match. Read-only — a device
  // failure here leaves the tree untouched.
  bool exists = false;
  ExactMatchSink<Point> finder(p, &exists);
  CCIDX_RETURN_IF_ERROR(QueryRaw(DiagonalQuery{p.y}, &finder));
  if (!exists) return Status::OK();
  *found = true;
  return DeleteKnownLocked(p);
}

Status AugmentedMetablockTree::DeleteKnown(const Point& p) {
  std::lock_guard<std::mutex> write_lock(*write_mu_);
  return DeleteKnownLocked(p);
}

Status AugmentedMetablockTree::DeleteKnownLocked(const Point& p) {
  if (!tombstones_.Add(p)) return Status::OK();  // already dead
  sched_.NoteDelete();
  if (size_ > 0) size_--;
  if (sched_.ShouldPurge(size_)) return GlobalPurgeRebuild();
  return Status::OK();
}

Status AugmentedMetablockTree::VisitSubtreePages(
    PageId id, std::vector<PageId>* out) const {
  Control ctrl;
  CCIDX_RETURN_IF_ERROR(LoadControl(id, &ctrl));
  PageIo io(pager_);
  CCIDX_RETURN_IF_ERROR(VisitVerticalBlocking(pager_, ctrl.vindex_head, out));
  if (ctrl.horiz_head != kInvalidPageId) {
    CCIDX_RETURN_IF_ERROR(io.VisitChain(ctrl.horiz_head, out));
  }
  if (ctrl.ts_head != kInvalidPageId) {
    CCIDX_RETURN_IF_ERROR(io.VisitChain(ctrl.ts_head, out));
  }
  if (ctrl.corner_header != kInvalidPageId) {
    CornerStructure corner = CornerStructure::Open(pager_, ctrl.corner_header);
    CCIDX_RETURN_IF_ERROR(corner.VisitPages(out));
  }
  out->push_back(ctrl.update_page);
  if (ctrl.td_update_page != kInvalidPageId) {
    out->push_back(ctrl.td_update_page);
  }
  if (ctrl.td_header != kInvalidPageId) {
    CornerStructure td = CornerStructure::Open(pager_, ctrl.td_header);
    CCIDX_RETURN_IF_ERROR(td.VisitPages(out));
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

Status AugmentedMetablockTree::GlobalPurgeRebuild() {
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

Status AugmentedMetablockTree::ReportOwnPoints(const Control& ctrl, Coord a,
                                               SinkEmitter<Point>& em) const {
  if (em.stopped()) return Status::OK();
  PageIo io(pager_);
  // Buffered inserts are examined alongside every organization (Lemma 3.5).
  if (ctrl.update_count > 0) {
    std::vector<Point> upd;
    CCIDX_RETURN_IF_ERROR(ReadUpdatePoints(ctrl, &upd));
    simd::EmitFiltered2Sided(em, upd, a, a);
    if (em.stopped()) return Status::OK();
  }
  if (ctrl.num_points == 0) return Status::OK();
  if (ctrl.bbox_xmin > a || ctrl.bbox_ymax < a) return Status::OK();
  const bool x_all = ctrl.bbox_xmax <= a;
  const bool y_all = ctrl.bbox_ymin >= a;
  if (x_all && y_all) {
    return EmitChain<Point>(pager_, ctrl.horiz_head, em);
  }
  if (y_all) {
    std::vector<VerticalBlock> index;
    CCIDX_RETURN_IF_ERROR(ReadVerticalIndex(pager_, ctrl.vindex_head, &index));
    return ScanVerticalBlocks(pager_, index, kCoordMin, a, em);
  }
  if (x_all) {
    auto crossed = ScanDescYChain(pager_, ctrl.horiz_head, a, em);
    return crossed.status();
  }
  CCIDX_CHECK(ctrl.corner_header != kInvalidPageId);
  CornerStructure corner = CornerStructure::Open(pager_, ctrl.corner_header);
  return corner.Query(a, em);
}

Status AugmentedMetablockTree::ReportSubtree(PageId id, Coord a,
                                             SinkEmitter<Point>& em) const {
  if (em.stopped()) return Status::OK();
  Control ctrl;
  CCIDX_RETURN_IF_ERROR(LoadControl(id, &ctrl));
  // Subtree x-interval is at or left of a (caller invariant): every point
  // with y >= a is output.
  auto crossed = ScanDescYChain(pager_, ctrl.horiz_head, a, em);
  CCIDX_RETURN_IF_ERROR(crossed.status());
  if (ctrl.update_count > 0 && !em.stopped()) {
    std::vector<Point> upd;
    CCIDX_RETURN_IF_ERROR(ReadUpdatePoints(ctrl, &upd));
    simd::EmitFilteredYAtLeast(em, upd, a);
  }
  // Descend iff some strict descendant can qualify (watermark rule; see
  // header comment — push-downs may break the static heap order, so the
  // static "stop when crossed" rule alone would be incorrect here).
  if (ctrl.num_children == 0 || ctrl.desc_ymax < a || em.stopped()) {
    return Status::OK();
  }
  PageIo io(pager_);
  std::vector<ChildEntry> children;
  CCIDX_RETURN_IF_ERROR(io.ReadChain<ChildEntry>(ctrl.children_head,
                                                 &children));
  for (const ChildEntry& c : children) {
    if (em.stopped()) break;
    if (c.node_ymax >= a) {
      CCIDX_RETURN_IF_ERROR(ReportSubtree(c.control, a, em));
    }
  }
  return Status::OK();
}

Status AugmentedMetablockTree::Query(const DiagonalQuery& q,
                                     ResultSink<Point>* sink) const {
  if (tombstones_.empty()) return QueryRaw(q, sink);
  // Weak deletes outstanding: filter dead points out of every reporting
  // path (a hash probe per emitted record, zero extra I/O). kStop from
  // the consumer still latches through the filter.
  PointLiveFilterSink filter(&tombstones_, sink);
  return QueryRaw(q, &filter);
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
          if (ctrl.td_header != kInvalidPageId) {
            CornerStructure td =
                CornerStructure::Open(pager_, ctrl.td_header);
            CCIDX_RETURN_IF_ERROR(td.Query(a, &td_hits));
          }
          if (ctrl.td_update_count > 0) {
            std::vector<Point> buf;
            auto next = io.ReadRecords<Point>(ctrl.td_update_page, &buf);
            CCIDX_RETURN_IF_ERROR(next.status());
            for (const Point& p : buf) {
              if (p.x <= a && p.y >= a) td_hits.push_back(p);
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

Status AugmentedMetablockTree::Query(const DiagonalQuery& q,
                                     std::vector<Point>* out) const {
  VectorSink<Point> sink(out);
  return Query(q, &sink);
}

// ---------------------------------------------------------------------------
// Maintenance
// ---------------------------------------------------------------------------

Status AugmentedMetablockTree::CollectSubtree(PageId id,
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

Status AugmentedMetablockTree::DestroySubtree(PageId id, bool keep_ts) {
  Control ctrl;
  CCIDX_RETURN_IF_ERROR(LoadControl(id, &ctrl));
  PageIo io(pager_);
  CCIDX_RETURN_IF_ERROR(FreeVerticalBlocking(pager_, ctrl.vindex_head));
  if (ctrl.horiz_head != kInvalidPageId) {
    CCIDX_RETURN_IF_ERROR(io.FreeChain(ctrl.horiz_head));
  }
  if (!keep_ts && ctrl.ts_head != kInvalidPageId) {
    CCIDX_RETURN_IF_ERROR(io.FreeChain(ctrl.ts_head));
  }
  if (ctrl.corner_header != kInvalidPageId) {
    CornerStructure corner = CornerStructure::Open(pager_, ctrl.corner_header);
    CCIDX_RETURN_IF_ERROR(corner.Free());
  }
  CCIDX_RETURN_IF_ERROR(pager_->Free(ctrl.update_page));
  if (ctrl.td_update_page != kInvalidPageId) {
    CCIDX_RETURN_IF_ERROR(pager_->Free(ctrl.td_update_page));
  }
  if (ctrl.td_header != kInvalidPageId) {
    CornerStructure td = CornerStructure::Open(pager_, ctrl.td_header);
    CCIDX_RETURN_IF_ERROR(td.Free());
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

Status AugmentedMetablockTree::Destroy() {
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

Status AugmentedMetablockTree::CheckSubtree(PageId id, bool is_root,
                                            Coord* node_ymax_out,
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
    return Status::Corruption("horizontal chain not descending by y");
  }
  if (ctrl.num_points >= 2 * b2) {
    return Status::Corruption("metablock at or above 2B^2");
  }
  if (ctrl.num_children > 0 && ctrl.num_points < b2) {
    return Status::Corruption("internal metablock below B^2");
  }
  if (ctrl.num_children >= 2 * branching_) {
    return Status::Corruption("branching factor at or above 2B");
  }
  std::vector<Point> upd;
  CCIDX_RETURN_IF_ERROR(ReadUpdatePoints(ctrl, &upd));
  if (upd.size() != ctrl.update_count || upd.size() >= branching_) {
    return Status::Corruption("update block inconsistent");
  }
  Coord actual_upd_ymax = kCoordMin;
  for (const Point& p : upd) actual_upd_ymax = std::max(actual_upd_ymax, p.y);
  if (ctrl.update_ymax < actual_upd_ymax) {
    return Status::Corruption("update_ymax below actual");
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
  for (const Point& p : own) {
    if (p.x < ctrl.sub_xlo || p.x > ctrl.sub_xhi) {
      return Status::Corruption("own point outside subtree x-interval");
    }
  }
  for (const Point& p : upd) {
    if (p.x < ctrl.sub_xlo || p.x > ctrl.sub_xhi) {
      return Status::Corruption("update point outside subtree x-interval");
    }
  }
  // Vertical blocking consistency.
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

  uint64_t count = own.size() + upd.size();
  Coord desc_actual = kCoordMin;
  if (ctrl.num_children > 0) {
    if (ctrl.td_update_page == kInvalidPageId) {
      return Status::Corruption("internal node lacks TD buffer");
    }
    std::vector<ChildEntry> children;
    CCIDX_RETURN_IF_ERROR(io.ReadChain<ChildEntry>(ctrl.children_head,
                                                   &children));
    if (children.size() != ctrl.num_children) {
      return Status::Corruption("children count mismatch");
    }
    // TS(child i) is the top B^2 of what its left siblings stored at the
    // last TS reorganization: their organized and buffered points, less
    // the pushes recorded in TD(this) since then.
    std::vector<Point> td;
    if (ctrl.td_header != kInvalidPageId) {
      CornerStructure tds = CornerStructure::Open(pager_, ctrl.td_header);
      CCIDX_RETURN_IF_ERROR(tds.CollectPoints(&td));
    }
    if (ctrl.td_update_count > 0) {
      CCIDX_RETURN_IF_ERROR(
          io.ReadRecords<Point>(ctrl.td_update_page, &td).status());
    }
    std::vector<std::vector<Point>> pushed(children.size());
    for (const Point& p : td) pushed[RouteChild(children, p.x)].push_back(p);
    std::vector<PageId> ts_heads;
    std::vector<std::vector<Point>> stored(children.size());
    for (size_t i = 0; i < children.size(); ++i) {
      if (i > 0 && children[i].sub_xlo < children[i - 1].sub_xlo) {
        return Status::Corruption("children not ordered by x");
      }
      Control cc;
      CCIDX_RETURN_IF_ERROR(LoadControl(children[i].control, &cc));
      ts_heads.push_back(cc.ts_head);
      CCIDX_RETURN_IF_ERROR(io.ReadChain<Point>(cc.horiz_head, &stored[i]));
      CCIDX_RETURN_IF_ERROR(ReadUpdatePoints(cc, &stored[i]));
      if (!ErasePoints(&stored[i], std::move(pushed[i]))) {
        return Status::Corruption("TD point not stored in its child");
      }
      Coord child_ymax = kCoordMin;
      uint64_t child_count = 0;
      CCIDX_RETURN_IF_ERROR(
          CheckSubtree(children[i].control, false, &child_ymax, &child_count));
      if (children[i].node_ymax < child_ymax) {
        return Status::Corruption("stale child node_ymax in parent entry");
      }
      desc_actual = std::max(desc_actual, child_ymax);
      count += child_count;
    }
    if (ctrl.desc_ymax < desc_actual) {
      return Status::Corruption("desc_ymax watermark below actual");
    }
    CCIDX_RETURN_IF_ERROR(CheckTsChains(pager_, ts_heads, stored, b2));
  }
  Coord actual_node_ymax =
      std::max({own.empty() ? kCoordMin : ctrl.bbox_ymax, actual_upd_ymax,
                desc_actual});
  if (ctrl.node_ymax < actual_node_ymax) {
    return Status::Corruption("node_ymax watermark below actual");
  }
  (void)is_root;
  *node_ymax_out = actual_node_ymax;
  *count_out = count;
  return Status::OK();
}

Status AugmentedMetablockTree::CheckInvariants() const {
  if (root_ == kInvalidPageId) {
    return size_ == 0 ? Status::OK()
                      : Status::Corruption("empty tree with nonzero size");
  }
  Coord ymax = kCoordMin;
  uint64_t count = 0;
  CCIDX_RETURN_IF_ERROR(CheckSubtree(root_, true, &ymax, &count));
  // Tombstoned points remain physically stored until the next purge.
  if (count != size_ + tombstones_.size()) {
    return Status::Corruption("total point count mismatch");
  }
  return Status::OK();
}

}  // namespace ccidx
