#include "ccidx/core/augmented_tree.h"

#include <algorithm>

#include "ccidx/core/augmented_metablock_tree.h"
#include "ccidx/core/augmented_three_sided_tree.h"
#include "ccidx/dynamic/purge_rebuild.h"
#include "ccidx/io/wal.h"

namespace ccidx {

template <class Tree, class Layout>
AugmentedTree<Tree, Layout>::AugmentedTree(Pager* pager)
    : pager_(pager), root_(kInvalidPageId), size_(0) {
  PageIo io(pager_);
  branching_ = io.CapacityFor(sizeof(Point));
  // The control record must fit one page: B >= 8 suffices.
  CCIDX_CHECK(branching_ >= 8);
  CCIDX_CHECK(sizeof(Control) <= pager_->page_size());
}

template <class Tree, class Layout>
Status AugmentedTree<Tree, Layout>::WriteControl(Pager* pager, PageId id,
                                                 const Control& c) {
  auto ref = pager->PinMut(id, Pager::MutMode::kOverwrite);
  CCIDX_RETURN_IF_ERROR(ref.status());
  PageWriter w(ref->data());
  w.Put(c);
  return ref->Release();
}

template <class Tree, class Layout>
Status AugmentedTree<Tree, Layout>::LoadControl(PageId id, Control* c) const {
  auto ref = pager_->Pin(id);
  CCIDX_RETURN_IF_ERROR(ref.status());
  PageReader r(ref->data());
  *c = r.Get<Control>();
  return Status::OK();
}

template <class Tree, class Layout>
Status AugmentedTree<Tree, Layout>::ReadUpdatePoints(
    const Control& ctrl, std::vector<Point>* out) const {
  if (ctrl.update_count == 0) return Status::OK();
  PageIo io(pager_);
  return io.ReadRecords<Point>(ctrl.update_page, out).status();
}

template <class Tree, class Layout>
Status AugmentedTree<Tree, Layout>::ReadStoredPoints(
    const Control& ctrl, std::vector<Point>* out) const {
  PageIo io(pager_);
  CCIDX_RETURN_IF_ERROR(io.ReadChain<Point>(ctrl.horiz_head, out));
  return ReadUpdatePoints(ctrl, out);
}

template <class Tree, class Layout>
Status AugmentedTree<Tree, Layout>::CollectTd(const Control& ctrl,
                                              std::vector<Point>* out) const {
  if (ctrl.td_root != kInvalidPageId) {
    CCIDX_RETURN_IF_ERROR(Index::Open(pager_, ctrl.td_root).CollectPoints(out));
  }
  if (ctrl.td_update_count == 0) return Status::OK();
  PageIo io(pager_);
  return io.ReadRecords<Point>(ctrl.td_update_page, out).status();
}

template <class Tree, class Layout>
Status AugmentedTree<Tree, Layout>::RebuildOrganizations(
    Pager* pager, Control* ctrl, std::vector<Point> own, bool free_old) {
  PageIo io(pager);
  uint64_t& own_index = ctrl->*Tree::kOwnIndex;
  if (free_old) {
    CCIDX_RETURN_IF_ERROR(FreeVerticalBlocking(pager, ctrl->vindex_head));
    if (ctrl->horiz_head != kInvalidPageId) {
      CCIDX_RETURN_IF_ERROR(io.FreeChain(ctrl->horiz_head));
    }
    if (own_index != kInvalidPageId) {
      CCIDX_RETURN_IF_ERROR(Index::Open(pager, own_index).Free());
      own_index = kInvalidPageId;
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
  auto index = Tree::BuildOwnIndex(pager, *ctrl, own, *vb);
  CCIDX_RETURN_IF_ERROR(index.status());
  own_index = *index;
  ctrl->node_ymax = std::max({ctrl->bbox_ymax, ctrl->update_ymax,
                              ctrl->desc_ymax});
  return Status::OK();
}

template <class Tree, class Layout>
Result<typename AugmentedTree<Tree, Layout>::BuiltNode>
AugmentedTree<Tree, Layout>::BuildNode(Pager* pager, PointGroup group,
                                       uint32_t branching) {
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
  if (group.size() <= branching * branching) {
    auto all = std::move(group).TakeAll();
    CCIDX_RETURN_IF_ERROR(all.status());
    own = std::move(*all);
  } else {
    // The family builds the children and their TS chains; the top B^2
    // points stay here.
    std::vector<ChildEntry> children;
    auto top = Tree::BuildChildren(pager, std::move(group), branching, &ctrl,
                                   &children);
    CCIDX_RETURN_IF_ERROR(top.status());
    own = std::move(*top);
    for (const ChildEntry& c : children) {
      ctrl.desc_ymax = std::max(ctrl.desc_ymax, c.node_ymax);
    }
    auto ids = io.WriteChain<ChildEntry>(children);
    CCIDX_RETURN_IF_ERROR(ids.status());
    ctrl.children_head = ids->empty() ? kInvalidPageId : ids->front();
    ctrl.num_children = static_cast<uint32_t>(children.size());
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

template <class Tree, class Layout>
Result<typename AugmentedTree<Tree, Layout>::BuiltNode>
AugmentedTree<Tree, Layout>::BuildSorted(std::vector<Point> points) {
  CCIDX_CHECK(!points.empty());
  std::sort(points.begin(), points.end(), PointXOrder());
  return BuildNode(pager_, PointGroup::FromVector(std::move(points)),
                   branching_);
}

template <class Tree, class Layout>
Result<Tree> AugmentedTree<Tree, Layout>::Build(Pager* pager,
                                                PointGroup points) {
  PageIo io(pager);
  const uint32_t branching = io.CapacityFor(sizeof(Point));
  if (branching < 8 || sizeof(Control) > pager->page_size()) {
    return Status::InvalidArgument(
        "page size too small for an augmented tree (need B >= 8)");
  }
  if (points.empty()) return Tree(pager, kInvalidPageId, 0, branching);
  TxnScope txn(pager);
  uint64_t n = points.size();
  auto root = BuildNode(pager, std::move(points), branching);
  CCIDX_RETURN_IF_ERROR(root.status());
  CCIDX_RETURN_IF_ERROR(WriteControl(pager, root->control_page, root->ctrl));
  CCIDX_RETURN_IF_ERROR(txn.Commit());
  return Tree(pager, root->control_page, n, branching);
}

template <class Tree, class Layout>
Result<Tree> AugmentedTree<Tree, Layout>::Build(Pager* pager,
                                                RecordStream<Point>* points) {
  TxnScope txn(pager);
  auto group = SortPointStream(pager, points, Tree::kAboveDiagonal);
  CCIDX_RETURN_IF_ERROR(group.status());
  auto built = Build(pager, std::move(*group));
  CCIDX_RETURN_IF_ERROR(built.status());
  CCIDX_RETURN_IF_ERROR(txn.Commit());
  return built;
}

template <class Tree, class Layout>
Result<Tree> AugmentedTree<Tree, Layout>::Build(
    Pager* pager, std::span<const Point> points) {
  SpanStream<Point> stream(points);
  return Build(pager, &stream);
}

template <class Tree, class Layout>
Result<Tree> AugmentedTree<Tree, Layout>::Build(Pager* pager,
                                                std::vector<Point>&& points) {
  return Build(pager, std::span<const Point>(points));
}

// ---------------------------------------------------------------------------
// Insertion machinery (Section 3.2)
// ---------------------------------------------------------------------------

template <class Tree, class Layout>
Status AugmentedTree<Tree, Layout>::LevelOne(Control* ctrl) {
  PageIo io(pager_);
  std::vector<Point> own;
  CCIDX_RETURN_IF_ERROR(ReadStoredPoints(*ctrl, &own));
  ctrl->update_count = 0;
  ctrl->update_ymax = kCoordMin;
  CCIDX_RETURN_IF_ERROR(io.WriteRecords<Point>(ctrl->update_page, {}));
  return RebuildOrganizations(pager_, ctrl, std::move(own), true);
}

template <class Tree, class Layout>
Status AugmentedTree<Tree, Layout>::AddToTd(Control* ctrl,
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
    // Rebuild the TD Index over everything (old TD + buffer).
    std::vector<Point> all;
    if (ctrl->td_root != kInvalidPageId) {
      Index old = Index::Open(pager_, ctrl->td_root);
      CCIDX_RETURN_IF_ERROR(old.CollectPoints(&all));
      CCIDX_RETURN_IF_ERROR(old.Free());
      ctrl->td_root = kInvalidPageId;
    }
    all.insert(all.end(), buffer.begin(), buffer.end());
    ctrl->td_count = static_cast<uint32_t>(all.size());
    auto td = Tree::BuildTd(pager_, std::move(all));
    CCIDX_RETURN_IF_ERROR(td.status());
    ctrl->td_root = *td;
    buffer.clear();
  }
  ctrl->td_update_count = static_cast<uint32_t>(buffer.size());
  return io.WriteRecords<Point>(ctrl->td_update_page, buffer);
}

template <class Tree, class Layout>
Status AugmentedTree<Tree, Layout>::ClearTd(Control* ctrl) {
  PageIo io(pager_);
  if (ctrl->td_root != kInvalidPageId) {
    CCIDX_RETURN_IF_ERROR(Index::Open(pager_, ctrl->td_root).Free());
    ctrl->td_root = kInvalidPageId;
  }
  ctrl->td_count = 0;
  if (ctrl->td_update_count > 0) {
    CCIDX_RETURN_IF_ERROR(io.WriteRecords<Point>(ctrl->td_update_page, {}));
    ctrl->td_update_count = 0;
  }
  return Status::OK();
}

template <class Tree, class Layout>
Status AugmentedTree<Tree, Layout>::ReplaceTsChain(
    uint64_t* head, const std::vector<Point>& ts) {
  if (*head != kInvalidPageId) {
    PageIo io(pager_);
    CCIDX_RETURN_IF_ERROR(io.FreeChain(*head));
    *head = kInvalidPageId;
  }
  if (ts.empty()) return Status::OK();
  auto chain = WriteDescYChain(pager_, ts);
  CCIDX_RETURN_IF_ERROR(chain.status());
  *head = *chain;
  return Status::OK();
}

template <class Tree, class Layout>
Status AugmentedTree<Tree, Layout>::LevelTwoInternal(Control* ctrl,
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
    children[i] = r->self;
    for (const ChildEntry& s : r->splits) {
      new_entries.push_back({i, s});
      structural = true;
    }
    structural |= r->structural;
  }
  // Record pushes in TD so queries see them regardless of TS staleness.
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
    return tree().TsReorganizeChildren(ctrl);
  }
  return Status::OK();
}

template <class Tree, class Layout>
Result<typename AugmentedTree<Tree, Layout>::AddResult>
AugmentedTree<Tree, Layout>::AddPoints(PageId id, std::vector<Point> pts) {
  Control ctrl;
  CCIDX_RETURN_IF_ERROR(LoadControl(id, &ctrl));
  PageIo io(pager_);
  const uint32_t b2 = metablock_capacity();

  AddResult res;
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
        CCIDX_RETURN_IF_ERROR(io.WriteRecords<Point>(ctrl.update_page, upd));
        CCIDX_RETURN_IF_ERROR(LevelOne(&ctrl));
        upd.clear();
        if (ctrl.num_points >= 2 * b2) {
          CCIDX_RETURN_IF_ERROR(LevelTwoInternal(&ctrl, &res));
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
      id = *new_id;
      res.structural = true;
      CCIDX_RETURN_IF_ERROR(LoadControl(id, &ctrl));
    }
    res.self = Tree::EntryFor(id, ctrl);
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
    if (part->upd.size() < branching_) continue;
    part->ctrl.update_count = static_cast<uint32_t>(part->upd.size());
    CCIDX_RETURN_IF_ERROR(
        io.WriteRecords<Point>(part->ctrl.update_page, part->upd));
    CCIDX_RETURN_IF_ERROR(LevelOne(&part->ctrl));
    part->upd.clear();
    if (part->ctrl.num_points < 2 * b2) continue;
    // Split this leaf in two by x, at the family's split point (zero
    // defers the split: the leaf stays oversized).
    std::vector<Point> own;
    CCIDX_RETURN_IF_ERROR(io.ReadChain<Point>(part->ctrl.horiz_head, &own));
    std::sort(own.begin(), own.end(), PointXOrder());
    size_t half = Tree::LeafSplitPoint(own);
    if (half == 0) continue;
    std::vector<Point> right(own.begin() + half, own.end());
    own.resize(half);

    Part rp;
    rp.id = pager_->Allocate();
    rp.ctrl = Control{};
    rp.ctrl.update_page = pager_->Allocate();
    CCIDX_RETURN_IF_ERROR(io.WriteRecords<Point>(rp.ctrl.update_page, {}));
    rp.ctrl.sub_xlo = right.front().x;
    rp.ctrl.sub_xhi = part->ctrl.sub_xhi;
    part->ctrl.sub_xhi = own.back().x;
    CCIDX_RETURN_IF_ERROR(
        RebuildOrganizations(pager_, &part->ctrl, std::move(own), true));
    CCIDX_RETURN_IF_ERROR(
        RebuildOrganizations(pager_, &rp.ctrl, std::move(right), false));
    parts.insert(parts.begin() + target + 1, std::move(rp));
  }
  for (Part& part : parts) {
    part.ctrl.update_count = static_cast<uint32_t>(part.upd.size());
    CCIDX_RETURN_IF_ERROR(
        io.WriteRecords<Point>(part.ctrl.update_page, part.upd));
    CCIDX_RETURN_IF_ERROR(WriteControl(pager_, part.id, part.ctrl));
  }
  res.self = Tree::EntryFor(parts[0].id, parts[0].ctrl);
  for (size_t i = 1; i < parts.size(); ++i) {
    res.splits.push_back(Tree::EntryFor(parts[i].id, parts[i].ctrl));
    res.structural = true;
  }
  return res;
}

template <class Tree, class Layout>
Result<PageId> AugmentedTree<Tree, Layout>::RebuildSubtree(PageId id) {
  Control ctrl;
  CCIDX_RETURN_IF_ERROR(LoadControl(id, &ctrl));
  PageIo io(pager_);
  // Preserve this node's TS chains (owned logically by the parent).
  std::vector<std::vector<Point>> ts(Tree::kTsChains.size());
  for (size_t i = 0; i < ts.size(); ++i) {
    const uint64_t head = ctrl.*Tree::kTsChains[i];
    if (head != kInvalidPageId) {
      CCIDX_RETURN_IF_ERROR(io.ReadChain<Point>(head, &ts[i]));
    }
  }
  std::vector<Point> all;
  CCIDX_RETURN_IF_ERROR(CollectSubtree(id, &all));
  CCIDX_RETURN_IF_ERROR(DestroySubtree(id));
  auto built = BuildSorted(std::move(all));
  CCIDX_RETURN_IF_ERROR(built.status());
  for (size_t i = 0; i < ts.size(); ++i) {
    if (ts[i].empty()) continue;
    auto head = WriteDescYChain(pager_, std::move(ts[i]));
    CCIDX_RETURN_IF_ERROR(head.status());
    built->ctrl.*Tree::kTsChains[i] = *head;
  }
  CCIDX_RETURN_IF_ERROR(
      WriteControl(pager_, built->control_page, built->ctrl));
  return built->control_page;
}

template <class Tree, class Layout>
Status AugmentedTree<Tree, Layout>::Insert(const Point& p) {
  if (!Admissible(p)) {
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
  std::vector<Point> all;
  if (root_ == kInvalidPageId) {
    all.push_back(p);
  } else {
    auto res = AddPoints(root_, {p});
    CCIDX_RETURN_IF_ERROR(res.status());
    root_ = res->self.control;
    if (!res->splits.empty()) {
      // The root was a leaf and split: rebuild the whole (small) tree so
      // the root becomes a proper internal metablock.
      CCIDX_RETURN_IF_ERROR(CollectSubtree(root_, &all));
      CCIDX_RETURN_IF_ERROR(DestroySubtree(root_));
      for (const ChildEntry& s : res->splits) {
        CCIDX_RETURN_IF_ERROR(CollectSubtree(s.control, &all));
        CCIDX_RETURN_IF_ERROR(DestroySubtree(s.control));
      }
    }
  }
  if (!all.empty()) {
    auto built = BuildSorted(std::move(all));
    CCIDX_RETURN_IF_ERROR(built.status());
    CCIDX_RETURN_IF_ERROR(
        WriteControl(pager_, built->control_page, built->ctrl));
    root_ = built->control_page;
  }
  size_++;
  return txn.Commit();
}

template <class Tree, class Layout>
Status AugmentedTree<Tree, Layout>::Delete(const Point& p, bool* found) {
  std::lock_guard<std::mutex> write_lock(*write_mu_);
  *found = false;
  if (root_ == kInvalidPageId || !Admissible(p)) return Status::OK();
  if (tombstones_.Contains(p)) return Status::OK();  // already dead
  // Membership probe: the family's query through the point, stopping at
  // the first exact match. Read-only — a device failure here leaves the
  // tree untouched.
  bool exists = false;
  ExactMatchSink<Point> finder(p, &exists);
  CCIDX_RETURN_IF_ERROR(tree().QueryRaw(Tree::ProbeQuery(p), &finder));
  if (!exists) return Status::OK();
  *found = true;
  return DeleteKnownLocked(p);
}

template <class Tree, class Layout>
Status AugmentedTree<Tree, Layout>::DeleteKnown(const Point& p) {
  std::lock_guard<std::mutex> write_lock(*write_mu_);
  return DeleteKnownLocked(p);
}

template <class Tree, class Layout>
Status AugmentedTree<Tree, Layout>::DeleteKnownLocked(const Point& p) {
  if (!tombstones_.Add(p)) return Status::OK();  // already dead
  sched_.NoteDelete();
  if (size_ > 0) size_--;
  if (sched_.ShouldPurge(size_)) return GlobalPurgeRebuild();
  return Status::OK();
}

template <class Tree, class Layout>
Status AugmentedTree<Tree, Layout>::GlobalPurgeRebuild() {
  // Shared fault-atomic skeleton (dynamic/purge_rebuild.h): harvest
  // points + page ids read-only, drop tombstoned points, rebuild the
  // live set through the bulk-build pipeline under a TxnScope, then
  // retire the old pages by id.
  // One txn spans build and retire: a crash mid-purge rolls back to
  // the pre-purge tree (the in-memory tombstones are not durable — these
  // families recover through their owner's rebuild, not AttachMeta).
  TxnScope txn(pager_);
  PageId new_root = kInvalidPageId;
  CCIDX_RETURN_IF_ERROR(PurgeRebuild(
      pager_, &tombstones_, &sched_,
      [&](std::vector<Point>* out) { return CollectSubtree(root_, out); },
      [&](std::vector<PageId>* out) { return VisitSubtreePages(root_, out); },
      [&](std::vector<Point> live) {
        if (live.empty()) return Status::OK();
        auto built = BuildSorted(std::move(live));
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

template <class Tree, class Layout>
Status AugmentedTree<Tree, Layout>::Query(const QueryShape& q,
                                          ResultSink<Point>* sink) const {
  if (tombstones_.empty()) return tree().QueryRaw(q, sink);
  // Weak deletes outstanding: filter dead points out of every reporting
  // path (a hash probe per emitted record, zero extra I/O). kStop from
  // the consumer still latches through the filter.
  PointLiveFilterSink filter(&tombstones_, sink);
  return tree().QueryRaw(q, &filter);
}

template <class Tree, class Layout>
Status AugmentedTree<Tree, Layout>::ReportSubtree(
    PageId id, Coord ylo, SinkEmitter<Point>& em) const {
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
  // Descend iff some strict descendant can qualify (watermark rule:
  // push-downs may break the static heap order, so the static "stop when
  // crossed" rule alone would be incorrect here).
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

// ---------------------------------------------------------------------------
// Maintenance
// ---------------------------------------------------------------------------

template <class Tree, class Layout>
Status AugmentedTree<Tree, Layout>::CollectSubtree(
    PageId id, std::vector<Point>* out) const {
  Control ctrl;
  CCIDX_RETURN_IF_ERROR(LoadControl(id, &ctrl));
  CCIDX_RETURN_IF_ERROR(ReadStoredPoints(ctrl, out));
  if (ctrl.num_children == 0) return Status::OK();
  PageIo io(pager_);
  std::vector<ChildEntry> children;
  CCIDX_RETURN_IF_ERROR(io.ReadChain<ChildEntry>(ctrl.children_head,
                                                 &children));
  for (const ChildEntry& c : children) {
    CCIDX_RETURN_IF_ERROR(CollectSubtree(c.control, out));
  }
  return Status::OK();
}

template <class Tree, class Layout>
std::vector<PageId> AugmentedTree<Tree, Layout>::IndexRoots(
    const Control& ctrl) {
  std::vector<PageId> roots;
  auto add = [&roots](PageId root) {
    if (root != kInvalidPageId) roots.push_back(root);
  };
  add(ctrl.*Tree::kOwnIndex);
  for (auto index : Tree::kChildrenIndexes) add(ctrl.*index);
  return roots;
}

template <class Tree, class Layout>
Status AugmentedTree<Tree, Layout>::VisitSubtreePages(
    PageId id, std::vector<PageId>* out) const {
  Control ctrl;
  CCIDX_RETURN_IF_ERROR(LoadControl(id, &ctrl));
  PageIo io(pager_);
  CCIDX_RETURN_IF_ERROR(VisitVerticalBlocking(pager_, ctrl.vindex_head, out));
  if (ctrl.horiz_head != kInvalidPageId) {
    CCIDX_RETURN_IF_ERROR(io.VisitChain(ctrl.horiz_head, out));
  }
  for (auto chain : Tree::kTsChains) {
    if (ctrl.*chain != kInvalidPageId) {
      CCIDX_RETURN_IF_ERROR(io.VisitChain(ctrl.*chain, out));
    }
  }
  for (PageId root : IndexRoots(ctrl)) {
    CCIDX_RETURN_IF_ERROR(Index::Open(pager_, root).VisitPages(out));
  }
  out->push_back(ctrl.update_page);
  if (ctrl.td_update_page != kInvalidPageId) {
    out->push_back(ctrl.td_update_page);
  }
  if (ctrl.td_root != kInvalidPageId) {
    CCIDX_RETURN_IF_ERROR(Index::Open(pager_, ctrl.td_root).VisitPages(out));
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

template <class Tree, class Layout>
Status AugmentedTree<Tree, Layout>::VisitPages(
    std::vector<PageId>* out) const {
  if (root_ == kInvalidPageId) return Status::OK();
  return VisitSubtreePages(root_, out);
}

template <class Tree, class Layout>
Status AugmentedTree<Tree, Layout>::DestroySubtree(PageId id) {
  Control ctrl;
  CCIDX_RETURN_IF_ERROR(LoadControl(id, &ctrl));
  PageIo io(pager_);
  CCIDX_RETURN_IF_ERROR(FreeVerticalBlocking(pager_, ctrl.vindex_head));
  if (ctrl.horiz_head != kInvalidPageId) {
    CCIDX_RETURN_IF_ERROR(io.FreeChain(ctrl.horiz_head));
  }
  for (auto chain : Tree::kTsChains) {
    if (ctrl.*chain != kInvalidPageId) {
      CCIDX_RETURN_IF_ERROR(io.FreeChain(ctrl.*chain));
    }
  }
  for (PageId root : IndexRoots(ctrl)) {
    CCIDX_RETURN_IF_ERROR(Index::Open(pager_, root).Free());
  }
  CCIDX_RETURN_IF_ERROR(pager_->Free(ctrl.update_page));
  if (ctrl.td_update_page != kInvalidPageId) {
    CCIDX_RETURN_IF_ERROR(pager_->Free(ctrl.td_update_page));
  }
  if (ctrl.td_root != kInvalidPageId) {
    CCIDX_RETURN_IF_ERROR(Index::Open(pager_, ctrl.td_root).Free());
  }
  if (ctrl.num_children > 0) {
    std::vector<ChildEntry> children;
    CCIDX_RETURN_IF_ERROR(io.ReadChain<ChildEntry>(ctrl.children_head,
                                                   &children));
    for (const ChildEntry& c : children) {
      CCIDX_RETURN_IF_ERROR(DestroySubtree(c.control));
    }
    CCIDX_RETURN_IF_ERROR(io.FreeChain(ctrl.children_head));
  }
  return pager_->Free(id);
}

template <class Tree, class Layout>
Status AugmentedTree<Tree, Layout>::Destroy() {
  std::lock_guard<std::mutex> write_lock(*write_mu_);
  if (root_ == kInvalidPageId) return Status::OK();
  TxnScope txn(pager_);
  CCIDX_RETURN_IF_ERROR(DestroySubtree(root_));
  root_ = kInvalidPageId;
  size_ = 0;
  tombstones_.Clear();
  sched_.Reset();
  return txn.Commit();
}

template <class Tree, class Layout>
Status AugmentedTree<Tree, Layout>::CheckSubtree(PageId id,
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
  Coord actual = kCoordMin;  // max y stored at or below this node
  for (const Point& p : upd) actual = std::max(actual, p.y);
  if (ctrl.update_ymax < actual) {
    return Status::Corruption("update_ymax below actual");
  }
  for (const Point& p : own) actual = std::max(actual, p.y);
  for (const std::vector<Point>* pts : {&own, &upd}) {
    for (const Point& p : *pts) {
      if (p.x < ctrl.sub_xlo || p.x > ctrl.sub_xhi) {
        return Status::Corruption("point outside subtree x-interval");
      }
    }
  }
  CCIDX_RETURN_IF_ERROR(tree().CheckNode(ctrl, own));

  uint64_t count = own.size() + upd.size();
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
    // The TS chains of child i cover what its siblings stored at the last
    // TS reorganization: their organized and buffered points, less the
    // pushes recorded in TD(this) since then.
    std::vector<Point> td;
    CCIDX_RETURN_IF_ERROR(CollectTd(ctrl, &td));
    std::vector<std::vector<Point>> pushed(children.size());
    for (const Point& p : td) pushed[RouteChild(children, p.x)].push_back(p);
    std::vector<Control> child_ctrls(children.size());
    std::vector<std::vector<Point>> stored(children.size());
    Coord desc_actual = kCoordMin;
    for (size_t i = 0; i < children.size(); ++i) {
      CCIDX_RETURN_IF_ERROR(LoadControl(children[i].control, &child_ctrls[i]));
      CCIDX_RETURN_IF_ERROR(ReadStoredPoints(child_ctrls[i], &stored[i]));
      if (!ErasePoints(&stored[i], std::move(pushed[i]))) {
        return Status::Corruption("TD point not stored in its child");
      }
      Coord child_ymax = kCoordMin;
      uint64_t child_count = 0;
      CCIDX_RETURN_IF_ERROR(
          CheckSubtree(children[i].control, &child_ymax, &child_count));
      if (children[i].node_ymax < child_ymax) {
        return Status::Corruption("stale child node_ymax in parent entry");
      }
      desc_actual = std::max(desc_actual, child_ymax);
      count += child_count;
    }
    if (ctrl.desc_ymax < desc_actual) {
      return Status::Corruption("desc_ymax watermark below actual");
    }
    CCIDX_RETURN_IF_ERROR(
        tree().CheckChildren(ctrl, children, child_ctrls, std::move(stored)));
    actual = std::max(actual, desc_actual);
  }
  if (ctrl.node_ymax < actual) {
    return Status::Corruption("node_ymax watermark below actual");
  }
  *node_ymax_out = actual;
  *count_out = count;
  return Status::OK();
}

template <class Tree, class Layout>
Status AugmentedTree<Tree, Layout>::CheckInvariants() const {
  if (root_ == kInvalidPageId) {
    return size_ == 0 ? Status::OK()
                      : Status::Corruption("empty tree with nonzero size");
  }
  Coord ymax = kCoordMin;
  uint64_t count = 0;
  CCIDX_RETURN_IF_ERROR(CheckSubtree(root_, &ymax, &count));
  // Tombstoned points remain physically stored until the next purge.
  if (count != size_ + tombstones_.size()) {
    return Status::Corruption("total point count mismatch");
  }
  return Status::OK();
}

template class AugmentedTree<AugmentedMetablockTree, AugmentedMetablockLayout>;
template class AugmentedTree<AugmentedThreeSidedTree,
                             AugmentedThreeSidedLayout>;

}  // namespace ccidx
