#include "ccidx/pst/external_pst.h"

#include <algorithm>

#include "ccidx/dynamic/purge_rebuild.h"
#include "ccidx/io/wal.h"
#include "ccidx/simd/filter_emit.h"

namespace ccidx {

namespace {
constexpr auto kRlx = std::memory_order_relaxed;
}  // namespace

uint32_t ExternalPst::NodeCapacity() const {
  return static_cast<uint32_t>(
      (pager_->page_size() - sizeof(NodeHeader)) / sizeof(Point));
}

Result<PageId> ExternalPst::BuildNode(Pager* pager, PointGroup group,
                                      uint32_t cap) {
  if (group.empty()) return kInvalidPageId;

  // The node keeps the `cap` highest-y points of its range; the rest split
  // into two x-halves.
  NodeHeader h{};
  h.sub_xlo = group.first_x();
  h.sub_xhi = group.last_x();
  h.left = kInvalidPageId;
  h.right = kInvalidPageId;

  std::vector<Point> own;
  if (group.size() <= cap) {
    auto all = std::move(group).TakeAll();
    CCIDX_RETURN_IF_ERROR(all.status());
    own = std::move(*all);
    std::sort(own.begin(), own.end(), PointDescYOrder());
  } else {
    // Each half is built as the scan closes it. A one-element rest yields
    // a single child: the right half (the even split gives the left child
    // floor(rest/2) = 0 points).
    std::vector<PageId> kids;
    auto top = std::move(group).PartitionTopY(
        cap, 2, PointGroup::SplitMode::kEven,
        [&](PointGroup sub) -> Status {
          auto kid = BuildNode(pager, std::move(sub), cap);
          CCIDX_RETURN_IF_ERROR(kid.status());
          kids.push_back(*kid);
          return Status::OK();
        });
    CCIDX_RETURN_IF_ERROR(top.status());
    own = std::move(*top);  // already descending by y
    if (kids.size() > 1) h.left = kids.front();
    h.right = kids.back();
  }
  h.count = static_cast<uint32_t>(own.size());
  h.min_y = own.empty() ? kCoordMax : own.back().y;

  auto ref = pager->PinNew();
  CCIDX_RETURN_IF_ERROR(ref.status());
  PageId id = ref->id();
  PageWriter w(ref->data());
  w.Put(h);
  w.PutArray(std::span<const Point>(own));
  CCIDX_RETURN_IF_ERROR(ref->Release());
  return id;
}

Result<ExternalPst> ExternalPst::Build(Pager* pager, PointGroup points) {
  ExternalPst tree(pager, kInvalidPageId);
  uint32_t cap = tree.NodeCapacity();
  if (cap < 1) {
    return Status::InvalidArgument("page size too small for external PST");
  }
  TxnScope txn(pager);
  uint64_t n = points.size();
  auto root = BuildNode(pager, std::move(points), cap);
  CCIDX_RETURN_IF_ERROR(root.status());
  tree.root_ = *root;
  tree.sy_->size.store(n, kRlx);
  CCIDX_RETURN_IF_ERROR(txn.Commit());
  return tree;
}

Result<ExternalPst> ExternalPst::Build(Pager* pager,
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

Result<ExternalPst> ExternalPst::Build(Pager* pager,
                                       std::span<const Point> points) {
  return Build(pager, std::vector<Point>(points.begin(), points.end()));
}

Result<ExternalPst> ExternalPst::Build(Pager* pager,
                                       std::vector<Point>&& points) {
  if (!std::is_sorted(points.begin(), points.end(), PointXOrder())) {
    std::sort(points.begin(), points.end(), PointXOrder());
  }
  return Build(pager, PointGroup::FromVector(std::move(points)));
}

ExternalPst ExternalPst::Open(Pager* pager, PageId root) {
  return ExternalPst(pager, root);
}

Status ExternalPst::StoreNode(PageId id, NodeHeader& h,
                              const std::vector<Point>& pts) const {
  h.count = static_cast<uint32_t>(pts.size());
  h.min_y = pts.empty() ? kCoordMax : pts.back().y;
  auto ref = pager_->PinMut(id, Pager::MutMode::kOverwrite);
  CCIDX_RETURN_IF_ERROR(ref.status());
  PageWriter w(ref->data());
  w.Put(h);
  w.PutArray(std::span<const Point>(pts));
  return ref->Release();
}

uint32_t ExternalPst::MaxDepth() const {
  uint32_t depth = 2;
  uint64_t nodes = size() / std::max<uint32_t>(1, NodeCapacity()) + 2;
  while (nodes > 1) {
    nodes >>= 1;
    depth += 2;  // 2x the perfectly balanced height + slack
  }
  return depth + 6;
}

Status ExternalPst::LoadImageLocked() {
  if (sy_->image_loaded) return Status::OK();
  CCIDX_RETURN_IF_ERROR(LoadNode(root_, &sy_->root_h, &sy_->root_pts));
  sy_->image_loaded = true;
  return Status::OK();
}

Status ExternalPst::StoreRootLocked() {
  return StoreNode(root_, sy_->root_h, sy_->root_pts);
}

void ExternalPst::RefreshRootMetaLocked() {
  sy_->root_h.count = static_cast<uint32_t>(sy_->root_pts.size());
  sy_->root_h.min_y =
      sy_->root_pts.empty() ? kCoordMax : sy_->root_pts.back().y;
}

Status ExternalPst::CreateRootLocked(const Point& p) {
  TxnScope txn(pager_);
  NodeHeader h{};
  h.left = kInvalidPageId;
  h.right = kInvalidPageId;
  h.sub_xlo = h.sub_xhi = p.x;
  PageId id = pager_->Allocate();
  std::vector<Point> pts = {p};
  CCIDX_RETURN_IF_ERROR(StoreNode(id, h, pts));
  CCIDX_RETURN_IF_ERROR(txn.Commit());
  root_ = id;
  sy_->root_h = h;  // StoreNode filled count/min_y
  sy_->root_pts = std::move(pts);
  sy_->image_loaded = true;
  sy_->size.fetch_add(1, kRlx);
  sched_.NoteInsert();
  return Status::OK();
}

bool ExternalPst::TryAbsorbRootLocked(const Point& p, uint32_t cap,
                                      Status* st) {
  std::vector<Point>& pts = sy_->root_pts;
  const bool is_leaf = sy_->root_h.left == kInvalidPageId &&
                       sy_->root_h.right == kInvalidPageId;
  // An internal root may only absorb a point at or above its current
  // minimum (descendants sit at or below it; a lower point staying here
  // would break the heap prune).
  const Coord min_y = pts.empty() ? kCoordMax : pts.back().y;
  if (!(pts.size() < cap && (is_leaf || p.y >= min_y))) return false;
  const Coord oxlo = sy_->root_h.sub_xlo;
  const Coord oxhi = sy_->root_h.sub_xhi;
  sy_->root_h.sub_xlo = std::min(oxlo, p.x);
  sy_->root_h.sub_xhi = std::max(oxhi, p.x);
  auto pos = std::ranges::lower_bound(pts, p, PointDescYOrder());
  pos = pts.insert(pos, p);
  *st = StoreRootLocked();
  if (!st->ok()) {
    // The failed device write left the old page, so restoring the image
    // restores image == disk.
    pts.erase(pos);
    sy_->root_h.sub_xlo = oxlo;
    sy_->root_h.sub_xhi = oxhi;
    RefreshRootMetaLocked();
  }
  return true;
}

Result<int> ExternalPst::ChooseSideLocked(const Point& p) const {
  // Peeks are taken under the children's node stripes: a concurrent
  // delete on either side may be rewriting the peeked page in place.
  const NodeHeader& h = sy_->root_h;
  if (h.left == kInvalidPageId && h.right == kInvalidPageId) return 0;
  NodeHeader lh{}, rh{};
  std::vector<Point> tmp;
  if (h.left != kInvalidPageId) {
    std::lock_guard<std::mutex> g(sy_->stripes[h.left % kStripes]);
    CCIDX_RETURN_IF_ERROR(LoadNode(h.left, &lh, &tmp));
  }
  if (h.right != kInvalidPageId) {
    std::lock_guard<std::mutex> g(sy_->stripes[h.right % kStripes]);
    CCIDX_RETURN_IF_ERROR(LoadNode(h.right, &rh, &tmp));
  }
  if (h.left == kInvalidPageId) return p.x < rh.sub_xlo ? 0 : 1;
  if (h.right == kInvalidPageId) return p.x > lh.sub_xhi ? 1 : 0;
  if (p.x <= lh.sub_xhi) return 0;
  if (p.x >= rh.sub_xlo) return 1;
  // No subtree weights here: widen the NARROWER subtree, a cheap proxy
  // for filling the lighter side. Unsigned arithmetic — the spans are
  // non-negative but may exceed the signed Coord range.
  uint64_t lw =
      static_cast<uint64_t>(lh.sub_xhi) - static_cast<uint64_t>(lh.sub_xlo);
  uint64_t rw =
      static_cast<uint64_t>(rh.sub_xhi) - static_cast<uint64_t>(rh.sub_xlo);
  return lw <= rw ? 0 : 1;
}

void ExternalPst::UndoRootDisplaceLocked(const Point& p, const Point& carried,
                                         bool displaced) {
  if (!displaced) return;
  std::vector<Point>& pts = sy_->root_pts;
  // Relative undo (remove p, restore the displaced minimum) rather than a
  // snapshot: concurrent root absorbs may have added points since.
  for (auto it = pts.begin(); it != pts.end(); ++it) {
    if (*it == p) {
      pts.erase(it);
      break;
    }
  }
  auto pos = std::ranges::lower_bound(pts, carried, PointDescYOrder());
  pts.insert(pos, carried);
  // Best-effort disk repair: sequentially the root was never rewritten
  // since the displacement (nothing to repair, and under fault injection
  // this write fails too, leaving the old page); concurrently a root
  // absorb may have persisted the in-flight displacement, and this
  // rewrite restores the displaced minimum on disk.
  (void)StoreRootLocked();
  RefreshRootMetaLocked();
}

Status ExternalPst::BuildShadowSubtree(PageId start, Point carried,
                                       uint32_t cap, PageId* top,
                                       size_t* depth,
                                       std::vector<PageId>* old_path) {
  // Phase 1 — plan the insertion read-only: descend the x-routing path,
  // deciding per node whether the carried point is absorbed, displaces
  // the node minimum, or routes onward. Nothing is written, so a device
  // failure here changes nothing. The side latch (held exclusive by the
  // caller) excludes every other writer from this subtree's pages.
  struct PlanEntry {
    PageId old_id;
    NodeHeader h;
    std::vector<Point> pts;
    int side = -1;  // side routed onward (0 = L, 1 = R), -1 = none
  };
  std::vector<PlanEntry> plan;
  bool create_leaf = false;
  if (start == kInvalidPageId) {
    create_leaf = true;
  } else {
    PageId id = start;
    // The routing peek at a child is reused as the next level's node, so
    // the descent costs ~2 page reads per level, not 3.
    bool have_next = false;
    NodeHeader next_h{};
    std::vector<Point> next_pts;
    while (true) {
      PlanEntry e;
      if (have_next) {
        e.h = next_h;
        e.pts = std::move(next_pts);
        have_next = false;
      } else {
        CCIDX_RETURN_IF_ERROR(LoadNode(id, &e.h, &e.pts));
      }
      e.old_id = id;
      e.h.sub_xlo = std::min(e.h.sub_xlo, carried.x);
      e.h.sub_xhi = std::max(e.h.sub_xhi, carried.x);

      const bool is_leaf =
          e.h.left == kInvalidPageId && e.h.right == kInvalidPageId;
      const Coord old_min = e.h.min_y;
      // An internal node may only absorb a point at or above its current
      // minimum (descendants sit at or below it; a lower point staying
      // here would break the heap prune).
      if (e.pts.size() < cap && (is_leaf || carried.y >= old_min)) {
        auto pos = std::ranges::lower_bound(e.pts, carried, PointDescYOrder());
        e.pts.insert(pos, carried);
        plan.push_back(std::move(e));
        break;
      }
      if (carried.y > old_min) {  // displace the minimum downward
        auto pos = std::ranges::lower_bound(e.pts, carried, PointDescYOrder());
        e.pts.insert(pos, carried);
        carried = e.pts.back();
        e.pts.pop_back();
      }
      // Route the carried point by x, creating a leaf below if needed.
      int side;
      NodeHeader lh, rh;
      std::vector<Point> lpts, rpts;
      if (e.h.left == kInvalidPageId && e.h.right == kInvalidPageId) {
        side = 0;
      } else if (e.h.left == kInvalidPageId) {
        CCIDX_RETURN_IF_ERROR(LoadNode(e.h.right, &rh, &rpts));
        side = carried.x < rh.sub_xlo ? 0 : 1;
      } else if (e.h.right == kInvalidPageId) {
        CCIDX_RETURN_IF_ERROR(LoadNode(e.h.left, &lh, &lpts));
        side = carried.x > lh.sub_xhi ? 1 : 0;
      } else {
        CCIDX_RETURN_IF_ERROR(LoadNode(e.h.left, &lh, &lpts));
        CCIDX_RETURN_IF_ERROR(LoadNode(e.h.right, &rh, &rpts));
        if (carried.x <= lh.sub_xhi) {
          side = 0;
        } else if (carried.x >= rh.sub_xlo) {
          side = 1;
        } else {
          // Widen the narrower subtree (see ChooseSideLocked).
          uint64_t lw = static_cast<uint64_t>(lh.sub_xhi) -
                        static_cast<uint64_t>(lh.sub_xlo);
          uint64_t rw = static_cast<uint64_t>(rh.sub_xhi) -
                        static_cast<uint64_t>(rh.sub_xlo);
          side = lw <= rw ? 0 : 1;
        }
      }
      e.side = side;
      PageId child = side == 0 ? e.h.left : e.h.right;
      plan.push_back(std::move(e));
      if (child == kInvalidPageId) {
        create_leaf = true;
        break;
      }
      // A valid routed child was always peeked above — reuse the load.
      if (side == 0) {
        next_h = lh;
        next_pts = std::move(lpts);
      } else {
        next_h = rh;
        next_pts = std::move(rpts);
      }
      have_next = true;
      id = child;
    }
  }

  // Phase 2 — shadow the path: every planned node is written as a fresh
  // page (bottom-up, children wired to the replacements). A failure leaves
  // the old subtree — still reachable from the root — untouched, and the
  // caller's TxnScope rolls the new pages back.
  PageId below = kInvalidPageId;
  if (create_leaf) {
    NodeHeader nh{};
    nh.left = kInvalidPageId;
    nh.right = kInvalidPageId;
    nh.sub_xlo = nh.sub_xhi = carried.x;
    below = pager_->Allocate();
    std::vector<Point> npts = {carried};
    CCIDX_RETURN_IF_ERROR(StoreNode(below, nh, npts));
  }
  for (size_t i = plan.size(); i-- > 0;) {
    PlanEntry& e = plan[i];
    if (e.side == 0) {
      e.h.left = below;
    } else if (e.side == 1) {
      e.h.right = below;
    }
    PageId nid = pager_->Allocate();
    CCIDX_RETURN_IF_ERROR(StoreNode(nid, e.h, e.pts));
    below = nid;
  }
  old_path->reserve(plan.size());
  for (const PlanEntry& e : plan) old_path->push_back(e.old_id);
  *top = below;
  *depth = plan.size() + (create_leaf ? 1u : 0u);
  return Status::OK();
}

Status ExternalPst::Insert(const Point& p) {
  const uint32_t cap = NodeCapacity();
  size_t depth = 0;
  while (true) {
    // One WAL txn per attempt: every commit below runs while the latch
    // that ordered the write is still held, so no concurrent writer can
    // capture uncommitted content as its own before-image. A retry
    // abandons a zero-record scope (free — nothing was logged).
    TxnScope txn(pager_);
    // Advisory root step: resolve entirely at the root when possible
    // (create / absorb are real — they only need root_mu); otherwise
    // pick the side latch to take.
    int side;
    {
      std::unique_lock<std::mutex> rg(sy_->root_mu);
      if (root_ == kInvalidPageId) {
        CCIDX_RETURN_IF_ERROR(CreateRootLocked(p));
        return txn.Commit();
      }
      CCIDX_RETURN_IF_ERROR(LoadImageLocked());
      Status st;
      if (TryAbsorbRootLocked(p, cap, &st)) {
        if (st.ok()) {
          sy_->size.fetch_add(1, kRlx);
          sched_.NoteInsert();
          st = txn.Commit();
        }
        return st;
      }
      auto s = ChooseSideLocked(p);
      CCIDX_RETURN_IF_ERROR(s.status());
      side = *s;
    }

    // Redo the root step under the side latch: a concurrent insert,
    // delete or rebuild may have changed the picture (absorb became
    // possible, the routing flipped sides, the tree was rebuilt).
    std::unique_lock<std::shared_mutex> sl(sy_->side[side]);
    bool retry = false;
    bool displaced = false;
    Point carried = p;
    PageId oc = kInvalidPageId;
    {
      std::unique_lock<std::mutex> rg(sy_->root_mu);
      if (root_ == kInvalidPageId) {
        retry = true;  // rebuilt away to empty — restart at create
      } else {
        CCIDX_RETURN_IF_ERROR(LoadImageLocked());
        Status st;
        if (TryAbsorbRootLocked(p, cap, &st)) {
          if (st.ok()) {
            sy_->size.fetch_add(1, kRlx);
            sched_.NoteInsert();
            st = txn.Commit();
          }
          return st;
        }
        auto s2 = ChooseSideLocked(p);
        CCIDX_RETURN_IF_ERROR(s2.status());
        if (*s2 != side) {
          retry = true;  // wrong latch in hand
        } else {
          const Coord old_min =
              sy_->root_pts.empty() ? kCoordMax : sy_->root_pts.back().y;
          if (p.y > old_min) {  // displace the root minimum downward
            std::vector<Point>& pts = sy_->root_pts;
            auto pos = std::ranges::lower_bound(pts, p, PointDescYOrder());
            pts.insert(pos, p);
            carried = pts.back();
            pts.pop_back();
            displaced = true;
          }
          // Widen the root range in the image; the disk root follows at
          // commit (widening is conservative, so it is left in place on
          // failure).
          sy_->root_h.sub_xlo = std::min(sy_->root_h.sub_xlo, p.x);
          sy_->root_h.sub_xhi = std::max(sy_->root_h.sub_xhi, p.x);
          oc = side == 0 ? sy_->root_h.left : sy_->root_h.right;
        }
      }
    }
    if (retry) continue;

    // Build the shadow subtree with root_mu released: the long part of
    // the insert runs concurrently with root absorbs and with writers on
    // the other side.
    PageId top = kInvalidPageId;
    std::vector<PageId> old_path;
    Status bst = BuildShadowSubtree(oc, carried, cap, &top, &depth, &old_path);

    {
      std::unique_lock<std::mutex> rg(sy_->root_mu);
      if (!bst.ok()) {
        UndoRootDisplaceLocked(p, carried, displaced);
        return bst;
      }
      // Commit: swing the root's child pointer to the shadow subtree.
      uint64_t& slot = side == 0 ? sy_->root_h.left : sy_->root_h.right;
      const uint64_t prev = slot;
      slot = top;
      Status cs = StoreRootLocked();
      if (!cs.ok()) {
        slot = prev;
        UndoRootDisplaceLocked(p, carried, displaced);
        return cs;  // the scope's rollback frees the shadow pages
      }
      // Point of no return: retire the old path by id (no device reads).
      // Done under root_mu so a concurrent ChooseSideLocked peek never
      // reads a freed page (under WAL the device free is deferred to
      // scope exit, which only delays reclamation — the root pointers no
      // longer reference the old path by then).
      for (PageId oid : old_path) (void)pager_->Free(oid);
      sy_->size.fetch_add(1, kRlx);
      sched_.NoteInsert();
      CCIDX_RETURN_IF_ERROR(txn.Commit());
    }
    sl.unlock();
    // Fall out of the scope's lifetime before any rebuild: TriggerRebuild
    // opens its own WAL txn and must not nest inside a committed one.
    break;
  }
  if (depth + 1 > MaxDepth() || sched_.ShouldRebuild(size())) {
    return TriggerRebuild(/*force=*/depth + 1 > MaxDepth());
  }
  return Status::OK();
}

Status ExternalPst::DeleteNode(PageId id, const Point& p, bool* found) {
  if (id == kInvalidPageId) {
    *found = false;
    return Status::OK();
  }
  NodeHeader h;
  std::vector<Point> pts;
  PageId l, r;
  {
    // One node stripe at a time: held across this node's read-modify-
    // write, released before recursing.
    std::lock_guard<std::mutex> g(sy_->stripes[id % kStripes]);
    CCIDX_RETURN_IF_ERROR(LoadNode(id, &h, &pts));
    if (p.x < h.sub_xlo || p.x > h.sub_xhi) {
      *found = false;
      return Status::OK();
    }
    for (size_t i = 0; i < pts.size(); ++i) {
      if (pts[i] == p) {
        pts.erase(pts.begin() + i);
        *found = true;
        // The single in-place write of the whole operation: atomic under
        // fault injection (a failed device write leaves the old page).
        // The WAL txn opens here — at the only page write of the whole
        // descent — and commits under this node's stripe latch, before
        // any other writer can touch the page.
        TxnScope txn(pager_);
        CCIDX_RETURN_IF_ERROR(StoreNode(id, h, pts));
        return txn.Commit();
      }
    }
    // Heap order: every descendant lies at or below this node's minimum.
    if (!pts.empty() && p.y > h.min_y) {
      *found = false;
      return Status::OK();
    }
    l = h.left;
    r = h.right;
  }
  CCIDX_RETURN_IF_ERROR(DeleteNode(l, p, found));
  if (!*found) {
    CCIDX_RETURN_IF_ERROR(DeleteNode(r, p, found));
  }
  return Status::OK();
}

Status ExternalPst::Delete(const Point& p, bool* found) {
  *found = false;
  while (true) {
    // Root step under root_mu: exact match, x-range and heap prunes all
    // answer from the image.
    PageId root_seen;
    {
      std::unique_lock<std::mutex> rg(sy_->root_mu);
      if (root_ == kInvalidPageId) return Status::OK();
      CCIDX_RETURN_IF_ERROR(LoadImageLocked());
      if (p.x < sy_->root_h.sub_xlo || p.x > sy_->root_h.sub_xhi) {
        return Status::OK();
      }
      std::vector<Point>& pts = sy_->root_pts;
      for (size_t i = 0; i < pts.size(); ++i) {
        if (pts[i] == p) {
          // Root-resident hit: one page write, committed under root_mu.
          // A failed commit takes the same in-memory undo as a failed
          // store — the dtor abort restores the disk image to match.
          TxnScope txn(pager_);
          pts.erase(pts.begin() + i);
          Status st = StoreRootLocked();
          if (st.ok()) st = txn.Commit();
          if (!st.ok()) {
            auto pos = std::ranges::lower_bound(pts, p, PointDescYOrder());
            pts.insert(pos, p);
            RefreshRootMetaLocked();
            return st;
          }
          *found = true;
          break;
        }
      }
      if (!*found) {
        const Coord min_y = pts.empty() ? kCoordMax : pts.back().y;
        if (!pts.empty() && p.y > min_y) return Status::OK();  // heap prune
      }
      root_seen = root_;
    }

    if (!*found) {
      bool restart = false;
      for (int s = 0; s < 2 && !*found; ++s) {
        std::shared_lock<std::shared_mutex> sl(sy_->side[s]);
        PageId child;
        {
          // Re-read the child pointer under root_mu now that the side
          // latch pins it: a commit or rebuild may have swung it between
          // the root step and the latch acquisition.
          std::unique_lock<std::mutex> rg(sy_->root_mu);
          if (root_ != root_seen) {
            restart = true;  // rebuilt under us — points may have moved
            break;
          }
          child = s == 0 ? sy_->root_h.left : sy_->root_h.right;
        }
        if (child == kInvalidPageId) continue;
        CCIDX_RETURN_IF_ERROR(DeleteNode(child, p, found));
      }
      if (restart) continue;
    }
    break;
  }
  if (!*found) return Status::OK();
  sy_->size.fetch_sub(1, kRlx);
  sched_.NoteDelete();
  if (sched_.ShouldRebuild(size())) return TriggerRebuild(/*force=*/false);
  return Status::OK();
}

Status ExternalPst::Harvest(std::vector<Point>* pts,
                            std::vector<PageId>* pages) const {
  std::vector<PageId> stack;
  if (root_ != kInvalidPageId) stack.push_back(root_);
  NodeHeader h;
  std::vector<Point> own;
  while (!stack.empty()) {
    PageId id = stack.back();
    stack.pop_back();
    CCIDX_RETURN_IF_ERROR(LoadNode(id, &h, &own));
    if (pts != nullptr) pts->insert(pts->end(), own.begin(), own.end());
    if (pages != nullptr) pages->push_back(id);
    if (h.left != kInvalidPageId) stack.push_back(h.left);
    if (h.right != kInvalidPageId) stack.push_back(h.right);
  }
  return Status::OK();
}

Status ExternalPst::VisitPages(std::vector<PageId>* out) const {
  return Harvest(nullptr, out);
}

Status ExternalPst::TriggerRebuild(bool force) {
  if (rebuild_hook_) {
    // Divert to the maintenance path; at most one pending rebuild at a
    // time (the latch is released on commit/abandon).
    if (!sy_->rebuild_pending.exchange(true, kRlx)) rebuild_hook_();
    return Status::OK();
  }
  return force ? GlobalRebuild() : [&] {
    std::unique_lock<std::shared_mutex> l0(sy_->side[0]);
    std::unique_lock<std::shared_mutex> l1(sy_->side[1]);
    std::unique_lock<std::mutex> rg(sy_->root_mu);
    // Writers that queued behind the same trigger collapse to one
    // rebuild: the first Reset()s the scheduler.
    if (!sched_.ShouldRebuild(sy_->size.load(kRlx))) return Status::OK();
    return GlobalRebuildLocked();
  }();
}

Status ExternalPst::GlobalRebuild() {
  std::unique_lock<std::shared_mutex> l0(sy_->side[0]);
  std::unique_lock<std::shared_mutex> l1(sy_->side[1]);
  std::unique_lock<std::mutex> rg(sy_->root_mu);
  return GlobalRebuildLocked();
}

Status ExternalPst::GlobalRebuildLocked() {
  // Shared fault-atomic skeleton (dynamic/purge_rebuild.h). The PST
  // deletes records eagerly (no tombstone set), so every harvested point
  // is live; the skeleton still supplies the harvest / scoped-build /
  // retire-by-id sequencing. All latches are held, so the disk tree is
  // current (no displacement in flight) and no writer can interleave.
  // One txn spans harvest, build, and retire: a crash mid-rebuild rolls
  // the whole replacement back to the pre-rebuild tree.
  TxnScope txn(pager_);
  PageId new_root = kInvalidPageId;
  CCIDX_RETURN_IF_ERROR(PurgeRebuild(
      pager_, static_cast<PointTombstones*>(nullptr), &sched_,
      [&](std::vector<Point>* out) { return Harvest(out, nullptr); },
      [&](std::vector<PageId>* out) { return VisitPages(out); },
      [&](std::vector<Point> live) {
        std::sort(live.begin(), live.end(), PointXOrder());
        auto fresh = BuildNode(pager_, PointGroup::FromVector(std::move(live)),
                               NodeCapacity());
        CCIDX_RETURN_IF_ERROR(fresh.status());
        new_root = *fresh;
        return Status::OK();
      }));
  root_ = new_root;
  sy_->image_loaded = false;
  return txn.Commit();
}

Result<ExternalPst::PendingRebuild> ExternalPst::PrepareGlobalRebuild() {
  PendingRebuild pr;
  std::vector<Point> pts;
  {
    // Harvest needs a write-consistent tree: take every latch for the
    // O(n/B) read pass, release them for the expensive build below. Any
    // update after the release bumps the stamp and aborts the commit.
    std::unique_lock<std::shared_mutex> l0(sy_->side[0]);
    std::unique_lock<std::shared_mutex> l1(sy_->side[1]);
    std::unique_lock<std::mutex> rg(sy_->root_mu);
    CCIDX_RETURN_IF_ERROR(Harvest(&pts, &pr.old_pages));
    pr.stamp = sched_.update_stamp();
  }
  std::sort(pts.begin(), pts.end(), PointXOrder());
  // The prepare phase commits its own (kAlloc-only) txn: a crash between
  // prepare and commit leaves the fresh pages live but unreferenced —
  // bounded to the one pending rebuild (DESIGN.md §13).
  TxnScope txn(pager_);
  auto fresh =
      BuildNode(pager_, PointGroup::FromVector(std::move(pts)), NodeCapacity());
  CCIDX_RETURN_IF_ERROR(fresh.status());
  pr.fresh_root = *fresh;
  pr.fresh_pages = txn.pages();
  CCIDX_RETURN_IF_ERROR(txn.Commit());
  return pr;
}

bool ExternalPst::CommitGlobalRebuild(PendingRebuild&& p) {
  std::unique_lock<std::shared_mutex> l0(sy_->side[0]);
  std::unique_lock<std::shared_mutex> l1(sy_->side[1]);
  std::unique_lock<std::mutex> rg(sy_->root_mu);
  // The frees below capture before-images into this txn; a failed commit
  // resolves through the dtor abort, which forces the (unchanged) pages.
  TxnScope txn(pager_);
  if (p.stamp != sched_.update_stamp()) {
    // An update landed since the harvest: the prepared tree is stale.
    for (PageId id : p.fresh_pages) (void)pager_->Free(id);
    sy_->rebuild_pending.store(false, kRlx);
    (void)txn.Commit();
    return false;
  }
  root_ = p.fresh_root;
  sy_->image_loaded = false;
  for (PageId id : p.old_pages) (void)pager_->Free(id);
  sched_.Reset();
  sy_->rebuild_pending.store(false, kRlx);
  (void)txn.Commit();
  return true;
}

void ExternalPst::AbandonGlobalRebuild(PendingRebuild&& p) {
  TxnScope txn(pager_);
  for (PageId id : p.fresh_pages) (void)pager_->Free(id);
  sy_->rebuild_pending.store(false, kRlx);
  (void)txn.Commit();
}

Status ExternalPst::LoadNode(PageId id, NodeHeader* h,
                             std::vector<Point>* pts) const {
  auto ref = pager_->Pin(id);
  CCIDX_RETURN_IF_ERROR(ref.status());
  PageReader r(ref->data());
  *h = r.Get<NodeHeader>();
  pts->resize(h->count);
  r.GetArray(std::span<Point>(*pts));
  return Status::OK();
}

Status ExternalPst::QueryNode(PageId id, const ThreeSidedQuery& q,
                              SinkEmitter<Point>& em) const {
  if (id == kInvalidPageId || em.stopped()) return Status::OK();
  NodeHeader h;
  {
    // Zero-copy: filter the node's points in place from the pinned frame.
    // The pin is dropped before recursing so pin depth stays O(1).
    auto ref = pager_->Pin(id);
    CCIDX_RETURN_IF_ERROR(ref.status());
    PageReader r(ref->data());
    h = r.Get<NodeHeader>();
    if (h.sub_xlo > q.xhi || h.sub_xhi < q.xlo) return Status::OK();
    std::span<const Point> pts =
        ViewArray<Point>(*ref, sizeof(NodeHeader), h.count);
    // Descending y: qualifying points lie in the y >= ylo prefix; the
    // x-slab filter applies within it.
    simd::EmitFilteredXRange(
        em, pts.first(simd::PrefixYAtLeast(simd::Kernels(), pts, q.ylo)),
        q.xlo, q.xhi);
  }
  // Heap order: every descendant's y is <= this node's min y. If some own
  // point already fell below ylo, no descendant can qualify.
  if (h.min_y < q.ylo || em.stopped()) return Status::OK();
  if (pager_->speculation_budget() > 0 && h.left != kInvalidPageId &&
      h.right != kInvalidPageId) {
    // Both subtrees will be descended: stage the two roots as one batched
    // device round before the left recursion (DESIGN.md §10).
    PageId both[2] = {h.left, h.right};
    pager_->WarmMany(both);
  }
  CCIDX_RETURN_IF_ERROR(QueryNode(h.left, q, em));
  return QueryNode(h.right, q, em);
}

Status ExternalPst::Query(const ThreeSidedQuery& q,
                          SinkEmitter<Point>& em) const {
  if (q.xlo > q.xhi) return Status::OK();
  return QueryNode(root_, q, em);
}

Status ExternalPst::Query(const ThreeSidedQuery& q,
                          ResultSink<Point>* sink) const {
  SinkEmitter<Point> em(sink);
  return Query(q, em);
}

Status ExternalPst::CollectPoints(std::vector<Point>* out) const {
  return Harvest(out, nullptr);
}

Status ExternalPst::FreeNode(PageId id) {
  if (id == kInvalidPageId) return Status::OK();
  NodeHeader h;
  std::vector<Point> pts;
  CCIDX_RETURN_IF_ERROR(LoadNode(id, &h, &pts));
  CCIDX_RETURN_IF_ERROR(FreeNode(h.left));
  CCIDX_RETURN_IF_ERROR(FreeNode(h.right));
  return pager_->Free(id);
}

Status ExternalPst::Free() {
  TxnScope txn(pager_);
  CCIDX_RETURN_IF_ERROR(FreeNode(root_));
  root_ = kInvalidPageId;
  sy_->size.store(0, kRlx);
  sy_->image_loaded = false;
  sched_.Reset();
  return txn.Commit();
}

Status ExternalPst::CheckNode(PageId id, Coord parent_min_y, bool is_root,
                              bool allow_underfull, uint64_t* count) const {
  if (id == kInvalidPageId) return Status::OK();
  NodeHeader h;
  std::vector<Point> pts;
  CCIDX_RETURN_IF_ERROR(LoadNode(id, &h, &pts));
  if (!std::is_sorted(pts.begin(), pts.end(), PointDescYOrder())) {
    return Status::Corruption("PST node not descending by y");
  }
  for (const Point& p : pts) {
    if (p.x < h.sub_xlo || p.x > h.sub_xhi) {
      return Status::Corruption("PST point outside node x-range");
    }
    if (!is_root && p.y > parent_min_y) {
      return Status::Corruption("PST heap order violated");
    }
  }
  if (!pts.empty() && h.min_y != pts.back().y) {
    return Status::Corruption("PST min_y field incorrect");
  }
  if (pts.empty() && h.min_y != kCoordMax) {
    return Status::Corruption("empty PST node min_y sentinel wrong");
  }
  // Deletes may leave nodes under-full until the scheduled rebuild.
  if (!allow_underfull &&
      (h.left != kInvalidPageId || h.right != kInvalidPageId) &&
      pts.size() < NodeCapacity()) {
    return Status::Corruption("internal PST node not full");
  }
  // An empty node passes its own constraint (none) through: descendants
  // remain bounded by the nearest non-empty ancestor's minimum.
  Coord pass_min = pts.empty() ? parent_min_y : h.min_y;
  *count += pts.size();
  CCIDX_RETURN_IF_ERROR(
      CheckNode(h.left, pass_min, false, allow_underfull, count));
  return CheckNode(h.right, pass_min, false, allow_underfull, count);
}

Status ExternalPst::CheckInvariants() const {
  uint64_t count = 0;
  bool allow_underfull = sched_.deletes_since_rebuild() > 0;
  return CheckNode(root_, kCoordMax, true, allow_underfull, &count);
}

Result<uint64_t> ExternalPst::CountNode(PageId id) const {
  if (id == kInvalidPageId) return static_cast<uint64_t>(0);
  NodeHeader h;
  std::vector<Point> pts;
  CCIDX_RETURN_IF_ERROR(LoadNode(id, &h, &pts));
  auto l = CountNode(h.left);
  CCIDX_RETURN_IF_ERROR(l.status());
  auto r = CountNode(h.right);
  CCIDX_RETURN_IF_ERROR(r.status());
  return 1 + *l + *r;
}

Result<uint64_t> ExternalPst::CountPages() const { return CountNode(root_); }

}  // namespace ccidx
