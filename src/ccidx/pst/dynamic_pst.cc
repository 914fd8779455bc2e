#include "ccidx/pst/dynamic_pst.h"

#include <algorithm>

#include "ccidx/io/wal.h"
#include "ccidx/simd/filter_emit.h"
#include <cmath>

namespace ccidx {

DynamicPst::DynamicPst(Pager* pager)
    : pager_(pager), root_(kInvalidPageId), size_(0) {
  CCIDX_CHECK(NodeCapacity() >= 2);
}

uint32_t DynamicPst::NodeCapacity() const {
  return static_cast<uint32_t>(
      (pager_->page_size() - sizeof(NodeHeader)) / sizeof(Point));
}

Status DynamicPst::LoadNode(PageId id, NodeHeader* h,
                            std::vector<Point>* pts) const {
  auto ref = pager_->Pin(id);
  CCIDX_RETURN_IF_ERROR(ref.status());
  PageReader r(ref->data());
  *h = r.Get<NodeHeader>();
  pts->resize(h->count);
  r.GetArray(std::span<Point>(*pts));
  return Status::OK();
}

Status DynamicPst::StoreNode(PageId id, NodeHeader& h,
                             std::vector<Point>* pts) const {
  h.count = static_cast<uint32_t>(pts->size());
  h.min_y = pts->empty() ? kCoordMax : pts->back().y;
  auto ref = pager_->PinMut(id, Pager::MutMode::kOverwrite);
  CCIDX_RETURN_IF_ERROR(ref.status());
  PageWriter w(ref->data());
  w.Put(h);
  w.PutArray(std::span<const Point>(*pts));
  return ref->Release();
}

Result<PageId> DynamicPst::BuildNode(Pager* pager, PointGroup group,
                                     uint32_t cap) {
  if (group.empty()) return kInvalidPageId;
  NodeHeader h{};
  h.left = kInvalidPageId;
  h.right = kInvalidPageId;
  h.sub_xlo = group.first_x();
  h.sub_xhi = group.last_x();
  h.weight = group.size();

  std::vector<Point> own;
  if (group.size() <= cap) {
    auto all = std::move(group).TakeAll();
    CCIDX_RETURN_IF_ERROR(all.status());
    own = std::move(*all);
    std::sort(own.begin(), own.end(), PointDescYOrder());
  } else {
    // The rest splits into two x-halves, built as the scan closes them.
    // A one-element rest yields a single child: the right half (the even
    // split gives the left child floor(rest/2) = 0 points).
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

Result<DynamicPst> DynamicPst::Build(Pager* pager, PointGroup points) {
  DynamicPst tree(pager);
  // Every page is allocated inside the txn, so under a WAL the log
  // carries kAlloc records only; a crash mid-build frees the partial tree
  // on recovery.
  TxnScope txn(pager);
  uint64_t n = points.size();
  auto root = BuildNode(pager, std::move(points), tree.NodeCapacity());
  CCIDX_RETURN_IF_ERROR(root.status());
  tree.root_ = *root;
  tree.size_ = n;
  CCIDX_RETURN_IF_ERROR(txn.Commit());
  return tree;
}

Result<DynamicPst> DynamicPst::Build(Pager* pager,
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

Result<DynamicPst> DynamicPst::Build(Pager* pager,
                                     std::span<const Point> points) {
  return Build(pager, std::vector<Point>(points.begin(), points.end()));
}

Result<DynamicPst> DynamicPst::Build(Pager* pager,
                                     std::vector<Point>&& points) {
  if (!std::is_sorted(points.begin(), points.end(), PointXOrder())) {
    std::sort(points.begin(), points.end(), PointXOrder());
  }
  return Build(pager, PointGroup::FromVector(std::move(points)));
}

Status DynamicPst::Insert(const Point& p) {
  std::lock_guard<std::mutex> write_lock(*write_mu_);
  // Single-writer structure: one txn covers the whole insert — descent
  // writes, any scapegoat rebuild, and the scheduled global rebuild —
  // committed before write_mu_ is released. The counters and root_ move
  // only after the stores that back them succeed: a failed descent store
  // leaves the tree as it was, and the scope frees its fresh page.
  TxnScope txn(pager_);
  const uint32_t cap = NodeCapacity();
  if (root_ == kInvalidPageId) {
    NodeHeader h{};
    h.left = kInvalidPageId;
    h.right = kInvalidPageId;
    h.sub_xlo = h.sub_xhi = p.x;
    h.weight = 1;
    std::vector<Point> pts = {p};
    PageId id = pager_->Allocate();
    CCIDX_RETURN_IF_ERROR(StoreNode(id, h, &pts));
    root_ = id;
    size_++;
    sched_.NoteInsert();
    return txn.Commit();
  }

  struct PathEntry {
    PageId id;
    uint64_t weight;  // after the increment
    int side;         // side taken to reach the NEXT entry (0 = L, 1 = R)
  };
  std::vector<PathEntry> path;

  Point carried = p;
  PageId id = root_;
  NodeHeader h;
  std::vector<Point> pts;
  while (true) {
    CCIDX_RETURN_IF_ERROR(LoadNode(id, &h, &pts));
    h.weight++;
    h.sub_xlo = std::min(h.sub_xlo, carried.x);
    h.sub_xhi = std::max(h.sub_xhi, carried.x);
    path.push_back({id, h.weight, -1});

    const bool is_leaf =
        h.left == kInvalidPageId && h.right == kInvalidPageId;
    const Coord old_min = h.min_y;
    // An internal node may only absorb a point at or above its current
    // minimum (descendants sit at or below that minimum; letting a lower
    // point stay here would break the heap prune).
    bool absorb = pts.size() < cap && (is_leaf || carried.y >= old_min);
    if (absorb) {
      auto pos = std::ranges::lower_bound(pts, carried, PointDescYOrder());
      pts.insert(pos, carried);
      CCIDX_RETURN_IF_ERROR(StoreNode(id, h, &pts));
      break;
    }
    if (carried.y > old_min ||
        (pts.size() < cap && is_leaf)) {  // displace the minimum
      auto pos = std::ranges::lower_bound(pts, carried, PointDescYOrder());
      pts.insert(pos, carried);
      carried = pts.back();
      pts.pop_back();
    }
    // Route `carried` to a child, creating a leaf if needed.
    int side;
    NodeHeader lh, rh;
    std::vector<Point> tmp;
    if (h.left == kInvalidPageId && h.right == kInvalidPageId) {
      side = 0;
    } else if (h.left == kInvalidPageId) {
      CCIDX_RETURN_IF_ERROR(LoadNode(h.right, &rh, &tmp));
      side = carried.x < rh.sub_xlo ? 0 : 1;
    } else if (h.right == kInvalidPageId) {
      CCIDX_RETURN_IF_ERROR(LoadNode(h.left, &lh, &tmp));
      side = carried.x > lh.sub_xhi ? 1 : 0;
    } else {
      CCIDX_RETURN_IF_ERROR(LoadNode(h.left, &lh, &tmp));
      tmp.clear();
      CCIDX_RETURN_IF_ERROR(LoadNode(h.right, &rh, &tmp));
      if (carried.x <= lh.sub_xhi) {
        side = 0;
      } else if (carried.x >= rh.sub_xlo) {
        side = 1;
      } else {
        side = lh.weight <= rh.weight ? 0 : 1;  // fill the gap evenly
      }
    }
    path.back().side = side;
    PageId child = side == 0 ? h.left : h.right;
    if (child == kInvalidPageId) {
      NodeHeader nh{};
      nh.left = kInvalidPageId;
      nh.right = kInvalidPageId;
      nh.sub_xlo = nh.sub_xhi = carried.x;
      nh.weight = 1;
      std::vector<Point> npts = {carried};
      child = pager_->Allocate();
      CCIDX_RETURN_IF_ERROR(StoreNode(child, nh, &npts));
      if (side == 0) {
        h.left = child;
      } else {
        h.right = child;
      }
      CCIDX_RETURN_IF_ERROR(StoreNode(id, h, &pts));
      path.push_back({child, 1, -1});
      break;
    }
    CCIDX_RETURN_IF_ERROR(StoreNode(id, h, &pts));
    id = child;
  }

  size_++;
  sched_.NoteInsert();

  // The point has landed. A failed rebalance below still leaves it in the
  // tree, so the descent's fresh leaf must not be rolled back: the txn
  // commits either way and the rebalance error is reported after it.
  Status rebalanced = [&]() -> Status {
    // Scapegoat check: rebuild the highest child subtree that outweighs
    // the balance fraction of its parent.
    for (size_t i = 0; i + 1 < path.size(); ++i) {
      if (static_cast<double>(path[i + 1].weight) >
          kAlpha * static_cast<double>(path[i].weight)) {
        PageId sub = path[i + 1].id;
        CCIDX_RETURN_IF_ERROR(RebuildAt(&sub));
        NodeHeader ph;
        std::vector<Point> ppts;
        CCIDX_RETURN_IF_ERROR(LoadNode(path[i].id, &ph, &ppts));
        if (path[i].side == 0) {
          ph.left = sub;
        } else {
          ph.right = sub;
        }
        CCIDX_RETURN_IF_ERROR(StoreNode(path[i].id, ph, &ppts));
        break;
      }
    }
    if (sched_.ShouldRebuild(size_)) {
      CCIDX_RETURN_IF_ERROR(RebuildAt(&root_));
      sched_.Reset();
    }
    return Status::OK();
  }();
  Status committed = txn.Commit();
  return rebalanced.ok() ? committed : rebalanced;
}

Status DynamicPst::DeleteNode(PageId id, const Point& p, bool* found) {
  if (id == kInvalidPageId) {
    *found = false;
    return Status::OK();
  }
  NodeHeader h;
  std::vector<Point> pts;
  CCIDX_RETURN_IF_ERROR(LoadNode(id, &h, &pts));
  if (p.x < h.sub_xlo || p.x > h.sub_xhi) {
    *found = false;
    return Status::OK();
  }
  for (size_t i = 0; i < pts.size(); ++i) {
    if (pts[i] == p) {
      pts.erase(pts.begin() + i);
      h.weight--;
      *found = true;
      return StoreNode(id, h, &pts);
    }
  }
  // Heap order: every descendant lies at or below this node's minimum.
  if (!pts.empty() && p.y > h.min_y) {
    *found = false;
    return Status::OK();
  }
  CCIDX_RETURN_IF_ERROR(DeleteNode(h.left, p, found));
  if (!*found) {
    CCIDX_RETURN_IF_ERROR(DeleteNode(h.right, p, found));
  }
  if (*found) {
    h.weight--;
    CCIDX_RETURN_IF_ERROR(StoreNode(id, h, &pts));
  }
  return Status::OK();
}

Status DynamicPst::Delete(const Point& p, bool* found) {
  std::lock_guard<std::mutex> write_lock(*write_mu_);
  // A not-found delete writes nothing: the uncommitted scope unwinds as
  // a zero-record no-op (no fsync).
  TxnScope txn(pager_);
  *found = false;
  if (root_ == kInvalidPageId) return Status::OK();
  CCIDX_RETURN_IF_ERROR(DeleteNode(root_, p, found));
  if (*found) {
    size_--;
    sched_.NoteDelete();
    if (sched_.ShouldRebuild(size_)) {
      CCIDX_RETURN_IF_ERROR(RebuildAt(&root_));
      sched_.Reset();
    }
    return txn.Commit();
  }
  return Status::OK();
}

Status DynamicPst::QueryNode(PageId id, const ThreeSidedQuery& q,
                             SinkEmitter<Point>& em) const {
  if (id == kInvalidPageId || em.stopped()) return Status::OK();
  NodeHeader h;
  {
    // Zero-copy scan of the node's points; pin dropped before recursion.
    auto ref = pager_->Pin(id);
    CCIDX_RETURN_IF_ERROR(ref.status());
    PageReader r(ref->data());
    h = r.Get<NodeHeader>();
    if (h.sub_xlo > q.xhi || h.sub_xhi < q.xlo) return Status::OK();
    std::span<const Point> pts =
        ViewArray<Point>(*ref, sizeof(NodeHeader), h.count);
    simd::EmitFilteredXRange(
        em, pts.first(simd::PrefixYAtLeast(simd::Kernels(), pts, q.ylo)),
        q.xlo, q.xhi);
  }
  if (h.min_y < q.ylo || em.stopped()) return Status::OK();
  CCIDX_RETURN_IF_ERROR(QueryNode(h.left, q, em));
  return QueryNode(h.right, q, em);
}

Status DynamicPst::Query(const ThreeSidedQuery& q,
                         ResultSink<Point>* sink) const {
  if (q.xlo > q.xhi) return Status::OK();
  SinkEmitter<Point> em(sink);
  return QueryNode(root_, q, em);
}

Status DynamicPst::CollectNode(PageId id, std::vector<Point>* out) const {
  if (id == kInvalidPageId) return Status::OK();
  NodeHeader h;
  std::vector<Point> pts;
  CCIDX_RETURN_IF_ERROR(LoadNode(id, &h, &pts));
  out->insert(out->end(), pts.begin(), pts.end());
  CCIDX_RETURN_IF_ERROR(CollectNode(h.left, out));
  return CollectNode(h.right, out);
}

Status DynamicPst::FreeNode(PageId id) {
  if (id == kInvalidPageId) return Status::OK();
  NodeHeader h;
  std::vector<Point> pts;
  CCIDX_RETURN_IF_ERROR(LoadNode(id, &h, &pts));
  CCIDX_RETURN_IF_ERROR(FreeNode(h.left));
  CCIDX_RETURN_IF_ERROR(FreeNode(h.right));
  return pager_->Free(id);
}

Status DynamicPst::RebuildAt(PageId* id) {
  std::vector<Point> all;
  CCIDX_RETURN_IF_ERROR(CollectNode(*id, &all));
  CCIDX_RETURN_IF_ERROR(FreeNode(*id));
  std::sort(all.begin(), all.end(), PointXOrder());
  TxnScope txn(pager_);  // a failed build frees its partial pages
  auto fresh = BuildNode(pager_, PointGroup::FromVector(std::move(all)),
                         NodeCapacity());
  CCIDX_RETURN_IF_ERROR(fresh.status());
  *id = *fresh;
  return txn.Commit();
}

Status DynamicPst::Destroy() {
  std::lock_guard<std::mutex> write_lock(*write_mu_);
  TxnScope txn(pager_);
  CCIDX_RETURN_IF_ERROR(FreeNode(root_));
  root_ = kInvalidPageId;
  size_ = 0;
  return txn.Commit();
}

Status DynamicPst::CheckNode(PageId id, Coord parent_min_y, bool is_root,
                             uint64_t* weight, uint32_t depth,
                             uint32_t max_depth) const {
  *weight = 0;
  if (id == kInvalidPageId) return Status::OK();
  if (depth > max_depth) {
    return Status::Corruption("dynamic PST deeper than balance envelope");
  }
  NodeHeader h;
  std::vector<Point> pts;
  CCIDX_RETURN_IF_ERROR(LoadNode(id, &h, &pts));
  if (!std::is_sorted(pts.begin(), pts.end(), PointDescYOrder())) {
    return Status::Corruption("node not descending by y");
  }
  for (const Point& p : pts) {
    if (p.x < h.sub_xlo || p.x > h.sub_xhi) {
      return Status::Corruption("point outside node x-range");
    }
    if (!is_root && p.y > parent_min_y) {
      return Status::Corruption("heap order violated");
    }
  }
  if (!pts.empty() && h.min_y != pts.back().y) {
    return Status::Corruption("min_y incorrect");
  }
  if (pts.empty() && h.min_y != kCoordMax) {
    return Status::Corruption("empty node min_y sentinel wrong");
  }
  uint64_t wl = 0, wr = 0;
  Coord pass_min = pts.empty() ? parent_min_y : h.min_y;
  CCIDX_RETURN_IF_ERROR(
      CheckNode(h.left, pass_min, false, &wl, depth + 1, max_depth));
  CCIDX_RETURN_IF_ERROR(
      CheckNode(h.right, pass_min, false, &wr, depth + 1, max_depth));
  if (h.weight != pts.size() + wl + wr) {
    return Status::Corruption("weight counter mismatch");
  }
  *weight = h.weight;
  return Status::OK();
}

Status DynamicPst::CheckInvariants() const {
  if (root_ == kInvalidPageId) {
    return size_ == 0 ? Status::OK()
                      : Status::Corruption("empty tree, nonzero size");
  }
  // Scapegoat balance: depth <= log_{1/alpha}(weight) + slack, loosened by
  // pending deletions awaiting the next global rebuild.
  double denom = std::log(1.0 / kAlpha);
  uint32_t max_depth = static_cast<uint32_t>(
      std::log(static_cast<double>(2 * size_ + 4)) / denom) + 6;
  uint64_t weight = 0;
  CCIDX_RETURN_IF_ERROR(
      CheckNode(root_, kCoordMax, true, &weight, 0, max_depth));
  if (weight != size_) {
    return Status::Corruption("size mismatch");
  }
  return Status::OK();
}

}  // namespace ccidx
