#include "ccidx/classes/rake_contract.h"

#include <algorithm>
#include <optional>

#include "ccidx/build/external_sorter.h"
#include "ccidx/build/point_group.h"

namespace ccidx {

std::vector<uint32_t> ComputeThickEdges(const ClassHierarchy& h) {
  std::vector<uint32_t> thick(h.size(), kNoClass);
  for (uint32_t c = 0; c < h.size(); ++c) {
    uint32_t best = kNoClass;
    uint32_t best_size = 0;
    for (uint32_t child : h.children(c)) {
      if (h.subtree_size(child) > best_size) {
        best_size = h.subtree_size(child);
        best = child;
      }
    }
    thick[c] = best;
  }
  return thick;
}

uint32_t ThinEdgesToRoot(const ClassHierarchy& h,
                         const std::vector<uint32_t>& thick,
                         uint32_t class_id) {
  uint32_t count = 0;
  uint32_t c = class_id;
  while (h.parent(c) != kNoClass) {
    uint32_t p = h.parent(c);
    if (thick[p] != c) count++;
    c = p;
  }
  return count;
}

Result<RakeContractIndex> RakeContractIndex::Build(
    Pager* pager, const ClassHierarchy* hierarchy,
    RecordStream<Object>* objects) {
  if (hierarchy == nullptr || !hierarchy->frozen()) {
    return Status::InvalidArgument("hierarchy must be frozen");
  }
  const ClassHierarchy& h = *hierarchy;
  RakeContractIndex index(hierarchy);
  TxnScope txn(pager);

  // Thick-path decomposition (label-edges).
  std::vector<uint32_t> thick = ComputeThickEdges(h);
  index.path_of_.assign(h.size(), 0);
  index.pos_in_path_.assign(h.size(), 0);
  std::vector<std::vector<uint32_t>> path_classes;
  for (uint32_t c = 0; c < h.size(); ++c) {
    // c is a path top iff it is a root or its parent edge is thin.
    uint32_t p = h.parent(c);
    if (p != kNoClass && thick[p] == c) continue;
    std::vector<uint32_t> cls;
    for (uint32_t v = c; v != kNoClass; v = thick[v]) {
      index.path_of_[v] = path_classes.size();
      index.pos_in_path_[v] = static_cast<Coord>(cls.size());
      cls.push_back(v);
    }
    path_classes.push_back(std::move(cls));
  }

  // Distribute objects: each object lands in its own class's path, and in
  // the path of every class reached by walking thin edges toward the root
  // (the rake/contract "copy collection to parent" steps). The tagged
  // copies are external-sorted by (path, point) in one pass.
  ExternalSorter<Keyed<Point>, KeyedLess<Point, PointXOrder>> sorter(pager);
  uint32_t max_rep = 0;
  while (true) {
    auto block = objects->Next();
    CCIDX_RETURN_IF_ERROR(block.status());
    if (block->empty()) break;
    for (const Object& o : *block) {
      if (o.class_id >= h.size()) {
        return Status::InvalidArgument("object with unknown class");
      }
      uint32_t copies = 0;
      uint32_t c = o.class_id;
      while (true) {
        size_t pid = index.path_of_[c];
        CCIDX_RETURN_IF_ERROR(
            sorter.Add({pid, {o.attr, index.pos_in_path_[c], o.id}}));
        copies++;
        uint32_t top = path_classes[pid].front();
        uint32_t p = h.parent(top);
        if (p == kNoClass) break;
        c = p;  // thin edge: the copy lands at the attachment class
      }
      max_rep = std::max(max_rep, copies);
    }
  }
  index.max_replication_ = max_rep;

  // One structure per path: raked B+-tree for singletons, 3-sided tree
  // for longer paths. Full extent of class at position i == points with
  // y >= i. Paths stream their groups out of the merged sorted run in
  // ordinal order; paths with no objects build empty.
  auto merged = sorter.Finish();
  CCIDX_RETURN_IF_ERROR(merged.status());
  GroupedStream<Point> groups(*merged);
  uint64_t group_key = 0;
  auto has_group = groups.NextGroup(&group_key);
  CCIDX_RETURN_IF_ERROR(has_group.status());
  bool pending = *has_group;
  for (size_t pid = 0; pid < path_classes.size(); ++pid) {
    const bool populated = pending && group_key == pid;
    if (path_classes[pid].size() == 1) {
      Result<BPlusTree> bt = BPlusTree(pager);
      if (populated) {
        // Within one path the points ascend by (x, pos, id); a singleton
        // path has constant pos, so the mapped entries ascend by
        // (key, value) as BulkLoad requires.
        Coord code = h.code(path_classes[pid][0]);
        auto to_entry = [code](const Point& pt) {
          return BtEntry{pt.x, pt.id, code};
        };
        MapStream<Point, BtEntry, decltype(to_entry)> entries(
            groups.records(), to_entry);
        bt = BPlusTree::BulkLoad(pager, &entries);
        CCIDX_RETURN_IF_ERROR(bt.status());
      }
      auto ts = AugmentedThreeSidedTree::Build(pager, std::vector<Point>{});
      CCIDX_RETURN_IF_ERROR(ts.status());
      index.paths_.emplace_back(std::move(*bt), std::move(*ts), true,
                                path_classes[pid]);
    } else {
      Result<AugmentedThreeSidedTree> ts =
          AugmentedThreeSidedTree::Build(pager, std::vector<Point>{});
      if (populated) {
        auto group = PointGroup::FromStream(
            pager, groups.records(), DefaultSortBudget(pager, sizeof(Point)),
            /*require_above_diagonal=*/false);
        CCIDX_RETURN_IF_ERROR(group.status());
        ts = AugmentedThreeSidedTree::Build(pager, std::move(*group));
      }
      CCIDX_RETURN_IF_ERROR(ts.status());
      BPlusTree bt(pager);
      index.paths_.emplace_back(std::move(bt), std::move(*ts), false,
                                path_classes[pid]);
    }
    if (populated) {
      has_group = groups.NextGroup(&group_key);
      CCIDX_RETURN_IF_ERROR(has_group.status());
      pending = *has_group;
    }
  }
  CCIDX_RETURN_IF_ERROR(txn.Commit());
  return index;
}

Result<RakeContractIndex> RakeContractIndex::Build(
    Pager* pager, const ClassHierarchy* hierarchy,
    std::span<const Object> objects) {
  SpanStream<Object> stream(objects);
  return Build(pager, hierarchy, &stream);
}

Result<RakeContractIndex> RakeContractIndex::Build(
    Pager* pager, const ClassHierarchy* hierarchy,
    const std::vector<Object>& objects) {
  return Build(pager, hierarchy, std::span<const Object>(objects));
}

Status RakeContractIndex::Query(uint32_t class_id, Coord a1, Coord a2,
                                ResultSink<uint64_t>* sink) const {
  if (class_id >= hierarchy_->size()) {
    return Status::InvalidArgument("unknown class");
  }
  const PathStructure& ps = paths_[path_of_[class_id]];
  if (ps.is_btree) {
    TransformSink<BtEntry, uint64_t> xform(sink, [](const BtEntry& e) {
      return std::optional<uint64_t>(e.value);
    });
    return ps.btree.RangeScan(a1, a2, &xform);
  }
  TransformSink<Point, uint64_t> xform(sink, [](const Point& p) {
    return std::optional<uint64_t>(p.id);
  });
  return ps.tstree.Query({a1, a2, pos_in_path_[class_id]}, &xform);
}

Status RakeContractIndex::Insert(const Object& o) {
  if (o.class_id >= hierarchy_->size()) {
    return Status::InvalidArgument("unknown class");
  }
  const ClassHierarchy& h = *hierarchy_;
  uint32_t copies = 0;
  uint32_t c = o.class_id;
  // Same walk as Build: own path, then each thin-edge attachment point.
  // Each covering structure commits its own WAL txn inside its own
  // latches; a crash mid-walk durably keeps a replica prefix, and the
  // composite converges by the resumable-retry rule documented on
  // Delete below.
  while (true) {
    size_t pid = path_of_[c];
    PathStructure& ps = paths_[pid];
    if (ps.is_btree) {
      CCIDX_RETURN_IF_ERROR(ps.btree.Insert(o.attr, o.id, h.code(c)));
    } else {
      CCIDX_RETURN_IF_ERROR(
          ps.tstree.Insert({o.attr, pos_in_path_[c], o.id}));
    }
    copies++;
    uint32_t top = ps.classes.front();
    uint32_t p = h.parent(top);
    if (p == kNoClass) break;
    c = p;
  }
  // CAS max: concurrent inserters only ever raise the watermark.
  uint32_t cur = max_replication_.load(std::memory_order_relaxed);
  while (copies > cur && !max_replication_.compare_exchange_weak(
                             cur, copies, std::memory_order_relaxed)) {
  }
  return Status::OK();
}

Status RakeContractIndex::Delete(const Object& o, bool* found) {
  *found = false;
  if (o.class_id >= hierarchy_->size()) {
    return Status::InvalidArgument("unknown class");
  }
  const ClassHierarchy& h = *hierarchy_;
  // Same walk as Insert: the object's <= log2 c + 1 covering structures.
  // Raked B+-trees delete natively; path 3-sided trees weak-delete
  // through the shared dynamization layer (each with its own scheduled
  // purge), so a delete costs O(log2 c) component deletes.
  //
  // Each component delete is individually atomic under device faults,
  // but the composite is RESUMABLE rather than atomic (like Insert's
  // replica walk): a fault mid-walk returns the error with only a prefix
  // of the replicas removed, and retrying the same Delete removes the
  // rest — found reports whether ANY replica was removed, so a retry
  // after a partial failure still reports true and converges instead of
  // wedging on replica-count disagreement.
  uint32_t c = o.class_id;
  while (true) {
    size_t pid = path_of_[c];
    PathStructure& ps = paths_[pid];
    bool hit = false;
    if (ps.is_btree) {
      CCIDX_RETURN_IF_ERROR(ps.btree.Delete(o.attr, o.id, &hit));
    } else {
      CCIDX_RETURN_IF_ERROR(
          ps.tstree.Delete({o.attr, pos_in_path_[c], o.id}, &hit));
    }
    *found = *found || hit;
    uint32_t top = ps.classes.front();
    uint32_t p = h.parent(top);
    if (p == kNoClass) break;
    c = p;
  }
  return Status::OK();
}

}  // namespace ccidx
