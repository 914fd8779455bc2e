#include "ccidx/classes/simple_class_index.h"

#include <algorithm>
#include <optional>

#include "ccidx/classes/class_build_util.h"

namespace ccidx {

SimpleClassIndex::SimpleClassIndex(Pager* pager,
                                   const ClassHierarchy* hierarchy)
    : hierarchy_(hierarchy) {
  CCIDX_CHECK(hierarchy_ != nullptr && hierarchy_->frozen());
  // Build the balanced binary tree over [0, c). Node 0 is the root.
  BuildNode(0, static_cast<Coord>(hierarchy_->size()) - 1);
  trees_.reserve(nodes_.size());
  for (size_t i = 0; i < nodes_.size(); ++i) {
    trees_.emplace_back(pager);
  }
}

Result<SimpleClassIndex> SimpleClassIndex::Build(
    Pager* pager, const ClassHierarchy* hierarchy,
    RecordStream<Object>* objects) {
  if (hierarchy == nullptr || !hierarchy->frozen()) {
    return Status::InvalidArgument("hierarchy must be frozen");
  }
  SimpleClassIndex index(pager, hierarchy);
  TxnScope txn(pager);
  internal::CollectionSorter sorter(pager);
  std::vector<size_t> path;
  uint64_t n = 0;
  while (true) {
    auto block = objects->Next();
    CCIDX_RETURN_IF_ERROR(block.status());
    if (block->empty()) break;
    for (const Object& o : *block) {
      if (o.class_id >= hierarchy->size()) {
        return Status::InvalidArgument("unknown class");
      }
      Coord code = hierarchy->code(o.class_id);
      path.clear();
      index.PathTo(code, &path);
      for (size_t node : path) {
        CCIDX_RETURN_IF_ERROR(sorter.Add({node, {o.attr, o.id, code}}));
      }
      n++;
    }
  }
  auto merged = sorter.Finish();
  CCIDX_RETURN_IF_ERROR(merged.status());
  CCIDX_RETURN_IF_ERROR(
      internal::LoadGroupedTrees(pager, *merged, &index.trees_));
  index.size_.store(n, std::memory_order_relaxed);
  CCIDX_RETURN_IF_ERROR(txn.Commit());
  return index;
}

Result<SimpleClassIndex> SimpleClassIndex::Build(
    Pager* pager, const ClassHierarchy* hierarchy,
    std::span<const Object> objects) {
  SpanStream<Object> stream(objects);
  return Build(pager, hierarchy, &stream);
}

Result<SimpleClassIndex> SimpleClassIndex::Build(
    Pager* pager, const ClassHierarchy* hierarchy,
    std::vector<Object>&& objects) {
  return Build(pager, hierarchy, std::span<const Object>(objects));
}

size_t SimpleClassIndex::BuildNode(Coord lo, Coord hi) {
  size_t idx = nodes_.size();
  nodes_.push_back({lo, hi, 0, 0});
  if (lo < hi) {
    Coord mid = lo + (hi - lo) / 2;
    size_t left = BuildNode(lo, mid);
    size_t right = BuildNode(mid + 1, hi);
    nodes_[idx].left = left;
    nodes_[idx].right = right;
  }
  return idx;
}

void SimpleClassIndex::PathTo(Coord code, std::vector<size_t>* out) const {
  size_t node = 0;
  while (true) {
    out->push_back(node);
    const RangeNode& rn = nodes_[node];
    if (rn.lo == rn.hi) return;
    Coord mid = rn.lo + (rn.hi - rn.lo) / 2;
    node = code <= mid ? rn.left : rn.right;
  }
}

void SimpleClassIndex::Decompose(size_t node, Coord lo, Coord hi,
                                 std::vector<size_t>* out) const {
  const RangeNode& rn = nodes_[node];
  if (rn.lo > hi || rn.hi < lo) return;
  if (rn.lo >= lo && rn.hi <= hi) {
    out->push_back(node);
    return;
  }
  Decompose(rn.left, lo, hi, out);
  Decompose(rn.right, lo, hi, out);
}

Status SimpleClassIndex::Insert(const Object& o) {
  if (o.class_id >= hierarchy_->size()) {
    return Status::InvalidArgument("unknown class");
  }
  Coord code = hierarchy_->code(o.class_id);
  std::vector<size_t> path;
  PathTo(code, &path);
  for (size_t node : path) {
    CCIDX_RETURN_IF_ERROR(trees_[node].Insert(o.attr, o.id, code));
  }
  size_.fetch_add(1, std::memory_order_relaxed);
  return Status::OK();
}

Status SimpleClassIndex::Delete(const Object& o, bool* found) {
  *found = false;
  if (o.class_id >= hierarchy_->size()) {
    return Status::InvalidArgument("unknown class");
  }
  Coord code = hierarchy_->code(o.class_id);
  std::vector<size_t> path;
  PathTo(code, &path);
  bool any = false, all = true;
  for (size_t node : path) {
    bool f = false;
    CCIDX_RETURN_IF_ERROR(trees_[node].Delete(o.attr, o.id, &f));
    any |= f;
    all &= f;
  }
  if (any && !all) {
    return Status::Corruption("object present in only part of its path");
  }
  if (any) {
    size_.fetch_sub(1, std::memory_order_relaxed);
    *found = true;
  }
  return Status::OK();
}

void SimpleClassIndex::WarmCanonicalRoots(
    const std::vector<size_t>& canonical) const {
  if (canonical.size() < 2 || trees_.empty()) return;
  Pager* pager = trees_[canonical[0]].pager();
  if (pager->speculation_budget() == 0) return;
  std::vector<PageId> roots;
  roots.reserve(canonical.size());
  for (size_t node : canonical) {
    PageId r = trees_[node].root();
    if (r != kInvalidPageId) roots.push_back(r);
  }
  if (roots.size() >= 2) pager->WarmMany(roots);
}

Status SimpleClassIndex::Query(uint32_t class_id, Coord a1, Coord a2,
                               ResultSink<uint64_t>* sink) const {
  if (class_id >= hierarchy_->size()) {
    return Status::InvalidArgument("unknown class");
  }
  std::vector<size_t> canonical;
  Decompose(0, hierarchy_->code(class_id),
            hierarchy_->subtree_max_code(class_id), &canonical);
  last_query_collections_.store(canonical.size(), std::memory_order_relaxed);
  WarmCanonicalRoots(canonical);
  TransformSink<BtEntry, uint64_t> xform(
      sink, [](const BtEntry& e) { return std::optional<uint64_t>(e.value); });
  for (size_t node : canonical) {
    if (xform.stopped()) break;
    CCIDX_RETURN_IF_ERROR(trees_[node].RangeScan(a1, a2, &xform));
  }
  return Status::OK();
}

Status SimpleClassIndex::QueryObjects(uint32_t class_id, Coord a1, Coord a2,
                                      ResultSink<Object>* sink) const {
  if (class_id >= hierarchy_->size()) {
    return Status::InvalidArgument("unknown class");
  }
  std::vector<size_t> canonical;
  Decompose(0, hierarchy_->code(class_id),
            hierarchy_->subtree_max_code(class_id), &canonical);
  last_query_collections_.store(canonical.size(), std::memory_order_relaxed);
  WarmCanonicalRoots(canonical);
  TransformSink<BtEntry, Object> xform(sink, [this](const BtEntry& e) {
    return std::optional<Object>(
        Object{e.value, hierarchy_->class_at_code(e.aux), e.key});
  });
  for (size_t node : canonical) {
    if (xform.stopped()) break;
    CCIDX_RETURN_IF_ERROR(trees_[node].RangeScan(a1, a2, &xform));
  }
  return Status::OK();
}

}  // namespace ccidx
