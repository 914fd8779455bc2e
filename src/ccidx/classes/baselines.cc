#include "ccidx/classes/baselines.h"

#include <optional>

#include "ccidx/classes/class_build_util.h"

namespace ccidx {

namespace {

// Drains an object stream, tagging each object's replicas with the
// collection ordinals `fan` yields, then bulk-loads every collection tree
// from the merged sorted stream. The per-scheme Build functions differ
// only in the fan-out rule.
template <typename Fan>
Status BulkLoadCollections(Pager* pager, const ClassHierarchy& h,
                           RecordStream<Object>* objects,
                           std::vector<BPlusTree>* trees, uint64_t* count,
                           Fan fan) {
  internal::CollectionSorter sorter(pager);
  uint64_t n = 0;
  while (true) {
    auto block = objects->Next();
    CCIDX_RETURN_IF_ERROR(block.status());
    if (block->empty()) break;
    for (const Object& o : *block) {
      if (o.class_id >= h.size()) {
        return Status::InvalidArgument("unknown class");
      }
      CCIDX_RETURN_IF_ERROR(fan(o, &sorter));
      n++;
    }
  }
  auto merged = sorter.Finish();
  CCIDX_RETURN_IF_ERROR(merged.status());
  CCIDX_RETURN_IF_ERROR(internal::LoadGroupedTrees(pager, *merged, trees));
  *count = n;
  return Status::OK();
}

}  // namespace

SingleIndexBaseline::SingleIndexBaseline(Pager* pager,
                                         const ClassHierarchy* hierarchy)
    : hierarchy_(hierarchy), tree_(pager) {
  CCIDX_CHECK(hierarchy_ != nullptr && hierarchy_->frozen());
}

Result<SingleIndexBaseline> SingleIndexBaseline::Build(
    Pager* pager, const ClassHierarchy* hierarchy,
    RecordStream<Object>* objects) {
  if (hierarchy == nullptr || !hierarchy->frozen()) {
    return Status::InvalidArgument("hierarchy must be frozen");
  }
  SingleIndexBaseline index(pager, hierarchy);
  TxnScope txn(pager);
  ExternalSorter<BtEntry> sorter(pager);
  while (true) {
    auto block = objects->Next();
    CCIDX_RETURN_IF_ERROR(block.status());
    if (block->empty()) break;
    for (const Object& o : *block) {
      if (o.class_id >= hierarchy->size()) {
        return Status::InvalidArgument("unknown class");
      }
      CCIDX_RETURN_IF_ERROR(
          sorter.Add({o.attr, o.id, hierarchy->code(o.class_id)}));
    }
  }
  auto merged = sorter.Finish();
  CCIDX_RETURN_IF_ERROR(merged.status());
  auto tree = BPlusTree::BulkLoad(pager, *merged);
  CCIDX_RETURN_IF_ERROR(tree.status());
  index.tree_ = std::move(*tree);
  CCIDX_RETURN_IF_ERROR(txn.Commit());
  return index;
}

Result<SingleIndexBaseline> SingleIndexBaseline::Build(
    Pager* pager, const ClassHierarchy* hierarchy,
    std::span<const Object> objects) {
  SpanStream<Object> stream(objects);
  return Build(pager, hierarchy, &stream);
}

Status SingleIndexBaseline::Insert(const Object& o) {
  if (o.class_id >= hierarchy_->size()) {
    return Status::InvalidArgument("unknown class");
  }
  return tree_.Insert(o.attr, o.id, hierarchy_->code(o.class_id));
}

Status SingleIndexBaseline::Delete(const Object& o, bool* found) {
  return tree_.Delete(o.attr, o.id, found);
}

Status SingleIndexBaseline::Query(uint32_t class_id, Coord a1, Coord a2,
                                  ResultSink<uint64_t>* sink) const {
  if (class_id >= hierarchy_->size()) {
    return Status::InvalidArgument("unknown class");
  }
  Coord lo = hierarchy_->code(class_id);
  Coord hi = hierarchy_->subtree_max_code(class_id);
  TransformSink<BtEntry, uint64_t> xform(
      sink, [lo, hi](const BtEntry& e) -> std::optional<uint64_t> {
        if (e.aux < lo || e.aux > hi) return std::nullopt;
        return e.value;
      });
  return tree_.RangeScan(a1, a2, &xform);
}

Status SingleIndexBaseline::Query(uint32_t class_id, Coord a1, Coord a2,
                                  std::vector<uint64_t>* out) const {
  VectorSink<uint64_t> sink(out);
  return Query(class_id, a1, a2, &sink);
}

FullExtentIndex::FullExtentIndex(Pager* pager,
                                 const ClassHierarchy* hierarchy)
    : hierarchy_(hierarchy) {
  CCIDX_CHECK(hierarchy_ != nullptr && hierarchy_->frozen());
  trees_.reserve(hierarchy_->size());
  for (uint32_t i = 0; i < hierarchy_->size(); ++i) {
    trees_.emplace_back(pager);
  }
}

Result<FullExtentIndex> FullExtentIndex::Build(Pager* pager,
                                               const ClassHierarchy* hierarchy,
                                               RecordStream<Object>* objects) {
  if (hierarchy == nullptr || !hierarchy->frozen()) {
    return Status::InvalidArgument("hierarchy must be frozen");
  }
  FullExtentIndex index(pager, hierarchy);
  TxnScope txn(pager);
  const ClassHierarchy& h = *hierarchy;
  uint64_t n = 0;
  CCIDX_RETURN_IF_ERROR(BulkLoadCollections(
      pager, h, objects, &index.trees_, &n,
      [&h](const Object& o, internal::CollectionSorter* sorter) {
        Coord code = h.code(o.class_id);
        for (uint32_t c = o.class_id; c != kNoClass; c = h.parent(c)) {
          CCIDX_RETURN_IF_ERROR(sorter->Add({c, {o.attr, o.id, code}}));
        }
        return Status::OK();
      }));
  CCIDX_RETURN_IF_ERROR(txn.Commit());
  index.size_.store(n, std::memory_order_relaxed);
  return index;
}

Result<FullExtentIndex> FullExtentIndex::Build(Pager* pager,
                                               const ClassHierarchy* hierarchy,
                                               std::span<const Object> objects) {
  SpanStream<Object> stream(objects);
  return Build(pager, hierarchy, &stream);
}

Status FullExtentIndex::Insert(const Object& o) {
  if (o.class_id >= hierarchy_->size()) {
    return Status::InvalidArgument("unknown class");
  }
  Coord code = hierarchy_->code(o.class_id);
  for (uint32_t c = o.class_id; c != kNoClass; c = hierarchy_->parent(c)) {
    CCIDX_RETURN_IF_ERROR(trees_[c].Insert(o.attr, o.id, code));
  }
  size_.fetch_add(1, std::memory_order_relaxed);
  return Status::OK();
}

Status FullExtentIndex::Delete(const Object& o, bool* found) {
  *found = false;
  if (o.class_id >= hierarchy_->size()) {
    return Status::InvalidArgument("unknown class");
  }
  bool any = false;
  for (uint32_t c = o.class_id; c != kNoClass; c = hierarchy_->parent(c)) {
    bool f = false;
    CCIDX_RETURN_IF_ERROR(trees_[c].Delete(o.attr, o.id, &f));
    any |= f;
  }
  if (any) {
    size_.fetch_sub(1, std::memory_order_relaxed);
    *found = true;
  }
  return Status::OK();
}

Status FullExtentIndex::Query(uint32_t class_id, Coord a1, Coord a2,
                              ResultSink<uint64_t>* sink) const {
  if (class_id >= hierarchy_->size()) {
    return Status::InvalidArgument("unknown class");
  }
  TransformSink<BtEntry, uint64_t> xform(
      sink, [](const BtEntry& e) { return std::optional<uint64_t>(e.value); });
  return trees_[class_id].RangeScan(a1, a2, &xform);
}

Status FullExtentIndex::Query(uint32_t class_id, Coord a1, Coord a2,
                              std::vector<uint64_t>* out) const {
  VectorSink<uint64_t> sink(out);
  return Query(class_id, a1, a2, &sink);
}

ExtentOnlyIndex::ExtentOnlyIndex(Pager* pager,
                                 const ClassHierarchy* hierarchy)
    : hierarchy_(hierarchy) {
  CCIDX_CHECK(hierarchy_ != nullptr && hierarchy_->frozen());
  trees_.reserve(hierarchy_->size());
  for (uint32_t i = 0; i < hierarchy_->size(); ++i) {
    trees_.emplace_back(pager);
  }
}

Result<ExtentOnlyIndex> ExtentOnlyIndex::Build(Pager* pager,
                                               const ClassHierarchy* hierarchy,
                                               RecordStream<Object>* objects) {
  if (hierarchy == nullptr || !hierarchy->frozen()) {
    return Status::InvalidArgument("hierarchy must be frozen");
  }
  ExtentOnlyIndex index(pager, hierarchy);
  TxnScope txn(pager);
  const ClassHierarchy& h = *hierarchy;
  uint64_t n = 0;
  CCIDX_RETURN_IF_ERROR(BulkLoadCollections(
      pager, h, objects, &index.trees_, &n,
      [&h](const Object& o, internal::CollectionSorter* sorter) {
        return sorter->Add({o.class_id, {o.attr, o.id, h.code(o.class_id)}});
      }));
  CCIDX_RETURN_IF_ERROR(txn.Commit());
  index.size_.store(n, std::memory_order_relaxed);
  return index;
}

Result<ExtentOnlyIndex> ExtentOnlyIndex::Build(Pager* pager,
                                               const ClassHierarchy* hierarchy,
                                               std::span<const Object> objects) {
  SpanStream<Object> stream(objects);
  return Build(pager, hierarchy, &stream);
}

Status ExtentOnlyIndex::Insert(const Object& o) {
  if (o.class_id >= hierarchy_->size()) {
    return Status::InvalidArgument("unknown class");
  }
  CCIDX_RETURN_IF_ERROR(
      trees_[o.class_id].Insert(o.attr, o.id, hierarchy_->code(o.class_id)));
  size_.fetch_add(1, std::memory_order_relaxed);
  return Status::OK();
}

Status ExtentOnlyIndex::Delete(const Object& o, bool* found) {
  *found = false;
  if (o.class_id >= hierarchy_->size()) {
    return Status::InvalidArgument("unknown class");
  }
  CCIDX_RETURN_IF_ERROR(trees_[o.class_id].Delete(o.attr, o.id, found));
  if (*found) size_.fetch_sub(1, std::memory_order_relaxed);
  return Status::OK();
}

Status ExtentOnlyIndex::Query(uint32_t class_id, Coord a1, Coord a2,
                              ResultSink<uint64_t>* sink) const {
  if (class_id >= hierarchy_->size()) {
    return Status::InvalidArgument("unknown class");
  }
  TransformSink<BtEntry, uint64_t> xform(
      sink, [](const BtEntry& e) { return std::optional<uint64_t>(e.value); });
  // Every class of the subtree, by code range.
  for (Coord code = hierarchy_->code(class_id);
       code <= hierarchy_->subtree_max_code(class_id) && !xform.stopped();
       ++code) {
    uint32_t c = hierarchy_->class_at_code(code);
    CCIDX_RETURN_IF_ERROR(trees_[c].RangeScan(a1, a2, &xform));
  }
  return Status::OK();
}

Status ExtentOnlyIndex::Query(uint32_t class_id, Coord a1, Coord a2,
                              std::vector<uint64_t>* out) const {
  VectorSink<uint64_t> sink(out);
  return Query(class_id, a1, a2, &sink);
}

}  // namespace ccidx
