#include "ccidx/constraint/generalized_index.h"

#include <optional>

namespace ccidx {

GeneralizedIndex::GeneralizedIndex(Pager* pager, uint32_t arity,
                                   uint32_t indexed_var)
    : arity_(arity), indexed_var_(indexed_var), index_(pager) {
  CCIDX_CHECK(indexed_var < arity);
}

Status GeneralizedIndex::Insert(const GeneralizedTuple& tuple) {
  if (tuple.arity() != arity_) {
    return Status::InvalidArgument("tuple arity mismatch");
  }
  if (!tuple.Satisfiable()) {
    return Status::InvalidArgument("unsatisfiable tuple");
  }
  auto key = tuple.Project(indexed_var_);
  CCIDX_RETURN_IF_ERROR(key.status());
  std::lock_guard<std::mutex> write_lock(*write_mu_);
  if (tuple.id() < id_to_slot_.size() &&
      id_to_slot_[tuple.id()] != static_cast<size_t>(-1)) {
    return Status::InvalidArgument("duplicate tuple id");
  }
  CCIDX_RETURN_IF_ERROR(index_.Insert(*key));
  if (tuple.id() >= id_to_slot_.size()) {
    id_to_slot_.resize(tuple.id() + 1, static_cast<size_t>(-1));
  }
  id_to_slot_[tuple.id()] = catalog_.size();
  catalog_.push_back(tuple);
  return Status::OK();
}

Status GeneralizedIndex::Delete(uint64_t tuple_id, bool* found) {
  std::lock_guard<std::mutex> write_lock(*write_mu_);
  *found = false;
  if (tuple_id >= id_to_slot_.size() ||
      id_to_slot_[tuple_id] == static_cast<size_t>(-1)) {
    return Status::OK();
  }
  size_t slot = id_to_slot_[tuple_id];
  // Recompute the generalized key from the catalog: the same projection
  // that was indexed at insert time.
  auto key = catalog_[slot].Project(indexed_var_);
  CCIDX_RETURN_IF_ERROR(key.status());
  // IntervalIndex::Delete may set found=true and still return an error:
  // the delete landed but the scheduled purge it triggered failed (and
  // will retry on a later update). The catalog must follow the landed
  // delete either way, or the two would desynchronize permanently.
  bool in_index = false;
  Status delete_status = index_.Delete(*key, &in_index);
  if (!in_index) {
    CCIDX_RETURN_IF_ERROR(delete_status);
    return Status::Corruption("catalog tuple missing from interval index");
  }
  // Swap-pop the catalog entry, keeping id_to_slot_ dense and O(1).
  size_t last = catalog_.size() - 1;
  if (slot != last) {
    id_to_slot_[catalog_[last].id()] = slot;
    catalog_[slot] = std::move(catalog_[last]);
  }
  catalog_.pop_back();
  id_to_slot_[tuple_id] = static_cast<size_t>(-1);
  *found = true;
  return delete_status;  // non-OK only for a failed (retryable) purge
}

Status GeneralizedIndex::RangeQueryIds(Coord a1, Coord a2,
                                       ResultSink<uint64_t>* sink) const {
  TransformSink<Interval, uint64_t> xform(
      sink, [](const Interval& iv) { return std::optional<uint64_t>(iv.id); });
  return index_.Intersect(a1, a2, &xform);
}

Result<GeneralizedRelation> GeneralizedIndex::RangeQuery(Coord a1,
                                                         Coord a2) const {
  std::vector<uint64_t> ids;
  VectorSink<uint64_t> sink(&ids);
  CCIDX_RETURN_IF_ERROR(RangeQueryIds(a1, a2, &sink));
  GeneralizedRelation out(arity_);
  for (uint64_t id : ids) {
    GeneralizedTuple t = catalog_[id_to_slot_[id]];
    CCIDX_RETURN_IF_ERROR(t.AddRange(indexed_var_, a1, a2));
    if (t.Satisfiable()) {
      CCIDX_RETURN_IF_ERROR(out.Insert(std::move(t)));
    }
  }
  return out;
}

}  // namespace ccidx
