#include "ccidx/interval/dynamic_interval_index.h"

#include <algorithm>

#include "ccidx/build/external_sorter.h"
#include "ccidx/build/point_group.h"
#include "ccidx/interval/interval_codec.h"

namespace ccidx {

DynamicIntervalIndex::DynamicIntervalIndex(Pager* pager)
    : endpoints_(pager), stabbing_(pager) {}

Result<DynamicIntervalIndex> DynamicIntervalIndex::Build(
    Pager* pager, RecordStream<Interval>* intervals) {
  TxnScope txn(pager);
  ExternalSorter<BtEntry> entry_sorter(pager);
  PointSorter point_sorter(pager, /*require_above_diagonal=*/false);
  while (true) {
    auto block = intervals->Next();
    CCIDX_RETURN_IF_ERROR(block.status());
    if (block->empty()) break;
    for (const Interval& iv : *block) {
      if (iv.lo > iv.hi) {
        return Status::InvalidArgument("interval with lo > hi");
      }
      CCIDX_RETURN_IF_ERROR(entry_sorter.Add({iv.lo, iv.id, iv.hi}));
      CCIDX_RETURN_IF_ERROR(point_sorter.Add({iv.lo, iv.hi, iv.id}));
    }
  }
  auto sorted_entries = entry_sorter.Finish();
  CCIDX_RETURN_IF_ERROR(sorted_entries.status());
  auto endpoints = BPlusTree::BulkLoad(pager, *sorted_entries);
  CCIDX_RETURN_IF_ERROR(endpoints.status());
  auto points = std::move(point_sorter).Finish();
  CCIDX_RETURN_IF_ERROR(points.status());
  auto stabbing = ExternalPst::Build(pager, std::move(*points));
  CCIDX_RETURN_IF_ERROR(stabbing.status());
  CCIDX_RETURN_IF_ERROR(txn.Commit());
  return DynamicIntervalIndex(std::move(*endpoints), std::move(*stabbing));
}

Result<DynamicIntervalIndex> DynamicIntervalIndex::Build(
    Pager* pager, std::span<const Interval> intervals) {
  SpanStream<Interval> stream(intervals);
  return Build(pager, &stream);
}

Result<DynamicIntervalIndex> DynamicIntervalIndex::Build(
    Pager* pager, std::vector<Interval>&& intervals) {
  return Build(pager, std::span<const Interval>(intervals));
}

Status DynamicIntervalIndex::Insert(const Interval& iv) {
  if (iv.lo > iv.hi) {
    return Status::InvalidArgument("interval with lo > hi");
  }
  // Each component commits its own WAL txn (one outer txn would defeat
  // the B+-tree's commit-under-latch discipline); a crash between the
  // two commits leaves at most one dangling endpoint entry.
  CCIDX_RETURN_IF_ERROR(endpoints_.Insert(iv.lo, iv.id, iv.hi));
  return stabbing_.Insert({iv.lo, iv.hi, iv.id});
}

Status DynamicIntervalIndex::Delete(const Interval& iv, bool* found) {
  CCIDX_RETURN_IF_ERROR(internal::DeleteEndpoint(&endpoints_, iv, found));
  if (!*found) return Status::OK();
  bool pst_found = false;
  CCIDX_RETURN_IF_ERROR(stabbing_.Delete({iv.lo, iv.hi, iv.id}, &pst_found));
  if (!pst_found) {
    return Status::Corruption("interval present in only one component");
  }
  return Status::OK();
}

using internal::EntryToInterval;
using internal::PointToInterval;

Status DynamicIntervalIndex::Stab(Coord q, ResultSink<Interval>* sink) const {
  TransformSink<Point, Interval> xform(sink, PointToInterval);
  return stabbing_.Query({kCoordMin, q, q}, &xform);
}

Status DynamicIntervalIndex::Intersect(Coord qlo, Coord qhi,
                                       ResultSink<Interval>* sink) const {
  if (qlo > qhi) return Status::OK();
  TransformSink<Point, Interval> stab_xform(sink, PointToInterval);
  CCIDX_RETURN_IF_ERROR(stabbing_.Query({kCoordMin, qlo, qlo}, &stab_xform));
  if (stab_xform.stopped()) return Status::OK();
  if (qlo < kCoordMax) {
    TransformSink<BtEntry, Interval> range_xform(sink, EntryToInterval);
    return endpoints_.RangeScan(qlo + 1, qhi, &range_xform);
  }
  return Status::OK();
}

Status DynamicIntervalIndex::Destroy() {
  CCIDX_RETURN_IF_ERROR(endpoints_.Destroy());
  return stabbing_.Free();
}

}  // namespace ccidx
