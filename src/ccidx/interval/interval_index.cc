#include "ccidx/interval/interval_index.h"

#include <algorithm>

#include "ccidx/build/external_sorter.h"
#include "ccidx/build/point_group.h"
#include "ccidx/interval/interval_codec.h"

namespace ccidx {

IntervalIndex::IntervalIndex(Pager* pager)
    : endpoints_(pager), stabbing_(pager) {}

Result<IntervalIndex> IntervalIndex::Build(Pager* pager,
                                           RecordStream<Interval>* intervals) {
  TxnScope txn(pager);
  ExternalSorter<BtEntry> entry_sorter(pager);
  PointSorter point_sorter(pager, /*require_above_diagonal=*/true);
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
  auto stabbing = AugmentedMetablockTree::Build(pager, std::move(*points));
  CCIDX_RETURN_IF_ERROR(stabbing.status());
  CCIDX_RETURN_IF_ERROR(txn.Commit());
  return IntervalIndex(std::move(*endpoints), std::move(*stabbing));
}

Result<IntervalIndex> IntervalIndex::Build(Pager* pager,
                                           std::span<const Interval> intervals) {
  SpanStream<Interval> stream(intervals);
  return Build(pager, &stream);
}

Result<IntervalIndex> IntervalIndex::Build(Pager* pager,
                                           std::vector<Interval>&& intervals) {
  return Build(pager, std::span<const Interval>(intervals));
}

Status IntervalIndex::Insert(const Interval& iv) {
  if (iv.lo > iv.hi) {
    return Status::InvalidArgument("interval with lo > hi");
  }
  // Each component commits its own WAL txn (one outer txn would defeat
  // the B+-tree's commit-under-latch discipline). A crash between the
  // two landed commits can leave the endpoint entry without its stabbing
  // point — the same single-component window the Delete path already
  // documents, repaired by the owner's rebuild.
  CCIDX_RETURN_IF_ERROR(endpoints_.Insert(iv.lo, iv.id, iv.hi));
  return stabbing_.Insert({iv.lo, iv.hi, iv.id});
}

Status IntervalIndex::Delete(const Interval& iv, bool* found) {
  // The endpoint B+-tree is the authoritative membership test (identity-
  // checked, see DeleteEndpoint), and its delete commits with one
  // in-place leaf write — atomic under device faults. Only once it lands
  // is the stabbing point tombstoned (DeleteKnown: pure memory, cannot
  // fail part-way), so no failure can leave the two component structures
  // disagreeing. At worst the scheduled purge errors after the delete
  // landed; the purge retries on a later update.
  CCIDX_RETURN_IF_ERROR(internal::DeleteEndpoint(&endpoints_, iv, found));
  if (!*found) return Status::OK();
  return stabbing_.DeleteKnown({iv.lo, iv.hi, iv.id});
}

using internal::EntryToInterval;
using internal::PointToInterval;

Status IntervalIndex::Stab(Coord q, ResultSink<Interval>* sink) const {
  TransformSink<Point, Interval> xform(sink, PointToInterval);
  return stabbing_.Query({q}, &xform);
}

Status IntervalIndex::Intersect(Coord qlo, Coord qhi,
                                ResultSink<Interval>* sink) const {
  if (qlo > qhi) return Status::OK();
  Pager* pager = stabbing_.pager();
  if (pager->speculation_budget() > 0) {
    // Both component lookups are coming (the stab, then the endpoint range
    // scan): stage their roots as one batched device round (DESIGN.md §10)
    // instead of two dependent cold reads.
    PageId warm[2];
    size_t n = 0;
    if (stabbing_.root_page() != kInvalidPageId) {
      warm[n++] = stabbing_.root_page();
    }
    if (qlo < kCoordMax && endpoints_.root() != kInvalidPageId) {
      warm[n++] = endpoints_.root();
    }
    if (n == 2) pager->WarmMany({warm, n});
  }
  // Types 3 & 4: intervals containing qlo (first endpoint <= qlo).
  TransformSink<Point, Interval> stab_xform(sink, PointToInterval);
  CCIDX_RETURN_IF_ERROR(stabbing_.Query({qlo}, &stab_xform));
  if (stab_xform.stopped()) return Status::OK();
  // Types 1 & 2: first endpoint strictly inside (qlo, qhi].
  if (qlo < kCoordMax) {
    TransformSink<BtEntry, Interval> range_xform(sink, EntryToInterval);
    return endpoints_.RangeScan(qlo + 1, qhi, &range_xform);
  }
  return Status::OK();
}

Status IntervalIndex::Destroy() {
  CCIDX_RETURN_IF_ERROR(endpoints_.Destroy());
  return stabbing_.Destroy();
}

}  // namespace ccidx
