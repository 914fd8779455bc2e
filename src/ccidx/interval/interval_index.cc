#include "ccidx/interval/interval_index.h"

#include <algorithm>

#include "ccidx/build/external_sorter.h"
#include "ccidx/interval/interval_codec.h"

namespace ccidx {

IntervalIndex::IntervalIndex(Pager* pager)
    : endpoints_(pager), stabbing_(pager) {}

Result<IntervalIndex> IntervalIndex::Build(Pager* pager,
                                           RecordStream<Interval>* intervals) {
  TxnScope txn(pager);
  ExternalSorter<BtEntry> entry_sorter(pager);
  ExternalSorter<Point, PointXOrder> point_sorter(pager);
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
  auto sorted_points = point_sorter.Finish();
  CCIDX_RETURN_IF_ERROR(sorted_points.status());
  auto points = PointGroup::FromStream(pager, *sorted_points,
                                       point_sorter.budget(),
                                       /*require_above_diagonal=*/true);
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
  *found = false;
  if (iv.lo > iv.hi) return Status::OK();
  // The endpoint B+-tree is the authoritative membership test, and its
  // delete commits with one in-place leaf write — atomic under device
  // faults. Only once it lands is the stabbing point tombstoned
  // (DeleteKnown: pure memory, cannot fail part-way), so no failure can
  // leave the two component structures disagreeing. At worst the
  // scheduled purge errors after the delete landed; the purge retries on
  // a later update.
  //
  // The endpoint entry is identified by (lo, id) with hi carried as aux;
  // a delete whose hi does not match the stored interval must be treated
  // as "not stored" — deleting the endpoint entry while tombstoning a
  // point that was never inserted would silently desynchronize the two
  // components. One extra read-only descent checks it.
  bool identity_matches = false;
  CCIDX_RETURN_IF_ERROR(
      endpoints_.RangeScan(iv.lo, iv.lo, [&](const BtEntry& e) {
        if (e.value == iv.id && e.aux == iv.hi) identity_matches = true;
      }));
  if (!identity_matches) return Status::OK();
  bool in_endpoints = false;
  CCIDX_RETURN_IF_ERROR(endpoints_.Delete(iv.lo, iv.id, &in_endpoints));
  if (!in_endpoints) {
    return Status::Corruption("endpoint entry vanished between probe and"
                              " delete");
  }
  *found = true;
  return stabbing_.DeleteKnown({iv.lo, iv.hi, iv.id});
}

using internal::EntryToInterval;
using internal::PointToInterval;

Status IntervalIndex::Stab(Coord q, ResultSink<Interval>* sink) const {
  TransformSink<Point, Interval> xform(sink, PointToInterval);
  return stabbing_.Query({q}, &xform);
}

Status IntervalIndex::Stab(Coord q, std::vector<Interval>* out) const {
  VectorSink<Interval> sink(out);
  return Stab(q, &sink);
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

Status IntervalIndex::Intersect(Coord qlo, Coord qhi,
                                std::vector<Interval>* out) const {
  VectorSink<Interval> sink(out);
  return Intersect(qlo, qhi, &sink);
}

Status IntervalIndex::Destroy() {
  CCIDX_RETURN_IF_ERROR(endpoints_.Destroy());
  return stabbing_.Destroy();
}

}  // namespace ccidx
