// DynamicIntervalIndex: fully dynamic interval management — the §5
// conclusion result.
//
// The paper's final contribution note: dynamizing the [17] structure with
// this paper's techniques gives constraint indexing in O(n/B) pages with
// dynamic query O(log2 n + t/B) — supporting DELETES, which the optimal
// metablock-tree-based IntervalIndex only provides as weak deletes with
// purges. The log2 n (vs log_B n) search term is the price; closing that
// gap dynamically is the paper's "most elegant open question".
//
// Composition mirrors IntervalIndex (Prop. 2.2): a B+-tree on first
// endpoints for types 1 & 2, and an ExternalPst (Lemma 4.1, updated via
// shadow-path inserts and in-place deletes) on the (lo, hi) point mapping
// for the stabbing types 3 & 4.

#ifndef CCIDX_INTERVAL_DYNAMIC_INTERVAL_INDEX_H_
#define CCIDX_INTERVAL_DYNAMIC_INTERVAL_INDEX_H_

#include <span>
#include <vector>

#include "ccidx/bptree/bptree.h"
#include "ccidx/build/record_stream.h"
#include "ccidx/pst/external_pst.h"
#include "ccidx/testutil/oracles.h"  // Interval

namespace ccidx {

/// Fully dynamic (insert + delete) external interval index (§5).
///
/// Amortized I/O bounds: query O(log2 n + t/B), update O(log_B n +
/// log2 n) — the endpoint B+-tree's O(log_B n) plus the stabbing
/// ExternalPst's O(log2 n) path and its amortized O((log2 n)/B) global
/// rebuild charge, scheduled by the shared RebuildScheduler policy of the
/// dynamization layer (DESIGN.md §8) that also drives IntervalIndex's
/// weak-delete purges, so both interval indexes amortize on one rule.
///
/// Thread safety (DESIGN.md §7): Stab/Intersect are const and safe to run
/// from any number of threads concurrently over one shared Pager.
/// Insert/Delete/Build/Destroy are writes and require external
/// synchronization (QueryExecutor::Quiesce composes the two).
class DynamicIntervalIndex {
 public:
  explicit DynamicIntervalIndex(Pager* pager);

  /// Bulk-builds from a stream of intervals (see IntervalIndex::Build).
  static Result<DynamicIntervalIndex> Build(Pager* pager,
                                            RecordStream<Interval>* intervals);

  /// In-memory wrappers over the stream build.
  static Result<DynamicIntervalIndex> Build(Pager* pager,
                                            std::span<const Interval> intervals);
  static Result<DynamicIntervalIndex> Build(Pager* pager,
                                            std::vector<Interval>&& intervals);

  /// Amortized O(log_B n + log2 n) I/Os.
  Status Insert(const Interval& iv);

  /// Removes the exact interval (lo, hi, id); sets *found. An interval
  /// that is not stored exactly (say, a stored (lo, id) with another hi)
  /// is not found and changes nothing. One read-only endpoint probe plus
  /// an update's I/Os.
  Status Delete(const Interval& iv, bool* found);

  /// Streams all intervals containing q into `sink`; kStop propagates
  /// into the PST. O(log2 n + t/B) I/Os.
  Status Stab(Coord q, ResultSink<Interval>* sink) const;

  /// Streams all intervals intersecting [qlo, qhi] into `sink`.
  /// O(log2 n + t/B) I/Os.
  Status Intersect(Coord qlo, Coord qhi, ResultSink<Interval>* sink) const;

  uint64_t size() const { return stabbing_.size(); }

  Status Destroy();

 private:
  DynamicIntervalIndex(BPlusTree endpoints, ExternalPst stabbing)
      : endpoints_(std::move(endpoints)), stabbing_(std::move(stabbing)) {}

  BPlusTree endpoints_;   // key = lo, value = id, aux = hi
  ExternalPst stabbing_;  // point (lo, hi); stab q = { x <= q, y >= q }
};

}  // namespace ccidx

#endif  // CCIDX_INTERVAL_DYNAMIC_INTERVAL_INDEX_H_
