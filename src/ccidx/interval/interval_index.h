// IntervalIndex: external dynamic interval management (Section 2.1,
// Proposition 2.2) — the paper's primary application.
//
// An interval intersection query against [x1, x2] splits into (Fig. 3):
//   * types 1 & 2 — intervals whose first endpoint lies in (x1, x2]:
//     a one-dimensional range search on first endpoints (B+-tree);
//   * types 3 & 4 — intervals that contain x1 (a stabbing query):
//     map [lo, hi] to the planar point (lo, hi); all such points lie on or
//     above the diagonal, and the stabbing query at x1 is exactly a
//     diagonal corner query at (x1, x1) (augmented metablock tree).
// The split is disjoint (strict lower bound on the endpoint range), so no
// interval is reported twice.
//
// Costs (Theorems 3.7 + B+-tree): stabbing O(log_B n + t/B) I/Os,
// intersection O(log_B n + t/B), insert amortized
// O(log_B n + (log_B n)^2/B), space O(n/B) pages.
//
// Deletion — the paper's open problem (§5) for this composition — is
// provided by the shared dynamization layer (DESIGN.md §8): the endpoint
// B+-tree deletes natively at O(log_B n), and the stabbing metablock tree
// weak-deletes (tombstone + scheduled fault-atomic purge rebuild) at one
// membership probe + amortized O((log_B n)/B). That preserves the
// optimal log_B query term, at the price of amortized (not worst-case)
// delete cost — the worst-case-optimal fully dynamic structure remains
// open, as the paper conjectures; DynamicIntervalIndex (B+-tree +
// ExternalPst) trades the search term to log2 n for eager deletes and
// O(log_B n + log2 n) amortized updates, with both update paths driven by
// the same RebuildScheduler policy.

#ifndef CCIDX_INTERVAL_INTERVAL_INDEX_H_
#define CCIDX_INTERVAL_INTERVAL_INDEX_H_

#include <span>
#include <vector>

#include "ccidx/bptree/bptree.h"
#include "ccidx/build/record_stream.h"
#include "ccidx/core/augmented_metablock_tree.h"
#include "ccidx/testutil/oracles.h"  // Interval

namespace ccidx {

/// Dynamic external-memory interval index (stabbing + intersection) with
/// the optimal log_B search term: native inserts, weak deletes.
///
/// Thread safety (DESIGN.md §7/§11): Stab/Intersect are const and safe
/// to run from any number of threads concurrently over one shared Pager.
/// Insert/Delete are N-writer safe within a write epoch by delegation:
/// the endpoint B+-tree uses subtree-striped latches and the stabbing
/// tree serializes on its per-structure write latch (two updates to the
/// SAME interval must stay ordered — route them through one writer, as
/// UpdateExecutor's per-key partition does). Build/Destroy require full
/// quiescence (QueryExecutor::Quiesce).
class IntervalIndex {
 public:
  /// Creates an empty index whose pages live on `pager`. The pager's page
  /// size determines B (see PageSizeForBranching); B >= 8 required.
  explicit IntervalIndex(Pager* pager);

  /// Bulk-builds from a stream of intervals: one pass feeds two external
  /// sorters (endpoints by lo, stabbing points by x), then both component
  /// structures bulk-load from the sorted streams. Never materializes the
  /// input; fault-atomic.
  static Result<IntervalIndex> Build(Pager* pager,
                                     RecordStream<Interval>* intervals);

  /// In-memory wrappers over the stream build.
  static Result<IntervalIndex> Build(Pager* pager,
                                     std::span<const Interval> intervals);
  static Result<IntervalIndex> Build(Pager* pager,
                                     std::vector<Interval>&& intervals);

  /// Inserts an interval (lo <= hi). Amortized O(log_B n + (log_B n)^2/B).
  Status Insert(const Interval& iv);

  /// Deletes the exact interval (lo, hi, id); sets *found. O(log_B n) on
  /// the endpoint tree + a weak delete on the stabbing tree (membership
  /// probe + amortized O((log_B n)/B) purge charge — see file comment).
  Status Delete(const Interval& iv, bool* found);

  /// Streams every interval containing `q` into `sink` (stabbing query);
  /// kStop propagates into the metablock tree. O(log_B n + t/B) I/Os —
  /// O(log_B n + k/B) for count/exists/first-k sinks.
  Status Stab(Coord q, ResultSink<Interval>* sink) const;

  /// Streams every interval intersecting [qlo, qhi] into `sink`.
  /// O(log_B n + t/B) I/Os.
  Status Intersect(Coord qlo, Coord qhi, ResultSink<Interval>* sink) const;

  uint64_t size() const { return stabbing_.size(); }

  /// Entry pages of the two component structures (for batch warm-ups:
  /// QueryExecutor::Warmup stages them as one device round before cold
  /// serving). May contain kInvalidPageId when a component is empty.
  PageId stabbing_root() const { return stabbing_.root_page(); }
  PageId endpoints_root() const { return endpoints_.root(); }

  /// Frees all pages.
  Status Destroy();

 private:
  IntervalIndex(BPlusTree endpoints, AugmentedMetablockTree stabbing)
      : endpoints_(std::move(endpoints)), stabbing_(std::move(stabbing)) {}

  BPlusTree endpoints_;              // key = lo, value = id, aux = hi
  AugmentedMetablockTree stabbing_;  // point (lo, hi), id carried through
};

}  // namespace ccidx

#endif  // CCIDX_INTERVAL_INTERVAL_INDEX_H_
