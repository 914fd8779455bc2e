// PointGroup: the unit of work of every metablock / PST bulk build
// (DESIGN.md §6).
//
// Each tree family's recursive builder repeats the same two accesses over
// an x-sorted point set:
//   * read it whole (the leaf case — guaranteed small),
//   * keep the k highest-y points (the metablock / PST node set) and
//     distribute the rest into f x-contiguous children.
// PointGroup provides both, over either of two representations:
//   * resident — an in-memory vector (insert-time rebuilds, inputs below
//     the sort budget, and every child of at most M records);
//   * streamed — a sorted stream read exactly once: a device-resident run
//     (freed page by page behind the cursor) or the lazy merge of a
//     PointSorter. Whatever wrote it folded every record into a bounded
//     top-M set on the way (M = the resident limit, B^2 by default), and
//     PointYOrder is total, so any family's top `keep` <= M is a prefix
//     of that set: the partition needs no selection scan, only the one
//     distribution scan.
// The distribution hands each child to the caller as soon as the stream
// closes it (children are x-contiguous, so only one is open at a time).
// A child of at most M records stays resident and is never written; a
// larger one spills to a run that carries its own top-M set. Both
// representations produce bit-identical partitions (same selection
// cutoff, same even-split or tie-free child boundaries, x order
// preserved), which is what lets every family keep exactly one
// construction implementation.

#ifndef CCIDX_BUILD_POINT_GROUP_H_
#define CCIDX_BUILD_POINT_GROUP_H_

#include <functional>
#include <limits>
#include <memory>
#include <vector>

#include "ccidx/build/external_sorter.h"
#include "ccidx/build/record_stream.h"
#include "ccidx/core/geometry.h"

namespace ccidx {

/// The `limit` highest points by PointYOrder among those added: a bounded
/// min-heap, O(1) per point below the current cutoff.
class TopYSet {
 public:
  explicit TopYSet(size_t limit) : limit_(limit) {}

  void Add(const Point& p);

  /// The kept points, descending by y. Empties the set.
  std::vector<Point> TakeDescending();

 private:
  size_t limit_;
  std::vector<Point> heap_;  // heap on PointDescYOrder: front() is lowest
};

/// An x-sorted point set, resident or streamed.
class PointGroup {
 public:
  PointGroup() = default;
  PointGroup(PointGroup&&) = default;
  PointGroup& operator=(PointGroup&&) = default;
  PointGroup(const PointGroup&) = delete;
  PointGroup& operator=(const PointGroup&) = delete;

  /// Wraps an in-memory vector (must already be sorted by PointXOrder).
  /// Its children stay resident too.
  static PointGroup FromVector(std::vector<Point> sorted_by_x);

  /// Stages a sorted stream. Inputs of at most `resident_limit` records
  /// stay in memory; larger inputs spill to a device-resident run,
  /// holding one block and the top `resident_limit` points by y in
  /// memory. `resident_limit` is also the size above which a child
  /// spills, and it must be at least every `keep` the group (or a spilled
  /// descendant) will be partitioned with: a spilled group answers a
  /// larger `keep` with InvalidArgument. Build callers pass the sorter
  /// budget (DefaultSortBudget, B^2 points), which covers every family's
  /// node set. Verifies x order, and y >= x per point when
  /// `require_above_diagonal`.
  static Result<PointGroup> FromStream(Pager* pager,
                                       RecordStream<Point>* sorted_by_x,
                                       size_t resident_limit,
                                       bool require_above_diagonal);

  uint64_t size() const { return count_; }
  bool empty() const { return count_ == 0; }
  bool resident() const { return source_ == nullptr; }

  /// First / last x of the set (the subtree x-interval). Empty group: 0.
  Coord first_x() const { return first_x_; }
  Coord last_x() const { return last_x_; }

  /// Consumes the group: every point, ascending by x. Frees run pages.
  /// Only for groups the caller knows are small (leaf metablocks).
  Result<std::vector<Point>> TakeAll() &&;

  /// Child-boundary policy for PartitionTopY.
  enum class SplitMode {
    /// child i of f receives floor(rest/(f - i)) of what remains (zero-
    /// want slots are skipped) — the metablock / PST rule.
    kEven,
    /// at least one point per child, boundaries never split an equal-x
    /// run, last child takes the remainder — the augmented 3-sided rule
    /// (routing by sub_xlo must equal membership).
    kTieFreeX,
  };

  /// Receives each child of a partition, in x order, as soon as it is
  /// complete. An error stops the partition and is returned from it.
  using ChildFn = std::function<Status(PointGroup child)>;

  /// Consumes the group (requires 1 <= keep < size()) in one scan:
  /// returns the `keep` highest-y points (PointYOrder), descending by y,
  /// and hands the rest, split into at most `fanout` non-empty
  /// x-contiguous children per `mode`, to `on_child`. The scan pauses
  /// while `on_child` runs. A streamed group with keep above its
  /// resident limit returns InvalidArgument and is left unconsumed.
  ///
  /// Pool floor: a paused scan keeps its current page pinned, so while
  /// `on_child` runs every streamed ancestor holds one frame: the root's
  /// merge one per way (at most the sorter's fan-in, M/B - 3), and each
  /// spilled group below it one. A stream build therefore needs a pool
  /// of at least fan-in + d + 1 frames, d = the depth of nested spilled
  /// groups: 0 at n <= B^3 in the metablock families, below
  /// log_B(n/B^2) above it, and below log_2(n/M) in the binary PSTs.
  /// Below the floor a pin fails with ResourceExhausted and the build
  /// rolls back.
  Result<std::vector<Point>> PartitionTopY(uint32_t keep, uint32_t fanout,
                                           SplitMode mode,
                                           const ChildFn& on_child) &&;

 private:
  friend class PointSorter;
  class Writer;

  Pager* pager_ = nullptr;
  std::vector<Point> mem_;  // resident records
  // Streamed records (run reader or sorter merge), consumed once.
  std::unique_ptr<RecordStream<Point>> source_;
  std::vector<Point> top_;  // streamed: the top resident_limit_ by y
  size_t resident_limit_ = std::numeric_limits<size_t>::max();
  uint64_t count_ = 0;
  Coord first_x_ = 0;
  Coord last_x_ = 0;
};

/// Sorts an arbitrarily ordered point stream by x (ExternalSorter under
/// the default budget M) and hands it over as one PointGroup with no
/// staged copy. While records are added it taps the count, the x span,
/// the top-M set and the y >= x check, so the root's partition reads the
/// sorter's merge stream directly. Inputs of at most M records stay
/// resident and cost no device I/O.
class PointSorter {
 public:
  PointSorter(Pager* pager, bool require_above_diagonal);

  Status Add(const Point& p);
  Status AddStream(RecordStream<Point>* points);

  /// Seals input. The group owns the sorter; its runs are freed as the
  /// partition consumes them.
  Result<PointGroup> Finish() &&;

 private:
  Pager* pager_;
  bool require_above_diagonal_;
  std::unique_ptr<ExternalSorter<Point, PointXOrder>> sorter_;
  TopYSet top_;
  uint64_t count_ = 0;
  Coord min_x_ = 0;
  Coord max_x_ = 0;
};

/// PointSorter over one stream — the shared front half of every
/// point-tree stream build.
Result<PointGroup> SortPointStream(Pager* pager, RecordStream<Point>* points,
                                   bool require_above_diagonal);

}  // namespace ccidx

#endif  // CCIDX_BUILD_POINT_GROUP_H_
