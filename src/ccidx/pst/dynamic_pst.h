// DynamicPst: a fully dynamic (insert + delete) external priority search
// tree — the §5 conclusion result.
//
// The paper closes by noting that "using the techniques in this paper to
// dynamize the static structure of [17]" yields dynamic interval indexing
// in O(n/B) pages with query O(log2 n + t/B) and amortized update
// O(log2 n + (log2 n)^2/B). This class realizes that dynamization:
//
//   * Insert descends the x-routing path, placing the new point at the
//     highest node where it fits by y and pushing the displaced minimum
//     down — the classic PST insertion, one page per level.
//   * Delete locates the point (heap order prunes the search), removes it
//     in place, and lets nodes go under-full.
//   * Balance and fullness are restored by amortized partial rebuilds in
//     the spirit of the paper's level-II reorganizations: every node
//     tracks its subtree weight, and when a child outweighs the
//     scapegoat fraction of its parent (or the shared RebuildScheduler's
//     accumulated updates reach half the weight — the same policy every
//     dynamized family uses, DESIGN.md §8), the subtree is rebuilt as a
//     perfectly balanced static PST. Each rebuild costs O(w/B +
//     w-in-core) for weight w and is paid for by the Omega(w) updates
//     since the subtree was last built, the same accounting as Lemma 3.6.
//
// Space O(n/B); query O(log2 n + t/B) (Lemma 4.1 plus the balance bound);
// amortized update O(log2 n + (log2 n)^2/B).

#ifndef CCIDX_PST_DYNAMIC_PST_H_
#define CCIDX_PST_DYNAMIC_PST_H_

#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "ccidx/build/point_group.h"
#include "ccidx/build/record_stream.h"
#include "ccidx/core/geometry.h"
#include "ccidx/dynamic/rebuild.h"
#include "ccidx/io/page_builder.h"
#include "ccidx/query/sink.h"

namespace ccidx {

/// Fully dynamic external priority search tree (§5 dynamization of [17]).
///
/// Thread safety (DESIGN.md §7/§11): Query is const and safe to run from
/// any number of threads concurrently over one shared Pager. Insert/
/// Delete/Destroy serialize on an internal per-structure write latch —
/// N writer threads may call them within a write epoch (progress is
/// one-at-a-time: the displaced-minimum descent and scapegoat rebuilds
/// rewrite pages in place along arbitrary paths, so the structure trades
/// intra-structure write parallelism for simplicity; spread load across
/// structures or prefer ExternalPst's side-latched inserts when write
/// scaling matters). Build/CheckInvariants require full quiescence.
class DynamicPst {
 public:
  /// Creates an empty tree.
  explicit DynamicPst(Pager* pager);

  /// Bulk-builds a balanced tree from an x-sorted group — the one
  /// construction implementation (fault-atomic).
  static Result<DynamicPst> Build(Pager* pager, PointGroup points);

  /// Bulk-builds from a stream in any order, sorting externally.
  static Result<DynamicPst> Build(Pager* pager, RecordStream<Point>* points);

  /// In-core wrappers (sort in memory, then build).
  static Result<DynamicPst> Build(Pager* pager, std::span<const Point> points);
  static Result<DynamicPst> Build(Pager* pager, std::vector<Point>&& points);

  /// Inserts a point. Amortized O(log2 n + (log2 n)^2/B) I/Os.
  Status Insert(const Point& p);

  /// Deletes the exact point (x, y, id). Sets *found accordingly.
  /// Amortized O(log2 n + (log2 n)^2/B) I/Os.
  Status Delete(const Point& p, bool* found);

  /// Streams all points with q.xlo <= x <= q.xhi and y >= q.ylo into
  /// `sink`; kStop halts the recursion. O(log2 n + t/B) I/Os.
  Status Query(const ThreeSidedQuery& q, ResultSink<Point>* sink) const;

  /// Safe against concurrent Insert/Delete (reads under the write latch).
  uint64_t size() const {
    std::lock_guard<std::mutex> lk(*write_mu_);
    return size_;
  }

  Status Destroy();

  /// Heap order, x-interval sanity, weight counters, balance envelope.
  Status CheckInvariants() const;

 private:
  // Node page layout:
  //   [header][count * Point (descending y)]
  struct NodeHeader {
    uint32_t count;
    uint32_t pad;
    uint64_t left;
    uint64_t right;
    Coord sub_xlo;    // x-range this subtree may contain (grows on insert)
    Coord sub_xhi;
    Coord min_y;      // min y among own points (kCoordMax if empty)
    uint64_t weight;  // points in this subtree
  };

  static constexpr double kAlpha = 0.75;  // scapegoat balance fraction

  uint32_t NodeCapacity() const;
  Status LoadNode(PageId id, NodeHeader* h, std::vector<Point>* pts) const;
  Status StoreNode(PageId id, NodeHeader& h, std::vector<Point>* pts) const;

  static Result<PageId> BuildNode(Pager* pager, PointGroup group,
                                  uint32_t cap);

  Status QueryNode(PageId id, const ThreeSidedQuery& q,
                   SinkEmitter<Point>& em) const;
  Status CollectNode(PageId id, std::vector<Point>* out) const;
  Status FreeNode(PageId id);
  // Rebuilds the subtree at *id as a balanced static tree; updates *id.
  Status RebuildAt(PageId* id);
  Status DeleteNode(PageId id, const Point& p, bool* found);
  Status CheckNode(PageId id, Coord parent_min_y, bool is_root,
                   uint64_t* weight, uint32_t depth,
                   uint32_t max_depth) const;

  Pager* pager_;
  PageId root_;
  uint64_t size_;
  RebuildScheduler sched_;  // shared global-rebuild policy (DESIGN.md §8)
  // Per-structure write latch (boxed so the class stays movable):
  // serializes Insert/Delete/Destroy within a write epoch (DESIGN.md §11).
  std::unique_ptr<std::mutex> write_mu_ = std::make_unique<std::mutex>();
};

}  // namespace ccidx

#endif  // CCIDX_PST_DYNAMIC_PST_H_
