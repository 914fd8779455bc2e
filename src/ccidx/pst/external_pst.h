// ExternalPst: a blocked external-memory priority search tree (Lemma 4.1,
// after Icking–Klein–Ottmann [17]).
//
// A binary tree over the x-sorted point set in which every node occupies
// one page and stores the ~B points with the largest y values among the
// points of its subtree range (a B-blocked analogue of McCreight's priority
// search tree). Answers 3-sided queries [xlo, xhi] x [ylo, +inf) in
// O(log2 n + t/B) I/Os using O(n/B) pages, and is buildable in
// O((n/B) log_B n) I/Os.
//
// Note the log2 (not log_B) search term: this is the structure the paper
// cites as the best previous approach — the metablock tree's raison d'être
// is removing that binary-height factor for the diagonal special case.
// Here it serves two roles:
//   * experiment E8's baseline, and
//   * the per-metablock / per-children 3-sided sub-structure of the
//     Section 4 class-indexing tree (where it only ever holds O(B^3)
//     points, so its log2 term is the paper's log2 B additive cost).
//
// Dynamization (DESIGN.md §8): Build-constructed handles support updates.
//   * Insert is a shadow-path PST insertion: the x-routing descent is
//     planned read-only, every node on the path below the root is
//     rewritten as a fresh page under a TxnScope, and the old
//     path is freed — by page id, no reads — only after the root commits
//     the new child pointer, so a failed insert leaves the old tree
//     untouched and fault-atomic. O(log2 n) I/Os per insert plus an
//     amortized O((log2 n)/B) global-rebuild charge (the shared
//     RebuildScheduler re-balances after Theta(n) updates or when the
//     routing path outgrows the balance envelope).
//   * Delete locates the point (heap order prunes), erases it in place
//     (one page write — atomic under fault injection), lets the node go
//     under-full, and pays the same amortized rebuild charge.
//     O(log2 n) I/Os amortized.
//
// Write concurrency (DESIGN.md §11): within a write epoch, Insert and
// Delete are safe from N threads. The root page is special-cased: an
// authoritative in-memory image of it (header + point set) lives behind
// `root_mu`, so root absorbs and root displacements are short critical
// sections, while the two root subtrees are guarded by one shared_mutex
// each — an insert routes through exactly one subtree and takes its
// latch exclusive; deletes take it shared and serialize per node on a
// striped latch. Latch order: side[0] -> side[1] -> root_mu (never a
// side latch while holding root_mu); node stripes are innermost and
// held one at a time. Global rebuilds take everything; split-phase
// background rebuilds (PrepareGlobalRebuild / CommitGlobalRebuild)
// validate a RebuildScheduler::update_stamp() so a rebuild prepared
// concurrently with updates aborts instead of clobbering them.
//
// Sub-structure handles re-attached with Open() are static views: they
// do not track size and must not be updated.

#ifndef CCIDX_PST_EXTERNAL_PST_H_
#define CCIDX_PST_EXTERNAL_PST_H_

#include <array>
#include <atomic>
#include <functional>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <span>
#include <vector>

#include "ccidx/build/point_group.h"
#include "ccidx/build/record_stream.h"
#include "ccidx/core/geometry.h"
#include "ccidx/dynamic/rebuild.h"
#include "ccidx/io/page_builder.h"
#include "ccidx/query/sink.h"

namespace ccidx {

/// External priority search tree for 3-sided queries.
///
/// Thread safety (DESIGN.md §7/§11): Query is const and safe to run from
/// any number of threads concurrently over one shared Pager; the epoch
/// gate excludes it from writes. Within a write epoch Insert/Delete are
/// safe from N threads concurrently (see file comment for the latch
/// protocol). Build, Free, Harvest-family walks, and CheckInvariants
/// require full quiescence.
class ExternalPst {
 public:
  /// Builds from an x-sorted group (any planar points; no y >= x
  /// restriction) — the one construction implementation (fault-atomic).
  static Result<ExternalPst> Build(Pager* pager, PointGroup points);

  /// Builds from a stream in any order, sorting externally.
  static Result<ExternalPst> Build(Pager* pager, RecordStream<Point>* points);

  /// In-core wrappers (sort in memory, then build). The PST doubles as
  /// the per-metablock sub-structure of the Section 4 trees, whose
  /// inputs are bounded by O(B^3) — within the model's working memory —
  /// so these paths deliberately skip the external sorter.
  static Result<ExternalPst> Build(Pager* pager, std::span<const Point> points);
  static Result<ExternalPst> Build(Pager* pager, std::vector<Point>&& points);

  /// Re-attaches to a previously built tree by its root page (a static
  /// view: size is not tracked, updates are not supported).
  static ExternalPst Open(Pager* pager, PageId root);

  /// Inserts a point via a shadow path (see file comment): fault-atomic,
  /// O(log2 n) I/Os + amortized O((log2 n)/B) rebuild charge. Safe from
  /// N writer threads within a write epoch.
  Status Insert(const Point& p);

  /// Deletes the exact point (x, y, id); sets *found. One in-place page
  /// write after a pruned search; amortized O(log2 n) I/Os. Safe from N
  /// writer threads within a write epoch.
  Status Delete(const Point& p, bool* found);

  /// Points stored (tracked only on Build-constructed handles).
  /// Thread-safe (relaxed read).
  uint64_t size() const { return sy_->size.load(std::memory_order_relaxed); }

  /// Streams all points with xlo <= x <= xhi and y >= ylo into `sink`;
  /// kStop halts the recursion before another node page is pinned.
  /// O(log2 n + t/B) I/Os.
  Status Query(const ThreeSidedQuery& q, ResultSink<Point>* sink) const;

  /// As above, driven by a caller-owned emitter (shared with an enclosing
  /// 3-sided-tree query so kStop propagates across structures).
  Status Query(const ThreeSidedQuery& q, SinkEmitter<Point>& em) const;

  /// Appends all points with xlo <= x <= xhi and y >= ylo to `out`.
  /// O(log2 n + t/B) I/Os.
  Status Query(const ThreeSidedQuery& q, std::vector<Point>* out) const;

  PageId root() const { return root_; }

  /// Frees every page. Requires full quiescence.
  Status Free();

  /// Appends every stored point to `out` (O(n/B) I/Os). Used when a
  /// Lemma 4.4 TD structure is rebuilt. Requires write quiescence.
  Status CollectPoints(std::vector<Point>* out) const;

  /// Appends every page id of the tree to `out` (read-only mirror of
  /// Free; the fail-safe first half of a fault-atomic rebuild).
  Status VisitPages(std::vector<PageId>* out) const;

  /// Structural checks: heap order on y between node and children, x-range
  /// nesting, point counts. Requires full quiescence.
  Status CheckInvariants() const;

  /// Counts pages used (O(n/B) I/Os).
  Result<uint64_t> CountPages() const;

  /// Diverts the amortized rebuild trigger to `hook` (e.g. a maintenance
  /// thread running the split-phase rebuild) instead of rebuilding inline
  /// on the updating thread. The hook fires at most once until the next
  /// CommitGlobalRebuild/AbandonGlobalRebuild releases the pending latch.
  /// Set before concurrent use.
  void SetRebuildHook(std::function<void()> hook) {
    rebuild_hook_ = std::move(hook);
  }

  /// A split-phase global rebuild in flight: the replacement tree is
  /// built and durable, the old tree is still serving.
  struct PendingRebuild {
    PageId fresh_root = kInvalidPageId;
    std::vector<PageId> fresh_pages;  // complete page set of the new tree
    std::vector<PageId> old_pages;    // pages of the tree as harvested
    uint64_t stamp = 0;               // scheduler stamp at harvest
  };

  /// Phase 1 of a background rebuild: harvest under the write latches
  /// (brief, O(n/B) reads), then build the replacement latch-free.
  /// Needs no gate epoch — the latched harvest is coherent under
  /// concurrent queries and update epochs, and any update that lands
  /// after it bumps the stamp and voids the commit. The caller must
  /// pass the result to CommitGlobalRebuild or AbandonGlobalRebuild.
  Result<PendingRebuild> PrepareGlobalRebuild();

  /// Phase 2: install the prepared rebuild. Returns true iff it
  /// committed; if any update landed since the harvest (stamp mismatch)
  /// the pending pages are freed instead and the tree is untouched.
  /// Either way the rebuild-pending latch is released.
  bool CommitGlobalRebuild(PendingRebuild&& p);

  /// Discards a prepared rebuild: frees its pages by id (no device
  /// reads) and releases the rebuild-pending latch.
  void AbandonGlobalRebuild(PendingRebuild&& p);

 private:
  ExternalPst(Pager* pager, PageId root)
      : pager_(pager), root_(root), sy_(std::make_unique<Sync>()) {}

  // Node page layout:
  //   [u32 count][u32 pad][u64 left][u64 right]
  //   [coord sub_xlo][coord sub_xhi][coord min_y]
  //   [count * Point]   (descending y)
  struct NodeHeader {
    uint32_t count;
    uint32_t pad;
    uint64_t left;
    uint64_t right;
    Coord sub_xlo;
    Coord sub_xhi;
    Coord min_y;  // min y among the node's own points
  };

  static constexpr size_t kStripes = 16;

  // Write-epoch latches and the authoritative root image (see file
  // comment), boxed so the tree stays movable.
  struct Sync {
    std::shared_mutex side[2];              // root subtrees (0 = L, 1 = R)
    std::mutex root_mu;                     // root image + root page writes
    std::array<std::mutex, kStripes> stripes;  // per-node delete latches
    std::atomic<uint64_t> size{0};
    std::atomic<bool> rebuild_pending{false};
    // Root image, guarded by root_mu: authoritative once loaded (the disk
    // root only lags it while an insert's displacement is in flight).
    bool image_loaded = false;
    NodeHeader root_h{};
    std::vector<Point> root_pts;
  };

  uint32_t NodeCapacity() const;
  uint32_t MaxDepth() const;

  static Result<PageId> BuildNode(Pager* pager, PointGroup group,
                                  uint32_t cap);
  Status LoadNode(PageId id, NodeHeader* h, std::vector<Point>* pts) const;
  Status StoreNode(PageId id, NodeHeader& h,
                   const std::vector<Point>& pts) const;

  // Root-image helpers; all require root_mu.
  Status LoadImageLocked();
  Status StoreRootLocked();
  void RefreshRootMetaLocked();
  Status CreateRootLocked(const Point& p);
  bool TryAbsorbRootLocked(const Point& p, uint32_t cap, Status* st);
  Result<int> ChooseSideLocked(const Point& p) const;
  void UndoRootDisplaceLocked(const Point& p, const Point& carried,
                              bool displaced);

  // Plans and writes the shadow path of `carried` through the subtree
  // rooted at `start` (kInvalidPageId: a fresh leaf). Caller holds the
  // owning side latch exclusively, and a TxnScope that owns the new
  // pages. On success *top is the new subtree root and *old_path the
  // replaced pages — freed by the caller under root_mu after the root
  // commits.
  Status BuildShadowSubtree(PageId start, Point carried, uint32_t cap,
                            PageId* top, size_t* depth,
                            std::vector<PageId>* old_path);

  Status QueryNode(PageId id, const ThreeSidedQuery& q,
                   SinkEmitter<Point>& em) const;
  Status FreeNode(PageId id);
  // One read-only walk gathering every stored point and/or page id (the
  // fail-safe first half of a fault-atomic global rebuild). Requires
  // write quiescence (all latches, or a quiescent epoch).
  Status Harvest(std::vector<Point>* pts, std::vector<PageId>* pages) const;
  // Inline rebuild paths: TriggerRebuild diverts to the hook when set,
  // else takes every latch and runs GlobalRebuildLocked (re-checking the
  // trigger unless `force`, so concurrent triggers collapse to one).
  Status TriggerRebuild(bool force);
  Status GlobalRebuild();
  Status GlobalRebuildLocked();
  Status DeleteNode(PageId id, const Point& p, bool* found);
  Status CheckNode(PageId id, Coord parent_min_y, bool is_root,
                   bool allow_underfull, uint64_t* count) const;
  Result<uint64_t> CountNode(PageId id) const;

  Pager* pager_;
  PageId root_;
  RebuildScheduler sched_;
  std::unique_ptr<Sync> sy_;
  std::function<void()> rebuild_hook_;
};

}  // namespace ccidx

#endif  // CCIDX_PST_EXTERNAL_PST_H_
