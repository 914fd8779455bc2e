// Shared on-disk blocking helpers for metablock-tree variants (Fig. 9).
//
// Two physical organizations recur throughout Section 3:
//   * vertically oriented blocking — points sorted by x, B per page, with a
//     per-block (xlo, xhi, page) index chain, used to report "everything
//     left of a vertical line" with at most one partially-useful page;
//   * horizontally oriented blocking — points sorted by descending y in a
//     page chain, used to scan "from the top down" and stop within one page
//     of crossing a horizontal boundary.
//
// Thread safety (DESIGN.md §7/§11): the scan helpers only Pin pages and
// keep all state on the stack, so they are safe from any number of
// threads concurrently. The writer-side builders mutate chains in place
// with no internal latches: callers run them under full quiescence or
// under the owning structure's write latch (every dynamic family that
// rewrites blockings holds one — DESIGN.md §11).

#ifndef CCIDX_CORE_BLOCKING_H_
#define CCIDX_CORE_BLOCKING_H_

#include <algorithm>
#include <functional>
#include <iterator>
#include <vector>

#include "ccidx/core/geometry.h"
#include "ccidx/io/page_builder.h"
#include "ccidx/query/sink.h"
#include "ccidx/simd/filter_emit.h"

namespace ccidx {

/// Index entry for one vertical block: its points span [xlo, xhi].
struct VerticalBlock {
  Coord xlo;
  Coord xhi;
  uint64_t page;
};

/// Fan-out of a metablock-family node whose subtree holds `rest` points
/// beyond its own B^2: min(B, ceil(rest / B^2)). Children stay full — a
/// node never splits fewer than B^3 points into more children than it
/// takes to hold them at <= B^2 each, so those children are leaves and no
/// TS chain (up to B^2 points) fences a sibling set smaller than itself.
/// Above B^3 the fan-out is B, so the height stays O(log_B n).
inline uint32_t ChildFanout(uint64_t rest, uint32_t branching) {
  const uint64_t b2 = uint64_t{branching} * branching;
  return static_cast<uint32_t>(
      std::min<uint64_t>(branching, (rest + b2 - 1) / b2));
}

/// Result of writing a vertical blocking.
struct VerticalBlocking {
  PageId index_head = kInvalidPageId;  // chain of VerticalBlock entries
  uint32_t num_blocks = 0;
};

/// Writes `points` (sorted ascending by PointXOrder on entry) as a vertical
/// blocking. Returns the index-chain head.
inline Result<VerticalBlocking> WriteVerticalBlocking(
    Pager* pager, std::span<const Point> sorted_by_x) {
  PageIo io(pager);
  const uint32_t cap = io.CapacityFor(sizeof(Point));
  std::vector<VerticalBlock> index;
  for (size_t i = 0; i < sorted_by_x.size(); i += cap) {
    size_t end = std::min(sorted_by_x.size(), i + cap);
    PageId id = pager->Allocate();
    CCIDX_RETURN_IF_ERROR(io.WriteRecords<Point>(
        id, sorted_by_x.subspan(i, end - i)));
    index.push_back({sorted_by_x[i].x, sorted_by_x[end - 1].x, id});
  }
  auto ids = io.WriteChain<VerticalBlock>(index);
  CCIDX_RETURN_IF_ERROR(ids.status());
  VerticalBlocking out;
  out.index_head = ids->empty() ? kInvalidPageId : ids->front();
  out.num_blocks = static_cast<uint32_t>(index.size());
  return out;
}

/// Reads the whole vertical-block index chain.
inline Status ReadVerticalIndex(Pager* pager, PageId index_head,
                                std::vector<VerticalBlock>* out) {
  PageIo io(pager);
  return io.ReadChain<VerticalBlock>(index_head, out);
}

/// Frees a vertical blocking: all data pages, then the index chain.
inline Status FreeVerticalBlocking(Pager* pager, PageId index_head) {
  std::vector<VerticalBlock> index;
  CCIDX_RETURN_IF_ERROR(ReadVerticalIndex(pager, index_head, &index));
  for (const VerticalBlock& b : index) {
    CCIDX_RETURN_IF_ERROR(pager->Free(b.page));
  }
  PageIo io(pager);
  if (index_head != kInvalidPageId) {
    CCIDX_RETURN_IF_ERROR(io.FreeChain(index_head));
  }
  return Status::OK();
}

/// Appends every page id of a vertical blocking (data pages + index
/// chain) to `out` without freeing — the read-only half of
/// FreeVerticalBlocking, used by fault-atomic rebuilds (see
/// PageIo::VisitChain).
inline Status VisitVerticalBlocking(Pager* pager, PageId index_head,
                                    std::vector<PageId>* out) {
  std::vector<VerticalBlock> index;
  CCIDX_RETURN_IF_ERROR(ReadVerticalIndex(pager, index_head, &index));
  for (const VerticalBlock& b : index) {
    out->push_back(b.page);
  }
  PageIo io(pager);
  if (index_head != kInvalidPageId) {
    CCIDX_RETURN_IF_ERROR(io.VisitChain(index_head, out));
  }
  return Status::OK();
}

/// Writes `points` as a descending-y page chain, sorting them first unless
/// they already are. Returns the chain head (kInvalidPageId for empty
/// input).
inline Result<PageId> WriteDescYChain(Pager* pager,
                                      std::vector<Point> points) {
  if (!std::is_sorted(points.begin(), points.end(), PointDescYOrder())) {
    std::sort(points.begin(), points.end(), PointDescYOrder());
  }
  PageIo io(pager);
  auto ids = io.WriteChain<Point>(points);
  CCIDX_RETURN_IF_ERROR(ids.status());
  return ids->empty() ? kInvalidPageId : ids->front();
}

/// Running top-k for TS chains: sorts `add` by descending y, merges it
/// into `top` (descending y, at most `k` points) and keeps the `k`
/// highest. PointYOrder is a total order, so folding sibling sets one at
/// a time yields exactly the top `k` of their union, in
/// O(|top| + |add| log |add|) per fold instead of a sort of the union.
inline void FoldTopK(std::vector<Point>* top, std::span<const Point> add,
                     size_t k) {
  std::vector<Point> run(add.begin(), add.end());
  std::sort(run.begin(), run.end(), PointDescYOrder());
  std::vector<Point> merged(top->size() + run.size());
  std::merge(top->begin(), top->end(), run.begin(), run.end(),
             merged.begin(), PointDescYOrder());
  if (merged.size() > k) merged.resize(k);
  top->swap(merged);
}

/// Multiset difference for invariant checks: removes one occurrence of
/// each point of `drop` from `from`. Returns false if some point of
/// `drop` is missing from `from`.
inline bool ErasePoints(std::vector<Point>* from, std::vector<Point> drop) {
  std::sort(from->begin(), from->end(), PointXOrder());
  std::sort(drop.begin(), drop.end(), PointXOrder());
  std::vector<Point> rest;
  std::set_difference(from->begin(), from->end(), drop.begin(), drop.end(),
                      std::back_inserter(rest), PointXOrder());
  const bool all_found = rest.size() + drop.size() == from->size();
  from->swap(rest);
  return all_found;
}

/// Invariant check for the TS chains of one node's children: `heads[i]`
/// must hold exactly the top `k` by descending y of the points stored in
/// children [0, i) (`stored[j]` for child j), recomputed by a full sort of
/// each prefix union rather than through FoldTopK. Pass the children in
/// reverse to check right-sibling chains.
inline Status CheckTsChains(Pager* pager, std::span<const PageId> heads,
                            std::span<const std::vector<Point>> stored,
                            size_t k) {
  PageIo io(pager);
  std::vector<Point> prefix;
  for (size_t i = 0; i < heads.size(); ++i) {
    std::vector<Point> want = prefix;
    std::sort(want.begin(), want.end(), PointDescYOrder());
    if (want.size() > k) want.resize(k);
    std::vector<Point> chain;
    CCIDX_RETURN_IF_ERROR(io.ReadChain<Point>(heads[i], &chain));
    if (chain != want) {
      return Status::Corruption("TS chain is not the top B^2 of its siblings");
    }
    prefix.insert(prefix.end(), stored[i].begin(), stored[i].end());
  }
  return Status::OK();
}

/// Scans a descending-y chain from the top, emitting — one page at a time
/// — the prefix of each page with y >= ylo as a zero-copy span into the
/// pinned frame, and stops after the first page containing a point with
/// y < ylo (the "one block of overshoot" the proofs charge for) or as
/// soon as the sink requests termination (no further page is pinned).
/// Returns true iff the scan crossed below ylo (false = chain exhausted,
/// i.e. every stored point has y >= ylo). When the sink stopped the scan
/// early the verdict is not meaningful; callers short-circuit on
/// em.stopped() first.
inline Result<bool> ScanDescYChain(Pager* pager, PageId head, Coord ylo,
                                   SinkEmitter<Point>& em) {
  PageIo io(pager);
  const simd::KernelTable& k = simd::Kernels();
  PageId id = head;
  while (id != kInvalidPageId && !em.stopped()) {
    auto view = io.ViewRecords<Point>(id);
    CCIDX_RETURN_IF_ERROR(view.status());
    // Descending y: the qualifying points are exactly a prefix, found by
    // the dispatched partition-point scan.
    size_t n = simd::PrefixYAtLeast(k, view->records, ylo);
    em.Emit(view->records.first(n));
    if (n < view->records.size()) return true;
    id = view->next;
  }
  return false;
}

/// Collecting wrapper over ScanDescYChain: appends the qualifying prefix
/// to `out` (used where the hits must be buffered before the
/// crossed/exhausted dichotomy is resolved, e.g. TS scans). Never stops
/// early, so the crossed verdict is always sound.
inline Result<bool> CollectDescYChain(Pager* pager, PageId head, Coord ylo,
                                      std::vector<Point>* out) {
  VectorSink<Point> sink(out);
  SinkEmitter<Point> em(&sink);
  return ScanDescYChain(pager, head, ylo, em);
}

/// Scans a vertical blocking across the x-slab [xlo, xhi], emitting each
/// page's qualifying run (contiguous — pages and their points ascend by
/// x) until the slab ends or the sink stops. At most two pages are
/// partially useful.
inline Status ScanVerticalBlocks(Pager* pager,
                                 const std::vector<VerticalBlock>& index,
                                 Coord xlo, Coord xhi,
                                 SinkEmitter<Point>& em) {
  PageIo io(pager);
  const simd::KernelTable& k = simd::Kernels();
  for (const VerticalBlock& blk : index) {
    if (blk.xhi < xlo) continue;
    if (blk.xlo > xhi || em.stopped()) break;
    auto view = io.ViewRecords<Point>(blk.page);
    CCIDX_RETURN_IF_ERROR(view.status());
    // Points ascend by x within the page: the qualifying run is the
    // contiguous window between the two partition points.
    std::span<const Point> rest =
        view->records.subspan(simd::PrefixXBelow(k, view->records, xlo));
    em.Emit(rest.first(simd::PrefixXAtMost(k, rest, xhi)));
  }
  return Status::OK();
}

/// Streams an entire [count][next][records] page chain into the sink, one
/// page-span at a time, pinning no further page once the sink stops.
template <typename Record>
inline Status EmitChain(Pager* pager, PageId head, SinkEmitter<Record>& em) {
  PageIo io(pager);
  PageId id = head;
  while (id != kInvalidPageId && !em.stopped()) {
    auto view = io.template ViewRecords<Record>(id);
    CCIDX_RETURN_IF_ERROR(view.status());
    em.Emit(view->records);
    id = view->next;
  }
  return Status::OK();
}

}  // namespace ccidx

#endif  // CCIDX_CORE_BLOCKING_H_
