#include "ccidx/bptree/bptree.h"

#include <algorithm>
#include <cstddef>

#include "ccidx/io/wal.h"
#include "ccidx/simd/simd.h"

namespace ccidx {

namespace {

// On-page node layout:
//   [u32 count][u16 is_leaf][u16 reserved][u64 next][count * BtEntry]
// Internal nodes store (separator key = min key of child subtree, child id)
// in their entries; `next` is used only by the leaf chain.
constexpr size_t kNodeHeader = 16;

// Separator keys ascend, so both routing rules are partition points over
// seps[1..] (seps[0] is the leftmost child's min key, always taken when
// nothing else routes left of `key`), found by the dispatched branchless
// search — no per-level compare-and-branch walk down the node.

// Routing rule for point/lower-bound descent: the last child whose
// separator key is strictly below `key` (so duplicate runs that span a
// split boundary are never skipped); child 0 if none.
size_t RouteLowerBound(std::span<const BtEntry> seps, int64_t key) {
  if (seps.size() <= 1) return 0;
  return simd::LowerBoundI64(
      simd::Kernels(), simd::FieldBase(seps.data() + 1, offsetof(BtEntry, key)),
      sizeof(BtEntry), seps.size() - 1, key);
}

// Routing rule for inserts: the last child whose separator key is <= key,
// so new duplicates append to the right end of an equal-key run.
size_t RouteInsert(std::span<const BtEntry> seps, int64_t key) {
  if (seps.size() <= 1) return 0;
  return simd::UpperBoundI64(
      simd::Kernels(), simd::FieldBase(seps.data() + 1, offsetof(BtEntry, key)),
      sizeof(BtEntry), seps.size() - 1, key);
}

}  // namespace

BPlusTree::BPlusTree(Pager* pager)
    : pager_(pager),
      root_(kInvalidPageId),
      height_(0),
      sy_(std::make_unique<Sync>()) {
  CCIDX_CHECK(pager_ != nullptr);
  fanout_ = static_cast<uint32_t>((pager_->page_size() - kNodeHeader) /
                                  sizeof(BtEntry));
  CCIDX_CHECK(fanout_ >= 4);
}

BPlusTree::NodeView BPlusTree::ParseNode(PageRef ref) {
  PageReader r(ref.data());
  uint32_t count = r.Get<uint32_t>();
  NodeView view;
  view.is_leaf = r.Get<uint16_t>() != 0;
  r.Get<uint16_t>();
  view.next = r.Get<uint64_t>();
  // The span aliases the frame (or transient buffer), whose address is
  // stable under PageRef moves.
  view.entries = ViewArray<BtEntry>(ref, kNodeHeader, count);
  view.ref = std::move(ref);
  return view;
}

Result<BPlusTree::NodeView> BPlusTree::ViewNode(PageId id) const {
  auto ref = pager_->Pin(id);
  CCIDX_RETURN_IF_ERROR(ref.status());
  return ParseNode(std::move(*ref));
}

Status BPlusTree::LoadNode(PageId id, Node* node) const {
  auto view = ViewNode(id);
  CCIDX_RETURN_IF_ERROR(view.status());
  node->is_leaf = view->is_leaf;
  node->next = view->next;
  node->entries.assign(view->entries.begin(), view->entries.end());
  return Status::OK();
}

Status BPlusTree::StoreNode(PageId id, const Node& node) const {
  auto ref = pager_->PinMut(id, Pager::MutMode::kOverwrite);
  CCIDX_RETURN_IF_ERROR(ref.status());
  PageWriter w(ref->data());
  w.Put<uint32_t>(static_cast<uint32_t>(node.entries.size()));
  w.Put<uint16_t>(node.is_leaf ? 1 : 0);
  w.Put<uint16_t>(0);
  w.Put<uint64_t>(node.next);
  w.PutArray(std::span<const BtEntry>(node.entries));
  return ref->Release();
}

Status BPlusTree::DescendToLeaf(
    PageId start, int64_t key,
    std::vector<std::pair<PageId, size_t>>* path) const {
  path->clear();
  const uint32_t spec = pager_->speculation_budget();
  std::vector<PageId> warm;
  PageId id = start;
  while (true) {
    // One transient pin per level; the separators are routed in place.
    auto view = ViewNode(id);
    CCIDX_RETURN_IF_ERROR(view.status());
    if (view->is_leaf) {
      path->emplace_back(id, 0);
      return Status::OK();
    }
    size_t idx = RouteLowerBound(view->entries, key);
    // Speculative descent (DESIGN.md §10): stage the routed child and its
    // right siblings as one batched device round, so the next level's pin
    // hits and a rightward walk finds neighbors resident. spec is zero in
    // cost-model mode, keeping counted I/Os untouched there.
    size_t n = std::min<size_t>(spec, view->entries.size() - idx);
    if (n >= 2) {
      warm.clear();
      for (size_t i = 0; i < n; ++i) warm.push_back(view->entries[idx + i].value);
      pager_->WarmMany(warm);
    }
    path->emplace_back(id, idx);
    id = view->entries[idx].value;
  }
}

Status BPlusTree::DescendInsert(
    PageId start, int64_t key, std::vector<std::pair<PageId, size_t>>* path,
    Node* leaf, bool* all_full) const {
  path->clear();
  *all_full = true;
  PageId id = start;
  while (true) {
    auto view = ViewNode(id);
    CCIDX_RETURN_IF_ERROR(view.status());
    if (view->entries.size() < fanout_) *all_full = false;
    if (view->is_leaf) {
      leaf->is_leaf = true;
      leaf->next = view->next;
      leaf->entries.assign(view->entries.begin(), view->entries.end());
      path->emplace_back(id, 0);
      return Status::OK();
    }
    size_t idx = RouteInsert(view->entries, key);
    path->emplace_back(id, idx);
    id = view->entries[idx].value;
  }
}

Status BPlusTree::Insert(int64_t key, uint64_t value, int64_t aux) {
  BtEntry entry{key, value, aux};
  {
    // Shared-mode attempt: route through the root read-only, latch the
    // routed subtree, and insert inside it. Restarts exclusive when the
    // split cascade would reach the root (every path node full).
    std::shared_lock<std::shared_mutex> tl(sy_->tree_mu);
    if (root_ != kInvalidPageId && height_ > 1) {
      size_t idx;
      PageId child;
      {
        auto view = ViewNode(root_);
        CCIDX_RETURN_IF_ERROR(view.status());
        idx = RouteInsert(view->entries, key);
        child = view->entries[idx].value;
      }  // root pin released before blocking on the stripe
      std::lock_guard<std::mutex> sg(sy_->stripes[idx % kStripes]);
      std::vector<std::pair<PageId, size_t>> path;
      Node node;
      bool all_full = true;
      CCIDX_RETURN_IF_ERROR(
          DescendInsert(child, key, &path, &node, &all_full));
      if (!all_full) {
        // Some path node absorbs the cascade, so no write escapes the
        // latched subtree (path[0] = the root child; SplitAndPropagate
        // stops at the first non-full ancestor). The WAL txn commits
        // while the stripe is still held (DESIGN.md §13): releasing
        // first would let a concurrent txn log this txn's uncommitted
        // pages as its own before-images.
        TxnScope txn(pager_);
        auto pos = std::upper_bound(node.entries.begin(),
                                    node.entries.end(), entry);
        node.entries.insert(pos, entry);
        sy_->size.fetch_add(1, std::memory_order_relaxed);
        CCIDX_RETURN_IF_ERROR(
            SplitAndPropagate(std::move(path), std::move(node)));
        return txn.Commit();
      }
    }
  }
  std::unique_lock<std::shared_mutex> tl(sy_->tree_mu);
  TxnScope txn(pager_);
  CCIDX_RETURN_IF_ERROR(InsertExclusive(entry));
  return txn.Commit();
}

Status BPlusTree::InsertExclusive(const BtEntry& entry) {
  if (root_ == kInvalidPageId) {
    Node leaf;
    leaf.is_leaf = true;
    leaf.entries.push_back(entry);
    // Publish the root only once it is stored: a failed store's page is
    // rolled back by the caller's scope.
    PageId id = pager_->Allocate();
    CCIDX_RETURN_IF_ERROR(StoreNode(id, leaf));
    root_ = id;
    height_ = 1;
    sy_->size.store(1, std::memory_order_relaxed);
    return Status::OK();
  }

  // Descend with insert routing, recording the path. Internal levels are
  // routed in place from pinned frames; only the target leaf is
  // materialized for modification.
  std::vector<std::pair<PageId, size_t>> path;
  Node node;
  bool all_full = true;
  CCIDX_RETURN_IF_ERROR(
      DescendInsert(root_, entry.key, &path, &node, &all_full));

  auto pos = std::upper_bound(node.entries.begin(), node.entries.end(), entry);
  node.entries.insert(pos, entry);
  sy_->size.fetch_add(1, std::memory_order_relaxed);
  return SplitAndPropagate(std::move(path), std::move(node));
}

Status BPlusTree::SplitAndPropagate(
    std::vector<std::pair<PageId, size_t>> path, Node node) {
  size_t level = path.size() - 1;
  PageId node_id = path[level].first;

  while (node.entries.size() > fanout_) {
    // Split `node` into itself (left half) and a fresh right sibling.
    Node right;
    right.is_leaf = node.is_leaf;
    size_t mid = node.entries.size() / 2;
    right.entries.assign(node.entries.begin() + mid, node.entries.end());
    node.entries.resize(mid);
    PageId right_id = pager_->Allocate();
    if (node.is_leaf) {
      right.next = node.next;
      node.next = right_id;
    }
    BtEntry promoted{right.entries[0].key, right_id, 0};
    // The fresh sibling first: until the left half is stored no page links
    // to it, so the caller's rollback may free it.
    CCIDX_RETURN_IF_ERROR(StoreNode(right_id, right));
    CCIDX_RETURN_IF_ERROR(StoreNode(node_id, node));
    // The stored left half may now link to this sibling (leaf chain) and
    // to the one split below (promoted child). The chain is not fault-
    // atomic (DESIGN.md §13): a later failure must leak, not free, them.
    pager_->KeepAllocation(right_id);

    if (level == 0) {
      Node new_root;
      new_root.is_leaf = false;
      new_root.entries = {{node.entries[0].key, node_id, 0}, promoted};
      // Publish the root only once it is stored.
      PageId new_root_id = pager_->Allocate();
      CCIDX_RETURN_IF_ERROR(StoreNode(new_root_id, new_root));
      root_ = new_root_id;
      height_++;
      return Status::OK();
    }

    level--;
    node_id = path[level].first;
    size_t child_idx = path[level].second;
    CCIDX_RETURN_IF_ERROR(LoadNode(node_id, &node));
    CCIDX_CHECK(!node.is_leaf && child_idx < node.entries.size());
    node.entries.insert(node.entries.begin() + child_idx + 1, promoted);
  }
  return StoreNode(node_id, node);
}

Status BPlusTree::Delete(int64_t key, uint64_t value, bool* found) {
  *found = false;
  {
    // Shared-mode attempt: latch the routed subtree and resolve the
    // delete inside its first candidate leaf. A duplicate run that
    // continues into the next leaf may cross a subtree boundary, so that
    // case restarts under the exclusive tree latch.
    std::shared_lock<std::shared_mutex> tl(sy_->tree_mu);
    if (root_ == kInvalidPageId) return Status::OK();
    if (height_ > 1) {
      size_t idx;
      PageId child;
      {
        auto view = ViewNode(root_);
        CCIDX_RETURN_IF_ERROR(view.status());
        idx = RouteLowerBound(view->entries, key);
        child = view->entries[idx].value;
      }
      std::lock_guard<std::mutex> sg(sy_->stripes[idx % kStripes]);
      // Declared under the stripe so both commit and (in-process) abort
      // resolve before another writer can observe the leaf. Not-found
      // exits log nothing and the scope unwinds for free.
      TxnScope txn(pager_);
      std::vector<std::pair<PageId, size_t>> path;
      CCIDX_RETURN_IF_ERROR(DescendToLeaf(child, key, &path));
      Node node;
      CCIDX_RETURN_IF_ERROR(LoadNode(path.back().first, &node));
      bool passed = false;
      for (size_t i = 0; i < node.entries.size(); ++i) {
        const BtEntry& e = node.entries[i];
        if (e.key > key) {
          passed = true;
          break;
        }
        if (e.key == key && e.value == value) {
          node.entries.erase(node.entries.begin() + i);
          sy_->size.fetch_sub(1, std::memory_order_relaxed);
          *found = true;
          CCIDX_RETURN_IF_ERROR(StoreNode(path.back().first, node));
          return txn.Commit();
        }
      }
      if (passed || node.next == kInvalidPageId) return Status::OK();
    }
  }
  std::unique_lock<std::shared_mutex> tl(sy_->tree_mu);
  TxnScope txn(pager_);
  CCIDX_RETURN_IF_ERROR(DeleteExclusive(key, value, found));
  return *found ? txn.Commit() : Status::OK();
}

Status BPlusTree::DeleteExclusive(int64_t key, uint64_t value, bool* found) {
  *found = false;
  if (root_ == kInvalidPageId) return Status::OK();
  std::vector<std::pair<PageId, size_t>> path;
  CCIDX_RETURN_IF_ERROR(DescendToLeaf(root_, key, &path));
  PageId id = path.back().first;
  Node node;
  while (id != kInvalidPageId) {
    CCIDX_RETURN_IF_ERROR(LoadNode(id, &node));
    for (size_t i = 0; i < node.entries.size(); ++i) {
      const BtEntry& e = node.entries[i];
      if (e.key > key) return Status::OK();  // passed all candidates
      if (e.key == key && e.value == value) {
        node.entries.erase(node.entries.begin() + i);
        sy_->size.fetch_sub(1, std::memory_order_relaxed);
        *found = true;
        return StoreNode(id, node);
      }
    }
    id = node.next;
  }
  return Status::OK();
}

namespace {

// The page-local qualifying run of one leaf: entries with lo <= key <= hi,
// computed with the dispatched SIMD bound kernels. `tail_size` reports how
// many entries had key >= lo — when the run is shorter than that, the scan
// crossed above hi and must stop.
std::span<const BtEntry> QualifyingRun(std::span<const BtEntry> entries,
                                       int64_t lo, int64_t hi,
                                       size_t* tail_size) {
  const simd::KernelTable& k = simd::Kernels();
  const uint8_t* keys = simd::FieldBase(entries.data(), offsetof(BtEntry, key));
  std::span<const BtEntry> tail = entries.subspan(
      k.first_i64_ge(keys, sizeof(BtEntry), entries.size(), lo));
  *tail_size = tail.size();
  return tail.first(k.first_i64_gt(
      simd::FieldBase(tail.data(), offsetof(BtEntry, key)), sizeof(BtEntry),
      tail.size(), hi));
}

}  // namespace

Status BPlusTree::RangeScanBatched(int64_t lo, int64_t hi,
                                   SinkEmitter<BtEntry>* em) const {
  const size_t budget = std::max<uint32_t>(pager_->speculation_budget(), 1);

  // Descend to the first qualifying leaf. Each internal node's child ids
  // right of the routed child are copied out (the pin is released before
  // the next level is touched, so the scan never holds more pins than the
  // current leaf window), and the routed child plus its right siblings are
  // staged as one batched device round.
  std::vector<std::vector<PageId>> anc;  // per level: routed child + right sibs
  std::vector<size_t> anc_idx;           // position within anc[level]
  std::vector<PageId> scratch;
  NodeView leaf;
  {
    PageId id = root_;
    while (true) {
      auto view = ViewNode(id);
      CCIDX_RETURN_IF_ERROR(view.status());
      if (view->is_leaf) {
        leaf = std::move(*view);
        break;
      }
      size_t idx = RouteLowerBound(view->entries, lo);
      std::vector<PageId> kids;
      kids.reserve(view->entries.size() - idx);
      for (size_t i = idx; i < view->entries.size(); ++i) {
        kids.push_back(view->entries[i].value);
      }
      size_t n = std::min(budget, kids.size());
      if (n >= 2) pager_->WarmMany(std::span<const PageId>(kids).first(n));
      id = kids[0];
      anc.push_back(std::move(kids));
      anc_idx.push_back(0);
    }
  }

  // Leaf-window loop: emit the current leaf, then advance — first within
  // the batch-pinned window, else pin the next window of up to `budget`
  // sibling leaves from the deepest ancestor with children left (one
  // PinMany = one concurrent device round). Crossing a parent boundary
  // re-reads one internal node per crossed level; together with up to
  // budget-1 pinned-but-unused leaves past hi, that is the documented
  // speculation overshoot — and the reason this path is never taken in
  // cost-model mode.
  std::vector<PageRef> window;
  size_t window_pos = 0;
  while (!em->stopped()) {
    size_t tail_size = 0;
    std::span<const BtEntry> run =
        QualifyingRun(leaf.entries, lo, hi, &tail_size);
    em->Emit(run);
    if (run.size() < tail_size) return Status::OK();  // crossed above hi
    if (em->stopped()) return Status::OK();
    leaf = NodeView{};  // release before pinning the next window

    if (window_pos < window.size()) {
      leaf = ParseNode(std::move(window[window_pos++]));
      continue;
    }
    window.clear();
    window_pos = 0;

    // Deepest ancestor with an unvisited child; none => right edge.
    size_t level = anc.size();
    while (level > 0 && anc_idx[level - 1] + 1 >= anc[level - 1].size()) {
      level--;
    }
    if (level == 0) return Status::OK();
    anc_idx[level - 1]++;
    anc.resize(level);
    anc_idx.resize(level);
    // Re-descend leftmost to the leaf-parent depth (boundary-crossing
    // internal reads: part of the overshoot bound).
    while (anc.size() + 1 < height_) {
      auto v = ViewNode(anc.back()[anc_idx.back()]);
      CCIDX_RETURN_IF_ERROR(v.status());
      CCIDX_CHECK(!v->is_leaf);
      std::vector<PageId> kids;
      kids.reserve(v->entries.size());
      for (const BtEntry& e : v->entries) kids.push_back(e.value);
      anc.push_back(std::move(kids));
      anc_idx.push_back(0);
    }

    const std::vector<PageId>& parent = anc.back();
    size_t idx = anc_idx.back();
    size_t n = std::min(budget, parent.size() - idx);
    scratch.assign(parent.begin() + idx, parent.begin() + idx + n);
    auto refs = pager_->PinMany(scratch);
    if (!refs.ok() && n > 1 &&
        refs.status().code() == StatusCode::kResourceExhausted) {
      // The window itself exhausted the pool: degrade to the serial
      // one-leaf-at-a-time footprint rather than failing a scan that
      // would succeed without speculation.
      n = 1;
      scratch.resize(1);
      refs = pager_->PinMany(scratch);
    }
    CCIDX_RETURN_IF_ERROR(refs.status());
    window = std::move(*refs);
    anc_idx.back() = idx + n - 1;
    leaf = ParseNode(std::move(window[0]));
    window_pos = 1;
  }
  return Status::OK();
}

Status BPlusTree::RangeScan(int64_t lo, int64_t hi,
                            ResultSink<BtEntry>* sink) const {
  if (root_ == kInvalidPageId || lo > hi) return Status::OK();
  SinkEmitter<BtEntry> em(sink);
  if (pager_->speculation_budget() > 0 && height_ > 1) {
    // Overlap pays (latency-injecting or file-backed device): batch the
    // leaf level instead of chasing next pointers one device round at a
    // time. Cost-model runs (speculation_budget() == 0) keep the exact
    // historical access pattern below.
    return RangeScanBatched(lo, hi, &em);
  }
  std::vector<std::pair<PageId, size_t>> path;
  CCIDX_RETURN_IF_ERROR(DescendToLeaf(root_, lo, &path));
  PageId id = path.back().first;
  while (id != kInvalidPageId && !em.stopped()) {
    // Keys ascend within a leaf, so the qualifying entries are one
    // contiguous run, emitted straight from the pinned frame.
    auto view = ViewNode(id);
    CCIDX_RETURN_IF_ERROR(view.status());
    size_t tail_size = 0;
    std::span<const BtEntry> run =
        QualifyingRun(view->entries, lo, hi, &tail_size);
    if (run.size() == tail_size && view->next != kInvalidPageId) {
      // Scan continues into the next leaf (unless the sink stops): stage
      // its read so it overlaps the emit.
      pager_->Prefetch({&view->next, 1});
    }
    em.Emit(run);
    if (run.size() < tail_size) return Status::OK();  // crossed above hi
    id = view->next;
  }
  return Status::OK();
}

Status BPlusTree::RangeSearch(int64_t lo, int64_t hi,
                              std::vector<BtEntry>* out) const {
  VectorSink<BtEntry> sink(out);
  return RangeScan(lo, hi, &sink);
}

Status BPlusTree::RangeScan(
    int64_t lo, int64_t hi,
    const std::function<void(const BtEntry&)>& fn) const {
  FunctionSink<BtEntry> sink([&fn](std::span<const BtEntry> batch) {
    for (const BtEntry& e : batch) fn(e);
    return SinkState::kContinue;
  });
  return RangeScan(lo, hi, &sink);
}

// Streaming level-by-level packer: each level holds at most two pending
// nodes (the previous full node waits for its successor's page id before
// it is written, and for the tail rebalance at finish).
class BtBulkLoader {
 public:
  BtBulkLoader(BPlusTree* tree, Pager* pager, uint32_t cap)
      : tree_(tree), pager_(pager), cap_(cap) {}

  Status Add(size_t depth, const BtEntry& e) {
    if (levels_.size() <= depth) levels_.emplace_back();
    Level& lv = levels_[depth];
    if (!lv.has_cur) OpenNode(lv, depth);
    if (lv.cur.entries.size() == cap_) {
      CCIDX_RETURN_IF_ERROR(Rotate(lv, depth));
    }
    levels_[depth].cur.entries.push_back(e);
    return Status::OK();
  }

  // Flushes every level bottom-up; returns the root. Add() may grow
  // levels_ (separators propagate upward), so no Level reference is held
  // across an Add() call and the loop bound is re-read each iteration.
  Result<PageId> Finish(uint32_t* height) {
    for (size_t depth = 0; depth < levels_.size(); ++depth) {
      CCIDX_CHECK(levels_[depth].has_cur);
      *height = static_cast<uint32_t>(depth + 1);
      if (!levels_[depth].has_prev && levels_.size() == depth + 1) {
        // A single node with nothing above it: the root.
        Level& lv = levels_[depth];
        CCIDX_RETURN_IF_ERROR(tree_->StoreNode(lv.cur_id, lv.cur));
        return lv.cur_id;
      }
      if (levels_[depth].has_prev) {
        Level& lv = levels_[depth];
        // Tail rebalance: never leave the last node below half full.
        if (lv.cur.entries.size() < (cap_ + 1) / 2) {
          std::vector<BtEntry>& a = lv.prev.entries;
          std::vector<BtEntry>& b = lv.cur.entries;
          size_t left = (a.size() + b.size()) / 2;
          b.insert(b.begin(), a.begin() + left, a.end());
          a.resize(left);
        }
        if (depth == 0) lv.prev.next = lv.cur_id;
        BtEntry sep{lv.prev.entries[0].key, lv.prev_id, 0};
        CCIDX_RETURN_IF_ERROR(tree_->StoreNode(lv.prev_id, lv.prev));
        CCIDX_RETURN_IF_ERROR(Add(depth + 1, sep));
      }
      BtEntry sep{levels_[depth].cur.entries[0].key, levels_[depth].cur_id,
                  0};
      CCIDX_RETURN_IF_ERROR(
          tree_->StoreNode(levels_[depth].cur_id, levels_[depth].cur));
      CCIDX_RETURN_IF_ERROR(Add(depth + 1, sep));
    }
    return Status::Corruption("bulk load produced no root");
  }

 private:
  struct Level {
    BPlusTree::Node prev;
    PageId prev_id = kInvalidPageId;
    bool has_prev = false;
    BPlusTree::Node cur;
    PageId cur_id = kInvalidPageId;
    bool has_cur = false;
  };

  void OpenNode(Level& lv, size_t depth) {
    lv.cur = BPlusTree::Node{};
    lv.cur.is_leaf = (depth == 0);
    lv.cur_id = pager_->Allocate();
    lv.has_cur = true;
  }

  // The current node is full and another entry is coming: the previous
  // node's successor is now known, so it can be written out; its
  // separator ascends one level.
  Status Rotate(Level& lv, size_t depth) {
    if (lv.has_prev) {
      if (depth == 0) lv.prev.next = lv.cur_id;
      CCIDX_RETURN_IF_ERROR(tree_->StoreNode(lv.prev_id, lv.prev));
      CCIDX_RETURN_IF_ERROR(
          Add(depth + 1, {lv.prev.entries[0].key, lv.prev_id, 0}));
    }
    // Add() may have grown levels_ and invalidated `lv`.
    Level& fresh = levels_[depth];
    fresh.prev = std::move(fresh.cur);
    fresh.prev_id = fresh.cur_id;
    fresh.has_prev = true;
    OpenNode(fresh, depth);
    return Status::OK();
  }

  BPlusTree* tree_;
  Pager* pager_;
  uint32_t cap_;
  std::vector<Level> levels_;
};

Result<BPlusTree> BPlusTree::BulkLoad(Pager* pager,
                                      RecordStream<BtEntry>* sorted) {
  BPlusTree tree(pager);
  // Every page is txn-allocated, so under a WAL the txn carries only
  // kAlloc records (no before-images): an uncommitted bulk load is undone
  // at recovery purely by re-freeing its pages.
  TxnScope txn(pager);
  BtBulkLoader loader(&tree, pager, tree.fanout_);
  uint64_t n = 0;
  BtEntry prev{};
  while (true) {
    auto block = sorted->Next();
    CCIDX_RETURN_IF_ERROR(block.status());
    if (block->empty()) break;
    for (const BtEntry& e : *block) {
      if (n > 0 && e < prev) {
        return Status::InvalidArgument("bulk-load input not sorted");
      }
      prev = e;
      CCIDX_RETURN_IF_ERROR(loader.Add(0, e));
      n++;
    }
  }
  if (n == 0) {
    CCIDX_RETURN_IF_ERROR(txn.Commit());
    return tree;
  }
  uint32_t height = 0;
  auto root = loader.Finish(&height);
  CCIDX_RETURN_IF_ERROR(root.status());
  tree.root_ = *root;
  tree.height_ = height;
  tree.sy_->size.store(n, std::memory_order_relaxed);
  CCIDX_RETURN_IF_ERROR(txn.Commit());
  return tree;
}

Result<BPlusTree> BPlusTree::BulkLoad(Pager* pager,
                                      std::span<const BtEntry> sorted) {
  SpanStream<BtEntry> stream(sorted);
  return BulkLoad(pager, &stream);
}

Status BPlusTree::Destroy() {
  if (root_ == kInvalidPageId) return Status::OK();
  // Iterative post-order free. Under a WAL the frees are logged with
  // their before-images and deferred to scope exit, so a crash mid-
  // destroy restores the whole tree.
  TxnScope txn(pager_);
  std::vector<PageId> stack = {root_};
  Node node;
  while (!stack.empty()) {
    PageId id = stack.back();
    stack.pop_back();
    CCIDX_RETURN_IF_ERROR(LoadNode(id, &node));
    if (!node.is_leaf) {
      for (const BtEntry& e : node.entries) stack.push_back(e.value);
    }
    CCIDX_RETURN_IF_ERROR(pager_->Free(id));
  }
  root_ = kInvalidPageId;
  sy_->size.store(0, std::memory_order_relaxed);
  height_ = 0;
  return txn.Commit();
}

std::vector<uint8_t> BPlusTree::SerializeMeta() const {
  WalEncoder enc;
  enc.PutU64(root_);
  enc.PutU32(height_);
  enc.PutU64(size());
  return std::move(enc).Take();
}

Result<BPlusTree> BPlusTree::AttachMeta(Pager* pager,
                                        std::span<const uint8_t> meta) {
  WalDecoder dec(meta);
  PageId root = dec.GetU64();
  uint32_t height = dec.GetU32();
  uint64_t size = dec.GetU64();
  if (!dec.ok() || dec.remaining() != 0) {
    return Status::Corruption("malformed B+-tree meta blob");
  }
  BPlusTree tree(pager);
  tree.root_ = root;
  tree.height_ = height;
  tree.sy_->size.store(size, std::memory_order_relaxed);
  return tree;
}

Status BPlusTree::CheckInvariants() const {
  if (root_ == kInvalidPageId) {
    if (size() != 0) return Status::Corruption("empty tree with size != 0");
    return Status::OK();
  }

  uint64_t counted = 0;
  std::vector<PageId> leftmost_leaf_by_tree;

  // DFS with (id, depth, lower-bound key the subtree must respect).
  struct Item {
    PageId id;
    uint32_t depth;
    int64_t lower;  // all keys in subtree must be >= lower
    bool enforce_lower;
  };
  std::vector<Item> stack = {{root_, 1, 0, false}};
  std::vector<PageId> leaves_in_tree_order;
  Node node;
  while (!stack.empty()) {
    Item item = stack.back();
    stack.pop_back();
    CCIDX_RETURN_IF_ERROR(LoadNode(item.id, &node));
    // Internal nodes: entry 0's key is logically -infinity (a stale hint at
    // best, since inserts into the leftmost subtree may undercut it), so
    // ordering is only required from entry 1 onward.
    auto order_begin =
        node.is_leaf ? node.entries.begin()
                     : (node.entries.empty() ? node.entries.end()
                                             : node.entries.begin() + 1);
    if (!std::is_sorted(order_begin, node.entries.end(),
                        [&](const BtEntry& a, const BtEntry& b) {
                          return node.is_leaf ? (a < b) : (a.key < b.key);
                        })) {
      return Status::Corruption("node entries out of order");
    }
    if (node.is_leaf) {
      if (item.depth != height_) {
        return Status::Corruption("leaf at wrong depth");
      }
      counted += node.entries.size();
      leaves_in_tree_order.push_back(item.id);
      if (item.enforce_lower && !node.entries.empty() &&
          node.entries[0].key < item.lower) {
        return Status::Corruption("leaf key below separator");
      }
    } else {
      if (node.entries.empty()) {
        return Status::Corruption("empty internal node");
      }
      // Push children right-to-left so DFS visits leaves left-to-right.
      for (size_t i = node.entries.size(); i-- > 0;) {
        bool enforce = item.enforce_lower || i > 0;
        int64_t lower = (i > 0) ? node.entries[i].key
                                : (item.enforce_lower ? item.lower : 0);
        stack.push_back({node.entries[i].value, item.depth + 1, lower,
                         enforce});
      }
    }
  }
  if (counted != size()) {
    return Status::Corruption("entry count mismatch");
  }

  // The leaf chain must enumerate exactly the leaves in tree order.
  std::vector<PageId> leaves_in_chain_order;
  PageId id = leaves_in_tree_order.empty() ? kInvalidPageId
                                           : leaves_in_tree_order[0];
  while (id != kInvalidPageId) {
    leaves_in_chain_order.push_back(id);
    CCIDX_RETURN_IF_ERROR(LoadNode(id, &node));
    id = node.next;
  }
  if (leaves_in_chain_order != leaves_in_tree_order) {
    return Status::Corruption("leaf chain disagrees with tree order");
  }
  return Status::OK();
}

}  // namespace ccidx
