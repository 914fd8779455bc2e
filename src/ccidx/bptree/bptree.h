// External B+-tree: dynamic one-dimensional range searching.
//
// The paper's point of reference (§1.1): space O(n/B) pages, range query
// O(log_B n + t/B) I/Os, insert/delete O(log_B n) I/Os. Used here as
//   * the baseline for experiment E1,
//   * the endpoint index of interval management (types 1 & 2, Prop. 2.2),
//   * the per-collection index of class indexing ("index a collection",
//     §2.2).
//
// Data lives only in the leaves; leaves are chained left-to-right, so a
// range scan locates the lower bound and walks the chain (B+-tree per [10]).
// Duplicate keys are allowed; entries are unique by (key, value).
//
// Deletes remove entries in place. Pages are not merged on underflow (as in
// several production B-trees, e.g. PostgreSQL's nbtree, reclamation happens
// on rebuild); empty leaves are unlinked lazily during scans' cost is still
// O(log_B n + t/B) counting live pages, and the paper's own structures are
// insert-only, so this does not affect any reproduced bound.

#ifndef CCIDX_BPTREE_BPTREE_H_
#define CCIDX_BPTREE_BPTREE_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <vector>

#include "ccidx/build/record_stream.h"
#include "ccidx/io/page_builder.h"
#include "ccidx/io/pager.h"
#include "ccidx/query/sink.h"

namespace ccidx {

/// One indexed entry: a key, an opaque 64-bit payload (e.g. object id), and
/// an auxiliary 64-bit field carried alongside (e.g. an interval's second
/// endpoint, or a class code) so range scans stay output-compact (t/B pages)
/// without a side lookup per result. Entries are identified by (key, value);
/// aux does not participate in ordering or equality of identity.
struct BtEntry {
  int64_t key;
  uint64_t value;
  int64_t aux;

  bool operator==(const BtEntry& o) const {
    return key == o.key && value == o.value && aux == o.aux;
  }
  bool operator<(const BtEntry& o) const {
    if (key != o.key) return key < o.key;
    return value < o.value;
  }
};

/// A dynamic external-memory B+-tree over (int64 key, uint64 value) entries.
/// Insert and Delete are worst-case O(log_B n) I/Os (no amortization) —
/// the reference point for the dynamization layer's amortized families
/// (DESIGN.md §8).
///
/// Thread safety (DESIGN.md §11): the RangeScan forms are const and safe
/// to run from any number of threads concurrently over one shared Pager;
/// the epoch gate excludes them from writes. Within a write epoch, Insert
/// and Delete are safe from N threads concurrently: each takes the tree
/// latch shared plus one striped subtree latch keyed by the root child it
/// routes through, so updates to different root subtrees run in parallel
/// (no write ever touches another subtree's pages — the root page is
/// read-only in shared mode). An insert whose split cascade would reach
/// the root (every node on the descent path full — decided read-only
/// before any write) and a delete whose duplicate run crosses a leaf
/// boundary restart under the exclusive tree latch instead. BulkLoad,
/// Destroy, and CheckInvariants still require full quiescence.
class BPlusTree {
 public:
  /// Creates an empty tree whose pages are managed by `pager`.
  explicit BPlusTree(Pager* pager);

  /// Bulk-loads from a stream of entries sorted by (key, value): true
  /// leaf packing, one level of node builders deep — O(n/B) I/Os with
  /// O(B log_B n) working memory, so inputs need never be materialized.
  /// The last two nodes of each level are rebalanced so no node ends
  /// below half full. Fault-atomic.
  static Result<BPlusTree> BulkLoad(Pager* pager,
                                    RecordStream<BtEntry>* sorted);

  /// In-memory wrapper over the streaming bulk load.
  static Result<BPlusTree> BulkLoad(Pager* pager,
                                    std::span<const BtEntry> sorted);

  /// Inserts an entry; duplicates by (key, value) are permitted and stored.
  /// O(log_B n) I/Os.
  Status Insert(int64_t key, uint64_t value, int64_t aux = 0);

  /// Removes one entry equal to (key, value). Sets *found accordingly.
  Status Delete(int64_t key, uint64_t value, bool* found);

  /// Streams all entries with lo <= key <= hi into `sink` in key order,
  /// one leaf-page span at a time straight from the pinned frame; kStop
  /// stops the leaf-chain walk before another page is pinned.
  /// O(log_B n + t/B) I/Os.
  Status RangeScan(int64_t lo, int64_t hi, ResultSink<BtEntry>* sink) const;

  /// Streaming variant: invokes `fn` per matching entry.
  Status RangeScan(int64_t lo, int64_t hi,
                   const std::function<void(const BtEntry&)>& fn) const;

  /// Number of entries. Thread-safe (relaxed read).
  uint64_t size() const {
    return sy_->size.load(std::memory_order_relaxed);
  }

  /// Height in nodes (0 for empty tree, 1 for a single leaf).
  uint32_t height() const { return height_; }

  /// Root page id (kInvalidPageId when empty).
  PageId root() const { return root_; }

  /// Owning pager. Composite indexes use this to stage batched warm-ups
  /// of several component-tree roots before querying them serially.
  Pager* pager() const { return pager_; }

  /// Maximum entries per node for this pager's page size.
  uint32_t fanout() const { return fanout_; }

  /// Frees every page owned by the tree.
  Status Destroy();

  /// Structural invariant check (keys ordered, separator keys correct,
  /// leaf chain consistent). Used by tests; O(n/B) I/Os.
  Status CheckInvariants() const;

  /// Serializes the attachable state (root, height, size) for the WAL
  /// meta registry (DESIGN.md §13). Fanout is a function of the page
  /// size and is recomputed on attach. Requires quiescence.
  std::vector<uint8_t> SerializeMeta() const;

  /// Rebuilds a handle onto pages recovered by Wal::Recover from a blob
  /// produced by SerializeMeta against the same pager geometry.
  static Result<BPlusTree> AttachMeta(Pager* pager,
                                      std::span<const uint8_t> meta);

 private:
  friend class BtBulkLoader;  // streaming bulk-load packer (bptree.cc)

  // In-memory image of one node page (update paths: the entries vector is
  // mutated and stored back).
  struct Node {
    bool is_leaf = true;
    PageId next = kInvalidPageId;  // leaf chain (leaves only)
    std::vector<BtEntry> entries;  // leaf: data; internal: (min_key, child)
  };

  // Zero-copy image of one node page: the entry span aliases the pinned
  // buffer-pool frame and stays valid while `ref` is held. Used by the
  // read-only hot paths (descent, range scans).
  struct NodeView {
    PageRef ref;
    bool is_leaf = true;
    PageId next = kInvalidPageId;
    std::span<const BtEntry> entries;
  };

  // Decodes the node header/entries of an already-pinned page; the view
  // takes ownership of the ref. Shared by ViewNode and the batched scan
  // path (which pins whole leaf windows via Pager::PinMany).
  static NodeView ParseNode(PageRef ref);

  Result<NodeView> ViewNode(PageId id) const;
  Status LoadNode(PageId id, Node* node) const;
  Status StoreNode(PageId id, const Node& node) const;

  // Speculation-gated scan (DESIGN.md §10): reached only when
  // pager_->speculation_budget() > 0 (never in cost-model mode). Walks the
  // leaf level through parent child-id windows pinned as one concurrent
  // device batch instead of the dependent next-pointer chain, so a t/B-leaf
  // scan costs ~t/(B*budget) device round-trips of latency instead of t/B.
  Status RangeScanBatched(int64_t lo, int64_t hi,
                          SinkEmitter<BtEntry>* em) const;

  // Descends from `start` to the leaf that should hold `key`, recording
  // the path as (page id, child index within parent). path->back() is
  // the leaf.
  Status DescendToLeaf(PageId start, int64_t key,
                       std::vector<std::pair<PageId, size_t>>* path) const;

  // Stores `node`, the leaf at path.back() holding one new entry,
  // splitting up the path as needed. The entry counts in size() only once
  // the leaf level is stored: a failed leaf store leaves it off the device.
  Status SplitAndPropagate(std::vector<std::pair<PageId, size_t>> path,
                           Node node);

  // Shared-mode descent for Insert: records the path from `start` down
  // (insert routing), materializes the leaf into `*leaf`, and reports in
  // `*all_full` whether every node on the path is at capacity — the exact
  // predicate for "the split cascade reaches above `start`".
  Status DescendInsert(PageId start, int64_t key,
                       std::vector<std::pair<PageId, size_t>>* path,
                       Node* leaf, bool* all_full) const;

  // Full insert/delete under the exclusive tree latch (also the
  // sequential path for trees of height <= 1).
  Status InsertExclusive(const BtEntry& entry);
  Status DeleteExclusive(int64_t key, uint64_t value, bool* found);

  static constexpr size_t kStripes = 16;

  // Write-epoch latches (DESIGN.md §11), boxed so the tree stays
  // movable. Lock order: tree_mu (shared) -> one stripe.
  struct Sync {
    std::shared_mutex tree_mu;
    std::array<std::mutex, kStripes> stripes;
    std::atomic<uint64_t> size{0};
  };

  Pager* pager_;
  PageId root_;
  uint32_t height_;
  uint32_t fanout_;
  std::unique_ptr<Sync> sy_;
};

}  // namespace ccidx

#endif  // CCIDX_BPTREE_BPTREE_H_
