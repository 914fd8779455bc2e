// SimpleClassIndex: the practical class-indexing method of Theorem 2.6.
//
// A binary range tree over the (static) class dimension: every node of a
// balanced binary tree on the class codes owns a collection — the objects
// whose class code falls in the node's range — and each collection is
// indexed by a B+-tree on the query attribute (procedure index-classes,
// Fig. 6). A query on class C decomposes C's subtree code-range into at
// most 2*ceil(log2 c) canonical nodes and runs a 1-d range search in each;
// an update touches the ceil(log2 c) nodes covering one code.
//
//   query  O(log2 c * log_B n + t/B) I/Os
//   update O(log2 c * log_B n) I/Os (inserts AND deletes — fully dynamic)
//   space  O((n/B) log2 c) pages
//
// The paper singles this scheme out as "an ideal choice for implementation"
// (§2.2); Section 4's RakeContractIndex improves the query bound.

#ifndef CCIDX_CLASSES_SIMPLE_CLASS_INDEX_H_
#define CCIDX_CLASSES_SIMPLE_CLASS_INDEX_H_

#include <atomic>
#include <span>
#include <vector>

#include "ccidx/bptree/bptree.h"
#include "ccidx/build/record_stream.h"
#include "ccidx/classes/hierarchy.h"

namespace ccidx {

/// Theorem 2.6 class index (range tree of B+-trees). Natively fully
/// dynamic: every update touches the ceil(log2 c) covering collections'
/// B+-trees at O(log2 c * log_B n) I/Os worst case, no amortization —
/// the baseline the dynamization layer's amortized families are measured
/// against (DESIGN.md §8).
///
/// Thread safety (DESIGN.md §7/§11): Query/QueryObjects are const and
/// safe to run from any number of threads concurrently over one shared
/// Pager. Insert/Delete are N-writer safe within a write epoch: every
/// covering collection is a B+-tree (subtree-striped latches) and the
/// size counter is atomic. Build still requires full quiescence
/// (QueryExecutor::Quiesce; writers fan out via UpdateExecutor).
class SimpleClassIndex {
 public:
  /// `hierarchy` must be frozen and outlive the index.
  SimpleClassIndex(Pager* pager, const ClassHierarchy* hierarchy);

  // Movable (the atomic counters require spelling it out; moving is a
  // write, externally synchronized like all writes).
  SimpleClassIndex(SimpleClassIndex&& o) noexcept
      : hierarchy_(o.hierarchy_),
        nodes_(std::move(o.nodes_)),
        trees_(std::move(o.trees_)),
        size_(o.size_.load(std::memory_order_relaxed)),
        last_query_collections_(
            o.last_query_collections_.load(std::memory_order_relaxed)) {}
  SimpleClassIndex& operator=(SimpleClassIndex&& o) noexcept {
    hierarchy_ = o.hierarchy_;
    nodes_ = std::move(o.nodes_);
    trees_ = std::move(o.trees_);
    size_.store(o.size_.load(std::memory_order_relaxed),
                std::memory_order_relaxed);
    last_query_collections_.store(
        o.last_query_collections_.load(std::memory_order_relaxed),
        std::memory_order_relaxed);
    return *this;
  }

  /// Bulk-builds from a stream of objects: each object's log2 c covering
  /// collections are tagged and external-sorted once, then every
  /// collection bulk-loads from its group of the merged stream —
  /// O(log2 c) sorted replicas, never materialized. Fault-atomic.
  static Result<SimpleClassIndex> Build(Pager* pager,
                                        const ClassHierarchy* hierarchy,
                                        RecordStream<Object>* objects);

  /// In-memory wrappers over the stream build.
  static Result<SimpleClassIndex> Build(Pager* pager,
                                        const ClassHierarchy* hierarchy,
                                        std::span<const Object> objects);
  static Result<SimpleClassIndex> Build(Pager* pager,
                                        const ClassHierarchy* hierarchy,
                                        std::vector<Object>&& objects);

  /// Inserts an object. O(log2 c * log_B n) I/Os.
  Status Insert(const Object& o);

  /// Deletes an object (by id + class + attr). O(log2 c * log_B n) I/Os.
  Status Delete(const Object& o, bool* found);

  /// Streams the ids of all objects in the full extent of `class_id` with
  /// a1 <= attr <= a2 into `sink`; kStop skips the remaining canonical
  /// collections entirely. O(log2 c * log_B n + t/B) I/Os.
  Status Query(uint32_t class_id, Coord a1, Coord a2,
               ResultSink<uint64_t>* sink) const;

  /// As Query, but streams full objects (class decoded from the entry's
  /// aux code).
  Status QueryObjects(uint32_t class_id, Coord a1, Coord a2,
                      ResultSink<Object>* sink) const;

  uint64_t size() const { return size_.load(std::memory_order_relaxed); }

  /// Number of collections (B+-trees) — O(c).
  size_t num_collections() const { return nodes_.size(); }

  /// Collections consulted by the last Query (must be <= 2*ceil(log2 c)).
  /// Under concurrent queries this reports one of the in-flight queries'
  /// counts (relaxed atomic — diagnostics only, never torn).
  size_t last_query_collections() const {
    return last_query_collections_.load(std::memory_order_relaxed);
  }

 private:
  struct RangeNode {
    Coord lo, hi;      // class-code range covered
    size_t left = 0;   // indices into nodes_; 0 == none (node 0 is root)
    size_t right = 0;
  };

  size_t BuildNode(Coord lo, Coord hi);
  // Canonical decomposition of [lo, hi] into node indices.
  void Decompose(size_t node, Coord lo, Coord hi,
                 std::vector<size_t>* out) const;
  // Stages the root pages of the canonical collections as one batched
  // device round before the serial per-collection scans (DESIGN.md §10).
  // No-op in cost-model mode (speculation budget zero).
  void WarmCanonicalRoots(const std::vector<size_t>& canonical) const;
  // Nodes on the path covering a single code.
  void PathTo(Coord code, std::vector<size_t>* out) const;

  const ClassHierarchy* hierarchy_;
  std::vector<RangeNode> nodes_;
  std::vector<BPlusTree> trees_;  // parallel to nodes_
  std::atomic<uint64_t> size_{0};
  mutable std::atomic<size_t> last_query_collections_{0};
};

}  // namespace ccidx

#endif  // CCIDX_CLASSES_SIMPLE_CLASS_INDEX_H_
