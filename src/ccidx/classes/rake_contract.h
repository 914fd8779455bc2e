// RakeContractIndex: class indexing via hierarchy decomposition
// (Section 4, Lemmas 4.5/4.6, Theorem 4.7).
//
// label-edges (Fig. 22, after Sleator–Tarjan [34]) marks, at every interior
// class, the edge to its largest-subtree child as THICK and the rest as
// THIN; any leaf-to-root walk then crosses at most log2 c thin edges
// (Lemma 4.5). The thick edges decompose the hierarchy into thick paths.
//
// rake-and-contract (Fig. 23) repeatedly (a) RAKES thin-attached leaves —
// indexing their accumulated collection (by then the class's full extent)
// with an explicit B+-tree — and (b) CONTRACTS hanging thick paths —
// indexing the path's collections as ONE 3-sided structure (Lemma 4.3):
// within a degenerate (path) hierarchy, a full-extent query is exactly a
// 3-sided query (classes at or below the queried one x attribute range).
// Either way the deleted nodes' collections are copied to the parent, so
// each object is replicated once per thin edge on its root path: at most
// log2 c copies (Lemma 4.6).
//
// This implementation performs the equivalent direct construction: one
// structure per thick path, where path position (top = 0) is the class
// dimension and each class's collection is its extent plus the full
// extents of its thin-attached subtrees.
//
//   query  O(log_B n + t/B + log2 B) I/Os     (Theorem 4.7)
//   space  O((n/B) log2 c) pages
//
// Inserts are supported through the Lemma 4.4 semi-dynamic 3-sided tree:
// an object is inserted into the structure of its own thick path and into
// the structure at each thin-edge attachment point on its root walk — at
// most log2 c + 1 structures (Lemma 4.6), each at the amortized cost of
// Lemma 4.4, giving Theorem 4.7's amortized insert bound.

#ifndef CCIDX_CLASSES_RAKE_CONTRACT_H_
#define CCIDX_CLASSES_RAKE_CONTRACT_H_

#include <atomic>
#include <span>
#include <vector>

#include "ccidx/bptree/bptree.h"
#include "ccidx/build/record_stream.h"
#include "ccidx/classes/hierarchy.h"
#include "ccidx/core/augmented_three_sided_tree.h"

namespace ccidx {

/// label-edges: for each class, the child id reached by its thick edge
/// (kNoClass for leaves). Thick = largest subtree (ties: first).
std::vector<uint32_t> ComputeThickEdges(const ClassHierarchy& h);

/// Number of thin edges on the walk from `class_id` to its root, given the
/// thick-edge labeling. Lemma 4.5: always <= log2 c.
uint32_t ThinEdgesToRoot(const ClassHierarchy& h,
                         const std::vector<uint32_t>& thick,
                         uint32_t class_id);

/// Theorem 4.7 class index (bulk build + dynamic updates: native inserts,
/// deletes via the per-path structures' native/weak deletes).
///
/// Thread safety (DESIGN.md §7/§11): Query is const and safe to run from
/// any number of threads concurrently over one shared Pager. Insert/
/// Delete are N-writer safe within a write epoch by delegation: raked
/// B+-trees use subtree-striped latches, path 3-sided trees their
/// per-structure write latch, and the replication watermark is atomic
/// (updates to the SAME object must stay ordered — route them through
/// one writer, as UpdateExecutor's per-key partition does). Build
/// requires full quiescence (QueryExecutor::Quiesce).
class RakeContractIndex {
 public:
  // Movable (the atomic watermark requires spelling it out; moving is a
  // write, externally synchronized like all writes).
  RakeContractIndex(RakeContractIndex&& o) noexcept
      : hierarchy_(o.hierarchy_),
        paths_(std::move(o.paths_)),
        path_of_(std::move(o.path_of_)),
        pos_in_path_(std::move(o.pos_in_path_)),
        max_replication_(
            o.max_replication_.load(std::memory_order_relaxed)) {}
  RakeContractIndex& operator=(RakeContractIndex&& o) noexcept {
    hierarchy_ = o.hierarchy_;
    paths_ = std::move(o.paths_);
    path_of_ = std::move(o.path_of_);
    pos_in_path_ = std::move(o.pos_in_path_);
    max_replication_.store(
        o.max_replication_.load(std::memory_order_relaxed),
        std::memory_order_relaxed);
    return *this;
  }
  /// Builds over a frozen hierarchy from a stream of objects: each
  /// object's <= log2 c + 1 path copies are tagged with their thick-path
  /// ordinal and external-sorted once; every path structure then
  /// bulk-loads from its contiguous group of the merged stream.
  /// Fault-atomic.
  static Result<RakeContractIndex> Build(Pager* pager,
                                         const ClassHierarchy* hierarchy,
                                         RecordStream<Object>* objects);

  /// In-memory wrappers over the stream build.
  static Result<RakeContractIndex> Build(Pager* pager,
                                         const ClassHierarchy* hierarchy,
                                         std::span<const Object> objects);
  static Result<RakeContractIndex> Build(Pager* pager,
                                         const ClassHierarchy* hierarchy,
                                         const std::vector<Object>& objects);

  /// Streams ids of all objects in the full extent of `class_id` with
  /// a1 <= attr <= a2 into `sink`; kStop propagates into the path
  /// structure. O(log_B n + t/B + log2 B) I/Os.
  Status Query(uint32_t class_id, Coord a1, Coord a2,
               ResultSink<uint64_t>* sink) const;

  /// Inserts an object into every covering structure (<= log2 c + 1 of
  /// them). Amortized O(log2 c * (log_B n + log2 B + ...)) I/Os.
  Status Insert(const Object& o);

  /// Deletes an object from every covering structure; sets *found (true
  /// iff any replica was removed). Raked B+-trees delete natively
  /// (O(log_B n) each); path 3-sided trees weak-delete through the
  /// dynamization layer (DESIGN.md §8) — amortized O(log2 c * log_B n)
  /// I/Os plus the per-structure purge charges. Under a device fault the
  /// composite walk is resumable, not atomic: retry the same Delete to
  /// remove the remaining replicas (each component delete is itself
  /// atomic). N-writer safe within a write epoch (see class comment).
  Status Delete(const Object& o, bool* found);

  /// Max copies of any object across all structures (Lemma 4.6: <= log2 c
  /// thin edges + 1).
  uint32_t max_replication() const {
    return max_replication_.load(std::memory_order_relaxed);
  }

  /// Number of thick paths (== number of structures).
  size_t num_paths() const { return paths_.size(); }

 private:
  struct PathStructure {
    std::vector<uint32_t> classes;  // top to bottom
    // Singleton paths use a raked B+-tree; longer paths a semi-dynamic
    // 3-sided tree (Lemma 4.4).
    bool is_btree;
    BPlusTree btree;
    AugmentedThreeSidedTree tstree;

    PathStructure(BPlusTree bt, AugmentedThreeSidedTree ts, bool use_bt,
                  std::vector<uint32_t> cls)
        : classes(std::move(cls)),
          is_btree(use_bt),
          btree(std::move(bt)),
          tstree(std::move(ts)) {}
  };

  RakeContractIndex(const ClassHierarchy* hierarchy)
      : hierarchy_(hierarchy) {}

  const ClassHierarchy* hierarchy_;
  std::vector<PathStructure> paths_;
  std::vector<size_t> path_of_;  // class -> index into paths_
  std::vector<Coord> pos_in_path_;  // class -> position from path top
  // Monotone watermark, raised by concurrent inserters (CAS max).
  std::atomic<uint32_t> max_replication_{0};
};

}  // namespace ccidx

#endif  // CCIDX_CLASSES_RAKE_CONTRACT_H_
