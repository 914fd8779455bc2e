// Baseline class-indexing schemes from §2.2, used as comparators in
// experiments E5/E6.
//
//   * SingleIndexBaseline — one B+-tree over all objects; a query range-
//     scans by attribute and filters by class. Cannot compact a t-sized
//     output into t/B pages: the matching objects are interspersed with
//     everything else, so query I/O is O(log_B n + t_all/B) where t_all
//     counts all classes.
//   * FullExtentIndex — one B+-tree per class over its FULL extent.
//     Optimal queries O(log_B n + t/B), but an object is replicated once
//     per ancestor: space O((n/B) * depth) (Θ(c n/B) worst case) and
//     update O(depth * log_B n) (Lemma 4.2 when depth is constant).
//   * ExtentOnlyIndex — one B+-tree per class over its extent only (one
//     copy). Linear space and cheap updates, but a query must consult
//     every class of the subtree: O(s * log_B n + t/B) for subtree size s.

#ifndef CCIDX_CLASSES_BASELINES_H_
#define CCIDX_CLASSES_BASELINES_H_

#include <atomic>
#include <cstdint>
#include <span>
#include <vector>

#include "ccidx/bptree/bptree.h"
#include "ccidx/build/record_stream.h"
#include "ccidx/classes/hierarchy.h"

namespace ccidx {

/// One B+-tree over all objects; query-time class filtering.
///
/// Thread safety (all three baselines, DESIGN.md §7/§11): Query is const
/// and safe to run from any number of threads concurrently over one
/// shared Pager. Insert/Delete are N-writer safe *within a write epoch*:
/// they delegate to B+-trees (subtree-striped latches) and keep their own
/// size counters atomic. Build/Destroy still require full quiescence
/// (QueryExecutor::Quiesce; writers fan out via UpdateExecutor).
class SingleIndexBaseline {
 public:
  SingleIndexBaseline(Pager* pager, const ClassHierarchy* hierarchy);

  /// Bulk-builds via one external sort + B+-tree bulk load. Fault-atomic.
  static Result<SingleIndexBaseline> Build(Pager* pager,
                                           const ClassHierarchy* hierarchy,
                                           RecordStream<Object>* objects);
  static Result<SingleIndexBaseline> Build(Pager* pager,
                                           const ClassHierarchy* hierarchy,
                                           std::span<const Object> objects);

  Status Insert(const Object& o);
  Status Delete(const Object& o, bool* found);
  /// O(log_B n + t_all/B): scans every object in the attribute range.
  /// Note kStop cannot rescue the t_all/B term here: the scan still walks
  /// non-matching classes until enough matches surface.
  Status Query(uint32_t class_id, Coord a1, Coord a2,
               ResultSink<uint64_t>* sink) const;
  uint64_t size() const { return tree_.size(); }

 private:
  const ClassHierarchy* hierarchy_;
  BPlusTree tree_;  // key = attr, value = id, aux = class code
};

/// One B+-tree per class over the class's full extent.
class FullExtentIndex {
 public:
  FullExtentIndex(Pager* pager, const ClassHierarchy* hierarchy);

  // Movable (the atomic size counter requires spelling it out; moving is
  // a write, externally synchronized like all writes).
  FullExtentIndex(FullExtentIndex&& o) noexcept
      : hierarchy_(o.hierarchy_),
        trees_(std::move(o.trees_)),
        size_(o.size_.load(std::memory_order_relaxed)) {}
  FullExtentIndex& operator=(FullExtentIndex&& o) noexcept {
    hierarchy_ = o.hierarchy_;
    trees_ = std::move(o.trees_);
    size_.store(o.size_.load(std::memory_order_relaxed),
                std::memory_order_relaxed);
    return *this;
  }

  /// Bulk-builds: one external sort of the per-ancestor replicas, then a
  /// bulk load per class tree. Fault-atomic.
  static Result<FullExtentIndex> Build(Pager* pager,
                                       const ClassHierarchy* hierarchy,
                                       RecordStream<Object>* objects);
  static Result<FullExtentIndex> Build(Pager* pager,
                                       const ClassHierarchy* hierarchy,
                                       std::span<const Object> objects);

  /// O(depth * log_B n) I/Os: inserts into every ancestor's tree.
  Status Insert(const Object& o);
  Status Delete(const Object& o, bool* found);
  /// Optimal O(log_B n + t/B): one tree holds exactly the answer superset.
  Status Query(uint32_t class_id, Coord a1, Coord a2,
               ResultSink<uint64_t>* sink) const;
  uint64_t size() const { return size_.load(std::memory_order_relaxed); }

 private:
  const ClassHierarchy* hierarchy_;
  std::vector<BPlusTree> trees_;  // one per class
  std::atomic<uint64_t> size_{0};
};

/// One B+-tree per class over the class's own extent (single copy).
class ExtentOnlyIndex {
 public:
  ExtentOnlyIndex(Pager* pager, const ClassHierarchy* hierarchy);

  // Movable (see FullExtentIndex).
  ExtentOnlyIndex(ExtentOnlyIndex&& o) noexcept
      : hierarchy_(o.hierarchy_),
        trees_(std::move(o.trees_)),
        size_(o.size_.load(std::memory_order_relaxed)) {}
  ExtentOnlyIndex& operator=(ExtentOnlyIndex&& o) noexcept {
    hierarchy_ = o.hierarchy_;
    trees_ = std::move(o.trees_);
    size_.store(o.size_.load(std::memory_order_relaxed),
                std::memory_order_relaxed);
    return *this;
  }

  /// Bulk-builds: one external sort by (class, attr), then a bulk load
  /// per extent tree. Fault-atomic.
  static Result<ExtentOnlyIndex> Build(Pager* pager,
                                       const ClassHierarchy* hierarchy,
                                       RecordStream<Object>* objects);
  static Result<ExtentOnlyIndex> Build(Pager* pager,
                                       const ClassHierarchy* hierarchy,
                                       std::span<const Object> objects);

  /// O(log_B n) I/Os.
  Status Insert(const Object& o);
  Status Delete(const Object& o, bool* found);
  /// O(subtree_size * log_B n + t/B): one search per descendant class.
  /// kStop skips the remaining descendant classes.
  Status Query(uint32_t class_id, Coord a1, Coord a2,
               ResultSink<uint64_t>* sink) const;
  uint64_t size() const { return size_.load(std::memory_order_relaxed); }

 private:
  const ClassHierarchy* hierarchy_;
  std::vector<BPlusTree> trees_;
  std::atomic<uint64_t> size_{0};
};

}  // namespace ccidx

#endif  // CCIDX_CLASSES_BASELINES_H_
