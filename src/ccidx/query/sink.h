// ResultSink: the streaming query-execution interface (DESIGN.md §5).
//
// The paper's query bound O(log_B n + t/B) charges I/Os to blocks of
// *output*, yet a consumer that needs only a count, an existence bit, or
// the first k results should not pay the full t/B term — nor a heap copy
// per record. Every index family's reporting path therefore emits results
// block-at-a-time into a ResultSink: wherever the on-page order admits it
// the emitted span aliases the pinned buffer-pool frame directly (the
// PostgreSQL index-AM pattern of streaming tuples out of pinned pages),
// and a kStop return propagates up the query recursion, halting descent
// before any further page is pinned.
//
// Contract:
//   * Emit receives only non-empty batches (SinkEmitter filters empties).
//   * A span passed to Emit is valid only for the duration of the call —
//     it may alias a pinned page that is released immediately after.
//   * Emit after a previous kStop is permitted and must keep returning
//     kStop without side effects (adapters may be shared across several
//     underlying scans).

#ifndef CCIDX_QUERY_SINK_H_
#define CCIDX_QUERY_SINK_H_

#include <algorithm>
#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <vector>

namespace ccidx {

/// Flow-control verdict a sink returns per emitted block.
enum class SinkState {
  kContinue,  ///< keep producing
  kStop,      ///< early termination: stop descending, pin no further pages
};

/// Consumer of query results, fed block-at-a-time.
template <typename T>
class ResultSink {
 public:
  virtual ~ResultSink() = default;

  /// Consumes one block of results. The span is only valid during the
  /// call. Returning kStop halts the producing query.
  virtual SinkState Emit(std::span<const T> batch) = 0;
};

/// Appends every result to a vector. This is how a caller materializes
/// an answer: `VectorSink<T> sink(&out); index.Query(q, &sink);`.
template <typename T>
class VectorSink final : public ResultSink<T> {
 public:
  explicit VectorSink(std::vector<T>* out) : out_(out) {}

  SinkState Emit(std::span<const T> batch) override {
    out_->insert(out_->end(), batch.begin(), batch.end());
    return SinkState::kContinue;
  }

 private:
  std::vector<T>* out_;
};

/// Counts results without storing them. SELECT COUNT(*): still pays t/B
/// I/Os (every output block is read) but no per-record heap traffic.
template <typename T>
class CountSink final : public ResultSink<T> {
 public:
  SinkState Emit(std::span<const T> batch) override {
    count_ += batch.size();
    return SinkState::kContinue;
  }

  uint64_t count() const { return count_; }

 private:
  uint64_t count_ = 0;
};

/// Stops at the first result. EXISTS: O(log_B n) I/Os — the t/B term
/// vanishes entirely.
template <typename T>
class ExistsSink final : public ResultSink<T> {
 public:
  SinkState Emit(std::span<const T> batch) override {
    (void)batch;  // non-empty by contract
    exists_ = true;
    return SinkState::kStop;
  }

  bool exists() const { return exists_; }

 private:
  bool exists_ = false;
};

/// Keeps the first k results, then stops. Top-k / first-page workloads:
/// O(log_B n + k/B) I/Os regardless of the full result size t.
template <typename T>
class LimitSink final : public ResultSink<T> {
 public:
  explicit LimitSink(size_t k) : k_(k) {}

  SinkState Emit(std::span<const T> batch) override {
    if (results_.size() >= k_) return SinkState::kStop;
    size_t take = std::min(batch.size(), k_ - results_.size());
    results_.insert(results_.end(), batch.begin(), batch.begin() + take);
    return results_.size() >= k_ ? SinkState::kStop : SinkState::kContinue;
  }

  const std::vector<T>& results() const { return results_; }

 private:
  size_t k_;
  std::vector<T> results_;
};

/// Wraps an arbitrary per-block callable as a sink.
template <typename T>
class FunctionSink final : public ResultSink<T> {
 public:
  using Fn = std::function<SinkState(std::span<const T>)>;
  explicit FunctionSink(Fn fn) : fn_(std::move(fn)) {}

  SinkState Emit(std::span<const T> batch) override { return fn_(batch); }

 private:
  Fn fn_;
};

/// Adapter mapping each In record through `fn` (nullopt drops the record)
/// and forwarding the staged block to an Out sink. Used where a structure
/// reports one record type and the public API another (Point -> Interval,
/// BtEntry -> object id). Remembers the inner verdict so a caller driving
/// several scans through one adapter can short-circuit via stopped().
template <typename In, typename Out>
class TransformSink final : public ResultSink<In> {
 public:
  using Fn = std::function<std::optional<Out>(const In&)>;
  TransformSink(ResultSink<Out>* inner, Fn fn)
      : inner_(inner), fn_(std::move(fn)) {}

  SinkState Emit(std::span<const In> batch) override {
    if (state_ == SinkState::kStop) return state_;
    scratch_.clear();
    for (const In& v : batch) {
      if (std::optional<Out> o = fn_(v)) scratch_.push_back(std::move(*o));
    }
    if (!scratch_.empty()) state_ = inner_->Emit(scratch_);
    return state_;
  }

  bool stopped() const { return state_ == SinkState::kStop; }

 private:
  ResultSink<Out>* inner_;
  Fn fn_;
  std::vector<Out> scratch_;
  SinkState state_ = SinkState::kContinue;
};

/// Longest prefix of `s` whose elements satisfy `pred` — the page-local
/// qualifying run of a sorted page (e.g. y >= ylo on a descending-y page,
/// x <= a on an ascending-x page). Every reporting path computes its
/// boundaries through these two helpers so the sortedness invariant lives
/// in one place.
template <typename T, typename Pred>
std::span<const T> TakeWhile(std::span<const T> s, Pred pred) {
  size_t n = 0;
  while (n < s.size() && pred(s[n])) n++;
  return s.first(n);
}

/// Drops the longest prefix of `s` whose elements satisfy `pred`.
template <typename T, typename Pred>
std::span<const T> DropWhile(std::span<const T> s, Pred pred) {
  size_t n = 0;
  while (n < s.size() && pred(s[n])) n++;
  return s.subspan(n);
}

/// Per-query driver a reporting path holds by reference: filters empty
/// batches, latches the stop verdict (checked between pages / before each
/// recursive descent), and stages filtered per-page emission.
template <typename T>
class SinkEmitter {
 public:
  explicit SinkEmitter(ResultSink<T>* sink) : sink_(sink) {}

  /// True once the sink has requested early termination. Producers check
  /// this before pinning the next page or descending into a child.
  bool stopped() const { return stopped_; }

  /// Emits one block (typically a span aliasing a pinned page). Returns
  /// stopped() for convenient `if (em.Emit(...)) return ...;` chains.
  bool Emit(std::span<const T> batch) {
    if (stopped_ || batch.empty()) return stopped_;
    stopped_ = sink_->Emit(batch) == SinkState::kStop;
    return stopped_;
  }

  /// Emits the subsequence of `batch` accepted by `pred`, staged through
  /// an internal scratch buffer — still one Emit per page, for reporting
  /// paths whose qualifying records are not contiguous on the page.
  template <typename Pred>
  bool EmitFiltered(std::span<const T> batch, Pred pred) {
    if (stopped_) return true;
    scratch_.clear();
    for (const T& v : batch) {
      if (pred(v)) scratch_.push_back(v);
    }
    return Emit(scratch_);
  }

  /// Emits the records of `batch` selected by a compacted index list (the
  /// output format of the simd/ filter kernels). When every record was
  /// selected the original span is forwarded zero-copy — the all-match
  /// page, common in range reporting, pays no gather at all.
  bool EmitGather(std::span<const T> batch, std::span<const uint32_t> idx) {
    if (stopped_ || idx.empty()) return stopped_;
    if (idx.size() == batch.size()) return Emit(batch);
    scratch_.clear();
    scratch_.reserve(idx.size());
    for (uint32_t i : idx) scratch_.push_back(batch[i]);
    return Emit(scratch_);
  }

 private:
  ResultSink<T>* sink_;
  std::vector<T> scratch_;
  bool stopped_ = false;
};

}  // namespace ccidx

#endif  // CCIDX_QUERY_SINK_H_
