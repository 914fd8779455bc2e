// ExternalSorter: bounded-memory external merge sort over the pager
// (DESIGN.md §6).
//
// Construction in the KanellakisRVV93 model must not assume the dataset
// fits in main memory: structures are built from sorted streams at the
// sorting cost of O((n/B) log_{M/B} (n/B)) I/Os. This sorter reproduces
// that algorithm (and hence that bound) exactly:
//   * run formation — records accumulate in a buffer of at most
//     `memory_budget_records`; a full buffer is sorted in place and
//     spilled to a device-resident run (a page chain via RunWriter);
//   * merging — runs are k-way merged with a loser tree, k = M/B - 1
//     input blocks plus one output block inside the same memory envelope;
//     merge steps run only while the run count exceeds the fan-in;
//   * streaming output — the final merge is lazy: Finish() returns a
//     RecordStream producing sorted blocks on demand, freeing each run
//     page as soon as it has been consumed.
// Inputs that never exceed the budget never touch the device at all
// (in_memory() reports which regime a sort ended in), so wrapping an
// in-core build in the sorter costs nothing.
//
// All device traffic flows through the Pager, so IoStats counts sort I/Os
// like any other operation and fault injection exercises every transfer.
// For fault-atomicity (no leaked run pages when a transfer fails), run
// the sorter inside a TxnScope — rollback frees spilled pages
// without reading them, which chain-walking cleanup cannot do once the
// device is failing.

#ifndef CCIDX_BUILD_EXTERNAL_SORTER_H_
#define CCIDX_BUILD_EXTERNAL_SORTER_H_

#include <algorithm>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "ccidx/build/loser_tree.h"
#include "ccidx/build/record_stream.h"
#include "ccidx/build/run.h"

namespace ccidx {

/// Default sorter working memory for records of the given width: B blocks
/// of B records — the paper's O(B^2) main-memory assumption (§1.1).
inline size_t DefaultSortBudget(Pager* pager, size_t record_size) {
  PageIo io(pager);
  size_t cap = io.CapacityFor(record_size);
  return std::max<size_t>(2 * cap, cap * cap);
}

/// Lazily merges sorted runs into one sorted stream. Each way buffers one
/// page block (pinned zero-copy); consumed run pages are freed behind the
/// cursor. When overlap pays, each way's next page is warmed resident
/// ahead of its pin, so up to two pages per way occupy the pool.
template <typename T, typename Less>
class MergeStream final : public RecordStream<T> {
 public:
  MergeStream(Pager* pager, std::vector<SortedRun> runs, Less less,
              size_t out_block)
      : pager_(pager), less_(less),
        out_block_(out_block == 0 ? 1 : out_block) {
    ways_.reserve(runs.size());
    for (const SortedRun& run : runs) {
      ways_.push_back(std::make_unique<Way>(pager, run));
    }
  }

  // The loser tree holds a pointer to ways_; pinning the object keeps
  // that pointer valid for the stream's lifetime.
  MergeStream(const MergeStream&) = delete;
  MergeStream& operator=(const MergeStream&) = delete;

  Result<std::span<const T>> Next() override {
    if (ways_.empty()) return std::span<const T>();
    if (!primed_) {
      CCIDX_RETURN_IF_ERROR(Prime());
    }
    out_.clear();
    while (out_.size() < out_block_) {
      Way& way = *ways_[tree_->winner()];
      if (way.done) break;  // every way exhausted
      out_.push_back(way.current());
      way.pos++;
      CCIDX_RETURN_IF_ERROR(Refill(way));
      tree_->Replay();
    }
    return std::span<const T>(out_);
  }

  size_t way_count() const { return ways_.size(); }

  /// Frees every unconsumed run page (error-path cleanup).
  Status Discard() {
    Status first = Status::OK();
    for (auto& way : ways_) {
      Status s = way->reader.Discard();
      if (!s.ok() && first.ok()) first = s;
    }
    return first;
  }

 private:
  struct Way {
    Way(Pager* pager, const SortedRun& run)
        : reader(pager, run, /*free_consumed=*/true) {}

    const T& current() const { return block[pos]; }

    RunReader<T> reader;
    std::span<const T> block;
    size_t pos = 0;
    bool done = false;
  };

  // Concrete comparator policies: the tree compares ways in its innermost
  // loop (log k times per record), so these must inline — no type-erased
  // std::function here.
  struct WayExhausted {
    const std::vector<std::unique_ptr<Way>>* ways;
    bool operator()(size_t w) const { return (*ways)[w]->done; }
  };
  struct WayLess {
    const std::vector<std::unique_ptr<Way>>* ways;
    Less less;
    bool operator()(size_t a, size_t b) const {
      return less((*ways)[a]->current(), (*ways)[b]->current());
    }
  };

  Status Prime() {
    primed_ = true;
    for (auto& way : ways_) {
      CCIDX_RETURN_IF_ERROR(Refill(*way));
    }
    tree_.emplace(ways_.size(), WayExhausted{&ways_},
                  WayLess{&ways_, less_});
    tree_->Rebuild();
    return Status::OK();
  }

  // Once `way`'s block is consumed, pins its run's next page (or marks
  // the way done at the run's end).
  Status Refill(Way& way) {
    while (way.pos >= way.block.size() && !way.done) {
      WarmIfCold(way.reader.next_page());
      auto next = way.reader.Next();
      CCIDX_RETURN_IF_ERROR(next.status());
      way.block = *next;
      way.pos = 0;
      way.done = way.block.empty();
    }
    return Status::OK();
  }

  // Merge fan-in (DESIGN.md §10): the next page of every way is known
  // and independent of the others. When the page about to be pinned is
  // not resident, warm every way's non-resident next page in one batched
  // device round instead of paying one dependent round-trip per page
  // crossing; at priming this warms every run's head. Gated on the
  // speculation budget, so cost-model runs keep the historical access
  // pattern.
  void WarmIfCold(PageId next) {
    if (pager_->speculation_budget() == 0 || ways_.size() < 2 ||
        next == kInvalidPageId || pager_->TouchIfResident(next)) {
      return;
    }
    warm_.clear();
    for (const auto& way : ways_) {
      PageId id = way->reader.next_page();
      if (id == kInvalidPageId) continue;
      if (id == next || !pager_->TouchIfResident(id)) warm_.push_back(id);
    }
    pager_->WarmMany(warm_);
  }

  Pager* pager_;
  Less less_;
  size_t out_block_;
  std::vector<std::unique_ptr<Way>> ways_;
  std::vector<PageId> warm_;  // WarmIfCold's batch, reused
  std::optional<LoserTree<WayExhausted, WayLess>> tree_;
  std::vector<T> out_;
  bool primed_ = false;
};

/// Bounded-memory external merge sorter. Add records (or whole streams),
/// then Finish() once for the sorted output stream.
template <typename T, typename Less = std::less<T>>
class ExternalSorter {
 public:
  struct Options {
    /// Max records resident in the sorter at once. 0 = DefaultSortBudget.
    size_t memory_budget_records = 0;
  };

  explicit ExternalSorter(Pager* pager, Less less = Less(),
                          Options options = {})
      : pager_(pager), less_(less) {
    PageIo io(pager);
    cap_ = io.CapacityFor(sizeof(T));
    CCIDX_CHECK(cap_ > 0);
    budget_ = options.memory_budget_records != 0
                  ? options.memory_budget_records
                  : DefaultSortBudget(pager, sizeof(T));
    // An intermediate merge step holds one block per input way, the
    // output block, and the RunWriter's two staged blocks — so the
    // budget must cover at least fan-in 2 + 3 blocks, and the fan-in is
    // sized to keep every phase inside the budget.
    budget_ = std::max<size_t>(budget_, 5 * cap_);
    fanin_ = std::max<size_t>(2, budget_ / cap_ - 3);
    buffer_.reserve(budget_);
  }

  ~ExternalSorter() { (void)Abort(); }

  ExternalSorter(const ExternalSorter&) = delete;
  ExternalSorter& operator=(const ExternalSorter&) = delete;

  size_t budget() const { return budget_; }
  size_t fanin() const { return fanin_; }

  Status Add(const T& rec) {
    CCIDX_CHECK(!finished_);
    // Spill lazily — only when this record would overflow the budget.
    // Spilling eagerly at exactly-full (the historical `>=` after the
    // push) sent an input of exactly `budget` records through a device
    // run + merge even though it fit in memory: the boundary input was
    // staged twice (buffer AND run), missing the in-memory fast path and
    // inflating high_water_records() accounting with a pointless merge
    // phase. Covered by build_test's budget-boundary test.
    if (buffer_.size() >= budget_) {
      CCIDX_RETURN_IF_ERROR(SpillRun());
    }
    buffer_.push_back(rec);
    records_ += 1;
    Note(buffer_.size());
    return Status::OK();
  }

  Status AddSpan(std::span<const T> recs) {
    for (const T& r : recs) {
      CCIDX_RETURN_IF_ERROR(Add(r));
    }
    return Status::OK();
  }

  Status AddStream(RecordStream<T>* in) {
    while (true) {
      auto block = in->Next();
      CCIDX_RETURN_IF_ERROR(block.status());
      if (block->empty()) return Status::OK();
      CCIDX_RETURN_IF_ERROR(AddSpan(*block));
    }
  }

  /// Seals input, runs merge steps until at most fan-in runs remain, and
  /// returns the sorted output stream (owned by the sorter; valid until
  /// the sorter dies).
  Result<RecordStream<T>*> Finish() {
    CCIDX_CHECK(!finished_);
    finished_ = true;
    if (runs_.empty()) {
      // Never spilled: sort in place and serve the resident buffer.
      std::sort(buffer_.begin(), buffer_.end(), less_);
      resident_out_ = std::make_unique<SpanStream<T>>(
          std::span<const T>(buffer_), cap_);
      return static_cast<RecordStream<T>*>(resident_out_.get());
    }
    if (!buffer_.empty()) {
      CCIDX_RETURN_IF_ERROR(SpillRun());
    }
    // Merge steps: fold the oldest fan-in runs into one longer run until
    // a single merge can serve the rest. Equivalent I/O to level-by-level
    // passes: every record is read+written once per log_{fanin} level.
    while (runs_.size() > fanin_) {
      std::vector<SortedRun> group(runs_.begin(), runs_.begin() + fanin_);
      runs_.erase(runs_.begin(), runs_.begin() + fanin_);
      // Input blocks + output block + the writer's two staged blocks.
      Note((group.size() + 3) * cap_);
      MergeStream<T, Less> merge(pager_, std::move(group), less_, cap_);
      RunWriter<T> writer(pager_);
      Status s = Status::OK();
      while (true) {
        auto block = merge.Next();
        s = block.status();
        if (!s.ok() || block->empty()) break;
        s = writer.AppendSpan(*block);
        if (!s.ok()) break;
      }
      if (!s.ok()) {
        (void)merge.Discard();  // the unfinished writer's pages are
        return s;               // reclaimed by the caller's TxnScope
      }
      auto run = writer.Finish();
      CCIDX_RETURN_IF_ERROR(run.status());
      runs_.push_back(*run);
      merge_steps_ += 1;
    }
    Note((runs_.size() + 1) * cap_);
    merge_out_ = std::make_unique<MergeStream<T, Less>>(
        pager_, std::move(runs_), less_, cap_);
    runs_.clear();
    return static_cast<RecordStream<T>*>(merge_out_.get());
  }

  /// True once Finish() determined the input never spilled to the device.
  bool in_memory() const { return finished_ && merge_out_ == nullptr; }

  /// Frees every run page the sorter still owns. The final merge stream
  /// frees as it goes, so after full consumption this is a no-op.
  Status Abort() {
    Status first = Status::OK();
    if (merge_out_ != nullptr) {
      first = merge_out_->Discard();
      merge_out_.reset();
    }
    for (const SortedRun& run : runs_) {
      Status s = FreeRun(pager_, run);
      if (!s.ok() && first.ok()) first = s;
    }
    runs_.clear();
    buffer_.clear();
    return first;
  }

  uint64_t records_added() const { return records_; }
  uint64_t runs_created() const { return runs_created_; }
  uint64_t merge_steps() const { return merge_steps_; }

  /// High-water mark of records resident at once: the buffer during run
  /// formation; one block per way, the output block, and the run
  /// writer's two staged blocks during merge steps. Always <= budget().
  size_t high_water_records() const { return high_water_; }

 private:
  Status SpillRun() {
    std::sort(buffer_.begin(), buffer_.end(), less_);
    RunWriter<T> writer(pager_);
    CCIDX_RETURN_IF_ERROR(writer.AppendSpan(buffer_));
    auto run = writer.Finish();
    CCIDX_RETURN_IF_ERROR(run.status());
    runs_.push_back(*run);
    runs_created_ += 1;
    buffer_.clear();
    return Status::OK();
  }

  void Note(size_t resident) {
    high_water_ = std::max(high_water_, resident);
  }

  Pager* pager_;
  Less less_;
  uint32_t cap_;
  size_t budget_;
  size_t fanin_;
  std::vector<T> buffer_;
  std::vector<SortedRun> runs_;
  std::unique_ptr<SpanStream<T>> resident_out_;
  std::unique_ptr<MergeStream<T, Less>> merge_out_;
  bool finished_ = false;
  uint64_t records_ = 0;
  uint64_t runs_created_ = 0;
  uint64_t merge_steps_ = 0;
  size_t high_water_ = 0;
};

}  // namespace ccidx

#endif  // CCIDX_BUILD_EXTERNAL_SORTER_H_
