// Device-resident record runs: the unit of external sorting, and of the
// point groups a bulk build spills (DESIGN.md §6).
//
// A run is an ordinary [count][next][records] page chain (PageIo layout)
// holding a sorted sequence of records. RunWriter appends records
// block-at-a-time with bounded memory (two page blocks: the chain's next
// pointers are resolved by holding each full block until its successor's
// page id is known, so no page is ever written twice). RunReader streams a
// run back as a RecordStream, optionally freeing each page as soon as it
// has been consumed. Sorter runs are read once, by a merge; a spilled
// point group (a child of more than M records) is read once, by its own
// partition scan. Neither pass holds more than one copy of the data on
// the device.

#ifndef CCIDX_BUILD_RUN_H_
#define CCIDX_BUILD_RUN_H_

#include <cstdint>
#include <span>
#include <vector>

#include "ccidx/build/record_stream.h"
#include "ccidx/io/page_builder.h"

namespace ccidx {

/// Handle to a device-resident run.
struct SortedRun {
  PageId head = kInvalidPageId;
  uint64_t count = 0;
};

/// Frees every page of a run (reads the chain to walk it).
inline Status FreeRun(Pager* pager, const SortedRun& run) {
  if (run.head == kInvalidPageId) return Status::OK();
  PageIo io(pager);
  return io.FreeChain(run.head);
}

/// Appends records into a fresh page chain. Holds at most two page blocks
/// of records in memory.
template <typename T>
class RunWriter {
 public:
  explicit RunWriter(Pager* pager)
      : io_(pager), pager_(pager),
        cap_(io_.CapacityFor(sizeof(T))) {
    CCIDX_CHECK(cap_ > 0);
    buf_.reserve(cap_);
  }

  Status Append(const T& rec) {
    buf_.push_back(rec);
    count_++;
    if (buf_.size() == cap_) return FlushBlock();
    return Status::OK();
  }

  Status AppendSpan(std::span<const T> recs) {
    for (const T& r : recs) {
      CCIDX_RETURN_IF_ERROR(Append(r));
    }
    return Status::OK();
  }

  uint64_t count() const { return count_; }

  /// Writes the tail and returns the finished run.
  Result<SortedRun> Finish() {
    if (has_pending_) {
      if (buf_.empty()) {
        CCIDX_RETURN_IF_ERROR(io_.WriteRecords<T>(
            pending_id_, std::span<const T>(pending_), kInvalidPageId));
      } else {
        PageId tail = pager_->Allocate();
        CCIDX_RETURN_IF_ERROR(io_.WriteRecords<T>(
            pending_id_, std::span<const T>(pending_), tail));
        CCIDX_RETURN_IF_ERROR(io_.WriteRecords<T>(
            tail, std::span<const T>(buf_), kInvalidPageId));
      }
    } else if (!buf_.empty()) {
      head_ = pager_->Allocate();
      CCIDX_RETURN_IF_ERROR(io_.WriteRecords<T>(
          head_, std::span<const T>(buf_), kInvalidPageId));
    }
    pending_.clear();
    buf_.clear();
    has_pending_ = false;
    return SortedRun{head_, count_};
  }

 private:
  // Assigns the just-filled buffer a page id, writes the previous block
  // (its next pointer now known), and rotates the buffers.
  Status FlushBlock() {
    PageId id = pager_->Allocate();
    if (has_pending_) {
      CCIDX_RETURN_IF_ERROR(io_.WriteRecords<T>(
          pending_id_, std::span<const T>(pending_), id));
    } else {
      head_ = id;
    }
    pending_.swap(buf_);
    buf_.clear();
    pending_id_ = id;
    has_pending_ = true;
    return Status::OK();
  }

  PageIo io_;
  Pager* pager_;
  uint32_t cap_;
  std::vector<T> buf_;      // block being filled
  std::vector<T> pending_;  // previous full block, awaiting its next id
  PageId pending_id_ = kInvalidPageId;
  bool has_pending_ = false;
  PageId head_ = kInvalidPageId;
  uint64_t count_ = 0;
};

/// Streams a run back, one page block at a time, zero-copy out of the
/// pinned frame. With free_consumed, each page is freed as soon as the
/// next block is requested (so a consumed run costs no residual space).
template <typename T>
class RunReader final : public RecordStream<T> {
 public:
  RunReader(Pager* pager, const SortedRun& run, bool free_consumed)
      : io_(pager), pager_(pager), next_(run.head),
        free_consumed_(free_consumed) {}

  Result<std::span<const T>> Next() override {
    PageId done = view_held_ ? view_id_ : kInvalidPageId;
    view_ = {};  // release the pin before freeing
    view_held_ = false;
    if (done != kInvalidPageId && free_consumed_) {
      CCIDX_RETURN_IF_ERROR(pager_->Free(done));
    }
    if (next_ == kInvalidPageId) return std::span<const T>();
    auto view = io_.template ViewRecords<T>(next_);
    CCIDX_RETURN_IF_ERROR(view.status());
    view_id_ = next_;
    next_ = view->next;
    view_ = std::move(*view);
    view_held_ = true;
    return view_.records;
  }

  /// The page the next Next() pins (kInvalidPageId at the run's end):
  /// what a merge warms so every way's successor loads in one round.
  PageId next_page() const { return next_; }

  /// Frees every unconsumed page (error-path cleanup).
  Status Discard() {
    view_ = {};
    if (view_held_) {
      view_held_ = false;
      if (free_consumed_) {
        CCIDX_RETURN_IF_ERROR(pager_->Free(view_id_));
      }
    }
    PageId head = next_;
    next_ = kInvalidPageId;
    if (head != kInvalidPageId && free_consumed_) {
      return io_.FreeChain(head);
    }
    return Status::OK();
  }

 private:
  PageIo io_;
  Pager* pager_;
  PageId next_;
  bool free_consumed_;
  PageId view_id_ = kInvalidPageId;
  PageIo::RecordView<T> view_;
  bool view_held_ = false;
};

}  // namespace ccidx

#endif  // CCIDX_BUILD_RUN_H_
