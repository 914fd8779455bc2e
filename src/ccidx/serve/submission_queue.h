// SubmissionQueue: the bounded MPMC admission queue between transports
// and the dispatcher (DESIGN.md §12).
//
// Admission policy — shed, don't collapse: the queue has a capacity and
// one threshold, the high watermark. Below it every submission is
// admitted; at or above it new submissions are rejected immediately with
// kOverloaded (TryPush returns kShed) — the client learns in
// microseconds instead of queueing into a latency collapse.
// Accepted requests carry their admission time and absolute deadline;
// PopBatch drops expired submissions at dequeue (they are returned
// separately so the dispatcher can answer kDeadlineExceeded without
// executing them).
//
// Implementation: a mutex-guarded ring. At serving batch sizes the lock
// is held for pointer moves only; fairness and the shed accounting
// matter far more here than lock-freedom, and the dispatcher drains in
// batches so producers rarely contend with more than one consumer. The
// ring's slot count is a power of two that starts at kInitialSlots (or
// the high watermark, when smaller) and doubles when a push finds it
// full, so its memory follows the deepest backlog seen, not the
// configured capacity: a queue configured for 262,144 submissions that
// never holds more than 3,000 keeps 4,096 slots. A growth moves the live
// submissions under the lock the push already holds; the ring never
// shrinks, so each growth is paid once per new high-water mark.

#ifndef CCIDX_SERVE_SUBMISSION_QUEUE_H_
#define CCIDX_SERVE_SUBMISSION_QUEUE_H_

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <vector>

#include "ccidx/serve/frame.h"

namespace ccidx {
namespace serve {

class Session;

/// One admitted request waiting for dispatch.
struct Submission {
  Request req;
  Session* session = nullptr;
  std::chrono::steady_clock::time_point admit_time{};
  /// Absolute deadline (admit_time + req.deadline_us); time_point::max()
  /// when the request carries none.
  std::chrono::steady_clock::time_point deadline{
      std::chrono::steady_clock::time_point::max()};
};

enum class Admission : uint8_t { kAdmitted = 0, kShed = 1 };

class SubmissionQueue {
 public:
  /// `capacity` bounds queued submissions; shedding starts at
  /// `high_watermark` (clamped to capacity). No slot is reserved for
  /// capacity up front: the ring grows with the backlog (see slots()).
  SubmissionQueue(size_t capacity, size_t high_watermark)
      : high_(high_watermark <= capacity ? high_watermark : capacity),
        ring_(std::bit_ceil(std::min(high_, kInitialSlots))) {}

  SubmissionQueue(const SubmissionQueue&) = delete;
  SubmissionQueue& operator=(const SubmissionQueue&) = delete;

  /// Admit or shed. O(1); never blocks. Sheds when size >= high
  /// watermark. A closed queue also rejects, but that is shutdown
  /// bookkeeping, not overload — it counts in rejected_closed(), not
  /// shed(), so the overload shed *rate* stays meaningful while clients
  /// drain against a closing server.
  Admission TryPush(Submission s) {
    {
      std::lock_guard lock(mu_);
      if (closed_) {
        rejected_closed_.fetch_add(1, std::memory_order_relaxed);
        return Admission::kShed;
      }
      if (size_ >= high_) {
        shed_.fetch_add(1, std::memory_order_relaxed);
        return Admission::kShed;
      }
      if (size_ == ring_.size()) GrowLocked();
      ring_[(head_ + size_) & (ring_.size() - 1)] = std::move(s);
      ++size_;
      admitted_.fetch_add(1, std::memory_order_relaxed);
      NoteDepthLocked(size_);
    }
    cv_.notify_one();
    return Admission::kAdmitted;
  }

  /// Pops up to `max_n` submissions. Expired submissions (deadline < now
  /// at dequeue) are moved to `*expired` and do not count toward max_n —
  /// the dispatcher answers them without executing. At most
  /// kMaxExpiredPerPop expired submissions move per call, bounding the
  /// lock hold under a mass-expiry spike (a backlog of thousands of
  /// expired entries must not stall every producer behind mu_ for one
  /// giant drain); the dispatcher loops, so the backlog still clears, in
  /// lock-fair slices. Blocks up to `wait` for the first item; returns
  /// the number of live submissions appended to `*out` (0 on timeout,
  /// close, or an expired-bound slice).
  static constexpr size_t kMaxExpiredPerPop = 64;
  size_t PopBatch(std::vector<Submission>* out,
                  std::vector<Submission>* expired, size_t max_n,
                  std::chrono::nanoseconds wait) {
    std::unique_lock lock(mu_);
    if (size_ == 0 && wait.count() > 0) {
      cv_.wait_for(lock, wait, [this] { return size_ > 0 || closed_; });
    }
    size_t popped = 0;
    size_t expired_moved = 0;
    const auto now = std::chrono::steady_clock::now();
    while (size_ > 0 && popped < max_n && expired_moved < kMaxExpiredPerPop) {
      Submission& s = ring_[head_];
      if (s.deadline < now) {
        expired->push_back(std::move(s));
        deadline_dropped_.fetch_add(1, std::memory_order_relaxed);
        ++expired_moved;  // a dropped request frees a slot for a live one
      } else {
        out->push_back(std::move(s));
        ++popped;
      }
      head_ = (head_ + 1) & (ring_.size() - 1);
      --size_;
    }
    return popped;
  }

  /// Unblocks poppers and sheds all future pushes.
  void Close() {
    {
      std::lock_guard lock(mu_);
      closed_ = true;
    }
    cv_.notify_all();
  }

  size_t depth() const {
    std::lock_guard lock(mu_);
    return size_;
  }
  bool closed() const {
    std::lock_guard lock(mu_);
    return closed_;
  }
  /// Ring slots allocated: the queue's resident memory is
  /// slots() * sizeof(Submission). At most max(kInitialSlots, 2 x the
  /// deepest backlog seen), and at most bit_ceil(high watermark).
  size_t slots() const {
    std::lock_guard lock(mu_);
    return ring_.size();
  }

  // --- counters (relaxed; exact under quiescence) -----------------------
  uint64_t admitted() const {
    return admitted_.load(std::memory_order_relaxed);
  }
  uint64_t shed() const { return shed_.load(std::memory_order_relaxed); }
  /// Pushes rejected because the queue was closed (shutdown), NOT because
  /// of overload — kept out of shed() so shed-rate assertions (the
  /// serving-smoke CI bar) are not inflated by clients racing Close().
  uint64_t rejected_closed() const {
    return rejected_closed_.load(std::memory_order_relaxed);
  }
  uint64_t deadline_dropped() const {
    return deadline_dropped_.load(std::memory_order_relaxed);
  }

  /// Queue-depth histogram sampled at every admission: bucket i counts
  /// admissions that found floor(log2(depth)) == i (bucket 0 = depth 1).
  /// The load driver folds this into its JSON output.
  static constexpr size_t kDepthBuckets = 24;
  std::vector<uint64_t> depth_histogram() const {
    std::vector<uint64_t> out(kDepthBuckets);
    for (size_t i = 0; i < kDepthBuckets; ++i) {
      out[i] = depth_hist_[i].load(std::memory_order_relaxed);
    }
    return out;
  }

 private:
  static constexpr size_t kInitialSlots = 64;

  // Doubles a full ring, unrolling the FIFO to start at slot 0. Only a
  // push below the high watermark gets here, so the ring stops at
  // bit_ceil(high_) slots.
  void GrowLocked() {
    std::vector<Submission> grown(ring_.size() * 2);
    const size_t mask = ring_.size() - 1;
    for (size_t i = 0; i < size_; ++i) {
      grown[i] = std::move(ring_[(head_ + i) & mask]);
    }
    ring_.swap(grown);
    head_ = 0;
  }

  void NoteDepthLocked(size_t depth) {
    size_t bucket = 0;
    while ((size_t{2} << bucket) <= depth && bucket + 1 < kDepthBuckets) {
      ++bucket;
    }
    depth_hist_[bucket].fetch_add(1, std::memory_order_relaxed);
  }

  const size_t high_;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::vector<Submission> ring_;  // guarded by mu_; power-of-two size
  size_t head_ = 0;               // guarded by mu_
  size_t size_ = 0;               // guarded by mu_
  bool closed_ = false;           // guarded by mu_

  std::atomic<uint64_t> admitted_{0};
  std::atomic<uint64_t> shed_{0};
  std::atomic<uint64_t> rejected_closed_{0};
  std::atomic<uint64_t> deadline_dropped_{0};
  std::atomic<uint64_t> depth_hist_[kDepthBuckets] = {};
};

}  // namespace serve
}  // namespace ccidx

#endif  // CCIDX_SERVE_SUBMISSION_QUEUE_H_
