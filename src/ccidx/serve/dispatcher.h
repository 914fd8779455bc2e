// Dispatcher: drains the submission queue into executor batches with
// adaptive batch formation (DESIGN.md §12).
//
// Batch-formation policy. The dispatcher pops up to `target` submissions
// per round; only the *first* pop of an idle round blocks (kBatchWait),
// growth past the first takes whatever backlog exists and never waits.
// `target` tracks an EWMA of the observed load (items popped + backlog
// remaining after the pop — a Little's-law proxy for arrival rate ×
// batch service time), clamped to [1, kMaxBatch]:
//
//   * low load: the backlog is empty, the EWMA decays to ~1, and each
//     request dispatches alone the moment it arrives — minimum latency;
//   * high load: the backlog is deep, the EWMA rises to the cap, and
//     each RunBatch amortizes its gate entry + worker wake over up to
//     kMaxBatch queries — maximum throughput.
//
// Batch-admission hook: when the epoch gate has a writer active or
// queued (QueryExecutor::gate_busy()), a reader batch entered now would
// park at the gate; the dispatcher instead takes one more non-blocking
// drain of the queue, converting gate wait into batch growth.
//
// Within one popped batch, updates (flattened across every kUpdateBatch
// request) run first as one UpdateExecutor write epoch, then queries run
// as one QueryExecutor read batch — so a client that pipelines an update
// before a query into the same batch reads its own write. Expired
// submissions answer kDeadlineExceeded without executing; responses
// deliver through each submission's Session (which orders them per
// client).

#ifndef CCIDX_SERVE_DISPATCHER_H_
#define CCIDX_SERVE_DISPATCHER_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <thread>
#include <vector>

#include "ccidx/query/executor.h"
#include "ccidx/query/update_executor.h"
#include "ccidx/serve/catalog.h"
#include "ccidx/serve/submission_queue.h"

namespace ccidx {
namespace serve {

class Dispatcher {
 public:
  struct Stats {
    uint64_t batches = 0;          // executor rounds dispatched
    uint64_t queries = 0;          // query requests executed
    uint64_t update_ops = 0;       // flattened update ops applied
    uint64_t pings = 0;
    uint64_t expired = 0;          // answered kDeadlineExceeded
    uint64_t bad_requests = 0;     // absent table / bad operands
    uint64_t batch_size_sum = 0;   // popped submissions across batches
    uint64_t max_batch_seen = 0;
    size_t target_now = 1;         // current adaptive target
    /// Accepted-request latency (admission to response delivery, us),
    /// one sample per executed submission. This is the latency the
    /// admission controller bounds — it excludes client-side scheduling,
    /// so the load driver's tail assertions hold on oversubscribed CI
    /// hosts. Unbounded growth (8 B/request): meant for the driver and
    /// tests, not a long-lived deployment.
    std::vector<double> accept_latency_us;
  };

  Dispatcher(const ServeTables& tables, const ServerOptions& opts,
             SubmissionQueue* queue, QueryExecutor* query_exec,
             UpdateExecutor* update_exec)
      : tables_(tables),
        opts_(opts),
        queue_(queue),
        query_exec_(query_exec),
        update_exec_(update_exec) {}

  ~Dispatcher() { Stop(); }

  Dispatcher(const Dispatcher&) = delete;
  Dispatcher& operator=(const Dispatcher&) = delete;

  /// Starts the dispatch thread. The queue must outlive Stop().
  void Start();

  /// Joins the dispatch thread after the queue is closed and drained.
  /// (Close the queue first — Stop() itself does not close it, so a
  /// server can drain in-flight work before stopping.)
  void Stop();

  Stats stats() const;

 private:
  void Loop();
  void DispatchBatch(std::vector<Submission>* batch);
  /// Executes one query submission into *resp; returns the engine Status
  /// (also mapped into resp->status).
  Status RunOne(const Submission& s, Response* resp) const;

  const ServeTables tables_;
  const ServerOptions opts_;
  SubmissionQueue* const queue_;
  QueryExecutor* const query_exec_;
  UpdateExecutor* const update_exec_;

  std::thread thread_;
  std::atomic<bool> started_{false};

  // Stats counters (relaxed; exact once the dispatcher is joined).
  std::atomic<uint64_t> batches_{0};
  std::atomic<uint64_t> queries_{0};
  std::atomic<uint64_t> update_ops_{0};
  std::atomic<uint64_t> pings_{0};
  std::atomic<uint64_t> expired_{0};
  std::atomic<uint64_t> bad_requests_{0};
  std::atomic<uint64_t> batch_size_sum_{0};
  std::atomic<uint64_t> max_batch_seen_{0};
  std::atomic<size_t> target_now_{1};

  // Written by the dispatch thread, snapshotted by stats().
  mutable std::mutex lat_mu_;
  std::vector<double> accept_latency_us_;  // guarded by lat_mu_
};

}  // namespace serve
}  // namespace ccidx

#endif  // CCIDX_SERVE_DISPATCHER_H_
