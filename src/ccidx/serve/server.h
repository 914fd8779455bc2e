// Server: the serving front-end over QueryExecutor / UpdateExecutor
// (DESIGN.md §12). Owns the admission pipeline:
//
//   transport -> OnFrame (decode, credit, deadline) -> SubmissionQueue
//            -> Dispatcher (adaptive batches) -> executors -> Session
//
// Admission is the queue's one policy: shed at the high watermark.
//
// Shutdown order is the session-lifetime contract (§12): Stop() closes
// the queue (new pushes shed), the dispatcher drains what is left and
// joins, and only then may sessions be destroyed — so a Submission's
// Session* never outlives its target. Transports must stop feeding
// OnFrame before the server is destroyed.

#ifndef CCIDX_SERVE_SERVER_H_
#define CCIDX_SERVE_SERVER_H_

#include <chrono>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "ccidx/query/executor.h"
#include "ccidx/query/update_executor.h"
#include "ccidx/serve/catalog.h"
#include "ccidx/serve/dispatcher.h"
#include "ccidx/serve/session.h"
#include "ccidx/serve/submission_queue.h"

namespace ccidx {
namespace serve {

/// Snapshot of the server's serving counters.
struct ServerStats {
  // Admission (queue).
  uint64_t admitted = 0;
  uint64_t shed = 0;            // overload sheds only (kOverloaded policy)
  uint64_t rejected_closed = 0; // pushes refused after Stop() closed the queue
  uint64_t deadline_dropped = 0;
  // Ring slots the queue holds (its resident memory is queue_slots x
  // sizeof(Submission)); grows with the deepest backlog, never shrinks.
  uint64_t queue_slots = 0;
  // Rejections before the queue.
  uint64_t bad_frames = 0;  // undecodable; dropped (or kBadRequest'd)
  uint64_t no_credit = 0;
  // Dispatch.
  Dispatcher::Stats dispatch;
  // Gate wait the serving read path paid (cumulative histogram).
  WaitHistogram reader_gate_wait;
  // Queue depth histogram (log2 buckets, sampled at admission).
  std::vector<uint64_t> queue_depth_hist;
};

class Server {
 public:
  Server(const ServeTables& tables, const ServerOptions& opts);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Starts the dispatcher (idempotent). Transports may begin feeding
  /// OnFrame once this returns.
  void Start();

  /// Closes the queue, drains in-flight work, joins the dispatcher.
  /// Sessions stay valid until destruction. Idempotent.
  void Stop();

  /// Opens a session. The writer receives encoded response frames in
  /// request-id order (see session.h for what it may do). The session
  /// lives until the server is destroyed.
  Session* OpenSession(Session::Writer writer);

  /// Transport entry point: one complete frame from `session`'s client.
  /// Decodes, applies flow control and admission, and either enqueues
  /// the request or answers the rejection through the session. Safe from
  /// any thread.
  void OnFrame(Session* session, std::span<const uint8_t> frame);

  ServerStats stats() const;

  // Wired components, exposed for tests and the load driver.
  SubmissionQueue* queue() { return &queue_; }
  QueryExecutor* query_executor() { return &query_exec_; }
  UpdateExecutor* update_executor() { return &update_exec_; }
  const ServerOptions& options() const { return opts_; }

 private:
  const ServerOptions opts_;

  SubmissionQueue queue_;
  QueryExecutor query_exec_;
  UpdateExecutor update_exec_;
  Dispatcher dispatcher_;

  std::mutex sessions_mu_;
  std::vector<std::unique_ptr<Session>> sessions_;  // guarded by sessions_mu_
  uint64_t next_session_id_ = 1;                    // guarded by sessions_mu_

  std::atomic<uint64_t> bad_frames_{0};
  std::atomic<uint64_t> no_credit_{0};
  std::atomic<bool> running_{false};
};

}  // namespace serve
}  // namespace ccidx

#endif  // CCIDX_SERVE_SERVER_H_
