// Open-loop load generator for the end-to-end benchmark.
//
// One sender thread (the caller of Run) paces requests on a Poisson
// schedule — independent users, not callers waiting on replies — over
// kSessions sessions opened with Server::OpenSession. Each request is
// encoded to a real frame and handed to Server::OnFrame. The session
// writer only timestamps the response frame and copies its bytes into the
// session's inbox, as a transport would move them to a socket; the sender
// drains the inboxes between sends, so there is no receiver thread.
//
// A request's latency runs from when it was due, not when it was sent, so
// a stalled sender charges its stall to every request behind it. A shed,
// expired or failed request is recorded with infinite latency: it misses
// any latency limit. Every response is checked: a read against its
// template's precomputed answer, an update batch against the number of
// ops applied. Successful update batches are replayed into an in-memory
// model of the update key range, which the caller compares with the tree
// after the server stops.

#ifndef CCIDX_BENCH_E2E_LOADGEN_H_
#define CCIDX_BENCH_E2E_LOADGEN_H_

#include <array>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <random>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "ccidx/serve/frame.h"
#include "ccidx/serve/server.h"
#include "tables.h"
#include "trace.h"

namespace ccidx {
namespace e2e {

/// One completed request: when it was due and how long it took from then
/// (microseconds; +infinity when it failed).
struct Sample {
  int64_t due_ns = 0;
  float latency_us = 0;
};

/// Everything one fixed-rate leg observed from the client side.
struct LegResult {
  double rate = 0;     // offered req/s
  double seconds = 0;  // schedule length
  int64_t start_ns = 0;
  uint64_t scheduled = 0;  // requests due within the schedule
  uint64_t sent = 0;       // requests sent before the schedule ended
  uint64_t ok = 0;         // responses with status kOk
  uint64_t read_failed = 0;
  uint64_t write_failed = 0;
  uint64_t update_ops = 0;  // ops in sent update batches
  uint64_t responses = 0;
  uint64_t response_bytes = 0;
  std::vector<Sample> reads;
  std::vector<Sample> writes;
  std::vector<float> late_us;  // send time minus due time, per request

  uint64_t failed() const { return read_failed + write_failed; }

  /// Adds the counts and samples of a leg that ran right after this one.
  void Append(const LegResult& later);
};

class LoadGen {
 public:
  /// `answers[i]` is the expected answer of `queries[i]`. The server must
  /// outlive the generator's last Run.
  LoadGen(serve::Server* server, const WorkloadSpec& spec,
          std::span<const serve::Request> queries,
          std::span<const Answer> answers, uint32_t seed, Tracer* tracer);

  LoadGen(const LoadGen&) = delete;
  LoadGen& operator=(const LoadGen&) = delete;

  /// Called about once a millisecond while the sender is ahead of its
  /// schedule or waiting for responses (the log-checkpoint trigger).
  void set_idle_hook(std::function<void()> hook) { idle_hook_ = std::move(hook); }

  /// Sends on a Poisson schedule at `rate` req/s for `seconds`, then waits
  /// for every response. With `traced`, one request in `trace_every`
  /// records its spans.
  LegResult Run(double rate, double seconds, bool traced,
                uint64_t trace_every = 1);

  /// False once any response disagreed with its expected answer.
  bool correct() const { return mismatches_ == 0; }
  uint64_t mismatches() const { return mismatches_; }
  const std::string& first_mismatch() const { return first_mismatch_; }

  /// The update key range's expected (key, value) -> multiplicity after
  /// every update batch answered kOk, applied per session in id order.
  const std::map<std::pair<int64_t, uint64_t>, int64_t>& expected_updates()
      const {
    return model_;
  }

 private:
  struct Arrival {
    int64_t t_ns;
    uint32_t len;
  };
  // Filled by the session writer (a server thread), drained by the sender.
  struct Inbox {
    std::mutex mu;
    std::vector<uint8_t> bytes;      // guarded by mu
    std::vector<Arrival> arrivals;   // guarded by mu
  };
  struct Outstanding {
    uint64_t id = 0;   // session request id
    uint64_t seq = 0;  // run-wide request sequence
    int64_t due_ns = 0;
    int64_t tmpl = -1;   // query template; -1 = update batch
    uint64_t span = 0;   // request span id when traced, else 0
    std::array<serve::UpdateOp, kOpsPerUpdate> ops{};
  };
  struct SessionState {
    serve::Session* session = nullptr;
    std::unique_ptr<Inbox> inbox;
    uint64_t next_id = 1;
    std::deque<Outstanding> outstanding;
  };

  void Send(int64_t due_ns, bool traced, LegResult* leg);
  void Drain(LegResult* leg);
  void Complete(SessionState& ss, std::span<const uint8_t> frame,
                int64_t done_ns, LegResult* leg);
  void Mismatch(const std::string& what);
  void MaybeIdle();

  serve::Server* const server_;
  const WorkloadSpec& spec_;
  const std::span<const serve::Request> queries_;
  const std::span<const Answer> answers_;
  Tracer* const tracer_;

  std::mt19937_64 rng_;
  std::array<SessionState, kSessions> sessions_;
  uint64_t seq_ = 0;
  uint64_t outstanding_ = 0;
  uint64_t trace_every_ = 1;
  int64_t last_idle_ns_ = 0;
  std::function<void()> idle_hook_;

  serve::Request scratch_req_;
  std::vector<uint8_t> encode_buf_;
  std::vector<uint8_t> drain_bytes_;
  std::vector<Arrival> drain_arrivals_;
  serve::Response resp_;

  uint64_t mismatches_ = 0;
  std::string first_mismatch_;
  std::map<std::pair<int64_t, uint64_t>, int64_t> model_;
};

}  // namespace e2e
}  // namespace ccidx

#endif  // CCIDX_BENCH_E2E_LOADGEN_H_
