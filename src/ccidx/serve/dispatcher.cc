#include "ccidx/serve/dispatcher.h"

#include <algorithm>
#include <cmath>

#include "ccidx/query/sink.h"
#include "ccidx/serve/session.h"

namespace ccidx {
namespace serve {
namespace {

// Record converters: every wire record is three 64-bit words.
std::array<uint64_t, 3> ToRecord(const Point& p) {
  return {static_cast<uint64_t>(p.x), static_cast<uint64_t>(p.y), p.id};
}
std::array<uint64_t, 3> ToRecord(const BtEntry& e) {
  return {static_cast<uint64_t>(e.key), e.value,
          static_cast<uint64_t>(e.aux)};
}
std::array<uint64_t, 3> ToRecord(const Interval& iv) {
  return {static_cast<uint64_t>(iv.lo), static_cast<uint64_t>(iv.hi), iv.id};
}

// The one sink behind every result mode, filling *resp as the family
// reports: kRecords and kLimit convert each record straight into
// resp->records, kCount and kExists keep only resp->count. Its verdicts
// match VectorSink / LimitSink / CountSink / ExistsSink block for block,
// so a query pins exactly the pages it would under those. An answer that
// would outgrow one frame (more than kMaxResponseRecords) stops the query
// before another page is pinned and latches oversize(). Lives on the
// executing worker, exactly like QueryExecutor's sink_factory contract.
template <typename T>
class ResponseSink final : public ResultSink<T> {
 public:
  ResponseSink(const Request& req, Response* resp)
      : mode_(req.mode),
        limit_(req.mode == ResultMode::kLimit ? req.limit : SIZE_MAX),
        resp_(resp) {}

  SinkState Emit(std::span<const T> batch) override {
    if (mode_ == ResultMode::kCount) {
      resp_->count += batch.size();
      return SinkState::kContinue;
    }
    if (mode_ == ResultMode::kExists) {
      resp_->count = 1;
      return SinkState::kStop;
    }
    auto& records = resp_->records;
    if (records.size() >= limit_) return SinkState::kStop;
    const size_t take = std::min(batch.size(), limit_ - records.size());
    if (records.size() + take > kMaxResponseRecords) {
      oversize_ = true;
      return SinkState::kStop;
    }
    for (const T& r : batch.first(take)) records.push_back(ToRecord(r));
    resp_->count = records.size();
    return records.size() >= limit_ ? SinkState::kStop : SinkState::kContinue;
  }

  bool oversize() const { return oversize_; }

 private:
  ResultMode mode_;
  size_t limit_;
  Response* resp_;
  bool oversize_ = false;
};

// Runs `run(sink)` over one ResponseSink. A failed or oversize answer
// carries no records (RunOne then marks it kError).
template <typename T, typename RunFn>
Status RunWithMode(const Request& req, Response* resp, RunFn&& run) {
  ResponseSink<T> sink(req, resp);
  Status s = run(&sink);
  if (s.ok() && sink.oversize()) {
    s = Status::ResourceExhausted("answer exceeds one response frame");
  }
  if (!s.ok()) {
    resp->count = 0;
    resp->records = {};
  }
  return s;
}

}  // namespace

void Dispatcher::Start() {
  if (started_.exchange(true)) return;
  thread_ = std::thread([this] { Loop(); });
}

void Dispatcher::Stop() {
  if (!started_.load()) return;
  if (thread_.joinable()) thread_.join();
  started_.store(false);
}

Dispatcher::Stats Dispatcher::stats() const {
  Stats s;
  s.batches = batches_.load(std::memory_order_relaxed);
  s.queries = queries_.load(std::memory_order_relaxed);
  s.update_ops = update_ops_.load(std::memory_order_relaxed);
  s.pings = pings_.load(std::memory_order_relaxed);
  s.expired = expired_.load(std::memory_order_relaxed);
  s.bad_requests = bad_requests_.load(std::memory_order_relaxed);
  s.batch_size_sum = batch_size_sum_.load(std::memory_order_relaxed);
  s.max_batch_seen = max_batch_seen_.load(std::memory_order_relaxed);
  s.target_now = target_now_.load(std::memory_order_relaxed);
  {
    std::lock_guard lock(lat_mu_);
    s.accept_latency_us = accept_latency_us_;
  }
  return s;
}

void Dispatcher::Loop() {
  std::vector<Submission> batch;
  std::vector<Submission> expired;
  double load_ewma = 1.0;
  size_t target = opts_.fixed_batch > 0 ? opts_.fixed_batch : 1;
  for (;;) {
    batch.clear();
    expired.clear();
    size_t got = queue_->PopBatch(&batch, &expired, target, kBatchWait);
    // Batch-admission hook: a writer is draining at the gate, so a read
    // batch entered now would park. Convert that wait into batch growth
    // with one more non-blocking drain (adaptive mode only — the pinned
    // comparison leg must stay pinned).
    if (got > 0 && opts_.fixed_batch == 0 && got < kMaxBatch &&
        query_exec_->gate_busy()) {
      got += queue_->PopBatch(&batch, &expired, kMaxBatch - got,
                              std::chrono::nanoseconds{0});
    }
    // Deadline-expired submissions answer without executing.
    for (Submission& s : expired) {
      expired_.fetch_add(1, std::memory_order_relaxed);
      Response resp;
      resp.id = s.req.id;
      resp.status = WireStatus::kDeadlineExceeded;
      s.session->Deliver(std::move(resp));
    }
    if (got == 0) {
      if (queue_->closed() && queue_->depth() == 0) return;
      continue;
    }
    DispatchBatch(&batch);
    // Adapt: popped + remaining backlog estimates the work that arrived
    // during one batch service time.
    if (opts_.fixed_batch == 0) {
      const double observed = static_cast<double>(got + queue_->depth());
      load_ewma = 0.75 * load_ewma + 0.25 * observed;
      target = std::clamp(static_cast<size_t>(std::lround(load_ewma)),
                          size_t{1}, kMaxBatch);
    }
    target_now_.store(target, std::memory_order_relaxed);
  }
}

void Dispatcher::DispatchBatch(std::vector<Submission>* batch_ptr) {
  std::vector<Submission>& batch = *batch_ptr;
  const size_t n = batch.size();
  batches_.fetch_add(1, std::memory_order_relaxed);
  batch_size_sum_.fetch_add(n, std::memory_order_relaxed);
  uint64_t prev_max = max_batch_seen_.load(std::memory_order_relaxed);
  while (n > prev_max &&
         !max_batch_seen_.compare_exchange_weak(prev_max, n)) {
  }

  std::vector<Response> responses(n);
  // Partition: queries fan through the QueryExecutor, update ops flatten
  // across every kUpdateBatch request into one UpdateExecutor epoch,
  // pings and invalid requests answer inline.
  struct OpRef {
    size_t sub;  // index into batch/responses
    size_t op;   // index into that request's updates
  };
  std::vector<size_t> query_idx;
  std::vector<OpRef> ops;
  for (size_t i = 0; i < n; ++i) {
    const Request& req = batch[i].req;
    Response& resp = responses[i];
    resp.id = req.id;
    switch (req.type) {
      case RequestType::kPing:
        pings_.fetch_add(1, std::memory_order_relaxed);
        break;
      case RequestType::kUpdateBatch:
        if (tables_.btree == nullptr) {
          resp.status = WireStatus::kBadRequest;
          bad_requests_.fetch_add(1, std::memory_order_relaxed);
          break;
        }
        resp.update_status.assign(req.updates.size(),
                                  static_cast<uint8_t>(WireStatus::kOk));
        for (size_t j = 0; j < req.updates.size(); ++j) {
          ops.push_back({i, j});
        }
        break;
      case RequestType::kMetablockDiagonal:
        if (tables_.metablock == nullptr) {
          resp.status = WireStatus::kBadRequest;
          bad_requests_.fetch_add(1, std::memory_order_relaxed);
        } else {
          query_idx.push_back(i);
        }
        break;
      case RequestType::kBtreeRange:
        if (tables_.btree == nullptr) {
          resp.status = WireStatus::kBadRequest;
          bad_requests_.fetch_add(1, std::memory_order_relaxed);
        } else {
          query_idx.push_back(i);
        }
        break;
      case RequestType::kIntervalStab:
        if (tables_.interval == nullptr) {
          resp.status = WireStatus::kBadRequest;
          bad_requests_.fetch_add(1, std::memory_order_relaxed);
        } else {
          query_idx.push_back(i);
        }
        break;
      case RequestType::kThreeSided:
        if (tables_.three_sided == nullptr) {
          resp.status = WireStatus::kBadRequest;
          bad_requests_.fetch_add(1, std::memory_order_relaxed);
        } else {
          query_idx.push_back(i);
        }
        break;
    }
  }

  // Updates first (one write epoch), so a pipelined update-then-query
  // pair landing in the same batch reads its own write.
  if (!ops.empty()) {
    update_ops_.fetch_add(ops.size(), std::memory_order_relaxed);
    auto report = update_exec_->RunUpdates(
        std::span<const OpRef>(ops),
        [&](const OpRef& o) { return batch[o.sub].req.updates[o.op].key; },
        [&](const OpRef& o, size_t, unsigned) -> Status {
          const UpdateOp& u = batch[o.sub].req.updates[o.op];
          if (u.kind == UpdateOp::Kind::kInsert) {
            return tables_.btree->Insert(u.key, u.value, u.aux);
          }
          bool found = false;
          return tables_.btree->Delete(u.key, u.value, &found);
        },
        query_exec_->gate(), tables_.pager);
    for (size_t k = 0; k < ops.size(); ++k) {
      Response& resp = responses[ops[k].sub];
      if (report.statuses[k].ok()) {
        ++resp.count;  // ops applied OK
      } else {
        resp.update_status[ops[k].op] =
            static_cast<uint8_t>(WireStatus::kError);
        resp.status = WireStatus::kError;
      }
    }
  }

  if (!query_idx.empty()) {
    queries_.fetch_add(query_idx.size(), std::memory_order_relaxed);
    query_exec_->RunBatch(
        std::span<const size_t>(query_idx),
        [&](size_t sub, size_t, unsigned) {
          return RunOne(batch[sub], &responses[sub]);
        },
        tables_.pager);
  }

  for (size_t i = 0; i < n; ++i) {
    batch[i].session->Deliver(std::move(responses[i]));
  }
  const auto done = std::chrono::steady_clock::now();
  std::lock_guard lock(lat_mu_);
  for (size_t i = 0; i < n; ++i) {
    accept_latency_us_.push_back(
        std::chrono::duration<double, std::micro>(done -
                                                  batch[i].admit_time)
            .count());
  }
}

Status Dispatcher::RunOne(const Submission& s, Response* resp) const {
  const Request& req = s.req;
  Status st = Status::OK();
  switch (req.type) {
    case RequestType::kMetablockDiagonal:
      st = RunWithMode<Point>(req, resp, [&](ResultSink<Point>* sink) {
        return tables_.metablock->Query(DiagonalQuery{req.args[0]}, sink);
      });
      break;
    case RequestType::kBtreeRange:
      st = RunWithMode<BtEntry>(req, resp, [&](ResultSink<BtEntry>* sink) {
        return tables_.btree->RangeScan(req.args[0], req.args[1], sink);
      });
      break;
    case RequestType::kIntervalStab:
      st = RunWithMode<Interval>(req, resp, [&](ResultSink<Interval>* sink) {
        return tables_.interval->Stab(req.args[0], sink);
      });
      break;
    case RequestType::kThreeSided:
      st = RunWithMode<Point>(req, resp, [&](ResultSink<Point>* sink) {
        return tables_.three_sided->Query(
            ThreeSidedQuery{req.args[0], req.args[1], req.args[2]}, sink);
      });
      break;
    default:
      st = Status::InvalidArgument("not a query type");
      break;
  }
  if (!st.ok()) resp->status = WireStatus::kError;
  return st;
}

}  // namespace serve
}  // namespace ccidx
