#include "loadgen.h"

#include <sys/prctl.h>

#include <limits>
#include <thread>

#include "ccidx/serve/codec.h"

namespace ccidx {
namespace e2e {
namespace {

using serve::Request;
using serve::RequestType;
using serve::UpdateOp;
using serve::WireStatus;

constexpr float kFailed = std::numeric_limits<float>::infinity();
constexpr int64_t kIdleEveryNs = 1'000'000;
// Waits longer than kSleepAboveNs sleep until kSleepMarginNs before the
// due time and spin the rest. Waking an idle virtual CPU can take hundreds
// of microseconds, and the sender's lateness is charged to every request.
constexpr int64_t kSleepAboveNs = 300'000;
constexpr int64_t kSleepMarginNs = 200'000;
// A leg whose responses have not all arrived after this long is broken.
constexpr int64_t kDrainTimeoutNs = 60'000'000'000;

template <typename T>
void Concat(std::vector<T>* into, const std::vector<T>& from) {
  into->insert(into->end(), from.begin(), from.end());
}

}  // namespace

void LegResult::Append(const LegResult& later) {
  scheduled += later.scheduled;
  sent += later.sent;
  ok += later.ok;
  read_failed += later.read_failed;
  write_failed += later.write_failed;
  update_ops += later.update_ops;
  responses += later.responses;
  response_bytes += later.response_bytes;
  Concat(&reads, later.reads);
  Concat(&writes, later.writes);
  Concat(&late_us, later.late_us);
}

LoadGen::LoadGen(serve::Server* server, const WorkloadSpec& spec,
                 std::span<const Request> queries,
                 std::span<const Answer> answers, uint32_t seed,
                 Tracer* tracer)
    : server_(server),
      spec_(spec),
      queries_(queries),
      answers_(answers),
      tracer_(tracer),
      rng_(seed * 0x2545F4914F6CDD1Dull + 1) {
  for (SessionState& ss : sessions_) {
    ss.inbox = std::make_unique<Inbox>();
    Inbox* inbox = ss.inbox.get();
    // Runs on a server thread with the session mutex held: only
    // timestamp and copy the bytes (see session.h).
    ss.session = server_->OpenSession([inbox](std::span<const uint8_t> b) {
      const int64_t now = NowNs();
      std::lock_guard lock(inbox->mu);
      inbox->bytes.insert(inbox->bytes.end(), b.begin(), b.end());
      inbox->arrivals.push_back({now, static_cast<uint32_t>(b.size())});
    });
  }
}

LegResult LoadGen::Run(double rate, double seconds, bool traced,
                       uint64_t trace_every) {
  LegResult leg;
  leg.rate = rate;
  leg.seconds = seconds;
  const size_t expect = static_cast<size_t>(rate * seconds * 1.1) + 16;
  leg.reads.reserve(expect);
  leg.writes.reserve(spec_.update_frac > 0 ? expect / 2 : 0);
  leg.late_us.reserve(expect);
  trace_every_ = trace_every == 0 ? 1 : trace_every;

  // Timer slack defaults to 50 us, which would make every sleep late.
  prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
  std::exponential_distribution<double> gap_s(rate);
  const int64_t start = NowNs();
  const int64_t end = start + static_cast<int64_t>(seconds * 1e9);
  leg.start_ns = start;
  int64_t due = start + static_cast<int64_t>(gap_s(rng_) * 1e9);
  while (due < end) {
    const int64_t now = NowNs();
    if (now >= end) {
      // The sender fell behind the schedule and ran out of window: the
      // rest of the schedule is never sent, which send_rate_ratio shows.
      ++leg.scheduled;
    } else if (now < due) {
      Drain(&leg);
      MaybeIdle();
      const int64_t wait = due - NowNs();
      if (wait > kSleepAboveNs) {
        std::this_thread::sleep_for(
            std::chrono::nanoseconds(wait - kSleepMarginNs));
      }
      continue;
    } else {
      ++leg.scheduled;
      ++leg.sent;
      Send(due, traced, &leg);
    }
    due += static_cast<int64_t>(gap_s(rng_) * 1e9);
  }

  const int64_t deadline = NowNs() + kDrainTimeoutNs;
  while (outstanding_ > 0) {
    Drain(&leg);
    MaybeIdle();
    if (outstanding_ == 0) break;
    if (NowNs() > deadline) {
      Mismatch("responses missing after the drain timeout");
      break;
    }
    std::this_thread::sleep_for(std::chrono::microseconds(20));
  }
  return leg;
}

void LoadGen::Send(int64_t due_ns, bool traced, LegResult* leg) {
  const uint64_t seq = seq_++;
  SessionState& ss = sessions_[seq % kSessions];
  Outstanding o;
  o.id = ss.next_id++;
  o.seq = seq;
  o.due_ns = due_ns;
  leg->late_us.push_back(static_cast<float>(NowNs() - due_ns) / 1e3f);

  const bool update =
      spec_.update_frac > 0 &&
      std::uniform_real_distribution<double>(0, 1)(rng_) < spec_.update_frac;
  if (update) {
    // 4-op batch in this session's own key block: 2/3 inserts, 1/3
    // deletes, over few enough (key, value) pairs that deletes hit.
    const int64_t base = kUpdateKeyBase +
                         static_cast<int64_t>(seq % kSessions) *
                             kSessionKeyStride;
    scratch_req_ = Request{};
    scratch_req_.type = RequestType::kUpdateBatch;
    for (UpdateOp& op : o.ops) {
      op.kind = std::uniform_int_distribution<int>(0, 2)(rng_) == 2
                    ? UpdateOp::Kind::kDelete
                    : UpdateOp::Kind::kInsert;
      op.key = base + std::uniform_int_distribution<int64_t>(
                          0, kUpdateKeysPerSession - 1)(rng_);
      op.value =
          std::uniform_int_distribution<uint64_t>(0, kUpdateValues - 1)(rng_);
      op.aux = 0;
      scratch_req_.updates.push_back(op);
    }
    leg->update_ops += kOpsPerUpdate;
  } else {
    o.tmpl = static_cast<int64_t>(std::uniform_int_distribution<size_t>(
        0, queries_.size() - 1)(rng_));
    scratch_req_ = queries_[static_cast<size_t>(o.tmpl)];
  }
  scratch_req_.id = o.id;

  Tracer* tracer = traced && seq % trace_every_ == 0 ? tracer_ : nullptr;
  if (tracer != nullptr) o.span = tracer->NewId();
  {
    ScopedSpan span(tracer, "serve.codec.encode", o.span, seq);
    encode_buf_.clear();
    serve::EncodeRequest(scratch_req_, &encode_buf_);
  }
  ss.outstanding.push_back(o);
  ++outstanding_;
  // A rejection is answered inside OnFrame through the writer, which only
  // appends to the inbox; it is processed by the next Drain.
  ScopedSpan span(tracer, "serve.admit", o.span, seq);
  server_->OnFrame(ss.session, encode_buf_);
}

void LoadGen::Drain(LegResult* leg) {
  for (SessionState& ss : sessions_) {
    {
      std::lock_guard lock(ss.inbox->mu);
      if (ss.inbox->arrivals.empty()) continue;
      std::swap(ss.inbox->bytes, drain_bytes_);
      std::swap(ss.inbox->arrivals, drain_arrivals_);
    }
    size_t off = 0;
    for (const Arrival& a : drain_arrivals_) {
      Complete(ss, {drain_bytes_.data() + off, a.len}, a.t_ns, leg);
      off += a.len;
    }
    drain_bytes_.clear();
    drain_arrivals_.clear();
  }
}

void LoadGen::Complete(SessionState& ss, std::span<const uint8_t> frame,
                       int64_t done_ns, LegResult* leg) {
  if (ss.outstanding.empty()) {
    Mismatch("response without an outstanding request");
    return;
  }
  const Outstanding o = ss.outstanding.front();
  ss.outstanding.pop_front();
  --outstanding_;
  ++leg->responses;
  leg->response_bytes += frame.size();

  Status decoded;
  {
    Tracer* tracer = o.span != 0 ? tracer_ : nullptr;
    ScopedSpan span(tracer, "serve.codec.decode", o.span, o.seq);
    decoded = serve::DecodeResponse(frame, &resp_);
  }
  if (o.span != 0) {
    tracer_->Record({"request", o.span, 0, o.seq, o.due_ns, done_ns});
  }
  if (!decoded.ok() || resp_.id != o.id) {
    Mismatch("undecodable or out-of-order response");
    return;
  }

  const bool write = o.tmpl < 0;
  float latency = static_cast<float>(done_ns - o.due_ns) / 1e3f;
  switch (resp_.status) {
    case WireStatus::kOk:
      ++leg->ok;
      if (!write) {
        if (!(AnswerOf(resp_) == answers_[static_cast<size_t>(o.tmpl)])) {
          Mismatch("wrong answer to a " +
                   std::string(FamilyName(queries_[o.tmpl].type)) +
                   " request (template " + std::to_string(o.tmpl) + ")");
        }
        break;
      }
      if (resp_.count != kOpsPerUpdate ||
          resp_.update_status.size() != kOpsPerUpdate) {
        Mismatch("update batch applied a wrong number of ops");
        break;
      }
      for (const UpdateOp& op : o.ops) {
        const auto key = std::make_pair(op.key, op.value);
        if (op.kind == UpdateOp::Kind::kInsert) {
          ++model_[key];
        } else if (auto it = model_.find(key); it != model_.end()) {
          if (--it->second == 0) model_.erase(it);
        }
      }
      break;
    case WireStatus::kOverloaded:
    case WireStatus::kDeadlineExceeded:
    case WireStatus::kNoCredit:
      // Admission refused it before it ran: a failure, not a wrong answer.
      latency = kFailed;
      break;
    default:
      // The engine failed a request that must succeed; an update may have
      // been applied in part, so the replay model is no longer exact.
      latency = kFailed;
      Mismatch("request failed in the engine");
      break;
  }
  if (latency == kFailed) ++(write ? leg->write_failed : leg->read_failed);
  (write ? leg->writes : leg->reads).push_back({o.due_ns, latency});
}

void LoadGen::Mismatch(const std::string& what) {
  if (mismatches_++ == 0) first_mismatch_ = what;
}

void LoadGen::MaybeIdle() {
  if (!idle_hook_) return;
  const int64_t now = NowNs();
  if (now - last_idle_ns_ < kIdleEveryNs) return;
  last_idle_ns_ = now;
  idle_hook_();
}

}  // namespace e2e
}  // namespace ccidx
