#include "ccidx/serve/server.h"

#include "ccidx/serve/codec.h"

namespace ccidx {
namespace serve {

Server::Server(const ServeTables& tables, const ServerOptions& opts)
    : opts_(opts),
      queue_(opts.queue_capacity, opts.high_watermark),
      query_exec_(opts.query_threads),
      update_exec_(opts.update_threads),
      dispatcher_(tables, opts, &queue_, &query_exec_, &update_exec_) {}

Server::~Server() { Stop(); }

void Server::Start() {
  if (running_.exchange(true)) return;
  dispatcher_.Start();
}

void Server::Stop() {
  if (!running_.exchange(false)) return;
  queue_.Close();
  dispatcher_.Stop();
}

Session* Server::OpenSession(Session::Writer writer) {
  std::lock_guard lock(sessions_mu_);
  sessions_.push_back(std::make_unique<Session>(
      next_session_id_++, kSessionCredits, std::move(writer)));
  return sessions_.back().get();
}

void Server::OnFrame(Session* session, std::span<const uint8_t> frame) {
  Request req;
  Status st = DecodeRequest(frame, &req);
  if (!st.ok()) {
    bad_frames_.fetch_add(1, std::memory_order_relaxed);
    // Answer when the id was parseable; an id-less frame cannot be
    // addressed into the session's ordered stream and is dropped (a TCP
    // transport additionally poisons the connection via FrameScanner).
    if (req.id != 0) {
      Response resp;
      resp.id = req.id;
      resp.status = WireStatus::kBadRequest;
      session->Deliver(std::move(resp), /*return_credit=*/false);
    }
    return;
  }
  if (!session->AcquireCredit()) {
    no_credit_.fetch_add(1, std::memory_order_relaxed);
    Response resp;
    resp.id = req.id;
    resp.status = WireStatus::kNoCredit;
    session->Deliver(std::move(resp), /*return_credit=*/false);
    return;
  }
  Submission s;
  s.session = session;
  s.admit_time = std::chrono::steady_clock::now();
  if (req.deadline_us > 0) {
    s.deadline = s.admit_time + std::chrono::microseconds(req.deadline_us);
  }
  const uint64_t id = req.id;
  s.req = std::move(req);
  if (queue_.TryPush(std::move(s)) == Admission::kShed) {
    Response resp;
    resp.id = id;
    resp.status = WireStatus::kOverloaded;
    session->Deliver(std::move(resp));  // returns the credit
  }
}

ServerStats Server::stats() const {
  ServerStats s;
  s.admitted = queue_.admitted();
  s.shed = queue_.shed();
  s.rejected_closed = queue_.rejected_closed();
  s.deadline_dropped = queue_.deadline_dropped();
  s.queue_slots = queue_.slots();
  s.bad_frames = bad_frames_.load(std::memory_order_relaxed);
  s.no_credit = no_credit_.load(std::memory_order_relaxed);
  s.dispatch = dispatcher_.stats();
  s.reader_gate_wait = query_exec_.reader_gate_wait_histogram();
  s.queue_depth_hist = queue_.depth_histogram();
  return s;
}

}  // namespace serve
}  // namespace ccidx
