// In-process loopback transport (DESIGN.md §12): the client side of the
// wire protocol with no socket underneath. Requests are encoded to real
// frames, handed to Server::OnFrame, and responses come back through the
// session writer as encoded frames into a client-side inbox — so tests
// and CI exercise the full codec + admission + dispatch + ordering path
// with no network, and a differential test can compare its answers
// bit-for-bit against direct RunBatch calls.
//
// One LoopbackConnection is one session (one request-id sequence, one
// credit window). A load driver multiplexes thousands of connections
// over a few threads via TryReceive — the "millions of users" shape with
// none of the socket cost.

#ifndef CCIDX_SERVE_TRANSPORT_H_
#define CCIDX_SERVE_TRANSPORT_H_

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <mutex>

#include "ccidx/common/status.h"
#include "ccidx/serve/codec.h"
#include "ccidx/serve/frame.h"
#include "ccidx/serve/server.h"

namespace ccidx {
namespace serve {

class LoopbackConnection {
 public:
  /// Opens a session on `server` (which must outlive the connection).
  explicit LoopbackConnection(Server* server) : server_(server) {
    session_ = server->OpenSession([this](std::span<const uint8_t> bytes) {
      Response resp;
      // The server encoded this frame, and the dispatcher caps a
      // response at kMaxResponseRecords so it fits one frame; a decode
      // failure here means the codec and that cap disagree, which the
      // tests pin through decode_errors().
      Status st = DecodeResponse(bytes, &resp);
      std::lock_guard lock(mu_);
      if (st.ok()) {
        inbox_.push_back(std::move(resp));
      } else {
        ++decode_errors_;
      }
      cv_.notify_one();
    });
  }

  LoopbackConnection(const LoopbackConnection&) = delete;
  LoopbackConnection& operator=(const LoopbackConnection&) = delete;

  /// Assigns the next request id, encodes, and submits. Returns the id.
  /// Thread-compatible (one sender per connection, like one socket).
  uint64_t Send(Request req) {
    req.id = next_id_++;
    encode_buf_.clear();
    EncodeRequest(req, &encode_buf_);
    server_->OnFrame(session_, encode_buf_);
    return req.id;
  }

  /// Blocks for the next in-order response.
  Response Receive() {
    std::unique_lock lock(mu_);
    cv_.wait(lock, [this] { return !inbox_.empty(); });
    Response r = std::move(inbox_.front());
    inbox_.pop_front();
    return r;
  }

  /// Non-blocking receive; false when the inbox is empty.
  bool TryReceive(Response* out) {
    std::lock_guard lock(mu_);
    if (inbox_.empty()) return false;
    *out = std::move(inbox_.front());
    inbox_.pop_front();
    return true;
  }

  /// Send + Receive. With no pipelining in flight, the received response
  /// is this request's (ordered delivery).
  Response Call(Request req) {
    Send(std::move(req));
    return Receive();
  }

  Session* session() { return session_; }
  uint64_t decode_errors() const {
    std::lock_guard lock(mu_);
    return decode_errors_;
  }

 private:
  Server* const server_;
  Session* session_ = nullptr;
  uint64_t next_id_ = 1;            // sender-side sequence
  std::vector<uint8_t> encode_buf_;  // sender-side scratch

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::deque<Response> inbox_;  // guarded by mu_
  uint64_t decode_errors_ = 0;  // guarded by mu_
};

}  // namespace serve
}  // namespace ccidx

#endif  // CCIDX_SERVE_TRANSPORT_H_
