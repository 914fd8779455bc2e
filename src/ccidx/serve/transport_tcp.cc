#include "ccidx/serve/transport_tcp.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

namespace ccidx {
namespace serve {

namespace {
constexpr size_t kReadChunk = 64 * 1024;
}  // namespace

struct TcpServerTransport::Connection {
  int fd = -1;
  Session* session = nullptr;
  FrameScanner scanner;

  std::mutex mu;
  std::vector<uint8_t> outbox;   // guarded by mu
  size_t out_off = 0;            // guarded by mu
  bool epollout_armed = false;   // guarded by mu
  bool closed = false;           // guarded by mu
};

TcpServerTransport::TcpServerTransport(Server* server) : server_(server) {}

TcpServerTransport::~TcpServerTransport() { Stop(); }

Status TcpServerTransport::Start() {
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (listen_fd_ < 0) {
    return Status::IoError("socket() failed");
  }
  int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = 0;  // ephemeral
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
          0 ||
      ::listen(listen_fd_, 128) < 0) {
    Stop();
    return Status::IoError("bind/listen on 127.0.0.1 failed");
  }
  socklen_t len = sizeof(addr);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len) <
      0) {
    Stop();
    return Status::IoError("getsockname failed");
  }
  port_ = ntohs(addr.sin_port);

  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  wake_fd_ = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  if (epoll_fd_ < 0 || wake_fd_ < 0) {
    Stop();
    return Status::IoError("epoll/eventfd unavailable");
  }
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.ptr = nullptr;  // nullptr = listener
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, listen_fd_, &ev);
  ev.data.ptr = this;  // this = wakeup
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_fd_, &ev);

  running_.store(true);
  thread_ = std::thread([this] { Loop(); });
  return Status::OK();
}

void TcpServerTransport::Stop() {
  if (running_.exchange(false)) {
    uint64_t one = 1;
    [[maybe_unused]] ssize_t n = ::write(wake_fd_, &one, sizeof(one));
  }
  if (thread_.joinable()) thread_.join();
  {
    std::lock_guard lock(conns_mu_);
    for (auto& conn : conns_) {
      std::lock_guard clock(conn->mu);
      if (!conn->closed) {
        ::close(conn->fd);
        conn->closed = true;
      }
    }
    conns_.clear();
  }
  if (listen_fd_ >= 0) ::close(listen_fd_), listen_fd_ = -1;
  if (wake_fd_ >= 0) ::close(wake_fd_), wake_fd_ = -1;
  if (epoll_fd_ >= 0) ::close(epoll_fd_), epoll_fd_ = -1;
}

void TcpServerTransport::Loop() {
  constexpr int kMaxEvents = 64;
  epoll_event events[kMaxEvents];
  while (running_.load(std::memory_order_relaxed)) {
    int n = ::epoll_wait(epoll_fd_, events, kMaxEvents, /*timeout_ms=*/200);
    if (n < 0) {
      if (errno == EINTR) continue;
      return;
    }
    for (int i = 0; i < n; ++i) {
      void* ptr = events[i].data.ptr;
      if (ptr == nullptr) {
        Accept();
      } else if (ptr == this) {
        uint64_t drained;
        [[maybe_unused]] ssize_t r =
            ::read(wake_fd_, &drained, sizeof(drained));
      } else {
        auto* conn = static_cast<Connection*>(ptr);
        if (events[i].events & (EPOLLHUP | EPOLLERR)) {
          CloseConnection(conn);
          continue;
        }
        if (events[i].events & EPOLLIN) ReadReady(conn);
        if (events[i].events & EPOLLOUT) WriteReady(conn);
      }
    }
  }
}

void TcpServerTransport::Accept() {
  for (;;) {
    int fd = ::accept4(listen_fd_, nullptr, nullptr,
                       SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) return;  // EAGAIN or error: nothing more to accept
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    auto conn = std::make_unique<Connection>();
    Connection* raw = conn.get();
    raw->fd = fd;
    // The writer queues bytes and arms EPOLLOUT; epoll_ctl is
    // thread-safe, so the dispatcher thread can arm directly without
    // bouncing through the event loop. It arms under `mu`, after the
    // `closed` check: CloseConnection closes the fd under the same lock,
    // so a reused fd number is never armed for this dead connection.
    raw->session = server_->OpenSession([this, raw](
                                            std::span<const uint8_t> bytes) {
      std::lock_guard lock(raw->mu);
      if (raw->closed) return;  // peer gone: drop the response bytes
      raw->outbox.insert(raw->outbox.end(), bytes.begin(), bytes.end());
      if (!raw->epollout_armed) {
        raw->epollout_armed = true;
        epoll_event ev{};
        ev.events = EPOLLIN | EPOLLOUT;
        ev.data.ptr = raw;
        ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, raw->fd, &ev);
      }
    });
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.ptr = raw;
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev);
    accepted_.fetch_add(1, std::memory_order_relaxed);
    std::lock_guard lock(conns_mu_);
    conns_.push_back(std::move(conn));
  }
}

void TcpServerTransport::ReadReady(Connection* conn) {
  uint8_t buf[kReadChunk];
  for (;;) {
    ssize_t n = ::recv(conn->fd, buf, sizeof(buf), 0);
    if (n == 0) {
      CloseConnection(conn);
      return;
    }
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      if (errno == EINTR) continue;
      CloseConnection(conn);
      return;
    }
    conn->scanner.Feed({buf, static_cast<size_t>(n)});
    for (;;) {
      std::span<const uint8_t> frame;
      Status st = conn->scanner.Next(&frame);
      if (!st.ok()) {
        // Corrupt stream: the scanner is poisoned, drop the peer.
        CloseConnection(conn);
        return;
      }
      if (frame.empty()) break;  // need more bytes
      server_->OnFrame(conn->session, frame);
    }
  }
}

void TcpServerTransport::WriteReady(Connection* conn) {
  std::unique_lock lock(conn->mu);
  if (conn->closed) return;
  while (conn->out_off < conn->outbox.size()) {
    ssize_t n = ::send(conn->fd, conn->outbox.data() + conn->out_off,
                       conn->outbox.size() - conn->out_off, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;  // stay armed
      if (errno == EINTR) continue;
      lock.unlock();
      CloseConnection(conn);
      return;
    }
    conn->out_off += static_cast<size_t>(n);
  }
  conn->outbox.clear();
  conn->out_off = 0;
  conn->epollout_armed = false;
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.ptr = conn;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, conn->fd, &ev);
}

void TcpServerTransport::CloseConnection(Connection* conn) {
  std::lock_guard lock(conn->mu);
  if (conn->closed) return;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, conn->fd, nullptr);
  ::close(conn->fd);
  conn->closed = true;
  // The Connection object itself stays in conns_ (and the Session in the
  // server) until Stop(): in-flight dispatches may still Deliver here.
}

Status TcpClient::Connect(uint16_t port) {
  fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd_ < 0) return Status::IoError("socket() failed");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    Close();
    return Status::IoError("connect to 127.0.0.1 failed");
  }
  int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return Status::OK();
}

void TcpClient::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

uint64_t TcpClient::Send(Request req) {
  if (fd_ < 0) return 0;
  req.id = next_id_++;
  encode_buf_.clear();
  EncodeRequest(req, &encode_buf_);
  size_t off = 0;
  while (off < encode_buf_.size()) {
    ssize_t n = ::send(fd_, encode_buf_.data() + off,
                       encode_buf_.size() - off, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return 0;
    }
    off += static_cast<size_t>(n);
  }
  return req.id;
}

Status TcpClient::Receive(Response* out) {
  if (fd_ < 0) return Status::IoError("not connected");
  uint8_t buf[kReadChunk];
  for (;;) {
    std::span<const uint8_t> frame;
    Status st = scanner_.Next(&frame);
    if (!st.ok()) return st;
    if (!frame.empty()) return DecodeResponse(frame, out);
    ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
    if (n == 0) return Status::IoError("server closed connection");
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::IoError("recv failed");
    }
    scanner_.Feed({buf, static_cast<size_t>(n)});
  }
}

Status TcpClient::Call(Request req, Response* out) {
  if (Send(std::move(req)) == 0) return Status::IoError("send failed");
  return Receive(out);
}

}  // namespace serve
}  // namespace ccidx
