// In-memory span recorder for the benchmark's traced run.
//
// A span is one timed call the benchmark makes into a module's public
// entry points (encode a request, OnFrame, decode a response, a family
// query, a log append), or one whole request from its due time to its
// completion. Spans of one request share its id through `parent`. Spans
// are kept in memory while the tracer is armed, up to a fixed capacity
// (later spans are counted as dropped), and written out as JSON lines when
// the run ends. A span's self time is its duration minus the part of its
// interval its children cover.
//
// Spans come from the sender thread, the server's writer threads (through
// the log-storage decorator) and the maintenance thread, so recording
// takes a mutex; the sender samples which requests it traces to keep that
// off most of its requests.

#ifndef CCIDX_BENCH_E2E_TRACE_H_
#define CCIDX_BENCH_E2E_TRACE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace ccidx {
namespace e2e {

/// Steady-clock nanoseconds.
inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Span {
  const char* name = nullptr;  // string literal
  uint64_t id = 0;
  uint64_t parent = 0;  // 0 = root span
  uint64_t req = 0;     // request sequence or query template (0 = none)
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

class Tracer {
 public:
  explicit Tracer(size_t capacity) : capacity_(capacity) {}

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  void Arm(bool on) { armed_.store(on, std::memory_order_relaxed); }
  bool armed() const { return armed_.load(std::memory_order_relaxed); }

  uint64_t NewId() { return next_id_.fetch_add(1, std::memory_order_relaxed); }

  /// Keeps the span if the tracer is armed and has room.
  void Record(const Span& span);

  size_t size() const;
  uint64_t dropped() const { return dropped_.load(std::memory_order_relaxed); }

  struct SelfTime {
    uint64_t count = 0;
    double mean_self_ns = 0;
    double mean_duration_ns = 0;
  };
  /// Mean self time and duration per span name.
  std::map<std::string, SelfTime> SelfTimes() const;

  /// Writes every kept span as one JSON line
  /// {"name","id","start_ns","end_ns","parent","req"}. False on an I/O
  /// error.
  bool WriteJsonl(const std::string& path) const;

 private:
  const size_t capacity_;
  std::atomic<bool> armed_{false};
  std::atomic<uint64_t> next_id_{1};
  std::atomic<uint64_t> dropped_{0};
  mutable std::mutex mu_;
  std::vector<Span> spans_;  // guarded by mu_
};

/// Records [construction, destruction) as one span when `tracer` is armed.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name, uint64_t parent = 0,
             uint64_t req = 0)
      : tracer_(tracer != nullptr && tracer->armed() ? tracer : nullptr) {
    if (tracer_ == nullptr) return;
    span_.name = name;
    span_.id = tracer_->NewId();
    span_.parent = parent;
    span_.req = req;
    span_.start_ns = NowNs();
  }
  ~ScopedSpan() {
    if (tracer_ == nullptr) return;
    span_.end_ns = NowNs();
    tracer_->Record(span_);
  }

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* const tracer_;
  Span span_;
};

}  // namespace e2e
}  // namespace ccidx

#endif  // CCIDX_BENCH_E2E_TRACE_H_
