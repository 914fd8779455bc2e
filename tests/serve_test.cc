// Serving front-end (DESIGN.md §12): codec round-trips for every request
// type and result mode, FrameScanner reassembly and poisoning, queue
// watermark/shed/deadline semantics across ring growth, session response ordering and
// flow-control credits, a loopback end-to-end differential against
// direct execution through the library sinks (bit-identical answers and
// pins), the oversize-answer error, overload behavior (nonzero shed,
// bounded accepted latency), and a TCP round-trip (skipped where sockets
// are unavailable).

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <thread>
#include <vector>

#include "ccidx/bptree/bptree.h"
#include "ccidx/build/record_stream.h"
#include "ccidx/core/metablock_tree.h"
#include "ccidx/core/three_sided_tree.h"
#include "ccidx/interval/interval_index.h"
#include "ccidx/io/block_device.h"
#include "ccidx/io/pager.h"
#include "ccidx/io/wal.h"
#include "ccidx/query/executor.h"
#include "ccidx/query/sink.h"
#include "ccidx/serve/codec.h"
#include "ccidx/serve/frame.h"
#include "ccidx/serve/server.h"
#include "ccidx/serve/session.h"
#include "ccidx/serve/submission_queue.h"
#include "ccidx/serve/transport.h"
#include "ccidx/serve/transport_tcp.h"
#include "ccidx/testutil/generators.h"

namespace ccidx {
namespace serve {
namespace {

using std::chrono::milliseconds;
using std::chrono::nanoseconds;

// ---------------------------------------------------------------------------
// Codec

Request RoundTrip(const Request& req) {
  std::vector<uint8_t> buf;
  EncodeRequest(req, &buf);
  Request out;
  Status st = DecodeRequest(buf, &out);
  EXPECT_TRUE(st.ok()) << st.message();
  return out;
}

TEST(ServeCodec, RequestRoundTripEveryType) {
  // One request per type, exercising every field the type uses.
  Request ping;
  ping.id = 1;
  ping.type = RequestType::kPing;
  EXPECT_EQ(RoundTrip(ping), ping);

  Request diag;
  diag.id = 2;
  diag.type = RequestType::kMetablockDiagonal;
  diag.mode = ResultMode::kCount;
  diag.args = {1234, 0, 0};
  diag.deadline_us = 5000;
  EXPECT_EQ(RoundTrip(diag), diag);

  Request range;
  range.id = 3;
  range.type = RequestType::kBtreeRange;
  range.mode = ResultMode::kLimit;
  range.limit = 7;
  range.args = {-100, 100, 0};  // negative operands must survive
  EXPECT_EQ(RoundTrip(range), range);

  Request stab;
  stab.id = 4;
  stab.type = RequestType::kIntervalStab;
  stab.mode = ResultMode::kExists;
  stab.args = {42, 0, 0};
  EXPECT_EQ(RoundTrip(stab), stab);

  Request three;
  three.id = 5;
  three.type = RequestType::kThreeSided;
  three.mode = ResultMode::kRecords;
  three.args = {10, 90, 50};
  EXPECT_EQ(RoundTrip(three), three);

  Request upd;
  upd.id = 6;
  upd.type = RequestType::kUpdateBatch;
  upd.updates = {{UpdateOp::Kind::kInsert, 10, 100, -1},
                 {UpdateOp::Kind::kDelete, 11, 101, 0},
                 {UpdateOp::Kind::kInsert, -12, 102, 3}};
  EXPECT_EQ(RoundTrip(upd), upd);
}

TEST(ServeCodec, ResponseRoundTrip) {
  Response resp;
  resp.id = 99;
  resp.status = WireStatus::kOk;
  resp.count = 2;
  resp.records = {{1u, 2u, 3u},
                  {static_cast<uint64_t>(-5), 0u, uint64_t{1} << 63}};
  resp.update_status = {0, 5, 0};
  std::vector<uint8_t> buf;
  EncodeResponse(resp, &buf);
  Response out;
  ASSERT_TRUE(DecodeResponse(buf, &out).ok());
  EXPECT_EQ(out, resp);
}

TEST(ServeCodec, RejectsCorruptFrames) {
  Request req;
  req.id = 7;
  req.type = RequestType::kBtreeRange;
  std::vector<uint8_t> buf;
  EncodeRequest(req, &buf);

  Request out;
  // Truncated payload.
  std::vector<uint8_t> cut(buf.begin(), buf.end() - 1);
  cut[8] = static_cast<uint8_t>(cut.size() - kFrameHeaderBytes);
  EXPECT_FALSE(DecodeRequest(cut, &out).ok());
  // Bad magic.
  std::vector<uint8_t> bad = buf;
  bad[0] ^= 0xff;
  EXPECT_FALSE(DecodeRequest(bad, &out).ok());
  // Bad version.
  bad = buf;
  bad[4] = kWireVersion + 1;
  EXPECT_FALSE(DecodeRequest(bad, &out).ok());
  // Response frame fed to the request decoder.
  Response resp;
  resp.id = 7;
  std::vector<uint8_t> rbuf;
  EncodeResponse(resp, &rbuf);
  EXPECT_FALSE(DecodeRequest(rbuf, &out).ok());
  // Unknown request type / result mode.
  bad = buf;
  bad[kFrameHeaderBytes + 8] = kMaxRequestType + 1;
  EXPECT_FALSE(DecodeRequest(bad, &out).ok());
  bad = buf;
  bad[kFrameHeaderBytes + 9] = kMaxResultMode + 1;
  EXPECT_FALSE(DecodeRequest(bad, &out).ok());
  // The id still decodes out of a frame with a bad body, so the server
  // can address its kBadRequest response (frame.h contract).
  EXPECT_EQ(out.id, 7u);
}

TEST(ServeCodec, ScannerReassemblesByteByByte) {
  std::vector<uint8_t> stream;
  std::vector<Request> sent;
  for (uint64_t id = 1; id <= 5; ++id) {
    Request req;
    req.id = id;
    req.type = id % 2 ? RequestType::kBtreeRange : RequestType::kUpdateBatch;
    req.args = {static_cast<int64_t>(id), static_cast<int64_t>(id * 10), 0};
    if (req.type == RequestType::kUpdateBatch) {
      req.args = {0, 0, 0};
      req.updates = {{UpdateOp::Kind::kInsert, static_cast<int64_t>(id),
                      id, 0}};
    }
    sent.push_back(req);
    EncodeRequest(req, &stream);
  }
  FrameScanner scanner;
  std::vector<Request> got;
  for (uint8_t b : stream) {  // worst-case fragmentation: 1-byte reads
    scanner.Feed({&b, 1});
    for (;;) {
      std::span<const uint8_t> frame;
      ASSERT_TRUE(scanner.Next(&frame).ok());
      if (frame.empty()) break;
      Request req;
      ASSERT_TRUE(DecodeRequest(frame, &req).ok());
      got.push_back(std::move(req));
    }
  }
  EXPECT_EQ(got, sent);
  EXPECT_EQ(scanner.pending_bytes(), 0u);
}

TEST(ServeCodec, ScannerPoisonsOnCorruptHeader) {
  FrameScanner scanner;
  std::vector<uint8_t> junk(kFrameHeaderBytes, 0xab);
  scanner.Feed(junk);
  std::span<const uint8_t> frame;
  EXPECT_FALSE(scanner.Next(&frame).ok());
  // Sticky: even a valid frame after the corruption is rejected.
  Request req;
  req.id = 1;
  std::vector<uint8_t> buf;
  EncodeRequest(req, &buf);
  scanner.Feed(buf);
  EXPECT_FALSE(scanner.Next(&frame).ok());
}

// ---------------------------------------------------------------------------
// Submission queue

Submission MakeSub(uint64_t id, Session* session = nullptr) {
  Submission s;
  s.req.id = id;
  s.session = session;
  s.admit_time = std::chrono::steady_clock::now();
  return s;
}

TEST(ServeQueue, ShedsAtHighWatermarkInFifoOrder) {
  SubmissionQueue q(/*capacity=*/8, /*high=*/4);
  EXPECT_EQ(q.TryPush(MakeSub(1)), Admission::kAdmitted);
  EXPECT_EQ(q.TryPush(MakeSub(2)), Admission::kAdmitted);
  EXPECT_EQ(q.TryPush(MakeSub(3)), Admission::kAdmitted);
  EXPECT_EQ(q.TryPush(MakeSub(4)), Admission::kAdmitted);
  // At the high watermark every further push sheds, O(1), no blocking.
  EXPECT_EQ(q.TryPush(MakeSub(5)), Admission::kShed);
  EXPECT_EQ(q.TryPush(MakeSub(6)), Admission::kShed);
  EXPECT_EQ(q.depth(), 4u);
  EXPECT_EQ(q.admitted(), 4u);
  EXPECT_EQ(q.shed(), 2u);

  std::vector<Submission> out;
  std::vector<Submission> expired;
  EXPECT_EQ(q.PopBatch(&out, &expired, 8, nanoseconds{0}), 4u);
  ASSERT_EQ(out.size(), 4u);
  EXPECT_EQ(out[0].req.id, 1u);  // FIFO
  EXPECT_EQ(out[3].req.id, 4u);
  EXPECT_TRUE(expired.empty());
}

TEST(ServeQueue, DropsExpiredAtDequeue) {
  SubmissionQueue q(8, 8);
  Submission live = MakeSub(1);
  Submission dead = MakeSub(2);
  dead.deadline = std::chrono::steady_clock::now() - milliseconds(1);
  ASSERT_EQ(q.TryPush(std::move(dead)), Admission::kAdmitted);
  ASSERT_EQ(q.TryPush(std::move(live)), Admission::kAdmitted);

  std::vector<Submission> out;
  std::vector<Submission> expired;
  // max_n = 1: the expired submission must not consume the slot.
  EXPECT_EQ(q.PopBatch(&out, &expired, 1, nanoseconds{0}), 1u);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].req.id, 1u);
  ASSERT_EQ(expired.size(), 1u);
  EXPECT_EQ(expired[0].req.id, 2u);
  EXPECT_EQ(q.deadline_dropped(), 1u);
}

TEST(ServeQueue, CloseUnblocksAndSheds) {
  SubmissionQueue q(4, 4);
  std::thread popper([&] {
    std::vector<Submission> out;
    std::vector<Submission> expired;
    // Blocks until Close() (no producer): must return 0, not hang.
    EXPECT_EQ(q.PopBatch(&out, &expired, 1, std::chrono::seconds(30)), 0u);
  });
  std::this_thread::sleep_for(milliseconds(20));
  q.Close();
  popper.join();
  EXPECT_EQ(q.TryPush(MakeSub(1)), Admission::kShed);
  // Shutdown rejections are bookkeeping, not overload: they must land in
  // rejected_closed(), never in shed(), so shed-rate assertions stay
  // meaningful while clients drain against a closing server.
  EXPECT_EQ(q.shed(), 0u);
  EXPECT_EQ(q.rejected_closed(), 1u);
  EXPECT_EQ(q.TryPush(MakeSub(2)), Admission::kShed);
  EXPECT_EQ(q.rejected_closed(), 2u);
  EXPECT_EQ(q.admitted(), 0u);
}

// The ring starts small and doubles when a push finds it full; a growth
// with the head mid-ring must unroll the wrapped FIFO in order.
TEST(ServeQueue, GrowthWithWrappedHeadKeepsFifoOrder) {
  SubmissionQueue q(1024, 1024);
  EXPECT_EQ(q.slots(), 64u);
  std::vector<Submission> out;
  std::vector<Submission> expired;
  uint64_t next_push = 1;
  uint64_t next_pop = 1;
  for (int i = 0; i < 40; ++i) {
    ASSERT_EQ(q.TryPush(MakeSub(next_push++)), Admission::kAdmitted);
  }
  ASSERT_EQ(q.PopBatch(&out, &expired, 30, nanoseconds{0}), 30u);
  // Head at slot 30; 54 more pushes wrap the tail round and fill the ring.
  for (int i = 0; i < 54; ++i) {
    ASSERT_EQ(q.TryPush(MakeSub(next_push++)), Admission::kAdmitted);
  }
  EXPECT_EQ(q.depth(), 64u);
  EXPECT_EQ(q.slots(), 64u);
  ASSERT_EQ(q.TryPush(MakeSub(next_push++)), Admission::kAdmitted);
  EXPECT_EQ(q.slots(), 128u);
  // Interleave pops and pushes across a second growth.
  ASSERT_EQ(q.PopBatch(&out, &expired, 10, nanoseconds{0}), 10u);
  for (int i = 0; i < 80; ++i) {
    ASSERT_EQ(q.TryPush(MakeSub(next_push++)), Admission::kAdmitted);
  }
  EXPECT_EQ(q.slots(), 256u);
  while (q.PopBatch(&out, &expired, 16, nanoseconds{0}) > 0) {
  }
  EXPECT_TRUE(expired.empty());
  ASSERT_EQ(out.size(), next_push - 1);
  for (const Submission& s : out) EXPECT_EQ(s.req.id, next_pop++);
  EXPECT_EQ(q.slots(), 256u);  // the ring never shrinks
}

// Growth never changes admission: with the benchmark's capacity the queue
// sheds exactly at the high watermark, and the ring only reaches the
// power of two above the deepest backlog.
TEST(ServeQueue, ShedsExactlyAtHighWatermarkWithRingSizedToDepth) {
  constexpr size_t kHigh = 1000;
  SubmissionQueue q(/*capacity=*/262144, kHigh);
  EXPECT_LE(q.slots(), 64u);
  size_t admitted = 0;
  while (q.TryPush(MakeSub(admitted + 1)) == Admission::kAdmitted) {
    ++admitted;
    ASSERT_LE(q.slots(), std::max<size_t>(64, 2 * admitted));
  }
  EXPECT_EQ(admitted, kHigh);
  EXPECT_EQ(q.depth(), kHigh);
  EXPECT_EQ(q.shed(), 1u);
  EXPECT_EQ(q.slots(), 1024u);
  std::vector<Submission> out;
  std::vector<Submission> expired;
  ASSERT_EQ(q.PopBatch(&out, &expired, 1, nanoseconds{0}), 1u);
  EXPECT_EQ(q.TryPush(MakeSub(kHigh + 1)), Admission::kAdmitted);
  EXPECT_EQ(q.TryPush(MakeSub(kHigh + 2)), Admission::kShed);
}

// Expired submissions moved across a growth are still dropped at dequeue,
// in order, without consuming live slots.
TEST(ServeQueue, DropsExpiredAcrossGrowth) {
  SubmissionQueue q(4096, 4096);
  const auto past = std::chrono::steady_clock::now() - milliseconds(1);
  for (uint64_t id = 1; id <= 100; ++id) {
    Submission s = MakeSub(id);
    if (id % 3 == 0) s.deadline = past;
    ASSERT_EQ(q.TryPush(std::move(s)), Admission::kAdmitted);
    if (id == 50) {
      // Move the head off slot 0 before the ring grows.
      std::vector<Submission> out;
      std::vector<Submission> expired;
      ASSERT_EQ(q.PopBatch(&out, &expired, 5, nanoseconds{0}), 5u);
    }
  }
  EXPECT_EQ(q.slots(), 128u);
  std::vector<Submission> out;
  std::vector<Submission> expired;
  while (q.depth() > 0) q.PopBatch(&out, &expired, 8, nanoseconds{0});
  // The first pop took ids 1..7 (5 live, the expired 3 and 6).
  std::vector<uint64_t> live;
  std::vector<uint64_t> dead;
  for (const Submission& s : out) live.push_back(s.req.id);
  for (const Submission& s : expired) dead.push_back(s.req.id);
  std::vector<uint64_t> want_live;
  std::vector<uint64_t> want_dead;
  for (uint64_t id = 8; id <= 100; ++id) {
    (id % 3 == 0 ? want_dead : want_live).push_back(id);
  }
  EXPECT_EQ(live, want_live);
  EXPECT_EQ(dead, want_dead);
  EXPECT_EQ(q.deadline_dropped(), 33u);
}

// Degenerate capacities: 0 sheds every push, 1 holds one submission.
TEST(ServeQueue, CapacityZeroAndOne) {
  std::vector<Submission> out;
  std::vector<Submission> expired;
  SubmissionQueue zero(0, 0);
  EXPECT_EQ(zero.TryPush(MakeSub(1)), Admission::kShed);
  EXPECT_EQ(zero.PopBatch(&out, &expired, 4, nanoseconds{0}), 0u);
  EXPECT_EQ(zero.shed(), 1u);
  EXPECT_LE(zero.slots(), 1u);

  SubmissionQueue one(1, 1);
  for (uint64_t id = 1; id <= 3; ++id) {
    EXPECT_EQ(one.TryPush(MakeSub(id)), Admission::kAdmitted);
    EXPECT_EQ(one.TryPush(MakeSub(100 + id)), Admission::kShed);
    ASSERT_EQ(one.PopBatch(&out, &expired, 4, nanoseconds{0}), 1u);
    EXPECT_EQ(out.back().req.id, id);
  }
  EXPECT_EQ(one.slots(), 1u);
  EXPECT_EQ(one.admitted(), 3u);
  EXPECT_EQ(one.shed(), 3u);
}

// ---------------------------------------------------------------------------
// Session

TEST(ServeSession, DeliversInIdOrderWhateverTheCompletionOrder) {
  std::vector<uint64_t> written;
  Session session(1, /*credits=*/16, [&](std::span<const uint8_t> bytes) {
    Response resp;
    ASSERT_TRUE(DecodeResponse(bytes, &resp).ok());
    written.push_back(resp.id);
  });
  for (int i = 0; i < 5; ++i) ASSERT_TRUE(session.AcquireCredit());

  auto deliver = [&](uint64_t id) {
    Response resp;
    resp.id = id;
    session.Deliver(std::move(resp));
  };
  deliver(3);
  deliver(5);
  EXPECT_TRUE(written.empty());  // 1 and 2 still outstanding
  EXPECT_EQ(session.buffered(), 2u);
  deliver(1);
  EXPECT_EQ(written, (std::vector<uint64_t>{1}));
  deliver(2);  // unblocks 3
  EXPECT_EQ(written, (std::vector<uint64_t>{1, 2, 3}));
  deliver(4);  // unblocks 5
  EXPECT_EQ(written, (std::vector<uint64_t>{1, 2, 3, 4, 5}));
  EXPECT_EQ(session.buffered(), 0u);
  EXPECT_EQ(session.delivered(), 5u);
  EXPECT_EQ(session.credits(), 16u);  // all returned
}

TEST(ServeSession, CreditsBoundOutstandingRequests) {
  Session session(1, /*credits=*/2, [](std::span<const uint8_t>) {});
  EXPECT_TRUE(session.AcquireCredit());
  EXPECT_TRUE(session.AcquireCredit());
  EXPECT_FALSE(session.AcquireCredit());  // window exhausted
  Response resp;
  resp.id = 1;
  session.Deliver(std::move(resp));  // returns one credit
  EXPECT_TRUE(session.AcquireCredit());
  // A kNoCredit rejection never took a credit; delivering it with
  // return_credit=false must not mint one.
  Response reject;
  reject.id = 2;
  reject.status = WireStatus::kNoCredit;
  session.Deliver(std::move(reject), /*return_credit=*/false);
  EXPECT_EQ(session.credits(), 0u);
}

// ---------------------------------------------------------------------------
// End-to-end over the engine

constexpr uint32_t kB = 16;

class ServeEndToEndTest : public ::testing::Test {
 protected:
  ServeEndToEndTest()
      : dev_(PageSizeForBranching(kB)), pager_(&dev_, 256) {}

  void BuildTables() {
    points_ = RandomPointsAboveDiagonal(800, 2000, 11);
    auto mb = MetablockTree::Build(&pager_, points_);
    ASSERT_TRUE(mb.ok());
    metablock_.emplace(std::move(*mb));

    std::vector<BtEntry> entries;
    for (int64_t k = 0; k < 500; ++k) {
      entries.push_back({k * 3, static_cast<uint64_t>(k), -k});
    }
    auto bt = BPlusTree::BulkLoad(&pager_, entries);
    ASSERT_TRUE(bt.ok());
    btree_.emplace(std::move(*bt));

    intervals_ = RandomIntervals(600, 2000, IntervalWorkload::kUniform, 13);
    auto iv = IntervalIndex::Build(&pager_, intervals_);
    ASSERT_TRUE(iv.ok());
    interval_.emplace(std::move(*iv));

    uniform_points_ = RandomPoints(700, 2000, 17);
    auto ts = ThreeSidedTree::Build(&pager_, uniform_points_);
    ASSERT_TRUE(ts.ok());
    three_sided_.emplace(std::move(*ts));
  }

  ServeTables Tables() {
    ServeTables t;
    t.pager = &pager_;
    t.metablock = &*metablock_;
    t.btree = &*btree_;
    t.interval = &*interval_;
    t.three_sided = &*three_sided_;
    return t;
  }

  BlockDevice dev_;
  Pager pager_;
  std::vector<Point> points_;
  std::vector<Interval> intervals_;
  std::vector<Point> uniform_points_;
  std::optional<MetablockTree> metablock_;
  std::optional<BPlusTree> btree_;
  std::optional<IntervalIndex> interval_;
  std::optional<ThreeSidedTree> three_sided_;
};

// A mixed request set covering all 16 family x result-mode pairs; kLimit
// also runs with limit 0 and with a limit above every answer's size.
std::vector<Request> MixedQuerySet() {
  std::vector<Request> reqs;
  auto add = [&](RequestType type, std::array<int64_t, 3> args) {
    for (ResultMode mode : {ResultMode::kRecords, ResultMode::kCount,
                            ResultMode::kExists, ResultMode::kLimit}) {
      Request req;
      req.type = type;
      req.mode = mode;
      req.args = args;
      req.limit = mode == ResultMode::kLimit ? 5 : 0;
      reqs.push_back(req);
    }
    for (uint32_t limit : {0u, 1u << 20}) {
      Request req;
      req.type = type;
      req.mode = ResultMode::kLimit;
      req.args = args;
      req.limit = limit;
      reqs.push_back(req);
    }
  };
  for (int64_t a = 0; a <= 2000; a += 127) {
    add(RequestType::kMetablockDiagonal, {a, 0, 0});
    add(RequestType::kBtreeRange, {a, a + 400, 0});
    add(RequestType::kIntervalStab, {a, 0, 0});
    add(RequestType::kThreeSided, {a, a + 500, 300});
  }
  return reqs;
}

std::array<uint64_t, 3> WireRecord(const Point& p) {
  return {static_cast<uint64_t>(p.x), static_cast<uint64_t>(p.y), p.id};
}
std::array<uint64_t, 3> WireRecord(const BtEntry& e) {
  return {static_cast<uint64_t>(e.key), e.value, static_cast<uint64_t>(e.aux)};
}
std::array<uint64_t, 3> WireRecord(const Interval& iv) {
  return {static_cast<uint64_t>(iv.lo), static_cast<uint64_t>(iv.hi), iv.id};
}

// The answer `req` must get, computed with no serving layer: `run` feeds
// the family's result stream into the library sink the mode names.
template <typename T, typename RunFn>
void DirectAnswer(const Request& req, Response* resp, RunFn run) {
  std::vector<T> out;
  switch (req.mode) {
    case ResultMode::kRecords: {
      VectorSink<T> sink(&out);
      ASSERT_TRUE(run(&sink).ok());
      break;
    }
    case ResultMode::kLimit: {
      LimitSink<T> sink(req.limit);
      ASSERT_TRUE(run(&sink).ok());
      out = sink.results();
      break;
    }
    case ResultMode::kCount: {
      CountSink<T> sink;
      ASSERT_TRUE(run(&sink).ok());
      resp->count = sink.count();
      return;
    }
    case ResultMode::kExists: {
      ExistsSink<T> sink;
      ASSERT_TRUE(run(&sink).ok());
      resp->count = sink.exists() ? 1 : 0;
      return;
    }
  }
  resp->count = out.size();
  for (const T& r : out) resp->records.push_back(WireRecord(r));
}

TEST_F(ServeEndToEndTest, LoopbackMatchesDirectExecutionBitForBit) {
  BuildTables();
  std::vector<Request> reqs = MixedQuerySet();

  // Reference: the same descriptors run directly against the families
  // (no serving layer), materialized into wire records.
  const uint64_t pins_before = pager_.CombinedStats().pin_requests;
  std::vector<Response> expected(reqs.size());
  for (size_t i = 0; i < reqs.size(); ++i) {
    const Request& req = reqs[i];
    Response& resp = expected[i];
    resp.id = i + 1;
    switch (req.type) {
      case RequestType::kMetablockDiagonal:
        DirectAnswer<Point>(req, &resp, [&](ResultSink<Point>* sink) {
          return metablock_->Query({req.args[0]}, sink);
        });
        break;
      case RequestType::kBtreeRange:
        DirectAnswer<BtEntry>(req, &resp, [&](ResultSink<BtEntry>* sink) {
          return btree_->RangeScan(req.args[0], req.args[1], sink);
        });
        break;
      case RequestType::kIntervalStab:
        DirectAnswer<Interval>(req, &resp, [&](ResultSink<Interval>* sink) {
          return interval_->Stab(req.args[0], sink);
        });
        break;
      case RequestType::kThreeSided:
        DirectAnswer<Point>(req, &resp, [&](ResultSink<Point>* sink) {
          return three_sided_->Query({req.args[0], req.args[1], req.args[2]},
                                     sink);
        });
        break;
      default:
        FAIL() << "unexpected type";
    }
    if (HasFatalFailure()) return;
  }
  const uint64_t direct_pins =
      pager_.CombinedStats().pin_requests - pins_before;

  ServerOptions opts;
  opts.query_threads = 4;
  Server server(Tables(), opts);
  server.Start();
  LoopbackConnection conn(&server);
  // Pipeline everything, then drain: exercises out-of-order completion
  // across dispatch batches with in-order delivery.
  for (const Request& req : reqs) conn.Send(req);
  for (size_t i = 0; i < reqs.size(); ++i) {
    Response got = conn.Receive();
    EXPECT_EQ(got.id, i + 1) << "responses must arrive in id order";
    ASSERT_EQ(got.status, WireStatus::kOk) << "request " << i;
    EXPECT_EQ(got, expected[i]) << "request " << i;
  }
  server.Stop();
  EXPECT_EQ(conn.decode_errors(), 0u);
  // Every mode stops where its library sink stops, so on a cost-model
  // device serving pins exactly the pages direct execution pinned. Where
  // speculation runs, its batched pins make the count timing-dependent.
  if (pager_.speculation_budget() == 0) {
    EXPECT_EQ(pager_.CombinedStats().pin_requests - pins_before - direct_pins,
              direct_pins);
  }
  ServerStats stats = server.stats();
  EXPECT_EQ(stats.admitted, reqs.size());
  EXPECT_EQ(stats.dispatch.queries, reqs.size());
  EXPECT_EQ(stats.shed, 0u);
}

TEST_F(ServeEndToEndTest, UpdatesApplyUnderOneEpochAndAreReadBack) {
  BuildTables();
  ServerOptions opts;
  Server server(Tables(), opts);
  server.Start();
  LoopbackConnection conn(&server);

  Request upd;
  upd.type = RequestType::kUpdateBatch;
  for (int64_t k = 0; k < 64; ++k) {
    upd.updates.push_back(
        {UpdateOp::Kind::kInsert, 100000 + k, static_cast<uint64_t>(k), 0});
  }
  // Delete two rows bulk-loaded in BuildTables (keys 3k, value k).
  upd.updates.push_back({UpdateOp::Kind::kDelete, 3, 1, 0});
  upd.updates.push_back({UpdateOp::Kind::kDelete, 6, 2, 0});
  Response resp = conn.Call(upd);
  ASSERT_EQ(resp.status, WireStatus::kOk);
  EXPECT_EQ(resp.count, upd.updates.size());  // every op applied OK
  ASSERT_EQ(resp.update_status.size(), upd.updates.size());
  for (uint8_t s : resp.update_status) {
    EXPECT_EQ(s, static_cast<uint8_t>(WireStatus::kOk));
  }

  // Read back through the serving path.
  Request range;
  range.type = RequestType::kBtreeRange;
  range.args = {100000, 100000 + 63, 0};
  Response got = conn.Call(range);
  ASSERT_EQ(got.status, WireStatus::kOk);
  EXPECT_EQ(got.count, 64u);

  Request deleted;
  deleted.type = RequestType::kBtreeRange;
  deleted.mode = ResultMode::kCount;
  deleted.args = {3, 3, 0};
  got = conn.Call(deleted);
  EXPECT_EQ(got.count, 0u);
  server.Stop();
  EXPECT_EQ(server.stats().dispatch.update_ops, 66u);
}

TEST_F(ServeEndToEndTest, WalCheckpointRestartServesSameTables) {
  // Clean-restart protocol under the serving stack: serve updates with a
  // WAL attached, stop, checkpoint, and bring a second server up over
  // the same pager. The restarted server must read back exactly what the
  // first one committed, and shutdown-window pushes must land in
  // rejected_closed, not shed.
  BuildTables();
  Wal wal(&dev_, MakeMemWalStorage());
  pager_.AttachWal(&wal);  // takes the post-build baseline checkpoint

  ServerOptions opts;
  {
    Server server(Tables(), opts);
    server.Start();
    LoopbackConnection conn(&server);
    Request upd;
    upd.type = RequestType::kUpdateBatch;
    for (int64_t k = 0; k < 32; ++k) {
      upd.updates.push_back(
          {UpdateOp::Kind::kInsert, 200000 + k, static_cast<uint64_t>(k), 0});
    }
    upd.updates.push_back({UpdateOp::Kind::kDelete, 9, 3, 0});
    Response resp = conn.Call(upd);
    ASSERT_EQ(resp.status, WireStatus::kOk);
    EXPECT_EQ(resp.count, upd.updates.size());
    server.Stop();
    // Post-Stop admission: the queue is closed, so the push is refused —
    // and the refusal must not pollute the overload shed counter.
    SubmissionQueue* q = server.queue();
    Submission s;
    s.req.type = RequestType::kPing;
    EXPECT_EQ(q->TryPush(std::move(s)), Admission::kShed);
    ServerStats stats = server.stats();
    EXPECT_EQ(stats.shed, 0u);
    EXPECT_EQ(stats.rejected_closed, 1u);
  }
  ASSERT_TRUE(wal.Checkpoint(&pager_).ok());
  EXPECT_GT(wal.commits(), 0u);
  EXPECT_GE(wal.checkpoints(), 2u);  // attach baseline + explicit

  Server server2(Tables(), opts);
  server2.Start();
  LoopbackConnection conn2(&server2);
  Request range;
  range.type = RequestType::kBtreeRange;
  range.mode = ResultMode::kCount;
  range.args = {200000, 200000 + 31, 0};
  Response got = conn2.Call(range);
  ASSERT_EQ(got.status, WireStatus::kOk);
  EXPECT_EQ(got.count, 32u);
  Request deleted;
  deleted.type = RequestType::kBtreeRange;
  deleted.mode = ResultMode::kCount;
  deleted.args = {9, 9, 0};
  got = conn2.Call(deleted);
  ASSERT_EQ(got.status, WireStatus::kOk);
  EXPECT_EQ(got.count, 0u);
  server2.Stop();
  EXPECT_EQ(server2.stats().rejected_closed, 0u);
}

TEST_F(ServeEndToEndTest, AbsentTableAnswersBadRequestNotCrash) {
  BuildTables();
  ServeTables tables = Tables();
  tables.interval = nullptr;
  Server server(tables, ServerOptions{});
  server.Start();
  LoopbackConnection conn(&server);
  Request stab;
  stab.type = RequestType::kIntervalStab;
  stab.args = {100, 0, 0};
  Response resp = conn.Call(stab);
  EXPECT_EQ(resp.status, WireStatus::kBadRequest);
  // The server keeps serving the families it has.
  Request ping;
  EXPECT_EQ(conn.Call(ping).status, WireStatus::kOk);
  server.Stop();
}

TEST_F(ServeEndToEndTest, ExpiredDeadlineAnswersWithoutExecuting) {
  BuildTables();
  ServerOptions opts;
  Server server(Tables(), opts);
  LoopbackConnection conn(&server);
  // Dispatcher not started: submissions sit in the queue past their
  // deadline, then Start() drains them — all must answer
  // kDeadlineExceeded without touching the engine.
  Request req;
  req.type = RequestType::kBtreeRange;
  req.args = {0, 10000, 0};
  req.deadline_us = 1;
  for (int i = 0; i < 8; ++i) conn.Send(req);
  std::this_thread::sleep_for(milliseconds(20));
  server.Start();
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(conn.Receive().status, WireStatus::kDeadlineExceeded);
  }
  server.Stop();
  ServerStats stats = server.stats();
  EXPECT_EQ(stats.deadline_dropped, 8u);
  EXPECT_EQ(stats.dispatch.queries, 0u);
}

TEST_F(ServeEndToEndTest, OverloadShedsAndBoundsAcceptedBacklog) {
  BuildTables();
  ServerOptions opts;
  opts.queue_capacity = 64;
  opts.high_watermark = 32;
  Server server(Tables(), opts);
  LoopbackConnection conn(&server);
  // Dispatcher stopped: every admitted request queues, so pushing far
  // past the high watermark must shed the excess immediately (shed,
  // don't collapse) and bound the backlog at the watermark.
  Request req;
  req.type = RequestType::kMetablockDiagonal;
  req.mode = ResultMode::kExists;
  req.args = {500, 0, 0};
  constexpr int kOffered = 200;
  for (int i = 0; i < kOffered; ++i) conn.Send(req);
  ServerStats stats = server.stats();
  EXPECT_EQ(stats.admitted, 32u);  // exactly the high watermark
  EXPECT_EQ(stats.shed, static_cast<uint64_t>(kOffered) - 32u);
  EXPECT_EQ(stats.queue_slots, 32u);  // the ring holds the backlog, no more
  // Rejections are answered immediately, in order, kOverloaded.
  server.Start();
  int ok = 0;
  int overloaded = 0;
  for (int i = 0; i < kOffered; ++i) {
    Response resp = conn.Receive();
    if (resp.status == WireStatus::kOk) {
      ++ok;
    } else {
      ASSERT_EQ(resp.status, WireStatus::kOverloaded);
      ++overloaded;
    }
  }
  EXPECT_EQ(ok, 32);
  EXPECT_EQ(overloaded, kOffered - 32);
  server.Stop();
}

TEST_F(ServeEndToEndTest, TcpRoundTrip) {
  BuildTables();
  ServerOptions opts;
  Server server(Tables(), opts);
  server.Start();
  TcpServerTransport transport(&server);
  Status st = transport.Start();
  if (!st.ok()) {
    GTEST_SKIP() << "sockets unavailable: " << st.message();
  }
  TcpClient client;
  ASSERT_TRUE(client.Connect(transport.port()).ok());
  // Pipeline a mixed window through the real socket.
  std::vector<Request> reqs;
  for (int64_t a = 0; a <= 2000; a += 401) {
    Request req;
    req.type = RequestType::kMetablockDiagonal;
    req.args = {a, 0, 0};
    reqs.push_back(req);
    req = {};
    req.type = RequestType::kBtreeRange;
    req.mode = ResultMode::kCount;
    req.args = {a, a + 300, 0};
    reqs.push_back(req);
  }
  for (const Request& req : reqs) ASSERT_NE(client.Send(req), 0u);
  for (size_t i = 0; i < reqs.size(); ++i) {
    Response resp;
    ASSERT_TRUE(client.Receive(&resp).ok());
    EXPECT_EQ(resp.id, i + 1);
    EXPECT_EQ(resp.status, WireStatus::kOk);
    // Cross-check one family against direct execution.
    if (reqs[i].type == RequestType::kMetablockDiagonal) {
      std::vector<Point> direct;
      VectorSink<Point> sink(&direct);
      ASSERT_TRUE(metablock_->Query({reqs[i].args[0]}, &sink).ok());
      EXPECT_EQ(resp.count, direct.size());
    }
  }
  client.Close();
  transport.Stop();
  server.Stop();
  EXPECT_EQ(transport.accepted(), 1u);
}

// Streams the entries {k, k, 0} for k in [0, n) a block at a time, so a
// multi-million-entry bulk load needs no input vector.
class SequentialEntries final : public RecordStream<BtEntry> {
 public:
  explicit SequentialEntries(int64_t n) : n_(n) {}

  Result<std::span<const BtEntry>> Next() override {
    block_.clear();
    for (; next_ < n_ && block_.size() < 4096; ++next_) {
      block_.push_back({next_, static_cast<uint64_t>(next_), 0});
    }
    return std::span<const BtEntry>(block_);
  }

 private:
  const int64_t n_;
  int64_t next_ = 0;
  std::vector<BtEntry> block_;
};

TEST(ServeOversize, AnswerAboveFrameCapIsErrorAndStreamSurvives) {
  // One record more than a response frame carries: encoded, the answer
  // would exceed kMaxPayloadBytes and the client could not decode it.
  // The server must answer kError with no records instead, and the
  // session's later responses must still arrive.
  const int64_t n = static_cast<int64_t>(kMaxResponseRecords) + 1;
  BlockDevice dev(PageSizeForBranching(64));
  Pager pager(&dev, 64);
  SequentialEntries entries(n);
  auto btree = BPlusTree::BulkLoad(&pager, &entries);
  ASSERT_TRUE(btree.ok());
  ServeTables tables;
  tables.pager = &pager;
  tables.btree = &*btree;
  Server server(tables, ServerOptions{});
  server.Start();
  LoopbackConnection conn(&server);

  Request all;
  all.type = RequestType::kBtreeRange;
  all.args = {0, n - 1, 0};
  conn.Send(all);
  Request limited = all;
  limited.mode = ResultMode::kLimit;
  limited.limit = static_cast<uint32_t>(n);
  conn.Send(limited);
  Request count = all;
  count.mode = ResultMode::kCount;
  conn.Send(count);
  conn.Send(Request{});  // ping
  // Stop drains the queue, so every response has been delivered (or
  // dropped by the client's decoder) once it returns.
  server.Stop();

  std::vector<Response> got;
  for (Response r; conn.TryReceive(&r);) got.push_back(std::move(r));
  EXPECT_EQ(conn.decode_errors(), 0u);
  ASSERT_EQ(got.size(), 4u);
  for (size_t i = 0; i < got.size(); ++i) EXPECT_EQ(got[i].id, i + 1);
  for (size_t i : {0, 1}) {
    EXPECT_EQ(got[i].status, WireStatus::kError) << "request " << i + 1;
    EXPECT_EQ(got[i].count, 0u);
    EXPECT_TRUE(got[i].records.empty());
  }
  EXPECT_EQ(got[2].status, WireStatus::kOk);
  EXPECT_EQ(got[2].count, static_cast<uint64_t>(n));
  EXPECT_EQ(got[3].status, WireStatus::kOk);
}

}  // namespace
}  // namespace serve
}  // namespace ccidx
