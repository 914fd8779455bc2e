// Wire protocol for the serving front-end (DESIGN.md §12).
//
// Every message is one length-prefixed binary frame:
//
//   [magic u32 = 0x43435251 "CCRQ"] [version u8] [kind u8] [flags u16]
//   [payload_len u32] [payload ...]
//
// The payload is a Request or a Response (kind distinguishes them),
// encoded little-endian with fixed-width fields (codec.h). Frames are
// self-delimiting, so a byte stream (TCP) reassembles with no lookahead
// beyond the 12-byte header, and a datagram-ish transport (loopback)
// passes one frame per call. All integers little-endian; records are
// fixed 24-byte triples, so a response's record count is implied by its
// payload length and cross-checked by the codec.
//
// Request descriptors cover the engine's serving families (the paper's
// query shapes): metablock diagonal corner queries, B+-tree range scans,
// interval stabbing, 3-sided range reporting — each in full-report,
// count, exists and top-k (limit) result modes — plus batched updates
// (B+-tree insert/delete ops applied through UpdateExecutor under one
// write epoch). Requests carry a per-session id (monotone from 1; the
// session delivers responses in id order) and a relative deadline in
// microseconds (0 = none) that the queue enforces at dequeue.

#ifndef CCIDX_SERVE_FRAME_H_
#define CCIDX_SERVE_FRAME_H_

#include <array>
#include <cstdint>
#include <vector>

namespace ccidx {
namespace serve {

inline constexpr uint32_t kFrameMagic = 0x43435251u;  // "CCRQ"
inline constexpr uint8_t kWireVersion = 1;
/// Header bytes before the payload: magic, version, kind, flags, length.
inline constexpr size_t kFrameHeaderBytes = 12;
/// Hard ceiling on one frame's payload; a decoder rejects larger lengths
/// before allocating (a corrupt length field must not OOM the server).
inline constexpr uint32_t kMaxPayloadBytes = 1u << 26;  // 64 MiB
/// Most records one response frame can carry: a query response's payload
/// is 25 fixed bytes plus 24 per record. The dispatcher answers a larger
/// kRecords/kLimit answer with kError and no records; read such a range
/// with kCount, or with a kLimit below this cap.
inline constexpr size_t kMaxResponseRecords = (kMaxPayloadBytes - 25) / 24;

enum class MessageKind : uint8_t {
  kRequest = 1,
  kResponse = 2,
};

/// Query / update family selector.
enum class RequestType : uint8_t {
  kPing = 0,              // liveness; responds kOk with count = 0
  kMetablockDiagonal = 1, // DiagonalQuery{a}           -> Point records
  kBtreeRange = 2,        // RangeScan[arg0, arg1]      -> BtEntry records
  kIntervalStab = 3,      // Stab(arg0)                 -> Interval records
  kThreeSided = 4,        // {xlo=arg0,xhi=arg1,ylo=arg2} -> Point records
  kUpdateBatch = 5,       // ops applied to the B+-tree under a write epoch
};
inline constexpr uint8_t kMaxRequestType =
    static_cast<uint8_t>(RequestType::kUpdateBatch);

/// How a query's result stream is materialized. The dispatcher serves all
/// four modes from one sink whose verdicts match VectorSink / CountSink /
/// ExistsSink / LimitSink, so each mode pins the pages its library sink
/// would.
enum class ResultMode : uint8_t {
  kRecords = 0,  // full reporting
  kCount = 1,    // count only (response.count)
  kExists = 2,   // 0/1 in response.count; O(log_B n) early-stop
  kLimit = 3,    // first `limit` records (top-k early-stop)
};
inline constexpr uint8_t kMaxResultMode =
    static_cast<uint8_t>(ResultMode::kLimit);

/// Response status on the wire. Distinct from ccidx::Status: admission
/// outcomes (kOverloaded, kDeadlineExceeded, kNoCredit) are serving-layer
/// verdicts that never reach the engine.
enum class WireStatus : uint8_t {
  kOk = 0,
  kOverloaded = 1,        // shed at the submission queue's high watermark
  kDeadlineExceeded = 2,  // expired before dispatch; dropped at dequeue
  kNoCredit = 3,          // session's flow-control window exhausted
  kBadRequest = 4,        // malformed frame / unknown type / bad operands
  kError = 5,             // engine Status failure during execution
};

/// One update operation inside a kUpdateBatch request.
struct UpdateOp {
  enum class Kind : uint8_t { kInsert = 0, kDelete = 1 };
  Kind kind = Kind::kInsert;
  int64_t key = 0;
  uint64_t value = 0;
  int64_t aux = 0;

  bool operator==(const UpdateOp&) const = default;
};

/// A decoded request. `args` are the family operands (see RequestType);
/// unused slots are 0 on the wire.
struct Request {
  uint64_t id = 0;  // per-session sequence, monotone from 1
  RequestType type = RequestType::kPing;
  ResultMode mode = ResultMode::kRecords;
  uint32_t limit = 0;        // for ResultMode::kLimit
  uint32_t deadline_us = 0;  // relative to admission; 0 = none
  std::array<int64_t, 3> args{0, 0, 0};
  std::vector<UpdateOp> updates;  // kUpdateBatch only

  bool operator==(const Request&) const = default;
};

/// A decoded response. Records are 24-byte triples whose meaning follows
/// the request family: Point{x,y,id}, BtEntry{key,value,aux} or
/// Interval{lo,hi,id} — three 64-bit words either way, so one response
/// shape serves every family bit-exactly. For kUpdateBatch,
/// `update_status` carries one WireStatus per op (kOk / kError) and
/// `count` the number applied OK; for kCount/kExists, `count` is the
/// answer; for kRecords/kLimit, count == records.size().
struct Response {
  uint64_t id = 0;
  WireStatus status = WireStatus::kOk;
  uint64_t count = 0;
  std::vector<std::array<uint64_t, 3>> records;
  std::vector<uint8_t> update_status;

  bool operator==(const Response&) const = default;
};

}  // namespace serve
}  // namespace ccidx

#endif  // CCIDX_SERVE_FRAME_H_
