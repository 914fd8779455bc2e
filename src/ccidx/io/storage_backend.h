// StorageBackend: pluggable byte storage behind BlockDevice (DESIGN.md §10).
//
// The paper's cost model lives entirely in BlockDevice: transfer counters,
// fault injection, the allocation table, and latency injection are all
// front-end concerns and are bit-identical across backends. A backend only
// moves page-sized byte ranges:
//
//   * mem  — the historical in-memory simulator (default), sparse: a
//            page's heap storage (stable address) is allocated at its
//            first write; until then, and again after ZeroPage, the page
//            has no storage and reads as zeros.
//   * file — a real file (pread/pwrite), O_DIRECT where the page size
//            permits it. Exists so the full test suite can replay against
//            real kernel I/O paths.
//
// A backend moves one page per call; BlockDevice::ReadBatch issues a
// batch's pages in turn and counts it as one device round.
//
// Locking discipline is inherited from BlockDevice and is part of this
// contract: EnsureCapacity / ZeroPage are invoked only under the device's
// exclusive lock; ReadPage / WritePage under its shared lock,
// concurrently, but never two writers (or a writer and a reader) of the
// same page. Backends therefore need no locking of their own: a write
// under the shared lock touches only its own page's state (for mem, the
// page's slot, allocated on first write).

#ifndef CCIDX_IO_STORAGE_BACKEND_H_
#define CCIDX_IO_STORAGE_BACKEND_H_

#include <cstdint>
#include <memory>
#include <string>

#include "ccidx/common/status.h"

namespace ccidx {

/// Identifier of a page on the device.
using PageId = uint64_t;

/// Sentinel for "no page".
inline constexpr PageId kInvalidPageId = ~static_cast<PageId>(0);

/// One entry of a batch read (BlockDevice::ReadBatch): fill
/// `out[0, page_size)` from page `id`.
/// The caller owns the buffer and keeps it alive across the call.
struct PageReadRequest {
  PageId id = kInvalidPageId;
  uint8_t* out = nullptr;
};

/// Byte-moving interface implemented by each storage backend. All page ids
/// passed in have been validated (allocated, in range) by BlockDevice.
class StorageBackend {
 public:
  virtual ~StorageBackend() = default;

  /// Short stable label ("mem", "file") for logs and the
  /// per-line `backend` field in benchmark JSON.
  virtual const char* name() const = 0;

  /// True when transfers leave the process (real kernel I/O): overlap pays
  /// even without injected latency, so the pager enables speculation.
  virtual bool real_io() const = 0;

  /// Grows the store so pages [0, num_pages) are addressable; new pages
  /// read as zeros (mem allocates no page storage here). Called under the
  /// device's exclusive lock.
  virtual Status EnsureCapacity(uint64_t num_pages) = 0;

  /// Makes one existing page read as zeros (free-list reuse, or a page
  /// re-covered after RestoreAllocation); mem frees its storage.
  /// Exclusive lock.
  virtual Status ZeroPage(PageId id) = 0;

  /// Copies one page into `out` (exactly page_size bytes). Shared lock.
  virtual Status ReadPage(PageId id, uint8_t* out) = 0;

  /// Overwrites one page from `in` (exactly page_size bytes); mem
  /// allocates the page's storage on its first write. Shared lock.
  virtual Status WritePage(PageId id, const uint8_t* in) = 0;

  /// Durability barrier: returns once previously written pages are on
  /// stable storage (fdatasync for the file backend). The WAL's commit
  /// protocol (DESIGN.md §13) calls this between forcing a transaction's
  /// data pages and appending its commit record. No-op for memory.
  virtual Status SyncData() { return Status::OK(); }
};

/// The historical in-memory simulator.
std::unique_ptr<StorageBackend> MakeMemStorageBackend(uint32_t page_size);

/// File-backed storage in `dir` (an anonymous unlinked temp file; empty
/// dir means $TMPDIR or /tmp). Attempts O_DIRECT when page_size is a
/// multiple of 4096.
Result<std::unique_ptr<StorageBackend>> MakeFileStorageBackend(
    uint32_t page_size, const std::string& dir);

}  // namespace ccidx

#endif  // CCIDX_IO_STORAGE_BACKEND_H_
