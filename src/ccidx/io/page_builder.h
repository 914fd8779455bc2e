// Page serialization helpers: explicit, pointer-free on-page layouts.
//
// Pages are raw byte buffers; structures define POD record layouts and use
// PageWriter / PageReader for bounds-checked sequential encoding, plus
// PageIo for whole-record array pages (the common case: a block of B
// records preceded by a small header). All helpers operate on pinned
// buffer-pool views (Pager::Pin/PinMut) — there is no per-access scratch
// copy anywhere on these paths.

#ifndef CCIDX_IO_PAGE_BUILDER_H_
#define CCIDX_IO_PAGE_BUILDER_H_

#include <cstdint>
#include <cstring>
#include <span>
#include <type_traits>
#include <vector>

#include "ccidx/common/status.h"
#include "ccidx/io/pager.h"

namespace ccidx {

/// Sequentially appends POD values into a fixed-size page buffer.
class PageWriter {
 public:
  explicit PageWriter(std::span<uint8_t> buf) : buf_(buf), offset_(0) {}

  template <typename T>
  void Put(const T& value) {
    static_assert(std::is_trivially_copyable_v<T>);
    CCIDX_CHECK(offset_ + sizeof(T) <= buf_.size());
    std::memcpy(buf_.data() + offset_, &value, sizeof(T));
    offset_ += sizeof(T);
  }

  template <typename T>
  void PutArray(std::span<const T> values) {
    static_assert(std::is_trivially_copyable_v<T>);
    if (values.empty()) return;  // empty spans may carry a null data()
    size_t bytes = values.size() * sizeof(T);
    CCIDX_CHECK(offset_ + bytes <= buf_.size());
    std::memcpy(buf_.data() + offset_, values.data(), bytes);
    offset_ += bytes;
  }

  size_t offset() const { return offset_; }
  size_t remaining() const { return buf_.size() - offset_; }

 private:
  std::span<uint8_t> buf_;
  size_t offset_;
};

/// Sequentially decodes POD values from a page buffer.
class PageReader {
 public:
  explicit PageReader(std::span<const uint8_t> buf) : buf_(buf), offset_(0) {}

  template <typename T>
  T Get() {
    static_assert(std::is_trivially_copyable_v<T>);
    CCIDX_CHECK(offset_ + sizeof(T) <= buf_.size());
    T value;
    std::memcpy(&value, buf_.data() + offset_, sizeof(T));
    offset_ += sizeof(T);
    return value;
  }

  template <typename T>
  void GetArray(std::span<T> out) {
    static_assert(std::is_trivially_copyable_v<T>);
    if (out.empty()) return;  // empty spans may carry a null data()
    size_t bytes = out.size() * sizeof(T);
    CCIDX_CHECK(offset_ + bytes <= buf_.size());
    std::memcpy(out.data(), buf_.data() + offset_, bytes);
    offset_ += bytes;
  }

  size_t offset() const { return offset_; }

 private:
  std::span<const uint8_t> buf_;
  size_t offset_;
};

/// Typed zero-copy view of a record array inside a pinned page. The records
/// are read in place from the buffer-pool frame; no deserialization copy is
/// made. Alignment is guaranteed because frames are allocator-aligned and
/// every on-page record array starts at an 8-byte-aligned offset.
template <typename Record>
std::span<const Record> ViewArray(const PageRef& ref, size_t offset,
                                  size_t count) {
  static_assert(std::is_trivially_copyable_v<Record>);
  std::span<const uint8_t> bytes = ref.data();
  CCIDX_CHECK(offset + count * sizeof(Record) <= bytes.size());
  CCIDX_CHECK(reinterpret_cast<uintptr_t>(bytes.data() + offset) %
                  alignof(Record) ==
              0);
  return {reinterpret_cast<const Record*>(bytes.data() + offset), count};
}

/// Whole-page helpers for the ubiquitous layout
///   [u32 count][u64 next_page][count * Record]
/// used by every blocked organization in the library (vertical/horizontal
/// blockings, TS structures, leaf chains).
class PageIo {
 public:
  explicit PageIo(Pager* pager) : pager_(pager) {}

  /// Max records of width `record_size` a page can hold under this layout.
  uint32_t CapacityFor(size_t record_size) const {
    return static_cast<uint32_t>((pager_->page_size() - kHeaderSize) /
                                 record_size);
  }

  /// A pinned record-array page: the record span aliases the buffer-pool
  /// frame and stays valid while `ref` is held.
  template <typename Record>
  struct RecordView {
    PageRef ref;
    std::span<const Record> records;
    PageId next = kInvalidPageId;
  };

  /// Pins one record-array page and returns a zero-copy view of it.
  template <typename Record>
  Result<RecordView<Record>> ViewRecords(PageId id) {
    auto ref = pager_->Pin(id);
    CCIDX_RETURN_IF_ERROR(ref.status());
    PageReader r(ref->data());
    uint32_t count = r.Get<uint32_t>();
    r.Get<uint32_t>();
    PageId next = r.Get<uint64_t>();
    CCIDX_CHECK(count <= CapacityFor(sizeof(Record)));
    RecordView<Record> view;
    view.records = ViewArray<Record>(*ref, kHeaderSize, count);
    view.next = next;
    view.ref = std::move(*ref);
    return view;
  }

  /// Writes one record-array page in place through a mutable pin.
  /// `records.size()` must fit.
  template <typename Record>
  Status WriteRecords(PageId id, std::span<const Record> records,
                      PageId next = kInvalidPageId) {
    CCIDX_CHECK(records.size() <= CapacityFor(sizeof(Record)));
    auto ref = pager_->PinMut(id, Pager::MutMode::kOverwrite);
    CCIDX_RETURN_IF_ERROR(ref.status());
    PageWriter w(ref->data());
    w.Put<uint32_t>(static_cast<uint32_t>(records.size()));
    w.Put<uint32_t>(0);  // reserved / alignment
    w.Put<uint64_t>(next);
    w.PutArray(records);
    // kOverwrite pins start zero-filled: no tail memset needed.
    return ref->Release();
  }

  /// Reads one record-array page; appends records to `out`, returns next id.
  template <typename Record>
  Result<PageId> ReadRecords(PageId id, std::vector<Record>* out) {
    auto view = ViewRecords<Record>(id);
    CCIDX_RETURN_IF_ERROR(view.status());
    out->insert(out->end(), view->records.begin(), view->records.end());
    return view->next;
  }

  /// Writes `records` across as many pages as needed (allocating them),
  /// chaining via the next pointer. Returns the ids, in order.
  template <typename Record>
  Result<std::vector<PageId>> WriteChain(std::span<const Record> records) {
    uint32_t cap = CapacityFor(sizeof(Record));
    CCIDX_CHECK(cap > 0);
    size_t num_pages = records.empty() ? 0 : (records.size() + cap - 1) / cap;
    std::vector<PageId> ids(num_pages);
    for (size_t i = 0; i < num_pages; ++i) ids[i] = pager_->Allocate();
    for (size_t i = 0; i < num_pages; ++i) {
      size_t begin = i * cap;
      size_t end = std::min(records.size(), begin + cap);
      PageId next = (i + 1 < num_pages) ? ids[i + 1] : kInvalidPageId;
      CCIDX_RETURN_IF_ERROR(WriteRecords<Record>(
          ids[i], records.subspan(begin, end - begin), next));
    }
    return ids;
  }

  /// Reads an entire chain starting at `head` into `out`.
  template <typename Record>
  Status ReadChain(PageId head, std::vector<Record>* out) {
    PageId id = head;
    while (id != kInvalidPageId) {
      auto view = ViewRecords<Record>(id);
      CCIDX_RETURN_IF_ERROR(view.status());
      out->insert(out->end(), view->records.begin(), view->records.end());
      id = view->next;
    }
    return Status::OK();
  }

  /// Appends every page id of a chain to `out` without freeing — the
  /// read-only half of FreeChain. Fault-atomic rebuilds enumerate the old
  /// structure's pages up front (reads may fail, nothing is mutated),
  /// build the replacement, and only then free the collected ids, which
  /// requires no device transfer and so cannot fail mid-way.
  Status VisitChain(PageId head, std::vector<PageId>* out) {
    PageId id = head;
    while (id != kInvalidPageId) {
      out->push_back(id);
      auto ref = pager_->Pin(id);
      CCIDX_RETURN_IF_ERROR(ref.status());
      PageReader r(ref->data());
      r.Get<uint32_t>();
      r.Get<uint32_t>();
      id = r.Get<uint64_t>();
    }
    return Status::OK();
  }

  /// Frees every page of a chain.
  Status FreeChain(PageId head) {
    PageId id = head;
    while (id != kInvalidPageId) {
      PageId next;
      {
        auto ref = pager_->Pin(id);
        CCIDX_RETURN_IF_ERROR(ref.status());
        PageReader r(ref->data());
        r.Get<uint32_t>();
        r.Get<uint32_t>();
        next = r.Get<uint64_t>();
        // The pin must be released before Free: freeing a pinned page is a
        // checked error.
      }
      CCIDX_RETURN_IF_ERROR(pager_->Free(id));
      id = next;
    }
    return Status::OK();
  }

  static constexpr size_t kHeaderSize = 16;

 private:
  Pager* pager_;
};

}  // namespace ccidx

#endif  // CCIDX_IO_PAGE_BUILDER_H_
