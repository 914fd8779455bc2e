#include "ccidx/io/storage_backend.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <vector>

namespace ccidx {

namespace {

// ---------------------------------------------------------------------------
// mem: the historical in-memory simulator, sparse. A slot holds no storage
// until its page's first write; a null slot reads as zeros. unique_ptr
// gives stable data addresses, and the slot vector grows only under the
// device's exclusive lock (EnsureCapacity), so concurrent transfers of
// distinct pages under the shared lock are safe — a first write fills its
// own slot, which no other transfer touches.
// ---------------------------------------------------------------------------

class MemStorageBackend final : public StorageBackend {
 public:
  explicit MemStorageBackend(uint32_t page_size) : page_size_(page_size) {}

  const char* name() const override { return "mem"; }
  bool real_io() const override { return false; }

  Status EnsureCapacity(uint64_t num_pages) override {
    if (pages_.size() < num_pages) pages_.resize(num_pages);
    return Status::OK();
  }

  Status ZeroPage(PageId id) override {
    CCIDX_CHECK(id < pages_.size());
    pages_[id].reset();
    return Status::OK();
  }

  Status ReadPage(PageId id, uint8_t* out) override {
    CCIDX_CHECK(id < pages_.size());
    if (pages_[id] == nullptr) {
      std::memset(out, 0, page_size_);
    } else {
      std::memcpy(out, pages_[id].get(), page_size_);
    }
    return Status::OK();
  }

  Status WritePage(PageId id, const uint8_t* in) override {
    CCIDX_CHECK(id < pages_.size());
    if (pages_[id] == nullptr) {
      pages_[id] = std::make_unique_for_overwrite<uint8_t[]>(page_size_);
    }
    std::memcpy(pages_[id].get(), in, page_size_);
    return Status::OK();
  }

 private:
  uint32_t page_size_;
  std::vector<std::unique_ptr<uint8_t[]>> pages_;
};

// ---------------------------------------------------------------------------
// file: a real (anonymous, unlinked) file accessed with pread/pwrite.
// ---------------------------------------------------------------------------

// O_DIRECT alignment unit: buffers, offsets and sizes must be multiples of
// the logical block size; 4096 is safe on every modern device.
constexpr size_t kDirectAlign = 4096;

std::string PickDir(const std::string& dir) {
  if (!dir.empty()) return dir;
  if (const char* env = std::getenv("CCIDX_DEVICE_DIR")) {
    if (*env != '\0') return env;
  }
  if (const char* env = std::getenv("TMPDIR")) {
    if (*env != '\0') return env;
  }
  return "/tmp";
}

class FileStorageBackend final : public StorageBackend {
 public:
  FileStorageBackend(int fd, uint32_t page_size, bool direct)
      : fd_(fd), page_size_(page_size), direct_(direct) {
    if (direct_) {
      zero_buf_ = static_cast<uint8_t*>(
          std::aligned_alloc(kDirectAlign, page_size_));
    } else {
      zero_buf_ = static_cast<uint8_t*>(std::malloc(page_size_));
    }
    CCIDX_CHECK(zero_buf_ != nullptr);
    std::memset(zero_buf_, 0, page_size_);
  }

  ~FileStorageBackend() override {
    std::free(zero_buf_);
    ::close(fd_);
  }

  const char* name() const override { return "file"; }
  bool real_io() const override { return true; }

  Status EnsureCapacity(uint64_t num_pages) override {
    uint64_t bytes = num_pages * static_cast<uint64_t>(page_size_);
    if (bytes <= file_bytes_) return Status::OK();
    // ftruncate extension reads back as zeros, matching the simulator's
    // zero-filled fresh pages.
    if (::ftruncate(fd_, static_cast<off_t>(bytes)) != 0) {
      return Status::IoError("ftruncate failed: " +
                             std::string(std::strerror(errno)));
    }
    file_bytes_ = bytes;
    return Status::OK();
  }

  Status ZeroPage(PageId id) override {
    return WritePage(id, zero_buf_);
  }

  Status ReadPage(PageId id, uint8_t* out) override {
    if (NeedsBounce(out)) {
      AlignedBuf buf = MakeAligned();
      CCIDX_RETURN_IF_ERROR(PreadFull(buf.get(), Offset(id)));
      std::memcpy(out, buf.get(), page_size_);
      return Status::OK();
    }
    return PreadFull(out, Offset(id));
  }

  Status WritePage(PageId id, const uint8_t* in) override {
    if (NeedsBounce(in)) {
      AlignedBuf buf = MakeAligned();
      std::memcpy(buf.get(), in, page_size_);
      return PwriteFull(buf.get(), Offset(id));
    }
    return PwriteFull(in, Offset(id));
  }

  Status SyncData() override {
    if (::fdatasync(fd_) != 0) {
      return Status::IoError("fdatasync failed: " +
                             std::string(std::strerror(errno)));
    }
    return Status::OK();
  }

 private:
  struct FreeDeleter {
    void operator()(uint8_t* p) const { std::free(p); }
  };
  using AlignedBuf = std::unique_ptr<uint8_t, FreeDeleter>;

  AlignedBuf MakeAligned() const {
    auto* p =
        static_cast<uint8_t*>(std::aligned_alloc(kDirectAlign, page_size_));
    CCIDX_CHECK(p != nullptr);
    return AlignedBuf(p);
  }

  bool NeedsBounce(const void* p) const {
    return direct_ &&
           (reinterpret_cast<uintptr_t>(p) % kDirectAlign) != 0;
  }

  off_t Offset(PageId id) const {
    return static_cast<off_t>(id * static_cast<uint64_t>(page_size_));
  }

  Status PreadFull(uint8_t* dst, off_t off) {
    size_t done = 0;
    while (done < page_size_) {
      ssize_t n = ::pread(fd_, dst + done, page_size_ - done,
                          off + static_cast<off_t>(done));
      if (n < 0) {
        if (errno == EINTR) continue;
        return Status::IoError("pread failed: " +
                               std::string(std::strerror(errno)));
      }
      if (n == 0) {
        return Status::IoError("pread hit EOF inside a page");
      }
      done += static_cast<size_t>(n);
    }
    return Status::OK();
  }

  Status PwriteFull(const uint8_t* src, off_t off) {
    size_t done = 0;
    while (done < page_size_) {
      ssize_t n = ::pwrite(fd_, src + done, page_size_ - done,
                           off + static_cast<off_t>(done));
      if (n < 0) {
        if (errno == EINTR) continue;
        return Status::IoError("pwrite failed: " +
                               std::string(std::strerror(errno)));
      }
      done += static_cast<size_t>(n);
    }
    return Status::OK();
  }

  int fd_;
  uint32_t page_size_;
  bool direct_;
  uint64_t file_bytes_ = 0;
  uint8_t* zero_buf_ = nullptr;
};

// Opens an anonymous temp file in `dir`: O_TMPFILE when the filesystem
// supports it, else mkstemp + unlink. Returns -1 on failure.
int OpenAnonFile(const std::string& dir, bool direct) {
  int flags = O_RDWR | O_CLOEXEC | (direct ? O_DIRECT : 0);
  int fd = -1;
#if defined(O_TMPFILE)
  fd = ::open(dir.c_str(), flags | O_TMPFILE, 0600);
  if (fd >= 0) return fd;
#endif
  std::string tmpl = dir + "/ccidx-device-XXXXXX";
  std::vector<char> buf(tmpl.begin(), tmpl.end());
  buf.push_back('\0');
  fd = ::mkstemp(buf.data());
  if (fd < 0) return -1;
  ::unlink(buf.data());
  if (direct && ::fcntl(fd, F_SETFL, O_DIRECT) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

}  // namespace

std::unique_ptr<StorageBackend> MakeMemStorageBackend(uint32_t page_size) {
  return std::make_unique<MemStorageBackend>(page_size);
}

Result<std::unique_ptr<StorageBackend>> MakeFileStorageBackend(
    uint32_t page_size, const std::string& dir) {
  std::string d = PickDir(dir);
  // O_DIRECT where available: only meaningful when pages are multiples of
  // the alignment unit; fall back to buffered I/O when the open is refused
  // (e.g. tmpfs rejects O_DIRECT).
  bool direct = page_size % kDirectAlign == 0;
  int fd = direct ? OpenAnonFile(d, /*direct=*/true) : -1;
  if (fd < 0) {
    direct = false;
    fd = OpenAnonFile(d, /*direct=*/false);
  }
  if (fd < 0) {
    return Status::IoError("cannot create device file in '" + d +
                           "': " + std::string(std::strerror(errno)));
  }
  return std::unique_ptr<StorageBackend>(
      std::make_unique<FileStorageBackend>(fd, page_size, direct));
}

}  // namespace ccidx
