#include "ccidx/io/block_device.h"

#include <chrono>
#include <cstdlib>
#include <cstring>
#include <thread>

namespace ccidx {

BlockDeviceOptions DeviceOptionsFromEnv() {
  BlockDeviceOptions opt;
  if (const char* env = std::getenv("CCIDX_DEVICE")) {
    if (*env != '\0') opt.backend = env;
  }
  if (const char* env = std::getenv("CCIDX_DEVICE_DIR")) {
    opt.dir = env;
  }
  if (const char* env = std::getenv("CCIDX_DEVICE_LATENCY_US")) {
    long v = std::strtol(env, nullptr, 10);
    if (v > 0) opt.read_latency_us = static_cast<uint32_t>(v);
  }
  return opt;
}

BlockDevice::BlockDevice(uint32_t page_size)
    : BlockDevice(page_size, DeviceOptionsFromEnv()) {}

BlockDevice::BlockDevice(uint32_t page_size,
                         const BlockDeviceOptions& options)
    : page_size_(page_size), latency_us_(options.read_latency_us) {
  CCIDX_CHECK(page_size_ >= 16);
  if (options.backend == "file") {
    auto backend = MakeFileStorageBackend(page_size_, options.dir);
    // A requested-but-unavailable file backend must not silently degrade
    // to mem: CI's file-backend job would pass without testing anything.
    CCIDX_CHECK(backend.ok());
    backend_ = std::move(backend).value();
  } else {
    CCIDX_CHECK(options.backend == "mem");
    backend_ = MakeMemStorageBackend(page_size_);
  }
}

void BlockDevice::InjectReadLatency() const {
  if (latency_us_ == 0) return;
  std::this_thread::sleep_for(std::chrono::microseconds(latency_us_));
}

PageId BlockDevice::Allocate() {
  std::unique_lock lock(mu_);
  pages_allocated_.fetch_add(1, std::memory_order_relaxed);
  if (!free_list_.empty()) {
    PageId id = free_list_.back();
    free_list_.pop_back();
    freed_[id] = false;
    CCIDX_CHECK(backend_->ZeroPage(id).ok());
    return id;
  }
  PageId id = freed_.size();
  freed_.push_back(false);
  // Capacity growth cannot be surfaced from Allocate (the historical
  // signature returns the id); an out-of-space backend is fatal, like an
  // out-of-memory simulator.
  CCIDX_CHECK(backend_->EnsureCapacity(freed_.size()).ok());
  if (id < backend_hwm_) {
    // The table was shrunk past this id by a recovery-time
    // RestoreAllocation, so the backend page it re-covers holds stale
    // bytes — zero it (and count the write) to keep the "allocated pages
    // read as zeros" contract. Genuinely-new backend pages already read
    // as zeros (mem: no storage until the first write; file: ftruncate
    // growth), so the common bulk path pays no extra page write.
    CCIDX_CHECK(backend_->ZeroPage(id).ok());
    device_writes_.fetch_add(1, std::memory_order_relaxed);
  } else {
    backend_hwm_ = freed_.size();
  }
  return id;
}

bool BlockDevice::IsLive(PageId id) const {
  return id < freed_.size() && !freed_[id];
}

Status BlockDevice::Free(PageId id) {
  std::unique_lock lock(mu_);
  if (!IsLive(id)) {
    return Status::InvalidArgument("free of invalid or already-freed page " +
                                   std::to_string(id));
  }
  freed_[id] = true;
  free_list_.push_back(id);
  pages_freed_.fetch_add(1, std::memory_order_relaxed);
  return Status::OK();
}

bool BlockDevice::ShouldFail() {
  // Fast path: fault injection disabled (the only concurrent case; tests
  // that inject faults are single-threaded, but the budget is still
  // consumed race-free under fail_mu_).
  if (fail_after_.load(std::memory_order_relaxed) < 0) return false;
  std::lock_guard lock(fail_mu_);
  int64_t budget = fail_after_.load(std::memory_order_relaxed);
  if (budget < 0) return false;
  if (budget == 0) return true;
  fail_after_.store(budget - 1, std::memory_order_relaxed);
  return false;
}

Status BlockDevice::Read(PageId id, std::span<uint8_t> out) {
  {
    std::shared_lock lock(mu_);
    if (crashed_.load(std::memory_order_relaxed)) {
      return Status::IoError("device crashed (simulated power loss)");
    }
    if (!IsLive(id)) {
      return Status::IoError("read of invalid page " + std::to_string(id));
    }
    if (out.size() != page_size_) {
      return Status::InvalidArgument("read buffer size mismatch");
    }
    if (ShouldFail()) {
      return Status::IoError("injected device failure (read)");
    }
    CCIDX_RETURN_IF_ERROR(backend_->ReadPage(id, out.data()));
    device_reads_.fetch_add(1, std::memory_order_relaxed);
    read_rounds_.fetch_add(1, std::memory_order_relaxed);
  }
  InjectReadLatency();
  return Status::OK();
}

Status BlockDevice::ReadBatch(std::span<const PageReadRequest> reqs) {
  if (reqs.empty()) return Status::OK();
  size_t approved = 0;
  Status first_err;
  {
    std::shared_lock lock(mu_);
    if (crashed_.load(std::memory_order_relaxed)) {
      return Status::IoError("device crashed (simulated power loss)");
    }
    // Serial-equivalent validation and fault accounting: walk the requests
    // in order, consuming fault budget per request, and stop at the first
    // failure — the approved prefix is exactly the set of reads a serial
    // loop would have completed before surfacing that same error.
    for (const PageReadRequest& r : reqs) {
      if (!IsLive(r.id)) {
        first_err =
            Status::IoError("read of invalid page " + std::to_string(r.id));
        break;
      }
      if (r.out == nullptr) {
        first_err = Status::InvalidArgument("null batch read buffer");
        break;
      }
      if (ShouldFail()) {
        first_err = Status::IoError("injected device failure (read)");
        break;
      }
      approved++;
    }
    if (approved > 0) {
      for (size_t i = 0; i < approved; ++i) {
        CCIDX_RETURN_IF_ERROR(backend_->ReadPage(reqs[i].id, reqs[i].out));
      }
      device_reads_.fetch_add(approved, std::memory_order_relaxed);
      read_batches_.fetch_add(1, std::memory_order_relaxed);
      read_rounds_.fetch_add(1, std::memory_order_relaxed);
    }
  }
  // One delay for the whole batch: all approved requests were queued on
  // the device concurrently. This is the overlap benchmarks measure.
  if (approved > 0) InjectReadLatency();
  return first_err;
}

Status BlockDevice::Write(PageId id, std::span<const uint8_t> in) {
  std::shared_lock lock(mu_);
  if (crashed_.load(std::memory_order_relaxed)) {
    return Status::IoError("device crashed (simulated power loss)");
  }
  if (!IsLive(id)) {
    return Status::IoError("write of invalid page " + std::to_string(id));
  }
  if (in.size() != page_size_) {
    return Status::InvalidArgument("write buffer size mismatch");
  }
  if (ShouldFail()) {
    return Status::IoError("injected device failure (write)");
  }
  if (torn_write_after_.load(std::memory_order_relaxed) >= 0) {
    std::lock_guard tlock(fail_mu_);
    int64_t budget = torn_write_after_.load(std::memory_order_relaxed);
    if (budget == 0) {
      // Torn page: only the first half of the new content reaches the
      // device; the old second half survives. One-shot, then disarmed.
      torn_write_after_.store(-1, std::memory_order_relaxed);
      std::vector<uint8_t> torn(page_size_);
      CCIDX_RETURN_IF_ERROR(backend_->ReadPage(id, torn.data()));
      std::memcpy(torn.data(), in.data(), page_size_ / 2);
      CCIDX_RETURN_IF_ERROR(backend_->WritePage(id, torn.data()));
      device_writes_.fetch_add(1, std::memory_order_relaxed);
      return Status::IoError("injected torn page write");
    } else if (budget > 0) {
      torn_write_after_.store(budget - 1, std::memory_order_relaxed);
    }
  }
  CCIDX_RETURN_IF_ERROR(backend_->WritePage(id, in.data()));
  device_writes_.fetch_add(1, std::memory_order_relaxed);
  return Status::OK();
}

Status BlockDevice::SyncData() {
  // No allocation-table access: the backend's sync path is independently
  // thread-safe (fdatasync on a stable fd / no-op for mem).
  return backend_->SyncData();
}

BlockDevice::AllocationSnapshot BlockDevice::SnapshotAllocation() const {
  std::shared_lock lock(mu_);
  AllocationSnapshot snap;
  snap.total_pages = freed_.size();
  snap.freed = freed_;
  return snap;
}

void BlockDevice::RestoreAllocation(const AllocationSnapshot& snap) {
  std::unique_lock lock(mu_);
  CCIDX_CHECK(snap.freed.size() == snap.total_pages);
  freed_ = snap.freed;
  // The address space never shrinks on the backend: pages beyond the
  // snapshot's high-water mark keep their storage but become unreachable
  // (not in freed_, so never live). Recovery re-grows through Allocate,
  // which zeroes on reuse, so stale backing bytes are harmless.
  free_list_.clear();
  for (PageId id = 0; id < freed_.size(); ++id) {
    if (freed_[id]) free_list_.push_back(id);
  }
  CCIDX_CHECK(backend_->EnsureCapacity(freed_.size()).ok());
  backend_hwm_ = std::max(backend_hwm_, static_cast<uint64_t>(freed_.size()));
}

bool BlockDevice::is_live(PageId id) const {
  std::shared_lock lock(mu_);
  return IsLive(id);
}

uint64_t BlockDevice::live_pages() const {
  std::shared_lock lock(mu_);
  return freed_.size() - free_list_.size();
}

uint64_t BlockDevice::total_pages() const {
  std::shared_lock lock(mu_);
  return freed_.size();
}

IoStats BlockDevice::stats() const {
  IoStats s;
  s.device_reads = device_reads_.load(std::memory_order_relaxed);
  s.device_writes = device_writes_.load(std::memory_order_relaxed);
  s.read_batches = read_batches_.load(std::memory_order_relaxed);
  s.read_rounds = read_rounds_.load(std::memory_order_relaxed);
  s.pages_allocated = pages_allocated_.load(std::memory_order_relaxed);
  s.pages_freed = pages_freed_.load(std::memory_order_relaxed);
  return s;
}

void BlockDevice::ResetStats() {
  device_reads_.store(0, std::memory_order_relaxed);
  device_writes_.store(0, std::memory_order_relaxed);
  read_batches_.store(0, std::memory_order_relaxed);
  read_rounds_.store(0, std::memory_order_relaxed);
  pages_allocated_.store(0, std::memory_order_relaxed);
  pages_freed_.store(0, std::memory_order_relaxed);
}

}  // namespace ccidx
