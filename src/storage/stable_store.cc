#include "storage/stable_store.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cstring>

#include "common/coding.h"
#include "common/crc32c.h"

namespace untx {

StableStore::StableStore(StableStoreOptions options)
    : options_(options), fault_rng_(options.fault_seed) {
  if (!options_.path.empty()) {
    fd_ = ::open(options_.path.c_str(), O_RDWR | O_CREAT | O_CLOEXEC, 0644);
    if (fd_ >= 0) LoadFile();
  }
}

StableStore::~StableStore() {
  if (fd_ >= 0) ::close(fd_);
}

void StableStore::LoadFile() {
  struct stat st;
  if (::fstat(fd_, &st) != 0) return;
  const uint32_t ps = options_.page_size;
  const PageId max_pid = static_cast<PageId>(st.st_size / ps);
  std::string buf(ps, '\0');
  PageId max_live = 0;
  for (PageId pid = 1; pid <= max_pid; ++pid) {
    const off_t off = static_cast<off_t>(pid - 1) * ps;
    if (::pread(fd_, buf.data(), ps, off) != static_cast<ssize_t>(ps)) break;
    const uint32_t expected = crc32c::Unmask(DecodeFixed32(buf.data()));
    const uint32_t actual = crc32c::Value(buf.data() + 4, ps - 4);
    if (expected != actual) continue;  // never written, freed, or torn
    pages_[pid] = buf;
    max_live = pid;
  }
  next_page_id_ = max_live + 1;
  // Invalid slots below the high water are free space the allocator may
  // recycle (a freed page's slot was zeroed, so its CRC cannot verify).
  for (PageId pid = 1; pid < next_page_id_; ++pid) {
    if (pages_.count(pid) == 0 && free_set_.insert(pid).second) {
      free_list_.push_back(pid);
    }
  }
}

void StableStore::PersistPageLocked(PageId pid, const char* data) {
  if (fd_ < 0) return;
  const off_t off = static_cast<off_t>(pid - 1) * options_.page_size;
  // pwrite lands in the kernel page cache: survives SIGKILL of this
  // process (the harness's failure model), like StableLog's backing.
  ::pwrite(fd_, data, options_.page_size, off);
}

PageId StableStore::Allocate() {
  std::lock_guard<std::mutex> guard(mu_);
  if (!free_list_.empty()) {
    PageId pid = free_list_.back();
    free_list_.pop_back();
    free_set_.erase(pid);
    return pid;
  }
  return next_page_id_++;
}

void StableStore::Free(PageId pid) {
  std::lock_guard<std::mutex> guard(mu_);
  if (pid == kInvalidPageId) return;
  if (free_set_.insert(pid).second) {
    free_list_.push_back(pid);
    if (pages_.erase(pid) > 0 && fd_ >= 0) {
      // Invalidate the slot's CRC so a reload sees it as free space.
      std::string zeros(options_.page_size, '\0');
      PersistPageLocked(pid, zeros.data());
    }
  }
}

Status StableStore::Write(PageId pid, const char* data) {
  // Stamp the CRC before taking mu_: every DC thread shares this mutex.
  std::string copy(data, options_.page_size);
  const uint32_t crc = crc32c::Mask(
      crc32c::Value(copy.data() + 4, options_.page_size - 4));
  EncodeFixed32(copy.data(), crc);
  std::lock_guard<std::mutex> guard(mu_);
  if (options_.write_fail_prob > 0 &&
      fault_rng_.Bernoulli(options_.write_fail_prob)) {
    return Status::IOError("injected write failure");
  }
  PersistPageLocked(pid, copy.data());
  pages_[pid] = std::move(copy);
  // A freed page that gets rewritten (recycled id) is live again.
  if (free_set_.erase(pid) > 0) {
    for (auto it = free_list_.begin(); it != free_list_.end(); ++it) {
      if (*it == pid) {
        free_list_.erase(it);
        break;
      }
    }
  }
  ++writes_;
  return Status::OK();
}

Status StableStore::Read(PageId pid, char* out) const {
  {
    std::lock_guard<std::mutex> guard(mu_);
    auto it = pages_.find(pid);
    if (it == pages_.end()) {
      return Status::NotFound("page not in stable store");
    }
    memcpy(out, it->second.data(), options_.page_size);
    ++reads_;
  }
  // Verify the caller's private copy outside mu_: it is byte for byte the
  // stored image, so this is the same check, with the mutex held less.
  const uint32_t expected = crc32c::Unmask(DecodeFixed32(out));
  const uint32_t actual = crc32c::Value(out + 4, options_.page_size - 4);
  if (expected != actual) {
    return Status::Corruption("page checksum mismatch");
  }
  return Status::OK();
}

bool StableStore::Exists(PageId pid) const {
  std::lock_guard<std::mutex> guard(mu_);
  return pages_.count(pid) > 0;
}

void StableStore::CorruptForTest(PageId pid, uint32_t byte_offset) {
  std::lock_guard<std::mutex> guard(mu_);
  auto it = pages_.find(pid);
  if (it == pages_.end()) return;
  if (byte_offset >= options_.page_size) byte_offset = options_.page_size - 1;
  it->second[byte_offset] ^= 0x5a;
  PersistPageLocked(pid, it->second.data());
}

void StableStore::Reset() {
  std::lock_guard<std::mutex> guard(mu_);
  pages_.clear();
  free_list_.clear();
  free_set_.clear();
  next_page_id_ = 1;
  if (fd_ >= 0) {
    if (::ftruncate(fd_, 0) != 0) {
      // Fall back to slot invalidation: a reload treats a CRC-less slot
      // as free, so a failed truncate only wastes file space.
    }
  }
}

uint64_t StableStore::allocated_high_water() const {
  std::lock_guard<std::mutex> guard(mu_);
  return next_page_id_ - 1;
}

size_t StableStore::LivePageCount() const {
  std::lock_guard<std::mutex> guard(mu_);
  return pages_.size();
}

}  // namespace untx
