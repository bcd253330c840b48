#include "memfd_backend.h"

#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <algorithm>
#include <cstring>
#include <vector>

namespace tsp::perfbench {
namespace {

Status ErrnoStatus(const std::string& what) {
  return Status::IoError(what + ": " + std::strerror(errno));
}

std::uint64_t StoreSize(int fd) {
  struct stat st;
  if (fstat(fd, &st) != 0) return 0;
  return static_cast<std::uint64_t>(st.st_size);
}

StatusOr<void*> MapAt(int fd, std::size_t size, std::uintptr_t addr,
                      int prot, int flags) {
  void* want = reinterpret_cast<void*>(addr);
  void* got = mmap(want, size, prot, flags | MAP_FIXED_NOREPLACE, fd, 0);
  if (got == MAP_FAILED) {
    return Status::FailedPrecondition(
        std::string("cannot map heap at its fixed address: ") +
        std::strerror(errno) + "; " +
        pheap::DescribeMappingConflict(addr, size));
  }
  if (got != want) {
    munmap(got, size);
    return Status::FailedPrecondition("kernel placed the heap elsewhere");
  }
  return got;
}

}  // namespace

StatusOr<std::shared_ptr<MemfdBackend>> MemfdBackend::Create(
    const std::string& label) {
  const int fd = memfd_create(label.c_str(), MFD_CLOEXEC);
  if (fd < 0) return ErrnoStatus("memfd_create " + label);
  return std::shared_ptr<MemfdBackend>(new MemfdBackend(fd));
}

MemfdBackend::~MemfdBackend() { close(fd_); }

StatusOr<std::shared_ptr<MemfdBackend>> MemfdBackend::Clone(
    const std::string& label) const {
  TSP_ASSIGN_OR_RETURN(std::shared_ptr<MemfdBackend> copy, Create(label));
  const auto size = static_cast<off_t>(StoreSize(fd_));
  if (ftruncate(copy->fd_, size) != 0) return ErrnoStatus("ftruncate " + label);
  std::vector<char> buffer(1 << 20);
  for (off_t at = lseek(fd_, 0, SEEK_DATA); at >= 0;
       at = lseek(fd_, at, SEEK_DATA)) {
    off_t end = lseek(fd_, at, SEEK_HOLE);
    if (end < 0) end = size;
    while (at < end) {
      const std::size_t want =
          std::min(buffer.size(), static_cast<std::size_t>(end - at));
      const ssize_t got = pread(fd_, buffer.data(), want, at);
      if (got <= 0) return ErrnoStatus("pread " + label);
      for (ssize_t put = 0; put < got;) {
        const ssize_t n = pwrite(copy->fd_, buffer.data() + put,
                                 static_cast<std::size_t>(got - put), at + put);
        if (n <= 0) return ErrnoStatus("pwrite " + label);
        put += n;
      }
      at += got;
    }
  }
  if (errno != ENXIO) return ErrnoStatus("lseek " + label);
  return copy;
}

StatusOr<void*> MemfdBackend::CreateAndMap(const std::string& path,
                                           std::size_t size,
                                           std::uintptr_t addr) {
  if (StoreSize(fd_) != 0) {
    return Status::AlreadyExists("memfd heap already created: " + path);
  }
  if (ftruncate(fd_, static_cast<off_t>(size)) != 0) {
    return ErrnoStatus("ftruncate " + path);
  }
  auto mapped = MapAt(fd_, size, addr, PROT_READ | PROT_WRITE, MAP_SHARED);
  if (!mapped.ok() && ftruncate(fd_, 0) != 0) {
    return ErrnoStatus("ftruncate " + path);
  }
  return mapped;
}

Status MemfdBackend::PeekHeader(const std::string& path, void* out,
                                std::size_t n, std::uint64_t* store_size) {
  *store_size = StoreSize(fd_);
  if (*store_size == 0) return Status::NotFound("no memfd heap: " + path);
  std::memset(out, 0, n);
  const std::size_t want = n < *store_size ? n : *store_size;
  std::size_t done = 0;
  while (done < want) {
    const ssize_t got = pread(fd_, static_cast<char*>(out) + done,
                              want - done, static_cast<off_t>(done));
    if (got < 0) return ErrnoStatus("pread " + path);
    if (got == 0) break;
    done += static_cast<std::size_t>(got);
  }
  return Status::OK();
}

StatusOr<void*> MemfdBackend::MapExisting(const std::string& path,
                                          std::size_t size,
                                          std::uintptr_t addr,
                                          bool read_only) {
  if (StoreSize(fd_) == 0) return Status::NotFound("no memfd heap: " + path);
  return read_only ? MapAt(fd_, size, addr, PROT_READ, MAP_PRIVATE)
                   : MapAt(fd_, size, addr, PROT_READ | PROT_WRITE,
                           MAP_SHARED);
}

void MemfdBackend::Unmap(void* base, std::size_t size) { munmap(base, size); }

Status MemfdBackend::Sync(void* base, std::size_t size) {
  if (msync(base, size, MS_SYNC) != 0) return ErrnoStatus("msync");
  return Status::OK();
}

Status MemfdBackend::Remove(const std::string& path) {
  if (ftruncate(fd_, 0) != 0) return ErrnoStatus("ftruncate " + path);
  return Status::OK();
}

}  // namespace tsp::perfbench
