// Copyright 2026 The TSP Authors.
// MemfdBackend: a RegionBackend whose store is one anonymous shared
// memory file (memfd). Like a /dev/shm file it keeps every store after
// the process that made it dies, which is what the SIGKILL recovery
// measurement needs; unlike one it has no name in any filesystem, so a
// benchmark run leaves nothing behind on any exit path, a crash of the
// benchmark itself included. The memory is returned when the last
// holder of the descriptor (the parent after a forked writer dies)
// destroys the backend.

#ifndef TSP_PERFBENCH_MEMFD_BACKEND_H_
#define TSP_PERFBENCH_MEMFD_BACKEND_H_

#include <string>

#include "common/status.h"
#include "pheap/backend.h"

namespace tsp::perfbench {

class MemfdBackend : public pheap::RegionBackend {
 public:
  /// Creates the (empty) memfd; `label` names it in /proc/<pid>/fd.
  static StatusOr<std::shared_ptr<MemfdBackend>> Create(
      const std::string& label);

  /// A new memfd holding a byte copy of this one's store (data extents
  /// only; holes stay holes).
  StatusOr<std::shared_ptr<MemfdBackend>> Clone(const std::string& label) const;

  ~MemfdBackend() override;
  MemfdBackend(const MemfdBackend&) = delete;
  MemfdBackend& operator=(const MemfdBackend&) = delete;

  const char* name() const override { return "memfd"; }
  StatusOr<void*> CreateAndMap(const std::string& path, std::size_t size,
                               std::uintptr_t addr) override;
  Status PeekHeader(const std::string& path, void* out, std::size_t n,
                    std::uint64_t* store_size) override;
  StatusOr<void*> MapExisting(const std::string& path, std::size_t size,
                              std::uintptr_t addr, bool read_only) override;
  void Unmap(void* base, std::size_t size) override;
  Status Sync(void* base, std::size_t size) override;
  Status Remove(const std::string& path) override;

 private:
  explicit MemfdBackend(int fd) : fd_(fd) {}

  int fd_;
};

}  // namespace tsp::perfbench

#endif  // TSP_PERFBENCH_MEMFD_BACKEND_H_
