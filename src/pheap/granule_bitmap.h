// Copyright 2026 The TSP Authors.
// One bit per kGranule of a region range: the visited set of the
// heap's reachability walks (the recovery GC's mark, CheckHeap).
//
// Every block header sits on a granule boundary, so the set bits, read
// word by word with countr_zero, list the visited headers in address
// order — the order the GC sweep needs, with no sort.
//
// The words come from an anonymous private mapping, zero-filled by the
// kernel page by page on first touch: a walk over a small live set in a
// huge arena faults in only the pages it marks. (malloc/calloc would not
// promise that: once glibc raises its mmap threshold past the bitmap
// size, a repeated recovery in one process gets back dirty heap memory
// and pays a memset of the whole bitmap.) The range scan stops at the
// highest word ever set, for the same reason.

#ifndef TSP_PHEAP_GRANULE_BITMAP_H_
#define TSP_PHEAP_GRANULE_BITMAP_H_

#include <sys/mman.h>

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>

#include "common/logging.h"
#include "pheap/layout.h"

namespace tsp::pheap {

class GranuleBitmap {
 public:
  /// Covers region offsets [base, limit); an empty range holds nothing.
  GranuleBitmap(std::uint64_t base, std::uint64_t limit)
      : base_(base),
        bytes_(limit > base
                   ? ((limit - base + kWordSpan - 1) / kWordSpan) *
                         sizeof(std::uint64_t)
                   : 0) {
    if (bytes_ == 0) return;
    void* words = mmap(nullptr, bytes_,  // tsp-lint: allow(raw-mmap)
                       PROT_READ | PROT_WRITE,
                       MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
    TSP_CHECK(words != MAP_FAILED)
        << "cannot map a " << bytes_ << "-byte granule bitmap";
    words_ = static_cast<std::uint64_t*>(words);
  }
  ~GranuleBitmap() {
    if (words_ != nullptr) munmap(words_, bytes_);
  }

  GranuleBitmap(const GranuleBitmap&) = delete;
  GranuleBitmap& operator=(const GranuleBitmap&) = delete;

  /// Sets the bit of the granule at `offset` (base <= offset < limit,
  /// granule-aligned); true when it was clear before.
  bool Insert(std::uint64_t offset) {
    const std::uint64_t index = (offset - base_) / kGranule;
    const std::size_t word = static_cast<std::size_t>(index / 64);
    TSP_DCHECK_LT(word, bytes_ / sizeof(std::uint64_t));
    const std::uint64_t bit = std::uint64_t{1} << (index % 64);
    if ((words_[word] & bit) != 0) return false;
    words_[word] |= bit;
    end_word_ = std::max(end_word_, word + 1);
    return true;
  }

  /// Calls fn(offset) for every set granule, in ascending offset order.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (std::size_t word = 0; word < end_word_; ++word) {
      for (std::uint64_t bits = words_[word]; bits != 0; bits &= bits - 1) {
        fn(base_ + (word * 64 + std::countr_zero(bits)) * kGranule);
      }
    }
  }

 private:
  static constexpr std::uint64_t kWordSpan = 64 * kGranule;

  std::uint64_t base_;
  std::size_t bytes_;
  std::uint64_t* words_ = nullptr;
  std::size_t end_word_ = 0;  // one past the highest word ever set
};

}  // namespace tsp::pheap

#endif  // TSP_PHEAP_GRANULE_BITMAP_H_
