// Copyright 2026 The TSP Authors.
// Cycle-counter spans around map calls and the histogram they land in.
//
// The histogram is log-linear: exact below 32 ticks, then 32 buckets
// per power of two (about 3% wide). Percentiles interpolate linearly
// inside the bucket that holds the rank, so a reported p50/p99 moves
// continuously with the data instead of snapping to bucket edges.

#ifndef TSP_PERFBENCH_LATENCY_H_
#define TSP_PERFBENCH_LATENCY_H_

#include <array>
#include <chrono>
#include <cstdint>

#if defined(__x86_64__)
#include <x86intrin.h>
#endif

namespace tsp::perfbench {

/// A timestamp in ticks: the TSC on x86-64 (a few ns per read), else
/// steady_clock nanoseconds. Convert with a TickClock calibration.
inline std::uint64_t Ticks() {
#if defined(__x86_64__)
  return __rdtsc();
#else
  return static_cast<std::uint64_t>(
      std::chrono::steady_clock::now().time_since_epoch().count());
#endif
}

/// Converts tick deltas to nanoseconds, calibrated against steady_clock
/// over the lifetime of the object (at least one measured phase).
class TickClock {
 public:
  TickClock()
      : ticks_(Ticks()), wall_(std::chrono::steady_clock::now()) {}

  /// Nanoseconds per tick over [construction, now].
  double NsPerTick() const {
    const double ns = std::chrono::duration<double, std::nano>(
                          std::chrono::steady_clock::now() - wall_)
                          .count();
    const std::uint64_t ticks = Ticks() - ticks_;
    return ticks == 0 ? 1.0 : ns / static_cast<double>(ticks);
  }

 private:
  std::uint64_t ticks_;
  std::chrono::steady_clock::time_point wall_;
};

class LatencyHistogram {
 public:
  static constexpr int kSubBits = 5;
  static constexpr std::uint64_t kSub = 1ULL << kSubBits;
  static constexpr int kBuckets = static_cast<int>(kSub) * (64 - kSubBits + 1);

  void Record(std::uint64_t ticks) {
    ++counts_[Index(ticks)];
    ++count_;
  }

  void Merge(const LatencyHistogram& other) {
    for (int i = 0; i < kBuckets; ++i) counts_[i] += other.counts_[i];
    count_ += other.count_;
  }

  std::uint64_t count() const { return count_; }

  /// The q-quantile (0 < q < 1) in ticks; 0 when empty.
  double Quantile(double q) const {
    if (count_ == 0) return 0;
    const double target = q * static_cast<double>(count_);
    double below = 0;
    for (int i = 0; i < kBuckets; ++i) {
      if (counts_[i] == 0) continue;
      const double in = static_cast<double>(counts_[i]);
      if (below + in >= target) {
        std::uint64_t lo = 0;
        std::uint64_t width = 0;
        Bounds(i, &lo, &width);
        return static_cast<double>(lo) +
               (target - below) / in * static_cast<double>(width);
      }
      below += in;
    }
    return 0;
  }

 private:
  static int Index(std::uint64_t v) {
    if (v < kSub) return static_cast<int>(v);
    const int exponent = 63 - __builtin_clzll(v);  // >= kSubBits
    const int shift = exponent - kSubBits;
    return static_cast<int>(kSub) * (shift + 1) +
           static_cast<int>((v >> shift) - kSub);
  }

  static void Bounds(int index, std::uint64_t* lo, std::uint64_t* width) {
    if (index < static_cast<int>(kSub)) {
      *lo = static_cast<std::uint64_t>(index);
      *width = 1;
      return;
    }
    const int shift = index / static_cast<int>(kSub) - 1;
    const std::uint64_t mantissa = kSub + index % static_cast<int>(kSub);
    *lo = mantissa << shift;
    *width = 1ULL << shift;
  }

  std::array<std::uint64_t, kBuckets> counts_{};
  std::uint64_t count_ = 0;
};

}  // namespace tsp::perfbench

#endif  // TSP_PERFBENCH_LATENCY_H_
