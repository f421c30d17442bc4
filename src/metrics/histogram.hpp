// Fixed-bucket log-scale histogram for latency/size distributions.
//
// Values (nanoseconds, batch sizes, byte counts — any uint64) land in one
// of 256 buckets: values below 4 get an exact bucket each; above that,
// every power-of-two octave is split into 4 sub-buckets, so a bucket's
// upper bound is at most 25% above its lower bound and quantile estimates
// carry bounded relative error. Recording is a handful of relaxed atomic
// adds — safe from concurrent readers/writers, never a synchronization
// point.
//
// Quantiles are conservative: quantile(q) returns the upper bound of the
// bucket holding the rank-⌈q·count⌉ sample, so at least that many recorded
// samples are <= the returned value (the bracketing property
// tests/test_metrics.cpp asserts).
#pragma once

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <cstdint>

namespace mpcbf::metrics {

class Histogram {
 public:
  /// 4 sub-buckets per power-of-two octave; 64 octaves cover any uint64.
  static constexpr unsigned kSubBuckets = 4;
  static constexpr unsigned kNumBuckets = 64 * kSubBuckets;

  Histogram() = default;

  // Copyable as a relaxed snapshot (filters holding histograms are
  // copy/movable; the atomics themselves are not).
  Histogram(const Histogram& other) noexcept { copy_from(other); }
  Histogram& operator=(const Histogram& other) noexcept {
    if (this != &other) copy_from(other);
    return *this;
  }

  void record(std::uint64_t value) noexcept {
    buckets_[bucket_index(value)].fetch_add(1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(value, std::memory_order_relaxed);
    // Monotonic max: lossy store race is resolved by the CAS retry.
    std::uint64_t seen = max_.load(std::memory_order_relaxed);
    while (value > seen &&
           !max_.compare_exchange_weak(seen, value,
                                       std::memory_order_relaxed)) {
    }
  }

  [[nodiscard]] std::uint64_t count() const noexcept {
    return count_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t sum() const noexcept {
    return sum_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t max() const noexcept {
    return max_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] double mean() const noexcept {
    const auto c = count();
    return c == 0 ? 0.0 : static_cast<double>(sum()) / static_cast<double>(c);
  }
  [[nodiscard]] std::uint64_t bucket_count(unsigned i) const noexcept {
    return buckets_[i].load(std::memory_order_relaxed);
  }

  /// Maps a value to its bucket. Exact below 4; otherwise octave*4 + the
  /// two bits below the leading one.
  [[nodiscard]] static constexpr unsigned bucket_index(
      std::uint64_t v) noexcept {
    if (v < 4) return static_cast<unsigned>(v);
    const unsigned octave = 63 - static_cast<unsigned>(std::countl_zero(v));
    return octave * kSubBuckets +
           static_cast<unsigned>((v >> (octave - 2)) & 3);
  }

  /// Inclusive upper bound of bucket i (the largest value mapping to it).
  /// Indices 4..7 are dead (values < 4 are exact, values >= 4 start at
  /// octave 2 == index 8); they report bound 3 so bucket ranges stay
  /// contiguous for iteration.
  [[nodiscard]] static constexpr std::uint64_t bucket_upper(
      unsigned i) noexcept {
    if (i < 4) return i;
    if (i < 2 * kSubBuckets) return 3;
    const unsigned octave = i / kSubBuckets;
    const unsigned sub = i % kSubBuckets;
    const std::uint64_t lower =
        (std::uint64_t{1} << octave) +
        static_cast<std::uint64_t>(sub) * (std::uint64_t{1} << (octave - 2));
    const std::uint64_t width = std::uint64_t{1} << (octave - 2);
    return lower + width - 1;
  }

  /// Conservative quantile: the upper bound of the bucket holding the
  /// rank-⌈q·count⌉ sample (exact for values < 4; <= 25% above the true
  /// sample otherwise). Clamped to the recorded max. q in [0, 1].
  [[nodiscard]] std::uint64_t quantile(double q) const noexcept {
    const std::uint64_t n = count();
    if (n == 0) return 0;
    const double clamped = std::min(std::max(q, 0.0), 1.0);
    std::uint64_t rank =
        static_cast<std::uint64_t>(clamped * static_cast<double>(n));
    if (rank < 1) rank = 1;
    if (rank > n) rank = n;
    std::uint64_t cumulative = 0;
    for (unsigned i = 0; i < kNumBuckets; ++i) {
      cumulative += bucket_count(i);
      if (cumulative >= rank) {
        return std::min(bucket_upper(i), max());
      }
    }
    return max();
  }

  /// Folds `other`'s recorded samples into this histogram (bucket-wise).
  void merge(const Histogram& other) noexcept {
    for (unsigned i = 0; i < kNumBuckets; ++i) {
      const auto c = other.bucket_count(i);
      if (c != 0) buckets_[i].fetch_add(c, std::memory_order_relaxed);
    }
    count_.fetch_add(other.count(), std::memory_order_relaxed);
    sum_.fetch_add(other.sum(), std::memory_order_relaxed);
    const std::uint64_t om = other.max();
    std::uint64_t seen = max_.load(std::memory_order_relaxed);
    while (om > seen && !max_.compare_exchange_weak(
                            seen, om, std::memory_order_relaxed)) {
    }
  }

  void reset() noexcept {
    for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
    count_.store(0, std::memory_order_relaxed);
    sum_.store(0, std::memory_order_relaxed);
    max_.store(0, std::memory_order_relaxed);
  }

 private:
  void copy_from(const Histogram& other) noexcept {
    for (unsigned i = 0; i < kNumBuckets; ++i) {
      buckets_[i].store(other.bucket_count(i), std::memory_order_relaxed);
    }
    count_.store(other.count(), std::memory_order_relaxed);
    sum_.store(other.sum(), std::memory_order_relaxed);
    max_.store(other.max(), std::memory_order_relaxed);
  }

  std::array<std::atomic<std::uint64_t>, kNumBuckets> buckets_{};
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> sum_{0};
  std::atomic<std::uint64_t> max_{0};
};

}  // namespace mpcbf::metrics
