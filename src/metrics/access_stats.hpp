// Per-operation access accounting — the instrument behind the paper's
// Tables I–III and Fig. 11, now a thin adapter over the observability
// layer's primitives (metrics/registry.hpp): each per-op-class bucket is
// a trio of registry Counter cells plus a log-scale latency Histogram,
// so a filter's stats can be published into the process-wide Registry
// verbatim (metrics/export.hpp) while staying instance-local — bench
// loops construct thousands of filters and must not leak registry series.
//
// Every filter in this repository records, for each operation it executes,
// (a) how many distinct memory words it touched and (b) how many hash bits
// it consumed ("access bandwidth" in the paper's terminology). Queries are
// split into negative/positive classes because query short-circuiting makes
// their costs differ (that is why the paper measures CBF at 2.1 — not 3.0 —
// accesses per query on IP traces).
//
// Counters are relaxed atomics so recording from const queries is safe
// under concurrent readers (filters hold an AccessStats as a `mutable`
// member and bump it from contains()). Relaxed ordering is sufficient:
// the counters are independent monotonic tallies, never used to
// synchronize other memory.
//
// Latency is sampled, not per-op: timing every operation would cost two
// clock reads (~40ns) against query costs of the same order. should_sample
// admits every kLatencySampleEvery-th operation. A scalar Mpcbf query
// records under the class it hit like any other operation; a batch
// query records one per-key average per sampled chunk in the
// batch-query histogram instead (engine::query_batch).
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <string_view>

#include "metrics/histogram.hpp"
#include "metrics/registry.hpp"

namespace mpcbf::metrics {

enum class OpClass : unsigned {
  kQueryNegative = 0,
  kQueryPositive = 1,
  kInsert = 2,
  kDelete = 3,
};

inline constexpr unsigned kNumOpClasses = 4;
/// One in kLatencySampleEvery operations is latency-timed.
inline constexpr std::uint64_t kLatencySampleEvery = 64;

constexpr std::string_view to_string(OpClass c) noexcept {
  switch (c) {
    case OpClass::kQueryNegative: return "query-";
    case OpClass::kQueryPositive: return "query+";
    case OpClass::kInsert: return "insert";
    case OpClass::kDelete: return "delete";
  }
  return "?";
}

/// Prometheus-safe label value for an op class.
constexpr std::string_view op_label(OpClass c) noexcept {
  switch (c) {
    case OpClass::kQueryNegative: return "query_negative";
    case OpClass::kQueryPositive: return "query_positive";
    case OpClass::kInsert: return "insert";
    case OpClass::kDelete: return "delete";
  }
  return "unknown";
}

class AccessStats {
 public:
  AccessStats() = default;

  // Filters are copy/movable; counters transfer as a relaxed snapshot
  // (atomics themselves are neither copyable nor movable).
  AccessStats(const AccessStats& other) noexcept { copy_from(other); }
  AccessStats& operator=(const AccessStats& other) noexcept {
    if (this != &other) copy_from(other);
    return *this;
  }

  void record(OpClass c, std::uint64_t words_touched,
              std::uint64_t hash_bits) noexcept {
    auto& b = buckets_[static_cast<unsigned>(c)];
    b.ops.inc();
    b.words.inc(words_touched);
    b.bits.inc(hash_bits);
  }

  /// Aggregated record for batch paths: `n` operations of class c that
  /// together touched `words_touched` words and consumed `hash_bits`
  /// bits. One trio of atomic adds instead of n — identical totals.
  void record_n(OpClass c, std::uint64_t n, std::uint64_t words_touched,
                std::uint64_t hash_bits) noexcept {
    if (n == 0) return;
    auto& b = buckets_[static_cast<unsigned>(c)];
    b.ops.inc(n);
    b.words.inc(words_touched);
    b.bits.inc(hash_bits);
  }

  /// True for the operations that should be latency-timed (one in
  /// kLatencySampleEvery). The tick is thread-local — an atomic tick
  /// would cost as much as the tallies it gates on machines with slow
  /// relaxed RMWs — so the sample rate holds per thread, across every
  /// AccessStats instance that thread touches.
  [[nodiscard]] bool should_sample() noexcept {
    thread_local std::uint64_t tick = 0;
    return (tick++ % kLatencySampleEvery) == 0;
  }

  /// Records one sampled operation latency in nanoseconds.
  void record_latency(OpClass c, std::uint64_t ns) noexcept {
    latency_[static_cast<unsigned>(c)].record(ns);
  }

  /// Records one batch-query chunk's per-key average latency (ns).
  void record_batch_latency(std::uint64_t ns_per_key) noexcept {
    batch_latency_.record(ns_per_key);
  }

  void reset() noexcept {
    for (auto& b : buckets_) {
      b.ops.reset();
      b.words.reset();
      b.bits.reset();
    }
    for (auto& h : latency_) h.reset();
    batch_latency_.reset();
  }

  [[nodiscard]] std::uint64_t ops(OpClass c) const noexcept {
    return buckets_[static_cast<unsigned>(c)].ops.value();
  }
  /// Total distinct-word touches across all operations of class c.
  [[nodiscard]] std::uint64_t words(OpClass c) const noexcept {
    return buckets_[static_cast<unsigned>(c)].words.value();
  }
  /// Total accounted hash bits across all operations of class c.
  [[nodiscard]] std::uint64_t bits(OpClass c) const noexcept {
    return buckets_[static_cast<unsigned>(c)].bits.value();
  }
  [[nodiscard]] const Histogram& latency(OpClass c) const noexcept {
    return latency_[static_cast<unsigned>(c)];
  }
  [[nodiscard]] const Histogram& batch_latency() const noexcept {
    return batch_latency_;
  }

  /// Mean distinct words touched per operation of class c (0 if none ran).
  [[nodiscard]] double mean_accesses(OpClass c) const noexcept {
    const auto& b = buckets_[static_cast<unsigned>(c)];
    const auto ops = b.ops.value();
    return ops == 0 ? 0.0
                    : static_cast<double>(b.words.value()) /
                          static_cast<double>(ops);
  }

  /// Mean hash bits consumed per operation of class c.
  [[nodiscard]] double mean_bandwidth(OpClass c) const noexcept {
    const auto& b = buckets_[static_cast<unsigned>(c)];
    const auto ops = b.ops.value();
    return ops == 0 ? 0.0
                    : static_cast<double>(b.bits.value()) /
                          static_cast<double>(ops);
  }

  /// Combined query statistics (positive + negative), the paper's
  /// "query overhead" row.
  [[nodiscard]] double mean_query_accesses() const noexcept {
    return combined_mean(&Bucket::words, 0, 1);
  }
  [[nodiscard]] double mean_query_bandwidth() const noexcept {
    return combined_mean(&Bucket::bits, 0, 1);
  }

  /// Combined insert+delete statistics, the paper's "update overhead" row.
  [[nodiscard]] double mean_update_accesses() const noexcept {
    return combined_mean(&Bucket::words, 2, 3);
  }
  [[nodiscard]] double mean_update_bandwidth() const noexcept {
    return combined_mean(&Bucket::bits, 2, 3);
  }

 private:
  struct Bucket {
    Counter ops;
    Counter words;
    Counter bits;
  };

  void copy_from(const AccessStats& other) noexcept {
    for (unsigned i = 0; i < kNumOpClasses; ++i) {
      buckets_[i].ops.reset();
      buckets_[i].ops.inc(other.buckets_[i].ops.value());
      buckets_[i].words.reset();
      buckets_[i].words.inc(other.buckets_[i].words.value());
      buckets_[i].bits.reset();
      buckets_[i].bits.inc(other.buckets_[i].bits.value());
      latency_[i] = other.latency_[i];
    }
    batch_latency_ = other.batch_latency_;
  }

  [[nodiscard]] double combined_mean(Counter Bucket::*field, unsigned a,
                                     unsigned b) const noexcept {
    const std::uint64_t ops =
        buckets_[a].ops.value() + buckets_[b].ops.value();
    return ops == 0 ? 0.0
                    : static_cast<double>((buckets_[a].*field).value() +
                                          (buckets_[b].*field).value()) /
                          static_cast<double>(ops);
  }

  std::array<Bucket, kNumOpClasses> buckets_{};
  std::array<Histogram, kNumOpClasses> latency_{};
  Histogram batch_latency_{};
};

}  // namespace mpcbf::metrics
