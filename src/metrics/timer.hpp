// Monotonic nanosecond clock helpers for latency metrics.
//
// ScopedLatency records elapsed nanoseconds into a Histogram at scope
// exit — the one-liner the IO and mapreduce layers use where the op is
// orders of magnitude above clock cost.
#pragma once

#include <chrono>
#include <cstdint>

#include "metrics/histogram.hpp"

namespace mpcbf::metrics {

[[nodiscard]] inline std::uint64_t now_ns() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Records the lifetime of the scope into `sink` (nanoseconds).
class ScopedLatency {
 public:
  explicit ScopedLatency(Histogram& sink) noexcept
      : sink_(sink), start_(now_ns()) {}
  ~ScopedLatency() { sink_.record(now_ns() - start_); }
  ScopedLatency(const ScopedLatency&) = delete;
  ScopedLatency& operator=(const ScopedLatency&) = delete;

 private:
  Histogram& sink_;
  std::uint64_t start_;
};

}  // namespace mpcbf::metrics
