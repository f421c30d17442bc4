// Process-wide metric registry: named counters, gauges and log-scale
// latency histograms with Prometheus labels, plus a Prometheus
// text-format exporter and a one-line-per-metric human summary.
//
// Usage pattern (hot paths cache the reference once — lookup takes a
// mutex, the cells themselves are lock-free relaxed atomics):
//
//   static auto& flushes = Registry::global().counter(
//       "mpcbf_journal_flushes_total", "Journal flush calls");
//   flushes.inc();
//
// Cells are never deallocated while the registry lives, so cached
// references stay valid for the process lifetime; see
// docs/observability.md for the metric naming and label conventions.
#pragma once

#include <atomic>
#include <cstdint>
#include <initializer_list>
#include <iosfwd>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>

#include "metrics/histogram.hpp"

namespace mpcbf::metrics {

/// Monotonic counter (Prometheus type `counter`).
class Counter {
 public:
  void inc(std::uint64_t n = 1) noexcept {
    v_.fetch_add(n, std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t value() const noexcept {
    return v_.load(std::memory_order_relaxed);
  }
  void reset() noexcept { v_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> v_{0};
};

/// Last-value gauge (Prometheus type `gauge`). Doubles cover both counts
/// and seconds-valued readings; add() is a CAS loop because
/// std::atomic<double> has no fetch_add until C++20's is optional.
class Gauge {
 public:
  void set(double v) noexcept { v_.store(v, std::memory_order_relaxed); }
  void add(double delta) noexcept {
    double cur = v_.load(std::memory_order_relaxed);
    while (!v_.compare_exchange_weak(cur, cur + delta,
                                     std::memory_order_relaxed)) {
    }
  }
  [[nodiscard]] double value() const noexcept {
    return v_.load(std::memory_order_relaxed);
  }
  void reset() noexcept { v_.store(0.0, std::memory_order_relaxed); }

 private:
  std::atomic<double> v_{0.0};
};

using LabelView = std::pair<std::string_view, std::string_view>;

class Registry {
 public:
  /// The process-wide registry every built-in subsystem records into.
  static Registry& global();

  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  /// Finds or creates the series `name{labels}`. The first call for a
  /// name fixes its help text and type; re-registering the same name as
  /// a different metric type throws std::logic_error.
  Counter& counter(std::string_view name, std::string_view help = {},
                   std::initializer_list<LabelView> labels = {});
  Gauge& gauge(std::string_view name, std::string_view help = {},
               std::initializer_list<LabelView> labels = {});
  Histogram& histogram(std::string_view name, std::string_view help = {},
                       std::initializer_list<LabelView> labels = {});

  /// Prometheus text exposition format (# HELP / # TYPE / series lines;
  /// histograms as cumulative `_bucket{le=...}` + `_sum` + `_count`).
  void write_prometheus(std::ostream& os) const;

  /// Human-readable one-line-per-series summary (counters/gauges as
  /// `name{labels} = v`, histograms with count/mean/p50/p95/p99/max).
  void write_summary(std::ostream& os) const;

  /// Zeroes every registered series (tests; series stay registered).
  void reset();

  /// Number of registered series across all families (tests).
  [[nodiscard]] std::size_t series_count() const;

 private:
  enum class Type { kCounter, kGauge, kHistogram };

  template <typename Cell>
  struct Family {
    std::string help;
    // label string -> cell; node-based so references are stable.
    std::map<std::string, std::unique_ptr<Cell>> series;
  };

  /// Canonical `k1="v1",k2="v2"` form (sorted, escaped).
  static std::string label_key(std::initializer_list<LabelView> labels);

  void claim_name(std::string_view name, Type type);

  mutable std::mutex mu_;
  std::map<std::string, Type, std::less<>> types_;
  std::map<std::string, Family<Counter>, std::less<>> counters_;
  std::map<std::string, Family<Gauge>, std::less<>> gauges_;
  std::map<std::string, Family<Histogram>, std::less<>> histograms_;
};

}  // namespace mpcbf::metrics
