// Live filter-health probing — the "is this filter drifting toward
// saturation" layer on top of the structural introspection the filters
// already expose (fill_report(), event counters) and the closed-form FPR
// models in model/fpr_model.hpp.
//
// A HealthProber samples a filter on demand (probe()) or on a background
// interval (watch()/stop()) and publishes the sample as registry gauges
// (mpcbf_health_*), Prometheus-visible through the PR 2 exporter. Each
// sample carries:
//
//   * level-1 fill — fraction of level-1 counter positions that are
//     non-zero (Almeida's fill-rate, the quantity the FPR actually
//     tracks);
//   * hierarchy-bit utilization — hierarchy bits consumed vs the
//     l * (W - b1) available, i.e. how much of the counting headroom
//     has been spent;
//   * per-word hierarchy occupancy histogram buckets (from
//     fill_report().hierarchy_histogram);
//   * stash pressure and overflow rate — the overflow-path symptoms;
//   * predicted-vs-measured FPR drift — eq. (8)/(9) at the current
//     cardinality vs an empirical probe of never-inserted keys;
//   * a 0-100 saturation score: 100 x the worst component.
//
// Thresholds on the score classify the sample Ok/Warn/Critical; a
// non-Ok sample fires the configured callback and bumps
// mpcbf_health_alarms_total{severity=...}. The prober reads the filter
// without locking — point it at a filter that is not concurrently
// mutated (the server samples under its backend's shared lock).
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "metrics/registry.hpp"
#include "model/fpr_model.hpp"
#include "trace/trace.hpp"

namespace mpcbf::metrics {

enum class Severity : std::uint8_t { kOk, kWarn, kCritical };

[[nodiscard]] constexpr const char* to_string(Severity s) noexcept {
  switch (s) {
    case Severity::kOk: return "ok";
    case Severity::kWarn: return "warn";
    case Severity::kCritical: return "critical";
  }
  return "?";
}

/// One health sample. Component values are fractions in [0, 1] unless
/// noted; saturation_score is 0-100.
struct HealthSample {
  double level1_fill = 0.0;
  double hierarchy_utilization = 0.0;
  double stash_pressure = 0.0;   ///< stash entries / live elements
  double overflow_rate = 0.0;    ///< overflow events / attempted inserts
  double predicted_fpr = 0.0;    ///< eq. (8)/(9) at current cardinality
  double measured_fpr = 0.0;     ///< empirical never-inserted-key probe
  double fpr_drift = 0.0;        ///< measured - predicted (signed)
  double saturation_score = 0.0;
  Severity severity = Severity::kOk;
  std::uint64_t elements = 0;
  /// hierarchy_histogram[u] = words using u hierarchy bits (empty for
  /// filters without fill_report()).
  std::vector<std::size_t> hierarchy_histogram;
};

class HealthProber {
 public:
  struct Config {
    std::string filter_label = "mpcbf";
    /// Saturation-score thresholds (0-100).
    double warn_score = 70.0;
    double critical_score = 90.0;
    /// Never-inserted keys probed for the measured FPR (0 disables the
    /// empirical probe; predicted/drift gauges then read 0).
    std::size_t fpr_probes = 4096;
    std::uint64_t probe_seed = 0x9e3779b97f4a7c15ull;
    /// Fired on every non-Ok sample (watch() fires it from the
    /// background thread).
    std::function<void(const HealthSample&)> on_alarm;
    Registry* registry = &Registry::global();
  };

  HealthProber() : HealthProber(Config{}) {}
  explicit HealthProber(Config cfg) : cfg_(std::move(cfg)) {}
  ~HealthProber() { stop(); }
  HealthProber(const HealthProber&) = delete;
  HealthProber& operator=(const HealthProber&) = delete;

  [[nodiscard]] const Config& config() const noexcept { return cfg_; }

  /// Samples `f` once: computes the component metrics, publishes the
  /// gauges, classifies against the thresholds, and fires the alarm
  /// callback + counter when the score crosses warn/critical.
  template <typename Filter>
  HealthSample probe(const Filter& f) {
    MPCBF_TRACE_SPAN(span, kTool, "health.probe");
    HealthSample s = sample(f);
    span.set_arg("score", static_cast<std::uint64_t>(s.saturation_score));
    publish(s);
    if (s.severity != Severity::kOk) {
      alarms_total_.fetch_add(1, std::memory_order_relaxed);
      if (cfg_.registry != nullptr) {
        cfg_.registry
            ->counter("mpcbf_health_alarms_total",
                      "Health probes that crossed warn/critical thresholds",
                      {{"filter", cfg_.filter_label},
                       {"severity", to_string(s.severity)}})
            .inc();
      }
      if (cfg_.on_alarm) cfg_.on_alarm(s);
    }
    return s;
  }

  /// Starts a background thread probing `f` every `interval` until
  /// stop() (or destruction). The caller must keep `f` alive and must
  /// not mutate it concurrently: no filter here has readers that are
  /// safe against a concurrent writer.
  template <typename Filter>
  void watch(const Filter& f, std::chrono::milliseconds interval) {
    stop();
    stop_requested_ = false;
    worker_ = std::thread([this, &f, interval] {
      std::unique_lock<std::mutex> lock(watch_mu_);
      for (;;) {
        lock.unlock();
        probe(f);
        lock.lock();
        if (watch_cv_.wait_for(lock, interval,
                               [this] { return stop_requested_; })) {
          return;
        }
      }
    });
  }

  /// Stops the background thread (idempotent; no-op when not watching).
  void stop() {
    {
      std::lock_guard<std::mutex> lock(watch_mu_);
      stop_requested_ = true;
    }
    watch_cv_.notify_all();
    if (worker_.joinable()) worker_.join();
  }

  /// Alarms fired by this prober instance (the registry counter is the
  /// cross-instance view).
  [[nodiscard]] std::uint64_t alarms() const noexcept {
    return alarms_total_.load(std::memory_order_relaxed);
  }

  /// Computes a sample without publishing or alarming (tests, dry runs).
  template <typename Filter>
  [[nodiscard]] HealthSample sample(const Filter& f) const {
    HealthSample s;
    if constexpr (requires { f.size(); }) {
      s.elements = f.size();
    }

    if constexpr (requires { f.fill_report(); }) {
      const auto report = f.fill_report();
      s.hierarchy_histogram = report.hierarchy_histogram;
      std::size_t zero = report.counter_histogram.empty()
                             ? report.total_positions
                             : report.counter_histogram[0];
      if (report.total_positions > 0) {
        s.level1_fill =
            1.0 - static_cast<double>(zero) /
                      static_cast<double>(report.total_positions);
      }
    }

    if constexpr (requires { f.num_words(); f.b1(); f.memory_bits(); }) {
      // Word width W = memory_bits / l; hierarchy capacity = l * (W - b1).
      const std::size_t word_bits =
          f.num_words() > 0 ? f.memory_bits() / f.num_words() : 0;
      const std::size_t hier_capacity =
          word_bits > f.b1() ? f.num_words() * (word_bits - f.b1()) : 0;
      std::size_t hier_used = 0;
      for (std::size_t u = 0; u < s.hierarchy_histogram.size(); ++u) {
        hier_used += u * s.hierarchy_histogram[u];
      }
      if (hier_capacity > 0) {
        s.hierarchy_utilization = static_cast<double>(hier_used) /
                                  static_cast<double>(hier_capacity);
      }
    }

    std::uint64_t overflow = 0;
    if constexpr (requires { f.overflow_events(); }) {
      overflow = f.overflow_events();
    } else if constexpr (requires { f.saturations(); }) {
      overflow = f.saturations();
    }
    const std::uint64_t attempts = s.elements + overflow;
    if (attempts > 0) {
      s.overflow_rate =
          static_cast<double>(overflow) / static_cast<double>(attempts);
    }

    if constexpr (requires { f.stash_size(); }) {
      if (s.elements > 0) {
        s.stash_pressure = static_cast<double>(f.stash_size()) /
                           static_cast<double>(s.elements);
      } else if (f.stash_size() > 0) {
        s.stash_pressure = 1.0;
      }
    }

    if constexpr (requires { f.model_fpr(); }) {
      // Composite filters (ElasticMpcbf) know their own closed-form
      // bound — a chain's FPR is not the flat formula over summed
      // layout numbers.
      s.predicted_fpr = f.model_fpr();
      s.measured_fpr = measure_fpr(f);
      s.fpr_drift = s.measured_fpr - s.predicted_fpr;
    } else if constexpr (requires {
                           f.num_words();
                           f.b1();
                           f.k();
                           f.g();
                         }) {
      s.predicted_fpr = model::fpr_mpcbf_g(s.elements, f.num_words(),
                                           f.b1(), f.k(), f.g());
      s.measured_fpr = measure_fpr(f);
      s.fpr_drift = s.measured_fpr - s.predicted_fpr;
    }

    // Every component above guards its denominator, but keep the gauge
    // contract (finite values only — a NaN would poison the Prometheus
    // export and every comparison downstream) robust against filters
    // with odd duck-typed accessors: scrub non-finite ratios to 0.
    s.level1_fill = finite_or_zero(s.level1_fill);
    s.hierarchy_utilization = finite_or_zero(s.hierarchy_utilization);
    s.stash_pressure = finite_or_zero(s.stash_pressure);
    s.overflow_rate = finite_or_zero(s.overflow_rate);
    s.predicted_fpr = finite_or_zero(s.predicted_fpr);
    s.measured_fpr = finite_or_zero(s.measured_fpr);
    s.fpr_drift = finite_or_zero(s.fpr_drift);

    const double worst =
        std::max({s.level1_fill, s.hierarchy_utilization,
                  std::min(1.0, s.stash_pressure),
                  std::min(1.0, s.overflow_rate)});
    s.saturation_score = 100.0 * std::clamp(worst, 0.0, 1.0);
    s.severity = s.saturation_score >= cfg_.critical_score
                     ? Severity::kCritical
                 : s.saturation_score >= cfg_.warn_score ? Severity::kWarn
                                                         : Severity::kOk;
    return s;
  }

 private:
  [[nodiscard]] static double finite_or_zero(double v) noexcept {
    return std::isfinite(v) ? v : 0.0;
  }

  /// Empirical FPR: queries cfg_.fpr_probes synthetic keys drawn from a
  /// namespace no workload generator uses; every positive is (with
  /// overwhelming probability) a false positive.
  template <typename Filter>
  [[nodiscard]] double measure_fpr(const Filter& f) const {
    if (cfg_.fpr_probes == 0) return 0.0;
    std::uint64_t positives = 0;
    std::string key;
    for (std::size_t i = 0; i < cfg_.fpr_probes; ++i) {
      key = "\x01mpcbf-health-probe/";
      key += std::to_string(cfg_.probe_seed ^ (i * 0x2545f4914f6cdd1dull));
      if (f.contains(key)) ++positives;
    }
    return static_cast<double>(positives) /
           static_cast<double>(cfg_.fpr_probes);
  }

  void publish(const HealthSample& s) const {
    if (cfg_.registry == nullptr) return;
    Registry& reg = *cfg_.registry;
    const std::string& label = cfg_.filter_label;
    reg.gauge("mpcbf_health_level1_fill",
              "Fraction of level-1 counter positions that are non-zero",
              {{"filter", label}})
        .set(s.level1_fill);
    reg.gauge("mpcbf_health_hierarchy_utilization",
              "Hierarchy bits consumed / hierarchy bits available",
              {{"filter", label}})
        .set(s.hierarchy_utilization);
    reg.gauge("mpcbf_health_stash_pressure",
              "Stash entries per live element", {{"filter", label}})
        .set(s.stash_pressure);
    reg.gauge("mpcbf_health_overflow_rate",
              "Overflow events / attempted inserts", {{"filter", label}})
        .set(s.overflow_rate);
    reg.gauge("mpcbf_health_fpr_predicted",
              "Model FPR (eq. 8/9) at current cardinality",
              {{"filter", label}})
        .set(s.predicted_fpr);
    reg.gauge("mpcbf_health_fpr_measured",
              "Empirical FPR from never-inserted probe keys",
              {{"filter", label}})
        .set(s.measured_fpr);
    reg.gauge("mpcbf_health_fpr_drift",
              "Measured minus predicted FPR", {{"filter", label}})
        .set(s.fpr_drift);
    reg.gauge("mpcbf_health_saturation_score",
              "0-100 saturation score (100 x worst component)",
              {{"filter", label}})
        .set(s.saturation_score);
    reg.gauge("mpcbf_health_elements", "Elements at sample time",
              {{"filter", label}})
        .set(static_cast<double>(s.elements));
    // Per-word hierarchy occupancy, bucketed; everything past the last
    // individual bucket collapses into "N+" so the series count stays
    // bounded for any word geometry.
    constexpr std::size_t kIndividualBuckets = 8;
    const auto& hist = s.hierarchy_histogram;
    for (std::size_t u = 0; u < std::min(hist.size(), kIndividualBuckets);
         ++u) {
      reg.gauge("mpcbf_health_hierarchy_words",
                "Words by hierarchy bits in use",
                {{"filter", label}, {"used", std::to_string(u)}})
          .set(static_cast<double>(hist[u]));
    }
    if (hist.size() > kIndividualBuckets) {
      std::size_t tail = 0;
      for (std::size_t u = kIndividualBuckets; u < hist.size(); ++u) {
        tail += hist[u];
      }
      reg.gauge("mpcbf_health_hierarchy_words",
                "Words by hierarchy bits in use",
                {{"filter", label},
                 {"used", std::to_string(kIndividualBuckets) + "+"}})
          .set(static_cast<double>(tail));
    }
  }

  Config cfg_;
  std::atomic<std::uint64_t> alarms_total_{0};
  std::thread worker_;
  std::mutex watch_mu_;
  std::condition_variable watch_cv_;
  bool stop_requested_ = false;
};

}  // namespace mpcbf::metrics
