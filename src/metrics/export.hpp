// Publishes instance-local stats (AccessStats, filter event counters)
// into a metrics::Registry as labelled series — the bridge between the
// per-filter accounting every filter already carries and the
// process-wide Prometheus export.
//
// Filters stay registry-free on their hot paths (bench loops construct
// thousands of short-lived filters; registering each would leak series
// and serialize construction on the registry mutex). Instead a caller
// that wants export — mpcbf_tool stats, a serving layer's scrape
// handler — snapshots the filter into the registry under a `filter`
// label right before dumping. Counters are cumulative adds, so publish
// once per registry lifetime (or Registry::reset() between publishes).
#pragma once

#include <string>
#include <string_view>

#include "metrics/access_stats.hpp"
#include "metrics/registry.hpp"

namespace mpcbf::metrics {

/// Adds an AccessStats snapshot to `reg` as the filter-layer series
/// (ops/words/bits per op class + latency histograms).
inline void publish_access_stats(Registry& reg, std::string_view filter,
                                 const AccessStats& stats) {
  for (unsigned i = 0; i < kNumOpClasses; ++i) {
    const auto c = static_cast<OpClass>(i);
    const auto op = op_label(c);
    reg.counter("mpcbf_filter_ops_total", "Filter operations by class",
                {{"filter", filter}, {"op", op}})
        .inc(stats.ops(c));
    reg.counter("mpcbf_filter_words_touched_total",
                "Distinct memory words touched by filter operations",
                {{"filter", filter}, {"op", op}})
        .inc(stats.words(c));
    reg.counter("mpcbf_filter_hash_bits_total",
                "Accounted hash bits (access bandwidth) consumed",
                {{"filter", filter}, {"op", op}})
        .inc(stats.bits(c));
    reg.histogram("mpcbf_filter_op_duration_ns",
                  "Sampled per-operation latency in nanoseconds",
                  {{"filter", filter}, {"op", op}})
        .merge(stats.latency(c));
  }
  reg.histogram("mpcbf_filter_batch_query_duration_ns",
                "Per-key average latency of batch-query chunks (ns)",
                {{"filter", filter}})
      .merge(stats.batch_latency());
}

/// Publishes a filter's stats plus whichever structural/event metrics
/// the concrete type exposes (size, memory, overflow/underflow events,
/// stash occupancy). Works with Mpcbf, its durable, elastic and decaying
/// wrappers and the baseline filters — members are probed, not required.
template <typename Filter>
void publish_filter(Registry& reg, std::string_view label,
                    const Filter& f) {
  if constexpr (requires { f.stats(); }) {
    publish_access_stats(reg, label, f.stats());
  }
  if constexpr (requires { f.size(); }) {
    reg.gauge("mpcbf_filter_elements", "Elements currently represented",
              {{"filter", label}})
        .set(static_cast<double>(f.size()));
  }
  if constexpr (requires { f.memory_bits(); }) {
    reg.gauge("mpcbf_filter_memory_bits", "Configured filter memory",
              {{"filter", label}})
        .set(static_cast<double>(f.memory_bits()));
  }
  if constexpr (requires { f.overflow_events(); }) {
    reg.counter("mpcbf_filter_overflow_events_total",
                "Word-capacity overflows on insert", {{"filter", label}})
        .inc(f.overflow_events());
  }
  if constexpr (requires { f.underflow_events(); }) {
    reg.counter("mpcbf_filter_underflow_events_total",
                "Counter underflows on contract-violating deletes",
                {{"filter", label}})
        .inc(f.underflow_events());
  }
  if constexpr (requires { f.stash_size(); }) {
    reg.gauge("mpcbf_filter_stash_entries",
              "Elements diverted to the overflow stash",
              {{"filter", label}})
        .set(static_cast<double>(f.stash_size()));
  }
}

}  // namespace mpcbf::metrics
