// Observability primitives: histogram bucketing/quantile bracketing
// properties, registry series semantics, Prometheus exposition format,
// and the AccessStats adapter's aggregate operations.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "metrics/access_stats.hpp"
#include "metrics/export.hpp"
#include "metrics/histogram.hpp"
#include "metrics/registry.hpp"
#include "metrics/timer.hpp"

namespace {

using mpcbf::metrics::AccessStats;
using mpcbf::metrics::Histogram;
using mpcbf::metrics::OpClass;
using mpcbf::metrics::Registry;

TEST(Histogram, BucketIndexRoundTrips) {
  // Every value maps to a bucket whose [implied lower, upper] range
  // contains it, and bucket_upper is the largest value in the bucket.
  for (std::uint64_t v :
       {0ull, 1ull, 2ull, 3ull, 4ull, 5ull, 7ull, 8ull, 100ull, 1023ull,
        1024ull, 123456789ull, ~0ull}) {
    const unsigned i = Histogram::bucket_index(v);
    ASSERT_LT(i, Histogram::kNumBuckets);
    EXPECT_LE(v, Histogram::bucket_upper(i)) << v;
    EXPECT_EQ(Histogram::bucket_index(Histogram::bucket_upper(i)), i) << v;
    if (i > 0) {
      EXPECT_GT(v, Histogram::bucket_upper(i - 1)) << v;
    }
  }
}

TEST(Histogram, BucketWidthBounded) {
  // Sub-bucketing keeps the upper bound within 25% of the lower bound,
  // which is what bounds the quantile overestimate. Indices 4..7 are the
  // dead zone between exact and octave buckets, so start at 8.
  for (unsigned i = 8; i + 1 < Histogram::kNumBuckets; ++i) {
    const std::uint64_t lower = Histogram::bucket_upper(i - 1) + 1;
    const std::uint64_t upper = Histogram::bucket_upper(i);
    EXPECT_LE(upper - lower, lower / 4) << "bucket " << i;
  }
}

TEST(Histogram, QuantileBracketsTrueQuantile) {
  // Property: against a reference sorted sample set, quantile(q) is
  // >= the true rank-⌈q·n⌉ sample and <= 25% above it (clamped to max).
  std::mt19937_64 rng(42);
  std::lognormal_distribution<double> dist(6.0, 2.0);
  Histogram h;
  std::vector<std::uint64_t> samples;
  for (int i = 0; i < 20000; ++i) {
    const auto v = static_cast<std::uint64_t>(dist(rng));
    samples.push_back(v);
    h.record(v);
  }
  std::sort(samples.begin(), samples.end());
  for (double q : {0.0, 0.01, 0.25, 0.5, 0.9, 0.95, 0.99, 0.999, 1.0}) {
    auto rank = static_cast<std::uint64_t>(
        q * static_cast<double>(samples.size()));
    if (rank < 1) rank = 1;
    if (rank > samples.size()) rank = samples.size();
    const std::uint64_t truth = samples[rank - 1];
    const std::uint64_t est = h.quantile(q);
    EXPECT_GE(est, truth) << "q=" << q;
    EXPECT_LE(est, truth + truth / 4 + 1) << "q=" << q;
    EXPECT_LE(est, h.max()) << "q=" << q;
  }
}

TEST(Histogram, CountSumMaxMeanMerge) {
  Histogram a;
  a.record(10);
  a.record(20);
  a.record(30);
  EXPECT_EQ(a.count(), 3u);
  EXPECT_EQ(a.sum(), 60u);
  EXPECT_EQ(a.max(), 30u);
  EXPECT_DOUBLE_EQ(a.mean(), 20.0);

  Histogram b;
  b.record(1000);
  b.merge(a);
  EXPECT_EQ(b.count(), 4u);
  EXPECT_EQ(b.sum(), 1060u);
  EXPECT_EQ(b.max(), 1000u);

  b.reset();
  EXPECT_EQ(b.count(), 0u);
  EXPECT_EQ(b.quantile(0.5), 0u);
}

TEST(Histogram, ConcurrentRecordingLosesNothing) {
  Histogram h;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 50000;
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&h, t] {
      for (int i = 0; i < kPerThread; ++i) {
        h.record(static_cast<std::uint64_t>(t * kPerThread + i));
      }
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_EQ(h.count(),
            static_cast<std::uint64_t>(kThreads) * kPerThread);
  EXPECT_EQ(h.max(),
            static_cast<std::uint64_t>(kThreads) * kPerThread - 1);
}

TEST(Registry, CountersGaugesAndLabels) {
  Registry reg;
  auto& c = reg.counter("test_ops_total", "ops", {{"kind", "a"}});
  c.inc();
  c.inc(4);
  EXPECT_EQ(c.value(), 5u);
  // Same name+labels returns the same cell; different labels a new one.
  EXPECT_EQ(&reg.counter("test_ops_total", "", {{"kind", "a"}}), &c);
  auto& c2 = reg.counter("test_ops_total", "", {{"kind", "b"}});
  EXPECT_NE(&c2, &c);
  EXPECT_EQ(c2.value(), 0u);
  // Label order must not matter (canonicalized sorted).
  auto& c3 = reg.counter("test_multi_total", "",
                         {{"x", "1"}, {"y", "2"}});
  auto& c4 = reg.counter("test_multi_total", "",
                         {{"y", "2"}, {"x", "1"}});
  EXPECT_EQ(&c3, &c4);

  auto& g = reg.gauge("test_gauge", "g");
  g.set(2.5);
  g.add(0.5);
  EXPECT_DOUBLE_EQ(g.value(), 3.0);
  EXPECT_EQ(reg.series_count(), 4u);
}

TEST(Registry, TypeCollisionThrows) {
  Registry reg;
  reg.counter("test_name");
  EXPECT_THROW(reg.gauge("test_name"), std::logic_error);
  EXPECT_THROW(reg.histogram("test_name"), std::logic_error);
}

TEST(Registry, PrometheusExposition) {
  Registry reg;
  reg.counter("demo_total", "A demo counter", {{"op", "read"}}).inc(7);
  reg.gauge("demo_gauge", "A demo gauge").set(1.5);
  auto& h = reg.histogram("demo_ns", "A demo histogram");
  h.record(5);
  h.record(500);

  std::ostringstream os;
  reg.write_prometheus(os);
  const std::string text = os.str();

  EXPECT_NE(text.find("# HELP demo_total A demo counter"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE demo_total counter"), std::string::npos);
  EXPECT_NE(text.find("demo_total{op=\"read\"} 7"), std::string::npos);
  EXPECT_NE(text.find("# TYPE demo_gauge gauge"), std::string::npos);
  EXPECT_NE(text.find("demo_gauge 1.5"), std::string::npos);
  EXPECT_NE(text.find("# TYPE demo_ns histogram"), std::string::npos);
  EXPECT_NE(text.find("demo_ns_bucket{le=\"+Inf\"} 2"), std::string::npos);
  EXPECT_NE(text.find("demo_ns_sum 505"), std::string::npos);
  EXPECT_NE(text.find("demo_ns_count 2"), std::string::npos);

  // Exposition-format sanity: every non-comment line is `name{...} value`
  // with a parseable numeric value.
  std::istringstream lines(text);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.empty() || line[0] == '#') continue;
    const auto space = line.rfind(' ');
    ASSERT_NE(space, std::string::npos) << line;
    EXPECT_NO_THROW({ (void)std::stod(line.substr(space + 1)); }) << line;
  }
}

TEST(Registry, LabelValueEscaping) {
  Registry reg;
  reg.counter("esc_total", "", {{"path", "a\"b\\c\nd"}}).inc();
  std::ostringstream os;
  reg.write_prometheus(os);
  EXPECT_NE(os.str().find("esc_total{path=\"a\\\"b\\\\c\\nd\"} 1"),
            std::string::npos);
}

TEST(Registry, LabeledFamilyExportsOneHeaderManySeries) {
  // The per-namespace export pattern: one family, one series per
  // tenant. The exposition must carry exactly one HELP/TYPE pair for
  // the family with every labeled series grouped under it — a second
  // TYPE line (or a series separated from its header) trips Prometheus
  // ingestion and scripts/check_prometheus.py.
  Registry reg;
  reg.gauge("ns_elements", "Elements per namespace", {{"ns", "sessions"}})
      .set(3);
  reg.gauge("ns_elements", "Elements per namespace", {{"ns", "urls"}})
      .set(7);
  reg.counter("ns_ticks_total", "Ticks", {{"ns", "sessions"}}).inc(2);
  std::ostringstream os;
  reg.write_prometheus(os);
  const std::string text = os.str();

  std::size_t type_lines = 0;
  for (std::size_t pos = 0;
       (pos = text.find("# TYPE ns_elements ", pos)) != std::string::npos;
       ++pos) {
    ++type_lines;
  }
  EXPECT_EQ(type_lines, 1u);
  const auto type_at = text.find("# TYPE ns_elements gauge");
  const auto s1 = text.find("ns_elements{ns=\"sessions\"} 3");
  const auto s2 = text.find("ns_elements{ns=\"urls\"} 7");
  ASSERT_NE(type_at, std::string::npos);
  ASSERT_NE(s1, std::string::npos);
  ASSERT_NE(s2, std::string::npos);
  // Both series sit in the family's block: after its TYPE line and
  // before whatever family header comes next (counters export before
  // gauges, so the block's end may also be the end of the text).
  auto block_end = text.find("# HELP ", type_at + 1);
  if (block_end == std::string::npos) block_end = text.size();
  EXPECT_GT(s1, type_at);
  EXPECT_LT(s1, block_end);
  EXPECT_GT(s2, type_at);
  EXPECT_LT(s2, block_end);
  EXPECT_NE(text.find("ns_ticks_total{ns=\"sessions\"} 2"),
            std::string::npos);
}

TEST(Registry, RepublishedLabeledCountersStayMonotonic) {
  // NamespaceRegistry republishes cumulative per-tenant counters every
  // ticker period with `if (cum > value) inc(cum - value)`. Lock the
  // idempotence of that pattern: re-publishing an unchanged cumulative
  // must not inflate the series.
  Registry reg;
  const auto publish = [&](std::uint64_t cum) {
    auto& c = reg.counter("ns_rejects_total", "", {{"ns", "a"}});
    if (cum > c.value()) c.inc(cum - c.value());
  };
  publish(5);
  publish(5);
  publish(5);
  EXPECT_EQ(reg.counter("ns_rejects_total", "", {{"ns", "a"}}).value(),
            5u);
  publish(9);
  EXPECT_EQ(reg.counter("ns_rejects_total", "", {{"ns", "a"}}).value(),
            9u);
}

TEST(Registry, RejectsInvalidMetricNames) {
  Registry reg;
  // Valid per the Prometheus grammar [a-zA-Z_:][a-zA-Z0-9_:]*.
  EXPECT_NO_THROW(reg.counter("good_name_total"));
  EXPECT_NO_THROW(reg.counter("_leading_underscore"));
  EXPECT_NO_THROW(reg.counter(":colon:name"));
  EXPECT_NO_THROW(reg.counter("name2_with_digits9"));
  // Invalid: empty, leading digit, hyphens/dots/spaces/unicode.
  EXPECT_THROW(reg.counter(""), std::invalid_argument);
  EXPECT_THROW(reg.counter("9starts_with_digit"), std::invalid_argument);
  EXPECT_THROW(reg.counter("has-hyphen"), std::invalid_argument);
  EXPECT_THROW(reg.counter("has.dot"), std::invalid_argument);
  EXPECT_THROW(reg.counter("has space"), std::invalid_argument);
  EXPECT_THROW(reg.gauge("naïve"), std::invalid_argument);
  EXPECT_THROW(reg.histogram("bad{label}"), std::invalid_argument);
  // A rejected name must not leave a half-registered family behind.
  std::ostringstream os;
  reg.write_prometheus(os);
  EXPECT_EQ(os.str().find("has-hyphen"), std::string::npos);
}

TEST(Histogram, QuantileMonotoneAtBucketEdges) {
  // Feed values straddling bucket boundaries and assert quantile(q) is
  // non-decreasing in q — bucket-edge rounding must never invert ranks.
  Histogram h;
  for (unsigned i = 0; i + 1 < Histogram::kNumBuckets && i < 40; ++i) {
    const std::uint64_t upper = Histogram::bucket_upper(i);
    h.record(upper);             // last value of bucket i
    h.record(upper + 1);         // first value of bucket i+1
  }
  std::uint64_t prev = 0;
  for (double q = 0.0; q <= 1.0; q += 0.01) {
    const std::uint64_t est = h.quantile(q);
    EXPECT_GE(est, prev) << "q=" << q;
    prev = est;
  }
  EXPECT_LE(prev, h.max());
}

TEST(Registry, ResetZeroesButKeepsSeries) {
  Registry reg;
  reg.counter("r_total").inc(3);
  reg.histogram("r_ns").record(9);
  reg.reset();
  EXPECT_EQ(reg.series_count(), 2u);
  EXPECT_EQ(reg.counter("r_total").value(), 0u);
  std::ostringstream os;
  reg.write_prometheus(os);
  EXPECT_NE(os.str().find("r_total 0"), std::string::npos);
}

TEST(AccessStatsAdapter, RecordNMatchesRecordLoop) {
  AccessStats a;
  AccessStats b;
  for (int i = 0; i < 10; ++i) a.record(OpClass::kInsert, 2, 17);
  b.record_n(OpClass::kInsert, 10, 20, 170);
  EXPECT_EQ(a.ops(OpClass::kInsert), b.ops(OpClass::kInsert));
  EXPECT_EQ(a.words(OpClass::kInsert), b.words(OpClass::kInsert));
  EXPECT_EQ(a.bits(OpClass::kInsert), b.bits(OpClass::kInsert));
  EXPECT_DOUBLE_EQ(a.mean_update_bandwidth(), b.mean_update_bandwidth());
}

TEST(AccessStatsAdapter, PublishesIntoRegistry) {
  AccessStats s;
  s.record(OpClass::kQueryNegative, 1, 11);
  s.record(OpClass::kInsert, 2, 22);
  s.record_latency(OpClass::kInsert, 1234);
  Registry reg;
  mpcbf::metrics::publish_access_stats(reg, "unit", s);
  std::ostringstream os;
  reg.write_prometheus(os);
  const std::string text = os.str();
  EXPECT_NE(
      text.find(
          "mpcbf_filter_ops_total{filter=\"unit\",op=\"query_negative\"} 1"),
      std::string::npos);
  EXPECT_NE(
      text.find(
          "mpcbf_filter_hash_bits_total{filter=\"unit\",op=\"insert\"} 22"),
      std::string::npos);
  EXPECT_NE(text.find("mpcbf_filter_op_duration_ns_count{filter=\"unit\","
                      "op=\"insert\"} 1"),
            std::string::npos);
}

TEST(AccessStatsAdapter, SamplingTicks) {
  AccessStats s;
  unsigned sampled = 0;
  for (std::uint64_t i = 0; i < 2 * mpcbf::metrics::kLatencySampleEvery;
       ++i) {
    sampled += s.should_sample() ? 1 : 0;
  }
  EXPECT_EQ(sampled, 2u);
}

}  // namespace
