// HeavyHitterSketch: conservative estimates, threshold admission, top-k
// ordering, decay via deletion, and recall against exact ground truth on
// a skewed stream.
#include <gtest/gtest.h>

#include <string>
#include <unordered_map>
#include <vector>

#include "apps/heavy_hitters.hpp"
#include "common/rng.hpp"
#include "workload/flow_trace.hpp"

namespace {

using mpcbf::apps::HeavyHitterSketch;

HeavyHitterSketch::Config small_config() {
  HeavyHitterSketch::Config cfg;
  cfg.memory_bits = 1 << 18;
  cfg.expected_distinct = 2000;
  cfg.threshold = 5;
  return cfg;
}

TEST(HeavyHitters, EstimatesNeverUndercount) {
  HeavyHitterSketch sketch(small_config());
  std::unordered_map<std::string, std::uint64_t> exact;
  mpcbf::util::Xoshiro256 rng(501);
  for (int i = 0; i < 20000; ++i) {
    // Skewed stream: low ids much hotter.
    const auto id = static_cast<std::uint64_t>(
        rng.uniform01() * rng.uniform01() * 500);
    const std::string key = std::string("k").append(std::to_string(id));
    sketch.add(key);
    ++exact[key];
  }
  for (const auto& h : sketch.top(50)) {
    ASSERT_GE(h.estimate, exact[h.key]) << h.key;
  }
  EXPECT_EQ(sketch.total_occurrences(), 20000u);
}

TEST(HeavyHitters, FindsTheActualHitters) {
  HeavyHitterSketch::Config cfg = small_config();
  cfg.threshold = 50;
  HeavyHitterSketch sketch(cfg);
  // Three known heavy keys in a sea of singletons.
  for (int i = 0; i < 500; ++i) sketch.add("elephant-1");
  for (int i = 0; i < 300; ++i) sketch.add("elephant-2");
  for (int i = 0; i < 100; ++i) sketch.add("elephant-3");
  for (int i = 0; i < 5000; ++i) {
    sketch.add(std::string("mouse-").append(std::to_string(i)));
  }
  const auto top = sketch.top(3);
  ASSERT_EQ(top.size(), 3u);
  EXPECT_EQ(top[0].key, "elephant-1");
  EXPECT_EQ(top[1].key, "elephant-2");
  EXPECT_EQ(top[2].key, "elephant-3");
  EXPECT_GE(top[0].estimate, 500u);
}

TEST(HeavyHitters, BelowThresholdNotAdmitted) {
  HeavyHitterSketch::Config cfg = small_config();
  cfg.threshold = 10;
  HeavyHitterSketch sketch(cfg);
  for (int i = 0; i < 9; ++i) sketch.add("warm");
  EXPECT_EQ(sketch.candidate_count(), 0u);
  sketch.add("warm");
  EXPECT_GE(sketch.candidate_count(), 1u);
}

TEST(HeavyHitters, DecayEvictsCooledKeys) {
  HeavyHitterSketch::Config cfg = small_config();
  cfg.threshold = 10;
  HeavyHitterSketch sketch(cfg);
  for (int i = 0; i < 20; ++i) sketch.add("hot");
  ASSERT_GE(sketch.candidate_count(), 1u);
  for (int i = 0; i < 15; ++i) sketch.remove("hot");
  // Estimate now below threshold: candidate evicted.
  EXPECT_EQ(sketch.candidate_count(), 0u);
  EXPECT_EQ(sketch.total_occurrences(), 5u);
}

TEST(HeavyHitters, TopIsSortedAndBounded) {
  HeavyHitterSketch::Config cfg = small_config();
  cfg.threshold = 2;
  HeavyHitterSketch sketch(cfg);
  for (int k = 1; k <= 20; ++k) {
    for (int i = 0; i < k * 3; ++i) {
      sketch.add(std::string("key-").append(std::to_string(k)));
    }
  }
  const auto top = sketch.top(5);
  ASSERT_EQ(top.size(), 5u);
  for (std::size_t i = 1; i < top.size(); ++i) {
    EXPECT_GE(top[i - 1].estimate, top[i].estimate);
  }
  EXPECT_EQ(top[0].key, "key-20");
}

TEST(HeavyHitters, WorksOnFlowTrace) {
  mpcbf::workload::FlowTraceConfig tcfg;
  tcfg.total_packets = 60000;
  tcfg.unique_flows = 5000;
  tcfg.seed = 502;
  const auto trace = mpcbf::workload::FlowTrace::generate(tcfg);

  HeavyHitterSketch::Config cfg;
  cfg.memory_bits = tcfg.unique_flows * 64;
  cfg.expected_distinct = tcfg.unique_flows;
  cfg.threshold = 40;
  HeavyHitterSketch sketch(cfg);

  std::unordered_map<std::uint64_t, std::uint64_t> exact;
  for (std::size_t i = 0; i < trace.packets().size(); ++i) {
    sketch.add(trace.packet_key(i));
    ++exact[trace.packets()[i]];
  }
  // Every flow above 2x threshold must be among the candidates (the
  // sketch never undercounts, so it cannot miss them).
  std::size_t big = 0;
  for (const auto& [flow, count] : exact) {
    if (count >= 2 * cfg.threshold) ++big;
  }
  ASSERT_GT(big, 0u);
  EXPECT_GE(sketch.candidate_count(), big);
}

}  // namespace
