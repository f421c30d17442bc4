// Mpcbf container: construction contracts, no-false-negative guarantees,
// delete round-trips, multiplicity estimates, overflow policies, churn
// stability, and cross-width/g parameter sweeps.
#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "core/mpcbf.hpp"
#include "workload/string_sets.hpp"

namespace {

using mpcbf::core::Mpcbf;
using mpcbf::core::MpcbfConfig;
using mpcbf::core::OverflowPolicy;
using mpcbf::util::Xoshiro256;
using mpcbf::workload::build_query_set;
using mpcbf::workload::generate_unique_strings;

TEST(Mpcbf, ConstructionValidation) {
  MpcbfConfig cfg;
  cfg.memory_bits = 1 << 16;
  cfg.expected_n = 1000;

  cfg.k = 0;
  EXPECT_THROW(Mpcbf<64>{cfg}, std::invalid_argument);
  cfg.k = 3;
  cfg.g = 4;  // g > k
  EXPECT_THROW(Mpcbf<64>{cfg}, std::invalid_argument);
  cfg.g = 1;
  cfg.memory_bits = 32;  // smaller than one 64-bit word
  EXPECT_THROW(Mpcbf<64>{cfg}, std::invalid_argument);
  cfg.memory_bits = 1 << 16;
  cfg.expected_n = 0;  // neither expected_n nor n_max
  EXPECT_THROW(Mpcbf<64>{cfg}, std::invalid_argument);
  cfg.n_max = 40;  // 3*40 = 120 > 64: no first-level bits left
  EXPECT_THROW(Mpcbf<64>{cfg}, std::invalid_argument);

  cfg.n_max = 10;
  Mpcbf<64> ok(cfg);
  EXPECT_EQ(ok.b1(), 64u - 3u * 10u);
  EXPECT_EQ(ok.num_words(), (1u << 16) / 64);
}

TEST(Mpcbf, HeuristicNmaxMatchesModel) {
  auto f = Mpcbf<64>::with_memory(1 << 20, 3, 1, 10000);
  EXPECT_EQ(f.n_max(),
            mpcbf::model::n_max_heuristic(10000, (1 << 20) / 64, 1));
  EXPECT_EQ(f.b1(), 64 - 3 * f.n_max());
}

TEST(Mpcbf, InsertThenContains) {
  auto f = Mpcbf<64>::with_memory(1 << 18, 3, 1, 2000);
  EXPECT_FALSE(f.contains("alpha"));
  EXPECT_TRUE(f.insert("alpha"));
  EXPECT_TRUE(f.contains("alpha"));
  EXPECT_EQ(f.size(), 1u);
}

TEST(Mpcbf, NoFalseNegatives) {
  const auto keys = generate_unique_strings(5000, 5, 42);
  auto f = Mpcbf<64>::with_memory(1 << 19, 3, 1, keys.size());
  for (const auto& k : keys) {
    ASSERT_TRUE(f.insert(k));
  }
  for (const auto& k : keys) {
    ASSERT_TRUE(f.contains(k)) << k;
  }
  EXPECT_TRUE(f.validate());
}

TEST(Mpcbf, EraseRestoresEmptyFilter) {
  const auto keys = generate_unique_strings(3000, 5, 7);
  // Explicit n_max with headroom: the test demands zero rejections, while
  // the eq.-(11) heuristic tolerates ~one overflowing word per filter.
  MpcbfConfig cfg;
  cfg.memory_bits = 1 << 18;
  cfg.k = 3;
  cfg.g = 1;
  cfg.n_max = 10;
  Mpcbf<64> f(cfg);
  for (const auto& k : keys) {
    ASSERT_TRUE(f.insert(k));
  }
  for (const auto& k : keys) {
    ASSERT_TRUE(f.erase(k));
  }
  EXPECT_EQ(f.size(), 0u);
  EXPECT_EQ(f.total_hierarchy_bits(), 0u);
  for (std::size_t w = 0; w < f.num_words(); ++w) {
    ASSERT_EQ(f.word(w).count(), 0u) << "word " << w << " not empty";
  }
  EXPECT_TRUE(f.validate());
}

TEST(Mpcbf, CountTracksMultiplicity) {
  // Repeated inserts of one key stack k increments in a single word, so
  // the capacity must cover the multiplicity, not just distinct keys.
  MpcbfConfig mcfg;
  mcfg.memory_bits = 1 << 16;
  mcfg.k = 3;
  mcfg.g = 1;
  mcfg.n_max = 10;
  Mpcbf<64> f(mcfg);
  EXPECT_EQ(f.count("dup"), 0u);
  ASSERT_TRUE(f.insert("dup"));
  ASSERT_TRUE(f.insert("dup"));
  ASSERT_TRUE(f.insert("dup"));
  EXPECT_GE(f.count("dup"), 3u);  // >= : collisions may inflate
  ASSERT_TRUE(f.erase("dup"));
  EXPECT_GE(f.count("dup"), 2u);
  ASSERT_TRUE(f.erase("dup"));
  ASSERT_TRUE(f.erase("dup"));
  EXPECT_EQ(f.count("dup"), 0u);
}

TEST(Mpcbf, EraseOfAbsentKeyReportsUnderflow) {
  auto f = Mpcbf<64>::with_memory(1 << 16, 3, 1, 100);
  EXPECT_FALSE(f.erase("never-inserted"));
  EXPECT_GT(f.underflow_events(), 0u);
}

TEST(Mpcbf, RejectPolicyKeepsFilterConsistent) {
  // One word, tiny capacity: n_max=2 with k=3 -> b1=58, 6 hierarchy bits.
  MpcbfConfig cfg;
  cfg.memory_bits = 64;
  cfg.k = 3;
  cfg.g = 1;
  cfg.n_max = 2;
  cfg.policy = OverflowPolicy::kReject;
  Mpcbf<64> f(cfg);

  EXPECT_TRUE(f.insert("a"));
  EXPECT_TRUE(f.insert("b"));
  EXPECT_FALSE(f.insert("c"));  // third element cannot fit
  EXPECT_EQ(f.overflow_events(), 1u);
  EXPECT_TRUE(f.contains("a"));
  EXPECT_TRUE(f.contains("b"));
  EXPECT_TRUE(f.validate());
  EXPECT_EQ(f.size(), 2u);
}

TEST(Mpcbf, ThrowPolicyThrows) {
  MpcbfConfig cfg;
  cfg.memory_bits = 64;
  cfg.k = 3;
  cfg.g = 1;
  cfg.n_max = 1;
  cfg.policy = OverflowPolicy::kThrow;
  Mpcbf<64> f(cfg);
  EXPECT_TRUE(f.insert("a"));
  EXPECT_THROW((void)f.insert("b"), std::overflow_error);
}

TEST(Mpcbf, StashPolicyNeverLosesElements) {
  MpcbfConfig cfg;
  cfg.memory_bits = 64 * 4;
  cfg.k = 3;
  cfg.g = 1;
  cfg.n_max = 2;
  cfg.policy = OverflowPolicy::kStash;
  Mpcbf<64> f(cfg);

  const auto keys = generate_unique_strings(40, 6, 3);
  for (const auto& k : keys) {
    ASSERT_TRUE(f.insert(k));  // stash absorbs what the words cannot
  }
  EXPECT_GT(f.stash_size(), 0u);
  for (const auto& k : keys) {
    ASSERT_TRUE(f.contains(k)) << k;
  }
  for (const auto& k : keys) {
    ASSERT_TRUE(f.erase(k)) << k;
  }
  EXPECT_EQ(f.size(), 0u);
  EXPECT_EQ(f.stash_size(), 0u);
}

// A query probes the stash only when the stash summary holds the key's
// first word (modulo its 4096 bits, so with 2^14 words several words
// share a bit). Every stashed key must still read positive, through
// scalar and batch queries, after a save/load (the summary is rebuilt)
// and after a merge (the summaries are joined).
TEST(Mpcbf, StashSummaryNeverHidesAStashedKey) {
  MpcbfConfig cfg;
  cfg.memory_bits = 64 << 14;
  cfg.k = 3;
  cfg.g = 1;
  cfg.n_max = 1;
  cfg.policy = OverflowPolicy::kStash;
  Mpcbf<64> f(cfg);
  const auto keys = generate_unique_strings(30000, 9, 41);
  for (const auto& k : keys) ASSERT_TRUE(f.insert(k));
  ASSERT_GT(f.stash_size(), 1000u);
  const auto all_positive = [&](const Mpcbf<64>& filter) {
    std::vector<std::uint8_t> out(keys.size());
    filter.contains_batch(keys, out);
    for (std::size_t i = 0; i < keys.size(); ++i) {
      if (out[i] != 1 || !filter.contains(keys[i]) ||
          filter.count(keys[i]) == 0) {
        return false;
      }
    }
    return true;
  };
  EXPECT_TRUE(all_positive(f));

  std::stringstream ss;
  f.save(ss);
  const Mpcbf<64> loaded = Mpcbf<64>::load(ss);
  EXPECT_TRUE(all_positive(loaded));

  Mpcbf<64> merged(cfg);
  ASSERT_TRUE(merged.merge(f));
  EXPECT_TRUE(all_positive(merged));

  for (const auto& k : keys) ASSERT_TRUE(f.erase(k));
  EXPECT_EQ(f.stash_size(), 0u);
  EXPECT_EQ(f.size(), 0u);
}

TEST(Mpcbf, ClearResetsEverything) {
  auto f = Mpcbf<64>::with_memory(1 << 16, 3, 2, 500);
  for (int i = 0; i < 100; ++i) {
    (void)f.insert("key" + std::to_string(i));
  }
  f.clear();
  EXPECT_EQ(f.size(), 0u);
  EXPECT_EQ(f.total_hierarchy_bits(), 0u);
  EXPECT_FALSE(f.contains("key0"));
  EXPECT_TRUE(f.validate());
}

TEST(Mpcbf, DeterministicAcrossInstances) {
  const auto keys = generate_unique_strings(500, 5, 11);
  auto f1 = Mpcbf<64>::with_memory(1 << 16, 4, 2, keys.size(), /*seed=*/99);
  auto f2 = Mpcbf<64>::with_memory(1 << 16, 4, 2, keys.size(), /*seed=*/99);
  for (const auto& k : keys) {
    f1.insert(k);
    f2.insert(k);
  }
  for (std::size_t w = 0; w < f1.num_words(); ++w) {
    ASSERT_EQ(f1.word(w), f2.word(w));
  }
}

TEST(Mpcbf, ShortCircuitDoesNotChangeAnswers) {
  const auto keys = generate_unique_strings(2000, 5, 5);
  const auto qs = build_query_set(keys, 6000, 0.5, 6);

  MpcbfConfig cfg;
  cfg.memory_bits = 1 << 17;
  cfg.k = 3;
  cfg.g = 2;
  cfg.expected_n = keys.size();
  cfg.short_circuit = true;
  Mpcbf<64> fast(cfg);
  cfg.short_circuit = false;
  Mpcbf<64> slow(cfg);

  for (const auto& k : keys) {
    fast.insert(k);
    slow.insert(k);
  }
  for (const auto& q : qs.queries) {
    ASSERT_EQ(fast.contains(q), slow.contains(q)) << q;
  }
  // But the short-circuiting instance must touch fewer or equal words.
  EXPECT_LE(fast.stats().mean_query_accesses(),
            slow.stats().mean_query_accesses());
}

// Parameter sweep: width x (k, g) combinations all satisfy the core
// contract (insert -> contains, erase-all -> empty).
struct SweepParams {
  unsigned k;
  unsigned g;
};

class MpcbfSweep : public ::testing::TestWithParam<SweepParams> {};

template <unsigned W>
void run_sweep(unsigned k, unsigned g) {
  const auto keys = generate_unique_strings(1200, 5, 1000 + k * 10 + g);
  MpcbfConfig cfg;
  cfg.memory_bits = 1 << 17;
  cfg.k = k;
  cfg.g = g;
  // Heuristic n_max plus headroom: the sweep asserts zero rejections.
  cfg.n_max = mpcbf::model::n_max_heuristic(keys.size(),
                                            cfg.memory_bits / W, g) +
              4;
  Mpcbf<W> f(cfg);

  for (const auto& key : keys) {
    ASSERT_TRUE(f.insert(key));
  }
  for (const auto& key : keys) {
    ASSERT_TRUE(f.contains(key));
  }
  ASSERT_TRUE(f.validate());
  for (const auto& key : keys) {
    ASSERT_TRUE(f.erase(key));
  }
  ASSERT_EQ(f.total_hierarchy_bits(), 0u);
  ASSERT_TRUE(f.validate());
}

TEST_P(MpcbfSweep, Width32) {
  if (GetParam().k / GetParam().g > 3) GTEST_SKIP() << "b1 too small at w=32";
  run_sweep<32>(GetParam().k, GetParam().g);
}
TEST_P(MpcbfSweep, Width64) { run_sweep<64>(GetParam().k, GetParam().g); }
TEST_P(MpcbfSweep, Width128) { run_sweep<128>(GetParam().k, GetParam().g); }
TEST_P(MpcbfSweep, Width256) { run_sweep<256>(GetParam().k, GetParam().g); }
TEST_P(MpcbfSweep, Width512) { run_sweep<512>(GetParam().k, GetParam().g); }

INSTANTIATE_TEST_SUITE_P(KG, MpcbfSweep,
                         ::testing::Values(SweepParams{3, 1}, SweepParams{3, 2},
                                           SweepParams{3, 3}, SweepParams{4, 1},
                                           SweepParams{4, 2}, SweepParams{5, 2},
                                           SweepParams{5, 3}, SweepParams{8, 4}));

// Churn property: random interleaved inserts/deletes against a ground-truth
// set; no false negatives at any point, structure valid throughout.
TEST(Mpcbf, ChurnAgainstGroundTruth) {
  auto pool = generate_unique_strings(4000, 6, 21);
  auto f = Mpcbf<64>::with_memory(1 << 18, 3, 1, 2000);
  std::set<std::string> live;
  Xoshiro256 rng(22);

  for (int it = 0; it < 20000; ++it) {
    const auto& key = pool[rng.bounded(pool.size())];
    if (rng.bounded(2) == 0) {
      if (f.insert(key)) live.insert(key);
    } else if (live.contains(key)) {
      ASSERT_TRUE(f.erase(key));
      live.erase(key);
    }
    if (it % 4000 == 0) {
      ASSERT_TRUE(f.validate());
    }
  }
  for (const auto& key : live) {
    ASSERT_TRUE(f.contains(key)) << key;
  }
  ASSERT_TRUE(f.validate());
}

TEST(Mpcbf, QueryAccessesAreExactlyG) {
  // Updates always touch all g words; MPCBF-1 queries exactly one.
  const auto keys = generate_unique_strings(1000, 5, 31);
  for (unsigned g : {1u, 2u, 3u}) {
    MpcbfConfig cfg;
    cfg.memory_bits = 1 << 18;
    cfg.k = 3 * g;
    cfg.g = g;
    cfg.n_max = 8;
    Mpcbf<64> f(cfg);
    for (const auto& k : keys) {
      f.insert(k);
    }
    // "Near": the g word hashes can occasionally collide into one word.
    EXPECT_NEAR(f.stats().mean_update_accesses(), static_cast<double>(g),
                0.02);
    f.stats().reset();
    for (const auto& k : keys) {
      ASSERT_TRUE(f.contains(k));
    }
    // Positive queries cannot short-circuit: g accesses (minus collisions).
    EXPECT_NEAR(f.stats().mean_query_accesses(), static_cast<double>(g),
                0.02);
  }
}

// Word usage is derived from the word value on every insert, never
// cached. A soak over 4-word filters, where one key's g groups often land
// in the same word and full words divert to the stash, must keep every
// word a valid HCBF and the hierarchy total at exactly k bits per in-word
// element after every single step.
template <unsigned W>
void run_usage_soak(unsigned k, unsigned g, unsigned n_max,
                    std::uint64_t seed) {
  MpcbfConfig cfg;
  cfg.memory_bits = 4 * W;
  cfg.k = k;
  cfg.g = g;
  cfg.n_max = n_max;
  cfg.policy = OverflowPolicy::kStash;
  cfg.seed = seed;
  Mpcbf<W> f(cfg);
  Xoshiro256 rng(seed);
  std::vector<std::string> live;
  std::uint64_t next_key = 0;
  for (int step = 0; step < 4000; ++step) {
    if (live.empty() || rng.bounded(2) == 0) {
      live.push_back("soak-" + std::to_string(next_key++));
      ASSERT_TRUE(f.insert(live.back()));
    } else {
      const std::size_t i = rng.bounded(live.size());
      std::swap(live[i], live.back());
      ASSERT_TRUE(f.erase(live.back())) << live.back();
      live.pop_back();
    }
    ASSERT_TRUE(f.validate()) << "W=" << W << " step " << step;
    // Keys are unique, so every stash entry holds exactly one copy.
    ASSERT_EQ(f.total_hierarchy_bits(),
              std::uint64_t{k} * (f.size() - f.stash_size()))
        << "W=" << W << " step " << step;
  }
  EXPECT_GT(f.overflow_events(), 0u) << "soak never filled a word";
  // Fewer distinct words than g per insert on average: groups collided.
  EXPECT_LT(f.stats().mean_update_accesses(), static_cast<double>(g));
  for (const auto& key : live) ASSERT_TRUE(f.contains(key)) << key;
}

TEST(Mpcbf, DerivedUsageSoakWidth64) { run_usage_soak<64>(4, 2, 6, 41); }
TEST(Mpcbf, DerivedUsageSoakWidth128) { run_usage_soak<128>(5, 3, 8, 42); }
TEST(Mpcbf, DerivedUsageSoakWidth256) { run_usage_soak<256>(8, 4, 12, 43); }

// The word array of a DRAM-sized filter is advised for transparent huge
// pages before its first touch. Only eligibility is asserted: whether the
// kernel found free 2 MiB pages (AnonHugePages) depends on fragmentation.
TEST(Mpcbf, WordArrayIsHugePageEligible) {
  std::ifstream thp("/sys/kernel/mm/transparent_hugepage/enabled");
  std::string modes;
  if (!std::getline(thp, modes)) {
    GTEST_SKIP() << "kernel exposes no transparent huge page setting";
  }
  if (modes.find("[never]") != std::string::npos) {
    GTEST_SKIP() << "transparent huge pages are disabled: " << modes;
  }
  const auto f = Mpcbf<64>::with_memory(std::size_t{1} << 26, 3, 1, 1000);
  const auto addr =
      reinterpret_cast<std::uintptr_t>(&f.word(f.num_words() / 2));

  std::ifstream smaps("/proc/self/smaps");
  std::string line;
  bool in_mapping = false;
  int eligible = -1;
  while (std::getline(smaps, line)) {
    std::istringstream fields(line);
    std::string head;
    fields >> head;
    if (head.empty()) continue;
    if (head.back() != ':') {  // "start-end perms ..." opens a mapping
      const auto dash = head.find('-');
      const auto start = std::stoull(head.substr(0, dash), nullptr, 16);
      const auto end = std::stoull(head.substr(dash + 1), nullptr, 16);
      in_mapping = start <= addr && addr < end;
    } else if (in_mapping && head == "THPeligible:") {
      fields >> eligible;
    }
  }
  if (eligible < 0) {
    GTEST_SKIP() << "/proc/self/smaps lacks THPeligible for the word array";
  }
  EXPECT_EQ(eligible, 1);
}

}  // namespace
