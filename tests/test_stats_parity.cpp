// Differential accounting tests: batch and scalar query paths must
// produce identical AccessStats for the same key sequence, across
// short-circuit settings, group counts and stash interaction — the
// property the paper's access-bandwidth tables depend on (a batch
// measurement that accounted differently from the scalar path would
// make Tables I-III untrustworthy). Plus regressions for the erase()
// size-drift bug and the allocation-free stash probe.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/mpcbf.hpp"
#include "metrics/access_stats.hpp"
#include "workload/string_sets.hpp"

namespace {

using mpcbf::core::Mpcbf;
using mpcbf::core::MpcbfConfig;
using mpcbf::core::OverflowPolicy;
using mpcbf::metrics::AccessStats;
using mpcbf::metrics::OpClass;
using mpcbf::workload::generate_unique_strings;

// Asserts the per-class op/word/bit tallies of two stats objects agree.
void expect_same_accounting(const AccessStats& scalar,
                            const AccessStats& batch) {
  for (unsigned i = 0; i < mpcbf::metrics::kNumOpClasses; ++i) {
    const auto c = static_cast<OpClass>(i);
    EXPECT_EQ(scalar.ops(c), batch.ops(c)) << "ops class " << i;
    EXPECT_EQ(scalar.words(c), batch.words(c)) << "words class " << i;
    EXPECT_EQ(scalar.bits(c), batch.bits(c)) << "bits class " << i;
  }
}

// Runs the same mixed workload through scalar contains() on one filter
// and contains_batch() on an identically-built twin, then compares both
// verdicts and accounting.
void run_parity_case(MpcbfConfig cfg, std::size_t n_keys,
                     std::uint64_t seed_a, std::uint64_t seed_b) {
  const auto keys = generate_unique_strings(n_keys, 6, seed_a);
  const auto probes = generate_unique_strings(n_keys, 8, seed_b);
  Mpcbf<64> scalar_f(cfg);
  Mpcbf<64> batch_f(cfg);
  for (const auto& k : keys) {
    ASSERT_EQ(scalar_f.insert(k), batch_f.insert(k));
  }
  std::vector<std::string> mixed;
  mixed.reserve(2 * n_keys);
  for (std::size_t i = 0; i < n_keys; ++i) {
    mixed.push_back(keys[i]);
    mixed.push_back(probes[i]);
  }
  scalar_f.reset_stats();
  batch_f.reset_stats();

  std::vector<std::uint8_t> scalar_out(mixed.size());
  for (std::size_t i = 0; i < mixed.size(); ++i) {
    scalar_out[i] = scalar_f.contains(mixed[i]) ? 1 : 0;
  }
  std::vector<std::uint8_t> batch_out(mixed.size(), 0xFF);
  batch_f.contains_batch(mixed, batch_out);

  ASSERT_EQ(scalar_out, batch_out);
  expect_same_accounting(scalar_f.stats(), batch_f.stats());
}

TEST(StatsParity, ShortCircuitG1) {
  MpcbfConfig cfg;
  cfg.memory_bits = 1 << 16;
  cfg.k = 3;
  cfg.g = 1;
  cfg.expected_n = 1500;
  cfg.short_circuit = true;
  run_parity_case(cfg, 1500, 101, 102);
}

TEST(StatsParity, ShortCircuitG2) {
  MpcbfConfig cfg;
  cfg.memory_bits = 1 << 17;
  cfg.k = 4;
  cfg.g = 2;
  cfg.expected_n = 2000;
  cfg.short_circuit = true;
  run_parity_case(cfg, 2000, 103, 104);
}

TEST(StatsParity, ShortCircuitG4UnevenK) {
  // k=6, g=4 exercises uneven hashes_per_word splits.
  MpcbfConfig cfg;
  cfg.memory_bits = 1 << 18;
  cfg.k = 6;
  cfg.g = 4;
  cfg.expected_n = 2000;
  cfg.short_circuit = true;
  run_parity_case(cfg, 2000, 105, 106);
}

TEST(StatsParity, NoShortCircuit) {
  // With short-circuiting off every query consumes the full hash budget;
  // the pre-fix batch path always stopped at the first unset bit, which
  // this case would catch.
  MpcbfConfig cfg;
  cfg.memory_bits = 1 << 17;
  cfg.k = 4;
  cfg.g = 2;
  cfg.expected_n = 2000;
  cfg.short_circuit = false;
  run_parity_case(cfg, 2000, 107, 108);
}

TEST(StatsParity, BatchAccountsHashBits) {
  // Regression: contains_batch used to record 0 hash bits per query.
  const auto keys = generate_unique_strings(600, 6, 109);
  auto f = Mpcbf<64>::with_memory(1 << 16, 3, 1, keys.size());
  for (const auto& k : keys) f.insert(k);
  f.reset_stats();
  std::vector<std::uint8_t> out(keys.size());
  f.contains_batch(keys, out);
  EXPECT_GT(f.stats().bits(OpClass::kQueryPositive), 0u);
  EXPECT_GT(f.stats().mean_query_bandwidth(), 0.0);
}

TEST(StatsParity, StashedKeysCountPositive) {
  // Keys diverted to the stash must classify as positive queries on both
  // paths, with equal accounting.
  MpcbfConfig cfg;
  cfg.memory_bits = 64;
  cfg.k = 3;
  cfg.g = 1;
  cfg.n_max = 1;
  cfg.policy = OverflowPolicy::kStash;
  Mpcbf<64> scalar_f(cfg);
  Mpcbf<64> batch_f(cfg);
  const std::vector<std::string> keys = {"a", "b", "c", "d"};
  for (const auto& k : keys) {
    ASSERT_EQ(scalar_f.insert(k), batch_f.insert(k));
  }
  ASSERT_GT(scalar_f.stash_size(), 0u);
  std::vector<std::string> queries = keys;
  queries.emplace_back("never-inserted-xyz");
  scalar_f.reset_stats();
  batch_f.reset_stats();
  std::vector<std::uint8_t> scalar_out(queries.size());
  for (std::size_t i = 0; i < queries.size(); ++i) {
    scalar_out[i] = scalar_f.contains(queries[i]) ? 1 : 0;
  }
  std::vector<std::uint8_t> batch_out(queries.size());
  batch_f.contains_batch(queries, batch_out);
  ASSERT_EQ(scalar_out, batch_out);
  expect_same_accounting(scalar_f.stats(), batch_f.stats());
  // All four inserted keys are positive (filter or stash).
  EXPECT_EQ(scalar_f.stats().ops(OpClass::kQueryPositive), 4u);
}

TEST(StatsParity, MutationBatchesAccountLikeScalarLoops) {
  // insert_batch / erase_batch must record exactly the kInsert / kDelete
  // tallies of scalar loops: stash diversions, stash-first erases (no
  // words, no bits), underflowing erases of never-inserted keys.
  MpcbfConfig cfg;
  cfg.memory_bits = 8 * 64;
  cfg.k = 4;
  cfg.g = 2;
  cfg.n_max = 2;
  cfg.policy = OverflowPolicy::kStash;
  const auto keys = generate_unique_strings(80, 6, 111);
  const auto phantoms = generate_unique_strings(20, 8, 112);
  std::vector<std::string> erases = keys;
  erases.insert(erases.end(), phantoms.begin(), phantoms.end());
  Mpcbf<64> scalar_f(cfg);
  Mpcbf<64> batch_f(cfg);

  std::vector<std::uint8_t> scalar_ok(keys.size());
  for (std::size_t i = 0; i < keys.size(); ++i) {
    scalar_ok[i] = scalar_f.insert(keys[i]) ? 1 : 0;
  }
  std::vector<std::uint8_t> batch_ok(keys.size(), 0xFF);
  batch_f.insert_batch(keys, batch_ok);
  ASSERT_EQ(scalar_ok, batch_ok);
  ASSERT_GT(scalar_f.stash_size(), 0u);
  expect_same_accounting(scalar_f.stats(), batch_f.stats());

  std::vector<std::uint8_t> scalar_erased(erases.size());
  for (std::size_t i = 0; i < erases.size(); ++i) {
    scalar_erased[i] = scalar_f.erase(erases[i]) ? 1 : 0;
  }
  std::vector<std::uint8_t> batch_erased(erases.size(), 0xFF);
  batch_f.erase_batch(erases, batch_erased);
  ASSERT_EQ(scalar_erased, batch_erased);
  EXPECT_GT(scalar_f.underflow_events(), 0u);
  EXPECT_EQ(scalar_f.underflow_events(), batch_f.underflow_events());
  EXPECT_EQ(scalar_f.size(), batch_f.size());
  EXPECT_EQ(batch_f.stash_size(), 0u);
  expect_same_accounting(scalar_f.stats(), batch_f.stats());
}

TEST(StatsParity, FailedEraseDoesNotShrinkSize) {
  // Regression: erase() used to decrement size_ even when every target
  // counter underflowed, so erasing phantom keys drifted size() toward
  // zero and broke the serialization cross-check.
  auto f = Mpcbf<64>::with_memory(1 << 14, 3, 1, 100);
  ASSERT_TRUE(f.insert("real-key"));
  ASSERT_EQ(f.size(), 1u);
  EXPECT_FALSE(f.erase("phantom-key-1"));
  EXPECT_FALSE(f.erase("phantom-key-2"));
  EXPECT_EQ(f.size(), 1u);
  EXPECT_GT(f.underflow_events(), 0u);
  EXPECT_TRUE(f.contains("real-key"));
  EXPECT_TRUE(f.validate());
  // A legitimate erase still shrinks.
  EXPECT_TRUE(f.erase("real-key"));
  EXPECT_EQ(f.size(), 0u);
}

TEST(StatsParity, EraseRecordsDeleteClass) {
  auto f = Mpcbf<64>::with_memory(1 << 14, 3, 2, 100);
  ASSERT_TRUE(f.insert("k1"));
  f.reset_stats();
  ASSERT_TRUE(f.erase("k1"));
  EXPECT_EQ(f.stats().ops(OpClass::kDelete), 1u);
  EXPECT_GT(f.stats().bits(OpClass::kDelete), 0u);
}

TEST(StatsParity, StashProbeIsHeterogeneous) {
  // The stash must answer string_view probes (no per-query std::string
  // materialization). Compile-time property really — this pins the
  // transparent-lookup behaviour.
  MpcbfConfig cfg;
  cfg.memory_bits = 64;
  cfg.k = 3;
  cfg.g = 1;
  cfg.n_max = 1;
  cfg.policy = OverflowPolicy::kStash;
  Mpcbf<64> f(cfg);
  ASSERT_TRUE(f.insert("aa"));
  ASSERT_TRUE(f.insert("bb"));
  ASSERT_GT(f.stash_size(), 0u);
  const char backing[] = "bb-with-suffix";
  const std::string_view probe(backing, 2);  // "bb", not NUL-terminated
  EXPECT_TRUE(f.contains(probe));
  EXPECT_GE(f.count(probe), 1u);
  EXPECT_TRUE(f.erase(probe));
}

}  // namespace
