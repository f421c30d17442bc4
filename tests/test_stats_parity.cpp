// Query accounting tests: scalar contains() and contains_batch() share
// one implementation (engine::query_batch), so each is checked against
// an independent reference — the paper's lazy bit-by-bit query walk,
// kept here in the test — on verdicts and on per-class ops, words and
// bits, across word widths, group counts, short-circuit settings and
// stash rescues. The paper's access-bandwidth tables depend on this
// accounting (Tables I-III). Plus the mutation batches against scalar
// loops, and regressions for the erase() size-drift bug and the
// allocation-free stash probe.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <string_view>
#include <vector>

#include "core/mpcbf.hpp"
#include "core/word_engine.hpp"
#include "hash/hash_stream.hpp"
#include "metrics/access_stats.hpp"
#include "model/fpr_model.hpp"
#include "workload/string_sets.hpp"

namespace {

using mpcbf::core::Mpcbf;
using mpcbf::core::MpcbfConfig;
using mpcbf::core::OverflowPolicy;
using mpcbf::metrics::AccessStats;
using mpcbf::metrics::OpClass;
using mpcbf::workload::generate_unique_strings;

// Asserts the per-class op/word/bit tallies of two stats objects agree.
void expect_same_accounting(const AccessStats& expected,
                            const AccessStats& actual) {
  for (unsigned i = 0; i < mpcbf::metrics::kNumOpClasses; ++i) {
    const auto c = static_cast<OpClass>(i);
    EXPECT_EQ(expected.ops(c), actual.ops(c)) << "ops class " << i;
    EXPECT_EQ(expected.words(c), actual.words(c)) << "words class " << i;
    EXPECT_EQ(expected.bits(c), actual.bits(c)) << "bits class " << i;
  }
}

// The reference query: the paper's lazy walk over `f`'s words, one hash
// draw at a time. Per group it draws the word index, then tests the
// group's positions one by one; under short_circuit it stops at the
// first unset bit. A key the words reject is positive iff the stash
// holds it: an unset level-1 bit means a zero counter, so count() is
// then the stashed copies alone. Records the distinct words of the
// visited groups and the bits drawn into `stats`.
template <unsigned W>
bool reference_contains(const Mpcbf<W>& f, bool short_circuit,
                        std::string_view key, AccessStats& stats) {
  mpcbf::hash::HashBitStream stream(key, f.seed());
  bool positive = true;
  std::vector<std::size_t> seen;
  for (unsigned t = 0; t < f.g(); ++t) {
    if (!positive && short_circuit) break;
    const std::size_t w = stream.next_index(f.num_words());
    if (std::find(seen.begin(), seen.end(), w) == seen.end()) {
      seen.push_back(w);
    }
    const unsigned kw = mpcbf::model::hashes_per_word(f.k(), f.g(), t);
    for (unsigned i = 0; i < kw; ++i) {
      const auto pos = static_cast<unsigned>(stream.next_index(f.b1()));
      if (!f.word(w).test(pos)) {
        positive = false;
        if (short_circuit) break;
      }
    }
  }
  if (!positive) positive = f.count(key) > 0;
  stats.record(positive ? OpClass::kQueryPositive : OpClass::kQueryNegative,
               seen.size(), stream.accounted_bits());
  return positive;
}

// Queries `queries` through scalar contains() on `scalar_f`, through
// contains_batch() on its identically-built twin `batch_f`, and through
// the reference walk, then checks both against the reference on
// verdicts and accounting. Returns the verdicts.
template <unsigned W>
std::vector<std::uint8_t> check_against_reference(
    bool short_circuit, Mpcbf<W>& scalar_f, Mpcbf<W>& batch_f,
    const std::vector<std::string>& queries) {
  scalar_f.reset_stats();
  batch_f.reset_stats();
  AccessStats ref_stats;
  std::vector<std::uint8_t> ref_out(queries.size());
  std::vector<std::uint8_t> scalar_out(queries.size());
  for (std::size_t i = 0; i < queries.size(); ++i) {
    ref_out[i] =
        reference_contains(scalar_f, short_circuit, queries[i], ref_stats);
    scalar_out[i] = scalar_f.contains(queries[i]) ? 1 : 0;
  }
  std::vector<std::uint8_t> batch_out(queries.size(), 0xFF);
  batch_f.contains_batch(queries, batch_out);

  EXPECT_EQ(ref_out, scalar_out);
  EXPECT_EQ(ref_out, batch_out);
  {
    SCOPED_TRACE("scalar contains()");
    expect_same_accounting(ref_stats, scalar_f.stats());
  }
  {
    SCOPED_TRACE("contains_batch()");
    expect_same_accounting(ref_stats, batch_f.stats());
  }
  return ref_out;
}

// Inserts `n_keys` keys into two filters built from `cfg`, then checks a
// mixed query list (each key followed by a never-inserted probe) against
// the reference. Returns the verdicts.
template <unsigned W = 64>
std::vector<std::uint8_t> run_parity_case(MpcbfConfig cfg,
                                          std::size_t n_keys,
                                          std::uint64_t seed_a,
                                          std::uint64_t seed_b) {
  const auto keys = generate_unique_strings(n_keys, 6, seed_a);
  const auto probes = generate_unique_strings(n_keys, 8, seed_b);
  Mpcbf<W> scalar_f(cfg);
  Mpcbf<W> batch_f(cfg);
  for (const auto& k : keys) {
    EXPECT_EQ(scalar_f.insert(k), batch_f.insert(k));
  }
  std::vector<std::string> mixed;
  mixed.reserve(2 * n_keys);
  for (std::size_t i = 0; i < n_keys; ++i) {
    mixed.push_back(keys[i]);
    mixed.push_back(probes[i]);
  }
  return check_against_reference(cfg.short_circuit, scalar_f, batch_f,
                                 mixed);
}

// What a sweep case exercised, counted over its keys' derived targets.
struct Coverage {
  std::size_t colliding_groups = 0;     ///< keys whose group words repeat
  std::size_t duplicate_positions = 0;  ///< keys repeating a position
  std::size_t positives = 0;
  std::size_t negatives = 0;
  std::size_t stashed_cases = 0;        ///< cases with a non-empty stash
};

template <unsigned W>
void count_coverage(const MpcbfConfig& cfg, std::size_t n_keys,
                    std::uint64_t seed_a, std::uint64_t seed_b,
                    const std::vector<std::uint8_t>& verdicts,
                    Coverage& cov) {
  Mpcbf<W> f(cfg);
  const mpcbf::core::engine::TargetDeriver der(f.num_words(), f.k(), f.g(),
                                               f.b1());
  for (const auto& list : {generate_unique_strings(n_keys, 6, seed_a),
                           generate_unique_strings(n_keys, 8, seed_b)}) {
    for (const auto& key : list) {
      mpcbf::core::engine::Targets t;
      mpcbf::hash::HashBitStream stream(key, f.seed());
      der.derive_all(stream, t);
      if (t.distinct_words < f.g()) ++cov.colliding_groups;
      bool dup = false;
      for (unsigned i = 0; i < t.total_positions; ++i) {
        for (unsigned j = 0; j < i; ++j) {
          dup = dup || (t.word_of(i) == t.word_of(j) && t.pos(i) == t.pos(j));
        }
      }
      if (dup) ++cov.duplicate_positions;
    }
  }
  for (const auto v : verdicts) ++(v != 0 ? cov.positives : cov.negatives);
  for (const auto& k : generate_unique_strings(n_keys, 6, seed_a)) {
    (void)f.insert(k);
  }
  if (f.stash_size() > 0) ++cov.stashed_cases;
}

// One width of the sweep: g = 1, 2, 3 with k = 3, 5 (3 + 2) and 4
// (2 + 2 + 0: the last group draws a word and no position), short
// circuit on and off, on two layouts with about 12 level-1 bits per
// word so positions repeat: a crowded one (4 words, overflowing into
// the stash) and a sparse one (64 words, mostly negative probes).
template <unsigned W>
void sweep_width(Coverage& cov) {
  std::uint64_t seed = 700 + W;
  for (const unsigned g : {1u, 2u, 3u}) {
    const unsigned k = g == 1 ? 3 : g == 2 ? 5 : 4;
    const unsigned per_word = (k + g - 1) / g;
    for (const bool sc : {true, false}) {
      for (const std::size_t words : {std::size_t{4}, std::size_t{64}}) {
        MpcbfConfig cfg;
        cfg.memory_bits = words * W;
        cfg.k = k;
        cfg.g = g;
        cfg.n_max = (W - 12) / per_word;
        if (words == 4) cfg.n_max = std::min(cfg.n_max, 6u);
        cfg.policy = OverflowPolicy::kStash;
        cfg.short_circuit = sc;
        const std::size_t n_keys = words == 4 ? 60 : 40;
        SCOPED_TRACE("W=" + std::to_string(W) + " g=" + std::to_string(g) +
                     " sc=" + std::to_string(sc) +
                     " words=" + std::to_string(words));
        const auto verdicts =
            run_parity_case<W>(cfg, n_keys, seed, seed + 1);
        count_coverage<W>(cfg, n_keys, seed, seed + 1, verdicts, cov);
        seed += 2;
      }
    }
  }
}

TEST(StatsParity, SweepWidthsGroupsAndShortCircuit) {
  // The reference walk's verdicts and per-class ops/words/bits, on both
  // query paths, for every width and g, including colliding group
  // words, repeated positions, a last group with zero positions and
  // stash rescues. The coverage counts check that the sweep really
  // produced each of those.
  Coverage cov;
  sweep_width<64>(cov);
  sweep_width<128>(cov);
  sweep_width<256>(cov);
  EXPECT_GT(cov.colliding_groups, 0u);
  EXPECT_GT(cov.duplicate_positions, 0u);
  EXPECT_GT(cov.positives, 0u);
  EXPECT_GT(cov.negatives, 0u);
  EXPECT_GT(cov.stashed_cases, 0u);
}

TEST(StatsParity, WideShapesRunSmallerQueryChunks) {
  // Records of g = 8 group words, or of 40 positions per key, do not
  // fit 64 times in the query buffers: both shapes resolve in chunks of
  // as many keys as fit (32 and 25), several per call.
  for (const bool sc : {true, false}) {
    MpcbfConfig eight;
    eight.memory_bits = 64 * 256;
    eight.k = 24;
    eight.g = 8;
    eight.n_max = 8;
    eight.policy = OverflowPolicy::kStash;
    eight.short_circuit = sc;
    run_parity_case<256>(eight, 150, 121, 122);

    MpcbfConfig forty;
    forty.memory_bits = 64 * 512;
    forty.k = 40;
    forty.g = 2;
    forty.n_max = 20;
    forty.policy = OverflowPolicy::kStash;
    forty.short_circuit = sc;
    run_parity_case<512>(forty, 150, 123, 124);
  }
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
  // paths, with the reference walk's accounting.
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
  check_against_reference(cfg.short_circuit, scalar_f, batch_f, queries);
  // All four inserted keys are positive (filter or stash).
  EXPECT_EQ(scalar_f.stats().ops(OpClass::kQueryPositive), 4u);
  EXPECT_EQ(batch_f.stats().ops(OpClass::kQueryPositive), 4u);
}

TEST(StatsParity, ScalarQueryPublishesOnlyTheClassItHit) {
  // A one-key call publishes one op class: a positive leaves the
  // negative tallies untouched and vice versa.
  auto f = Mpcbf<64>::with_memory(1 << 14, 3, 1, 100);
  ASSERT_TRUE(f.insert("present"));
  f.reset_stats();
  ASSERT_TRUE(f.contains("present"));
  EXPECT_EQ(f.stats().ops(OpClass::kQueryPositive), 1u);
  EXPECT_EQ(f.stats().ops(OpClass::kQueryNegative), 0u);
  EXPECT_EQ(f.stats().words(OpClass::kQueryNegative), 0u);
  EXPECT_EQ(f.stats().bits(OpClass::kQueryNegative), 0u);
  f.reset_stats();
  ASSERT_FALSE(f.contains("absent-key-0123"));
  EXPECT_EQ(f.stats().ops(OpClass::kQueryNegative), 1u);
  EXPECT_EQ(f.stats().ops(OpClass::kQueryPositive), 0u);
  EXPECT_EQ(f.stats().words(OpClass::kQueryPositive), 0u);
  EXPECT_EQ(f.stats().bits(OpClass::kQueryPositive), 0u);
}

TEST(StatsParity, ScalarQueryLatencyLandsInItsVerdictClass) {
  // One call in kLatencySampleEvery is timed: a one-key call records in
  // the per-op histogram of the class it hit, a batch chunk in the
  // batch-query histogram.
  const auto every = mpcbf::metrics::kLatencySampleEvery;
  auto f = Mpcbf<64>::with_memory(1 << 14, 3, 1, 100);
  ASSERT_TRUE(f.insert("present"));
  f.reset_stats();
  for (std::uint64_t i = 0; i < every; ++i) ASSERT_TRUE(f.contains("present"));
  EXPECT_EQ(f.stats().latency(OpClass::kQueryPositive).count(), 1u);
  EXPECT_EQ(f.stats().latency(OpClass::kQueryNegative).count(), 0u);
  EXPECT_EQ(f.stats().batch_latency().count(), 0u);
  f.reset_stats();
  for (std::uint64_t i = 0; i < every; ++i) {
    ASSERT_FALSE(f.contains("absent-key-0123"));
  }
  EXPECT_EQ(f.stats().latency(OpClass::kQueryNegative).count(), 1u);
  EXPECT_EQ(f.stats().latency(OpClass::kQueryPositive).count(), 0u);
  f.reset_stats();
  const std::vector<std::string> pair = {"present", "absent-key-0123"};
  std::vector<std::uint8_t> out(pair.size());
  for (std::uint64_t i = 0; i < every; ++i) f.contains_batch(pair, out);
  EXPECT_EQ(f.stats().batch_latency().count(), 1u);
  EXPECT_EQ(f.stats().latency(OpClass::kQueryPositive).count(), 0u);
  EXPECT_EQ(f.stats().latency(OpClass::kQueryNegative).count(), 0u);
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

TEST(StatsParity, MutationBatchPublishesTalliesWhenOverflowThrows) {
  // insert_batch sums its kInsert tallies in locals and publishes them
  // once; an overflow that throws mid-batch must still publish the keys
  // applied before it, as a scalar loop would have recorded them.
  MpcbfConfig cfg;
  cfg.memory_bits = 4 * 64;
  cfg.k = 3;
  cfg.g = 1;
  cfg.n_max = 2;
  cfg.policy = OverflowPolicy::kThrow;
  const auto keys = generate_unique_strings(64, 6, 113);
  Mpcbf<64> scalar_f(cfg);
  Mpcbf<64> batch_f(cfg);
  std::size_t applied = 0;
  try {
    for (const auto& k : keys) {
      (void)scalar_f.insert(k);
      ++applied;
    }
  } catch (const std::overflow_error&) {
  }
  ASSERT_LT(applied, keys.size()) << "want an overflow inside the batch";
  ASSERT_GT(applied, 0u);
  std::vector<std::uint8_t> ok(keys.size());
  EXPECT_THROW(batch_f.insert_batch(keys, ok), std::overflow_error);
  EXPECT_EQ(batch_f.stats().ops(OpClass::kInsert), applied);
  expect_same_accounting(scalar_f.stats(), batch_f.stats());
  EXPECT_EQ(scalar_f.size(), batch_f.size());
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
