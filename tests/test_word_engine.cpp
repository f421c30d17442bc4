// Unit tests for the shared word-engine core (src/core/word_engine.hpp)
// plus the cross-filter shape-validation contract: every filter built on
// the engine must accept and reject exactly the same (k, g) shapes, so a
// shape one accepts can never overflow another's fixed position arrays.
#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/mpcbf.hpp"
#include "common/rng.hpp"
#include "core/word_engine.hpp"
#include "filters/pcbf.hpp"
#include "hash/hash_stream.hpp"
#include "metrics/access_stats.hpp"

namespace {

namespace engine = mpcbf::core::engine;
using mpcbf::core::Mpcbf;
using mpcbf::core::MpcbfConfig;
using mpcbf::filters::Pcbf;
using mpcbf::filters::PcbfConfig;

// --- validate_shape -----------------------------------------------------

TEST(WordEngine, ValidateShapeAcceptsAllLegalShapes) {
  for (unsigned g = 1; g <= engine::kMaxG; ++g) {
    for (unsigned k = g; k <= g * engine::kMaxKPerWord; ++k) {
      EXPECT_NO_THROW(engine::validate_shape(k, g, "t"))
          << "k=" << k << " g=" << g;
    }
  }
}

TEST(WordEngine, ValidateShapeRejectsIllegalShapes) {
  EXPECT_THROW(engine::validate_shape(0, 1, "t"), std::invalid_argument);
  EXPECT_THROW(engine::validate_shape(3, 0, "t"), std::invalid_argument);
  EXPECT_THROW(engine::validate_shape(2, 3, "t"), std::invalid_argument);
  EXPECT_THROW(engine::validate_shape(9, 9, "t"), std::invalid_argument);
  // ⌈k/g⌉ > kMaxKPerWord: 33 positions would overflow a per-word array.
  EXPECT_THROW(engine::validate_shape(33, 1, "t"), std::invalid_argument);
  EXPECT_THROW(engine::validate_shape(66, 2, "t"), std::invalid_argument);
}

TEST(WordEngine, ShapeErrorMessageNamesTheVariant) {
  try {
    engine::validate_shape(66, 2, "SomeFilter");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("SomeFilter"), std::string::npos);
  }
}

// --- cross-filter rejection parity --------------------------------------

TEST(WordEngine, VariantsRejectTheSameOverWideShapes) {
  // ⌈66/2⌉ = 33 > kMaxKPerWord: every engine filter must reject it.
  MpcbfConfig cfg;
  cfg.memory_bits = 1 << 16;
  cfg.k = 66;
  cfg.g = 2;
  cfg.n_max = 1;
  EXPECT_THROW(Mpcbf<64>{cfg}, std::invalid_argument);
  PcbfConfig pcfg;
  pcfg.memory_bits = 1 << 16;
  pcfg.k = 66;
  pcfg.g = 2;
  EXPECT_THROW(Pcbf{pcfg}, std::invalid_argument);
}

TEST(WordEngine, VariantsAcceptTheSameMaxWidthShape) {
  // ⌈64/2⌉ = 32 = kMaxKPerWord exactly — accepted everywhere. With
  // n_max=1 the wide Mpcbf layout still leaves b1 = 64 - 32 = 32 >= 2.
  MpcbfConfig cfg;
  cfg.memory_bits = 1 << 16;
  cfg.k = 64;
  cfg.g = 2;
  cfg.n_max = 1;
  EXPECT_NO_THROW(Mpcbf<64>{cfg});
  PcbfConfig pcfg;
  pcfg.memory_bits = 1 << 16;
  pcfg.k = 64;
  pcfg.g = 2;
  EXPECT_NO_THROW(Pcbf{pcfg});
}

TEST(WordEngine, VariantConstantsAliasTheEngine) {
  EXPECT_EQ(Mpcbf<64>::kMaxG, engine::kMaxG);
  EXPECT_EQ(Mpcbf<64>::kMaxKPerWord, engine::kMaxKPerWord);
}

// --- SeenWords ----------------------------------------------------------

TEST(WordEngine, SeenWordsDeduplicates) {
  engine::SeenWords seen;
  EXPECT_TRUE(seen.add(7));
  EXPECT_TRUE(seen.add(3));
  EXPECT_FALSE(seen.add(7));
  EXPECT_FALSE(seen.add(3));
  EXPECT_TRUE(seen.add(1));
  EXPECT_EQ(seen.count, 3u);
}

// --- TargetDeriver ------------------------------------------------------

TEST(WordEngine, DeriveAllMatchesManualStreamConsumption) {
  // The deriver must consume the stream in the documented canonical
  // order: for each group, one word index then ⌈k/g⌉ position indices.
  const std::size_t l = 1024;
  const unsigned k = 5, g = 2, b1 = 52;
  engine::TargetDeriver d(l, k, g, b1);
  engine::Targets t;
  mpcbf::hash::HashBitStream s1("derive-key", 0x5EED);
  d.derive_all(s1, t);

  mpcbf::hash::HashBitStream s2("derive-key", 0x5EED);
  unsigned idx = 0;
  for (unsigned wi = 0; wi < g; ++wi) {
    const std::size_t w = s2.next_index(l);
    EXPECT_EQ(t.group_word[wi], w);
    const unsigned kw = mpcbf::model::hashes_per_word(k, g, wi);
    for (unsigned i = 0; i < kw; ++i, ++idx) {
      EXPECT_EQ(t.word_of(idx), w);
      EXPECT_EQ(t.pos(idx), s2.next_index(b1));
    }
  }
  EXPECT_EQ(t.total_positions, k);
  EXPECT_EQ(s1.accounted_bits(), s2.accounted_bits());
}

// --- draw schedule and derive_chunk -------------------------------------

// One key's derivation as the (group, value) draws a deriver emits.
using Draws = std::vector<std::pair<unsigned, std::size_t>>;

Draws stream_draws(const engine::TargetDeriver& d, std::string_view key,
                   std::uint64_t seed) {
  Draws out;
  mpcbf::hash::HashBitStream s(key, seed);
  d.derive(
      s, [&](unsigned wi, std::size_t w) { out.emplace_back(wi, w); },
      [&](unsigned wi, unsigned p) { out.emplace_back(wi + 100, p); });
  return out;
}

std::string random_key(mpcbf::util::SplitMix64& rng, std::size_t len) {
  std::string key(len, '\0');
  for (auto& c : key) c = static_cast<char>(rng.next());
  return key;
}

TEST(WordEngine, ScheduleCoversTheBenchmarkShapes) {
  // filter-dram: 1 GiB of words for 2^22 keys (b1 = 52: 27 + 18 + 18
  // bits in the low lane, 18 in the high one); serve-read: 1 MiB for
  // 2^17 keys.
  for (const auto& [memory_bits, expected_n] :
       {std::pair{std::size_t{1} << 33, std::size_t{1} << 22},
        std::pair{std::size_t{1} << 23, std::size_t{1} << 17}}) {
    MpcbfConfig cfg;
    cfg.memory_bits = memory_bits;
    cfg.k = 3;
    cfg.g = 1;
    cfg.expected_n = expected_n;
    const auto layout = Mpcbf<64>::layout_for(cfg);
    EXPECT_TRUE(engine::TargetDeriver(layout.num_words, 3, 1, layout.b1)
                    .has_schedule())
        << "b1=" << layout.b1;
  }
  EXPECT_TRUE(engine::TargetDeriver(std::size_t{1} << 27, 3, 1, 52)
                  .has_schedule());
  // Eight 25-bit positions need a second block.
  EXPECT_FALSE(engine::TargetDeriver(1024, 8, 1, 8191).has_schedule());
  // A 36-bit non-power-of-two word count draws 48 bits: the product
  // needs 84.
  EXPECT_FALSE(engine::TargetDeriver((std::size_t{1} << 35) + 1, 1, 1, 52)
                   .has_schedule());
}

// Key `lane`'s draws out of a draw-major block, as stream_draws lists
// them.
Draws block_draws(const engine::TargetDeriver& d, const engine::DrawBlock& b,
                  std::size_t lane) {
  Draws out;
  const std::uint16_t* pos = b.pos + lane;
  for (unsigned wi = 0; wi < d.g(); ++wi) {
    out.emplace_back(wi, b.word[wi * b.stride + lane]);
    for (unsigned i = d.positions_in(wi); i > 0; --i, pos += b.stride) {
      out.emplace_back(wi + 100, *pos);
    }
  }
  return out;
}

// A draw-major block with room for `keys` keys of any shape.
struct BlockBuffers {
  explicit BlockBuffers(std::size_t keys)
      : word(keys * engine::kMaxG), pos(keys * engine::kMaxPositions),
        block{word.data(), pos.data(), keys} {}
  std::vector<std::size_t> word;
  std::vector<std::uint16_t> pos;
  engine::DrawBlock block;
};

TEST(WordEngine, ScheduledDrawsMatchTheStreamOnEveryShape) {
  // A grid of word counts (power of two or not, bound 1 included), k,
  // g and b1: wherever the deriver has a schedule, eight keys of one
  // length drawn from their first hash blocks (eight lanes at once where
  // the CPU has AVX-512) give the stream's draws. Shapes that need a
  // second block or a product wider than 64 bits have none.
  mpcbf::util::SplitMix64 rng(0xB10C);
  unsigned scheduled = 0;
  unsigned refused = 0;
  BlockBuffers buffers(8);
  for (const std::size_t l :
       {std::size_t{1}, std::size_t{3}, std::size_t{16}, std::size_t{1000},
        std::size_t{1} << 20, (std::size_t{1} << 27) + 5,
        std::size_t{1} << 36}) {
    for (unsigned k = 1; k <= 8; ++k) {
      for (unsigned g = 1; g <= std::min(k, 4u); ++g) {
        for (const unsigned b1 : {2u, 7u, 8u, 40u, 52u, 100u, 8191u}) {
          const engine::TargetDeriver d(l, k, g, b1);
          if (!d.has_schedule()) {
            ++refused;
            continue;
          }
          ++scheduled;
          for (int round = 0; round < 3; ++round) {
            const std::uint64_t seed = rng.next();
            const std::size_t len = rng.next() % 65;
            std::vector<std::string> keys;
            for (int j = 0; j < 8; ++j) keys.push_back(random_key(rng, len));
            engine::derive_chunk(d, std::span<const std::string>(keys), seed,
                                 buffers.block);
            for (std::size_t j = 0; j < keys.size(); ++j) {
              ASSERT_EQ(block_draws(d, buffers.block, j),
                        stream_draws(d, keys[j], seed))
                  << "l=" << l << " k=" << k << " g=" << g << " b1=" << b1;
            }
          }
        }
      }
    }
  }
  EXPECT_GT(scheduled, 100u);
  EXPECT_GT(refused, 10u);
}

TEST(WordEngine, DeriveChunkEmitsTheScalarDraws) {
  // Groups of eight equal lengths (the x8 path where the CPU has it),
  // mixed-length groups, and a tail that is not a multiple of eight, on
  // a scheduled shape and on one that needs a second hash block. On a
  // CPU without AVX-512 every key takes the scalar path, which must
  // agree just the same.
  mpcbf::util::SplitMix64 rng(0xC4C);
  std::vector<std::string> keys;
  for (std::size_t len = 0; len <= 64; ++len) {
    for (int i = 0; i < 8; ++i) keys.push_back(random_key(rng, len));
  }
  for (int i = 0; i < 27; ++i) keys.push_back(random_key(rng, 16 + i % 3));
  BlockBuffers buffers(keys.size());
  for (const auto& d : {engine::TargetDeriver(std::size_t{1} << 27, 3, 1, 52),
                        engine::TargetDeriver(1000, 5, 2, 40),
                        engine::TargetDeriver(1024, 8, 1, 8191)}) {
    const std::uint64_t seed = rng.next();
    engine::derive_chunk(d, std::span<const std::string>(keys), seed,
                         buffers.block);
    for (std::size_t i = 0; i < keys.size(); ++i) {
      ASSERT_EQ(block_draws(d, buffers.block, i),
                stream_draws(d, keys[i], seed))
          << "key " << i;
    }
    // targets_of: the same draws, plus derive_all's word count.
    for (std::size_t i = 0; i < keys.size(); ++i) {
      engine::Targets t;
      engine::targets_of(d, buffers.block, i, t);
      engine::Targets want;
      mpcbf::hash::HashBitStream s(keys[i], seed);
      d.derive_all(s, want);
      ASSERT_EQ(t.total_positions, want.total_positions);
      ASSERT_EQ(t.distinct_words, want.distinct_words);
      for (unsigned wi = 0; wi < d.g(); ++wi) {
        ASSERT_EQ(t.group_word[wi], want.group_word[wi]);
      }
      for (unsigned j = 0; j < want.total_positions; ++j) {
        ASSERT_EQ(t.entry[j], want.entry[j]);
      }
      EXPECT_EQ(d.derive_bits(), s.accounted_bits());
    }
  }
}

// --- Targets ------------------------------------------------------------

// Builds targets from (word, position) entries in derivation order; a
// change of word starts a new hash group, as derive_all would record it.
engine::Targets make_targets(
    std::initializer_list<std::pair<std::size_t, unsigned>> entries) {
  engine::Targets t;
  t.total_positions = 0;
  unsigned groups = 0;
  engine::SeenWords seen;
  for (const auto& [w, pos] : entries) {
    if (groups == 0 || t.group_word[groups - 1] != w) {
      t.group_word[groups++] = w;
    }
    t.push(groups - 1, pos);
    seen.add(w);
  }
  t.distinct_words = seen.count;
  return t;
}

TEST(WordEngine, TargetsPackGroupAndPosition) {
  // The largest legal shape: kMaxG groups, positions up to the packing
  // limit, every entry round-trips through the u16 encoding.
  engine::Targets t;
  t.total_positions = 0;
  for (unsigned wi = 0; wi < engine::kMaxG; ++wi) {
    t.group_word[wi] = (std::size_t{1} << 40) + wi;
    for (unsigned i = 0; i < engine::kMaxKPerWord; ++i) {
      t.push(wi, engine::kMaxPositionRange - 1 - i);
    }
  }
  ASSERT_EQ(t.total_positions, engine::kMaxPositions);
  for (unsigned i = 0; i < t.total_positions; ++i) {
    const unsigned wi = i / engine::kMaxKPerWord;
    EXPECT_EQ(t.word_of(i), (std::size_t{1} << 40) + wi);
    EXPECT_EQ(t.pos(i),
              engine::kMaxPositionRange - 1 - i % engine::kMaxKPerWord);
  }
}

// --- capacity_ok --------------------------------------------------------

TEST(WordEngine, CapacityOkAggregatesCollidingGroups) {
  // Word 2 receives three increments; capacity checks must see the sum,
  // not each position in isolation. Usage is derived from the words.
  constexpr unsigned kB1 = 51;  // hierarchy capacity 64 - 51 = 13
  engine::PlainWords<64> store;
  store.init(8);
  const auto bump = [&](std::size_t w, unsigned times) {
    for (unsigned i = 0; i < times; ++i) {
      ASSERT_TRUE(store.increment(w, kB1, i % 7, store.hierarchy_bits(w, kB1))
                      .ok);
    }
  };
  bump(2, 10);
  bump(5, 11);
  const auto t = make_targets({{2, 0}, {2, 1}, {5, 3}, {2, 4}});
  engine::WordUsage u;
  EXPECT_TRUE(engine::capacity_ok(store, kB1, t, u));  // 10+3, 11+1 <= 13
  ASSERT_EQ(u.count, 2u);
  EXPECT_EQ(u.word[0], 2u);
  EXPECT_EQ(u.used[0], 10u);
  EXPECT_EQ(u.word[1], 5u);
  EXPECT_EQ(u.used[1], 11u);
  bump(2, 1);
  EXPECT_FALSE(engine::capacity_ok(store, kB1, t, u));  // word 2 would hit 14
  ASSERT_TRUE(mpcbf::core::Hcbf<64>::decrement(store.words()[2], kB1, 0).ok);
  bump(5, 2);
  EXPECT_FALSE(engine::capacity_ok(store, kB1, t, u));  // word 5 full
}

TEST(WordEngine, IncrementAllAdvancesTheDerivedUsage) {
  constexpr unsigned kB1 = 40;
  engine::PlainWords<64> store;
  store.init(4);
  const auto t = make_targets({{1, 3}, {3, 3}, {1, 3}, {1, 9}});
  for (int round = 0; round < 3; ++round) {
    engine::WordUsage u;
    ASSERT_TRUE(engine::capacity_ok(store, kB1, t, u));
    engine::LevelWalk<64>::increment_all(store, kB1, t, u);
    for (unsigned s = 0; s < u.count; ++s) {
      EXPECT_EQ(u.used[s], store.hierarchy_bits(u.word[s], kB1));
    }
  }
  EXPECT_EQ(store.hierarchy_bits(1, kB1), 9u);
  EXPECT_EQ(store.hierarchy_bits(3, kB1), 3u);
  EXPECT_EQ(store.counter(1, kB1, 3), 6u);
}

TEST(WordEngine, DecrementAllMatchesOneDecrementPerPosition) {
  // Groups 0 and 2 share word 1 and each walks its own local copy of it,
  // so group 2 must see group 0's stored result; the repeated position 3
  // and the never-set position 20 underflow on the second pass.
  constexpr unsigned kB1 = 24;
  engine::PlainWords<128> walked;
  walked.init(4);
  for (const unsigned pos : {3u, 3u, 3u, 9u, 9u, 5u}) {
    ASSERT_TRUE(
        walked.increment(1, kB1, pos, walked.hierarchy_bits(1, kB1)).ok);
  }
  ASSERT_TRUE(walked.increment(2, kB1, 7, 0).ok);
  auto stepped = walked;
  const auto t = make_targets({{1, 3}, {1, 9}, {2, 7}, {1, 3}, {1, 20}});
  for (int pass = 0; pass < 3; ++pass) {
    engine::LevelWalk<128>::DecrementResult want;
    for (unsigned i = 0; i < t.total_positions; ++i) {
      const auto r = mpcbf::core::Hcbf<128>::decrement(
          stepped.words()[t.word_of(i)], kB1, t.pos(i));
      want.ok &= r.ok;
      want.extra_bits += r.extra_bits;
      want.underflows += r.ok ? 0 : 1;
    }
    const auto got = engine::LevelWalk<128>::decrement_all(walked, kB1, t);
    EXPECT_EQ(got.ok, want.ok) << "pass " << pass;
    EXPECT_EQ(got.extra_bits, want.extra_bits) << "pass " << pass;
    EXPECT_EQ(got.underflows, want.underflows) << "pass " << pass;
    EXPECT_EQ(walked.words(), stepped.words()) << "pass " << pass;
  }
  EXPECT_EQ(walked.counter(1, kB1, 3), 0u);
}

// --- query_batch --------------------------------------------------------

// Runs engine::query_batch over `keys` on a 16-word store with b1 = 8,
// k = 3, g = 2 (positions 2 + 1): ceil_log2(16) = 4 bits per word index,
// ceil_log2(8) = 3 per position. Returns the verdicts; `stats` receives
// the tallies and `rescued` counts the rescue calls.
struct QueryRun {
  std::vector<std::uint8_t> out;
  mpcbf::metrics::AccessStats stats;
  std::size_t rescued = 0;
};

constexpr std::uint64_t kQuerySeed = 0x5EED;

QueryRun run_query_batch(const engine::PlainWords<64>& store,
                         const std::vector<std::string>& keys,
                         bool short_circuit, bool rescue = false) {
  const engine::TargetDeriver der(store.size(), 3, 2, 8);
  QueryRun r;
  r.out.assign(keys.size(), 0xFF);
  engine::query_batch(store, der, short_circuit,
                      std::span<const std::string>(keys), kQuerySeed,
                      std::span<std::uint8_t>(r.out), r.stats,
                      [&](std::size_t, std::size_t) {
                        ++r.rescued;
                        return rescue;
                      });
  return r;
}

// The targets query_batch derives for `key` (same deriver and seed).
engine::Targets targets_of(const std::string& key) {
  const engine::TargetDeriver der(16, 3, 2, 8);
  engine::Targets t;
  mpcbf::hash::HashBitStream s(key, kQuerySeed);
  der.derive_all(s, t);
  return t;
}

std::vector<std::string> query_keys(std::size_t n) {
  std::vector<std::string> keys;
  for (std::size_t i = 0; i < n; ++i) {
    keys.push_back(std::string("q").append(std::to_string(i)));
  }
  return keys;
}

TEST(WordEngine, QueryBatchStopsAtFirstMissWhenShortCircuiting) {
  // An empty store fails every key's first position: one word index and
  // one position each, one word touched.
  engine::PlainWords<64> store;
  store.init(16);
  // Two full chunks and a partial one.
  const auto keys = query_keys(2 * engine::kChunk + 6);
  const auto r = run_query_batch(store, keys, /*short_circuit=*/true);
  EXPECT_EQ(r.out, std::vector<std::uint8_t>(keys.size(), 0));
  EXPECT_EQ(r.rescued, keys.size());
  using mpcbf::metrics::OpClass;
  EXPECT_EQ(r.stats.ops(OpClass::kQueryNegative), keys.size());
  EXPECT_EQ(r.stats.words(OpClass::kQueryNegative), keys.size());
  EXPECT_EQ(r.stats.bits(OpClass::kQueryNegative), 7 * keys.size());
  EXPECT_EQ(r.stats.ops(OpClass::kQueryPositive), 0u);
}

TEST(WordEngine, QueryBatchConsumesFullBudgetWithoutShortCircuit) {
  // Two word indices (2*4) + three positions (3*3) for every key, and
  // both groups' words, counted once when they collide.
  engine::PlainWords<64> store;
  store.init(16);
  const auto keys = query_keys(2 * engine::kChunk + 6);
  std::uint64_t distinct = 0;
  for (const auto& k : keys) distinct += targets_of(k).distinct_words;
  ASSERT_LT(distinct, 2 * keys.size()) << "want some colliding groups";
  using mpcbf::metrics::OpClass;
  const auto miss = run_query_batch(store, keys, /*short_circuit=*/false);
  EXPECT_EQ(miss.stats.words(OpClass::kQueryNegative), distinct);
  EXPECT_EQ(miss.stats.bits(OpClass::kQueryNegative), 17 * keys.size());

  // All level-1 bits set: every key is positive at the full budget, with
  // or without short-circuiting.
  for (std::size_t w = 0; w < store.size(); ++w) {
    store.words()[w].set_limb(0, 0xFF);
  }
  for (const bool sc : {true, false}) {
    const auto hit = run_query_batch(store, keys, sc);
    EXPECT_EQ(hit.out, std::vector<std::uint8_t>(keys.size(), 1));
    EXPECT_EQ(hit.rescued, 0u);
    EXPECT_EQ(hit.stats.ops(OpClass::kQueryPositive), keys.size());
    EXPECT_EQ(hit.stats.words(OpClass::kQueryPositive), distinct);
    EXPECT_EQ(hit.stats.bits(OpClass::kQueryPositive), 17 * keys.size());
  }
}

TEST(WordEngine, QueryBatchChargesPositionsUpToTheFirstFailure) {
  // Only the first position of group 0 is set, so a short-circuiting
  // query fails at the second: 4 + 2*3 bits. A key whose two group-0
  // positions coincide passes group 0 and fails in group 1 (unless its
  // words collide too), which this test avoids.
  std::string key;
  engine::Targets t;
  for (int i = 0;; ++i) {
    key = std::string("ctz").append(std::to_string(i));
    t = targets_of(key);
    if (t.pos(0) != t.pos(1)) break;
  }
  engine::PlainWords<64> store;
  store.init(16);
  store.words()[t.group_word[0]].set(t.pos(0));
  using mpcbf::metrics::OpClass;
  const auto r = run_query_batch(store, {key}, /*short_circuit=*/true);
  EXPECT_EQ(r.out[0], 0);
  EXPECT_EQ(r.stats.words(OpClass::kQueryNegative), 1u);
  EXPECT_EQ(r.stats.bits(OpClass::kQueryNegative), 10u);

  // A rescued negative moves to the positive class with the same cost.
  const auto rescued = run_query_batch(store, {key}, true, /*rescue=*/true);
  EXPECT_EQ(rescued.out[0], 1);
  EXPECT_EQ(rescued.stats.ops(OpClass::kQueryNegative), 0u);
  EXPECT_EQ(rescued.stats.ops(OpClass::kQueryPositive), 1u);
  EXPECT_EQ(rescued.stats.bits(OpClass::kQueryPositive), 10u);
}

// --- for_each_chunk -----------------------------------------------------

// Storage that logs the words the skeleton prefetches.
struct PrefetchLog {
  mutable std::vector<std::size_t> fetched;
  void prefetch(std::size_t w) const { fetched.push_back(w); }
};

TEST(WordEngine, ForEachChunkDerivesAndPrefetchesEachChunkBeforeItsBody) {
  // Bodies run in key order, one per chunk, at multiples of the chunk
  // size; when a body runs, its record holds the stream's draws of every
  // key of its chunk and each of their group words has been prefetched.
  // Shapes whose record does not fit kChunk times get smaller chunks,
  // one of them not a multiple of eight.
  mpcbf::util::SplitMix64 rng(0xC4F);
  std::vector<std::string> keys;
  for (int i = 0; i < 150; ++i) {
    keys.push_back(random_key(rng, i % 50 < 40 ? 17 : 5 + i % 3));
  }
  struct Shape {
    engine::TargetDeriver der;
    std::size_t chunk;
  };
  for (const auto& [d, chunk] :
       {Shape{engine::TargetDeriver(std::size_t{1} << 27, 3, 1, 52),
              engine::kChunk},
        Shape{engine::TargetDeriver(1000, 16, 8, 40), 32},
        Shape{engine::TargetDeriver(4096, 32, 2, 40), 32},
        Shape{engine::TargetDeriver(4096, 17, 1, 40), 60}}) {
    ASSERT_EQ(engine::chunk_keys(d), chunk) << "k=" << d.k() << " g=" << d.g();
    const std::uint64_t seed = rng.next();
    PrefetchLog store;
    std::size_t next = 0;
    engine::for_each_chunk(
        store, d, std::span<const std::string>(keys), seed,
        [&](std::size_t base, std::size_t count,
            const engine::DrawBlock& rec) {
          EXPECT_EQ(base, next);
          EXPECT_EQ(base % chunk, 0u);
          EXPECT_EQ(count, std::min(chunk, keys.size() - base));
          EXPECT_EQ(rec.stride, chunk);
          std::vector<std::size_t> words;
          for (std::size_t i = 0; i < count; ++i) {
            ASSERT_EQ(block_draws(d, rec, i),
                      stream_draws(d, keys[base + i], seed))
                << "key " << base + i;
            for (unsigned wi = 0; wi < d.g(); ++wi) {
              words.push_back(rec.word[wi * rec.stride + i]);
            }
          }
          std::sort(words.begin(), words.end());
          std::sort(store.fetched.begin(), store.fetched.end());
          EXPECT_EQ(store.fetched, words) << "chunk at " << base;
          store.fetched.clear();
          next = base + count;
        });
    EXPECT_EQ(next, keys.size());
  }
}

// --- eight-lane resolve -------------------------------------------------

// Resolves `count` keys' records with resolve_scalar and resolve_x8 on
// the same words and checks that verdicts and tallies agree, a rescue
// deciding every third rejected key.
template <unsigned W>
void expect_resolves_agree(const engine::PlainWords<W>& store,
                           const engine::TargetDeriver& d, bool sc,
                           const engine::DrawBlock& rec, std::size_t count,
                           std::size_t& rejected) {
#if MPCBF_ENGINE_HAVE_X8
  const auto rescue = [](std::size_t i, std::size_t first_word) {
    return (i + first_word) % 3 == 0;
  };
  std::vector<std::uint8_t> scalar_out(count + 1, 0xAA);
  std::vector<std::uint8_t> x8_out(count + 1, 0xAA);
  engine::QueryTally scalar_tally;
  engine::QueryTally x8_tally;
  engine::resolve_scalar(store, d, sc, rec, count, scalar_out.data(),
                         scalar_tally, rescue);
  engine::resolve_x8(store, d, sc, rec, count, x8_out.data(), x8_tally,
                     rescue);
  ASSERT_EQ(scalar_out, x8_out);  // includes the untouched byte past count
  EXPECT_EQ(scalar_tally.keys, x8_tally.keys);
  EXPECT_EQ(scalar_tally.positives, x8_tally.positives);
  EXPECT_EQ(scalar_tally.positive_words, x8_tally.positive_words);
  EXPECT_EQ(scalar_tally.positive_bits, x8_tally.positive_bits);
  EXPECT_EQ(scalar_tally.all_words, x8_tally.all_words);
  EXPECT_EQ(scalar_tally.all_bits, x8_tally.all_bits);
  rejected += count - scalar_tally.positives;
#else
  (void)store, (void)d, (void)sc, (void)rec, (void)count, (void)rejected;
#endif
}

template <unsigned W>
void resolve_sweep(mpcbf::util::SplitMix64& rng, std::size_t& rejected) {
  // 16 words, so group words collide; three quarters of the bits set,
  // so keys fail at every position and pass as well.
  engine::PlainWords<W> store;
  store.init(16);
  for (auto& w : store.words()) {
    for (unsigned j = 0; j < w.kLimbs; ++j) {
      w.set_limb(j, rng.next() | rng.next());
    }
  }
  const unsigned b1 = W - 8;
  for (const auto& [k, g] : {std::pair{3u, 1u}, std::pair{5u, 2u},
                             std::pair{7u, 3u}, std::pair{6u, 4u},
                             std::pair{4u, 3u}}) {
    const engine::TargetDeriver d(store.size(), k, g, b1);
    for (const std::size_t count :
         {std::size_t{1}, std::size_t{2}, std::size_t{7}, std::size_t{8},
          std::size_t{9}, std::size_t{15}, std::size_t{17}, std::size_t{25},
          std::size_t{63}, std::size_t{64}}) {
      std::vector<std::string> keys;
      for (std::size_t i = 0; i < count; ++i) {
        keys.push_back(random_key(rng, 17));
      }
      BlockBuffers buffers(count);
      engine::derive_chunk(d, std::span<const std::string>(keys), rng.next(),
                           buffers.block);
      for (const bool sc : {true, false}) {
        SCOPED_TRACE("W=" + std::to_string(W) + " k=" + std::to_string(k) +
                     " g=" + std::to_string(g) +
                     " count=" + std::to_string(count) +
                     " sc=" + std::to_string(sc));
        expect_resolves_agree(store, d, sc, buffers.block, count, rejected);
      }
    }
  }
}

TEST(WordEngine, EightLaneResolveMatchesTheScalarResolve) {
  // Verdicts, the bytes past the last key, and every tally, for word
  // widths of one, two and four limbs, g = 1..4 (k = 7 split 3 + 3 + 1,
  // k = 4 split 2 + 2 + 0), short circuit on and off, and chunk sizes
  // with and without a tail of count % 8 keys.
  if (!mpcbf::hash::murmur3_128_x8_available()) {
    GTEST_SKIP() << "this CPU has no AVX-512; the batch runs resolve_scalar";
  }
  mpcbf::util::SplitMix64 rng(0x8A7E);
  std::size_t rejected = 0;
  resolve_sweep<64>(rng, rejected);
  resolve_sweep<128>(rng, rejected);
  resolve_sweep<256>(rng, rejected);
  EXPECT_GT(rejected, 0u);
}

// --- default seed constant ----------------------------------------------

TEST(WordEngine, DefaultSeedIsTheSharedConstant) {
  EXPECT_EQ(mpcbf::hash::kDefaultSeed, 0x9E3779B97F4A7C15ULL);
  EXPECT_EQ(MpcbfConfig{}.seed, mpcbf::hash::kDefaultSeed);
  EXPECT_EQ(PcbfConfig{}.seed, mpcbf::hash::kDefaultSeed);
}

}  // namespace
