// Unit tests for the shared word-engine core (src/core/word_engine.hpp)
// plus the cross-variant shape-validation contract: every filter built on
// the engine must accept and reject exactly the same (k, g) shapes. The
// kMaxKPerWord satellite regression lives here — Mpcbf historically
// allowed ⌈k/g⌉ up to 32 while AtomicMpcbf silently capped its position
// arrays at 16, so a k=40, g=2 filter worked on one and corrupted memory
// on the other.
#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/atomic_mpcbf.hpp"
#include "core/mpcbf.hpp"
#include "core/word_engine.hpp"
#include "filters/pcbf.hpp"
#include "hash/hash_stream.hpp"

namespace {

namespace engine = mpcbf::core::engine;
using mpcbf::core::AtomicMpcbf;
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

// --- cross-variant rejection parity (the kMaxKPerWord satellite) --------

TEST(WordEngine, VariantsRejectTheSameOverWideShapes) {
  // ⌈66/2⌉ = 33 > kMaxKPerWord: every variant must reject it, not just
  // some. Before the shared constant, AtomicMpcbf advertised 16 while
  // Mpcbf enforced 32.
  MpcbfConfig cfg;
  cfg.memory_bits = 1 << 16;
  cfg.k = 66;
  cfg.g = 2;
  cfg.n_max = 1;
  EXPECT_THROW(Mpcbf<64>{cfg}, std::invalid_argument);
  EXPECT_THROW(AtomicMpcbf(1 << 16, 66, 2, 100), std::invalid_argument);
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
  EXPECT_NO_THROW(AtomicMpcbf(1 << 16, 64, 2, 0, mpcbf::hash::kDefaultSeed,
                              /*n_max=*/1));
  PcbfConfig pcfg;
  pcfg.memory_bits = 1 << 16;
  pcfg.k = 64;
  pcfg.g = 2;
  EXPECT_NO_THROW(Pcbf{pcfg});
}

TEST(WordEngine, VariantConstantsAliasTheEngine) {
  EXPECT_EQ(Mpcbf<64>::kMaxG, engine::kMaxG);
  EXPECT_EQ(Mpcbf<64>::kMaxKPerWord, engine::kMaxKPerWord);
  EXPECT_EQ(AtomicMpcbf::kMaxG, engine::kMaxG);
  EXPECT_EQ(AtomicMpcbf::kMaxKPerWord, engine::kMaxKPerWord);
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

// --- group_by_word ------------------------------------------------------

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

TEST(WordEngine, GroupByWordKeepsFirstSeenOrderAndDerivationOrder) {
  // Words 9 and 4 collide across groups; positions must regroup per
  // distinct word, contiguous, preserving derivation order within each.
  const auto t = make_targets({{9, 1}, {9, 5}, {4, 2}, {9, 7}, {4, 0}});
  engine::WordPlan p;
  engine::group_by_word(t, p);
  ASSERT_EQ(p.num_words, 2u);
  EXPECT_EQ(p.word[0], 9u);
  EXPECT_EQ(p.word[1], 4u);
  ASSERT_EQ(p.offset[0], 0u);
  ASSERT_EQ(p.offset[1], 3u);
  ASSERT_EQ(p.offset[2], 5u);
  EXPECT_EQ(p.pos[0], 1u);
  EXPECT_EQ(p.pos[1], 5u);
  EXPECT_EQ(p.pos[2], 7u);
  EXPECT_EQ(p.pos[3], 2u);
  EXPECT_EQ(p.pos[4], 0u);
}

TEST(WordEngine, GroupByWordSingleWordAbsorbsEverything) {
  const auto t = make_targets({{3, 0}, {3, 1}, {3, 2}});
  engine::WordPlan p;
  engine::group_by_word(t, p);
  ASSERT_EQ(p.num_words, 1u);
  EXPECT_EQ(p.word[0], 3u);
  EXPECT_EQ(p.offset[1], 3u);
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
  ASSERT_TRUE(store.decrement(2, kB1, 0).ok);
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

// --- evaluate_lazy ------------------------------------------------------

TEST(WordEngine, EvaluateLazyStopsAtFirstMissWhenShortCircuiting) {
  const auto t = make_targets({{0, 1}, {0, 2}, {1, 3}});
  std::size_t probes = 0;
  const auto ev = engine::evaluate_lazy(
      t, /*num_words=*/16, /*k=*/3, /*g=*/2, /*b1=*/8,
      /*short_circuit=*/true, [&](std::size_t, unsigned) {
        ++probes;
        return false;  // first probe already misses
      });
  EXPECT_FALSE(ev.positive);
  EXPECT_EQ(probes, 1u);
  EXPECT_EQ(ev.words_touched, 1u);
  // One word index (ceil_log2(16) = 4) + one position (ceil_log2(8) = 3).
  EXPECT_EQ(ev.hash_bits, 7u);
}

TEST(WordEngine, EvaluateLazyConsumesFullBudgetWithoutShortCircuit) {
  const auto t = make_targets({{0, 1}, {0, 2}, {1, 3}});
  std::size_t probes = 0;
  const auto ev = engine::evaluate_lazy(
      t, 16, 3, 2, 8, /*short_circuit=*/false,
      [&](std::size_t, unsigned) {
        ++probes;
        return false;
      });
  EXPECT_FALSE(ev.positive);
  EXPECT_EQ(probes, 3u);
  EXPECT_EQ(ev.words_touched, 2u);
  // Two word indices (2*4) + three positions (3*3).
  EXPECT_EQ(ev.hash_bits, 17u);
}

// --- batch_pipeline -----------------------------------------------------

TEST(WordEngine, BatchPipelineDerivesThenGathersThenResolvesPerChunk) {
  // Phase order within a chunk: every derive, then every gather, then
  // the resolves in key order; chunks run one after another.
  const std::size_t n = engine::kBatchChunk + 5;  // one full + one partial
  std::vector<std::string> events;
  std::vector<std::size_t> chunk_sizes;
  engine::batch_pipeline(
      n,
      [&](std::size_t key_i, std::size_t slot) {
        EXPECT_EQ(slot, key_i % engine::kBatchChunk);
        events.push_back("d" + std::to_string(key_i));
      },
      [&](std::size_t slot) {
        events.push_back("g" + std::to_string(slot));
        return std::uint64_t{slot};
      },
      [&](std::size_t key_i, std::size_t slot) {
        EXPECT_EQ(slot, key_i % engine::kBatchChunk);
        events.push_back("r" + std::to_string(key_i));
      },
      [&](std::size_t count) { chunk_sizes.push_back(count); },
      [&](std::size_t count) { events.push_back("e" + std::to_string(count)); });

  std::vector<std::string> expected;
  for (std::size_t base = 0; base < n; base += engine::kBatchChunk) {
    const std::size_t count = std::min(engine::kBatchChunk, n - base);
    for (std::size_t i = 0; i < count; ++i) {
      expected.push_back("d" + std::to_string(base + i));
    }
    for (std::size_t i = 0; i < count; ++i) {
      expected.push_back("g" + std::to_string(i));
    }
    for (std::size_t i = 0; i < count; ++i) {
      expected.push_back("r" + std::to_string(base + i));
    }
    expected.push_back("e" + std::to_string(count));
  }
  EXPECT_EQ(events, expected);
  ASSERT_EQ(chunk_sizes.size(), 2u);
  EXPECT_EQ(chunk_sizes[0], engine::kBatchChunk);
  EXPECT_EQ(chunk_sizes[1], 5u);
}

TEST(WordEngine, GatherReadsEveryLimbBoundaryOfTheWord) {
  // A 512-bit word spans two cache lines unless 64-byte aligned; the
  // gather folds its first and last limb, so both lines are loaded.
  engine::PlainWords<512> store;
  store.init(3);
  auto& words = store.words();
  words[1].set_limb(0, 0xF0);
  words[1].set_limb(7, 0x0F);
  EXPECT_EQ(store.gather(1), 0xFFu);
  EXPECT_EQ(store.gather(0), 0u);
  engine::Targets t;
  t.group_word = {1, 1, 2};
  EXPECT_EQ(engine::gather_targets(store, t, 3), 0x1FEu);
  EXPECT_EQ(engine::gather_targets(store, t, 1), 0xFFu);

  // A one-limb word's gather must still depend on the loaded value; a
  // fold that cancelled (limb(0) ^ limb(0)) would let the load vanish.
  engine::PlainWords<64> narrow;
  narrow.init(2);
  narrow.words()[1].set_limb(0, 0x40);
  EXPECT_NE(narrow.gather(1), 0u);
}

// --- default seed constant ----------------------------------------------

TEST(WordEngine, DefaultSeedIsTheSharedConstant) {
  EXPECT_EQ(mpcbf::hash::kDefaultSeed, 0x9E3779B97F4A7C15ULL);
  EXPECT_EQ(MpcbfConfig{}.seed, mpcbf::hash::kDefaultSeed);
  EXPECT_EQ(PcbfConfig{}.seed, mpcbf::hash::kDefaultSeed);
}

}  // namespace
