// Hierarchical CBF word: the paper's Fig. 3 walkthroughs reproduced
// bit-for-bit, counter round-trips, overflow behaviour, and an
// oracle-based property suite (random increment/decrement sequences
// checked against an exact multiset of counters with structural
// validation after every step), and the walks checked step by step
// against a reference walk over a plain vector of bits.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <vector>

#include "common/rng.hpp"
#include "core/hcbf.hpp"

namespace {

using mpcbf::core::Hcbf;
using mpcbf::core::HcbfResult;
using mpcbf::core::HcbfWord;
using mpcbf::hash::ceil_log2;
using mpcbf::util::Xoshiro256;

TEST(Hcbf, EmptyWordHasZeroCounters) {
  HcbfWord<64> w(32);
  for (unsigned p = 0; p < 32; ++p) {
    EXPECT_EQ(w.counter(p), 0u);
  }
  EXPECT_EQ(w.hierarchy_used(), 0u);
  EXPECT_TRUE(w.validate());
}

TEST(Hcbf, SingleIncrementSetsLevelOneBit) {
  HcbfWord<64> w(32);
  const HcbfResult r = w.increment(5);
  EXPECT_TRUE(r.ok);
  EXPECT_EQ(r.value, 1u);
  EXPECT_EQ(w.counter(5), 1u);
  EXPECT_EQ(w.counter(4), 0u);
  EXPECT_EQ(w.hierarchy_used(), 1u);  // the level-2 terminator slot
  EXPECT_TRUE(w.validate());
}

TEST(Hcbf, RepeatedIncrementDeepensChain) {
  HcbfWord<64> w(16);
  for (unsigned depth = 1; depth <= 10; ++depth) {
    const HcbfResult r = w.increment(3);
    ASSERT_TRUE(r.ok);
    EXPECT_EQ(r.value, depth);
    EXPECT_EQ(w.counter(3), depth);
    EXPECT_EQ(w.hierarchy_used(), depth);
    ASSERT_TRUE(w.validate());
  }
  // HCBF counters are not capped at 15 like CBF's 4-bit counters.
  for (unsigned depth = 11; depth <= 20; ++depth) {
    ASSERT_TRUE(w.increment(3).ok);
  }
  EXPECT_EQ(w.counter(3), 20u);
}

// Fig. 3(a): w=16, first level fixed at 8 bits. x0 hashes to bits {0,2,4},
// x5 to bits {7,4,2}.
TEST(Hcbf, PaperFigure3aWalkthrough) {
  HcbfWord<16> w(8);

  // Insert x0: three fresh bits, three level-2 terminator slots.
  for (unsigned pos : {0u, 2u, 4u}) {
    ASSERT_TRUE(w.increment(pos).ok);
  }
  EXPECT_EQ(w.raw().popcount_range(0, 8), 3u);
  EXPECT_EQ(w.raw().popcount_range(8, 11), 0u);  // level 2: three 0-slots
  EXPECT_EQ(w.hierarchy_used(), 3u);

  // Insert x5: bit 7 is fresh; bits 4 and 2 deepen to counter value 2.
  for (unsigned pos : {7u, 4u, 2u}) {
    ASSERT_TRUE(w.increment(pos).ok);
  }

  EXPECT_EQ(w.counter(0), 1u);
  EXPECT_EQ(w.counter(2), 2u);
  EXPECT_EQ(w.counter(4), 2u);
  EXPECT_EQ(w.counter(7), 1u);
  EXPECT_EQ(w.counter(1), 0u);
  EXPECT_EQ(w.counter(3), 0u);
  EXPECT_EQ(w.counter(5), 0u);
  EXPECT_EQ(w.counter(6), 0u);

  // Level structure: level 1 = 4 ones; level 2 = 4 slots at bits 8..11 of
  // which the ones for positions 2 and 4 (slot indices 1 and 2) are set;
  // level 3 = 2 zero slots at bits 12..13.
  EXPECT_FALSE(w.raw().test(8));   // position 0's slot: counter stops at 1
  EXPECT_TRUE(w.raw().test(9));    // position 2's slot: counter continues
  EXPECT_TRUE(w.raw().test(10));   // position 4's slot: counter continues
  EXPECT_FALSE(w.raw().test(11));  // position 7's slot
  EXPECT_FALSE(w.raw().test(12));
  EXPECT_FALSE(w.raw().test(13));
  EXPECT_EQ(w.hierarchy_used(), 6u);  // sum of counters
  EXPECT_TRUE(w.validate());
}

// Fig. 3(b): the improved HCBF maximizes b1 = w - k*n_max = 16 - 3*2 = 10.
// x0 hashes to {0,2,4}, x5 to {4,6,8}; the word is exactly full.
TEST(Hcbf, PaperFigure3bImprovedWalkthrough) {
  HcbfWord<16> w(10);
  for (unsigned pos : {0u, 2u, 4u}) {
    ASSERT_TRUE(w.increment(pos).ok);
  }
  for (unsigned pos : {4u, 6u, 8u}) {
    ASSERT_TRUE(w.increment(pos).ok);
  }
  EXPECT_EQ(w.counter(0), 1u);
  EXPECT_EQ(w.counter(2), 1u);
  EXPECT_EQ(w.counter(4), 2u);
  EXPECT_EQ(w.counter(6), 1u);
  EXPECT_EQ(w.counter(8), 1u);

  // Level 2 holds 5 slots (one per set level-1 bit) at bits 10..14; only
  // position 4's slot (index 2, bit 12) is set. Level 3 is one zero slot
  // at bit 15. No spare bits remain: 10 + 5 + 1 = 16.
  EXPECT_FALSE(w.raw().test(10));
  EXPECT_FALSE(w.raw().test(11));
  EXPECT_TRUE(w.raw().test(12));
  EXPECT_FALSE(w.raw().test(13));
  EXPECT_FALSE(w.raw().test(14));
  EXPECT_FALSE(w.raw().test(15));
  EXPECT_EQ(w.free_bits(), 0u);
  EXPECT_TRUE(w.validate());
}

TEST(Hcbf, DecrementReversesIncrement) {
  HcbfWord<64> w(40);
  ASSERT_TRUE(w.increment(7).ok);
  ASSERT_TRUE(w.increment(7).ok);
  ASSERT_TRUE(w.increment(12).ok);
  EXPECT_EQ(w.counter(7), 2u);

  HcbfResult r = w.decrement(7);
  EXPECT_TRUE(r.ok);
  EXPECT_EQ(r.value, 1u);
  EXPECT_EQ(w.counter(7), 1u);
  EXPECT_EQ(w.counter(12), 1u);

  r = w.decrement(7);
  EXPECT_TRUE(r.ok);
  EXPECT_EQ(r.value, 0u);
  EXPECT_EQ(w.counter(7), 0u);

  ASSERT_TRUE(w.decrement(12).ok);
  EXPECT_EQ(w.hierarchy_used(), 0u);
  // Word must be bit-for-bit empty again.
  EXPECT_EQ(w.raw().count(), 0u);
  EXPECT_TRUE(w.validate());
}

TEST(Hcbf, DecrementAtZeroFails) {
  HcbfWord<64> w(40);
  const HcbfResult r = w.decrement(3);
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(w.raw().count(), 0u);
  ASSERT_TRUE(w.increment(3).ok);
  ASSERT_TRUE(w.decrement(3).ok);
  EXPECT_FALSE(w.decrement(3).ok);
}

TEST(Hcbf, OverflowRejectedAndWordUntouched) {
  // b1 = 12 in a 16-bit word: 4 hierarchy bits available.
  HcbfWord<16> w(12);
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(w.increment(static_cast<unsigned>(i)).ok);
  }
  const auto before = w.raw();
  const HcbfResult r = w.increment(5);
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(w.raw(), before);
  EXPECT_EQ(w.counter(5), 0u);
  EXPECT_TRUE(w.validate());

  // Freeing one bit re-enables insertion.
  ASSERT_TRUE(w.decrement(0).ok);
  EXPECT_TRUE(w.increment(5).ok);
}

TEST(Hcbf, MembershipReadsOnlyLevelOne) {
  HcbfWord<64> w(32);
  ASSERT_TRUE(w.increment(1).ok);
  ASSERT_TRUE(w.increment(9).ok);
  const std::vector<unsigned> in = {1u, 9u};
  const std::vector<unsigned> partial = {1u, 10u};
  EXPECT_TRUE(w.membership(in));
  EXPECT_FALSE(w.membership(partial));
  EXPECT_FALSE(w.membership(partial, /*short_circuit=*/false));
}

TEST(Hcbf, OccupiedBitsMatchesDerivation) {
  HcbfWord<64> w(30);
  EXPECT_EQ(mpcbf::core::Hcbf<64>::occupied_bits(w.raw(), 30), 30u);
  for (unsigned pos : {0u, 0u, 0u, 5u, 29u, 5u}) {
    ASSERT_TRUE(w.increment(pos).ok);
  }
  EXPECT_EQ(mpcbf::core::Hcbf<64>::occupied_bits(w.raw(), 30), 36u);
  EXPECT_EQ(mpcbf::core::Hcbf<64>::hierarchy_bits(w.raw(), 30),
            w.hierarchy_used());
}

// ---- oracle property suite ---------------------------------------------

struct PropertyParams {
  std::uint64_t seed;
  unsigned b1;
};

template <unsigned W>
void run_oracle(const PropertyParams& params, int iterations) {
  HcbfWord<W> w(params.b1);
  std::map<unsigned, unsigned> oracle;  // position -> exact counter
  unsigned total = 0;                   // sum of counters
  Xoshiro256 rng(params.seed);

  for (int it = 0; it < iterations; ++it) {
    const auto pos = static_cast<unsigned>(rng.bounded(params.b1));
    const bool do_increment = rng.bounded(100) < 60;
    if (do_increment) {
      const HcbfResult r = w.increment(pos);
      if (params.b1 + total < W) {
        ASSERT_TRUE(r.ok) << "it=" << it;
        ++oracle[pos];
        ++total;
        ASSERT_EQ(r.value, oracle[pos]);
      } else {
        ASSERT_FALSE(r.ok) << "overflow must be rejected, it=" << it;
      }
    } else {
      const HcbfResult r = w.decrement(pos);
      auto node = oracle.find(pos);
      if (node == oracle.end() || node->second == 0) {
        ASSERT_FALSE(r.ok) << "it=" << it;
      } else {
        ASSERT_TRUE(r.ok) << "it=" << it;
        --node->second;
        --total;
        ASSERT_EQ(r.value, node->second);
        if (node->second == 0) oracle.erase(node);
      }
    }
    ASSERT_TRUE(w.validate()) << "structural invariant broken at it=" << it;
    // Spot-check a few counters every round (full sweep is O(b1) walks).
    for (int probe = 0; probe < 4; ++probe) {
      const auto p = static_cast<unsigned>(rng.bounded(params.b1));
      const auto node = oracle.find(p);
      const unsigned expected = node == oracle.end() ? 0 : node->second;
      ASSERT_EQ(w.counter(p), expected) << "it=" << it << " pos=" << p;
    }
  }

  // Full final sweep.
  for (unsigned p = 0; p < params.b1; ++p) {
    const auto node = oracle.find(p);
    const unsigned expected = node == oracle.end() ? 0 : node->second;
    EXPECT_EQ(w.counter(p), expected) << "pos=" << p;
  }
}

class HcbfOracle : public ::testing::TestWithParam<PropertyParams> {};

TEST_P(HcbfOracle, Width32) { run_oracle<32>(GetParam(), 1200); }
TEST_P(HcbfOracle, Width64) { run_oracle<64>(GetParam(), 2000); }
TEST_P(HcbfOracle, Width128) { run_oracle<128>(GetParam(), 2000); }
TEST_P(HcbfOracle, Width256) { run_oracle<256>(GetParam(), 2000); }
TEST_P(HcbfOracle, Width512) { run_oracle<512>(GetParam(), 1500); }

INSTANTIATE_TEST_SUITE_P(
    Configs, HcbfOracle,
    ::testing::Values(PropertyParams{11, 10}, PropertyParams{12, 16},
                      PropertyParams{13, 20}, PropertyParams{99, 8},
                      PropertyParams{0xF00D, 24}));

// ---- reference walk ------------------------------------------------------
//
// The level walk in its plainest form: every level's size counted before
// the step, over a std::vector<bool> whose insertions and removals are
// the vector's own. Hcbf<W> must match it bit for bit, whatever shortcuts
// its steps and WordBitset's one-limb ops take.

struct RefWord {
  std::vector<bool> bits;

  [[nodiscard]] unsigned ones(unsigned lo, unsigned hi) const {
    return static_cast<unsigned>(
        std::count(bits.begin() + lo, bits.begin() + hi, true));
  }
  void insert_zero_at(unsigned pos) {
    bits.insert(bits.begin() + pos, false);
    bits.pop_back();
  }
  void remove_bit_at(unsigned pos) {
    bits.erase(bits.begin() + pos);
    bits.push_back(false);
  }
};

HcbfResult ref_increment(RefWord& w, unsigned b1, unsigned pos,
                         unsigned used) {
  if (b1 + used >= w.bits.size()) return {};
  unsigned level_start = 0;
  unsigned level_size = b1;
  unsigned p = pos;
  unsigned depth = 1;
  unsigned extra_bits = 0;
  for (;;) {
    const unsigned abs = level_start + p;
    const unsigned ones_before = w.ones(level_start, abs);
    const unsigned next_start = level_start + level_size;
    if (!w.bits[abs]) {
      w.bits[abs] = true;
      w.insert_zero_at(next_start + ones_before);
      return {true, depth, extra_bits};
    }
    const unsigned next_size = w.ones(level_start, next_start);
    extra_bits += ceil_log2(next_size);
    p = ones_before;
    level_start = next_start;
    level_size = next_size;
    ++depth;
  }
}

HcbfResult ref_decrement(RefWord& w, unsigned b1, unsigned pos) {
  if (!w.bits[pos]) return {};
  unsigned level_start = 0;
  unsigned level_size = b1;
  unsigned p = pos;
  unsigned depth = 1;
  unsigned extra_bits = 0;
  for (;;) {
    const unsigned abs = level_start + p;
    const unsigned ones_before = w.ones(level_start, abs);
    const unsigned next_start = level_start + level_size;
    const unsigned next_size = w.ones(level_start, next_start);
    const unsigned next_abs = next_start + ones_before;
    if (!w.bits[next_abs]) {
      w.remove_bit_at(next_abs);
      w.bits[abs] = false;
      return {true, depth - 1, extra_bits};
    }
    extra_bits += ceil_log2(next_size);
    p = ones_before;
    level_start = next_start;
    level_size = next_size;
    ++depth;
  }
}

unsigned ref_counter(RefWord w, unsigned b1, unsigned pos) {
  unsigned value = 0;
  while (ref_decrement(w, b1, pos).ok) ++value;
  return value;
}

/// The word's bits read through its raw limbs, not through test().
template <unsigned W>
std::vector<bool> bits_of(const mpcbf::bits::WordBitset<W>& w) {
  std::vector<bool> bits(W);
  for (unsigned i = 0; i < W; ++i) bits[i] = (w.limb(i / 64) >> (i % 64)) & 1;
  return bits;
}

// Random increments and decrements, three in four of them on two hot
// positions (one takes half of all steps) so chains grow past depth 6 and levels spread across limb boundaries;
// each step's result, extra bits and word are compared with the
// reference's, and the touched counter is read back.
template <unsigned W>
void walk_against_reference(unsigned b1, std::uint64_t seed) {
  SCOPED_TRACE(::testing::Message() << "W=" << W << " b1=" << b1);
  Xoshiro256 rng(seed);
  mpcbf::bits::WordBitset<W> word;
  RefWord ref{std::vector<bool>(W)};
  unsigned used = 0;
  unsigned deepest = 0;
  const auto draw = [&] { return static_cast<unsigned>(rng.bounded(b1)); };
  const unsigned hot[2] = {draw(), draw()};
  for (int it = 0; it < 3000; ++it) {
    const auto pick = rng.bounded(4);
    const unsigned pos = pick == 3 ? draw() : hot[pick / 2];
    const bool increment = rng.bounded(100) < 55;
    const HcbfResult got =
        increment ? Hcbf<W>::increment(word, b1, pos, used)
                  : Hcbf<W>::decrement(word, b1, pos);
    const HcbfResult want = increment ? ref_increment(ref, b1, pos, used)
                                      : ref_decrement(ref, b1, pos);
    ASSERT_EQ(got.ok, want.ok) << "it=" << it;
    ASSERT_EQ(got.value, want.value) << "it=" << it;
    ASSERT_EQ(got.extra_bits, want.extra_bits) << "it=" << it;
    ASSERT_EQ(bits_of(word), ref.bits) << "it=" << it;
    ASSERT_EQ(Hcbf<W>::counter(word, b1, pos), ref_counter(ref, b1, pos))
        << "it=" << it;
    if (got.ok) used = increment ? used + 1 : used - 1;
    deepest = std::max(deepest, increment ? got.value : got.value + 1);
  }
  EXPECT_GE(deepest, 6u);
  EXPECT_EQ(Hcbf<W>::hierarchy_bits(word, b1), used);
}

TEST(Hcbf, WalksMatchTheReferenceAtEveryDepth) {
  std::uint64_t seed = 1;
  for (const unsigned b1 : {8u, 24u, 48u}) walk_against_reference<64>(b1, ++seed);
  for (const unsigned b1 : {40u, 60u, 64u, 100u}) {
    walk_against_reference<128>(b1, ++seed);
  }
  for (const unsigned b1 : {60u, 126u, 128u, 192u, 230u}) {
    walk_against_reference<256>(b1, ++seed);
  }
}

// Canonicality: a word reached by inserts+deletes equals a word built by
// the surviving inserts alone (the structure has no history).
TEST(Hcbf, StateIsCanonical) {
  Xoshiro256 rng(77);
  constexpr unsigned kB1 = 20;
  HcbfWord<64> churned(kB1);
  std::map<unsigned, unsigned> oracle;
  unsigned total = 0;
  for (int it = 0; it < 3000; ++it) {
    const auto pos = static_cast<unsigned>(rng.bounded(kB1));
    if (rng.bounded(2) == 0 && kB1 + total < 64) {
      if (churned.increment(pos).ok) {
        ++oracle[pos];
        ++total;
      }
    } else if (oracle.contains(pos) && oracle[pos] > 0) {
      ASSERT_TRUE(churned.decrement(pos).ok);
      if (--oracle[pos] == 0) oracle.erase(pos);
      --total;
    }
  }
  HcbfWord<64> fresh(kB1);
  for (const auto& [pos, count] : oracle) {
    for (unsigned i = 0; i < count; ++i) {
      ASSERT_TRUE(fresh.increment(pos).ok);
    }
  }
  EXPECT_EQ(churned.raw(), fresh.raw());
}

}  // namespace
