// Hierarchical Counting Bloom Filter (HCBF) inside one machine word —
// Sec. III-B and Algorithm 1 of the paper.
//
// Layout of a W-bit word holding an HCBF with first-level size b1:
//
//   [ level 1: b1 membership bits | level 2 | level 3 | ... | free ]
//
// Level 1 has a fixed size; every level j >= 2 has exactly
// popcount(level j-1) bits (one slot per set bit of the level above — the
// class invariant traversal relies on). The counter addressed by level-1
// position p has value c iff the chain starting at p carries 1s through
// levels 1..c and a 0 terminator slot at level c+1. Hence:
//
//   * a counter of value c consumes exactly c hierarchy bits
//     ((c-1) ones + 1 terminator), so hierarchy usage == sum of counters;
//   * querying needs only level 1 — this is what makes the false positive
//     rate depend on b1 alone (eq. 4/5);
//   * counters are not bounded at 15 like CBF's 4-bit counters; a chain may
//     grow as deep as the word allows.
//
// The traversal step from a set bit at in-level position p of level j goes
// to in-level position popcount_j(bits before p) of level j+1 (the paper's
// popcount(i) function).
//
// These are free-standing operations over (WordBitset<W>, b1) so that both
// the sequential and the lock-free container share one implementation.
// Neither keeps per-word usage outside the word: hierarchy_bits() derives
// it in a few in-register popcounts.
#pragma once

#include <cassert>
#include <cstdint>
#include <span>

#include "bitvec/word_bitset.hpp"
#include "hash/hash_stream.hpp"

namespace mpcbf::core {

/// Outcome of a single counter increment/decrement.
struct HcbfResult {
  bool ok = false;        ///< false on overflow (increment) / underflow (decrement)
  unsigned value = 0;     ///< counter value after the operation
  unsigned extra_bits = 0;  ///< hierarchy-addressing bits beyond level 1
                            ///< (per-level ceil(log2(level size)); feeds the
                            ///< update access-bandwidth metric)
};

template <unsigned W>
struct Hcbf {
  using Word = bits::WordBitset<W>;

  /// Total occupied bits: b1 plus the packed hierarchy levels. Derived by
  /// walking the level-size invariant |v_{j+1}| = popcount(v_j); one
  /// iteration per counter level, so a few popcounts per word.
  static unsigned occupied_bits(const Word& w, unsigned b1) noexcept {
    unsigned start = 0;
    unsigned size = b1;
    unsigned total = 0;
    while (size > 0 && total + size <= W) {
      const unsigned ones = w.popcount_range(start, start + size);
      total += size;
      start += size;
      size = ones;
    }
    return total;
  }

  /// Hierarchy bits in use == sum of all counters in the word.
  static unsigned hierarchy_bits(const Word& w, unsigned b1) noexcept {
    return occupied_bits(w, b1) - b1;
  }

  /// True iff one more increment fits (it will consume one hierarchy bit).
  static bool can_increment(unsigned b1, unsigned hierarchy_used) noexcept {
    return b1 + hierarchy_used < W;
  }

  /// Increment the counter at level-1 position `pos` (0 <= pos < b1).
  /// `hierarchy_used` must be the word's current hierarchy usage; the
  /// caller owns keeping it in sync (+1 on success).
  static HcbfResult increment(Word& w, unsigned b1, unsigned pos,
                              unsigned hierarchy_used) noexcept {
    assert(pos < b1);
    if (!can_increment(b1, hierarchy_used)) {
      return {};
    }
    unsigned level_start = 0;
    unsigned level_size = b1;
    unsigned p = pos;
    unsigned depth = 1;
    unsigned extra_bits = 0;
    for (;;) {
      const unsigned abs = level_start + p;
      const unsigned ones_before = w.popcount_range(level_start, abs);
      const unsigned next_start = level_start + level_size;
      if (!w.test(abs)) {
        // End of the chain: extend it by one. The freshly set bit at level
        // `depth` gets its terminator slot at level depth+1, index
        // popcount(bits before it).
        w.set(abs);
        w.insert_zero_at(next_start + ones_before);
        return {true, depth, extra_bits};
      }
      // Descend to this bit's slot in the next level.
      const unsigned next_size =
          w.popcount_range(level_start, next_start);
      extra_bits += hash::ceil_log2(next_size);
      p = ones_before;
      level_start = next_start;
      level_size = next_size;
      ++depth;
    }
  }

  /// Decrement the counter at level-1 position `pos`. Fails (ok=false)
  /// when the counter is already zero. Caller decrements its cached
  /// hierarchy usage on success.
  static HcbfResult decrement(Word& w, unsigned b1, unsigned pos) noexcept {
    assert(pos < b1);
    if (!w.test(pos)) {
      return {};
    }
    // Most chains end at level 1: one masked popcount, a bit test and a
    // shift-merge. A level's size is counted only when the walk descends.
    unsigned level_start = 0;
    unsigned level_size = b1;
    unsigned abs = pos;
    unsigned depth = 1;
    unsigned extra_bits = 0;
    for (;;) {
      const unsigned next_start = level_start + level_size;
      const unsigned next_abs =
          next_start + w.popcount_range(level_start, abs);
      if (!w.test(next_abs)) {
        // `abs` is the last 1 of the chain; drop its terminator slot and
        // flip it back to 0 (the paper's delete, Sec. III-B.1).
        w.remove_bit_at(next_abs);
        w.clear(abs);
        return {true, depth - 1, extra_bits};
      }
      const unsigned next_size = w.popcount_range(level_start, next_start);
      extra_bits += hash::ceil_log2(next_size);
      abs = next_abs;
      level_start = next_start;
      level_size = next_size;
      ++depth;
    }
  }

  /// Current value of the counter at level-1 position `pos`.
  static unsigned counter(const Word& w, unsigned b1, unsigned pos) noexcept {
    assert(pos < b1);
    if (!w.test(pos)) return 0;
    unsigned level_start = 0;
    unsigned level_size = b1;
    unsigned abs = pos;
    unsigned depth = 1;
    for (;;) {
      const unsigned next_start = level_start + level_size;
      const unsigned next_abs =
          next_start + w.popcount_range(level_start, abs);
      if (!w.test(next_abs)) return depth;
      level_size = w.popcount_range(level_start, next_start);
      abs = next_abs;
      level_start = next_start;
      ++depth;
    }
  }

  /// Membership test over level 1 only. With `short_circuit`, stops at the
  /// first zero bit (the behaviour behind the paper's sub-k average query
  /// accesses). Returns true iff all positions are set.
  static bool membership(const Word& w, std::span<const unsigned> positions,
                         bool short_circuit = true) noexcept {
    bool all = true;
    for (const unsigned pos : positions) {
      if (!w.test(pos)) {
        all = false;
        if (short_circuit) return false;
      }
    }
    return all;
  }

  /// Structural validation for tests: level sizes follow the popcount
  /// invariant, the occupied region fits in the word, and everything past
  /// it is zero.
  static bool validate(const Word& w, unsigned b1) noexcept {
    unsigned start = 0;
    unsigned size = b1;
    while (size > 0) {
      if (start + size > W) return false;
      const unsigned ones = w.popcount_range(start, start + size);
      start += size;
      size = ones;
    }
    // Everything beyond the last (empty) level must be zero.
    return w.popcount_range(start, W) == 0;
  }
};

/// Value-type wrapper bundling a word with its b1 — convenient for unit
/// tests, examples, and the paper's Fig. 3 walkthrough.
template <unsigned W>
class HcbfWord {
 public:
  explicit HcbfWord(unsigned b1) noexcept : b1_(b1) {
    assert(b1 >= 1 && b1 <= W);
  }

  [[nodiscard]] unsigned b1() const noexcept { return b1_; }
  [[nodiscard]] unsigned hierarchy_used() const noexcept { return used_; }
  [[nodiscard]] unsigned free_bits() const noexcept { return W - b1_ - used_; }

  HcbfResult increment(unsigned pos) noexcept {
    const HcbfResult r = Hcbf<W>::increment(word_, b1_, pos, used_);
    if (r.ok) ++used_;
    return r;
  }

  HcbfResult decrement(unsigned pos) noexcept {
    const HcbfResult r = Hcbf<W>::decrement(word_, b1_, pos);
    if (r.ok) --used_;
    return r;
  }

  [[nodiscard]] unsigned counter(unsigned pos) const noexcept {
    return Hcbf<W>::counter(word_, b1_, pos);
  }

  [[nodiscard]] bool membership(std::span<const unsigned> positions,
                                bool short_circuit = true) const noexcept {
    return Hcbf<W>::membership(word_, positions, short_circuit);
  }

  [[nodiscard]] bool validate() const noexcept {
    return Hcbf<W>::validate(word_, b1_) &&
           Hcbf<W>::hierarchy_bits(word_, b1_) == used_;
  }

  [[nodiscard]] const bits::WordBitset<W>& raw() const noexcept {
    return word_;
  }
  [[nodiscard]] bits::WordBitset<W>& raw() noexcept { return word_; }

 private:
  bits::WordBitset<W> word_{};
  unsigned b1_;
  unsigned used_ = 0;
};

}  // namespace mpcbf::core
