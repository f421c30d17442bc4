// WordBitset<W> — a fixed-width bitset with *positional insertion and
// removal*, the mutation primitive of the hierarchical CBF.
//
// The HCBF (Sec. III-B of the paper) packs variable-size hierarchy levels
// contiguously inside one machine word. Incrementing a counter inserts a
// zero bit at some position and shifts the tail right; decrementing removes
// a bit and shifts the tail left. This class provides exactly those
// operations on a W-bit value stored in ⌈W/64⌉ limbs, plus the ranged
// popcount the level traversal needs.
//
// Bit order: bit 0 is the least significant bit of limb 0. All bits at
// index >= W are maintained as zero (class invariant).
#pragma once

#include <array>
#include <bit>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <string>

namespace mpcbf::bits {

template <unsigned W>
class WordBitset {
  static_assert(W >= 8 && W <= 512, "word width out of supported range");

 public:
  static constexpr unsigned kBits = W;
  static constexpr unsigned kLimbs = (W + 63) / 64;

  constexpr WordBitset() noexcept : limbs_{} {}

  [[nodiscard]] constexpr bool test(unsigned i) const noexcept {
    assert(i < W);
    return (limbs_[i >> 6] >> (i & 63)) & 1;
  }

  constexpr void set(unsigned i) noexcept {
    assert(i < W);
    limbs_[i >> 6] |= std::uint64_t{1} << (i & 63);
  }

  constexpr void clear(unsigned i) noexcept {
    assert(i < W);
    limbs_[i >> 6] &= ~(std::uint64_t{1} << (i & 63));
  }

  constexpr void reset() noexcept {
    for (auto& l : limbs_) l = 0;
  }

  /// Number of ones in [lo, hi).
  [[nodiscard]] constexpr unsigned popcount_range(unsigned lo,
                                                  unsigned hi) const noexcept {
    assert(lo <= hi && hi <= W);
    if (lo == hi) return 0;
    unsigned count = 0;
    unsigned limb_lo = lo >> 6;
    const unsigned limb_hi = (hi - 1) >> 6;
    for (unsigned j = limb_lo; j <= limb_hi; ++j) {
      std::uint64_t v = limbs_[j];
      if (j == limb_lo && (lo & 63) != 0) {
        v &= ~std::uint64_t{0} << (lo & 63);
      }
      if (j == limb_hi && (hi & 63) != 0) {
        v &= ~std::uint64_t{0} >> (64 - (hi & 63));
      }
      count += static_cast<unsigned>(std::popcount(v));
    }
    return count;
  }

  [[nodiscard]] constexpr unsigned count() const noexcept {
    unsigned c = 0;
    for (auto l : limbs_) c += static_cast<unsigned>(std::popcount(l));
    return c;
  }

  /// Inserts a zero bit at `pos`: bits [pos, W-1) move to [pos+1, W) and
  /// the previous bit W-1 is discarded. The HCBF guarantees that bit is
  /// unused before calling (capacity check happens a level up).
  constexpr void insert_zero_at(unsigned pos) noexcept {
    assert(pos < W);
    const unsigned limb_i = pos >> 6;
    const unsigned off = pos & 63;
    // Top-down so each limb reads its lower neighbour's original bit 63.
    for (unsigned j = kLimbs - 1; j > limb_i; --j) {
      limbs_[j] = (limbs_[j] << 1) | (limbs_[j - 1] >> 63);
    }
    const std::uint64_t keep_mask =
        off == 0 ? 0 : (~std::uint64_t{0} >> (64 - off));
    const std::uint64_t keep = limbs_[limb_i] & keep_mask;
    limbs_[limb_i] = keep | ((limbs_[limb_i] & ~keep_mask) << 1);
    mask_top();
  }

  /// Removes the bit at `pos`: bits (pos, W) move to [pos, W-1) and bit
  /// W-1 becomes zero. Returns the removed bit's value.
  constexpr bool remove_bit_at(unsigned pos) noexcept {
    assert(pos < W);
    const bool removed = test(pos);
    const unsigned limb_i = pos >> 6;
    const unsigned off = pos & 63;
    const std::uint64_t keep_mask =
        off == 0 ? 0 : (~std::uint64_t{0} >> (64 - off));
    std::uint64_t merged = (limbs_[limb_i] & keep_mask) |
                           ((limbs_[limb_i] >> 1) & ~keep_mask);
    if (limb_i + 1 < kLimbs) {
      merged = (merged & ~(std::uint64_t{1} << 63)) |
               ((limbs_[limb_i + 1] & 1) << 63);
    } else {
      merged &= ~(std::uint64_t{1} << 63);
    }
    limbs_[limb_i] = merged;
    for (unsigned j = limb_i + 1; j < kLimbs; ++j) {
      limbs_[j] >>= 1;
      if (j + 1 < kLimbs) {
        limbs_[j] |= (limbs_[j + 1] & 1) << 63;
      }
    }
    mask_top();
    return removed;
  }

  /// Raw limb access for the concurrent variant (W == 64 only), the
  /// batch gather and tests.
  [[nodiscard]] constexpr std::uint64_t limb(unsigned j) const noexcept {
    return limbs_[j];
  }
  constexpr void set_limb(unsigned j, std::uint64_t v) noexcept {
    limbs_[j] = v;
    mask_top();
  }

  friend constexpr bool operator==(const WordBitset&,
                                   const WordBitset&) noexcept = default;

  /// "0101..." with bit 0 leftmost — matches how the paper's Fig. 3 reads.
  [[nodiscard]] std::string to_string() const {
    std::string s;
    s.reserve(W);
    for (unsigned i = 0; i < W; ++i) s.push_back(test(i) ? '1' : '0');
    return s;
  }

 private:
  constexpr void mask_top() noexcept {
    constexpr unsigned rem = W & 63;
    if constexpr (rem != 0) {
      limbs_[kLimbs - 1] &= ~std::uint64_t{0} >> (64 - rem);
    }
  }

  std::array<std::uint64_t, kLimbs> limbs_;
};

}  // namespace mpcbf::bits
