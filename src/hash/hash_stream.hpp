// HashBitStream — the single source of hash bits for every filter.
//
// The paper characterizes each scheme by its *access bandwidth*: how many
// hash bits an operation consumes (log2(l) to pick a word, k*log2(b1) to
// pick bits inside it, ...). This class makes that metric measurable: it
// serves raw bits from successive MurmurHash3 128-bit blocks of the key
// (rehashing with an incremented seed when a block is exhausted, so the
// supply is unbounded) and separately accounts the paper-defined bandwidth
// of every request.
//
// Determinism: the bit sequence depends only on (key bytes, seed), so an
// insert and a later delete of the same key derive identical positions —
// the property CBF correctness rests on.
#pragma once

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstdint>
#include <string_view>

#include "hash/murmur3.hpp"

namespace mpcbf::hash {

/// Default hash seed for every filter in the library: the 64-bit golden
/// ratio (2^64/φ), the standard odd constant with well-mixed bits. One
/// definition so configs, convenience constructors, and tools can't
/// drift apart; serialization records the seed, so changing a filter's
/// seed is a layout change, not a cosmetic one.
inline constexpr std::uint64_t kDefaultSeed = 0x9E3779B97F4A7C15ULL;

/// ceil(log2(x)) for x >= 1; 0 for x <= 1. This is the paper's accounting
/// unit for addressing a structure of x slots.
[[nodiscard]] constexpr unsigned ceil_log2(std::uint64_t x) noexcept {
  if (x <= 1) return 0;
  return static_cast<unsigned>(64 - std::countl_zero(x - 1));
}

/// The per-bound constants of HashBitStream::next_index, computed once:
/// a filter that draws many indices from the same bound (every word
/// index, every level-1 position) hoists them out of its per-key loop.
struct IndexBound {
  constexpr explicit IndexBound(std::size_t b) noexcept
      : bound(b),
        log2(ceil_log2(b)),
        pow2(std::has_single_bit(b)),
        width(pow2 ? log2 : std::min(48u, log2 + 12)) {}

  std::size_t bound;
  unsigned log2;   ///< accounted bits per index
  bool pow2;       ///< index = raw bits, no multiply-shift
  unsigned width;  ///< raw bits consumed per index
};

class HashBitStream {
 public:
  /// Starts a stream over `key`. The view must outlive the stream (filters
  /// construct one per operation, so this holds trivially).
  HashBitStream(std::string_view key, std::uint64_t seed) noexcept
      : key_(key), seed_(seed) {
    refill();
  }

  /// Uniform index in [0, bound). Accounts ceil_log2(bound) bits of access
  /// bandwidth — the paper's cost of addressing `bound` slots. For
  /// non-power-of-two bounds, uses a multiply-shift over
  /// ceil_log2(bound)+12 raw bits: the relative bias is < 2^-12,
  /// invisible next to the sampling noise of any experiment here, while
  /// keeping entropy consumption low enough that a typical operation's
  /// indices fit in one 128-bit hash block, so it hashes the key once
  /// (and a batch can derive eight keys from their first blocks,
  /// core/word_engine.hpp derive_chunk). One hash does not make MPCBF's
  /// query cheaper than CBF's in cache: fig08 measures MPCBF-1 above CBF
  /// at 4 Mb; at DRAM size its single word fetch makes it cheaper.
  std::size_t next_index(std::size_t bound) noexcept {
    assert(bound > 0);
    return next_index(IndexBound(bound));
  }

  /// next_index over precomputed bound constants: the same bits, the
  /// same index, the same accounting.
  std::size_t next_index(const IndexBound& b) noexcept {
    accounted_bits_ += b.log2;
    if (b.width == 0) return 0;  // bound 1
    const std::uint64_t v = raw_bits(b.width);
    if (b.pow2) return static_cast<std::size_t>(v);
    return static_cast<std::size_t>(
        (static_cast<__uint128_t>(v) * b.bound) >> b.width);
  }

  /// `width` raw bits (1..64), accounted at face value.
  std::uint64_t next_bits(unsigned width) noexcept {
    accounted_bits_ += width;
    return raw_bits(width);
  }

  /// Paper-metric access bandwidth consumed so far, in bits.
  [[nodiscard]] std::uint64_t accounted_bits() const noexcept {
    return accounted_bits_;
  }

 private:
  void refill() noexcept {
    const Hash128 h = murmur3_128(key_, seed_ + block_);
    lane_ = h.lo;
    next_lane_ = h.hi;
    on_second_lane_ = false;
    lane_used_ = 0;
    ++block_;
  }

  std::uint64_t raw_bits(unsigned width) noexcept {
    assert(width >= 1 && width <= 64);
    if (lane_used_ + width > 64) {
      if (!on_second_lane_) {
        lane_ = next_lane_;
        on_second_lane_ = true;
        lane_used_ = 0;
      } else {
        refill();
      }
    }
    const std::uint64_t v = lane_ >> lane_used_;
    lane_used_ += width;
    return width == 64 ? v : (v & ((std::uint64_t{1} << width) - 1));
  }

  std::string_view key_;
  std::uint64_t seed_;
  // The current 64-bit lane and the one after it, as plain members
  // rather than an indexed pair, so a stream kept in registers needs no
  // memory round trip when it moves to its second lane.
  std::uint64_t lane_ = 0;
  std::uint64_t next_lane_ = 0;
  bool on_second_lane_ = false;
  unsigned lane_used_ = 0;
  std::uint64_t block_ = 0;
  std::uint64_t accounted_bits_ = 0;
};

/// Kirsch–Mitzenmacher double hashing: k positions from two base hashes,
/// g_i(x) = h1 + i*h2 (mod m). Used by the classic Bloom/CBF baselines when
/// `use_double_hashing` is configured; accounted as 2*log2(m) bits total,
/// per the "less hashing, same performance" scheme the paper cites as [22].
class DoubleHasher {
 public:
  DoubleHasher(std::string_view key, std::uint64_t seed,
               std::size_t m) noexcept
      : m_(m) {
    const Hash128 h = murmur3_128(key, seed);
    h1_ = h.lo % m;
    h2_ = h.hi % m;
    if (h2_ == 0) h2_ = 1;  // step must be non-zero to visit k slots
  }

  /// i-th derived position, i = 0..k-1.
  [[nodiscard]] std::size_t position(std::size_t i) const noexcept {
    return static_cast<std::size_t>(
        (h1_ + static_cast<__uint128_t>(i) * h2_) % m_);
  }

  [[nodiscard]] std::uint64_t accounted_bits() const noexcept {
    return 2ULL * ceil_log2(m_);
  }

 private:
  std::uint64_t h1_;
  std::uint64_t h2_;
  std::size_t m_;
};

}  // namespace mpcbf::hash
