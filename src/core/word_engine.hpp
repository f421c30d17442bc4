// Word engine — the shared kernel the MPCBF filter is built from.
//
// The paper's contribution is one small machine: hash bits are turned into
// g word targets with ⌈k/g⌉ level-1 positions each (Sec. III-C), and each
// word runs the hierarchical counter walk of core/hcbf.hpp. This header is
// the single source of that machine:
//
//   * TargetDeriver — HashBitStream -> Targets (words + positions) in the
//     one canonical derivation order every operation must agree on, with
//     the paper's consumed-bit accounting riding along in the stream.
//     Where a whole derivation fits in the first 128-bit hash block it
//     also holds a draw schedule that derives from that block alone.
//   * derive_chunk — the derive stage of every batch, into a draw-major
//     DrawBlock: eight keys of one length per hash::murmur3_128_x8 call
//     and the schedule applied to all eight lanes at once (AVX-512,
//     chosen at run time), the stream elsewhere; bit-identical either
//     way.
//   * LevelWalk<W> — the hierarchical increment/decrement/min-counter
//     walk applied across a target set, storage-policy agnostic.
//   * PlainWords<W> — the storage: a huge-page-advised word vector under
//     external synchronization, with no out-of-word metadata: a word's
//     hierarchy usage is re-derived from its value, once per distinct word
//     per operation.
//   * batch_pipeline — the batch skeleton every insert_batch/erase_batch
//     runs: derive a chunk's targets (pure compute), gather its words
//     with plain demand loads in one tight loop so the out-of-order core
//     overlaps the cache misses, then resolve each key in key order.
//   * query_batch — the one query path, scalar and batch: a batch runs
//     the same three phases on a draw-major chunk record, one hash, one
//     fetch per group word and one fail mask per position, eight keys
//     per resolve step where the CPU has AVX-512 (resolve_x8, else
//     resolve_scalar), with the paper's lazy bit-by-bit accounting
//     reproduced exactly; a one-key call runs that lazy walk itself
//     (tests/test_stats_parity.cpp).
//   * OpTally — call-local per-class tallies, published once per call.
//
// Stats/trace stay pluggable: the engine records through the caller's
// AccessStats (the MPCBF_DISABLE_ACCESS_STATS twin compiles it out) and
// spans come from the MPCBF_TRACE_* macros at the filter layer, which
// cost one relaxed load while the tracer is disarmed.
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cassert>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "bitvec/word_bitset.hpp"
#include "common/page_reclaim.hpp"
#include "core/hcbf.hpp"
#include "hash/hash_stream.hpp"
#include "metrics/access_stats.hpp"
#include "metrics/timer.hpp"
#include "model/fpr_model.hpp"

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#include <immintrin.h>
/// The eight-lane kernels (TargetDeriver::draw_x8, resolve_x8) exist.
/// They are compiled for AVX-512 on their own and run only where
/// TargetDeriver::x8() says the CPU has it; the rest of the engine is
/// not compiled for AVX-512.
#define MPCBF_ENGINE_HAVE_X8 1
#define MPCBF_ENGINE_X8 \
  __attribute__((target("avx512f,avx512dq,avx512bw,avx512vl")))
#else
#define MPCBF_ENGINE_HAVE_X8 0
#endif

namespace mpcbf::core::engine {

#if MPCBF_ENGINE_HAVE_X8
// The eight-lane kernels' shifts, masks and conversions go through their
// zero-masking forms under this all-lanes mask: the same instructions,
// and GCC 12's unmasked forms start from an undefined vector that
// -Wmaybe-uninitialized reports inside a target-attributed function.
inline constexpr __mmask8 kAllLanes = 0xFF;
#endif

// Hot-path force-inline: the engine decomposes what used to be one big
// member function per operation into small policy pieces; without the
// hint GCC keeps some of them (notably derive_all) out of line at -O2,
// costing ~15% on scalar insert/erase.
#if defined(__GNUC__) || defined(__clang__)
#define MPCBF_ENGINE_INLINE __attribute__((always_inline)) inline
#else
#define MPCBF_ENGINE_INLINE inline
#endif

/// Hard limits shared by every variant. g is bounded by the fixed-size
/// target arrays; ⌈k/g⌉ by the per-word position arrays. One word can
/// receive up to k = kMaxG * kMaxKPerWord positions when all g hashes
/// collide, which is what sizes the flat arrays below.
inline constexpr unsigned kMaxG = 8;
inline constexpr unsigned kMaxKPerWord = 32;
inline constexpr unsigned kMaxPositions = kMaxG * kMaxKPerWord;

/// Shared constructor validation: every variant accepts and rejects the
/// same (k, g) shapes. `name` prefixes the exception message.
[[noreturn]] inline void throw_shape_error(const char* name,
                                           const char* what) {
  std::string msg(name);
  msg.append(": ").append(what);
  throw std::invalid_argument(msg);
}

inline void validate_shape(unsigned k, unsigned g, const char* name) {
  if (k == 0) throw_shape_error(name, "k must be >= 1");
  if (g == 0 || g > k) throw_shape_error(name, "need 1 <= g <= k");
  if (g > kMaxG) throw_shape_error(name, "g too large");
  if ((k + g - 1) / g > kMaxKPerWord) {
    throw_shape_error(name, "too many hashes per word");
  }
}

/// Fixed-capacity set of the distinct words an operation touches — the
/// paper's "memory accesses" unit (duplicate hash words cost one access).
struct SeenWords {
  std::array<std::size_t, kMaxG> ids;
  std::size_t count = 0;

  /// Returns true iff `w` was not already present.
  bool add(std::size_t w) noexcept {
    for (std::size_t s = 0; s < count; ++s) {
      if (ids[s] == w) return false;
    }
    ids[count++] = w;
    return true;
  }
};

/// Position values Targets can hold: positions are packed into 13 bits
/// next to a 3-bit group index (kMaxG = 8), so b1 (or PCBF's counters
/// per word) must stay below this.
inline constexpr unsigned kPosBits = 13;
inline constexpr unsigned kMaxPositionRange = 1u << kPosBits;
static_assert(kMaxG <= (1u << (16 - kPosBits)), "group index must fit");

/// An operation's derived targets in canonical (derivation) order:
/// word t, then its positions — the order queries consume, so inserts,
/// deletes and queries agree on every hash bit. Compact on purpose: each
/// entry is one u16 (group index << kPosBits | position) and the word
/// index lives once per group, so a 32-key batch chunk's targets fit in
/// L1d next to the words being resolved.
struct Targets {
  // Word index per hash group, including groups with zero positions
  // (uneven k/g splits): those words have no entry yet still cost a
  // memory touch, which batch accounting and the gather must replicate.
  std::array<std::size_t, kMaxG> group_word;
  std::array<std::uint16_t, kMaxPositions> entry;
  unsigned total_positions = 0;
  std::size_t distinct_words = 0;

  [[nodiscard]] std::size_t word_of(unsigned i) const noexcept {
    return group_word[entry[i] >> kPosBits];
  }
  [[nodiscard]] unsigned pos(unsigned i) const noexcept {
    return entry[i] & (kMaxPositionRange - 1);
  }
  /// Appends position `pos` of hash group `group`.
  void push(unsigned group, unsigned pos) noexcept {
    assert(group < kMaxG && pos < kMaxPositionRange);
    entry[total_positions++] =
        static_cast<std::uint16_t>(group << kPosBits | pos);
  }
};
static_assert(sizeof(Targets) <= 640, "a batch chunk's targets must fit L1d");

/// A run of keys' draws, draw-major: the word of hash group wi of key i
/// at word[wi * stride + i], and its d-th position (counted over all
/// groups in the canonical order) at pos[d * stride + i]. The same draw
/// of eight consecutive keys is contiguous, so an eight-key derive
/// stores each draw as one vector and an eight-key resolve loads it as
/// one.
struct DrawBlock {
  std::size_t* word;
  std::uint16_t* pos;
  std::size_t stride;
};

/// Turns a HashBitStream into the Targets word/position set. Holds the
/// layout scalars and the constants derived from them (index bounds,
/// positions per group), computed once per deriver: Mpcbf holds one for
/// its lifetime, so no operation recomputes them.
class TargetDeriver {
 public:
  TargetDeriver(std::size_t num_words, unsigned k, unsigned g,
                unsigned b1) noexcept
      : word_bound_(num_words),
        pos_bound_(b1),
        k_(k),
        g_(g),
        kw_(model::hashes_per_word(k, g, 0)),
        kw_last_(model::hashes_per_word(k, g, g - 1)) {
    assert(g >= 1 && g <= kMaxG && b1 <= kMaxPositionRange);
    x8_ = build_schedule() && hash::murmur3_128_x8_available();
  }

  /// The canonical derivation order every operation agrees on: for each
  /// hash group, its word index, then its positions.
  /// `on_word(group, word)` and `on_pos(group, pos)` receive them.
  template <class OnWord, class OnPos>
  MPCBF_ENGINE_INLINE void derive(hash::HashBitStream& stream,
                                  OnWord&& on_word, OnPos&& on_pos) const {
    for (unsigned wi = 0; wi < g_; ++wi) {
      on_word(wi, next_word(stream));
      const unsigned kw = positions_in(wi);
      for (unsigned i = 0; i < kw; ++i) on_pos(wi, next_pos(stream));
    }
  }

  /// The next word index and the next level-1 position of the order
  /// above, one draw at a time (a one-key query derives lazily).
  MPCBF_ENGINE_INLINE std::size_t next_word(
      hash::HashBitStream& stream) const noexcept {
    return stream.next_index(word_bound_);
  }
  MPCBF_ENGINE_INLINE unsigned next_pos(
      hash::HashBitStream& stream) const noexcept {
    return static_cast<unsigned>(stream.next_index(pos_bound_));
  }

  /// Derives all g word indices and k positions in the canonical order.
  /// Consumed-bit accounting accrues in the stream itself.
  MPCBF_ENGINE_INLINE void derive_all(hash::HashBitStream& stream,
                                      Targets& t) const {
    SeenWords seen;
    t.total_positions = 0;
    derive(
        stream,
        [&](unsigned wi, std::size_t w) {
          t.group_word[wi] = w;
          seen.add(w);
        },
        [&](unsigned wi, unsigned pos) { t.push(wi, pos); });
    t.distinct_words = seen.count;
  }

#if MPCBF_ENGINE_HAVE_X8
  /// derive() of eight keys from their first 128-bit hash blocks (key j's
  /// is {h.lo[j], h.hi[j]}) through the draw schedule, all eight lanes at
  /// once: per draw a shift, a mask and, for a bound that is not a power
  /// of two, a multiply-shift. Key j's draws land in lane j of `out`'s
  /// rows: the same indices in the same order as the stream's. Valid only
  /// where x8().
  MPCBF_ENGINE_X8 void draw_x8(const hash::Hash128x8& h,
                               const DrawBlock& out) const noexcept {
    const __m512i lane[2] = {_mm512_loadu_si512(h.lo.data()),
                             _mm512_loadu_si512(h.hi.data())};
    const std::uint8_t* at = schedule_.data();
    std::uint16_t* pos = out.pos;
    for (unsigned wi = 0; wi < g_; ++wi) {
      _mm512_storeu_si512(out.word + wi * out.stride,
                          draw8(lane, *at++, word_bound_));
      for (unsigned i = positions_in(wi); i > 0; --i, pos += out.stride) {
        // Positions are below kMaxPositionRange: 16 bits hold them.
        _mm_storeu_si128(
            reinterpret_cast<__m128i*>(pos),
            _mm512_maskz_cvtepi64_epi16(kAllLanes,
                                        draw8(lane, *at++, pos_bound_)));
      }
    }
  }
#endif

  /// True when every draw of a derivation comes from the first hash block
  /// and every multiply-shift fits in 64 bits (the schedule applies).
  [[nodiscard]] bool has_schedule() const noexcept { return scheduled_; }
  /// has_schedule() on a CPU that runs hash::murmur3_128_x8 (AVX-512 F,
  /// DQ, BW and VL): derive_chunk hashes and draws eight keys of one
  /// length at a time, and query_batch resolves eight keys per step.
  [[nodiscard]] bool x8() const noexcept { return x8_; }

  /// Paper-metric bits one full derivation accounts: ceil_log2(l) per
  /// word index and ceil_log2(b1) per position, whatever the key.
  [[nodiscard]] std::uint64_t derive_bits() const noexcept {
    return std::uint64_t{g_} * word_bound_.log2 +
           std::uint64_t{total_positions()} * pos_bound_.log2;
  }

  /// Positions hash group `wi` receives: ⌈k/g⌉, the remainder for the
  /// last group (model::hashes_per_word without its division).
  [[nodiscard]] unsigned positions_in(unsigned wi) const noexcept {
    return wi + 1 < g_ ? kw_ : kw_last_;
  }
  /// Positions one key derives in all: the sum of positions_in.
  [[nodiscard]] unsigned total_positions() const noexcept {
    return kw_ * (g_ - 1) + kw_last_;
  }

  [[nodiscard]] std::size_t num_words() const noexcept {
    return word_bound_.bound;
  }
  [[nodiscard]] unsigned k() const noexcept { return k_; }
  [[nodiscard]] unsigned g() const noexcept { return g_; }
  [[nodiscard]] unsigned b1() const noexcept {
    return static_cast<unsigned>(pos_bound_.bound);
  }
  /// Accounted bits per word index (ceil_log2(l)) and per position
  /// (ceil_log2(b1)).
  [[nodiscard]] unsigned word_bits() const noexcept { return word_bound_.log2; }
  [[nodiscard]] unsigned pos_bits() const noexcept { return pos_bound_.log2; }

 private:
#if MPCBF_ENGINE_HAVE_X8
  /// One draw whose raw bits start at bit `at` of each lane's block
  /// (half at / 64): next_index's arithmetic on eight blocks. The
  /// schedule guarantees the product fits 64 bits.
  static MPCBF_ENGINE_X8 MPCBF_ENGINE_INLINE __m512i
  draw8(const __m512i (&lane)[2], unsigned at, const hash::IndexBound& b) {
    const std::uint64_t mask =
        b.width >= 64 ? ~std::uint64_t{0}
                      : (std::uint64_t{1} << b.width) - 1;
    __m512i v = _mm512_maskz_srlv_epi64(kAllLanes, lane[at >> 6],
                                        _mm512_set1_epi64(at & 63));
    v = _mm512_maskz_and_epi64(kAllLanes, v,
                               _mm512_set1_epi64(static_cast<long long>(mask)));
    if (b.pow2) return v;
    v = _mm512_mullo_epi64(v,
                           _mm512_set1_epi64(static_cast<long long>(b.bound)));
    return _mm512_maskz_srlv_epi64(kAllLanes, v, _mm512_set1_epi64(b.width));
  }
#endif

  /// Replays HashBitStream's lane bookkeeping once over the canonical
  /// order, recording where each draw's raw bits start. Returns false
  /// when a draw would need a second block, a multiply-shift would
  /// overflow 64 bits, or the shape has more draws than the schedule
  /// holds (only bound-1 shapes, whose draws take no bits, can).
  bool build_schedule() noexcept {
    if (g_ + total_positions() > schedule_.size()) return false;
    for (const hash::IndexBound* b : {&word_bound_, &pos_bound_}) {
      if (!b->pow2 && b->width + b->log2 > 64) return false;
    }
    unsigned lane = 0;
    unsigned used = 0;
    std::size_t d = 0;
    const auto place = [&](const hash::IndexBound& b) {
      if (used + b.width > 64) {
        if (lane == 1) return false;
        lane = 1;
        used = 0;
      }
      schedule_[d++] = static_cast<std::uint8_t>(lane * 64 + used);
      used += b.width;
      return true;
    };
    for (unsigned wi = 0; wi < g_; ++wi) {
      if (!place(word_bound_)) return false;
      for (unsigned i = positions_in(wi); i > 0; --i) {
        if (!place(pos_bound_)) return false;
      }
    }
    scheduled_ = true;
    return true;
  }

  hash::IndexBound word_bound_;
  hash::IndexBound pos_bound_;
  unsigned k_;
  unsigned g_;
  unsigned kw_;
  unsigned kw_last_;
  bool scheduled_ = false;
  bool x8_ = false;
  /// Start bit (lane * 64 + shift) of each draw, in canonical order.
  std::array<std::uint8_t, 128> schedule_{};
};

/// Derives keys[0..n) into `out` (key i in lane i), each in the
/// canonical order, exactly as der.derive over a HashBitStream per key
/// would: the one derive stage of query_batch and of the batch
/// mutations. Where der.x8(), each aligned group of eight keys of one
/// length is hashed in one hash::murmur3_128_x8 call and drawn in one
/// TargetDeriver::draw_x8 call; a group of mixed lengths, the last n % 8
/// keys and every key on other shapes or CPUs go through HashBitStream.
template <class Key>
MPCBF_ENGINE_INLINE void derive_chunk(const TargetDeriver& der,
                                      std::span<const Key> keys,
                                      std::uint64_t seed,
                                      const DrawBlock& out) {
  const auto scalar = [&](std::size_t i) {
    hash::HashBitStream stream(keys[i], seed);
    std::uint16_t* pos = out.pos + i;
    der.derive(
        stream,
        [&](unsigned wi, std::size_t w) { out.word[wi * out.stride + i] = w; },
        [&](unsigned, unsigned p) {
          *pos = static_cast<std::uint16_t>(p);
          pos += out.stride;
        });
  };
  std::size_t i = 0;
#if MPCBF_ENGINE_HAVE_X8
  if (der.x8()) {
    for (; i + 8 <= keys.size(); i += 8) {
      const std::size_t len = keys[i].size();
      std::array<const char*, 8> data;
      bool same_len = true;
      for (std::size_t j = 0; j < 8; ++j) {
        data[j] = keys[i + j].data();
        same_len &= keys[i + j].size() == len;
      }
      if (!same_len) {
        for (std::size_t j = 0; j < 8; ++j) scalar(i + j);
        continue;
      }
      hash::Hash128x8 h;
      hash::murmur3_128_x8(data.data(), len, seed, h);
      der.draw_x8(h, {out.word + i, out.pos + i, out.stride});
    }
  }
#endif
  for (; i < keys.size(); ++i) scalar(i);
}

/// derive_chunk into one Targets per key (out[i] for keys[i]), with
/// derive_all's distinct-word count: each group of eight keys is derived
/// into an eight-lane block, then transposed key by key.
template <class Key>
MPCBF_ENGINE_INLINE void derive_targets(const TargetDeriver& der,
                                        std::span<const Key> keys,
                                        std::uint64_t seed, Targets* out) {
  constexpr std::size_t kLanes = 8;
  std::array<std::size_t, kMaxG * kLanes> words;
  std::array<std::uint16_t, kMaxPositions * kLanes> positions;
  const DrawBlock block{words.data(), positions.data(), kLanes};
  for (std::size_t base = 0; base < keys.size(); base += kLanes) {
    const std::size_t n = std::min(kLanes, keys.size() - base);
    derive_chunk(der, keys.subspan(base, n), seed, block);
    for (std::size_t j = 0; j < n; ++j) {
      Targets& t = out[base + j];
      t.total_positions = 0;
      SeenWords seen;
      const std::uint16_t* pos = &positions[j];
      for (unsigned wi = 0; wi < der.g(); ++wi) {
        t.group_word[wi] = words[wi * kLanes + j];
        seen.add(t.group_word[wi]);
        for (unsigned d = der.positions_in(wi); d > 0; --d, pos += kLanes) {
          t.push(wi, *pos);
        }
      }
      t.distinct_words = seen.count;
    }
  }
}

/// Hierarchy usage of the distinct words one insert touches: derived from
/// the word values by capacity_ok, then advanced by
/// LevelWalk::increment_all as each increment lands.
struct WordUsage {
  std::array<std::size_t, kMaxG> word{};
  std::array<unsigned, kMaxG> used{};
  unsigned count = 0;

  /// The usage slot of `w`, which must be one of the recorded words.
  [[nodiscard]] unsigned& of(std::size_t w) noexcept {
    unsigned s = 0;
    while (word[s] != w) ++s;
    return used[s];
  }
};

/// All-or-nothing capacity check: derives each distinct target word's
/// usage once and aggregates the increments it would receive (g hash
/// words can collide) before mutating. The budget is the word's
/// hierarchy capacity, W - b1. `u` receives the derived usages, which
/// increment_all consumes.
template <class Storage>
[[nodiscard]] MPCBF_ENGINE_INLINE bool capacity_ok(const Storage& s,
                                                   unsigned b1,
                                                   const Targets& t,
                                                   WordUsage& u) noexcept {
  std::array<unsigned, kMaxG> needed{};
  u.count = 0;
  for (unsigned i = 0; i < t.total_positions; ++i) {
    const std::size_t w = t.word_of(i);
    unsigned slot = 0;
    while (slot < u.count && u.word[slot] != w) ++slot;
    if (slot == u.count) {
      u.word[slot] = w;
      u.used[slot] = s.hierarchy_bits(w, b1);
      needed[slot] = 0;
      ++u.count;
    }
    ++needed[slot];
  }
  const unsigned capacity = Storage::kWordBits - b1;
  for (unsigned slot = 0; slot < u.count; ++slot) {
    if (u.used[slot] + needed[slot] > capacity) return false;
  }
  return true;
}

// --- storage policies ----------------------------------------------------

/// Plain storage: a word vector, advised for transparent huge pages so a
/// DRAM-resident filter pays one cache miss per word fetch and no page
/// walk. Mutations require external synchronization; const reads are
/// safe concurrently with each other.
template <unsigned W>
class PlainWords {
 public:
  using Word = bits::WordBitset<W>;
  static constexpr unsigned kWordBits = W;

  /// Allocates `l` zeroed words, advising the array for huge pages
  /// between allocation and the zero-fill that first touches it.
  void init(std::size_t l) {
    words_.reserve(l);
    util::advise_huge_pages(words_.data(), l * sizeof(Word));
    words_.resize(l);
  }

  [[nodiscard]] std::size_t size() const noexcept { return words_.size(); }
  [[nodiscard]] const Word& word(std::size_t w) const noexcept {
    return words_[w];
  }
  /// Demand-loads word `w` for the batch gather: its first and last limb,
  /// which between them touch every cache line a word of at most 64
  /// bytes spans however the array is aligned. The loads are folded with
  /// `+`, never `^`: for a one-limb word `x ^ x` folds to 0 at compile
  /// time and the optimiser would drop the load.
  [[nodiscard]] std::uint64_t gather(std::size_t w) const noexcept {
    static_assert(sizeof(Word) <= 64, "gather covers at most two lines");
    const Word& word = words_[w];
    return word.limb(0) + word.limb(Word::kLimbs - 1);
  }

  /// The word array as 64-bit limbs: limb j of word w at
  /// limbs()[w * Word::kLimbs + j], the base the eight-lane resolve
  /// gathers from.
  [[nodiscard]] const std::uint64_t* limbs() const noexcept {
    static_assert(sizeof(Word) == Word::kLimbs * sizeof(std::uint64_t),
                  "a word is exactly its limbs");
    return reinterpret_cast<const std::uint64_t*>(words_.data());
  }

  /// Increments the counter at (w, pos); `used` is the word's current
  /// hierarchy usage (the caller advances it on success).
  HcbfResult increment(std::size_t w, unsigned b1, unsigned pos,
                       unsigned used) noexcept {
    return Hcbf<W>::increment(words_[w], b1, pos, used);
  }

  HcbfResult decrement(std::size_t w, unsigned b1, unsigned pos) noexcept {
    return Hcbf<W>::decrement(words_[w], b1, pos);
  }

  [[nodiscard]] unsigned counter(std::size_t w, unsigned b1,
                                 unsigned pos) const noexcept {
    return Hcbf<W>::counter(words_[w], b1, pos);
  }

  /// Hierarchy bits word `w` uses (== the sum of its counters).
  [[nodiscard]] unsigned hierarchy_bits(std::size_t w,
                                        unsigned b1) const noexcept {
    return Hcbf<W>::hierarchy_bits(words_[w], b1);
  }

  void reset() {
    for (auto& w : words_) w.reset();
  }

  // Raw access for serialization, merge and structural validation.
  [[nodiscard]] std::vector<Word>& words() noexcept { return words_; }
  [[nodiscard]] const std::vector<Word>& words() const noexcept {
    return words_;
  }

 private:
  std::vector<Word> words_;
};

// --- the hierarchical level walk -----------------------------------------

/// Width-templated level walk over a full target set — the "bits spent
/// only on non-zero counters" machinery of Sec. III-B, applied across the
/// g words an operation touches. Storage must expose the PlainWords
/// increment/decrement/counter signatures.
template <unsigned W>
struct LevelWalk {
  /// Applies every increment; the caller must have verified capacity
  /// (capacity_ok, which also derived `u`), so failure is a programming
  /// error. Returns the hierarchy-addressing bits the walk claimed
  /// (update bandwidth).
  template <class Storage>
  static std::uint64_t increment_all(Storage& s, unsigned b1,
                                     const Targets& t,
                                     WordUsage& u) noexcept {
    std::uint64_t extra_bits = 0;
    for (unsigned i = 0; i < t.total_positions; ++i) {
      const std::size_t w = t.word_of(i);
      unsigned& used = u.of(w);
      const HcbfResult r = s.increment(w, b1, t.pos(i), used);
      assert(r.ok);
      ++used;
      extra_bits += r.extra_bits;
    }
    return extra_bits;
  }

  struct DecrementResult {
    bool ok = true;               ///< false if any counter underflowed
    std::uint64_t extra_bits = 0;
    unsigned underflows = 0;
  };

  /// Applies every decrement, continuing past underflowing positions
  /// (each counts one underflow) — the contract-violation semantics every
  /// CBF shares.
  template <class Storage>
  static DecrementResult decrement_all(Storage& s, unsigned b1,
                                       const Targets& t) noexcept {
    DecrementResult out;
    for (unsigned i = 0; i < t.total_positions; ++i) {
      const HcbfResult r = s.decrement(t.word_of(i), b1, t.pos(i));
      if (r.ok) {
        out.extra_bits += r.extra_bits;
      } else {
        out.ok = false;
        ++out.underflows;
      }
    }
    return out;
  }

  /// Multiplicity estimate: minimum counter across the target set, with
  /// the zero early-exit every scalar count() uses.
  template <class Storage>
  [[nodiscard]] static unsigned min_counter(const Storage& s, unsigned b1,
                                            const Targets& t) noexcept {
    unsigned min_c = ~0u;
    for (unsigned i = 0; i < t.total_positions; ++i) {
      min_c = std::min(min_c, s.counter(t.word_of(i), b1, t.pos(i)));
      if (min_c == 0) break;
    }
    return min_c;
  }
};

// --- batch pipeline ------------------------------------------------------

/// Keys per pipeline chunk: enough independent word loads in one gather
/// to keep the core's miss-handling slots busy, few enough that a chunk's
/// targets stay in L1d.
inline constexpr std::size_t kBatchChunk = 32;

/// Hands `v` to an empty asm statement so the optimiser must keep every
/// load folded into it, even though nothing else reads the value. Other
/// compilers may drop the gather, which costs speed, never correctness.
MPCBF_ENGINE_INLINE void keep_loads(std::uint64_t v) noexcept {
#if defined(__GNUC__) || defined(__clang__)
  asm volatile("" : : "r"(v));
#else
  (void)v;
#endif
}

/// The batch skeleton of the mutations. Each chunk of kBatchChunk keys
/// runs in three phases:
///   1. derive(base, count) — hash keys [base, base + count) into slots
///      0..count-1 (derive_targets): pure compute, no memory hint;
///   2. gather(slot) — demand-load the slot's words and return them
///      folded into one value, in a tight loop over the chunk. The loads
///      are independent, so the out-of-order core keeps many cache misses
///      in flight at once — the software analogue of the pipelined
///      lookups the paper targets in hardware. The gather only warms the
///      cache: mutations still resolve against the live word, so keys of
///      one chunk that share a word see each other's writes;
///   3. resolve(key_i, slot) — each key in key order, exactly as the
///      scalar operation would.
/// Queries run the same three phases in query_batch, on a compact record
/// instead of per-key callbacks.
template <class DeriveFn, class GatherFn, class ResolveFn>
void batch_pipeline(std::size_t n, DeriveFn&& derive, GatherFn&& gather,
                    ResolveFn&& resolve) {
  for (std::size_t base = 0; base < n; base += kBatchChunk) {
    const std::size_t count = std::min(kBatchChunk, n - base);
    derive(base, count);
    std::uint64_t loaded = 0;
    for (std::size_t i = 0; i < count; ++i) loaded += gather(i);
    keep_loads(loaded);
    for (std::size_t i = 0; i < count; ++i) resolve(base + i, i);
  }
}

/// Gathers the g group words of one key's targets (duplicates included:
/// a repeated word is an L1 hit, cheaper than the branch that skips it).
template <class Storage>
[[nodiscard]] MPCBF_ENGINE_INLINE std::uint64_t gather_targets(
    const Storage& s, const Targets& t, unsigned g) noexcept {
  std::uint64_t v = 0;
  for (unsigned wi = 0; wi < g; ++wi) v += s.gather(t.group_word[wi]);
  return v;
}

/// Call-local tallies per op class, published as one atomic trio per
/// class when a batch call ends: identical totals to per-op recording
/// at a fraction of the atomic traffic.
struct OpTally {
  std::array<std::uint64_t, metrics::kNumOpClasses> ops{};
  std::array<std::uint64_t, metrics::kNumOpClasses> words{};
  std::array<std::uint64_t, metrics::kNumOpClasses> bits{};

  /// Same signature as AccessStats::record, so an operation body can
  /// record into either.
  void record(metrics::OpClass c, std::uint64_t words_touched,
              std::uint64_t hash_bits) noexcept {
    const auto i = static_cast<unsigned>(c);
    ++ops[i];
    words[i] += words_touched;
    bits[i] += hash_bits;
  }

  void publish(metrics::AccessStats& stats) const noexcept {
    for (unsigned i = 0; i < metrics::kNumOpClasses; ++i) {
      stats.record_n(static_cast<metrics::OpClass>(i), ops[i], words[i],
                     bits[i]);
    }
  }
};

/// 1 if hash group `wi`'s word differs from every earlier group's: the
/// paper counts colliding groups as one memory access.
[[nodiscard]] MPCBF_ENGINE_INLINE unsigned first_visit(
    const std::size_t* group_word, unsigned wi) noexcept {
  for (unsigned j = 0; j < wi; ++j) {
    if (group_word[j] == group_word[wi]) return 0;
  }
  return 1;
}

/// Bit j set iff position `pos[j * stride]` of `w` reads 0, for j < n
/// (n <= 32). A one-limb word is loaded once and tested with shifts.
template <class Word>
[[nodiscard]] MPCBF_ENGINE_INLINE std::uint32_t fail_mask(
    const Word& w, const std::uint16_t* pos, unsigned n,
    std::size_t stride) noexcept {
  std::uint32_t fail = 0;
  if constexpr (Word::kLimbs == 1) {
    const std::uint64_t zeros = ~w.limb(0);
    for (unsigned j = 0; j < n; ++j) {
      fail |= static_cast<std::uint32_t>((zeros >> pos[j * stride]) & 1) << j;
    }
  } else {
    for (unsigned j = 0; j < n; ++j) {
      fail |= std::uint32_t{!w.test(pos[j * stride])} << j;
    }
  }
  return fail;
}

/// Keys per query_batch chunk. A query record (g words and their
/// positions) is a fraction of a Targets, so a chunk holds twice
/// kBatchChunk keys: a batch-64 call is one chunk, and its 64 loads go
/// out in one gather instead of two back to back. The records live in
/// two small stack buffers (4 KiB together); shapes whose records do not
/// fit 64 times (g > 4 or k > 16) run as many keys per chunk as fit.
inline constexpr std::size_t kQueryChunk = 2 * kBatchChunk;
inline constexpr std::size_t kQueryWordSlots = 256;
inline constexpr std::size_t kQueryPositionSlots = 1024;
static_assert(kQueryWordSlots >= kMaxG &&
                  kQueryPositionSlots >= kMaxPositions,
              "a chunk must hold at least one key of any shape");

/// A one-key call (scalar contains) is the paper's lazy walk itself:
/// with no other key's misses to overlap, it draws each group's word and
/// positions as it tests them and stops where the walk stops, so a
/// negative that fails on its first position neither hashes nor fetches
/// the rest. Words and bits are the distinct words it read and the bits
/// it drew.
template <class Storage, class Rescue>
MPCBF_ENGINE_INLINE bool query_one(const Storage& store,
                                   const TargetDeriver& der,
                                   bool short_circuit, std::string_view key,
                                   std::uint64_t seed,
                                   metrics::AccessStats& stats,
                                   Rescue& rescue) {
  const bool timed = stats.should_sample();
  const std::uint64_t t0 = timed ? metrics::now_ns() : 0;
  hash::HashBitStream stream(key, seed);
  std::array<std::size_t, kMaxG> word{};
  unsigned touched = 0;
  bool positive = true;
  for (unsigned wi = 0; wi < der.g() && (positive || !short_circuit); ++wi) {
    word[wi] = der.next_word(stream);
    touched += first_visit(word.data(), wi);
    const auto& w = store.word(word[wi]);
    for (unsigned j = der.positions_in(wi); j > 0; --j) {
      if (!w.test(der.next_pos(stream))) {
        positive = false;
        if (short_circuit) break;
      }
    }
  }
  if (!positive) positive = rescue(0, word[0]);
  const auto c = positive ? metrics::OpClass::kQueryPositive
                          : metrics::OpClass::kQueryNegative;
  stats.record(c, touched, stream.accounted_bits());
  if (timed) stats.record_latency(c, metrics::now_ns() - t0);
  return positive;
}

/// A query batch's tallies, summed over its chunks and published once
/// per call: the keys, the positives, and the words and bits of all
/// keys and of the positive ones.
struct QueryTally {
  std::uint64_t keys = 0;
  std::uint64_t positives = 0;
  std::uint64_t positive_words = 0;
  std::uint64_t positive_bits = 0;
  std::uint64_t all_words = 0;
  std::uint64_t all_bits = 0;

  void publish(metrics::AccessStats& stats) const noexcept {
    stats.record_n(metrics::OpClass::kQueryPositive, positives,
                   positive_words, positive_bits);
    stats.record_n(metrics::OpClass::kQueryNegative, keys - positives,
                   all_words - positive_words, all_bits - positive_bits);
  }
};

/// Resolves keys [0, count) of a derived, gathered chunk record `rec`
/// one key at a time: per group, one loaded word and a fail mask whose
/// bit j is set when the group's j-th position reads 0. out[i] is the
/// verdict of key i; `rescue(i, first_word)` decides a key the words
/// reject. The accounting replays the lazy walk without branching on
/// verdicts (which mispredict on mixed keys): see query_batch.
template <class Storage, class Rescue>
MPCBF_ENGINE_INLINE void resolve_scalar(const Storage& store,
                                        const TargetDeriver& der,
                                        bool short_circuit,
                                        const DrawBlock& rec,
                                        std::size_t count, std::uint8_t* out,
                                        QueryTally& tally, Rescue&& rescue) {
  const unsigned g = der.g();
  const unsigned word_bits = der.word_bits();
  const unsigned pos_bits = der.pos_bits();
  for (std::size_t i = 0; i < count; ++i) {
    std::array<std::size_t, kMaxG> word;
    for (unsigned wi = 0; wi < g; ++wi) {
      word[wi] = rec.word[wi * rec.stride + i];
    }
    const std::uint16_t* pos = rec.pos + i;
    std::uint32_t any_fail = 0;
    // All ones while the lazy walk would still be running: under
    // short_circuit it stops after the first failing group.
    unsigned walking = ~0u;
    unsigned touched = 0;
    unsigned bits = 0;
    for (unsigned wi = 0; wi < g; ++wi) {
      const unsigned kw = der.positions_in(wi);
      const std::uint32_t fail =
          fail_mask(store.word(word[wi]), pos, kw, rec.stride);
      pos += kw * rec.stride;
      const unsigned consumed =
          short_circuit && fail != 0
              ? static_cast<unsigned>(std::countr_zero(fail)) + 1
              : kw;
      touched += first_visit(word.data(), wi) & walking;
      bits += (word_bits + consumed * pos_bits) & walking;
      if (short_circuit) walking &= fail == 0 ? ~0u : 0u;
      any_fail |= fail;
    }
    bool positive = any_fail == 0;
    if (!positive) positive = rescue(i, word[0]);
    out[i] = positive ? 1 : 0;
    const std::uint64_t hit = positive ? 1 : 0;
    tally.positives += hit;
    tally.positive_words += touched * hit;
    tally.positive_bits += bits * hit;
    tally.all_words += touched;
    tally.all_bits += bits;
  }
  tally.keys += count;
}

#if MPCBF_ENGINE_HAVE_X8
/// Sum of a vector's eight 64-bit lanes.
MPCBF_ENGINE_X8 MPCBF_ENGINE_INLINE std::uint64_t lane_sum(__m512i v) {
  alignas(64) std::array<std::uint64_t, 8> lanes;
  _mm512_store_si512(lanes.data(), v);
  std::uint64_t sum = 0;
  for (const std::uint64_t x : lanes) sum += x;
  return sum;
}

/// resolve_scalar eight keys per step, each key in a vector lane (AVX-512;
/// call only where der.x8()). Per group of eight keys and hash group:
/// one load of the eight group words, one gather of the words' limbs and
/// per position a variable shift whose low bits give the position's fail
/// mask (bit j for key j). The lazy walk's accounting rides along in
/// lane masks: `walking` (keys still being walked) ends at a key's first
/// failing group under short_circuit, `alive` at its first failing
/// position, so a first failure at position j costs j + 1 positions;
/// colliding group words are deduplicated with lane compares. Verdict
/// bytes come from the final mask; `rescue` runs only for failed lanes.
/// The last count % 8 keys run under a lane mask.
template <class Storage, class Rescue>
MPCBF_ENGINE_X8 void resolve_x8(const Storage& store, const TargetDeriver& der,
                                bool short_circuit, const DrawBlock& rec,
                                std::size_t count, std::uint8_t* out,
                                QueryTally& tally, Rescue&& rescue) {
  constexpr unsigned kLimbs = Storage::Word::kLimbs;
  const std::uint64_t* limbs = store.limbs();
  const unsigned g = der.g();
  const __m512i zero = _mm512_setzero_si512();
  const __m512i one = _mm512_set1_epi64(1);
  const __m512i word_bits = _mm512_set1_epi64(der.word_bits());
  const __m512i pos_bits = _mm512_set1_epi64(der.pos_bits());
  __m512i all_words = zero;
  __m512i all_bits = zero;
  __m512i positive_words = zero;
  __m512i positive_bits = zero;
  for (std::size_t i = 0; i < count; i += 8) {
    const auto valid = static_cast<__mmask8>(
        count - i >= 8 ? kAllLanes : (1u << (count - i)) - 1);
    __m512i group[kMaxG];
    auto walking = valid;
    unsigned any_fail = 0;
    __m512i touched = zero;
    __m512i bits = zero;
    const std::uint16_t* pos = rec.pos + i;
    for (unsigned wi = 0; wi < g; ++wi) {
      const __m512i w_idx =
          _mm512_maskz_loadu_epi64(valid, rec.word + wi * rec.stride + i);
      group[wi] = w_idx;
      auto first = walking;
      for (unsigned j = 0; j < wi; ++j) {
        first = _mm512_mask_cmpneq_epi64_mask(first, group[j], w_idx);
      }
      touched = _mm512_mask_add_epi64(touched, first, touched, one);
      bits = _mm512_mask_add_epi64(bits, walking, bits, word_bits);
      __m512i w = zero;
      if constexpr (kLimbs == 1) {
        w = _mm512_mask_i64gather_epi64(zero, valid, w_idx, limbs, 8);
      }
      auto alive = walking;
      unsigned group_fail = 0;
      for (unsigned d = der.positions_in(wi); d > 0; --d, pos += rec.stride) {
        __m512i p = _mm512_maskz_cvtepu16_epi64(
            valid, _mm_maskz_loadu_epi16(valid, pos));
        if constexpr (kLimbs > 1) {
          const __m512i limb = _mm512_add_epi64(
              _mm512_mullo_epi64(w_idx, _mm512_set1_epi64(kLimbs)),
              _mm512_maskz_srli_epi64(kAllLanes, p, 6));
          w = _mm512_mask_i64gather_epi64(zero, valid, limb, limbs, 8);
          p = _mm512_maskz_and_epi64(kAllLanes, p, _mm512_set1_epi64(63));
        }
        const __mmask8 fail = _mm512_mask_testn_epi64_mask(
            valid, _mm512_maskz_srlv_epi64(kAllLanes, w, p), one);
        bits = _mm512_mask_add_epi64(bits, alive, bits, pos_bits);
        if (short_circuit) alive = static_cast<__mmask8>(alive & ~fail);
        group_fail |= fail;
      }
      any_fail |= group_fail;
      if (short_circuit) walking = static_cast<__mmask8>(walking & ~group_fail);
    }
    auto positive = static_cast<__mmask8>(valid & ~any_fail);
    for (unsigned failed = valid & any_fail; failed != 0;
         failed &= failed - 1) {
      const auto lane = static_cast<unsigned>(std::countr_zero(failed));
      if (rescue(i + lane, rec.word[i + lane])) {
        positive = static_cast<__mmask8>(positive | 1u << lane);
      }
    }
    _mm_mask_storeu_epi8(out + i, valid, _mm_maskz_set1_epi8(positive, 1));
    tally.positives += static_cast<unsigned>(std::popcount(positive));
    all_words = _mm512_add_epi64(all_words, touched);
    all_bits = _mm512_add_epi64(all_bits, bits);
    positive_words = _mm512_mask_add_epi64(positive_words, positive,
                                           positive_words, touched);
    positive_bits =
        _mm512_mask_add_epi64(positive_bits, positive, positive_bits, bits);
  }
  tally.keys += count;
  tally.all_words += lane_sum(all_words);
  tally.all_bits += lane_sum(all_bits);
  tally.positive_words += lane_sum(positive_words);
  tally.positive_bits += lane_sum(positive_bits);
}
#endif

/// query_batch over more than one key: derive → gather → resolve, one
/// chunk of up to kQueryChunk keys at a time, into one draw-major record
/// whose stride is the chunk size.
template <class Storage, class Key, class Rescue>
void query_chunks(const Storage& store, const TargetDeriver& der,
                  bool short_circuit, std::span<const Key> keys,
                  std::uint64_t seed, std::span<std::uint8_t> out,
                  metrics::AccessStats& stats, Rescue& rescue) {
  const unsigned g = der.g();
  const std::size_t chunk =
      std::min({kQueryChunk, kQueryWordSlots / g,
                kQueryPositionSlots / der.total_positions()});
  std::array<std::size_t, kQueryWordSlots> group_words;
  std::array<std::uint16_t, kQueryPositionSlots> positions;
  const DrawBlock rec{group_words.data(), positions.data(), chunk};
  QueryTally tally;
  for (std::size_t base = 0; base < keys.size(); base += chunk) {
    const std::size_t count = std::min(chunk, keys.size() - base);
    const bool timed = stats.should_sample();
    const std::uint64_t t0 = timed ? metrics::now_ns() : 0;

    derive_chunk(der, keys.subspan(base, count), seed, rec);

    std::uint64_t loaded = 0;
    for (unsigned wi = 0; wi < g; ++wi) {
      const std::size_t* row = rec.word + wi * chunk;
      for (std::size_t i = 0; i < count; ++i) loaded += store.gather(row[i]);
    }
    keep_loads(loaded);

    const auto chunk_rescue = [&](std::size_t i, std::size_t first_word) {
      return rescue(base + i, first_word);
    };
#if MPCBF_ENGINE_HAVE_X8
    if (der.x8()) {
      resolve_x8(store, der, short_circuit, rec, count, out.data() + base,
                 tally, chunk_rescue);
    } else
#endif
    {
      resolve_scalar(store, der, short_circuit, rec, count, out.data() + base,
                     tally, chunk_rescue);
    }

    if (timed) stats.record_batch_latency((metrics::now_ns() - t0) / count);
  }
  tally.publish(stats);
}

/// The one query path, batch and scalar, over plain storage. Per chunk:
///   1. derive the keys into a draw-major record (derive_chunk): row wi
///      holds every key's group-wi word, row d every key's d-th
///      position;
///   2. gather the chunk's group words (see batch_pipeline);
///   3. resolve: per key and group, one loaded word and a fail mask
///      whose bit j is set when the group's j-th position reads 0; the
///      verdict is that no group fails. Where der.x8(), eight keys per
///      step in vector lanes (resolve_x8), else one at a time
///      (resolve_scalar); both give the same verdicts and tallies.
/// A one-key call runs the lazy walk these phases replay (query_one);
/// the dispatch is inlined, so it never enters the batch body, whose
/// 4 KiB of record buffers cost a one-key call about 10 ns.
///
/// A batch's accounting replays the lazy walk without branching on
/// verdicts (which mispredict on mixed keys): a visited group costs
/// ceil_log2(l) plus ceil_log2(b1) per position it consumes, and under
/// short_circuit the first failing group ends the walk after
/// ctz(fail) + 1 positions; words counts the distinct words of the
/// visited groups. tests/test_stats_parity.cpp checks both paths against
/// a test-local reference walk.
///
/// `rescue(i, first_word)` decides key i, whose first group word is
/// `first_word`, when the words answer negative (the stash probe).
/// Tallies are published once per call, one atomic trio per op class
/// that occurred. One sampled call in kLatencySampleEvery records
/// its latency: a one-key call in the per-op histogram of the class it
/// hit, a batch chunk its per-key average in the batch-query histogram.
template <class Storage, class Key, class Rescue>
MPCBF_ENGINE_INLINE void query_batch(const Storage& store,
                                     const TargetDeriver& der,
                                     bool short_circuit,
                                     std::span<const Key> keys,
                                     std::uint64_t seed,
                                     std::span<std::uint8_t> out,
                                     metrics::AccessStats& stats,
                                     Rescue&& rescue) {
  if (keys.size() == 1) {
    out[0] = query_one(store, der, short_circuit, keys[0], seed, stats,
                       rescue);
  } else {
    query_chunks(store, der, short_circuit, keys, seed, out, stats, rescue);
  }
}

}  // namespace mpcbf::core::engine
