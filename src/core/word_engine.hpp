// Word engine — the shared kernel every MPCBF variant is built from.
//
// The paper's contribution is one small machine: hash bits are turned into
// g word targets with ⌈k/g⌉ level-1 positions each (Sec. III-C), and each
// word runs the hierarchical counter walk of core/hcbf.hpp. Before this
// header existed that kernel was hand-copied into Mpcbf, AtomicMpcbf and
// (indirectly) ShardedMpcbf/DurableMpcbf, each copy drifting on limits and
// missing the batch pipeline. This header is the single source:
//
//   * TargetDeriver — HashBitStream -> Targets (words + positions) in the
//     one canonical derivation order every operation must agree on, with
//     the paper's consumed-bit accounting riding along in the stream.
//   * WordPlan / group_by_word — the same targets regrouped by *distinct*
//     word, the layout single-CAS-per-word storage needs.
//   * LevelWalk<W> — the hierarchical increment/decrement/min-counter
//     walk applied across a target set, storage-policy agnostic.
//   * PlainWords<W> / AtomicWords64 — the two storage policies: a plain
//     huge-page-advised word vector (external synchronization), and a
//     seq-consistent CAS-loop word vector (lock-free, W == 64). Neither
//     keeps out-of-word metadata: a word's hierarchy usage is re-derived
//     from its value, once per distinct word per operation.
//   * evaluate_lazy / evaluate_eager — membership evaluation over
//     pre-derived targets replaying each scalar query's exact visit order
//     and accounting, which is what makes batch and scalar stats
//     bit-for-bit comparable (tests/test_stats_parity.cpp).
//   * batch_pipeline + BatchStatsAccumulator — the batch skeleton every
//     contains_batch/insert_batch/erase_batch runs: derive a chunk's
//     targets (pure compute), gather its words with plain demand loads in
//     one tight loop so the out-of-order core overlaps the cache misses,
//     then resolve each key in key order — plus the one-publish-per-class
//     stats plumbing.
//
// Stats/trace stay pluggable: the engine records through the caller's
// AccessStats and the MPCBF_TRACE_* macros at the filter layer, so the
// MPCBF_DISABLE_ACCESS_STATS / MPCBF_DISABLE_TRACING twins compile the
// instrumentation out exactly as before.
#pragma once

#include <algorithm>
#include <array>
#include <atomic>
#include <cassert>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "bitvec/word_bitset.hpp"
#include "common/page_reclaim.hpp"
#include "core/hcbf.hpp"
#include "hash/hash_stream.hpp"
#include "metrics/access_stats.hpp"
#include "model/fpr_model.hpp"

namespace mpcbf::core::engine {

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

/// The same targets regrouped by distinct word (first-seen order),
/// positions contiguous per word in derivation order — the layout a
/// single-CAS-per-word storage applies in one shot. CSR-style so a word
/// that absorbs every group's positions still fits.
struct WordPlan {
  std::array<std::size_t, kMaxG> word;
  std::array<unsigned, kMaxG + 1> offset;
  std::array<std::uint16_t, kMaxPositions> pos;
  unsigned num_words = 0;
};

/// Turns a HashBitStream into the Targets word/position set. Holds only
/// the layout scalars, so filters construct one per operation for free.
class TargetDeriver {
 public:
  TargetDeriver(std::size_t num_words, unsigned k, unsigned g,
                unsigned b1) noexcept
      : num_words_(num_words), k_(k), g_(g), b1_(b1) {
    assert(g <= kMaxG && b1 <= kMaxPositionRange);
  }

  /// Derives all g word indices and k positions in the canonical order.
  /// Consumed-bit accounting accrues in the stream itself.
  MPCBF_ENGINE_INLINE void derive_all(hash::HashBitStream& stream,
                                      Targets& t) const {
    SeenWords seen;
    t.total_positions = 0;
    for (unsigned wi = 0; wi < g_; ++wi) {
      const std::size_t w = stream.next_index(num_words_);
      t.group_word[wi] = w;
      seen.add(w);
      const unsigned kw = model::hashes_per_word(k_, g_, wi);
      for (unsigned i = 0; i < kw; ++i) {
        t.push(wi, static_cast<unsigned>(stream.next_index(b1_)));
      }
    }
    t.distinct_words = seen.count;
  }

  [[nodiscard]] std::size_t num_words() const noexcept { return num_words_; }
  [[nodiscard]] unsigned k() const noexcept { return k_; }
  [[nodiscard]] unsigned g() const noexcept { return g_; }
  [[nodiscard]] unsigned b1() const noexcept { return b1_; }

 private:
  std::size_t num_words_;
  unsigned k_;
  unsigned g_;
  unsigned b1_;
};

/// Regroups canonical targets by distinct word. Position order within a
/// word is derivation order, so applying a plan produces bit-identical
/// word state to applying the flat targets.
inline void group_by_word(const Targets& t, WordPlan& p) noexcept {
  p.num_words = 0;
  unsigned filled = 0;
  p.offset[0] = 0;
  for (unsigned i = 0; i < t.total_positions; ++i) {
    bool known = false;
    for (unsigned s = 0; s < p.num_words; ++s) {
      if (p.word[s] == t.word_of(i)) {
        known = true;
        break;
      }
    }
    if (known) continue;
    const std::size_t w = t.word_of(i);
    p.word[p.num_words] = w;
    for (unsigned j = i; j < t.total_positions; ++j) {
      if (t.word_of(j) == w) {
        p.pos[filled++] = static_cast<std::uint16_t>(t.pos(j));
      }
    }
    p.offset[++p.num_words] = filled;
  }
}

/// Verdict + accounting of one evaluated query, in the paper's units.
struct BatchEval {
  bool positive;
  std::size_t words_touched;
  std::uint64_t hash_bits;
};

/// Evaluates pre-derived targets with exactly the lazy scalar query's
/// visit order and accounting: hash bits are charged per word index
/// (ceil_log2(l)) and per consumed position (ceil_log2(b1)), stopping at
/// the same point scalar short-circuiting stops the lazy stream, and
/// words_touched deduplicates colliding groups identically. `test(w, pos)`
/// reads a level-1 bit.
template <class TestBit>
[[nodiscard]] BatchEval evaluate_lazy(const Targets& t, std::size_t num_words,
                                      unsigned k, unsigned g, unsigned b1,
                                      bool short_circuit, TestBit&& test) {
  const unsigned log2_l = hash::ceil_log2(num_words);
  const unsigned log2_b1 = hash::ceil_log2(b1);
  BatchEval ev{true, 0, 0};
  SeenWords seen;
  unsigned idx = 0;
  for (unsigned wi = 0; wi < g; ++wi) {
    const unsigned kw = model::hashes_per_word(k, g, wi);
    if (!ev.positive && short_circuit) break;
    const std::size_t w = t.group_word[wi];
    ev.hash_bits += log2_l;
    seen.add(w);
    ev.words_touched = seen.count;
    for (unsigned i = 0; i < kw; ++i) {
      ev.hash_bits += log2_b1;
      if (!test(w, t.pos(idx + i))) {
        ev.positive = false;
        if (short_circuit) break;
      }
    }
    idx += kw;
  }
  return ev;
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
  [[nodiscard]] bool test(std::size_t w, unsigned pos) const noexcept {
    return words_[w].test(pos);
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

/// Lock-free storage over 64-bit words: every mutation is a
/// load → pure transform → CAS loop, capacity re-derived from the word
/// value inside the loop (no out-of-word metadata), so the CAS publishes
/// a fully consistent word and some thread always makes progress.
class AtomicWords64 {
 public:
  static constexpr unsigned kWordBits = 64;

  /// Allocates `l` zeroed words; the allocator advises the array for
  /// huge pages before the zeroing constructors first touch it.
  void init(std::size_t l) { words_ = Words(l); }

  [[nodiscard]] std::size_t size() const noexcept { return words_.size(); }
  [[nodiscard]] std::uint64_t load_acquire(std::size_t w) const noexcept {
    return words_[w].load(std::memory_order_acquire);
  }
  [[nodiscard]] std::uint64_t load_relaxed(std::size_t w) const noexcept {
    return words_[w].load(std::memory_order_relaxed);
  }
  void store_relaxed(std::size_t w, std::uint64_t v) noexcept {
    words_[w].store(v, std::memory_order_relaxed);
  }
  /// Demand-loads word `w` for the batch gather (see PlainWords).
  [[nodiscard]] std::uint64_t gather(std::size_t w) const noexcept {
    return words_[w].load(std::memory_order_relaxed);
  }

  /// CAS loop applying all of plan group `s`'s increments (or decrements)
  /// to its word. Returns false on overflow/underflow (word unchanged).
  bool apply_group(const WordPlan& p, unsigned s, unsigned b1,
                   bool increment) noexcept {
    std::atomic<std::uint64_t>& slot = words_[p.word[s]];
    std::uint64_t expected = slot.load(std::memory_order_acquire);
    for (;;) {
      bits::WordBitset<64> w;
      w.set_limb(0, expected);
      unsigned used = Hcbf<64>::hierarchy_bits(w, b1);
      bool ok = true;
      for (unsigned i = p.offset[s]; i < p.offset[s + 1] && ok; ++i) {
        if (increment) {
          const HcbfResult r = Hcbf<64>::increment(w, b1, p.pos[i], used);
          ok = r.ok;
          if (ok) ++used;
        } else {
          ok = Hcbf<64>::decrement(w, b1, p.pos[i]).ok;
        }
      }
      if (!ok) return false;
      if (slot.compare_exchange_weak(expected, w.limb(0),
                                     std::memory_order_release,
                                     std::memory_order_acquire)) {
        return true;
      }
      // expected reloaded by compare_exchange; retry on the fresh value.
    }
  }

 private:
  using Words = std::vector<std::atomic<std::uint64_t>,
                            util::HugePageAllocator<std::atomic<std::uint64_t>>>;
  Words words_;
};

/// Eager-evaluation verdict: one atomic snapshot per distinct word, test
/// its positions in derivation order, stop at the first unset bit — the
/// exact visit order of the eager scalar query (hash bits don't shrink
/// under short-circuiting there; the caller accounts the full derivation).
struct EagerEval {
  bool positive;
  unsigned words_touched;
};

[[nodiscard]] inline EagerEval evaluate_eager(const AtomicWords64& words,
                                              const WordPlan& p,
                                              unsigned b1) noexcept {
  (void)b1;
  for (unsigned s = 0; s < p.num_words; ++s) {
    bits::WordBitset<64> w;
    w.set_limb(0, words.load_acquire(p.word[s]));
    for (unsigned i = p.offset[s]; i < p.offset[s + 1]; ++i) {
      if (!w.test(p.pos[i])) {
        return {false, s + 1};
      }
    }
  }
  return {true, p.num_words};
}

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

/// The batch skeleton shared by every variant. Each chunk of kBatchChunk
/// keys runs in three phases:
///   1. derive(key_i, slot) — hash the key into its targets: pure compute,
///      no memory hint;
///   2. gather(slot) — demand-load the slot's words and return them
///      folded into one value, in a tight loop over the chunk. The loads
///      are independent, so the out-of-order core keeps many cache misses
///      in flight at once — the software analogue of the pipelined
///      lookups the paper targets in hardware. The gather only warms the
///      cache: mutations still resolve against the live word, so keys of
///      one chunk that share a word see each other's writes;
///   3. resolve(key_i, slot) — each key in key order, exactly as the
///      scalar operation would.
/// `chunk_begin(count)` / `chunk_end(count)` bracket each chunk for
/// sampled timing.
template <class DeriveFn, class GatherFn, class ResolveFn, class ChunkBegin,
          class ChunkEnd>
void batch_pipeline(std::size_t n, DeriveFn&& derive, GatherFn&& gather,
                    ResolveFn&& resolve, ChunkBegin&& chunk_begin,
                    ChunkEnd&& chunk_end) {
  for (std::size_t base = 0; base < n; base += kBatchChunk) {
    const std::size_t count = std::min(kBatchChunk, n - base);
    chunk_begin(count);
    for (std::size_t i = 0; i < count; ++i) derive(base + i, i);
    std::uint64_t loaded = 0;
    for (std::size_t i = 0; i < count; ++i) loaded += gather(i);
    keep_loads(loaded);
    for (std::size_t i = 0; i < count; ++i) resolve(base + i, i);
    chunk_end(count);
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

/// Call-local query tallies indexed by verdict (negative=0, positive=1),
/// published as one atomic trio per op class at the end of a batch call —
/// identical totals to per-op recording at a fraction of the atomic
/// traffic.
class BatchStatsAccumulator {
 public:
  void add(bool positive, std::size_t words_touched,
           std::uint64_t hash_bits) noexcept {
    const unsigned cls = positive ? 1u : 0u;
    ++ops_[cls];
    words_[cls] += words_touched;
    bits_[cls] += hash_bits;
  }

  void publish(metrics::AccessStats& stats) const noexcept {
    stats.record_n(metrics::OpClass::kQueryNegative, ops_[0], words_[0],
                   bits_[0]);
    stats.record_n(metrics::OpClass::kQueryPositive, ops_[1], words_[1],
                   bits_[1]);
  }

 private:
  std::array<std::uint64_t, 2> ops_{};
  std::array<std::uint64_t, 2> words_{};
  std::array<std::uint64_t, 2> bits_{};
};

}  // namespace mpcbf::core::engine
