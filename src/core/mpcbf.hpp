// MPCBF — Multiple-Partitioned Counting Bloom Filter (Secs. III-B/III-C).
//
// The counter vector is an array of l W-bit words, each holding an improved
// HCBF with first-level size b1 = W - ⌈k/g⌉·n_max. An element maps to g
// words (H_1..H_g) and to ⌈k/g⌉ bit positions inside each (the last word
// may get fewer so the total is k). Queries read only the words' level-1
// bits — g memory accesses, one for MPCBF-1 — while inserts/deletes run the
// hierarchical counter machinery of core/hcbf.hpp inside each word.
//
// Overflow: a word can absorb at most n_max elements' worth of hierarchy
// bits. The n_max heuristic (eq. 11) makes overflow rare; when it does
// happen the configured OverflowPolicy decides: reject the insert (counted,
// returns false), throw, or divert the whole element to a side stash that
// queries and deletes consult, preserving exact semantics at a small memory
// cost.
//
// Thread-safety: const queries are safe concurrently with each other
// (metrics counters are relaxed atomics); mutations require external
// synchronization (net/server.hpp serves every filter under one
// shared_mutex: readers share it, writers take it alone).
#pragma once

#include <algorithm>
#include <array>
#include <cassert>
#include <cstdint>
#include <istream>
#include <ostream>
#include <span>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "bitvec/word_bitset.hpp"
#include "common/page_reclaim.hpp"
#include "common/string_hash.hpp"
#include "core/hcbf.hpp"
#include "core/word_engine.hpp"
#include "hash/hash_stream.hpp"
#include "io/binary.hpp"
#include "io/crc32c.hpp"
#include "metrics/access_stats.hpp"
#include "metrics/timer.hpp"
#include "model/fpr_model.hpp"
#include "trace/trace.hpp"

namespace mpcbf::core {

enum class OverflowPolicy {
  kReject,  ///< failed insert returns false; element is not stored
  kThrow,   ///< failed insert throws std::overflow_error
  kStash,   ///< element diverted to a side hash table; never lost
};

struct MpcbfConfig {
  /// Total memory in bits; the word count is l = memory_bits / W.
  std::size_t memory_bits = 1 << 20;
  /// Total hash functions per element (split across the g words).
  unsigned k = 3;
  /// Memory accesses per operation (words per element); g <= k.
  unsigned g = 1;
  /// Expected cardinality, used by the eq.-(11) heuristic when n_max == 0.
  std::size_t expected_n = 0;
  /// Per-word element capacity; 0 = derive from expected_n via PoissInv.
  unsigned n_max = 0;
  OverflowPolicy policy = OverflowPolicy::kReject;
  std::uint64_t seed = hash::kDefaultSeed;
  /// Stop a query at the first unset bit (paper's measured behaviour).
  bool short_circuit = true;
};

/// The scalars that decide where a key's counters live. Two filters with
/// equal layouts index the same positions for the same keys, so they can
/// be merged, and a durable directory can be reopened with the config.
struct MpcbfLayout {
  std::size_t num_words = 0;
  unsigned k = 0;
  unsigned g = 0;
  unsigned b1 = 0;
  unsigned n_max = 0;
  std::uint64_t seed = 0;
  friend bool operator==(const MpcbfLayout&, const MpcbfLayout&) = default;
};

/// A one-sided summary of a stash: one bit per first-word index modulo
/// kBits, set for every stashed key. A clear bit proves the key is not
/// stashed, so a negative query and an erase skip the stash's
/// hash-table probe unless a stashed key shares its bit. Bits are never
/// cleared one at a time (keys share them); the summary is cleared when
/// the stash empties and rebuilt from the stash on load.
class StashSummary {
 public:
  static constexpr std::size_t kBits = 4096;

  void add(std::size_t word) noexcept {
    bits_[word / 64 % kLimbs] |= bit(word);
  }
  [[nodiscard]] bool may_hold(std::size_t word) const noexcept {
    return (bits_[word / 64 % kLimbs] & bit(word)) != 0;
  }
  void merge(const StashSummary& other) noexcept {
    for (std::size_t i = 0; i < kLimbs; ++i) bits_[i] |= other.bits_[i];
  }
  void clear() noexcept { bits_.fill(0); }

 private:
  static constexpr std::size_t kLimbs = kBits / 64;
  static std::uint64_t bit(std::size_t word) noexcept {
    return std::uint64_t{1} << (word % 64);
  }
  std::array<std::uint64_t, kLimbs> bits_{};
};

template <unsigned W = 64>
class Mpcbf {
 public:
  static constexpr unsigned kWordBits = W;
  static constexpr unsigned kMaxG = engine::kMaxG;
  static constexpr unsigned kMaxKPerWord = engine::kMaxKPerWord;

  explicit Mpcbf(const MpcbfConfig& cfg) : Mpcbf(cfg, layout_for(cfg)) {}

  /// The layout a filter built from `cfg` gets, without allocating it.
  /// Throws std::invalid_argument for the configs the constructor
  /// rejects.
  static MpcbfLayout layout_for(const MpcbfConfig& cfg) {
    engine::validate_shape(cfg.k, cfg.g, "Mpcbf");
    MpcbfLayout layout;
    layout.num_words = cfg.memory_bits / W;
    if (layout.num_words == 0) {
      throw std::invalid_argument("Mpcbf: memory smaller than one word");
    }
    layout.k = cfg.k;
    layout.g = cfg.g;
    layout.seed = cfg.seed;
    layout.n_max = cfg.n_max;
    if (layout.n_max == 0) {
      if (cfg.expected_n == 0) {
        throw std::invalid_argument(
            "Mpcbf: provide expected_n (for the eq.-11 heuristic) or an "
            "explicit n_max");
      }
      layout.n_max =
          model::n_max_heuristic(cfg.expected_n, layout.num_words, cfg.g);
      if (layout.n_max == 0) layout.n_max = 1;
    }
    layout.b1 = model::b1_improved(W, cfg.k, cfg.g, layout.n_max);
    if (layout.b1 < 2) {
      throw std::invalid_argument(
          "Mpcbf: n_max*ceil(k/g) leaves no first-level bits in a " +
          std::to_string(W) + "-bit word");
    }
    return layout;
  }

  /// Convenience: size the filter for `expected_n` elements at `memory_bits`
  /// total, deriving n_max via the paper's heuristic.
  static Mpcbf with_memory(std::size_t memory_bits, unsigned k, unsigned g,
                           std::size_t expected_n,
                           std::uint64_t seed = hash::kDefaultSeed) {
    MpcbfConfig cfg;
    cfg.memory_bits = memory_bits;
    cfg.k = k;
    cfg.g = g;
    cfg.expected_n = expected_n;
    cfg.seed = seed;
    return Mpcbf(cfg);
  }

  /// Inserts `key`. Returns false only under OverflowPolicy::kReject when
  /// some target word cannot absorb the element.
  bool insert(std::string_view key) {
    MPCBF_TRACE_SPAN(span, kCore, "mpcbf.insert");
    const bool timed = stats_.should_sample();
    const std::uint64_t t0 = timed ? metrics::now_ns() : 0;
    engine::Targets t;
    hash::HashBitStream stream(key, seed_);
    der_.derive_all(stream, t);
    span.set_arg("words", t.distinct_words);
    const bool ok = insert_derived(key, t, stream.accounted_bits(), stats_);
    sample_latency(metrics::OpClass::kInsert, timed, t0);
    return ok;
  }

  /// Membership query. False positives possible; false negatives are not
  /// (for keys whose inserts all succeeded). A batch of one through
  /// engine::query_batch, which runs it as the paper's lazy walk and
  /// publishes one atomic trio for the op class the key hit.
  [[nodiscard]] bool contains(std::string_view key) const {
    MPCBF_TRACE_SPAN(span, kCore, "mpcbf.query");
    std::uint8_t out = 0;
    query(std::span<const std::string_view>(&key, 1),
          std::span<std::uint8_t>(&out, 1));
    return out != 0;
  }

  /// Deletes one prior insert of `key`. Deleting a key that was never
  /// inserted is a contract violation (as in any CBF): the structure stays
  /// valid but other keys may turn falsely negative. Returns false and
  /// counts an underflow when a target counter was already zero; size()
  /// is unchanged by such a failed erase.
  bool erase(std::string_view key) {
    MPCBF_TRACE_SPAN(span, kCore, "mpcbf.erase");
    const bool timed = stats_.should_sample();
    const std::uint64_t t0 = timed ? metrics::now_ns() : 0;
    engine::Targets t;
    hash::HashBitStream stream(key, seed_);
    der_.derive_all(stream, t);
    const bool ok = erase_stashed(key, t.group_word[0], stats_) ||
                    erase_derived(t, stream.accounted_bits(), stats_);
    sample_latency(metrics::OpClass::kDelete, timed, t0);
    return ok;
  }

  /// Multiplicity estimate: the minimum of the key's counters (plus any
  /// stashed copies). Like CBF count estimates, never an undercount for
  /// correctly inserted keys.
  [[nodiscard]] std::uint32_t count(std::string_view key) const {
    engine::Targets t;
    hash::HashBitStream stream(key, seed_);
    der_.derive_all(stream, t);
    const unsigned min_c =
        engine::LevelWalk<W>::min_counter(store_, der_.b1(), t);
    const std::uint32_t stashed =
        stash_summary_.may_hold(t.group_word[0]) ? stash_count(key) : 0;
    return min_c + stashed;
  }

  void clear() {
    store_.reset();
    stash_.clear();
    stash_summary_.clear();
    size_ = 0;
    overflow_events_ = 0;
    underflow_events_ = 0;
  }

  /// Releases the word array eagerly: the page-aligned interior's
  /// resident pages are dropped via madvise(MADV_DONTNEED) and the heap
  /// buffer freed, so a retired segment's memory returns to the OS now
  /// rather than lingering in the allocator arena. Returns the heap
  /// bytes released. The filter holds no storage afterwards — its only
  /// remaining legal operation is destruction.
  std::size_t release_storage() noexcept {
    auto& words = store_.words();
    const std::size_t bytes = words.capacity() * sizeof(bits::WordBitset<W>);
    util::drop_resident_pages(words.data(),
                              words.size() * sizeof(bits::WordBitset<W>));
    std::vector<bits::WordBitset<W>>().swap(words);
    stash_.clear();
    stash_summary_.clear();
    size_ = 0;
    return bytes;
  }

  // --- introspection ----------------------------------------------------

  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] std::size_t num_words() const noexcept {
    return store_.size();
  }
  [[nodiscard]] unsigned b1() const noexcept { return der_.b1(); }
  [[nodiscard]] unsigned k() const noexcept { return der_.k(); }
  [[nodiscard]] unsigned g() const noexcept { return der_.g(); }
  [[nodiscard]] unsigned n_max() const noexcept { return n_max_; }
  [[nodiscard]] OverflowPolicy policy() const noexcept { return policy_; }
  [[nodiscard]] std::uint64_t seed() const noexcept { return seed_; }
  [[nodiscard]] std::size_t memory_bits() const noexcept {
    return store_.size() * W;
  }
  [[nodiscard]] std::uint64_t overflow_events() const noexcept {
    return overflow_events_;
  }
  [[nodiscard]] std::uint64_t underflow_events() const noexcept {
    return underflow_events_;
  }
  [[nodiscard]] std::size_t stash_size() const noexcept {
    return stash_.size();
  }
  [[nodiscard]] metrics::AccessStats& stats() const noexcept {
    return stats_;
  }
  void reset_stats() noexcept { stats_.reset(); }

  /// Aggregate hierarchy occupancy across words — the quantity whose
  /// per-word cap is k/g * n_max. Derived from the words: O(l).
  [[nodiscard]] std::uint64_t total_hierarchy_bits() const noexcept {
    std::uint64_t t = 0;
    for (std::size_t w = 0; w < store_.size(); ++w) {
      t += store_.hierarchy_bits(w, der_.b1());
    }
    return t;
  }

  [[nodiscard]] unsigned max_word_hierarchy_bits() const noexcept {
    unsigned m = 0;
    for (std::size_t w = 0; w < store_.size(); ++w) {
      m = std::max(m, store_.hierarchy_bits(w, der_.b1()));
    }
    return m;
  }

  /// Occupancy report: per-word hierarchy-usage histogram and the
  /// distribution of counter values across all level-1 positions — the
  /// measurable counterparts of model::occupancy. O(l·b1); diagnostic use.
  struct FillReport {
    /// hierarchy_histogram[u] = number of words using u hierarchy bits.
    std::vector<std::size_t> hierarchy_histogram;
    /// counter_histogram[c] = number of level-1 positions with value c.
    std::vector<std::size_t> counter_histogram;
    std::size_t total_positions = 0;
  };

  [[nodiscard]] FillReport fill_report() const {
    FillReport report;
    report.hierarchy_histogram.assign(W - der_.b1() + 1, 0);
    report.total_positions = store_.size() * der_.b1();
    for (std::size_t w = 0; w < store_.size(); ++w) {
      ++report.hierarchy_histogram[store_.hierarchy_bits(w, der_.b1())];
      for (unsigned pos = 0; pos < der_.b1(); ++pos) {
        const unsigned c = store_.counter(w, der_.b1(), pos);
        if (c >= report.counter_histogram.size()) {
          report.counter_histogram.resize(c + 1, 0);
        }
        ++report.counter_histogram[c];
      }
    }
    if (report.counter_histogram.empty()) {
      report.counter_histogram.resize(1, report.total_positions);
    }
    return report;
  }

  /// Structural self-check for tests: every word satisfies the HCBF
  /// invariants.
  [[nodiscard]] bool validate() const {
    for (const auto& w : store_.words()) {
      if (!Hcbf<W>::validate(w, der_.b1())) return false;
    }
    return true;
  }

  [[nodiscard]] const bits::WordBitset<W>& word(std::size_t i) const {
    return store_.words().at(i);
  }

  // --- batch queries ------------------------------------------------------

  /// Membership for a batch of keys through the engine's derive → gather
  /// → resolve pipeline (engine::query_batch): a chunk of keys is hashed
  /// first, then its words are demand-loaded in one tight loop so their
  /// cache misses overlap, then the keys are resolved, eight per step in
  /// vector lanes where the CPU has AVX-512, with one fail mask per
  /// position. On a DRAM-resident filter this costs about half the
  /// ns/key of a prefetch issued between hashes, which the core did not
  /// overlap; a __builtin_prefetch per derived word on top of the gather
  /// made perfbench's filter-dram call latency worse, re-measured after
  /// the eight-key derive, so there is none (docs/architecture.md has
  /// both measurements). `out[i]` is set to the verdict for `keys[i]`;
  /// sizes must match.
  ///
  /// Accounting: the resolve charges what the paper's lazy bit-by-bit
  /// walk would (short_circuit_ honoured, duplicate words deduplicated,
  /// hash bits accounted only up to the short-circuit point); scalar
  /// contains() is the same engine call over one key, and both record
  /// the walk's per-class op counts, word touches and accounted bits
  /// (tests/test_stats_parity.cpp checks both against a reference walk).
  /// Accounting is aggregated across the whole call (one atomic trio per
  /// op class hit) and sampled chunks record their per-key average
  /// latency in the batch-query histogram — timing every chunk would put
  /// two clock reads plus a histogram record on the hot path and blow the
  /// <5% overhead budget.
  void contains_batch(std::span<const std::string> keys,
                      std::span<std::uint8_t> out) const {
    contains_batch_impl<std::string>(keys, out);
  }
  void contains_batch(std::span<const std::string_view> keys,
                      std::span<std::uint8_t> out) const {
    contains_batch_impl<std::string_view>(keys, out);
  }

  /// Inserts a batch of keys through the same derive → gather → resolve
  /// pipeline (engine::batch_pipeline); `ok[i]` receives
  /// insert(keys[i])'s return value. Stats and overflow behaviour match a
  /// scalar insert loop op for op: the kInsert tallies are summed per
  /// call and published once, each key keeps its own sampled latency,
  /// so batch and scalar loads remain comparable in every report.
  void insert_batch(std::span<const std::string> keys,
                    std::span<std::uint8_t> ok) {
    insert_batch_impl<std::string>(keys, ok);
  }
  void insert_batch(std::span<const std::string_view> keys,
                    std::span<std::uint8_t> ok) {
    insert_batch_impl<std::string_view>(keys, ok);
  }

  /// Erases a batch of keys through the same pipeline; `ok[i]` receives
  /// erase(keys[i])'s return value. Each key resolves exactly as a scalar
  /// erase, in key order against the live words: stash first, underflows
  /// counted, size() shrunk only on success, and a key listed twice is
  /// erased twice.
  void erase_batch(std::span<const std::string> keys,
                   std::span<std::uint8_t> ok) {
    erase_batch_impl<std::string>(keys, ok);
  }
  void erase_batch(std::span<const std::string_view> keys,
                   std::span<std::uint8_t> ok) {
    erase_batch_impl<std::string_view>(keys, ok);
  }

  // --- merge ---------------------------------------------------------------

  [[nodiscard]] MpcbfLayout layout() const noexcept {
    return {store_.size(), der_.k(), der_.g(), der_.b1(), n_max_, seed_};
  }

  /// True iff `other` has the identical layout and hash seed, i.e. the two
  /// filters index the same positions for the same keys and can be merged.
  [[nodiscard]] bool compatible(const Mpcbf& other) const noexcept {
    return layout() == other.layout();
  }

  /// True iff merge(other) would succeed: the layouts match and no word
  /// would overflow its hierarchy capacity. Changes nothing, so a caller
  /// can decide whether to record a merge before making it. O(l).
  [[nodiscard]] bool merge_fits(const Mpcbf& other) const noexcept {
    if (!compatible(other)) return false;
    const unsigned b1 = der_.b1();
    for (std::size_t w = 0; w < store_.size(); ++w) {
      if (store_.hierarchy_bits(w, b1) + other.store_.hierarchy_bits(w, b1) >
          W - b1) {
        return false;
      }
    }
    return true;
  }

  /// Folds `other`'s contents into this filter (counter-wise addition —
  /// the multiset-union of the represented sets, so deletes of either
  /// side's elements remain valid afterwards). All-or-nothing: returns
  /// false without modifying anything when layouts differ or some word
  /// would overflow.
  bool merge(const Mpcbf& other) {
    if (!compatible(other)) return false;
    if (!merge_fits(other)) {
      ++overflow_events_;
      return false;
    }
    const unsigned b1 = der_.b1();
    for (std::size_t w = 0; w < store_.size(); ++w) {
      if (other.store_.hierarchy_bits(w, b1) == 0) continue;
      unsigned used = store_.hierarchy_bits(w, b1);
      for (unsigned pos = 0; pos < b1; ++pos) {
        const unsigned c = other.store_.counter(w, b1, pos);
        for (unsigned i = 0; i < c; ++i) {
          const HcbfResult r = store_.increment(w, b1, pos, used++);
          assert(r.ok);
          (void)r;
        }
      }
    }
    for (const auto& [key, count] : other.stash_) {
      stash_[key] += count;
    }
    stash_summary_.merge(other.stash_summary_);
    size_ += other.size_;
    return true;
  }

  // --- serialization ---------------------------------------------------------

  static constexpr char kMagic[9] = "MPCBFv1\0";
  /// Memory cap applied to untrusted length fields before any
  /// allocation; a hostile stream cannot make load() request more.
  static constexpr std::uint64_t kMaxLoadBytes = 1ull << 31;
  static constexpr std::uint64_t kMaxStashEntries = 1ull << 24;
  static constexpr std::uint64_t kMaxStashKeyLen = 1ull << 20;
  /// Usages derived (save) or checked (load) per stack-buffer chunk.
  static constexpr std::size_t kUsageChunk = 4096;

  /// Serializes the full filter state (layout, words, stash, counters)
  /// as a v2 frame: the v1 payload wrapped with magic, format version,
  /// payload length and CRC32C (io/crc32c.hpp). Metrics are not
  /// persisted.
  void save(std::ostream& os) const {
    std::ostringstream payload;
    save_payload(payload);
    io::write_frame(os, payload.str());
  }

  /// Restores a filter previously written by save(). Accepts both the
  /// framed v2 format and bare v1 streams (pre-frame builds). Throws
  /// std::runtime_error on format mismatch or corruption — v2 frames are
  /// CRC-verified before a single payload byte is parsed.
  static Mpcbf load(std::istream& is) {
    const auto magic = io::read_raw_magic(is);
    if (io::magic_equals(magic, io::kFrameMagic)) {
      std::istringstream payload(io::read_frame_payload_after_magic(is));
      io::expect_magic(payload, kMagic);
      return load_body(payload);
    }
    if (io::magic_equals(magic, kMagic)) {
      return load_body(is);  // legacy v1 stream
    }
    throw std::runtime_error("Mpcbf::load: unrecognized magic");
  }

  /// Writes the bare v1 payload (magic + body, no frame) — the unit
  /// composite containers (DurableMpcbf snapshots, ElasticMpcbf segments,
  /// DecayingMpcbf generations) embed inside their own frames.
  void save_payload(std::ostream& os) const {
    io::write_magic(os, kMagic);
    io::write_pod<std::uint32_t>(os, W);
    io::write_pod<std::uint32_t>(os, der_.k());
    io::write_pod<std::uint32_t>(os, der_.g());
    io::write_pod<std::uint32_t>(os, der_.b1());
    io::write_pod<std::uint32_t>(os, n_max_);
    io::write_pod<std::uint8_t>(os, static_cast<std::uint8_t>(policy_));
    io::write_pod<std::uint8_t>(os, short_circuit_ ? 1 : 0);
    io::write_pod<std::uint64_t>(os, seed_);
    io::write_pod<std::uint64_t>(os, size_);
    io::write_pod<std::uint64_t>(os, overflow_events_);
    io::write_pod<std::uint64_t>(os, underflow_events_);
    io::write_pod_vector(os, store_.words());
    // Per-word hierarchy usages: derived here, checked again on load.
    io::write_pod<std::uint64_t>(os, store_.size());
    std::array<std::uint16_t, kUsageChunk> usage{};
    for (std::size_t base = 0; base < store_.size(); base += kUsageChunk) {
      const std::size_t n = std::min(kUsageChunk, store_.size() - base);
      for (std::size_t i = 0; i < n; ++i) {
        usage[i] = static_cast<std::uint16_t>(
            store_.hierarchy_bits(base + i, der_.b1()));
      }
      os.write(reinterpret_cast<const char*>(usage.data()),
               static_cast<std::streamsize>(n * sizeof(std::uint16_t)));
    }
    // Stash entries in key order: the map's own iteration order depends
    // on its insertion history, so a reloaded filter would re-save them
    // shuffled. Sorted, save -> load -> save is byte-identical.
    std::vector<const typename decltype(stash_)::value_type*> stash;
    stash.reserve(stash_.size());
    for (const auto& entry : stash_) stash.push_back(&entry);
    std::sort(stash.begin(), stash.end(),
              [](const auto* a, const auto* b) { return a->first < b->first; });
    io::write_pod<std::uint64_t>(os, stash.size());
    for (const auto* entry : stash) {
      io::write_string(os, entry->first);
      io::write_pod<std::uint32_t>(os, entry->second);
    }
  }

  /// Parses a bare v1 payload (counterpart of save_payload).
  static Mpcbf load_payload(std::istream& is) {
    io::expect_magic(is, kMagic);
    return load_body(is);
  }

 private:
  Mpcbf(const MpcbfConfig& cfg, const MpcbfLayout& layout)
      : der_(layout.num_words, layout.k, layout.g, layout.b1),
        n_max_(layout.n_max),
        policy_(cfg.policy),
        seed_(layout.seed),
        short_circuit_(cfg.short_circuit) {
    store_.init(layout.num_words);
  }

  /// Parses the v1 body (everything after the magic) with full
  /// cross-validation: every length is memory-capped before allocation,
  /// each word must be a valid HCBF whose derived usage matches the
  /// persisted one, the stash must be consistent with the overflow
  /// policy, and the persisted element count must match the
  /// hierarchy-bit conservation law where it is derivable. The words
  /// are read straight into the constructed filter's (huge-page
  /// advised) store — no second copy.
  static Mpcbf load_body(std::istream& is) {
    const auto width = io::read_pod<std::uint32_t>(is);
    if (width != W) {
      throw std::runtime_error("Mpcbf::load: word width mismatch");
    }
    MpcbfConfig cfg;
    cfg.k = io::read_pod<std::uint32_t>(is);
    cfg.g = io::read_pod<std::uint32_t>(is);
    const auto b1 = io::read_pod<std::uint32_t>(is);
    cfg.n_max = io::read_pod<std::uint32_t>(is);
    const auto policy_byte = io::read_pod<std::uint8_t>(is);
    if (policy_byte > static_cast<std::uint8_t>(OverflowPolicy::kStash)) {
      throw std::runtime_error("Mpcbf::load: unknown overflow policy");
    }
    cfg.policy = static_cast<OverflowPolicy>(policy_byte);
    cfg.short_circuit = io::read_pod<std::uint8_t>(is) != 0;
    cfg.seed = io::read_pod<std::uint64_t>(is);
    const auto size = io::read_pod<std::uint64_t>(is);
    const auto overflows = io::read_pod<std::uint64_t>(is);
    const auto underflows = io::read_pod<std::uint64_t>(is);
    constexpr std::uint64_t kMaxWords =
        kMaxLoadBytes / sizeof(bits::WordBitset<W>);
    const auto num_words = io::read_pod<std::uint64_t>(is);
    if (num_words > kMaxWords) {
      throw std::runtime_error("binary read: vector length out of range");
    }
    if (num_words == 0) {
      throw std::runtime_error("Mpcbf::load: inconsistent word arrays");
    }
    cfg.memory_bits = num_words * W;
    Mpcbf f = [&] {
      try {
        return Mpcbf(cfg);
      } catch (const std::invalid_argument& e) {
        // A corrupt header must read as corruption, not a usage error.
        throw std::runtime_error(std::string("Mpcbf::load: bad layout: ") +
                                 e.what());
      }
    }();
    if (f.der_.b1() != b1) {
      throw std::runtime_error("Mpcbf::load: layout mismatch");
    }
    auto& words = f.store_.words();
    is.read(reinterpret_cast<char*>(words.data()),
            static_cast<std::streamsize>(num_words *
                                         sizeof(bits::WordBitset<W>)));
    if (!is) {
      throw std::runtime_error("binary read: truncated vector");
    }
    if (io::read_pod<std::uint64_t>(is) != num_words) {
      throw std::runtime_error("Mpcbf::load: inconsistent word arrays");
    }
    const std::uint64_t hierarchy_total = f.check_usages(is);
    f.size_ = size;
    f.overflow_events_ = overflows;
    f.underflow_events_ = underflows;
    const auto stash_count = io::read_pod<std::uint64_t>(is);
    if (stash_count > kMaxStashEntries) {
      throw std::runtime_error("Mpcbf::load: stash count out of range");
    }
    std::uint64_t stash_total = 0;
    for (std::uint64_t i = 0; i < stash_count; ++i) {
      std::string key = io::read_string(is, kMaxStashKeyLen);
      const auto count = io::read_pod<std::uint32_t>(is);
      if (count == 0) {
        throw std::runtime_error("Mpcbf::load: zero-count stash entry");
      }
      stash_total += count;
      if (!f.stash_.emplace(std::move(key), count).second) {
        throw std::runtime_error("Mpcbf::load: duplicate stash key");
      }
    }
    if (!f.stash_.empty() && f.policy_ != OverflowPolicy::kStash) {
      throw std::runtime_error(
          "Mpcbf::load: stash entries under a non-stash overflow policy");
    }
    f.rebuild_stash_summary();
    // Conservation law (docs/hcbf-format.md): every successful non-stash
    // insert adds exactly k hierarchy bits and every successful erase
    // removes k, so with no underflows on record the persisted element
    // count is fully derivable from the word state.
    if (underflows == 0) {
      if (size < stash_total) {
        throw std::runtime_error("Mpcbf::load: size below stash total");
      }
      if (hierarchy_total != (size - stash_total) * f.der_.k()) {
        throw std::runtime_error(
            "Mpcbf::load: element count inconsistent with word state");
      }
    }
    return f;
  }

  /// Reads the persisted u16 usage array chunk by chunk and checks every
  /// word: a valid HCBF whose derived usage equals the persisted value.
  /// Returns the total hierarchy bits.
  std::uint64_t check_usages(std::istream& is) const {
    std::array<std::uint16_t, kUsageChunk> usage{};
    std::uint64_t total = 0;
    for (std::size_t base = 0; base < store_.size(); base += kUsageChunk) {
      const std::size_t n = std::min(kUsageChunk, store_.size() - base);
      is.read(reinterpret_cast<char*>(usage.data()),
              static_cast<std::streamsize>(n * sizeof(std::uint16_t)));
      if (!is) {
        throw std::runtime_error("binary read: truncated vector");
      }
      for (std::size_t i = 0; i < n; ++i) {
        const std::size_t w = base + i;
        const unsigned used = store_.hierarchy_bits(w, der_.b1());
        if (!Hcbf<W>::validate(store_.words()[w], der_.b1()) ||
            used != usage[i]) {
          throw std::runtime_error("Mpcbf::load: corrupt filter state");
        }
        total += used;
      }
    }
    return total;
  }

  /// Records a sampled operation's latency. Const because filters record
  /// from const queries into mutable stats_.
  void sample_latency(metrics::OpClass c, bool timed,
                      std::uint64_t t0) const noexcept {
    if (timed) stats_.record_latency(c, metrics::now_ns() - t0);
  }

  /// The insert body after derivation — capacity check, overflow policy,
  /// level walk, accounting — shared verbatim by scalar insert() and the
  /// batch pipeline so they cannot diverge. `tally` is stats_ for a
  /// scalar op and the call's engine::OpTally in a batch.
  template <class Tally>
  bool insert_derived(std::string_view key, const engine::Targets& t,
                      std::uint64_t derive_bits, Tally& tally) {
    engine::WordUsage usage;
    if (!engine::capacity_ok(store_, der_.b1(), t, usage)) {
      ++overflow_events_;
      switch (policy_) {
        case OverflowPolicy::kThrow:
          throw std::overflow_error("Mpcbf: word overflow on insert");
        case OverflowPolicy::kReject:
          MPCBF_TRACE_INSTANT(kCore, "mpcbf.overflow_reject");
          tally.record(metrics::OpClass::kInsert, t.distinct_words,
                       derive_bits);
          return false;
        case OverflowPolicy::kStash:
          MPCBF_TRACE_INSTANT(kCore, "mpcbf.stash_divert", "stash_size",
                              stash_.size() + 1);
          ++stash_[std::string(key)];
          stash_summary_.add(t.group_word[0]);
          ++size_;
          tally.record(metrics::OpClass::kInsert, t.distinct_words,
                       derive_bits);
          return true;
      }
    }

    std::uint64_t extra_bits = 0;
    {
      // The hierarchical counter walk — the paper's "bits spent only on
      // non-zero counters" machinery; depth is the hierarchy bits the
      // walk claimed across all target words.
      MPCBF_TRACE_SPAN(walk, kCore, "mpcbf.level_walk");
      extra_bits =
          engine::LevelWalk<W>::increment_all(store_, der_.b1(), t, usage);
      walk.set_arg("depth", extra_bits);
    }
    ++size_;
    tally.record(metrics::OpClass::kInsert, t.distinct_words,
                 derive_bits + extra_bits);
    return true;
  }

  /// The erase of a stashed copy, which erase() tries before the words.
  /// The stash is probed (a string hash and a map lookup) only when its
  /// summary may hold the key's first word `first_word`. Returns false
  /// when `key` holds no stashed copy.
  template <class Tally>
  bool erase_stashed(std::string_view key, std::size_t first_word,
                     Tally& tally) {
    if (!stash_summary_.may_hold(first_word)) return false;
    auto it = stash_.find(key);
    if (it == stash_.end() || it->second == 0) return false;
    if (--it->second == 0) stash_.erase(it);
    if (stash_.empty()) stash_summary_.clear();
    --size_;
    tally.record(metrics::OpClass::kDelete, 0, 0);
    return true;
  }

  /// The erase body after derivation — level walk, underflow and size
  /// bookkeeping, accounting — shared by scalar erase() and the batch
  /// pipeline.
  template <class Tally>
  bool erase_derived(const engine::Targets& t, std::uint64_t derive_bits,
                     Tally& tally) {
    typename engine::LevelWalk<W>::DecrementResult walk_result;
    {
      MPCBF_TRACE_SPAN(walk, kCore, "mpcbf.level_walk");
      walk_result = engine::LevelWalk<W>::decrement_all(store_, der_.b1(), t);
      walk.set_arg("depth", walk_result.extra_bits);
    }
    underflow_events_ += walk_result.underflows;
    // A fully/partially underflowed erase removed nothing that was ever
    // counted: size_ only tracks successful operations, so a
    // contract-violating delete must not drift it low.
    if (walk_result.ok && size_ > 0) --size_;
    tally.record(metrics::OpClass::kDelete, t.distinct_words,
                 derive_bits + walk_result.extra_bits);
    return walk_result.ok;
  }

  template <class Key>
  void contains_batch_impl(std::span<const Key> keys,
                           std::span<std::uint8_t> out) const {
    if (keys.size() != out.size()) {
      throw std::invalid_argument("contains_batch: size mismatch");
    }
    MPCBF_TRACE_SPAN(span, kCore, "mpcbf.query_batch");
    span.set_arg("keys", keys.size());
    query(keys, out);
  }

  /// The one query path of contains() and contains_batch(): the engine's
  /// query_batch, with the stash probe deciding keys the words reject.
  /// The probe hashes into the stash only when the stash summary has the
  /// key's first word. Inlined, so contains() runs the one-key walk
  /// without a call.
  template <class Key>
  MPCBF_ENGINE_INLINE void query(std::span<const Key> keys,
                                 std::span<std::uint8_t> out) const {
    engine::query_batch(
        store_, der_, short_circuit_, keys, seed_, out, stats_,
        [&](std::size_t i, std::size_t first_word) {
          return stash_summary_.may_hold(first_word) &&
                 stash_count(std::string_view(keys[i])) > 0;
        });
  }

  /// Stashed copies of `key`.
  [[nodiscard]] std::uint32_t stash_count(std::string_view key) const {
    auto it = stash_.find(key);
    return it == stash_.end() ? 0 : it->second;
  }

  /// Rebuilds the stash summary from the stash (load).
  void rebuild_stash_summary() {
    stash_summary_.clear();
    for (const auto& entry : stash_) {
      hash::HashBitStream stream(entry.first, seed_);
      stash_summary_.add(der_.next_word(stream));
    }
  }

  template <class Key>
  void insert_batch_impl(std::span<const Key> keys,
                         std::span<std::uint8_t> ok) {
    if (keys.size() != ok.size()) {
      throw std::invalid_argument("insert_batch: size mismatch");
    }
    MPCBF_TRACE_SPAN(span, kCore, "mpcbf.insert_batch");
    span.set_arg("keys", keys.size());
    mutate_batch(metrics::OpClass::kInsert, keys,
                 [&](std::size_t key_i, const engine::Targets& t,
                     std::uint64_t derive_bits, engine::OpTally& tally) {
                   ok[key_i] = insert_derived(keys[key_i], t, derive_bits,
                                              tally);
                 });
  }

  template <class Key>
  void erase_batch_impl(std::span<const Key> keys,
                        std::span<std::uint8_t> ok) {
    if (keys.size() != ok.size()) {
      throw std::invalid_argument("erase_batch: size mismatch");
    }
    MPCBF_TRACE_SPAN(span, kCore, "mpcbf.erase_batch");
    span.set_arg("keys", keys.size());
    mutate_batch(metrics::OpClass::kDelete, keys,
                 [&](std::size_t key_i, const engine::Targets& t,
                     std::uint64_t derive_bits, engine::OpTally& tally) {
                   ok[key_i] = erase_stashed(keys[key_i],
                                             t.group_word[0], tally) ||
                               erase_derived(t, derive_bits, tally);
                 });
  }

  /// The batch pipeline of the two mutations: `apply(key_i, targets,
  /// derive_bits, tally)` runs each key's scalar body in key order
  /// against the live words. Each key keeps its sampled latency (class
  /// `c`) exactly as the scalar operation records it; the tallies are
  /// published once per call, also when an overflow throws mid-batch.
  template <class Key, class Apply>
  void mutate_batch(metrics::OpClass c, std::span<const Key> keys,
                    Apply&& apply) {
    std::array<engine::Targets, engine::kBatchChunk> targets;
    const std::uint64_t derive_bits = der_.derive_bits();
    engine::OpTally tally;
    try {
      engine::batch_pipeline(
          keys.size(),
          [&](std::size_t base, std::size_t count) {
            engine::derive_targets(der_, keys.subspan(base, count), seed_,
                                   targets.data());
          },
          [&](std::size_t slot) {
            return engine::gather_targets(store_, targets[slot], der_.g());
          },
          [&](std::size_t key_i, std::size_t slot) {
            const bool timed = stats_.should_sample();
            const std::uint64_t t0 = timed ? metrics::now_ns() : 0;
            apply(key_i, targets[slot], derive_bits, tally);
            sample_latency(c, timed, t0);
          });
    } catch (...) {
      tally.publish(stats_);
      throw;
    }
    tally.publish(stats_);
  }

  engine::PlainWords<W> store_;
  /// The layout scalars (k, g, b1, word count) and the index constants
  /// derived from them, computed once per filter.
  engine::TargetDeriver der_;
  unsigned n_max_ = 0;
  OverflowPolicy policy_;
  std::uint64_t seed_;
  bool short_circuit_;
  std::size_t size_ = 0;
  std::uint64_t overflow_events_ = 0;
  std::uint64_t underflow_events_ = 0;
  // Transparent hash/eq: string_view probes on the query path are
  // allocation-free; only inserts materialize a std::string key.
  util::StringKeyMap<std::uint32_t> stash_;
  /// Which first words stashed keys have; the query path probes stash_
  /// only for keys whose first word it may hold.
  StashSummary stash_summary_;
  mutable metrics::AccessStats stats_;
};

}  // namespace mpcbf::core
