// PCBF — Partitioned Counting Bloom Filter (Sec. III-A), the paper's
// "naive" one-memory-access strawman.
//
// The counter vector is split into l words of w bits = w/4 4-bit counters.
// An element picks g words (one for PCBF-1) and ⌈k/g⌉ counters inside each.
// Fast (g accesses) but *less* accurate than CBF (eq. 2/3 and Fig. 2): it
// hashes into the short range w/4 instead of the full vector. MPCBF exists
// to fix exactly this.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string_view>

#include "bitvec/counter_vector.hpp"
#include "core/word_engine.hpp"
#include "filters/word_set.hpp"
#include "hash/hash_stream.hpp"
#include "metrics/access_stats.hpp"
#include "model/fpr_model.hpp"

namespace mpcbf::filters {

struct PcbfConfig {
  std::size_t memory_bits = 1 << 20;
  unsigned k = 3;
  unsigned g = 1;          ///< memory accesses (words per element)
  unsigned word_bits = 64;
  unsigned counter_bits = 4;
  std::uint64_t seed = hash::kDefaultSeed;
  bool short_circuit = true;
};

class Pcbf {
 public:
  explicit Pcbf(const PcbfConfig& cfg)
      : counters_(cfg.memory_bits / cfg.counter_bits, cfg.counter_bits),
        counters_per_word_(cfg.word_bits / cfg.counter_bits),
        num_words_(cfg.memory_bits / cfg.word_bits),
        k_(cfg.k),
        g_(cfg.g),
        word_bits_(cfg.word_bits),
        seed_(cfg.seed),
        short_circuit_(cfg.short_circuit),
        der_(validated_deriver(cfg)) {}

  Pcbf(std::size_t memory_bits, unsigned k, unsigned g = 1,
       std::uint64_t seed = hash::kDefaultSeed)
      : Pcbf(PcbfConfig{memory_bits, k, g, 64, 4, seed, true}) {}

  void insert(std::string_view key) {
    core::engine::Targets t;
    hash::HashBitStream stream(key, seed_);
    der_.derive_all(stream, t);
    for (unsigned i = 0; i < t.total_positions; ++i) {
      counters_.increment(counter_index(t.word_of(i), t.pos(i)));
    }
    ++size_;
    stats_.record(metrics::OpClass::kInsert, t.distinct_words,
                  stream.accounted_bits());
  }

  [[nodiscard]] bool contains(std::string_view key) const {
    hash::HashBitStream stream(key, seed_);
    WordSet touched;
    bool positive = true;
    for (unsigned t = 0; t < g_; ++t) {
      if (!positive && short_circuit_) break;
      const std::size_t w = stream.next_index(num_words_);
      touched.add(w);
      const unsigned kw = model::hashes_per_word(k_, g_, t);
      for (unsigned i = 0; i < kw; ++i) {
        const std::size_t c =
            w * counters_per_word_ + stream.next_index(counters_per_word_);
        if (counters_.get(c) == 0) {
          positive = false;
          if (short_circuit_) break;
        }
      }
    }
    stats_.record(positive ? metrics::OpClass::kQueryPositive
                           : metrics::OpClass::kQueryNegative,
                  touched.count, stream.accounted_bits());
    return positive;
  }

  bool erase(std::string_view key) {
    core::engine::Targets t;
    hash::HashBitStream stream(key, seed_);
    der_.derive_all(stream, t);
    bool ok = true;
    for (unsigned i = 0; i < t.total_positions; ++i) {
      ok &= counters_.decrement(counter_index(t.word_of(i), t.pos(i)));
    }
    if (size_ > 0) --size_;
    stats_.record(metrics::OpClass::kDelete, t.distinct_words,
                  stream.accounted_bits());
    return ok;
  }

  [[nodiscard]] std::uint32_t count(std::string_view key) const {
    core::engine::Targets t;
    hash::HashBitStream stream(key, seed_);
    der_.derive_all(stream, t);
    std::uint32_t min_c = ~std::uint32_t{0};
    for (unsigned i = 0; i < t.total_positions; ++i) {
      min_c = std::min(min_c,
                       counters_.get(counter_index(t.word_of(i), t.pos(i))));
    }
    return min_c;
  }

  void clear() {
    counters_.reset();
    size_ = 0;
  }

  [[nodiscard]] std::size_t num_words() const noexcept { return num_words_; }
  [[nodiscard]] unsigned counters_per_word() const noexcept {
    return counters_per_word_;
  }
  [[nodiscard]] unsigned k() const noexcept { return k_; }
  [[nodiscard]] unsigned g() const noexcept { return g_; }
  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] std::size_t memory_bits() const noexcept {
    return num_words_ * word_bits_;
  }
  [[nodiscard]] std::uint64_t saturations() const noexcept {
    return counters_.saturations();
  }
  [[nodiscard]] metrics::AccessStats& stats() const noexcept {
    return stats_;
  }

 private:
  /// Checks the shape, then builds the shared target derivation
  /// (core/word_engine.hpp): a PCBF "position" is a counter slot within a
  /// word, so b1 = counters_per_word. Used on the full-stream paths
  /// (insert/erase/count); contains() keeps the lazy stream so
  /// short-circuiting saves its hash bits.
  static core::engine::TargetDeriver validated_deriver(const PcbfConfig& cfg) {
    core::engine::validate_shape(cfg.k, cfg.g, "Pcbf");
    const std::size_t num_words = cfg.memory_bits / cfg.word_bits;
    const unsigned counters_per_word = cfg.word_bits / cfg.counter_bits;
    if (num_words == 0) {
      throw std::invalid_argument("Pcbf: memory smaller than one word");
    }
    if (counters_per_word > core::engine::kMaxPositionRange) {
      throw std::invalid_argument("Pcbf: too many counters per word");
    }
    return core::engine::TargetDeriver(num_words, cfg.k, cfg.g,
                                       counters_per_word);
  }

  [[nodiscard]] std::size_t counter_index(std::size_t word,
                                          unsigned slot) const noexcept {
    return word * counters_per_word_ + slot;
  }

  bits::CounterVector counters_;
  unsigned counters_per_word_;
  std::size_t num_words_;
  unsigned k_;
  unsigned g_;
  unsigned word_bits_;
  std::uint64_t seed_;
  bool short_circuit_;
  core::engine::TargetDeriver der_;
  std::size_t size_ = 0;
  mutable metrics::AccessStats stats_;
};

}  // namespace mpcbf::filters
