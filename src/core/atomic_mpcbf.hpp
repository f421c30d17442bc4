// AtomicMpcbf — lock-free MPCBF over 64-bit words.
//
// The paper closes Sec. IV-B noting a hardware platform (FPGA hashing,
// single-word memory transactions) was being built; this class is the
// software analogue of that design point. Because a whole HCBF fits in one
// 64-bit word, every word mutation is a load → pure transform → CAS loop:
// a query is literally one atomic load per word (g loads for MPCBF-g), and
// inserts/deletes are lock-free (some thread always makes progress).
//
// Built on core/word_engine.hpp: target derivation is the shared
// TargetDeriver (same canonical hash order as Mpcbf), regrouped by
// distinct word (engine::group_by_word) so each word is CASed exactly
// once per operation, and the word vector is the engine's AtomicWords64
// storage policy. Capacity is re-derived from the word value inside the
// CAS loop via the level-size invariant (Hcbf::occupied_bits), so no
// out-of-word metadata exists and the CAS publishes a fully consistent
// word.
//
// Semantics under concurrency:
//  * per-word updates are linearizable (single-CAS publication);
//  * an element mapping to g >= 2 words is inserted word by word, so a
//    concurrent query can observe a partial insert as a (transient) false
//    negative — the same anomaly a hardware pipeline with per-bank updates
//    exhibits. Callers needing atomic multi-word visibility must
//    externally synchronize (or use g = 1, where inserts are atomic).
//  * overflow policy is reject-only: stash bookkeeping cannot be made
//    lock-free alongside the word CAS.
#pragma once

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdint>
#include <istream>
#include <ostream>
#include <span>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "bitvec/word_bitset.hpp"
#include "core/hcbf.hpp"
#include "core/word_engine.hpp"
#include "hash/hash_stream.hpp"
#include "io/binary.hpp"
#include "io/crc32c.hpp"
#include "metrics/access_stats.hpp"
#include "trace/trace.hpp"
#include "metrics/timer.hpp"
#include "model/fpr_model.hpp"

namespace mpcbf::core {

class AtomicMpcbf {
 public:
  static constexpr unsigned kWordBits = 64;
  static constexpr unsigned kMaxG = engine::kMaxG;
  static constexpr unsigned kMaxKPerWord = engine::kMaxKPerWord;

  /// `n_max` = 0 derives the per-word capacity from `expected_n` via the
  /// eq.-(11) heuristic; a nonzero value overrides it (callers wanting
  /// stronger no-overflow guarantees add headroom here).
  AtomicMpcbf(std::size_t memory_bits, unsigned k, unsigned g,
              std::size_t expected_n,
              std::uint64_t seed = hash::kDefaultSeed, unsigned n_max = 0)
      : k_(k), g_(g), seed_(seed) {
    engine::validate_shape(k, g, "AtomicMpcbf");
    const std::size_t l = memory_bits / kWordBits;
    if (l == 0) {
      throw std::invalid_argument("AtomicMpcbf: memory smaller than a word");
    }
    if (expected_n == 0 && n_max == 0) {
      throw std::invalid_argument("AtomicMpcbf: expected_n or n_max required");
    }
    n_max_ = n_max != 0 ? n_max : model::n_max_heuristic(expected_n, l, g);
    if (n_max_ == 0) n_max_ = 1;
    b1_ = model::b1_improved(kWordBits, k_, g_, n_max_);
    if (b1_ < 2) {
      throw std::invalid_argument(
          "AtomicMpcbf: configuration leaves no first-level bits");
    }
    store_.init(l);
  }

  /// Movable so load() can return by value (atomics themselves are not
  /// movable; the counter transfers as a relaxed snapshot). Quiescent
  /// source only.
  AtomicMpcbf(AtomicMpcbf&& other) noexcept
      : store_(std::move(other.store_)),
        k_(other.k_),
        g_(other.g_),
        b1_(other.b1_),
        n_max_(other.n_max_),
        seed_(other.seed_),
        stats_(other.stats_),
        overflow_events_(
            other.overflow_events_.load(std::memory_order_relaxed)),
        underflow_events_(
            other.underflow_events_.load(std::memory_order_relaxed)) {}

  /// Lock-free insert. Returns false if any target word lacks capacity
  /// (words updated before the failing one are rolled back, so the insert
  /// is all-or-nothing from the caller's perspective).
  bool insert(std::string_view key) {
    MPCBF_TRACE_SPAN(span, kCore, "atomic_mpcbf.insert");
    const bool timed = stats_.should_sample();
    const std::uint64_t t0 = timed ? metrics::now_ns() : 0;
    engine::WordPlan p;
    const std::uint64_t bits = derive(key, p);
    return insert_planned(p, bits, span, timed, t0);
  }

  /// Membership query: one atomic load per (distinct) word. Hashing is
  /// eager here (the whole stream is consumed before the first load), so
  /// accounted hash bits do not shrink under short-circuiting the way the
  /// lazy scalar Mpcbf's do — word touches still stop at the first miss.
  [[nodiscard]] bool contains(std::string_view key) const {
    MPCBF_TRACE_SPAN(span, kCore, "atomic_mpcbf.query");
    const bool timed = stats_.should_sample();
    const std::uint64_t t0 = timed ? metrics::now_ns() : 0;
    engine::WordPlan p;
    const std::uint64_t bits = derive(key, p);
    const engine::EagerEval ev = engine::evaluate_eager(store_, p, b1_);
    span.set_arg("words", ev.words_touched);
    record_op(ev.positive ? metrics::OpClass::kQueryPositive
                          : metrics::OpClass::kQueryNegative,
              ev.words_touched, bits, timed, t0);
    return ev.positive;
  }

  /// Lock-free delete of one prior insert. Returns false (and leaves the
  /// remaining words untouched for that position) when a counter
  /// underflows — the never-inserted-key contract violation. Each
  /// underflowing word counts one underflow event.
  bool erase(std::string_view key) {
    MPCBF_TRACE_SPAN(span, kCore, "atomic_mpcbf.erase");
    const bool timed = stats_.should_sample();
    const std::uint64_t t0 = timed ? metrics::now_ns() : 0;
    engine::WordPlan p;
    const std::uint64_t bits = derive(key, p);
    bool ok = true;
    for (unsigned s = 0; s < p.num_words; ++s) {
      if (!store_.apply_group(p, s, b1_, /*increment=*/false)) {
        ok = false;
        underflow_events_.fetch_add(1, std::memory_order_relaxed);
      }
    }
    record_op(metrics::OpClass::kDelete, p.num_words, bits, timed, t0);
    return ok;
  }

  /// Multiplicity estimate from a per-word atomic snapshot.
  [[nodiscard]] std::uint32_t count(std::string_view key) const {
    engine::WordPlan p;
    derive(key, p);
    unsigned min_c = ~0u;
    for (unsigned s = 0; s < p.num_words; ++s) {
      bits::WordBitset<64> w;
      w.set_limb(0, store_.load_acquire(p.word[s]));
      for (unsigned i = p.offset[s]; i < p.offset[s + 1]; ++i) {
        min_c = std::min(min_c, Hcbf<64>::counter(w, b1_, p.pos[i]));
        if (min_c == 0) return 0;
      }
    }
    return min_c;
  }

  // --- batch operations --------------------------------------------------

  /// Membership for a batch of keys through the engine's derive → gather
  /// → resolve pipeline: a chunk of keys is hashed and its word plans
  /// built first, every distinct word then loaded in one tight loop so
  /// the cache misses overlap, then each key resolved from a fresh
  /// snapshot. `out[i]` receives the verdict for `keys[i]`.
  ///
  /// Stats parity with scalar contains(): evaluation stops at the same
  /// first-miss word and hashing is eager in both, so a batch and a
  /// scalar pass over the same (quiescent) keys produce identical
  /// per-class op counts, word touches and accounted bits. Tallies are
  /// aggregated per call (one atomic trio per op class); sampled chunks
  /// record their per-key average latency.
  void contains_batch(std::span<const std::string> keys,
                      std::span<std::uint8_t> out) const {
    contains_batch_impl<std::string>(keys, out);
  }
  void contains_batch(std::span<const std::string_view> keys,
                      std::span<std::uint8_t> out) const {
    contains_batch_impl<std::string_view>(keys, out);
  }

  /// Batched lock-free inserts through the same pipeline; `ok[i]`
  /// receives insert(keys[i])'s return value. Each key is applied (and
  /// accounted) exactly as a scalar insert, so overflow rollback and
  /// stats match a scalar loop op for op.
  void insert_batch(std::span<const std::string> keys,
                    std::span<std::uint8_t> ok) {
    insert_batch_impl<std::string>(keys, ok);
  }
  void insert_batch(std::span<const std::string_view> keys,
                    std::span<std::uint8_t> ok) {
    insert_batch_impl<std::string_view>(keys, ok);
  }

  [[nodiscard]] std::size_t num_words() const noexcept {
    return store_.size();
  }
  [[nodiscard]] unsigned b1() const noexcept { return b1_; }
  [[nodiscard]] unsigned k() const noexcept { return k_; }
  [[nodiscard]] unsigned g() const noexcept { return g_; }
  [[nodiscard]] unsigned n_max() const noexcept { return n_max_; }
  [[nodiscard]] std::uint64_t overflow_events() const noexcept {
    return overflow_events_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t underflow_events() const noexcept {
    return underflow_events_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::size_t memory_bits() const noexcept {
    return store_.size() * kWordBits;
  }
  /// Access-bandwidth / latency accounting (relaxed atomics, safe to read
  /// while other threads operate on the filter).
  [[nodiscard]] const metrics::AccessStats& stats() const noexcept {
    return stats_;
  }
  void reset_stats() noexcept { stats_.reset(); }

  /// Structural check (quiescent state only).
  [[nodiscard]] bool validate() const {
    for (std::size_t i = 0; i < store_.size(); ++i) {
      bits::WordBitset<64> w;
      w.set_limb(0, store_.load_relaxed(i));
      if (!Hcbf<64>::validate(w, b1_)) return false;
    }
    return true;
  }

  // --- serialization ----------------------------------------------------

  static constexpr char kMagic[9] = "MPCBATM2";

  /// Serializes the word array into a v2 frame. Quiescent state only:
  /// each word is read with one relaxed load, so words mutated while
  /// saving would tear *across* words (each word itself is consistent).
  void save(std::ostream& os) const {
    std::ostringstream payload;
    io::write_magic(payload, kMagic);
    io::write_pod<std::uint32_t>(payload, k_);
    io::write_pod<std::uint32_t>(payload, g_);
    io::write_pod<std::uint32_t>(payload, b1_);
    io::write_pod<std::uint32_t>(payload, n_max_);
    io::write_pod<std::uint64_t>(payload, seed_);
    io::write_pod<std::uint64_t>(payload, overflow_events());
    io::write_pod<std::uint64_t>(payload, store_.size());
    for (std::size_t i = 0; i < store_.size(); ++i) {
      io::write_pod<std::uint64_t>(payload, store_.load_relaxed(i));
    }
    io::write_frame(os, payload.str());
  }

  /// Restores a filter written by save(). Throws std::runtime_error on
  /// corruption; every word must satisfy the HCBF invariants.
  static AtomicMpcbf load(std::istream& is) {
    std::istringstream payload(io::read_frame(is));
    io::expect_magic(payload, kMagic);
    const auto k = io::read_pod<std::uint32_t>(payload);
    const auto g = io::read_pod<std::uint32_t>(payload);
    const auto b1 = io::read_pod<std::uint32_t>(payload);
    const auto n_max = io::read_pod<std::uint32_t>(payload);
    const auto seed = io::read_pod<std::uint64_t>(payload);
    const auto overflows = io::read_pod<std::uint64_t>(payload);
    const auto word_count = io::read_pod<std::uint64_t>(payload);
    constexpr std::uint64_t kMaxWords = (1ull << 31) / sizeof(std::uint64_t);
    if (word_count == 0 || word_count > kMaxWords) {
      throw std::runtime_error("AtomicMpcbf::load: word count out of range");
    }
    AtomicMpcbf f = [&] {
      try {
        return AtomicMpcbf(word_count * kWordBits, k, g, 0, seed, n_max);
      } catch (const std::invalid_argument& e) {
        throw std::runtime_error(
            std::string("AtomicMpcbf::load: bad layout: ") + e.what());
      }
    }();
    if (f.b1_ != b1) {
      throw std::runtime_error("AtomicMpcbf::load: layout mismatch");
    }
    for (std::size_t i = 0; i < f.store_.size(); ++i) {
      f.store_.store_relaxed(i, io::read_pod<std::uint64_t>(payload));
    }
    f.overflow_events_.store(overflows, std::memory_order_relaxed);
    if (!f.validate()) {
      throw std::runtime_error("AtomicMpcbf::load: corrupt filter state");
    }
    return f;
  }

 private:
  /// The layout scalars the engine needs; trivially constructed per op.
  [[nodiscard]] engine::TargetDeriver deriver() const noexcept {
    return engine::TargetDeriver(store_.size(), k_, g_, b1_);
  }

  /// Records one operation's tallies and, for sampled ops, its latency.
  void record_op(metrics::OpClass c, std::uint64_t words,
                 std::uint64_t bits, bool timed,
                 std::uint64_t t0) const noexcept {
    stats_.record(c, words, bits);
    if (timed) stats_.record_latency(c, metrics::now_ns() - t0);
  }

  /// Derives the canonical targets and regroups them by distinct word so
  /// each word is CASed exactly once per operation. Returns the accounted
  /// hash bits consumed (the paper's access-bandwidth unit).
  std::uint64_t derive(std::string_view key, engine::WordPlan& p) const {
    hash::HashBitStream stream(key, seed_);
    engine::Targets t;
    deriver().derive_all(stream, t);
    engine::group_by_word(t, p);
    return stream.accounted_bits();
  }

  /// The insert body after planning — per-word CAS application with
  /// all-or-nothing rollback and accounting — shared by scalar insert()
  /// and the batch pipeline so they cannot diverge.
  template <class Span>
  bool insert_planned(const engine::WordPlan& p, std::uint64_t bits,
                      Span& span, bool timed, std::uint64_t t0) {
    unsigned done = 0;
    for (; done < p.num_words; ++done) {
      if (!store_.apply_group(p, done, b1_, /*increment=*/true)) break;
    }
    if (done == p.num_words) {
      span.set_arg("words", p.num_words);
      record_op(metrics::OpClass::kInsert, p.num_words, bits, timed, t0);
      return true;
    }
    // Roll back the words already updated.
    for (unsigned u = 0; u < done; ++u) {
      store_.apply_group(p, u, /*b1=*/b1_, /*increment=*/false);
    }
    overflow_events_.fetch_add(1, std::memory_order_relaxed);
    MPCBF_TRACE_INSTANT(kCore, "atomic_mpcbf.overflow_reject");
    // A rejected insert still touched every word up to and including the
    // failing one (plus the rollback writes to the first `done`).
    record_op(metrics::OpClass::kInsert, 2 * done + 1, bits, timed, t0);
    return false;
  }

  template <class Key>
  void contains_batch_impl(std::span<const Key> keys,
                           std::span<std::uint8_t> out) const {
    if (keys.size() != out.size()) {
      throw std::invalid_argument("contains_batch: size mismatch");
    }
    MPCBF_TRACE_SPAN(span, kCore, "atomic_mpcbf.query_batch");
    span.set_arg("keys", keys.size());
    std::array<engine::WordPlan, engine::kBatchChunk> plans;
    std::array<std::uint64_t, engine::kBatchChunk> bits;
    engine::BatchStatsAccumulator acc;
    bool timed = false;
    std::uint64_t t0 = 0;
    engine::batch_pipeline(
        keys.size(),
        [&](std::size_t key_i, std::size_t slot) {
          bits[slot] = derive(keys[key_i], plans[slot]);
        },
        [&](std::size_t slot) { return gather(plans[slot]); },
        [&](std::size_t key_i, std::size_t slot) {
          const engine::EagerEval ev =
              engine::evaluate_eager(store_, plans[slot], b1_);
          out[key_i] = ev.positive ? 1 : 0;
          acc.add(ev.positive, ev.words_touched, bits[slot]);
        },
        [&](std::size_t) {
          timed = stats_.should_sample();
          t0 = timed ? metrics::now_ns() : 0;
        },
        [&](std::size_t count) {
          if (timed) {
            stats_.record_batch_latency((metrics::now_ns() - t0) / count);
          }
        });
    acc.publish(stats_);
  }

  template <class Key>
  void insert_batch_impl(std::span<const Key> keys,
                         std::span<std::uint8_t> ok) {
    if (keys.size() != ok.size()) {
      throw std::invalid_argument("insert_batch: size mismatch");
    }
    MPCBF_TRACE_SPAN(span, kCore, "atomic_mpcbf.insert_batch");
    span.set_arg("keys", keys.size());
    std::array<engine::WordPlan, engine::kBatchChunk> plans;
    std::array<std::uint64_t, engine::kBatchChunk> bits;
    engine::batch_pipeline(
        keys.size(),
        [&](std::size_t key_i, std::size_t slot) {
          bits[slot] = derive(keys[key_i], plans[slot]);
        },
        [&](std::size_t slot) { return gather(plans[slot]); },
        [&](std::size_t key_i, std::size_t slot) {
          MPCBF_TRACE_SPAN(op, kCore, "atomic_mpcbf.insert");
          const bool timed = stats_.should_sample();
          const std::uint64_t t0 = timed ? metrics::now_ns() : 0;
          ok[key_i] =
              insert_planned(plans[slot], bits[slot], op, timed, t0) ? 1 : 0;
        },
        [](std::size_t) {}, [](std::size_t) {});
  }

  /// The batch gather of one plan: a relaxed load of each distinct word.
  /// It only warms the cache — every CAS and snapshot reloads the word.
  [[nodiscard]] std::uint64_t gather(const engine::WordPlan& p) const {
    std::uint64_t v = 0;
    for (unsigned s = 0; s < p.num_words; ++s) v += store_.gather(p.word[s]);
    return v;
  }

  engine::AtomicWords64 store_;
  unsigned k_;
  unsigned g_;
  unsigned b1_ = 0;
  unsigned n_max_ = 0;
  std::uint64_t seed_;
  mutable metrics::AccessStats stats_;
  std::atomic<std::uint64_t> overflow_events_{0};
  // Not persisted: the v2 frame layout predates this counter and stays
  // byte-compatible.
  std::atomic<std::uint64_t> underflow_events_{0};
};

}  // namespace mpcbf::core
