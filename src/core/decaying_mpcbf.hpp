// DecayingMpcbf — sliding-window TTL semantics on the shared word
// engine, so bounded-lifetime workloads age out stale entries without
// ever issuing an explicit ERASE.
//
// The window is G fixed-shape MPCBF generations (core/mpcbf.hpp), all
// sharing one layout and hash seed. Inserts land in the newest
// generation only; queries consult every generation (a key is present
// while *any* generation remembers it); decay_tick() retires the oldest
// generation and starts a fresh one in its slot. An entry inserted once
// therefore survives between G-1 and G ticks — the classic
// sliding-window Bloom construction (cf. Dynamic Partition Bloom
// Filters, arXiv:1901.06493), here inheriting the paper's
// multi-partitioned counter words per generation.
//
// Why this keeps FPR flat under an infinite insert stream: a plain CBF
// only accumulates — its fill factor, and with it the false-positive
// rate, grows monotonically toward saturation. Here the live state is
// capped at whatever arrived in the last G tick windows, so the
// steady-state fill (and the union-bound FPR across generations,
// model_fpr()) is a function of the *rate*, not of total stream length.
// tests/test_decay.cpp locks in exactly that: an insert soak holds the
// decayed filter's measured FPR within model bounds while the no-decay
// control saturates.
//
// Generation rotation reuses storage: the retired generation is
// clear()ed in place and becomes the new current one, so a tick is O(l)
// zeroing with zero allocation and the memory footprint is constant for
// the filter's lifetime.
//
// Thread-safety: same contract as Mpcbf — concurrent const queries are
// safe, mutations (including decay_tick) need external serialization.
// The serving layer wraps namespaces in a shared_mutex already.
#pragma once

#include <cstdint>
#include <cstring>
#include <istream>
#include <memory>
#include <ostream>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "core/durable_mpcbf.hpp"
#include "core/mpcbf.hpp"
#include "io/binary.hpp"
#include "io/journal.hpp"
#include "trace/trace.hpp"

namespace mpcbf::core {

struct DecayConfig {
  /// Shape of each window generation (every generation is identical).
  MpcbfConfig generation;
  /// Window depth: an entry survives generations-1 .. generations ticks.
  unsigned generations = 4;
};

template <unsigned W = 64>
class DecayingMpcbf {
 public:
  /// Cap on the window depth a config (or a hostile snapshot length
  /// field) may request.
  static constexpr unsigned kMaxGenerations = 64;
  static constexpr char kMagic[9] = "MPCBDKY1";

  explicit DecayingMpcbf(const DecayConfig& cfg) : cfg_(cfg) {
    if (cfg.generations < 2 || cfg.generations > kMaxGenerations) {
      throw std::invalid_argument(
          "DecayingMpcbf: generations must be in [2, " +
          std::to_string(kMaxGenerations) + "]");
    }
    gens_.reserve(cfg.generations);
    for (unsigned i = 0; i < cfg.generations; ++i) {
      gens_.push_back(std::make_unique<Mpcbf<W>>(cfg.generation));
    }
  }

  // --- mutations ---------------------------------------------------------

  /// Inserts into the newest generation. Returns that generation's
  /// insert verdict (overflow policy applies per generation).
  bool insert(std::string_view key) { return gens_.back()->insert(key); }

  /// Erases one prior insert, newest generation that still counts the
  /// key first — explicit deletion stays available even though decay is
  /// the intended retirement path.
  bool erase(std::string_view key) {
    for (auto it = gens_.rbegin(); it != gens_.rend(); ++it) {
      if ((*it)->count(key) > 0) return (*it)->erase(key);
    }
    return false;
  }

  /// Retires the oldest generation and starts a fresh one in its slot
  /// (storage reused in place). Returns the tick ordinal just applied
  /// (1-based).
  std::uint64_t decay_tick() {
    MPCBF_TRACE_SPAN(span, kCore, "decay.tick");
    auto oldest = std::move(gens_.front());
    gens_.erase(gens_.begin());
    oldest->clear();
    gens_.push_back(std::move(oldest));
    ++ticks_;
    span.set_arg("tick", ticks_);
    return ticks_;
  }

  void clear() {
    for (auto& g : gens_) g->clear();
    ticks_ = 0;
  }

  // --- queries -----------------------------------------------------------

  /// Membership across the window: positive while any generation
  /// remembers the key.
  [[nodiscard]] bool contains(std::string_view key) const {
    for (auto it = gens_.rbegin(); it != gens_.rend(); ++it) {
      if ((*it)->contains(key)) return true;
    }
    return false;
  }

  /// Min-counter frequency estimate summed across generations — the
  /// window-total multiplicity (each insert lives in exactly one
  /// generation, so the sum never undercounts correctly inserted keys).
  [[nodiscard]] std::uint32_t count(std::string_view key) const {
    std::uint64_t total = 0;
    for (const auto& g : gens_) total += g->count(key);
    return total > 0xFFFFFFFFull ? 0xFFFFFFFFu
                                 : static_cast<std::uint32_t>(total);
  }

  void contains_batch(std::span<const std::string> keys,
                      std::span<std::uint8_t> out) const {
    contains_batch_impl<std::string>(keys, out);
  }
  void contains_batch(std::span<const std::string_view> keys,
                      std::span<std::uint8_t> out) const {
    contains_batch_impl<std::string_view>(keys, out);
  }
  void insert_batch(std::span<const std::string> keys,
                    std::span<std::uint8_t> ok) {
    gens_.back()->insert_batch(keys, ok);
  }
  void insert_batch(std::span<const std::string_view> keys,
                    std::span<std::uint8_t> ok) {
    gens_.back()->insert_batch(keys, ok);
  }

  // --- introspection -----------------------------------------------------

  [[nodiscard]] std::size_t size() const noexcept {
    std::size_t total = 0;
    for (const auto& g : gens_) total += g->size();
    return total;
  }
  [[nodiscard]] std::size_t memory_bits() const noexcept {
    std::size_t total = 0;
    for (const auto& g : gens_) total += g->memory_bits();
    return total;
  }
  [[nodiscard]] std::size_t num_words() const noexcept {
    std::size_t total = 0;
    for (const auto& g : gens_) total += g->num_words();
    return total;
  }
  [[nodiscard]] unsigned k() const noexcept { return gens_.front()->k(); }
  [[nodiscard]] unsigned g() const noexcept { return gens_.front()->g(); }
  [[nodiscard]] unsigned b1() const noexcept { return gens_.front()->b1(); }
  [[nodiscard]] unsigned n_max() const noexcept {
    return gens_.front()->n_max();
  }
  [[nodiscard]] std::uint64_t seed() const noexcept {
    return gens_.front()->seed();
  }
  [[nodiscard]] std::uint64_t overflow_events() const noexcept {
    std::uint64_t total = 0;
    for (const auto& g : gens_) total += g->overflow_events();
    return total;
  }
  [[nodiscard]] std::uint64_t underflow_events() const noexcept {
    std::uint64_t total = 0;
    for (const auto& g : gens_) total += g->underflow_events();
    return total;
  }
  [[nodiscard]] std::size_t stash_size() const noexcept {
    std::size_t total = 0;
    for (const auto& g : gens_) total += g->stash_size();
    return total;
  }
  [[nodiscard]] unsigned generations() const noexcept {
    return static_cast<unsigned>(gens_.size());
  }
  [[nodiscard]] std::uint64_t ticks() const noexcept { return ticks_; }
  [[nodiscard]] const DecayConfig& config() const noexcept { return cfg_; }
  /// Generation i, oldest first (i = generations()-1 is the insert
  /// target). Diagnostic use.
  [[nodiscard]] const Mpcbf<W>& generation(std::size_t i) const {
    return *gens_.at(i);
  }

  /// Merged occupancy across generations (position-wise histogram sums;
  /// all generations share one geometry) — feeds HealthProber.
  [[nodiscard]] typename Mpcbf<W>::FillReport fill_report() const {
    typename Mpcbf<W>::FillReport merged;
    merged.hierarchy_histogram.assign(W - b1() + 1, 0);
    for (const auto& g : gens_) {
      const auto r = g->fill_report();
      for (std::size_t u = 0; u < r.hierarchy_histogram.size(); ++u) {
        merged.hierarchy_histogram[u] += r.hierarchy_histogram[u];
      }
      if (r.counter_histogram.size() > merged.counter_histogram.size()) {
        merged.counter_histogram.resize(r.counter_histogram.size(), 0);
      }
      for (std::size_t c = 0; c < r.counter_histogram.size(); ++c) {
        merged.counter_histogram[c] += r.counter_histogram[c];
      }
      merged.total_positions += r.total_positions;
    }
    if (merged.counter_histogram.empty()) {
      merged.counter_histogram.resize(1, merged.total_positions);
    }
    return merged;
  }

  /// Closed-form FPR bound for the window: a query false-positives when
  /// *any* generation does, so 1 - prod(1 - f_gen) — the union bound
  /// the decay soak test compares measurements against.
  [[nodiscard]] double model_fpr() const {
    double none = 1.0;
    for (const auto& g : gens_) {
      none *= 1.0 - model::fpr_mpcbf_g(g->size(), g->num_words(), g->b1(),
                                       g->k(), g->g());
    }
    return 1.0 - none;
  }

  [[nodiscard]] bool validate() const {
    if (gens_.size() != cfg_.generations) return false;
    for (const auto& g : gens_) {
      if (!g->validate()) return false;
    }
    return true;
  }

  // --- serialization -----------------------------------------------------

  /// Bare payload (magic + body) for embedding in durable snapshots.
  void save_payload(std::ostream& os) const {
    io::write_magic(os, kMagic);
    io::write_pod<std::uint32_t>(os,
                                 static_cast<std::uint32_t>(gens_.size()));
    io::write_pod<std::uint64_t>(os, ticks_);
    for (const auto& g : gens_) g->save_payload(os);
  }

  static DecayingMpcbf load_payload(std::istream& is) {
    io::expect_magic(is, kMagic);
    const auto count = io::read_pod<std::uint32_t>(is);
    if (count < 2 || count > kMaxGenerations) {
      throw std::runtime_error(
          "DecayingMpcbf::load: generation count out of range");
    }
    const auto ticks = io::read_pod<std::uint64_t>(is);
    std::vector<std::unique_ptr<Mpcbf<W>>> gens;
    gens.reserve(count);
    for (std::uint32_t i = 0; i < count; ++i) {
      gens.push_back(
          std::make_unique<Mpcbf<W>>(Mpcbf<W>::load_payload(is)));
      if (i > 0 && !gens.front()->compatible(*gens.back())) {
        throw std::runtime_error(
            "DecayingMpcbf::load: generations disagree on layout");
      }
    }
    DecayingMpcbf f(std::move(gens), ticks);
    return f;
  }

 private:
  DecayingMpcbf(std::vector<std::unique_ptr<Mpcbf<W>>> gens,
                std::uint64_t ticks)
      : gens_(std::move(gens)), ticks_(ticks) {
    cfg_.generations = static_cast<unsigned>(gens_.size());
    const Mpcbf<W>& g0 = *gens_.front();
    cfg_.generation.memory_bits = g0.memory_bits();
    cfg_.generation.k = g0.k();
    cfg_.generation.g = g0.g();
    cfg_.generation.n_max = g0.n_max();
    cfg_.generation.policy = g0.policy();
    cfg_.generation.seed = g0.seed();
  }

  template <class Key>
  void contains_batch_impl(std::span<const Key> keys,
                           std::span<std::uint8_t> out) const {
    if (keys.size() != out.size()) {
      throw std::invalid_argument("contains_batch: size mismatch");
    }
    // Newest generation first through the engine's batch pipeline, then
    // only the misses re-probe older generations — the hot path for a
    // recency-skewed workload stays one batched pass.
    gens_.back()->contains_batch(keys, out);
    for (std::size_t i = 0; i < keys.size(); ++i) {
      if (out[i]) continue;
      for (std::size_t gi = gens_.size() - 1; gi-- > 0;) {
        if (gens_[gi]->contains(keys[i])) {
          out[i] = 1;
          break;
        }
      }
    }
  }

  DecayConfig cfg_;
  std::vector<std::unique_ptr<Mpcbf<W>>> gens_;  // oldest first
  std::uint64_t ticks_ = 0;
};

// --- DurableDecayingMpcbf -----------------------------------------------
//
// Durable<F> over a window (core/durable_mpcbf.hpp), with decay ticks
// first-classed in the WAL exactly like the elastic topology ops: a tick
// is journaled as a kDecayTick record (key = LE u64 tick ordinal)
// *before* the rotation is applied, and replay rotates at the record's
// sequence position — so a recovered window is byte-identical to the
// crashed process's, including which generation each surviving key
// lives in.

template <unsigned W>
struct DurableKind<DecayingMpcbf<W>> {
  using Config = DecayConfig;
  static constexpr char kSnapshotMagic[9] = "MPCBDKD1";

  /// Same window depth, and every generation laid out as `cfg` lays one
  /// out (MpcbfLayout: k, g, b1, n_max, seed and word count).
  static bool matches(const DecayingMpcbf<W>& f, const DecayConfig& cfg) {
    return f.generations() == cfg.generations &&
           f.generation(0).layout() == Mpcbf<W>::layout_for(cfg.generation);
  }

  static std::string tick_key(std::uint64_t tick) {
    std::string s(8, '\0');
    std::memcpy(s.data(), &tick, 8);
    return s;
  }

  template <class Commit>
  static bool apply(DecayingMpcbf<W>& f, io::JournalOp op,
                    std::string_view key, Commit&& commit) {
    if (op != io::JournalOp::kDecayTick || key.size() != 8) return false;
    commit();
    (void)f.decay_tick();
    return true;
  }
};

template <unsigned W = 64>
using DurableDecayingMpcbf = Durable<DecayingMpcbf<W>>;

}  // namespace mpcbf::core
