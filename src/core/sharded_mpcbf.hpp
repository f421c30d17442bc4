// ShardedMpcbf — thread-safe MPCBF for word widths where the lock-free
// single-word CAS of AtomicMpcbf does not apply (W > 64), or when the
// stash/throw overflow policies are needed under concurrency.
//
// The key space is partitioned across S independent Mpcbf shards by a
// dedicated shard hash (independent of the per-shard word hashes), each
// shard guarded by its own mutex. Operations on different shards never
// contend; within a shard the full sequential feature set (policies,
// counts, merge of equal-sharding filters, serialization) is available.
// This is the classic striped-lock recipe — chosen over finer-grained
// schemes because an MPCBF operation only holds its lock for a handful of
// word accesses (CP.20: RAII locking, no manual unlock paths).
#pragma once

#include <cstdint>
#include <istream>
#include <memory>
#include <mutex>
#include <ostream>
#include <span>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "common/rng.hpp"
#include "core/mpcbf.hpp"
#include "hash/murmur3.hpp"
#include "trace/trace.hpp"

namespace mpcbf::core {

template <unsigned W = 64>
class ShardedMpcbf {
 public:
  /// Splits `cfg.memory_bits` (and `cfg.expected_n`) evenly across
  /// `num_shards` Mpcbf instances. Shard count is clamped to >= 1.
  /// Both splits round up, so the total provisioned capacity is never
  /// below what the planner asked for — flooring the per-shard bits
  /// used to shave up to `num_shards - 1` bits off the FPR budget.
  ShardedMpcbf(const MpcbfConfig& cfg, unsigned num_shards)
      : shard_seed_(util::SplitMix64::mix(cfg.seed ^ 0x5ad5ad5ad5ad5adULL)) {
    if (num_shards == 0) num_shards = 1;
    MpcbfConfig shard_cfg = cfg;
    // Ceil-divide across shards, then ceil to a whole word: Mpcbf
    // floors its word count (l = memory_bits / W), so a fractional
    // word per shard would otherwise be dropped num_shards times over.
    const std::size_t per_shard =
        (cfg.memory_bits + num_shards - 1) / num_shards;
    shard_cfg.memory_bits = (per_shard + W - 1) / W * W;
    if (cfg.expected_n != 0) {
      shard_cfg.expected_n =
          (cfg.expected_n + num_shards - 1) / num_shards;
    }
    shards_.reserve(num_shards);
    for (unsigned s = 0; s < num_shards; ++s) {
      shards_.push_back(std::make_unique<Shard>(shard_cfg));
    }
  }

  bool insert(std::string_view key) {
    MPCBF_TRACE_SPAN(span, kShard, "shard.insert");
    Shard& s = shard_of(key);
    if (span.live()) span.set_arg("shard", shard_index(key));
    std::lock_guard<std::mutex> lock(s.mutex);
    return s.filter.insert(key);
  }

  [[nodiscard]] bool contains(std::string_view key) const {
    MPCBF_TRACE_SPAN(span, kShard, "shard.query");
    const Shard& s = shard_of(key);
    if (span.live()) span.set_arg("shard", shard_index(key));
    std::lock_guard<std::mutex> lock(s.mutex);
    return s.filter.contains(key);
  }

  bool erase(std::string_view key) {
    MPCBF_TRACE_SPAN(span, kShard, "shard.erase");
    Shard& s = shard_of(key);
    if (span.live()) span.set_arg("shard", shard_index(key));
    std::lock_guard<std::mutex> lock(s.mutex);
    return s.filter.erase(key);
  }

  [[nodiscard]] std::uint32_t count(std::string_view key) const {
    const Shard& s = shard_of(key);
    std::lock_guard<std::mutex> lock(s.mutex);
    return s.filter.count(key);
  }

  // --- batch operations --------------------------------------------------

  /// Batched membership: keys are first grouped by shard, then each shard
  /// is locked once and queried through the Mpcbf engine pipeline
  /// (derive → gather → resolve), and the verdicts scattered back to
  /// the caller's order. One lock acquisition per touched shard instead
  /// of one per key, and the per-shard pipeline keeps its overlapped
  /// word loads. `out[i]` receives the verdict for `keys[i]`.
  void contains_batch(std::span<const std::string> keys,
                      std::span<std::uint8_t> out) const {
    contains_batch_impl<std::string>(keys, out);
  }
  void contains_batch(std::span<const std::string_view> keys,
                      std::span<std::uint8_t> out) const {
    contains_batch_impl<std::string_view>(keys, out);
  }

  /// Batched inserts with the same group-by-shard pass; `ok[i]` receives
  /// insert(keys[i])'s return value. Within a shard, keys are applied in
  /// caller order, so overflow outcomes match a scalar loop exactly.
  void insert_batch(std::span<const std::string> keys,
                    std::span<std::uint8_t> ok) {
    insert_batch_impl<std::string>(keys, ok);
  }
  void insert_batch(std::span<const std::string_view> keys,
                    std::span<std::uint8_t> ok) {
    insert_batch_impl<std::string_view>(keys, ok);
  }

  void clear() {
    for (auto& s : shards_) {
      std::lock_guard<std::mutex> lock(s->mutex);
      s->filter.clear();
    }
  }

  [[nodiscard]] std::size_t size() const {
    std::size_t total = 0;
    for (const auto& s : shards_) {
      std::lock_guard<std::mutex> lock(s->mutex);
      total += s->filter.size();
    }
    return total;
  }

  [[nodiscard]] std::uint64_t overflow_events() const {
    std::uint64_t total = 0;
    for (const auto& s : shards_) {
      std::lock_guard<std::mutex> lock(s->mutex);
      total += s->filter.overflow_events();
    }
    return total;
  }

  [[nodiscard]] std::uint64_t underflow_events() const {
    std::uint64_t total = 0;
    for (const auto& s : shards_) {
      std::lock_guard<std::mutex> lock(s->mutex);
      total += s->filter.underflow_events();
    }
    return total;
  }

  [[nodiscard]] std::size_t stash_size() const {
    std::size_t total = 0;
    for (const auto& s : shards_) {
      std::lock_guard<std::mutex> lock(s->mutex);
      total += s->filter.stash_size();
    }
    return total;
  }

  /// Aggregated access/latency stats across all shards (snapshot by
  /// value: per-shard AccessStats live under the shard locks).
  [[nodiscard]] metrics::AccessStats stats_snapshot() const {
    metrics::AccessStats out;
    for (const auto& s : shards_) {
      std::lock_guard<std::mutex> lock(s->mutex);
      out.merge(s->filter.stats());
    }
    return out;
  }

  void reset_stats() {
    for (auto& s : shards_) {
      std::lock_guard<std::mutex> lock(s->mutex);
      s->filter.reset_stats();
    }
  }

  [[nodiscard]] std::size_t memory_bits() const {
    std::size_t total = 0;
    for (const auto& s : shards_) {
      total += s->filter.memory_bits();
    }
    return total;
  }

  [[nodiscard]] unsigned num_shards() const noexcept {
    return static_cast<unsigned>(shards_.size());
  }

  /// Quiescent structural check (callers must ensure no concurrent
  /// mutation, as for any whole-structure validation).
  [[nodiscard]] bool validate() const {
    for (const auto& s : shards_) {
      std::lock_guard<std::mutex> lock(s->mutex);
      if (!s->filter.validate()) return false;
    }
    return true;
  }

  // --- serialization ----------------------------------------------------

  static constexpr char kMagic[9] = "MPCBSHD2";

  /// Serializes every shard into one v2 frame (quiescent state only —
  /// shard locks are taken one at a time, so concurrent mutations would
  /// tear across shards).
  void save(std::ostream& os) const {
    std::ostringstream payload;
    io::write_magic(payload, kMagic);
    io::write_pod<std::uint32_t>(payload, W);
    io::write_pod<std::uint32_t>(payload,
                                 static_cast<std::uint32_t>(shards_.size()));
    io::write_pod<std::uint64_t>(payload, shard_seed_);
    for (const auto& s : shards_) {
      std::lock_guard<std::mutex> lock(s->mutex);
      s->filter.save_payload(payload);
    }
    io::write_frame(os, payload.str());
  }

  /// Restores a filter written by save(). Throws std::runtime_error on
  /// corruption (frame CRC, shard layout disagreement, seed mismatch).
  static ShardedMpcbf load(std::istream& is) {
    std::istringstream payload(io::read_frame(is));
    io::expect_magic(payload, kMagic);
    const auto width = io::read_pod<std::uint32_t>(payload);
    if (width != W) {
      throw std::runtime_error("ShardedMpcbf::load: word width mismatch");
    }
    const auto num_shards = io::read_pod<std::uint32_t>(payload);
    if (num_shards == 0 || num_shards > kMaxShards) {
      throw std::runtime_error("ShardedMpcbf::load: shard count out of range");
    }
    const auto shard_seed = io::read_pod<std::uint64_t>(payload);
    std::vector<std::unique_ptr<Shard>> shards;
    shards.reserve(num_shards);
    for (std::uint32_t i = 0; i < num_shards; ++i) {
      shards.push_back(
          std::make_unique<Shard>(Mpcbf<W>::load_payload(payload)));
      if (!shards[0]->filter.compatible(shards[i]->filter)) {
        throw std::runtime_error(
            "ShardedMpcbf::load: shards disagree on layout");
      }
    }
    // The shard hash seed is derived from the per-shard seed; a stored
    // value that disagrees would route keys to the wrong shards.
    const std::uint64_t expected_seed = util::SplitMix64::mix(
        shards[0]->filter.seed() ^ 0x5ad5ad5ad5ad5adULL);
    if (shard_seed != expected_seed) {
      throw std::runtime_error("ShardedMpcbf::load: shard seed mismatch");
    }
    return ShardedMpcbf(std::move(shards), shard_seed);
  }

 private:
  static constexpr std::uint32_t kMaxShards = 1u << 16;

  struct Shard {
    explicit Shard(const MpcbfConfig& cfg) : filter(cfg) {}
    explicit Shard(Mpcbf<W>&& f) : filter(std::move(f)) {}
    Mpcbf<W> filter;
    mutable std::mutex mutex;
  };

  ShardedMpcbf(std::vector<std::unique_ptr<Shard>> shards,
               std::uint64_t shard_seed)
      : shards_(std::move(shards)), shard_seed_(shard_seed) {}

  [[nodiscard]] std::size_t shard_index(std::string_view key) const {
    const std::uint64_t h = hash::murmur3_128(key, shard_seed_).lo;
    return static_cast<std::size_t>(h % shards_.size());
  }

  [[nodiscard]] Shard& shard_of(std::string_view key) const {
    return *shards_[shard_index(key)];
  }

  /// Group-by-shard pass shared by the batch operations: buckets each
  /// key's view and original index per shard. Views into the caller's
  /// keys, so no key bytes are copied.
  template <class Key>
  void group_by_shard(std::span<const Key> keys,
                      std::vector<std::vector<std::string_view>>& shard_keys,
                      std::vector<std::vector<std::size_t>>& shard_idx) const {
    shard_keys.assign(shards_.size(), {});
    shard_idx.assign(shards_.size(), {});
    for (std::size_t i = 0; i < keys.size(); ++i) {
      const std::size_t s = shard_index(keys[i]);
      shard_keys[s].emplace_back(keys[i]);
      shard_idx[s].push_back(i);
    }
  }

  template <class Key>
  void contains_batch_impl(std::span<const Key> keys,
                           std::span<std::uint8_t> out) const {
    if (keys.size() != out.size()) {
      throw std::invalid_argument("contains_batch: size mismatch");
    }
    MPCBF_TRACE_SPAN(span, kShard, "shard.query_batch");
    span.set_arg("keys", keys.size());
    std::vector<std::vector<std::string_view>> shard_keys;
    std::vector<std::vector<std::size_t>> shard_idx;
    group_by_shard(keys, shard_keys, shard_idx);
    std::vector<std::uint8_t> verdicts;
    for (std::size_t s = 0; s < shards_.size(); ++s) {
      if (shard_keys[s].empty()) continue;
      verdicts.resize(shard_keys[s].size());
      {
        std::lock_guard<std::mutex> lock(shards_[s]->mutex);
        shards_[s]->filter.contains_batch(
            std::span<const std::string_view>(shard_keys[s]),
            std::span<std::uint8_t>(verdicts));
      }
      for (std::size_t j = 0; j < shard_idx[s].size(); ++j) {
        out[shard_idx[s][j]] = verdicts[j];
      }
    }
  }

  template <class Key>
  void insert_batch_impl(std::span<const Key> keys,
                         std::span<std::uint8_t> ok) {
    if (keys.size() != ok.size()) {
      throw std::invalid_argument("insert_batch: size mismatch");
    }
    MPCBF_TRACE_SPAN(span, kShard, "shard.insert_batch");
    span.set_arg("keys", keys.size());
    std::vector<std::vector<std::string_view>> shard_keys;
    std::vector<std::vector<std::size_t>> shard_idx;
    group_by_shard(keys, shard_keys, shard_idx);
    std::vector<std::uint8_t> results;
    for (std::size_t s = 0; s < shards_.size(); ++s) {
      if (shard_keys[s].empty()) continue;
      results.resize(shard_keys[s].size());
      {
        std::lock_guard<std::mutex> lock(shards_[s]->mutex);
        shards_[s]->filter.insert_batch(
            std::span<const std::string_view>(shard_keys[s]),
            std::span<std::uint8_t>(results));
      }
      for (std::size_t j = 0; j < shard_idx[s].size(); ++j) {
        ok[shard_idx[s][j]] = results[j];
      }
    }
  }

  std::vector<std::unique_ptr<Shard>> shards_;
  std::uint64_t shard_seed_;
};

}  // namespace mpcbf::core
