// ElasticMpcbf — online-growable MPCBF built from a chain of fixed-size
// Mpcbf segments (the Dynamic Partition Bloom Filter recipe on top of
// the paper's partitioned word layout).
//
// Every fixed-shape MPCBF must pick its word count up front, so a
// deployment facing unknown cardinality either over-provisions or
// saturates. ElasticMpcbf removes that choice: it starts with one
// segment and appends further identically-shaped segments as load
// grows, never rebuilding or rehashing what is already stored.
//
// Routing (the segment-selector invariant). The key space is split into
// 2^route_bits virtual buckets by a dedicated selector hash that is
// independent of the per-segment word hashes. Each bucket owns an
// append-only *chain* of segment ids; the chain's back is the bucket's
// current owner and receives all new inserts for that bucket. A query
// probes only the bucket's chain (not every segment), oldest first.
// Because chains only ever append — growth moves a bucket's *future*
// inserts to the new segment, it never moves stored keys — a key keeps
// its segment for life:
//
//   bucket 5: [seg0]            insert a, b        a,b -> seg0
//   grow:     [seg0, seg2]      insert c           c   -> seg2
//   query a:  probe seg0, seg2  (a still found in seg0)
//
// Growth policy. After an insert, the owner segment is scored with the
// HealthProber saturation machinery (metrics/health.hpp; empirical FPR
// probes disabled so the score is a pure function of filter state).
// When the score crosses `grow_score` (the prober's Warn default), a
// new segment is appended and the *upper half* of the hot segment's
// owned buckets move to it (split-ordered: the low half stays, so
// repeated splits halve a segment's routing share without ever
// touching stored keys). The check runs every `probe_stride` insert
// attempts and additionally whenever the insert overflowed — both
// deterministic functions of the operation stream, which is what lets
// a WAL replay reproduce the exact topology (see DurableElasticMpcbf).
//
// Draining. A segment that no longer owns any bucket is cold: it
// receives no inserts and only loses elements. compact_once() merges
// the oldest such segment into the smallest live segment (counter-wise
// Mpcbf::merge — all segments share one layout and seed precisely so
// this is possible), rewrites every chain to point at the absorbing
// segment, and frees the husk. Queries stay correct throughout: any
// chain that could reach the retired segment now reaches the absorber,
// which holds a superset of its counters.
//
// Thread-safety matches Mpcbf: const queries are safe concurrently,
// mutations (insert/erase/grow/compact) need external synchronization.
// ElasticMaintainer at the bottom runs compaction + gauge publishing in
// the background on a util::ThreadPool under a caller-supplied lock.
#pragma once

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <functional>
#include <istream>
#include <limits>
#include <memory>
#include <mutex>
#include <optional>
#include <ostream>
#include <span>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/log.hpp"
#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "core/durable_mpcbf.hpp"
#include "core/mpcbf.hpp"
#include "hash/murmur3.hpp"
#include "io/binary.hpp"
#include "io/crc32c.hpp"
#include "io/journal.hpp"
#include "metrics/health.hpp"
#include "metrics/registry.hpp"
#include "model/fpr_model.hpp"
#include "trace/trace.hpp"

namespace mpcbf::core {

struct ElasticConfig {
  /// Shape of every segment. All segments share this config (including
  /// the hash seed) so cold segments stay counter-wise mergeable.
  MpcbfConfig segment;
  /// log2 of the virtual routing buckets. More buckets = finer-grained
  /// splits; 2^route_bits should comfortably exceed max_segments.
  unsigned route_bits = 6;
  /// Saturation score (0-100) at which the owner segment splits; the
  /// HealthProber Warn default.
  double grow_score = 70.0;
  /// Insert attempts between health checks of the owner segment (the
  /// check also runs on any overflow event). Must be >= 1.
  std::size_t probe_stride = 256;
  /// Hard cap on chain length; at the cap the filter stops growing and
  /// relies on the segment overflow policy (size with headroom or use
  /// OverflowPolicy::kStash).
  std::size_t max_segments = 64;
};

/// One chain-maintenance event, reported by grow/compact so durable
/// wrappers can journal it.
struct ElasticTopologyOp {
  std::uint32_t segment = 0;  ///< grown-from / retired segment id
  std::uint32_t into = 0;     ///< absorbing segment id (retire only)
};

template <unsigned W = 64>
class ElasticMpcbf {
 public:
  static constexpr char kMagic[9] = "MPCBELA1";
  static constexpr std::uint32_t kNoSegment = 0xFFFFFFFFu;
  static constexpr unsigned kMaxRouteBits = 20;
  static constexpr std::uint64_t kMaxSegments = 1u << 16;

  explicit ElasticMpcbf(const ElasticConfig& cfg)
      : cfg_(cfg),
        selector_seed_(util::SplitMix64::mix(cfg.segment.seed ^
                                             0xE1A571C5EEDB10C5ull)) {
    if (cfg_.route_bits == 0 || cfg_.route_bits > kMaxRouteBits) {
      throw std::invalid_argument("ElasticMpcbf: route_bits out of range");
    }
    if (cfg_.probe_stride == 0) cfg_.probe_stride = 1;
    if (cfg_.max_segments == 0 || cfg_.max_segments > kMaxSegments) {
      throw std::invalid_argument(
          "ElasticMpcbf: max_segments out of range");
    }
    segments_.push_back(std::make_unique<Mpcbf<W>>(cfg_.segment));
    attempts_.push_back(0);
    recheck_floor_.push_back(0);
    chains_.assign(num_buckets(), {0});
  }

  // --- filter operations -------------------------------------------------

  /// Inserts `key` into its bucket's owner segment. Growth, when due,
  /// happens *after* the insert completes (so a journaled operation
  /// stream replays to the identical topology): with auto_grow (the
  /// default) the split is applied inline; otherwise it is left pending
  /// for the owner (DurableElasticMpcbf) to journal and apply.
  bool insert(std::string_view key) {
    MPCBF_TRACE_SPAN(span, kCore, "elastic.insert");
    const std::size_t b = bucket_of(key);
    const std::uint32_t s = chains_[b].back();
    Mpcbf<W>& seg = *segments_[s];
    const std::uint64_t overflow_before = seg.overflow_events();
    const bool ok = seg.insert(key);
    ++attempts_[s];
    if (span.live()) span.set_arg("segment", s);
    // Overflow events make a growth check due between stride points;
    // the resample floor inside check_growth keeps either trigger from
    // re-sampling per event.
    if (seg.overflow_events() != overflow_before ||
        attempts_[s] % cfg_.probe_stride == 0) {
      check_growth(s);
    }
    if (auto_grow_ && pending_growth_) {
      (void)grow_from(pending_growth_->segment);
    }
    return ok;
  }

  [[nodiscard]] bool contains(std::string_view key) const {
    MPCBF_TRACE_SPAN(span, kCore, "elastic.query");
    const auto& chain = chains_[bucket_of(key)];
    if (span.live()) span.set_arg("chain", chain.size());
    for (const std::uint32_t s : chain) {
      if (segments_[s]->contains(key)) return true;
    }
    return false;
  }

  /// Deletes one prior insert: probes the bucket's chain oldest-first
  /// and decrements the first segment whose counters still hold the
  /// key. Returns false (counting an underflow in the owner segment)
  /// when no segment does.
  bool erase(std::string_view key) {
    MPCBF_TRACE_SPAN(span, kCore, "elastic.erase");
    const auto& chain = chains_[bucket_of(key)];
    for (const std::uint32_t s : chain) {
      if (segments_[s]->count(key) > 0) {
        return segments_[s]->erase(key);
      }
    }
    return segments_[chain.back()]->erase(key);
  }

  /// Multiplicity estimate summed over the bucket's chain (a key
  /// inserted both before and after a split holds copies in two
  /// segments). Never an undercount, like any CBF estimate.
  [[nodiscard]] std::uint32_t count(std::string_view key) const {
    std::uint32_t total = 0;
    for (const std::uint32_t s : chains_[bucket_of(key)]) {
      total += segments_[s]->count(key);
    }
    return total;
  }

  /// The chain segment that would answer a query for `key` (oldest
  /// chain member whose counters hold it) — the quantity the
  /// selector-stability tests pin across grow/snapshot/recover.
  [[nodiscard]] std::optional<std::uint32_t> locate(
      std::string_view key) const {
    for (const std::uint32_t s : chains_[bucket_of(key)]) {
      if (segments_[s]->count(key) > 0) return s;
    }
    return std::nullopt;
  }

  void contains_batch(std::span<const std::string> keys,
                      std::span<std::uint8_t> out) const {
    contains_batch_impl<std::string>(keys, out);
  }
  void contains_batch(std::span<const std::string_view> keys,
                      std::span<std::uint8_t> out) const {
    contains_batch_impl<std::string_view>(keys, out);
  }
  /// Batched inserts; a split due mid-batch lands between the two keys
  /// exactly as a scalar loop would place it.
  void insert_batch(std::span<const std::string> keys,
                    std::span<std::uint8_t> ok) {
    insert_batch_impl<std::string>(keys, ok);
  }
  void insert_batch(std::span<const std::string_view> keys,
                    std::span<std::uint8_t> ok) {
    insert_batch_impl<std::string_view>(keys, ok);
  }

  void clear() {
    segments_.clear();
    attempts_.clear();
    recheck_floor_.clear();
    segments_.push_back(std::make_unique<Mpcbf<W>>(cfg_.segment));
    attempts_.push_back(0);
    recheck_floor_.push_back(0);
    chains_.assign(num_buckets(), {0});
    pending_growth_.reset();
    grows_ = 0;
    retires_ = 0;
    reclaimed_bytes_ = 0;
  }

  // --- growth / drain control -------------------------------------------

  [[nodiscard]] bool auto_grow() const noexcept { return auto_grow_; }
  /// Durable wrappers disable auto-grow so every topology change is
  /// journaled before it is applied.
  void set_auto_grow(bool v) noexcept { auto_grow_ = v; }

  /// The split the last insert made due but did not apply (auto_grow
  /// off). Cleared by grow_from().
  [[nodiscard]] std::optional<ElasticTopologyOp> pending_growth()
      const noexcept {
    return pending_growth_;
  }

  /// Appends a new segment and moves the upper half of `source`'s owned
  /// buckets to it. Returns the new segment id, or kNoSegment when
  /// growth is impossible (segment cap reached or `source` owns no
  /// buckets). Deterministic: replaying the same call sequence on equal
  /// state yields byte-identical topology.
  std::uint32_t grow_from(std::uint32_t source) {
    pending_growth_.reset();
    if (source >= segments_.size() || !segments_[source]) {
      return kNoSegment;
    }
    if (live_segments() >= cfg_.max_segments) return kNoSegment;
    std::vector<std::uint32_t> owned;
    for (std::uint32_t b = 0; b < num_buckets(); ++b) {
      if (chains_[b].back() == source) owned.push_back(b);
    }
    if (owned.empty()) return kNoSegment;
    const auto t = static_cast<std::uint32_t>(segments_.size());
    segments_.push_back(std::make_unique<Mpcbf<W>>(cfg_.segment));
    attempts_.push_back(0);
    recheck_floor_.push_back(0);
    for (std::size_t i = owned.size() / 2; i < owned.size(); ++i) {
      chains_[owned[i]].push_back(t);
    }
    ++grows_;
    MPCBF_LOG_INFO("elastic.grow", log::u64("source", source),
                   log::u64("new_segment", t),
                   log::u64("buckets_moved", owned.size() - owned.size() / 2),
                   log::u64("segments", segments_.size()));
    MPCBF_TRACE_INSTANT(kCore, "elastic.grow", "segments",
                        segments_.size());
    return t;
  }

  /// The drain step compact_once() would take, if any: the oldest
  /// ownerless segment plus the smallest live segment that can absorb
  /// it. Pure function of state (durable wrappers journal it first).
  [[nodiscard]] std::optional<ElasticTopologyOp> compaction_candidate()
      const {
    for (std::uint32_t r = 0;
         r < static_cast<std::uint32_t>(segments_.size()); ++r) {
      if (!segments_[r] || owns_buckets(r)) continue;
      // Smallest live segment (by element count, ties to the lowest id)
      // other than r: merging into the emptiest target keeps the
      // absorbed counters farthest from the word overflow cap.
      std::uint32_t into = kNoSegment;
      for (std::uint32_t t = 0;
           t < static_cast<std::uint32_t>(segments_.size()); ++t) {
        if (t == r || !segments_[t]) continue;
        if (into == kNoSegment ||
            segments_[t]->size() < segments_[into]->size()) {
          into = t;
        }
      }
      if (into == kNoSegment) continue;
      return ElasticTopologyOp{r, into};
    }
    return std::nullopt;
  }

  /// Merges segment `retired` into `into` (counter-wise, all-or-nothing
  /// via Mpcbf::merge), rewrites every chain to reference the absorber,
  /// and frees the husk. Returns false — with no state change — when
  /// the merge would overflow a word or the arguments are not a valid
  /// drain step.
  bool retire_into(std::uint32_t retired, std::uint32_t into) {
    if (retired >= segments_.size() || into >= segments_.size() ||
        retired == into || !segments_[retired] || !segments_[into] ||
        owns_buckets(retired)) {
      return false;
    }
    if (!segments_[into]->merge(*segments_[retired])) return false;
    for (auto& chain : chains_) {
      bool has_into = false;
      for (const auto s : chain) has_into |= (s == into);
      for (auto& s : chain) {
        if (s == retired) s = into;
      }
      if (has_into) {
        // The rewrite may have introduced a duplicate; keep the first
        // occurrence so probe order stays oldest-first.
        bool seen = false;
        std::erase_if(chain, [&](std::uint32_t s) {
          if (s != into) return false;
          if (seen) return true;
          seen = true;
          return false;
        });
      }
    }
    // Return the husk's memory to the OS now: free() alone parks the
    // words in the allocator arena and the chain keeps its peak RSS.
    reclaimed_bytes_ += segments_[retired]->release_storage();
    segments_[retired].reset();
    attempts_[retired] = 0;
    recheck_floor_[retired] = 0;
    ++retires_;
    MPCBF_LOG_INFO("elastic.retire", log::u64("retired", retired),
                   log::u64("into", into),
                   log::u64("reclaimed_bytes", reclaimed_bytes_),
                   log::u64("live_segments", live_segments()));
    MPCBF_TRACE_INSTANT(kCore, "elastic.retire", "segments",
                        live_segments());
    return true;
  }

  /// One background drain pass: apply the compaction candidate, if any.
  std::optional<ElasticTopologyOp> compact_once() {
    const auto step = compaction_candidate();
    if (!step) return std::nullopt;
    if (!retire_into(step->segment, step->into)) return std::nullopt;
    return step;
  }

  // --- aggregate introspection (HealthProber / make_backend surface) ----

  [[nodiscard]] std::size_t size() const noexcept {
    std::size_t total = 0;
    for (const auto& s : segments_) {
      if (s) total += s->size();
    }
    return total;
  }
  [[nodiscard]] std::size_t memory_bits() const noexcept {
    std::size_t total = 0;
    for (const auto& s : segments_) {
      if (s) total += s->memory_bits();
    }
    return total;
  }
  [[nodiscard]] std::size_t num_words() const noexcept {
    std::size_t total = 0;
    for (const auto& s : segments_) {
      if (s) total += s->num_words();
    }
    return total;
  }
  [[nodiscard]] unsigned k() const noexcept { return shape().k(); }
  [[nodiscard]] unsigned g() const noexcept { return shape().g(); }
  [[nodiscard]] unsigned b1() const noexcept { return shape().b1(); }
  [[nodiscard]] unsigned n_max() const noexcept { return shape().n_max(); }
  /// The layout every segment shares.
  [[nodiscard]] MpcbfLayout segment_layout() const {
    return shape().layout();
  }
  [[nodiscard]] std::uint64_t seed() const noexcept {
    return cfg_.segment.seed;
  }
  [[nodiscard]] std::uint64_t overflow_events() const noexcept {
    std::uint64_t total = 0;
    for (const auto& s : segments_) {
      if (s) total += s->overflow_events();
    }
    return total;
  }
  [[nodiscard]] std::uint64_t underflow_events() const noexcept {
    std::uint64_t total = 0;
    for (const auto& s : segments_) {
      if (s) total += s->underflow_events();
    }
    return total;
  }
  [[nodiscard]] std::size_t stash_size() const noexcept {
    std::size_t total = 0;
    for (const auto& s : segments_) {
      if (s) total += s->stash_size();
    }
    return total;
  }

  /// Merged occupancy report across live segments (histograms sum
  /// position-wise; all segments share one word geometry).
  [[nodiscard]] typename Mpcbf<W>::FillReport fill_report() const {
    typename Mpcbf<W>::FillReport merged;
    merged.hierarchy_histogram.assign(W - b1() + 1, 0);
    for (const auto& s : segments_) {
      if (!s) continue;
      const auto r = s->fill_report();
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

  /// Closed-form FPR bound for the chain: a bucket's query false-
  /// positives in *any* chain segment, so per bucket the bound is
  /// 1 - prod(1 - f_seg) over its chain (the Dynamic/Scalable BF union
  /// bound), averaged uniformly over buckets (the selector hash spreads
  /// keys uniformly).
  [[nodiscard]] double model_fpr() const {
    std::vector<double> seg_fpr(segments_.size(), 0.0);
    for (std::size_t s = 0; s < segments_.size(); ++s) {
      if (!segments_[s]) continue;
      const Mpcbf<W>& f = *segments_[s];
      seg_fpr[s] = model::fpr_mpcbf_g(f.size(), f.num_words(), f.b1(),
                                      f.k(), f.g());
    }
    double sum = 0.0;
    for (const auto& chain : chains_) {
      double none = 1.0;
      for (const std::uint32_t s : chain) none *= 1.0 - seg_fpr[s];
      sum += 1.0 - none;
    }
    return sum / static_cast<double>(num_buckets());
  }

  [[nodiscard]] const ElasticConfig& config() const noexcept { return cfg_; }
  [[nodiscard]] std::uint64_t selector_seed() const noexcept {
    return selector_seed_;
  }
  [[nodiscard]] std::uint32_t num_buckets() const noexcept {
    return 1u << cfg_.route_bits;
  }
  /// Segment slots ever created (retired slots stay numbered so chain
  /// ids are stable for the filter's lifetime).
  [[nodiscard]] std::size_t num_segments() const noexcept {
    return segments_.size();
  }
  [[nodiscard]] std::size_t live_segments() const noexcept {
    std::size_t n = 0;
    for (const auto& s : segments_) n += s != nullptr;
    return n;
  }
  [[nodiscard]] const Mpcbf<W>* segment(std::size_t i) const {
    return i < segments_.size() ? segments_[i].get() : nullptr;
  }
  [[nodiscard]] const std::vector<std::uint32_t>& chain(
      std::uint32_t bucket) const {
    return chains_.at(bucket);
  }
  [[nodiscard]] std::uint32_t owner(std::uint32_t bucket) const {
    return chains_.at(bucket).back();
  }
  [[nodiscard]] std::uint32_t bucket_of(std::string_view key) const {
    return static_cast<std::uint32_t>(
        hash::murmur3_128(key, selector_seed_).hi >>
        (64 - cfg_.route_bits));
  }
  [[nodiscard]] std::uint64_t grows() const noexcept { return grows_; }
  [[nodiscard]] std::uint64_t retires() const noexcept { return retires_; }
  /// Heap bytes of drained segments returned to the OS (process
  /// lifetime; not persisted, like the access-stats counters).
  [[nodiscard]] std::uint64_t reclaimed_bytes() const noexcept {
    return reclaimed_bytes_;
  }

  /// Saturation score of one segment under the growth prober (0-100);
  /// retired slots read 0.
  [[nodiscard]] double segment_score(std::size_t i) const {
    if (i >= segments_.size() || !segments_[i]) return 0.0;
    return growth_prober().sample(*segments_[i]).saturation_score;
  }

  /// Chain-level aggregate score: the worst live segment (the next
  /// split happens where the worst segment is, so this is the number an
  /// operator alarms on).
  [[nodiscard]] double aggregate_score() const {
    double worst = 0.0;
    for (std::size_t i = 0; i < segments_.size(); ++i) {
      if (segments_[i]) worst = std::max(worst, segment_score(i));
    }
    return worst;
  }

  /// Publishes per-segment and chain-level gauges (mpcbf_elastic_*)
  /// into `reg`. Retired slots publish nothing.
  void publish_metrics(metrics::Registry& reg,
                       const std::string& label = "elastic") const {
    reg.gauge("mpcbf_elastic_segments", "Live segments in the chain",
              {{"filter", label}})
        .set(static_cast<double>(live_segments()));
    reg.gauge("mpcbf_elastic_grows_total", "Segment splits so far",
              {{"filter", label}})
        .set(static_cast<double>(grows_));
    reg.gauge("mpcbf_elastic_retires_total",
              "Cold segments drained and merged away", {{"filter", label}})
        .set(static_cast<double>(retires_));
    auto& reclaimed = reg.counter(
        "mpcbf_elastic_reclaimed_bytes_total",
        "Drained-segment heap bytes returned to the OS",
        {{"filter", label}});
    if (reclaimed_bytes_ > reclaimed.value()) {
      reclaimed.inc(reclaimed_bytes_ - reclaimed.value());
    }
    reg.gauge("mpcbf_elastic_model_fpr",
              "Chain-level closed-form FPR bound", {{"filter", label}})
        .set(model_fpr());
    reg.gauge("mpcbf_elastic_aggregate_score",
              "Worst live segment's saturation score (0-100)",
              {{"filter", label}})
        .set(aggregate_score());
    for (std::size_t i = 0; i < segments_.size(); ++i) {
      if (!segments_[i]) continue;
      const std::string seg = std::to_string(i);
      reg.gauge("mpcbf_elastic_segment_elements",
                "Elements held by one chain segment",
                {{"filter", label}, {"segment", seg}})
          .set(static_cast<double>(segments_[i]->size()));
      reg.gauge("mpcbf_elastic_segment_score",
                "Per-segment saturation score (0-100)",
                {{"filter", label}, {"segment", seg}})
          .set(segment_score(i));
    }
  }

  /// Structural self-check: every live segment validates, every chain
  /// is non-empty, references only live segments, and holds no
  /// duplicates.
  [[nodiscard]] bool validate() const {
    if (segments_.empty() || chains_.size() != num_buckets()) return false;
    for (const auto& s : segments_) {
      if (s && !s->validate()) return false;
    }
    for (const auto& chain : chains_) {
      if (chain.empty()) return false;
      for (std::size_t i = 0; i < chain.size(); ++i) {
        if (chain[i] >= segments_.size() || !segments_[chain[i]]) {
          return false;
        }
        for (std::size_t j = i + 1; j < chain.size(); ++j) {
          if (chain[i] == chain[j]) return false;
        }
      }
    }
    return true;
  }

  // --- serialization ----------------------------------------------------

  /// The topology record: selector seed, routing shape, counters and
  /// every bucket chain — the exact bytes embedded in save_payload().
  /// Byte-identical across snapshot/recover/bootstrap by construction;
  /// tests pin it the way test_golden pins word state.
  [[nodiscard]] std::string topology_bytes() const {
    std::ostringstream os(std::ios::binary);
    io::write_pod<std::uint32_t>(os, cfg_.route_bits);
    io::write_pod<std::uint64_t>(os, selector_seed_);
    io::write_pod<std::uint64_t>(os, grows_);
    io::write_pod<std::uint64_t>(os, retires_);
    io::write_pod<std::uint32_t>(
        os, static_cast<std::uint32_t>(segments_.size()));
    for (const auto& s : segments_) {
      io::write_pod<std::uint8_t>(os, s ? 1 : 0);
    }
    for (const auto& chain : chains_) {
      io::write_pod<std::uint32_t>(
          os, static_cast<std::uint32_t>(chain.size()));
      for (const auto s : chain) io::write_pod<std::uint32_t>(os, s);
    }
    return std::move(os).str();
  }

  void save(std::ostream& os) const {
    std::ostringstream payload;
    save_payload(payload);
    io::write_frame(os, payload.str());
  }

  static ElasticMpcbf load(std::istream& is) {
    std::istringstream payload(io::read_frame(is));
    return load_payload(payload);
  }

  /// Bare payload (magic + body, no frame) for embedding in durable
  /// snapshot frames.
  void save_payload(std::ostream& os) const {
    io::write_magic(os, kMagic);
    io::write_pod<std::uint32_t>(os, W);
    io::write_pod<std::uint64_t>(
        os, std::bit_cast<std::uint64_t>(cfg_.grow_score));
    io::write_pod<std::uint64_t>(os, cfg_.probe_stride);
    io::write_pod<std::uint64_t>(os, cfg_.max_segments);
    os << topology_bytes();
    for (std::size_t i = 0; i < segments_.size(); ++i) {
      if (!segments_[i]) continue;
      io::write_pod<std::uint64_t>(os, attempts_[i]);
      // The resample floor is growth-decision state: a restored filter
      // that forgot it would probe (and possibly split) at stride
      // points the original skipped, breaking replay determinism.
      io::write_pod<std::uint64_t>(os, recheck_floor_[i]);
      segments_[i]->save_payload(os);
    }
  }

  static ElasticMpcbf load_payload(std::istream& is) {
    io::expect_magic(is, kMagic);
    const auto width = io::read_pod<std::uint32_t>(is);
    if (width != W) {
      throw std::runtime_error("ElasticMpcbf::load: word width mismatch");
    }
    ElasticConfig cfg;
    cfg.grow_score =
        std::bit_cast<double>(io::read_pod<std::uint64_t>(is));
    cfg.probe_stride = io::read_pod<std::uint64_t>(is);
    cfg.max_segments = io::read_pod<std::uint64_t>(is);
    if (cfg.probe_stride == 0 || cfg.max_segments == 0 ||
        cfg.max_segments > kMaxSegments) {
      throw std::runtime_error("ElasticMpcbf::load: bad growth policy");
    }
    cfg.route_bits = io::read_pod<std::uint32_t>(is);
    if (cfg.route_bits == 0 || cfg.route_bits > kMaxRouteBits) {
      throw std::runtime_error("ElasticMpcbf::load: route_bits out of range");
    }
    const auto selector_seed = io::read_pod<std::uint64_t>(is);
    const auto grows = io::read_pod<std::uint64_t>(is);
    const auto retires = io::read_pod<std::uint64_t>(is);
    const auto num_segments = io::read_pod<std::uint32_t>(is);
    if (num_segments == 0 || num_segments > kMaxSegments) {
      throw std::runtime_error(
          "ElasticMpcbf::load: segment count out of range");
    }
    std::vector<std::uint8_t> present(num_segments);
    for (auto& p : present) p = io::read_pod<std::uint8_t>(is);
    const std::uint32_t buckets = 1u << cfg.route_bits;
    std::vector<std::vector<std::uint32_t>> chains(buckets);
    for (auto& chain : chains) {
      const auto len = io::read_pod<std::uint32_t>(is);
      if (len == 0 || len > num_segments) {
        throw std::runtime_error("ElasticMpcbf::load: bad chain length");
      }
      chain.resize(len);
      for (auto& s : chain) {
        s = io::read_pod<std::uint32_t>(is);
        if (s >= num_segments || present[s] == 0) {
          throw std::runtime_error(
              "ElasticMpcbf::load: chain references a missing segment");
        }
      }
    }
    std::vector<std::unique_ptr<Mpcbf<W>>> segments(num_segments);
    std::vector<std::uint64_t> attempts(num_segments, 0);
    std::vector<std::uint64_t> floors(num_segments, 0);
    const Mpcbf<W>* first = nullptr;
    for (std::uint32_t i = 0; i < num_segments; ++i) {
      if (present[i] == 0) continue;
      attempts[i] = io::read_pod<std::uint64_t>(is);
      floors[i] = io::read_pod<std::uint64_t>(is);
      segments[i] =
          std::make_unique<Mpcbf<W>>(Mpcbf<W>::load_payload(is));
      if (first == nullptr) {
        first = segments[i].get();
      } else if (!first->compatible(*segments[i])) {
        throw std::runtime_error(
            "ElasticMpcbf::load: segments disagree on layout");
      }
    }
    if (first == nullptr) {
      throw std::runtime_error("ElasticMpcbf::load: no live segments");
    }
    cfg.segment.memory_bits = first->memory_bits();
    cfg.segment.k = first->k();
    cfg.segment.g = first->g();
    cfg.segment.n_max = first->n_max();
    cfg.segment.seed = first->seed();
    cfg.segment.policy = first->policy();
    // The selector seed is derived from the segment seed; a stored
    // value that disagrees would route keys to the wrong chains.
    if (selector_seed != util::SplitMix64::mix(cfg.segment.seed ^
                                               0xE1A571C5EEDB10C5ull)) {
      throw std::runtime_error(
          "ElasticMpcbf::load: selector seed mismatch");
    }
    ElasticMpcbf f(std::move(cfg), selector_seed, std::move(segments),
                   std::move(attempts), std::move(floors),
                   std::move(chains), grows, retires);
    if (!f.validate()) {
      throw std::runtime_error("ElasticMpcbf::load: corrupt chain state");
    }
    return f;
  }

 private:
  ElasticMpcbf(ElasticConfig cfg, std::uint64_t selector_seed,
               std::vector<std::unique_ptr<Mpcbf<W>>> segments,
               std::vector<std::uint64_t> attempts,
               std::vector<std::uint64_t> recheck_floor,
               std::vector<std::vector<std::uint32_t>> chains,
               std::uint64_t grows, std::uint64_t retires)
      : cfg_(std::move(cfg)),
        selector_seed_(selector_seed),
        segments_(std::move(segments)),
        attempts_(std::move(attempts)),
        recheck_floor_(std::move(recheck_floor)),
        chains_(std::move(chains)),
        grows_(grows),
        retires_(retires) {}

  [[nodiscard]] const Mpcbf<W>& shape() const {
    for (const auto& s : segments_) {
      if (s) return *s;
    }
    throw std::logic_error("ElasticMpcbf: no live segments");
  }

  [[nodiscard]] bool owns_buckets(std::uint32_t seg) const {
    for (const auto& chain : chains_) {
      if (chain.back() == seg) return true;
    }
    return false;
  }

  /// The scorer behind growth decisions: saturation components only
  /// (fpr_probes = 0 keeps sample() a pure function of filter state, so
  /// WAL replay reaches identical split points), no registry, no
  /// alarms.
  [[nodiscard]] const metrics::HealthProber& growth_prober() const {
    if (!prober_) {
      metrics::HealthProber::Config pc;
      pc.filter_label = "elastic-segment";
      pc.warn_score = cfg_.grow_score;
      pc.fpr_probes = 0;
      pc.registry = nullptr;
      prober_ = std::make_unique<metrics::HealthProber>(std::move(pc));
    }
    return *prober_;
  }

  /// Level-1 counter positions per segment — structural (all segments
  /// share one geometry), derived lazily so it never enters the
  /// serialized state.
  [[nodiscard]] std::uint64_t level1_positions() const {
    if (level1_positions_ == 0) {
      level1_positions_ = shape().fill_report().total_positions;
    }
    return level1_positions_;
  }

  [[nodiscard]] static double hierarchy_capacity(
      const Mpcbf<W>& seg) noexcept {
    return seg.b1() < W
               ? static_cast<double>(seg.num_words()) * (W - seg.b1())
               : 0.0;
  }

  /// O(1) stand-in for the prober's saturation components, built from
  /// counters and closed forms (expected level-1 fill, the hierarchy
  /// conservation law, stash/overflow ratios). Slightly conservative —
  /// it over-estimates each component — so a segment it clears cannot
  /// be one the full probe would split.
  [[nodiscard]] double proxy_score(const Mpcbf<W>& seg) const {
    const double n = static_cast<double>(seg.size());
    const double k = static_cast<double>(seg.k());
    double worst = 0.0;
    if (const double pos = static_cast<double>(level1_positions());
        pos > 0) {
      worst = 1.0 - std::exp(-k * n / pos);
    }
    if (const double cap = hierarchy_capacity(seg); cap > 0) {
      worst = std::max(worst, k * n / cap);
    }
    const double attempts =
        n + static_cast<double>(seg.overflow_events());
    if (attempts > 0) {
      worst = std::max(
          worst, static_cast<double>(seg.overflow_events()) / attempts);
    }
    if (n > 0) {
      worst =
          std::max(worst, static_cast<double>(seg.stash_size()) / n);
    } else if (seg.stash_size() > 0) {
      worst = 1.0;
    }
    return 100.0 * worst;
  }

  /// Decides whether segment `s` is due for a split. The full prober
  /// sample walks every word (O(l), milliseconds at serving sizes), so
  /// two deterministic gates keep it off the insert hot path: the
  /// analytic resample floor on the slot's attempt counter, set by the
  /// previous below-threshold probe, then the O(1) proxy score. Both
  /// are pure functions of the operation stream, so WAL replay reaches
  /// identical split points.
  void check_growth(std::uint32_t s) {
    if (pending_growth_) return;
    if (live_segments() >= cfg_.max_segments) return;
    const Mpcbf<W>& seg = *segments_[s];
    if (attempts_[s] < recheck_floor_[s]) return;
    if (proxy_score(seg) < 0.75 * cfg_.grow_score) return;
    const metrics::HealthSample smp = growth_prober().sample(seg);
    if (smp.saturation_score >= cfg_.grow_score) {
      pending_growth_ = ElasticTopologyOp{s, 0};
      return;
    }
    // Below threshold: bound the fewest future attempts at which *any*
    // saturation component could reach the gate — fill and utilization
    // from their closed forms, overflow and stash linearized assuming
    // every future attempt lands badly — and skip probes until then.
    // 60% of the analytic distance absorbs fluctuation around the
    // expected trajectory; the probe_stride floor keeps the worst-case
    // sample cadence bounded even when the gate is near.
    const double target = cfg_.grow_score / 100.0;
    const double k = static_cast<double>(seg.k());
    double dn = std::numeric_limits<double>::infinity();
    if (smp.level1_fill < target && target < 1.0) {
      dn = static_cast<double>(level1_positions()) *
           std::log((1.0 - smp.level1_fill) / (1.0 - target)) / k;
    }
    if (const double cap = hierarchy_capacity(seg);
        cap > 0 && smp.hierarchy_utilization < target) {
      dn = std::min(dn, cap * (target - smp.hierarchy_utilization) / k);
    }
    const double n = static_cast<double>(seg.size());
    const double ovf = static_cast<double>(seg.overflow_events());
    if (smp.overflow_rate < target) {
      dn = std::min(dn, (target - smp.overflow_rate) * (n + ovf));
    }
    if (smp.stash_pressure < target) {
      dn = std::min(dn, (target - smp.stash_pressure) * std::max(n, 1.0));
    }
    if (std::isfinite(dn)) {
      const auto step = std::max<std::uint64_t>(
          cfg_.probe_stride, static_cast<std::uint64_t>(0.6 * dn));
      recheck_floor_[s] = attempts_[s] + step;
    }
  }

  template <class Key>
  void contains_batch_impl(std::span<const Key> keys,
                           std::span<std::uint8_t> out) const {
    if (keys.size() != out.size()) {
      throw std::invalid_argument("contains_batch: size mismatch");
    }
    MPCBF_TRACE_SPAN(span, kCore, "elastic.query_batch");
    span.set_arg("keys", keys.size());
    for (std::size_t i = 0; i < keys.size(); ++i) {
      out[i] = contains(keys[i]) ? 1 : 0;
    }
  }

  template <class Key>
  void insert_batch_impl(std::span<const Key> keys,
                         std::span<std::uint8_t> ok) {
    if (keys.size() != ok.size()) {
      throw std::invalid_argument("insert_batch: size mismatch");
    }
    MPCBF_TRACE_SPAN(span, kCore, "elastic.insert_batch");
    span.set_arg("keys", keys.size());
    for (std::size_t i = 0; i < keys.size(); ++i) {
      ok[i] = insert(keys[i]) ? 1 : 0;
    }
  }

  ElasticConfig cfg_;
  std::uint64_t selector_seed_;
  std::vector<std::unique_ptr<Mpcbf<W>>> segments_;  // null = retired
  std::vector<std::uint64_t> attempts_;  // insert attempts per slot
  // Per-slot minimum size before the next full growth probe; derived
  // from sampled scores, so it is serialized to keep replay aligned.
  std::vector<std::uint64_t> recheck_floor_;
  mutable std::uint64_t level1_positions_ = 0;  // lazy structural cache
  std::vector<std::vector<std::uint32_t>> chains_;  // per-bucket, oldest first
  std::uint64_t grows_ = 0;
  std::uint64_t retires_ = 0;
  std::uint64_t reclaimed_bytes_ = 0;  // process-lifetime, not persisted
  bool auto_grow_ = true;
  std::optional<ElasticTopologyOp> pending_growth_;
  mutable std::unique_ptr<metrics::HealthProber> prober_;
};

// --- DurableElasticMpcbf ------------------------------------------------
//
// Durable<F> over a chain (core/durable_mpcbf.hpp), with topology
// changes first-classed in the WAL: a split is journaled as a
// kSegmentAdd record (key = LE u32 source segment) and a drain as
// kSegmentRetire (key = LE u32 retired | LE u32 absorber), each
// appended *after* the mutation that made it due — replay applies the
// records at their sequence positions (auto-grow off) and reproduces the
// chain byte for byte, regardless of how the growth policy evolves
// between versions.

template <unsigned W>
struct DurableKind<ElasticMpcbf<W>> {
  using Config = ElasticConfig;
  static constexpr char kSnapshotMagic[9] = "MPCBELD1";

  /// Same routing, and every segment laid out as `cfg` lays one out
  /// (MpcbfLayout: k, g, b1, n_max, seed and word count).
  static bool matches(const ElasticMpcbf<W>& f, const ElasticConfig& cfg) {
    return f.config().route_bits == cfg.route_bits &&
           f.segment_layout() == Mpcbf<W>::layout_for(cfg.segment);
  }

  /// Every split is journaled before it is applied.
  static void adopt(ElasticMpcbf<W>& f) { f.set_auto_grow(false); }

  /// The split the last insert made due, as its kSegmentAdd record.
  static std::optional<io::JournalRecord> due_record(
      const ElasticMpcbf<W>& f) {
    const auto grow = f.pending_growth();
    if (!grow) return std::nullopt;
    std::string key(4, '\0');
    std::memcpy(key.data(), &grow->segment, 4);
    return io::JournalRecord{0, io::JournalOp::kSegmentAdd, std::move(key)};
  }

  static std::string retire_key(const ElasticTopologyOp& step) {
    std::string s(8, '\0');
    std::memcpy(s.data(), &step.segment, 4);
    std::memcpy(s.data() + 4, &step.into, 4);
    return s;
  }

  template <class Commit>
  static bool apply(ElasticMpcbf<W>& f, io::JournalOp op,
                    std::string_view key, Commit&& commit) {
    std::uint32_t a = 0;
    std::uint32_t b = 0;
    if (op == io::JournalOp::kSegmentAdd && key.size() == 4) {
      std::memcpy(&a, key.data(), 4);
      commit();
      (void)f.grow_from(a);
      return true;
    }
    if (op == io::JournalOp::kSegmentRetire && key.size() == 8) {
      std::memcpy(&a, key.data(), 4);
      std::memcpy(&b, key.data() + 4, 4);
      commit();
      (void)f.retire_into(a, b);
      return true;
    }
    return false;
  }
};

template <unsigned W = 64>
using DurableElasticMpcbf = Durable<ElasticMpcbf<W>>;

// --- background maintenance ---------------------------------------------

/// Runs a maintenance step (drain pass + gauge refresh, typically) on
/// an interval, on a util::ThreadPool worker. The step runs under
/// whatever synchronization the caller bakes into the callback — the
/// serving layer passes a closure that takes the backend's exclusive
/// lock, exactly like a mutating request.
class ElasticMaintainer {
 public:
  ElasticMaintainer(std::function<void()> step,
                    std::chrono::milliseconds interval)
      : step_(std::move(step)), interval_(interval), pool_(1) {
    pool_.submit([this] { run(); });
  }

  ~ElasticMaintainer() { stop(); }
  ElasticMaintainer(const ElasticMaintainer&) = delete;
  ElasticMaintainer& operator=(const ElasticMaintainer&) = delete;

  /// Stops the loop and joins the pool. Idempotent.
  void stop() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_requested_ = true;
    }
    cv_.notify_all();
    pool_.stop();
  }

 private:
  void run() {
    std::unique_lock<std::mutex> lock(mu_);
    for (;;) {
      if (cv_.wait_for(lock, interval_,
                       [this] { return stop_requested_; })) {
        return;
      }
      lock.unlock();
      step_();
      lock.lock();
    }
  }

  std::function<void()> step_;
  std::chrono::milliseconds interval_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_requested_ = false;
  util::ThreadPool pool_;
};

}  // namespace mpcbf::core
