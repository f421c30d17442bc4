// Durable<F> — crash-safe persistence for a counting filter: write-ahead
// journal for every mutation plus checksummed snapshots published by
// atomic rename. One state machine serves every filter kind:
//
//   DurableMpcbf<W>         = Durable<Mpcbf<W>>          magic MPCBDUR1
//   DurableDecayingMpcbf<W> = Durable<DecayingMpcbf<W>>  magic MPCBDKD1
//   DurableElasticMpcbf<W>  = Durable<ElasticMpcbf<W>>   magic MPCBELD1
//
// On-disk layout of a durable directory:
//
//   dir/journal.wal            append-only op journal (io/journal.hpp)
//   dir/snapshot-<seq16>.mpcbf v2-framed snapshot, payload =
//                              kind magic | last_seq u64 | F payload
//   dir/snapshot.tmp           in-flight snapshot (never read by recovery)
//
// Write path: a mutation is appended to the journal first, flushed per
// the configured group-commit interval, and only then applied in memory
// — the WAL invariant. snapshot() serializes the filter to snapshot.tmp,
// flushes and fsyncs it, atomically renames it to its final
// sequence-stamped name, fsyncs the directory, then truncates the
// journal to a fresh watermark. A crash at any point leaves either the
// old state (tmp never renamed) or the new one (rename is atomic);
// a crash between rename and journal truncation is handled by the
// watermark: replay skips records at or below the snapshot's last_seq.
//
// recover(): newest snapshot that loads cleanly (CRC-framed, so torn or
// bit-flipped files throw rather than half-load) + replay of the journal
// records above its watermark. With no usable snapshot, replay starts
// from an empty filter built from the caller's config — which is the
// full history whenever the journal has never been truncated. A record
// the kind cannot apply (another kind's journal, a key that does not
// decode) throws instead of being skipped.
//
// What a kind supplies: a DurableKind<F> specialisation next to the
// filter, with
//
//   Config, kSnapshotMagic   the open-or-create config and snapshot tag
//   matches(f, cfg)          reopen layout check; false throws
//   apply(f, op, key, commit)  optional: the kind's own journal records.
//                            Decode the key, call commit() (which
//                            journals the record, WAL-first), then
//                            mutate; false for a record it cannot apply
//   adopt(f)                 optional: runs on every recovered or
//                            installed filter
//   due_record(f)            optional: a record the last insert made
//                            due, journaled and applied right behind it
//
// F itself provides insert/erase (applied for kInsert/kErase records)
// and save_payload/load_payload.
//
// Fault injection: Options::crash_hook is invoked with a named point
// before/after each durability-critical step; tests throw from the hook
// to simulate a crash there and then assert recover() restores every
// acknowledged (journal-flushed) mutation.
#pragma once

#include <algorithm>
#include <concepts>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/mpcbf.hpp"
#include "io/crc32c.hpp"
#include "io/journal.hpp"
#include "metrics/registry.hpp"
#include "metrics/timer.hpp"
#include "trace/trace.hpp"

#ifdef __unix__
#include <fcntl.h>
#include <unistd.h>
#endif

namespace mpcbf::core {

/// Specialised next to each filter kind; see the header comment.
template <class F>
struct DurableKind;

template <class F>
concept DurableFilter =
    requires(F& f, const F& cf, std::string_view key, std::ostream& os,
             std::istream& is, const typename DurableKind<F>::Config& cfg) {
      { DurableKind<F>::kSnapshotMagic } -> std::convertible_to<const char*>;
      { DurableKind<F>::matches(cf, cfg) } -> std::same_as<bool>;
      { f.insert(key) } -> std::same_as<bool>;
      { f.erase(key) } -> std::same_as<bool>;
      cf.save_payload(os);
      { F::load_payload(is) } -> std::same_as<F>;
    } && std::constructible_from<F, const typename DurableKind<F>::Config&>;

namespace detail {

// Durability metrics are process-global (like the journal's) and shared
// by every kind: the durable layer runs orders of magnitude below filter
// ops, so registering once into the global registry is free and gives
// `mpcbf_tool stats` visibility without any wiring at call sites.
struct DurableMetrics {
  metrics::Histogram& commit_batch = metrics::Registry::global().histogram(
      "mpcbf_durable_commit_batch_records",
      "Journal records made durable per group-commit flush");
  metrics::Counter& snapshots = metrics::Registry::global().counter(
      "mpcbf_durable_snapshots_total", "Snapshots published");
  metrics::Histogram& snapshot_ns = metrics::Registry::global().histogram(
      "mpcbf_durable_snapshot_duration_ns",
      "snapshot() wall time (serialize+fsync+rename+truncate), ns");
  metrics::Counter& recoveries = metrics::Registry::global().counter(
      "mpcbf_durable_recoveries_total", "Recovery runs completed");
  metrics::Counter& replayed = metrics::Registry::global().counter(
      "mpcbf_durable_replayed_records_total",
      "Journal records replayed above the snapshot watermark");
};

inline DurableMetrics& durable_metrics() {
  static DurableMetrics m;
  return m;
}

}  // namespace detail

template <DurableFilter F>
class Durable {
  using Kind = DurableKind<F>;
  /// Whether an insert can make a record due (an elastic split).
  static constexpr bool kDueRecords =
      requires(const F& f) { Kind::due_record(f); };

 public:
  using Config = typename Kind::Config;
  static constexpr const char (&kSnapshotMagic)[9] = Kind::kSnapshotMagic;
  /// Snapshots kept after a publish: the newest, and the one before it
  /// for recovery to fall back to while the journal still covers it.
  static constexpr std::size_t kKeepSnapshots = 2;

  struct Options {
    /// Journal flush (+fsync) every N mutations; 1 = every mutation is
    /// durable before it is applied, larger values trade the crash
    /// window for throughput (group commit).
    std::size_t flush_every = 1;
    /// fsync on journal flush and snapshot publish. Disable only for
    /// benchmarks/tests where the OS page cache is trusted.
    bool fsync = true;
    /// Test-only crash injection: called with a point name at each
    /// durability-critical step; throwing from it simulates a crash.
    std::function<void(std::string_view)> crash_hook;
  };

  /// Opens (or creates) a durable filter in `dir`. Existing state is
  /// recovered (newest valid snapshot + journal replay); a fresh
  /// directory starts an empty filter from `cfg`. The recovered
  /// snapshot's layout must match `cfg` — a mismatch throws rather than
  /// silently serving a differently-shaped filter.
  Durable(const std::filesystem::path& dir, const Config& cfg,
          Options options = {})
      : Durable(dir, &cfg, std::move(options)) {}

  /// Opens an existing durable directory, deriving the filter layout
  /// from its newest valid snapshot. Throws if no snapshot is loadable.
  static Durable open_existing(const std::filesystem::path& dir,
                               Options options = {}) {
    return Durable(dir, nullptr, std::move(options));
  }

  /// Shared-ownership open, for owners that hand the filter to
  /// long-lived capturing callbacks (net::make_backend). The class is
  /// immovable (the journal pins an fd), so this constructs in place.
  /// Without `cfg` behaves like open_existing(); with `cfg`, like the
  /// open-or-create constructor.
  static std::shared_ptr<Durable> open_shared(
      const std::filesystem::path& dir, std::optional<Config> cfg = {},
      Options options = {}) {
    return std::shared_ptr<Durable>(
        new Durable(dir, cfg ? &*cfg : nullptr, std::move(options)));
  }

  ~Durable() {
    try {
      if (journal_.next_seq() > journal_.base_seq()) {
        journal_.flush(options_.fsync);
      }
    } catch (...) {
      // Destructor must not throw; unflushed tail records are the
      // acknowledged-loss window the flush policy already admits.
    }
  }

  Durable(const Durable&) = delete;
  Durable& operator=(const Durable&) = delete;

  // --- mutations (journaled, WAL-first) ---------------------------------

  bool insert(std::string_view key) {
    log_op(io::JournalOp::kInsert, key);
    const bool ok = filter_.insert(key);
    journal_due_records();
    return ok;
  }

  bool erase(std::string_view key) {
    log_op(io::JournalOp::kErase, key);
    return filter_.erase(key);
  }

  /// Batched inserts with the WAL invariant intact: every key is
  /// journaled (group-commit flushes included) before any is applied in
  /// memory, so an acknowledged batch survives a crash mid-apply. The
  /// in-memory application then runs the filter's batch path.
  /// `ok[i]` receives insert(keys[i])'s return value.
  void insert_batch(std::span<const std::string> keys,
                    std::span<std::uint8_t> ok) {
    insert_batch_impl<std::string>(keys, ok);
  }
  /// string_view flavour — the serving layer decodes requests to views
  /// into a network buffer and journals/applies them with no per-key
  /// allocation.
  void insert_batch(std::span<const std::string_view> keys,
                    std::span<std::uint8_t> ok) {
    insert_batch_impl<std::string_view>(keys, ok);
  }

  /// Batched erases, journaled first like insert_batch, then applied
  /// through the filter's erase_batch where it has one. `ok[i]`
  /// receives erase(keys[i])'s return value.
  void erase_batch(std::span<const std::string> keys,
                   std::span<std::uint8_t> ok) {
    erase_batch_impl<std::string>(keys, ok);
  }
  void erase_batch(std::span<const std::string_view> keys,
                   std::span<std::uint8_t> ok) {
    erase_batch_impl<std::string_view>(keys, ok);
  }

  /// Journals then applies one window rotation (decay kind). Returns
  /// the tick ordinal. The record is flushed with the same group-commit
  /// policy as mutations.
  std::uint64_t decay_tick()
    requires requires(F& f) { f.decay_tick(); }
  {
    journal_apply(io::JournalOp::kDecayTick,
                  Kind::tick_key(filter_.ticks() + 1));
    return filter_.ticks();
  }

  /// One journaled drain pass (elastic kind; see
  /// ElasticMpcbf::compact_once).
  auto compact_once()
    requires requires(F& f) { f.compaction_candidate(); }
  {
    auto step = filter_.compaction_candidate();
    // Journal only a drain that applies: a pass whose merge would
    // overflow appends nothing, so an idle primary's journal (and every
    // follower) stays still.
    if (!step || !filter_.retire_fits(*step)) return decltype(step){};
    journal_apply(io::JournalOp::kSegmentRetire, Kind::retire_key(*step));
    return step;
  }

  // --- queries (journal-free, same cost as the plain filter) ------------

  [[nodiscard]] bool contains(std::string_view key) const {
    return filter_.contains(key);
  }
  [[nodiscard]] std::uint32_t count(std::string_view key) const {
    return filter_.count(key);
  }
  void contains_batch(std::span<const std::string> keys,
                      std::span<std::uint8_t> out) const {
    filter_.contains_batch(keys, out);
  }
  void contains_batch(std::span<const std::string_view> keys,
                      std::span<std::uint8_t> out) const {
    filter_.contains_batch(keys, out);
  }

  /// Forces buffered journal records to stable storage. After this
  /// returns, every prior mutation survives any crash.
  void flush() {
    MPCBF_TRACE_SPAN(span, kIo, "wal.flush");
    span.set_arg("records", pending_);
    (void)flush_journal();
  }

  /// Serializes the current state to a new snapshot (write-temp → flush
  /// → fsync → atomic rename → directory fsync) and truncates the
  /// journal to the new watermark. Snapshots beyond kKeepSnapshots are
  /// removed.
  void snapshot() {
    MPCBF_TRACE_SPAN(span, kIo, "durable.snapshot");
    const std::uint64_t t0 =
        metrics::kStatsEnabled ? metrics::now_ns() : 0;
    const std::uint64_t last_seq = flush_journal();
    publish(last_seq,
            [&](std::ostream& os) { write_snapshot(os, last_seq); });
    auto& m = detail::durable_metrics();
    m.snapshots.inc();
    if (metrics::kStatsEnabled) m.snapshot_ns.record(metrics::now_ns() - t0);
  }

  /// Journal records appended since the last flush (the crash-loss
  /// window under flush_every > 1).
  [[nodiscard]] std::size_t pending_records() const noexcept {
    return pending_;
  }

  // --- replication primitives -------------------------------------------
  //
  // The journal's monotonic sequence numbers double as the replication
  // stream: a follower that has applied everything below N asks for
  // records from N, and a snapshot's watermark tells it where replay
  // resumes. Followers mirror the primary's sequence numbering exactly
  // (install_snapshot resets the local journal to watermark + 1), so at
  // equal watermarks the two directories hold byte-identical snapshots.

  /// One page of the replication stream.
  struct ReplicationBatch {
    std::vector<io::JournalRecord> records;
    std::uint64_t next_seq = 1;  ///< journal position after the batch
    std::uint64_t base_seq = 1;  ///< compaction floor; from_seq below
                                 ///< this needs a snapshot bootstrap
  };

  /// Journal records at or after `from_seq`, bounded by `max_records`
  /// and (approximately) `max_bytes`. Buffered appends are flushed
  /// first — a record is only streamed once it is durable here, so a
  /// follower can never be ahead of the primary's own crash recovery.
  [[nodiscard]] ReplicationBatch journal_records_from(
      std::uint64_t from_seq, std::uint32_t max_records,
      std::uint64_t max_bytes) {
    MPCBF_TRACE_SPAN(span, kIo, "durable.repl_read");
    if (pending_ > 0) (void)flush_journal();
    ReplicationBatch batch;
    batch.next_seq = journal_.next_seq();
    batch.base_seq = journal_.base_seq();
    if (from_seq < batch.base_seq || from_seq >= batch.next_seq) {
      return batch;  // compacted away (bootstrap) or nothing new
    }
    io::JournalScan scan = io::Journal::scan(journal_path(dir_).string());
    std::uint64_t bytes = 0;
    for (auto& rec : scan.records) {
      if (rec.seq < from_seq) continue;
      if (batch.records.size() >= max_records) break;
      bytes += 13 + rec.key.size();
      if (bytes > max_bytes && !batch.records.empty()) break;
      batch.records.push_back(std::move(rec));
    }
    span.set_arg("records", batch.records.size());
    return batch;
  }

  /// Serializes the current state into the exact bytes snapshot() would
  /// publish, without touching disk. Returns {image, watermark}.
  [[nodiscard]] std::pair<std::string, std::uint64_t>
  serialize_snapshot() {
    const std::uint64_t last_seq = flush_journal();
    std::ostringstream os(std::ios::binary);
    write_snapshot(os, last_seq);
    return {std::move(os).str(), last_seq};
  }

  /// Installs a snapshot image received from a primary: validates it
  /// fully before touching local state, persists the bytes verbatim
  /// (through snapshot()'s publish steps, crash points included),
  /// replaces the in-memory filter and resets the journal to
  /// watermark + 1 so subsequent records mirror the primary's
  /// numbering. Returns the image's watermark.
  std::uint64_t install_snapshot(std::string_view image) {
    MPCBF_TRACE_SPAN(span, kIo, "durable.snapshot_install");
    std::istringstream is(std::string(image), std::ios::binary);
    auto [loaded, last_seq] = read_snapshot(is);
    publish(last_seq, [&](std::ostream& os) {
      os.write(image.data(), static_cast<std::streamsize>(image.size()));
    });
    filter_ = std::move(loaded);
    adopt(filter_);
    span.set_arg("watermark", last_seq);
    return last_seq;
  }

  /// Applies one replicated record, preserving the WAL invariant
  /// (journal first, then memory). Rejects anything but the exact next
  /// sequence number — a gap means the caller lost stream continuity
  /// and must re-bootstrap, not paper over it — and any record this
  /// kind cannot apply: journaling it while skipping its effect would
  /// fork recovered state from the primary.
  bool apply_replicated(std::uint64_t seq, io::JournalOp op,
                        std::string_view key) {
    return seq == journal_.next_seq() &&
           apply(filter_, op, key, [&] { log_op(op, key); });
  }

  [[nodiscard]] const F& filter() const noexcept { return filter_; }
  [[nodiscard]] std::size_t size() const noexcept { return filter_.size(); }
  [[nodiscard]] const std::filesystem::path& dir() const noexcept {
    return dir_;
  }
  [[nodiscard]] std::uint64_t next_seq() const noexcept {
    return journal_.next_seq();
  }
  [[nodiscard]] std::uint64_t base_seq() const noexcept {
    return journal_.base_seq();
  }
  [[nodiscard]] std::uint64_t ticks() const noexcept
    requires requires(const F& f) { f.ticks(); }
  {
    return filter_.ticks();
  }
  void publish_metrics(metrics::Registry& reg,
                       const std::string& label = "elastic") const
    requires requires(const F& f, metrics::Registry& r,
                      const std::string& l) { f.publish_metrics(r, l); }
  {
    filter_.publish_metrics(reg, label);
  }

  // --- recovery (static, no instance required) --------------------------

  /// Reconstructs the filter state a fresh Durable would serve: newest
  /// valid snapshot (or an empty `cfg` filter when none loads) plus
  /// replay of journal records above the snapshot watermark. Pass
  /// cfg == nullptr to require a usable snapshot.
  static F recover(const std::filesystem::path& dir,
                   const Config* cfg = nullptr) {
    MPCBF_TRACE_SPAN(span, kIo, "durable.recover");
    std::filesystem::create_directories(dir);
    std::optional<F> filter;
    std::uint64_t watermark = 0;
    for (const auto& path : snapshot_files(dir)) {
      try {
        MPCBF_TRACE_SPAN(load_span, kIo, "durable.snapshot_load");
        std::ifstream is(path, std::ios::binary);
        if (!is) continue;
        auto [loaded, last_seq] = read_snapshot(is);
        filter.emplace(std::move(loaded));
        watermark = last_seq;
        break;  // newest valid snapshot wins
      } catch (const std::runtime_error&) {
        continue;  // corrupt snapshot: fall back to an older one
      }
    }
    if (!filter) {
      if (cfg == nullptr) {
        throw std::runtime_error("durable: no loadable snapshot in " +
                                 dir.string() +
                                 " and no config to start from");
      }
      filter.emplace(*cfg);
    } else if (cfg != nullptr && !Kind::matches(*filter, *cfg)) {
      throw std::runtime_error("durable: snapshot layout in " +
                               dir.string() + " does not match config");
    }
    adopt(*filter);
    // The journal header is validated even when there is nothing to
    // replay: a corrupt journal must surface, not be ignored.
    const io::JournalScan scan =
        io::Journal::scan(journal_path(dir).string());
    if (scan.base_seq > watermark + 1) {
      // Records below base_seq were compacted into a snapshot this
      // recovery could not load — serving the remainder would silently
      // forget acknowledged mutations.
      throw std::runtime_error(
          "durable: journal was compacted past the newest loadable "
          "snapshot; state is unrecoverable without that snapshot");
    }
    std::uint64_t replayed = 0;
    {
      MPCBF_TRACE_SPAN(replay_span, kIo, "durable.replay");
      for (const auto& rec : scan.records) {
        if (rec.seq <= watermark) continue;  // already in the snapshot
        if (!apply(*filter, rec.op, rec.key, [] {})) {
          throw std::runtime_error(
              "durable: journal record " + std::to_string(rec.seq) +
              " (op " + std::to_string(static_cast<int>(rec.op)) +
              ") cannot be applied by a " +
              std::string(kSnapshotMagic, 8) +
              " filter (another filter kind's directory?)");
        }
        ++replayed;
      }
      replay_span.set_arg("records", replayed);
    }
    detail::durable_metrics().recoveries.inc();
    detail::durable_metrics().replayed.inc(replayed);
    return std::move(*filter);
  }

  static std::filesystem::path journal_path(
      const std::filesystem::path& dir) {
    return dir / "journal.wal";
  }

  /// Sequence-stamped snapshot files in `dir`, newest first.
  static std::vector<std::filesystem::path> snapshot_files(
      const std::filesystem::path& dir) {
    std::vector<std::filesystem::path> files;
    if (!std::filesystem::is_directory(dir)) return files;
    for (const auto& entry : std::filesystem::directory_iterator(dir)) {
      const std::string name = entry.path().filename().string();
      if (name.starts_with("snapshot-") && name.ends_with(".mpcbf")) {
        files.push_back(entry.path());
      }
    }
    std::sort(files.begin(), files.end(),
              [](const auto& a, const auto& b) {
                return a.filename().string() > b.filename().string();
              });
    return files;
  }

 private:
  Durable(const std::filesystem::path& dir, const Config* cfg,
          Options options)
      : dir_(dir),
        options_(std::move(options)),
        filter_(recover(dir, cfg)),
        journal_(journal_path(dir).string()) {
    if (options_.flush_every == 0) options_.flush_every = 1;
    // A crash between an insert's append and the append of a record it
    // made due leaves that record owed after replay; journal and apply
    // it now so the recovered process converges with the uncrashed one.
    journal_due_records();
  }

  template <typename Key>
  void insert_batch_impl(std::span<const Key> keys,
                         std::span<std::uint8_t> ok) {
    if (keys.size() != ok.size()) {
      throw std::invalid_argument("insert_batch: size mismatch");
    }
    if constexpr (kDueRecords) {
      // A record an insert makes due must land right behind that insert
      // in the journal, so this kind journals and applies key by key
      // (the WAL invariant still holds per key).
      for (std::size_t i = 0; i < keys.size(); ++i) {
        ok[i] = insert(keys[i]) ? 1 : 0;
      }
    } else {
      for (const auto& key : keys) log_op(io::JournalOp::kInsert, key);
      filter_.insert_batch(keys, ok);
    }
  }

  template <typename Key>
  void erase_batch_impl(std::span<const Key> keys,
                        std::span<std::uint8_t> ok) {
    if (keys.size() != ok.size()) {
      throw std::invalid_argument("erase_batch: size mismatch");
    }
    for (const auto& key : keys) log_op(io::JournalOp::kErase, key);
    if constexpr (requires { filter_.erase_batch(keys, ok); }) {
      filter_.erase_batch(keys, ok);
    } else {
      for (std::size_t i = 0; i < keys.size(); ++i) {
        ok[i] = filter_.erase(keys[i]) ? 1 : 0;
      }
    }
  }

  /// Applies one journal record to `f`, WAL-first: `commit` runs once
  /// the record has decoded and before `f` changes. Insert and erase
  /// are every kind's; the kind's apply() takes the rest. False for a
  /// record this kind cannot apply (another kind's, or a key that does
  /// not decode), with `commit` not run.
  template <class Commit>
  static bool apply(F& f, io::JournalOp op, std::string_view key,
                    Commit&& commit) {
    if (op == io::JournalOp::kInsert || op == io::JournalOp::kErase) {
      commit();
      (void)(op == io::JournalOp::kInsert ? f.insert(key) : f.erase(key));
      return true;
    }
    if constexpr (requires { Kind::apply(f, op, key, commit); }) {
      return Kind::apply(f, op, key, commit);
    } else {
      return false;
    }
  }

  /// Journals and applies a record this object made itself (so it
  /// always decodes).
  void journal_apply(io::JournalOp op, std::string_view key) {
    (void)apply(filter_, op, key, [&] { log_op(op, key); });
  }

  void journal_due_records() {
    if constexpr (kDueRecords) {
      while (const auto rec = Kind::due_record(filter_)) {
        journal_apply(rec->op, rec->key);
      }
    }
  }

  static void adopt(F& f) {
    if constexpr (requires { Kind::adopt(f); }) Kind::adopt(f);
  }

  void log_op(io::JournalOp op, std::string_view key) {
    crash_point("journal:pre-append");
    {
      MPCBF_TRACE_SPAN(span, kIo, "wal.append");
      journal_.append(op, key);
    }
    ++pending_;
    crash_point("journal:post-append");
    if (pending_ >= options_.flush_every) {
      MPCBF_TRACE_SPAN(span, kIo, "wal.group_commit");
      span.set_arg("records", pending_);
      // pending_ is the group-commit batch this flush makes durable.
      detail::durable_metrics().commit_batch.record(pending_);
      (void)flush_journal();
      crash_point("journal:post-flush");
    }
  }

  /// Flushes buffered records; returns the last journaled sequence.
  std::uint64_t flush_journal() {
    journal_.flush(options_.fsync);
    pending_ = 0;
    return journal_.next_seq() - 1;
  }

  void crash_point(std::string_view point) {
    if (options_.crash_hook) options_.crash_hook(point);
  }

  void write_snapshot(std::ostream& os, std::uint64_t last_seq) const {
    std::ostringstream payload;
    io::write_magic(payload, kSnapshotMagic);
    io::write_pod<std::uint64_t>(payload, last_seq);
    filter_.save_payload(payload);
    io::write_frame(os, payload.str());
  }

  /// Parses a snapshot image into its filter and journal watermark.
  /// Throws on any corruption (frame CRC, magic, layout).
  static std::pair<F, std::uint64_t> read_snapshot(std::istream& is) {
    std::istringstream payload(io::read_frame(is));
    io::expect_magic(payload, kSnapshotMagic);
    const auto last_seq = io::read_pod<std::uint64_t>(payload);
    return {F::load_payload(payload), last_seq};
  }

  /// The publish steps: `write` fills snapshot.tmp, which is fsynced and
  /// atomically renamed to its sequence-stamped name; then the
  /// directory is fsynced, the journal reset to last_seq + 1 and old
  /// snapshots pruned.
  template <class Write>
  void publish(std::uint64_t last_seq, Write&& write) {
    const std::filesystem::path tmp = dir_ / "snapshot.tmp";
    {
      std::ofstream os(tmp, std::ios::binary | std::ios::trunc);
      if (!os) {
        throw std::runtime_error("durable: cannot write " + tmp.string());
      }
      write(os);
      os.flush();
      if (!os) throw std::runtime_error("durable: snapshot write failed");
    }
    crash_point("snapshot:post-temp-write");
    if (options_.fsync) sync_path(tmp);
    crash_point("snapshot:pre-rename");
    std::filesystem::rename(tmp, dir_ / snapshot_name(last_seq));
    if (options_.fsync) sync_path(dir_);
    crash_point("snapshot:post-rename");
    journal_.reset(last_seq + 1);
    pending_ = 0;
    crash_point("snapshot:post-journal-reset");
    const auto files = snapshot_files(dir_);
    for (std::size_t i = kKeepSnapshots; i < files.size(); ++i) {
      std::error_code ec;
      std::filesystem::remove(files[i], ec);  // best-effort cleanup
    }
  }

  static std::string snapshot_name(std::uint64_t seq) {
    char buf[40];
    std::snprintf(buf, sizeof buf, "snapshot-%016llx.mpcbf",
                  static_cast<unsigned long long>(seq));
    return buf;
  }

  static void sync_path(const std::filesystem::path& p) {
    MPCBF_TRACE_SPAN(span, kIo, "durable.fsync");
#ifdef __unix__
    const int fd = ::open(p.c_str(), O_RDONLY);
    if (fd >= 0) {
      ::fsync(fd);
      ::close(fd);
    }
#else
    (void)p;
#endif
  }

  std::filesystem::path dir_;
  Options options_;
  F filter_;
  io::Journal journal_;
  std::size_t pending_ = 0;
};

// --- the flat kind ------------------------------------------------------

template <unsigned W>
struct DurableKind<Mpcbf<W>> {
  using Config = MpcbfConfig;
  static constexpr char kSnapshotMagic[9] = "MPCBDUR1";

  static bool matches(const Mpcbf<W>& f, const MpcbfConfig& cfg) {
    return f.layout() == Mpcbf<W>::layout_for(cfg);
  }
};

template <unsigned W = 64>
using DurableMpcbf = Durable<Mpcbf<W>>;

}  // namespace mpcbf::core
