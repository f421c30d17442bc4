// DurableMpcbf — crash-safe persistence for an MPCBF: write-ahead
// journal for every mutation plus checksummed snapshots published by
// atomic rename.
//
// On-disk layout of a durable directory:
//
//   dir/journal.wal            append-only op journal (io/journal.hpp)
//   dir/snapshot-<seq16>.mpcbf v2-framed snapshot, payload =
//                              "MPCBDUR1" | last_seq u64 | Mpcbf v1 body
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
// full history whenever the journal has never been truncated.
//
// Fault injection: Options::crash_hook is invoked with a named point
// before/after each durability-critical step; tests throw from the hook
// to simulate a crash there and then assert recover() restores every
// acknowledged (journal-flushed) mutation.
#pragma once

#include <algorithm>
#include <cstdint>
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

template <unsigned W = 64>
class DurableMpcbf {
 public:
  static constexpr char kSnapshotMagic[9] = "MPCBDUR1";

  struct Options {
    /// Journal flush (+fsync) every N mutations; 1 = every mutation is
    /// durable before it is applied, larger values trade the crash
    /// window for throughput (group commit).
    std::size_t flush_every = 1;
    /// fsync on journal flush and snapshot publish. Disable only for
    /// benchmarks/tests where the OS page cache is trusted.
    bool fsync = true;
    /// Snapshots to retain after a successful snapshot() (>= 1).
    std::size_t keep_snapshots = 2;
    /// Test-only crash injection: called with a point name at each
    /// durability-critical step; throwing from it simulates a crash.
    std::function<void(std::string_view)> crash_hook;
  };

  /// Opens (or creates) a durable filter in `dir`. Existing state is
  /// recovered (newest valid snapshot + journal replay); a fresh
  /// directory starts an empty filter from `cfg`. The recovered
  /// snapshot's layout must match `cfg` — a mismatch throws rather than
  /// silently serving a differently-shaped filter.
  DurableMpcbf(const std::filesystem::path& dir, const MpcbfConfig& cfg,
               Options options = {})
      : dir_(dir),
        options_(options),
        filter_(recover_filter(dir, &cfg)),
        journal_(journal_path(dir).string()) {
    if (options_.flush_every == 0) options_.flush_every = 1;
    if (options_.keep_snapshots == 0) options_.keep_snapshots = 1;
  }

  /// Opens an existing durable directory, deriving the filter layout
  /// from its newest valid snapshot. Throws if no snapshot is loadable.
  static DurableMpcbf open_existing(const std::filesystem::path& dir,
                                    Options options = {}) {
    return DurableMpcbf(dir, std::nullopt, options);
  }

  /// Shared-ownership open, for owners that hand the filter to
  /// long-lived capturing callbacks (net::make_backend). The class is
  /// immovable (the journal pins an fd), so this constructs in place.
  /// Without `cfg` behaves like open_existing(); with `cfg`, like the
  /// open-or-create constructor.
  static std::shared_ptr<DurableMpcbf> open_shared(
      const std::filesystem::path& dir,
      std::optional<MpcbfConfig> cfg = std::nullopt, Options options = {}) {
    return std::shared_ptr<DurableMpcbf>(
        new DurableMpcbf(dir, cfg, options));
  }

  ~DurableMpcbf() {
    try {
      if (journal_.next_seq() > journal_.base_seq()) {
        journal_.flush(options_.fsync);
      }
    } catch (...) {
      // Destructor must not throw; unflushed tail records are the
      // acknowledged-loss window the flush policy already admits.
    }
  }

  DurableMpcbf(const DurableMpcbf&) = delete;
  DurableMpcbf& operator=(const DurableMpcbf&) = delete;

  // --- mutations (journaled) --------------------------------------------

  bool insert(std::string_view key) {
    log_op(io::JournalOp::kInsert, key);
    return filter_.insert(key);
  }

  bool erase(std::string_view key) {
    log_op(io::JournalOp::kErase, key);
    return filter_.erase(key);
  }

  /// Batched inserts with the WAL invariant intact: every key is
  /// journaled (group-commit flushes included) before any is applied in
  /// memory, so an acknowledged batch survives a crash mid-apply. The
  /// in-memory application then runs the engine's batch pipeline.
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

  // --- queries (journal-free, same cost as the plain filter) ------------

  [[nodiscard]] bool contains(std::string_view key) const {
    return filter_.contains(key);
  }
  [[nodiscard]] std::uint32_t count(std::string_view key) const {
    return filter_.count(key);
  }
  /// Batched membership through the underlying engine pipeline.
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
    journal_.flush(options_.fsync);
    pending_ = 0;
  }

  /// Serializes the current state to a new snapshot (write-temp → flush
  /// → fsync → atomic rename → directory fsync) and truncates the
  /// journal to the new watermark. Old snapshots beyond
  /// Options::keep_snapshots are removed.
  void snapshot() {
    MPCBF_TRACE_SPAN(span, kIo, "durable.snapshot");
    auto& m = durable_metrics();
    const std::uint64_t t0 =
        metrics::kStatsEnabled ? metrics::now_ns() : 0;
    journal_.flush(options_.fsync);
    pending_ = 0;
    const std::uint64_t last_seq = journal_.next_seq() - 1;

    const std::filesystem::path tmp = dir_ / "snapshot.tmp";
    {
      std::ofstream os(tmp, std::ios::binary | std::ios::trunc);
      if (!os) {
        throw std::runtime_error("DurableMpcbf: cannot write " +
                                 tmp.string());
      }
      write_snapshot_stream(os, last_seq);
      os.flush();
      if (!os) {
        throw std::runtime_error("DurableMpcbf: snapshot write failed");
      }
    }
    crash_point("snapshot:post-temp-write");
    if (options_.fsync) sync_path(tmp);
    crash_point("snapshot:pre-rename");
    const std::filesystem::path final_path = dir_ / snapshot_name(last_seq);
    std::filesystem::rename(tmp, final_path);
    if (options_.fsync) sync_path(dir_);
    crash_point("snapshot:post-rename");
    journal_.reset(last_seq + 1);
    crash_point("snapshot:post-journal-reset");
    prune_snapshots();
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
    if (pending_ > 0) {
      journal_.flush(options_.fsync);
      pending_ = 0;
    }
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
    journal_.flush(options_.fsync);
    pending_ = 0;
    const std::uint64_t last_seq = journal_.next_seq() - 1;
    std::ostringstream os(std::ios::binary);
    write_snapshot_stream(os, last_seq);
    return {std::move(os).str(), last_seq};
  }

  /// Installs a snapshot image received from a primary: validates it
  /// fully before touching local state, persists the bytes verbatim
  /// (tmp + fsync + atomic rename, like snapshot()), replaces the
  /// in-memory filter and resets the journal to watermark + 1 so
  /// subsequent records mirror the primary's numbering. Returns the
  /// image's watermark.
  std::uint64_t install_snapshot(std::string_view image) {
    MPCBF_TRACE_SPAN(span, kIo, "durable.snapshot_install");
    std::istringstream is(std::string(image), std::ios::binary);
    std::istringstream payload(io::read_frame(is));
    io::expect_magic(payload, kSnapshotMagic);
    const auto last_seq = io::read_pod<std::uint64_t>(payload);
    Mpcbf<W> loaded = Mpcbf<W>::load_payload(payload);

    const std::filesystem::path tmp = dir_ / "snapshot.tmp";
    {
      std::ofstream os(tmp, std::ios::binary | std::ios::trunc);
      if (!os) {
        throw std::runtime_error("DurableMpcbf: cannot write " +
                                 tmp.string());
      }
      os.write(image.data(),
               static_cast<std::streamsize>(image.size()));
      os.flush();
      if (!os) {
        throw std::runtime_error(
            "DurableMpcbf: snapshot install write failed");
      }
    }
    if (options_.fsync) sync_path(tmp);
    std::filesystem::rename(tmp, dir_ / snapshot_name(last_seq));
    if (options_.fsync) sync_path(dir_);
    journal_.reset(last_seq + 1);
    pending_ = 0;
    filter_ = std::move(loaded);
    prune_snapshots();
    span.set_arg("watermark", last_seq);
    return last_seq;
  }

  /// Applies one replicated record, preserving the WAL invariant
  /// (journal first, then memory). Rejects anything but the exact next
  /// sequence number — a gap means the caller lost stream continuity
  /// and must re-bootstrap, not paper over it.
  bool apply_replicated(std::uint64_t seq, io::JournalOp op,
                        std::string_view key) {
    if (seq != journal_.next_seq()) return false;
    // Topology ops (kSegmentAdd/kSegmentRetire) belong to elastic
    // journals; a flat filter cannot apply them, and journaling one
    // while skipping its effect would fork recovered state from the
    // primary. Reject so the caller re-bootstraps from a snapshot.
    if (op != io::JournalOp::kInsert && op != io::JournalOp::kErase) {
      return false;
    }
    log_op(op, key);
    if (op == io::JournalOp::kInsert) {
      (void)filter_.insert(key);
    } else {
      (void)filter_.erase(key);
    }
    return true;
  }

  [[nodiscard]] const Mpcbf<W>& filter() const noexcept { return filter_; }
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

  // --- recovery (static, no instance required) --------------------------

  /// Reconstructs the filter state a fresh DurableMpcbf would serve:
  /// newest valid snapshot (or an empty `cfg` filter when none loads)
  /// plus replay of journal records above the snapshot watermark. Pass
  /// cfg == nullptr to require a usable snapshot.
  static Mpcbf<W> recover(const std::filesystem::path& dir,
                          const MpcbfConfig* cfg = nullptr) {
    return recover_filter(dir, cfg);
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
  DurableMpcbf(const std::filesystem::path& dir,
               std::optional<MpcbfConfig> cfg, Options options)
      : dir_(dir),
        options_(options),
        filter_(recover_filter(dir, cfg ? &*cfg : nullptr)),
        journal_(journal_path(dir).string()) {
    if (options_.flush_every == 0) options_.flush_every = 1;
    if (options_.keep_snapshots == 0) options_.keep_snapshots = 1;
  }

  template <typename Key>
  void insert_batch_impl(std::span<const Key> keys,
                         std::span<std::uint8_t> ok) {
    if (keys.size() != ok.size()) {
      throw std::invalid_argument("insert_batch: size mismatch");
    }
    // WAL invariant for the whole batch: every key is journaled (and
    // group-commit flushed) before any is applied in memory.
    for (const auto& key : keys) {
      log_op(io::JournalOp::kInsert, key);
    }
    filter_.insert_batch(keys, ok);
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
      durable_metrics().commit_batch.record(pending_);
      journal_.flush(options_.fsync);
      pending_ = 0;
      crash_point("journal:post-flush");
    }
  }

  void crash_point(std::string_view point) {
    if (options_.crash_hook) options_.crash_hook(point);
  }

  void write_snapshot_stream(std::ostream& os,
                             std::uint64_t last_seq) const {
    std::ostringstream payload;
    io::write_magic(payload, kSnapshotMagic);
    io::write_pod<std::uint64_t>(payload, last_seq);
    filter_.save_payload(payload);
    io::write_frame(os, payload.str());
  }

  static std::string snapshot_name(std::uint64_t seq) {
    char buf[40];
    std::snprintf(buf, sizeof buf, "snapshot-%016llx.mpcbf",
                  static_cast<unsigned long long>(seq));
    return buf;
  }

  void prune_snapshots() const {
    const auto files = snapshot_files(dir_);
    for (std::size_t i = options_.keep_snapshots; i < files.size(); ++i) {
      std::error_code ec;
      std::filesystem::remove(files[i], ec);  // best-effort cleanup
    }
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

  /// Loads the snapshot at `path`; returns the filter and its journal
  /// watermark. Throws on any corruption (frame CRC, magic, layout).
  static std::pair<Mpcbf<W>, std::uint64_t> load_snapshot(
      const std::filesystem::path& path) {
    MPCBF_TRACE_SPAN(span, kIo, "durable.snapshot_load");
    std::ifstream is(path, std::ios::binary);
    if (!is) {
      throw std::runtime_error("DurableMpcbf: cannot open " + path.string());
    }
    std::istringstream payload(io::read_frame(is));
    io::expect_magic(payload, kSnapshotMagic);
    const auto last_seq = io::read_pod<std::uint64_t>(payload);
    Mpcbf<W> filter = Mpcbf<W>::load_payload(payload);
    return {std::move(filter), last_seq};
  }

  // Durability metrics are process-global (like the journal's): the
  // durable layer runs orders of magnitude below filter ops, so
  // registering once into the global registry is free and gives
  // `mpcbf_tool stats` visibility without any wiring at call sites.
  struct DurableMetrics {
    metrics::Histogram& commit_batch =
        metrics::Registry::global().histogram(
            "mpcbf_durable_commit_batch_records",
            "Journal records made durable per group-commit flush");
    metrics::Counter& snapshots = metrics::Registry::global().counter(
        "mpcbf_durable_snapshots_total", "Snapshots published");
    metrics::Histogram& snapshot_ns =
        metrics::Registry::global().histogram(
            "mpcbf_durable_snapshot_duration_ns",
            "snapshot() wall time (serialize+fsync+rename+truncate), ns");
    metrics::Counter& recoveries = metrics::Registry::global().counter(
        "mpcbf_durable_recoveries_total", "Recovery runs completed");
    metrics::Counter& replayed = metrics::Registry::global().counter(
        "mpcbf_durable_replayed_records_total",
        "Journal records replayed above the snapshot watermark");
  };
  static DurableMetrics& durable_metrics() {
    static DurableMetrics m;
    return m;
  }

  static Mpcbf<W> recover_filter(const std::filesystem::path& dir,
                                 const MpcbfConfig* cfg) {
    MPCBF_TRACE_SPAN(span, kIo, "durable.recover");
    std::filesystem::create_directories(dir);
    std::optional<Mpcbf<W>> filter;
    std::uint64_t watermark = 0;
    for (const auto& path : snapshot_files(dir)) {
      try {
        auto [loaded, last_seq] = load_snapshot(path);
        filter.emplace(std::move(loaded));
        watermark = last_seq;
        break;  // newest valid snapshot wins
      } catch (const std::runtime_error&) {
        continue;  // corrupt snapshot: fall back to an older one
      }
    }
    if (!filter) {
      if (cfg == nullptr) {
        throw std::runtime_error(
            "DurableMpcbf: no loadable snapshot in " + dir.string() +
            " and no config to start from");
      }
      filter.emplace(*cfg);
    } else if (cfg != nullptr) {
      const Mpcbf<W> expected(*cfg);
      if (!filter->compatible(expected)) {
        throw std::runtime_error(
            "DurableMpcbf: snapshot layout does not match config");
      }
    }
    // The journal header is validated even when there is nothing to
    // replay: a corrupt journal must surface, not be ignored.
    const io::JournalScan scan =
        io::Journal::scan(journal_path(dir).string());
    if (scan.base_seq > watermark + 1) {
      // Records below base_seq were compacted into a snapshot this
      // recovery could not load — serving the remainder would silently
      // forget acknowledged mutations.
      throw std::runtime_error(
          "DurableMpcbf: journal was compacted past the newest loadable "
          "snapshot; state is unrecoverable without that snapshot");
    }
    std::uint64_t replayed = 0;
    {
      MPCBF_TRACE_SPAN(replay_span, kIo, "durable.replay");
      for (const auto& rec : scan.records) {
        if (rec.seq <= watermark) continue;  // already in the snapshot
        if (rec.op == io::JournalOp::kInsert) {
          (void)filter->insert(rec.key);
        } else if (rec.op == io::JournalOp::kErase) {
          (void)filter->erase(rec.key);
        } else {
          // Topology record from an elastic journal: a flat filter
          // cannot interpret its payload as a key. Surface the mixup
          // rather than corrupting state with a bogus erase.
          throw std::runtime_error(
              "DurableMpcbf: journal contains segment-topology records "
              "(elastic filter directory?)");
        }
        ++replayed;
      }
      replay_span.set_arg("records", replayed);
    }
    durable_metrics().recoveries.inc();
    durable_metrics().replayed.inc(replayed);
    return std::move(*filter);
  }

  std::filesystem::path dir_;
  Options options_;
  Mpcbf<W> filter_;
  io::Journal journal_;
  std::size_t pending_ = 0;
};

}  // namespace mpcbf::core
