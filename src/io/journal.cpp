#include "io/journal.hpp"

#include <cstdio>
#include <filesystem>
#include <istream>
#include <stdexcept>

#include "common/log.hpp"
#include "io/binary.hpp"
#include "io/crc32c.hpp"
#include "metrics/registry.hpp"
#include "metrics/timer.hpp"
#include "trace/trace.hpp"

#ifdef __unix__
#include <fcntl.h>
#include <unistd.h>
#endif

namespace mpcbf::io {

namespace {

// Journal activity is process-global and low-frequency (one flush per
// group commit, one scan per recovery), so it records straight into the
// global registry — unlike the per-filter hot paths, which stay
// instance-local (see metrics/export.hpp).
struct JournalMetrics {
  metrics::Counter& appends =
      metrics::Registry::global().counter(
          "mpcbf_journal_appends_total", "Records appended to the WAL");
  metrics::Counter& flushes = metrics::Registry::global().counter(
      "mpcbf_journal_flushes_total", "WAL flushes (buffered)");
  metrics::Counter& syncs = metrics::Registry::global().counter(
      "mpcbf_journal_syncs_total", "WAL flushes that also fsynced");
  metrics::Histogram& flush_ns = metrics::Registry::global().histogram(
      "mpcbf_journal_flush_duration_ns",
      "WAL flush (+fsync when requested) latency in nanoseconds");
  metrics::Counter& replayed = metrics::Registry::global().counter(
      "mpcbf_journal_records_replayed_total",
      "Valid records decoded by journal scans");
  metrics::Counter& repaired = metrics::Registry::global().counter(
      "mpcbf_journal_repaired_bytes_total",
      "Torn-tail bytes truncated on journal open");
  metrics::Counter& resets = metrics::Registry::global().counter(
      "mpcbf_journal_resets_total",
      "Journal truncations after snapshot (group-commit watermark)");

  static JournalMetrics& get() {
    static JournalMetrics m;
    return m;
  }
};

/// fsync the file at `path` (POSIX); a no-op elsewhere. Opening a second
/// descriptor just to sync is the portable way to pair with ofstream.
void sync_file(const std::string& path) {
#ifdef __unix__
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd >= 0) {
    ::fsync(fd);
    ::close(fd);
  }
#else
  (void)path;
#endif
}

}  // namespace

JournalScan Journal::scan(const std::string& path) {
  JournalScan result;
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return result;  // missing file == empty journal
  }
  in.seekg(0, std::ios::end);
  result.total_bytes = static_cast<std::uint64_t>(in.tellg());
  in.seekg(0);
  if (result.total_bytes == 0) {
    return result;  // empty file == empty journal
  }
  if (result.total_bytes < kHeaderBytes) {
    throw std::runtime_error("journal: truncated header");
  }
  expect_magic(in, kMagic);
  const auto version = read_pod<std::uint32_t>(in);
  if (version != kVersion) {
    throw std::runtime_error("journal: unsupported version " +
                             std::to_string(version));
  }
  (void)read_pod<std::uint32_t>(in);  // reserved
  result.base_seq = read_pod<std::uint64_t>(in);
  result.valid_bytes = kHeaderBytes;

  // Sequence numbers must be strictly increasing from base_seq. A gap
  // is accepted (journals written by the earlier sharded server held
  // gappy per-shard subsequences); a *decrease* is corruption and ends
  // the valid prefix.
  std::uint64_t expected_seq = result.base_seq;
  while (static_cast<std::uint64_t>(in.tellg()) < result.total_bytes) {
    JournalRecord rec;
    try {
      ChecksumReader reader(in);
      rec.seq = reader.read_pod<std::uint64_t>();
      const auto op = reader.read_pod<std::uint8_t>();
      const auto key_len = reader.read_pod<std::uint32_t>();
      if (op > kMaxJournalOp || key_len > kMaxKeyLen ||
          rec.seq < expected_seq) {
        break;  // corrupt or out-of-sequence: tail ends here
      }
      rec.op = static_cast<JournalOp>(op);
      rec.key.resize(key_len);
      reader.read(rec.key.data(), key_len);
      const auto body_crc = reader.crc();
      if (read_pod<std::uint32_t>(in) != body_crc) {
        break;
      }
    } catch (const std::runtime_error&) {
      break;  // truncated mid-record
    }
    expected_seq = rec.seq + 1;
    result.records.push_back(std::move(rec));
    result.valid_bytes = static_cast<std::uint64_t>(in.tellg());
  }
  result.next_seq = expected_seq;
  result.tail_torn = result.valid_bytes != result.total_bytes;
  JournalMetrics::get().replayed.inc(result.records.size());
  return result;
}

std::vector<JournalRecord> Journal::replay(const std::string& path) {
  return scan(path).records;
}

Journal::Journal(std::string path) : path_(std::move(path)) {
  const JournalScan s = scan(path_);
  if (s.total_bytes == 0) {
    write_header(1);
    base_seq_ = 1;
    next_seq_ = 1;
    return;
  }
  if (s.tail_torn) {
    std::filesystem::resize_file(path_, s.valid_bytes);
    repaired_bytes_ = s.total_bytes - s.valid_bytes;
    JournalMetrics::get().repaired.inc(repaired_bytes_);
    MPCBF_LOG_WARN("journal.tail_repaired", log::str("path", path_),
                   log::u64("truncated_bytes", repaired_bytes_),
                   log::u64("valid_bytes", s.valid_bytes),
                   log::u64("records_kept", s.records.size()));
  }
  base_seq_ = s.base_seq;
  next_seq_ = s.next_seq;
  out_.open(path_, std::ios::binary | std::ios::app);
  if (!out_) {
    throw std::runtime_error("journal: cannot open for append: " + path_);
  }
}

void Journal::write_header(std::uint64_t base_seq) {
  out_.close();
  out_.open(path_, std::ios::binary | std::ios::trunc);
  if (!out_) {
    throw std::runtime_error("journal: cannot create: " + path_);
  }
  write_magic(out_, kMagic);
  write_pod<std::uint32_t>(out_, kVersion);
  write_pod<std::uint32_t>(out_, 0);  // reserved
  write_pod<std::uint64_t>(out_, base_seq);
  out_.flush();
  sync_file(path_);
  if (!out_) {
    throw std::runtime_error("journal: header write failed: " + path_);
  }
}

std::uint64_t Journal::append(JournalOp op, std::string_view key) {
  if (key.size() > kMaxKeyLen) {
    throw std::invalid_argument("journal: key too long");
  }
  const std::uint64_t seq = next_seq_;
  ChecksumWriter writer(out_);
  writer.write_pod<std::uint64_t>(seq);
  writer.write_pod<std::uint8_t>(static_cast<std::uint8_t>(op));
  writer.write_pod<std::uint32_t>(static_cast<std::uint32_t>(key.size()));
  writer.write(key.data(), key.size());
  write_pod<std::uint32_t>(out_, writer.crc());
  if (!out_) {
    throw std::runtime_error("journal: append failed: " + path_);
  }
  next_seq_ = seq + 1;
  JournalMetrics::get().appends.inc();
  return seq;
}

void Journal::flush(bool sync) {
  auto& m = JournalMetrics::get();
  const std::uint64_t t0 = metrics::now_ns();
  out_.flush();
  if (!out_) {
    throw std::runtime_error("journal: flush failed: " + path_);
  }
  if (sync) {
    MPCBF_TRACE_SPAN(span, kIo, "journal.fsync");
    sync_file(path_);
    m.syncs.inc();
  }
  m.flushes.inc();
  m.flush_ns.record(metrics::now_ns() - t0);
}

void Journal::reset(std::uint64_t base_seq) {
  write_header(base_seq);
  base_seq_ = base_seq;
  next_seq_ = base_seq;
  repaired_bytes_ = 0;
  JournalMetrics::get().resets.inc();
}

}  // namespace mpcbf::io
