// Append-only write-ahead op journal for durable filters.
//
// A journal file is a fixed header followed by a sequence of records:
//
//   header:  magic "MPCBJNL1" (8) | version u32 | reserved u32 | base_seq u64
//   record:  seq u64 | op u8 | key_len u32 | key bytes | crc32c u32
//
// The record CRC covers seq..key bytes. Records carry strictly
// increasing sequence numbers starting at or above the header's
// base_seq; a snapshot that compacts the journal rewrites the header
// with the next sequence number, so replay after a crash between
// snapshot-rename and journal-truncate can tell already-applied records
// apart (they fall at or below the snapshot's watermark). append()
// numbers records consecutively.
//
// Torn-tail semantics: a crash mid-append leaves a partial or
// CRC-broken record at the end of the file. open() replays the longest
// valid prefix — every record must parse, CRC-check, and carry a
// sequence number no lower than expected — and physically truncates
// whatever follows. A corrupted *header* is not repairable and throws:
// silently treating it as empty would forget acknowledged writes.
#pragma once

#include <cstdint>
#include <fstream>
#include <string>
#include <string_view>
#include <vector>

namespace mpcbf::io {

enum class JournalOp : std::uint8_t {
  kInsert = 0,
  kErase = 1,
  /// Topology records (ElasticMpcbf): the key field carries an encoded
  /// segment descriptor, not a filter key. Consumers that only
  /// understand keyed ops must reject these rather than misapply them.
  kSegmentAdd = 2,
  kSegmentRetire = 3,
  /// Decay-tick record (DecayingMpcbf): the key field carries the LE u64
  /// tick ordinal. Replay rotates the sliding window exactly where the
  /// live filter did, so recovery is byte-identical; like the topology
  /// ops, keyed-only consumers must reject it.
  kDecayTick = 4,
};

/// Highest op value scan() accepts; anything above is a corrupt tail.
inline constexpr std::uint8_t kMaxJournalOp =
    static_cast<std::uint8_t>(JournalOp::kDecayTick);

struct JournalRecord {
  std::uint64_t seq = 0;
  JournalOp op = JournalOp::kInsert;
  std::string key;

  friend bool operator==(const JournalRecord&,
                         const JournalRecord&) = default;
};

/// Result of scanning a journal file without modifying it.
struct JournalScan {
  std::vector<JournalRecord> records;  ///< longest valid prefix
  std::uint64_t base_seq = 1;          ///< header watermark
  std::uint64_t next_seq = 1;          ///< last record's seq + 1 (or base_seq)
  std::uint64_t valid_bytes = 0;       ///< offset where the valid prefix ends
  std::uint64_t total_bytes = 0;       ///< physical file size
  bool tail_torn = false;              ///< bytes past valid_bytes existed
};

class Journal {
 public:
  static constexpr char kMagic[9] = "MPCBJNL1";
  static constexpr std::uint32_t kVersion = 1;
  static constexpr std::uint64_t kMaxKeyLen = 1ull << 20;
  static constexpr std::uint64_t kHeaderBytes = 8 + 4 + 4 + 8;

  /// Opens (or creates) the journal at `path` for appending. An existing
  /// file has its tail repaired: the longest valid record prefix is kept
  /// and trailing garbage truncated. Throws std::runtime_error if the
  /// header itself is corrupt.
  explicit Journal(std::string path);

  Journal(const Journal&) = delete;
  Journal& operator=(const Journal&) = delete;

  /// Appends one record and returns its sequence number. Buffered; call
  /// flush() to make it durable.
  std::uint64_t append(JournalOp op, std::string_view key);

  /// Flushes buffered appends to the OS; with `sync`, fsyncs to stable
  /// storage as well.
  void flush(bool sync);

  /// Truncates the journal to an empty record set with a fresh
  /// `base_seq` watermark (called after a snapshot has captured all
  /// records below it). Durable before return.
  void reset(std::uint64_t base_seq);

  /// Sequence number the next append will get.
  [[nodiscard]] std::uint64_t next_seq() const noexcept { return next_seq_; }
  [[nodiscard]] std::uint64_t base_seq() const noexcept { return base_seq_; }
  [[nodiscard]] const std::string& path() const noexcept { return path_; }
  /// Bytes discarded by tail repair at open time (diagnostics).
  [[nodiscard]] std::uint64_t repaired_bytes() const noexcept {
    return repaired_bytes_;
  }

  /// Scans `path` read-only: parses the header (throws if corrupt) and
  /// returns the longest valid record prefix. A missing or empty file
  /// scans as an empty journal with base_seq 1.
  static JournalScan scan(const std::string& path);

  /// Convenience: scan().records.
  static std::vector<JournalRecord> replay(const std::string& path);

 private:
  void write_header(std::uint64_t base_seq);

  std::string path_;
  std::ofstream out_;
  std::uint64_t base_seq_ = 1;
  std::uint64_t next_seq_ = 1;
  std::uint64_t repaired_bytes_ = 0;
};

}  // namespace mpcbf::io
