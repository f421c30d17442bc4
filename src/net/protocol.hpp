// Wire protocol for mpcbfd — the length-prefixed, CRC32C-framed binary
// format the filter server and client library speak.
//
// Every message (request or response) is one frame:
//
//   offset  size  field
//   0       4     frame magic 0x314E504D ("MPN1", little-endian u32)
//   4       1     opcode (Opcode enum)
//   5       1     flags (bit0 = response, bit1 = error)
//   6       2     reserved (must be 0)
//   8       8     request id (u64; a response echoes its request's id)
//   16      4     payload length in bytes (u32)
//   20      4     CRC32C of the payload bytes (u32)
//   24      len   payload
//
// The header is fixed-size so a reader knows exactly how many bytes to
// wait for; the CRC covers the payload, so a frame is either delivered
// intact or rejected before a single payload byte reaches a parser —
// the same discipline io/crc32c.hpp enforces for snapshots. Requests
// are batched (one frame carries up to kMaxBatchKeys keys) because the
// whole point of the serving layer is to amortize the syscall + parse
// cost over the word-engine batch pipeline; see docs/server.md for
// batching guidance.
//
// Hostile-input hardening mirrors the snapshot loaders: every length
// field is validated against a cap *before* any allocation
// (kMaxPayload, kMaxBatchKeys, kMaxKeyLen), and decoded keys are
// string_views into the connection's read buffer — a request batch is
// processed with zero per-key allocation.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "io/crc32c.hpp"
#include "io/journal.hpp"

namespace mpcbf::net {

inline constexpr std::uint32_t kFrameMagic = 0x314E504Du;  // "MPN1"
inline constexpr std::size_t kHeaderSize = 24;
/// Frame payload cap: anything larger is rejected from the header alone,
/// before allocation (a hostile length field must not become an
/// allocation bomb — same rule as io::kMaxFramePayload).
inline constexpr std::uint32_t kMaxPayload = 1u << 24;  // 16 MiB
/// Keys per batched request.
inline constexpr std::uint32_t kMaxBatchKeys = 1u << 16;
/// Bytes per key.
inline constexpr std::uint32_t kMaxKeyLen = 4096;
/// Journal records per REPLICATE reply.
inline constexpr std::uint32_t kMaxReplicateRecords = 1u << 16;
/// Snapshot bytes per SNAPFETCH chunk (well under kMaxPayload so the
/// reply header always fits).
inline constexpr std::uint32_t kMaxSnapChunk = 4u << 20;  // 4 MiB
/// Total assembled snapshot size a follower will accept.
inline constexpr std::uint64_t kMaxSnapshotBytes = 1ull << 30;  // 1 GiB
/// Bytes per namespace name (NamespacePrefix / NSCREATE / NSDROP).
inline constexpr std::uint32_t kMaxNamespaceLen = 64;
/// Namespaces one server will host; NSCREATE past this is rejected.
inline constexpr std::uint32_t kMaxNamespaces = 256;

enum class Opcode : std::uint8_t {
  kQuery = 1,      ///< batched membership; reply = verdict per key
  kInsert = 2,     ///< batched insert; reply = ok flag per key
  kErase = 3,      ///< batched erase; reply = ok flag per key
  kStats = 4,      ///< filter layout + counters (StatsReply)
  kHealth = 5,     ///< readiness + saturation probe (HealthReply)
  kSnapshot = 6,   ///< force a durable snapshot (SnapshotReply)
  kReplicate = 7,  ///< tail journal records from a watermark (follower)
  kSnapFetch = 8,  ///< fetch a consistent snapshot image in chunks
  kReplStatus = 9, ///< replication role / watermarks (ReplStatusReply)
  kEstCount = 10,  ///< batched min-counter frequency estimate (u32/key)
  kNsCreate = 11,  ///< create a namespace (name + NsConfigWire)
  kNsDrop = 12,    ///< drop a namespace and its backend state
  kNsList = 13,    ///< enumerate namespaces (NsRowWire per namespace)
  kNsTick = 14,    ///< force one decay tick on a namespace (NsTickReply)
};

[[nodiscard]] constexpr bool opcode_known(std::uint8_t op) noexcept {
  return op >= 1 && op <= 14;
}

/// Highest opcode value; sizes per-opcode metric arrays.
inline constexpr std::uint8_t kMaxOpcode = 14;

[[nodiscard]] constexpr const char* to_string(Opcode op) noexcept {
  switch (op) {
    case Opcode::kQuery: return "query";
    case Opcode::kInsert: return "insert";
    case Opcode::kErase: return "erase";
    case Opcode::kStats: return "stats";
    case Opcode::kHealth: return "health";
    case Opcode::kSnapshot: return "snapshot";
    case Opcode::kReplicate: return "replicate";
    case Opcode::kSnapFetch: return "snapfetch";
    case Opcode::kReplStatus: return "replstatus";
    case Opcode::kEstCount: return "est_count";
    case Opcode::kNsCreate: return "nscreate";
    case Opcode::kNsDrop: return "nsdrop";
    case Opcode::kNsList: return "nslist";
    case Opcode::kNsTick: return "nstick";
  }
  return "?";
}

inline constexpr std::uint8_t kFlagResponse = 0x1;
inline constexpr std::uint8_t kFlagError = 0x2;
/// Request carries a (session_id, op_seq) SequencePrefix ahead of its
/// payload; the server dedups, so a retried mutation applies once.
inline constexpr std::uint8_t kFlagSequenced = 0x4;
/// Request carries an 8-byte TracePrefix as the *first* payload bytes
/// (ahead of the SequencePrefix when both flags are set): the client's
/// trace id, which the server attaches to its request span, its
/// slow-request record and its log line — one id follows the operation
/// across the process boundary.
inline constexpr std::uint8_t kFlagTraced = 0x8;
/// Request targets a named namespace: the payload carries a
/// NamespacePrefix (u8 length + name bytes) *after* the TracePrefix and
/// *before* the SequencePrefix — the trace id names the operation, the
/// namespace names the routing target, and the dedup state is scoped to
/// whatever the route resolves to. The name is length- and
/// charset-validated before any lookup, like every other hostile-input
/// check in this header.
inline constexpr std::uint8_t kFlagNamespaced = 0x10;

/// Error codes carried by an error response payload.
enum class ErrorCode : std::uint32_t {
  kBadRequest = 1,    ///< frame was intact but its payload is malformed
  kUnsupported = 2,   ///< opcode not supported by this backend
  kInternal = 3,      ///< backend threw while serving the request
  kShuttingDown = 4,  ///< server is draining; retry against another node
  kQuotaExceeded = 5,     ///< namespace key/memory quota would be exceeded
  kUnknownNamespace = 6,  ///< NamespacePrefix names no registered namespace
  kNamespaceExists = 7,   ///< NSCREATE of a name already registered
};

struct FrameHeader {
  std::uint8_t opcode = 0;
  std::uint8_t flags = 0;
  std::uint64_t request_id = 0;
  std::uint32_t payload_len = 0;
  std::uint32_t payload_crc = 0;
};

/// A decoded frame; `payload` views into the caller's buffer and is only
/// valid until that buffer is mutated.
struct Frame {
  FrameHeader header;
  std::string_view payload;
};

// --- low-level append/read helpers (little-endian PODs, like io/) -------

namespace detail {

template <typename T>
inline void append_pod(std::string& out, const T& v) {
  static_assert(std::is_trivially_copyable_v<T>);
  out.append(reinterpret_cast<const char*>(&v), sizeof v);
}

/// Bounds-checked sequential reader over a payload view. read() returns
/// false on truncation instead of throwing — the decoder turns that into
/// a clean protocol error.
class PayloadReader {
 public:
  explicit PayloadReader(std::string_view buf) : buf_(buf) {}

  template <typename T>
  [[nodiscard]] bool read(T& v) noexcept {
    static_assert(std::is_trivially_copyable_v<T>);
    if (buf_.size() - pos_ < sizeof v) return false;
    std::memcpy(&v, buf_.data() + pos_, sizeof v);
    pos_ += sizeof v;
    return true;
  }

  [[nodiscard]] bool read_view(std::size_t len,
                               std::string_view& out) noexcept {
    if (buf_.size() - pos_ < len) return false;
    out = buf_.substr(pos_, len);
    pos_ += len;
    return true;
  }

  [[nodiscard]] bool exhausted() const noexcept {
    return pos_ == buf_.size();
  }

 private:
  std::string_view buf_;
  std::size_t pos_ = 0;
};

}  // namespace detail

// --- frame encode -------------------------------------------------------

/// Appends one complete frame (header + payload) to `out`. The payload
/// must already respect kMaxPayload; callers build payloads with the
/// append_* helpers below, which enforce the caps.
inline void append_frame(std::string& out, Opcode op, std::uint8_t flags,
                         std::uint64_t request_id,
                         std::string_view payload) {
  detail::append_pod<std::uint32_t>(out, kFrameMagic);
  detail::append_pod<std::uint8_t>(out, static_cast<std::uint8_t>(op));
  detail::append_pod<std::uint8_t>(out, flags);
  detail::append_pod<std::uint16_t>(out, 0);  // reserved
  detail::append_pod<std::uint64_t>(out, request_id);
  detail::append_pod<std::uint32_t>(
      out, static_cast<std::uint32_t>(payload.size()));
  detail::append_pod<std::uint32_t>(out, io::crc32c(payload));
  out.append(payload);
}

// --- frame decode (incremental) ----------------------------------------

enum class DecodeStatus : std::uint8_t {
  kNeedMore,  ///< buffer holds a prefix of a frame; read more bytes
  kFrame,     ///< one intact frame decoded; drop `consumed` bytes
  kError,     ///< stream is unrecoverable (bad magic / CRC / oversized)
};

struct DecodeResult {
  DecodeStatus status = DecodeStatus::kNeedMore;
  Frame frame;               ///< valid when status == kFrame
  std::size_t consumed = 0;  ///< bytes of `buf` the frame occupied
  const char* error = nullptr;  ///< static reason when status == kError
};

/// Attempts to decode one frame from the front of `buf`. Never throws
/// and never allocates: a torn, truncated, oversized or corrupt stream
/// yields kNeedMore or kError. On kError the connection must be closed —
/// after a framing violation the byte stream has no trustworthy
/// resynchronization point.
[[nodiscard]] inline DecodeResult decode_frame(std::string_view buf) {
  DecodeResult r;
  if (buf.size() < kHeaderSize) return r;  // kNeedMore
  detail::PayloadReader reader(buf);
  std::uint32_t magic = 0;
  std::uint16_t reserved = 0;
  FrameHeader& h = r.frame.header;
  (void)reader.read(magic);
  (void)reader.read(h.opcode);
  (void)reader.read(h.flags);
  (void)reader.read(reserved);
  (void)reader.read(h.request_id);
  (void)reader.read(h.payload_len);
  (void)reader.read(h.payload_crc);
  if (magic != kFrameMagic) {
    r.status = DecodeStatus::kError;
    r.error = "bad frame magic";
    return r;
  }
  if (reserved != 0) {
    r.status = DecodeStatus::kError;
    r.error = "nonzero reserved field";
    return r;
  }
  if (h.payload_len > kMaxPayload) {
    // Rejected from the header alone: the payload is never read, let
    // alone buffered, so an attacker cannot force a 4 GiB allocation.
    r.status = DecodeStatus::kError;
    r.error = "payload length over cap";
    return r;
  }
  if (buf.size() < kHeaderSize + h.payload_len) return r;  // kNeedMore
  const std::string_view payload = buf.substr(kHeaderSize, h.payload_len);
  if (io::crc32c(payload) != h.payload_crc) {
    r.status = DecodeStatus::kError;
    r.error = "payload CRC mismatch";
    return r;
  }
  r.frame.payload = payload;
  r.consumed = kHeaderSize + h.payload_len;
  r.status = DecodeStatus::kFrame;
  return r;
}

// --- batch payloads -----------------------------------------------------
//
// QUERY / INSERT / ERASE request payload:
//   u32 count, then count x (u32 key_len, key bytes)
// QUERY / INSERT / ERASE response payload:
//   u32 count, then count verdict/ok bytes (0 or 1)

template <typename Key>
inline void append_key_batch(std::string& out, std::span<const Key> keys) {
  if (keys.size() > kMaxBatchKeys) {
    throw std::length_error("append_key_batch: too many keys");
  }
  detail::append_pod<std::uint32_t>(
      out, static_cast<std::uint32_t>(keys.size()));
  for (const auto& key : keys) {
    if (key.size() > kMaxKeyLen) {
      throw std::length_error("append_key_batch: key too long");
    }
    detail::append_pod<std::uint32_t>(
        out, static_cast<std::uint32_t>(key.size()));
    out.append(key.data(), key.size());
  }
}

/// Parses a key batch into views over `payload` (zero copies — the views
/// feed the word-engine batch path directly). Returns nullptr on
/// success, a static error reason otherwise. Caps are enforced before
/// the output vector grows past them.
[[nodiscard]] inline const char* parse_key_batch(
    std::string_view payload, std::vector<std::string_view>& keys) {
  keys.clear();
  detail::PayloadReader reader(payload);
  std::uint32_t count = 0;
  if (!reader.read(count)) return "key batch: truncated count";
  if (count > kMaxBatchKeys) return "key batch: count over cap";
  // Each key needs at least its 4-byte length prefix: a cheap structural
  // bound that rejects absurd counts before reserve().
  if (payload.size() < sizeof(std::uint32_t) * (1 + std::size_t{count})) {
    return "key batch: count exceeds payload";
  }
  keys.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    std::uint32_t len = 0;
    if (!reader.read(len)) return "key batch: truncated key length";
    if (len > kMaxKeyLen) return "key batch: key length over cap";
    std::string_view key;
    if (!reader.read_view(len, key)) return "key batch: truncated key";
    keys.push_back(key);
  }
  if (!reader.exhausted()) return "key batch: trailing bytes";
  return nullptr;
}

inline void append_verdicts(std::string& out,
                            std::span<const std::uint8_t> verdicts) {
  detail::append_pod<std::uint32_t>(
      out, static_cast<std::uint32_t>(verdicts.size()));
  out.append(reinterpret_cast<const char*>(verdicts.data()),
             verdicts.size());
}

[[nodiscard]] inline const char* parse_verdicts(
    std::string_view payload, std::vector<std::uint8_t>& out) {
  out.clear();
  detail::PayloadReader reader(payload);
  std::uint32_t count = 0;
  if (!reader.read(count)) return "verdicts: truncated count";
  if (count > kMaxBatchKeys) return "verdicts: count over cap";
  std::string_view bytes;
  if (!reader.read_view(count, bytes)) return "verdicts: truncated bytes";
  if (!reader.exhausted()) return "verdicts: trailing bytes";
  out.assign(bytes.begin(), bytes.end());
  return nullptr;
}

// --- fixed replies ------------------------------------------------------

/// STATS response payload (packed little-endian, 72 bytes).
struct StatsReply {
  std::uint64_t elements = 0;
  std::uint64_t memory_bits = 0;
  std::uint32_t k = 0;
  std::uint32_t g = 0;
  std::uint32_t b1 = 0;
  std::uint32_t n_max = 0;
  std::uint64_t stash_entries = 0;
  std::uint64_t overflow_events = 0;
  std::uint64_t underflow_events = 0;
  std::uint64_t requests_served = 0;
  std::uint64_t uptime_seconds = 0;  ///< server process uptime
};
static_assert(std::is_trivially_copyable_v<StatsReply> &&
              sizeof(StatsReply) == 72);

/// HEALTH response payload (packed little-endian, 48 bytes). `ready` is
/// the servability bit: 1 while the server accepts work, 0 once it is
/// draining — a load balancer keys on it, `severity` is the filter-
/// saturation classification (metrics::Severity).
struct HealthReply {
  std::uint8_t severity = 0;
  std::uint8_t ready = 0;
  std::uint8_t reserved[6] = {};
  double saturation_score = 0.0;
  double level1_fill = 0.0;
  double measured_fpr = 0.0;
  double fpr_drift = 0.0;
  std::uint64_t elements = 0;
};
static_assert(std::is_trivially_copyable_v<HealthReply> &&
              sizeof(HealthReply) == 48);

/// SNAPSHOT response payload.
struct SnapshotReply {
  std::uint64_t last_seq = 0;
};

// --- replication payloads -----------------------------------------------
//
// REPLICATE request payload (24 bytes): the follower asks for journal
// records at or after `from_seq`. Requesting from N is the ack for
// everything below N — the primary tracks it as the follower's durable
// watermark, so the poll stream needs no separate ack message.
struct ReplicateRequest {
  std::uint64_t follower_id = 0;  ///< stable id for lag accounting
  std::uint64_t from_seq = 1;     ///< first sequence number wanted
  std::uint32_t max_records = 0;  ///< 0 = server default
  std::uint32_t max_bytes = 0;    ///< 0 = server default
};
static_assert(std::is_trivially_copyable_v<ReplicateRequest> &&
              sizeof(ReplicateRequest) == 24);

/// REPLICATE response payload: this header, then `count` records of
/// (seq u64 | op u8 | key_len u32 | key bytes) — the journal's record
/// layout minus the per-record CRC, which the frame CRC subsumes.
struct ReplicateInfo {
  std::uint64_t next_seq = 1;  ///< primary's next journal sequence
  std::uint64_t base_seq = 1;  ///< primary's journal compaction floor
  std::uint32_t count = 0;     ///< records following this header
  std::uint8_t need_snapshot = 0;  ///< 1: from_seq was compacted away
  std::uint8_t reserved[3] = {};
};
static_assert(std::is_trivially_copyable_v<ReplicateInfo> &&
              sizeof(ReplicateInfo) == 24);

/// SNAPFETCH request payload (16 bytes): one chunk of the primary's
/// consistent snapshot image, starting at `offset`.
struct SnapFetchRequest {
  std::uint64_t offset = 0;
  std::uint32_t max_bytes = 0;  ///< 0 = server default
  std::uint32_t reserved = 0;
};
static_assert(std::is_trivially_copyable_v<SnapFetchRequest> &&
              sizeof(SnapFetchRequest) == 16);

/// SNAPFETCH response payload: this header, then `len` image bytes.
/// `watermark` identifies the image; a different watermark at a nonzero
/// offset means the image was regenerated and the fetch must restart.
struct SnapFetchInfo {
  std::uint64_t watermark = 0;    ///< journal seq the image captures
  std::uint64_t total_bytes = 0;  ///< full image size
  std::uint64_t offset = 0;       ///< echo of the requested offset
  std::uint32_t len = 0;          ///< bytes following this header
  std::uint32_t reserved = 0;
};
static_assert(std::is_trivially_copyable_v<SnapFetchInfo> &&
              sizeof(SnapFetchInfo) == 32);

/// Replication role reported by REPLSTATUS.
enum class ReplRole : std::uint8_t {
  kNone = 0,      ///< memory-only backend, nothing to replicate
  kPrimary = 1,   ///< durable backend serving REPLICATE/SNAPFETCH
  kFollower = 2,  ///< tailing another node's journal
};

/// REPLSTATUS response payload (48 bytes). On a primary, `acked_seq` /
/// `min_acked_seq` / `lag_records` describe the follower fleet; on a
/// follower they describe its own position against its upstream.
struct ReplStatusReply {
  std::uint8_t role = 0;       ///< ReplRole
  std::uint8_t caught_up = 0;  ///< 1 when lag_records == 0
  std::uint8_t reserved[6] = {};
  std::uint64_t next_seq = 1;       ///< local journal next sequence
  std::uint64_t acked_seq = 0;      ///< highest locally durable sequence
  std::uint64_t followers = 0;      ///< registered followers (primary)
  std::uint64_t min_acked_seq = 0;  ///< slowest follower (primary)
  std::uint64_t lag_records = 0;    ///< records not yet fleet-durable
};
static_assert(std::is_trivially_copyable_v<ReplStatusReply> &&
              sizeof(ReplStatusReply) == 48);

/// Payload prefix carried by kFlagSequenced mutations (16 bytes).
struct SequencePrefix {
  std::uint64_t session_id = 0;  ///< random per client session
  std::uint64_t op_seq = 0;      ///< monotonic per session; retries reuse
};
static_assert(std::is_trivially_copyable_v<SequencePrefix> &&
              sizeof(SequencePrefix) == 16);

/// Payload prefix carried by kFlagTraced requests (8 bytes). Retries of
/// one logical operation reuse the trace id, like SequencePrefix::op_seq
/// — the id names the operation, not the attempt.
struct TracePrefix {
  std::uint64_t trace_id = 0;  ///< nonzero, client-chosen
};
static_assert(std::is_trivially_copyable_v<TracePrefix> &&
              sizeof(TracePrefix) == 8);

inline void append_trace_prefix(std::string& out,
                                const TracePrefix& prefix) {
  detail::append_pod(out, prefix);
}

/// Splits a kFlagTraced payload into its TracePrefix and the remainder
/// (which parses exactly as the untraced payload would — key batch,
/// request POD, or empty). `rest` views into `payload`. Returns nullptr
/// on success; a payload shorter than the prefix is rejected byte-for-
/// byte, same as parse_sequenced_key_batch.
[[nodiscard]] inline const char* parse_trace_prefix(
    std::string_view payload, TracePrefix& prefix,
    std::string_view& rest) {
  if (payload.size() < sizeof(TracePrefix)) {
    return "traced request: truncated trace prefix";
  }
  std::memcpy(&prefix, payload.data(), sizeof prefix);
  if (prefix.trace_id == 0) {
    return "traced request: zero trace id";
  }
  rest = payload.substr(sizeof prefix);
  return nullptr;
}

// --- namespaces ---------------------------------------------------------
//
// A namespaced request (kFlagNamespaced) carries its target namespace as
// a payload prefix: u8 name_len | name bytes. Names are restricted to
// [A-Za-z0-9_.-] so they are safe verbatim as Prometheus label values,
// directory-name components (`dir/ns-<name>/`) and log fields — the
// validation happens at decode time, before any registry lookup or
// allocation keyed on the name.

/// True iff `name` is a wire-legal namespace name (1..kMaxNamespaceLen
/// bytes of [A-Za-z0-9_.-], not starting with a dot so `ns-<name>`
/// directories can never be `ns-.` / `ns-..` path tricks).
[[nodiscard]] inline bool namespace_name_valid(
    std::string_view name) noexcept {
  if (name.empty() || name.size() > kMaxNamespaceLen) return false;
  if (name.front() == '.') return false;
  for (const char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == '.' ||
                    c == '-';
    if (!ok) return false;
  }
  return true;
}

inline void append_ns_prefix(std::string& out, std::string_view name) {
  if (!namespace_name_valid(name)) {
    throw std::invalid_argument("append_ns_prefix: invalid namespace name");
  }
  detail::append_pod<std::uint8_t>(out,
                                   static_cast<std::uint8_t>(name.size()));
  out.append(name.data(), name.size());
}

/// Splits a kFlagNamespaced payload into its namespace name and the
/// remainder (which parses exactly as the un-namespaced payload would).
/// Both views alias `payload`. Returns nullptr on success.
[[nodiscard]] inline const char* parse_ns_prefix(std::string_view payload,
                                                 std::string_view& name,
                                                 std::string_view& rest) {
  detail::PayloadReader reader(payload);
  std::uint8_t len = 0;
  if (!reader.read(len)) return "namespaced request: truncated prefix";
  if (!reader.read_view(len, name)) {
    return "namespaced request: truncated name";
  }
  if (!namespace_name_valid(name)) {
    return "namespaced request: invalid namespace name";
  }
  rest = payload.substr(1 + std::size_t{len});
  return nullptr;
}

// EST_COUNT response payload: u32 count, then count x u32 min-counter
// estimates (one per request key, in request order).

inline void append_counts(std::string& out,
                          std::span<const std::uint32_t> counts) {
  if (counts.size() > kMaxBatchKeys) {
    throw std::length_error("append_counts: too many counts");
  }
  detail::append_pod<std::uint32_t>(
      out, static_cast<std::uint32_t>(counts.size()));
  for (const auto c : counts) detail::append_pod<std::uint32_t>(out, c);
}

[[nodiscard]] inline const char* parse_counts(
    std::string_view payload, std::vector<std::uint32_t>& out) {
  out.clear();
  detail::PayloadReader reader(payload);
  std::uint32_t count = 0;
  if (!reader.read(count)) return "counts: truncated count";
  if (count > kMaxBatchKeys) return "counts: count over cap";
  if (payload.size() < sizeof(std::uint32_t) * (1 + std::size_t{count})) {
    return "counts: count exceeds payload";
  }
  out.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    std::uint32_t v = 0;
    if (!reader.read(v)) return "counts: truncated value";
    out.push_back(v);
  }
  if (!reader.exhausted()) return "counts: trailing bytes";
  return nullptr;
}

/// Backend kind a namespace is created with (NsConfigWire::kind).
enum class NsKind : std::uint8_t {
  kMemory = 0,         ///< Mpcbf, no persistence
  kDurable = 1,        ///< DurableMpcbf under dir/ns-<name>/
  kDecay = 2,          ///< DecayingMpcbf sliding window, no persistence
  kDurableDecay = 3,   ///< DurableDecayingMpcbf under dir/ns-<name>/
};

/// NSCREATE request payload: u8 name_len | name | NsConfigWire (packed
/// little-endian, 40 bytes). Zero quota fields mean unlimited.
struct NsConfigWire {
  std::uint8_t kind = 0;   ///< NsKind
  std::uint8_t k = 3;      ///< hash functions per element
  std::uint8_t g = 1;      ///< memory accesses per op
  std::uint8_t decay_generations = 0;  ///< sliding-window depth (decay kinds)
  /// Automatic decay cadence: the registry's ticker rotates the window
  /// every this many milliseconds. 0 = manual (NSTICK) only. Ignored for
  /// non-decay kinds.
  std::uint32_t tick_interval_ms = 0;
  std::uint64_t memory_bits = 1u << 20;
  std::uint64_t expected_n = 0;        ///< 0 = derive from memory_bits
  std::uint64_t max_keys = 0;          ///< quota; 0 = unlimited
  std::uint64_t max_memory_bytes = 0;  ///< quota; 0 = unlimited
};
static_assert(std::is_trivially_copyable_v<NsConfigWire> &&
              sizeof(NsConfigWire) == 40);

/// One NSLIST reply row's fixed part (follows u8 name_len | name).
struct NsRowWire {
  std::uint8_t kind = 0;               ///< NsKind
  std::uint8_t decay_generations = 0;
  std::uint8_t reserved[6] = {};
  std::uint64_t elements = 0;
  std::uint64_t memory_bits = 0;
  std::uint64_t max_keys = 0;
  std::uint64_t max_memory_bytes = 0;
  std::uint64_t decay_ticks = 0;
  std::uint64_t quota_rejections = 0;
};
static_assert(std::is_trivially_copyable_v<NsRowWire> &&
              sizeof(NsRowWire) == 56);

inline void append_ns_create(std::string& out, std::string_view name,
                             const NsConfigWire& cfg) {
  append_ns_prefix(out, name);
  detail::append_pod(out, cfg);
}

[[nodiscard]] inline const char* parse_ns_create(std::string_view payload,
                                                 std::string_view& name,
                                                 NsConfigWire& cfg) {
  std::string_view rest;
  if (const char* err = parse_ns_prefix(payload, name, rest)) return err;
  detail::PayloadReader reader(rest);
  if (!reader.read(cfg)) return "nscreate: truncated config";
  if (!reader.exhausted()) return "nscreate: trailing bytes";
  if (cfg.kind > static_cast<std::uint8_t>(NsKind::kDurableDecay)) {
    return "nscreate: unknown backend kind";
  }
  return nullptr;
}

/// NSDROP / NSTICK request payload is exactly a namespace prefix.
[[nodiscard]] inline const char* parse_ns_drop(std::string_view payload,
                                               std::string_view& name) {
  std::string_view rest;
  if (const char* err = parse_ns_prefix(payload, name, rest)) return err;
  if (!rest.empty()) return "nsdrop: trailing bytes";
  return nullptr;
}

/// NSTICK response payload: the tick ordinal the forced decay rotation
/// produced (1-based, monotonic per namespace).
struct NsTickReply {
  std::uint64_t ticks = 0;
};
static_assert(std::is_trivially_copyable_v<NsTickReply> &&
              sizeof(NsTickReply) == 8);

/// One decoded NSLIST row.
struct NsRow {
  std::string name;
  NsRowWire info;
};

inline void append_ns_list_reply(std::string& out,
                                 std::span<const NsRow> rows) {
  if (rows.size() > kMaxNamespaces) {
    throw std::length_error("append_ns_list_reply: too many rows");
  }
  detail::append_pod<std::uint32_t>(
      out, static_cast<std::uint32_t>(rows.size()));
  for (const auto& row : rows) {
    append_ns_prefix(out, row.name);
    detail::append_pod(out, row.info);
  }
}

[[nodiscard]] inline const char* parse_ns_list_reply(
    std::string_view payload, std::vector<NsRow>& rows) {
  rows.clear();
  detail::PayloadReader reader(payload);
  std::uint32_t count = 0;
  if (!reader.read(count)) return "nslist reply: truncated count";
  if (count > kMaxNamespaces) return "nslist reply: count over cap";
  // Each row needs at least its name length byte plus the fixed part.
  if (payload.size() <
      sizeof(std::uint32_t) + (1 + sizeof(NsRowWire)) * std::size_t{count}) {
    return "nslist reply: count exceeds payload";
  }
  rows.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    std::uint8_t len = 0;
    if (!reader.read(len)) return "nslist reply: truncated name length";
    std::string_view name;
    if (!reader.read_view(len, name)) return "nslist reply: truncated name";
    if (!namespace_name_valid(name)) return "nslist reply: invalid name";
    NsRow row;
    row.name.assign(name);
    if (!reader.read(row.info)) return "nslist reply: truncated row";
    rows.push_back(std::move(row));
  }
  if (!reader.exhausted()) return "nslist reply: trailing bytes";
  return nullptr;
}

inline void append_replicate_reply(
    std::string& out, const ReplicateInfo& info,
    std::span<const io::JournalRecord> records) {
  if (records.size() > kMaxReplicateRecords) {
    throw std::length_error("append_replicate_reply: too many records");
  }
  ReplicateInfo header = info;
  header.count = static_cast<std::uint32_t>(records.size());
  detail::append_pod(out, header);
  for (const auto& rec : records) {
    if (rec.key.size() > io::Journal::kMaxKeyLen) {
      throw std::length_error("append_replicate_reply: key too long");
    }
    detail::append_pod<std::uint64_t>(out, rec.seq);
    detail::append_pod<std::uint8_t>(out,
                                     static_cast<std::uint8_t>(rec.op));
    detail::append_pod<std::uint32_t>(
        out, static_cast<std::uint32_t>(rec.key.size()));
    out.append(rec.key);
  }
}

/// Parses a REPLICATE reply. Caps and structural bounds are enforced
/// before the record vector grows; records must carry consecutive
/// sequence numbers (a gap means the stream is not a journal suffix and
/// must be rejected, not applied). Returns nullptr on success.
[[nodiscard]] inline const char* parse_replicate_reply(
    std::string_view payload, ReplicateInfo& info,
    std::vector<io::JournalRecord>& records) {
  records.clear();
  detail::PayloadReader reader(payload);
  if (!reader.read(info)) return "replicate reply: truncated header";
  if (info.count > kMaxReplicateRecords) {
    return "replicate reply: record count over cap";
  }
  // Each record needs at least 13 bytes (seq + op + key_len): a cheap
  // structural bound that rejects absurd counts before reserve().
  if (payload.size() < sizeof(ReplicateInfo) + 13 * std::size_t{info.count}) {
    return "replicate reply: count exceeds payload";
  }
  records.reserve(info.count);
  for (std::uint32_t i = 0; i < info.count; ++i) {
    io::JournalRecord rec;
    std::uint8_t op = 0;
    std::uint32_t len = 0;
    if (!reader.read(rec.seq)) return "replicate reply: truncated seq";
    if (!reader.read(op)) return "replicate reply: truncated op";
    if (!reader.read(len)) return "replicate reply: truncated key length";
    if (op > io::kMaxJournalOp) return "replicate reply: unknown journal op";
    if (len > io::Journal::kMaxKeyLen) {
      return "replicate reply: key length over cap";
    }
    std::string_view key;
    if (!reader.read_view(len, key)) {
      return "replicate reply: truncated key";
    }
    if (!records.empty() && rec.seq != records.back().seq + 1) {
      return "replicate reply: non-consecutive sequence numbers";
    }
    rec.op = static_cast<io::JournalOp>(op);
    rec.key.assign(key);
    records.push_back(std::move(rec));
  }
  if (!reader.exhausted()) return "replicate reply: trailing bytes";
  return nullptr;
}

inline void append_snapfetch_reply(std::string& out,
                                   const SnapFetchInfo& info,
                                   std::string_view bytes) {
  if (bytes.size() > kMaxSnapChunk) {
    throw std::length_error("append_snapfetch_reply: chunk too large");
  }
  SnapFetchInfo header = info;
  header.len = static_cast<std::uint32_t>(bytes.size());
  detail::append_pod(out, header);
  out.append(bytes);
}

/// Parses a SNAPFETCH reply; `bytes` views into `payload`. Returns
/// nullptr on success.
[[nodiscard]] inline const char* parse_snapfetch_reply(
    std::string_view payload, SnapFetchInfo& info,
    std::string_view& bytes) {
  detail::PayloadReader reader(payload);
  if (!reader.read(info)) return "snapfetch reply: truncated header";
  if (info.len > kMaxSnapChunk) return "snapfetch reply: chunk over cap";
  if (info.total_bytes > kMaxSnapshotBytes) {
    return "snapfetch reply: image over cap";
  }
  if (info.offset > info.total_bytes ||
      info.len > info.total_bytes - info.offset) {
    return "snapfetch reply: chunk outside image";
  }
  if (!reader.read_view(info.len, bytes)) {
    return "snapfetch reply: truncated bytes";
  }
  if (!reader.exhausted()) return "snapfetch reply: trailing bytes";
  return nullptr;
}

template <typename Key>
inline void append_sequenced_key_batch(std::string& out,
                                       const SequencePrefix& prefix,
                                       std::span<const Key> keys) {
  detail::append_pod(out, prefix);
  append_key_batch(out, keys);
}

/// Splits a kFlagSequenced mutation payload into its SequencePrefix and
/// the key batch that follows. Returns nullptr on success.
[[nodiscard]] inline const char* parse_sequenced_key_batch(
    std::string_view payload, SequencePrefix& prefix,
    std::vector<std::string_view>& keys) {
  if (payload.size() < sizeof(SequencePrefix)) {
    return "sequenced batch: truncated prefix";
  }
  std::memcpy(&prefix, payload.data(), sizeof prefix);
  return parse_key_batch(payload.substr(sizeof prefix), keys);
}

template <typename Reply>
inline void append_reply_pod(std::string& out, const Reply& reply) {
  static_assert(std::is_trivially_copyable_v<Reply>);
  detail::append_pod(out, reply);
}

template <typename Reply>
[[nodiscard]] inline const char* parse_reply_pod(std::string_view payload,
                                                 Reply& out) {
  static_assert(std::is_trivially_copyable_v<Reply>);
  detail::PayloadReader reader(payload);
  if (!reader.read(out)) return "reply: truncated";
  if (!reader.exhausted()) return "reply: trailing bytes";
  return nullptr;
}

// --- error payload ------------------------------------------------------

inline void append_error(std::string& out, ErrorCode code,
                         std::string_view message) {
  detail::append_pod<std::uint32_t>(out,
                                    static_cast<std::uint32_t>(code));
  const auto len = static_cast<std::uint32_t>(
      std::min<std::size_t>(message.size(), 512));
  detail::append_pod<std::uint32_t>(out, len);
  out.append(message.data(), len);
}

struct WireError {
  ErrorCode code = ErrorCode::kInternal;
  std::string message;
};

[[nodiscard]] inline const char* parse_error(std::string_view payload,
                                             WireError& out) {
  detail::PayloadReader reader(payload);
  std::uint32_t code = 0;
  std::uint32_t len = 0;
  if (!reader.read(code)) return "error reply: truncated code";
  if (!reader.read(len)) return "error reply: truncated length";
  if (len > 512) return "error reply: message over cap";
  std::string_view msg;
  if (!reader.read_view(len, msg)) return "error reply: truncated message";
  out.code = static_cast<ErrorCode>(code);
  out.message.assign(msg);
  return nullptr;
}

}  // namespace mpcbf::net
