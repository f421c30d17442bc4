// Blocking client for mpcbfd (net/server.hpp).
//
// One Client owns one TCP connection and is a strict request/response
// state machine — not thread-safe; give each thread its own Client (the
// server pins each connection to one worker, so N clients also spread
// load across workers). connect() retries with jittered exponential
// backoff under a total deadline budget; per-operation send/receive
// deadlines come from SO_SNDTIMEO/RCVTIMEO.
//
// The batching API is the intended hot path: a query([...64 keys...])
// costs one frame each way and runs the server's word-engine batch
// pipeline, amortizing the syscall + parse overhead that dominates
// 1-key requests (bench/bench_server.cpp measures the gap).
//
// FailoverClient wraps N endpoints: on a transport failure (or a
// kShuttingDown reply) it rotates to the next endpoint, again with
// jittered exponential backoff under a per-operation deadline.
// Idempotent ops (QUERY/STATS/HEALTH/REPLSTATUS) retry freely;
// mutations are retried safely because every INSERT/ERASE carries a
// (session_id, op_seq) SequencePrefix the server dedups — a batch that
// was applied before the connection died is replayed from the server's
// reply cache, not applied twice.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <optional>
#include <random>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "net/protocol.hpp"
#include "net/socket.hpp"

namespace mpcbf::net {

/// Jittered exponential backoff ("equal jitter": half deterministic,
/// half uniform). A non-zero seed gives a deterministic xorshift
/// stream so tests can reproduce schedules; seed 0 draws per-instance
/// entropy — jitter exists to decorrelate a fleet's retries, and a
/// shared fixed stream would march every default-configured client
/// through identical schedules on a mass reconnect. next() doubles the
/// base up to `max`.
class Backoff {
 public:
  Backoff(std::chrono::milliseconds initial,
          std::chrono::milliseconds max, std::uint64_t seed) noexcept
      : initial_(initial), max_(max), cur_(initial),
        state_(seed != 0 ? seed : entropy_seed()) {}

  /// A never-zero per-instance seed from std::random_device.
  [[nodiscard]] static std::uint64_t entropy_seed() noexcept {
    std::random_device rd;
    const std::uint64_t s =
        (static_cast<std::uint64_t>(rd()) << 32) ^ rd();
    return s != 0 ? s : 0x9E3779B97F4A7C15ull;
  }

  [[nodiscard]] std::chrono::milliseconds next() noexcept {
    const std::int64_t base = std::max<std::int64_t>(cur_.count(), 1);
    cur_ = std::min(max_, cur_ * 2);
    state_ ^= state_ << 13;
    state_ ^= state_ >> 7;
    state_ ^= state_ << 17;
    const std::int64_t half = base / 2;
    return std::chrono::milliseconds(
        half + static_cast<std::int64_t>(state_ % (base - half + 1)));
  }

  void reset() noexcept { cur_ = initial_; }

 private:
  std::chrono::milliseconds initial_;
  std::chrono::milliseconds max_;
  std::chrono::milliseconds cur_;
  std::uint64_t state_;
};

/// The server answered with a well-formed error reply (the transport is
/// intact; NetError covers transport failures).
class RemoteError : public NetError {
 public:
  RemoteError(ErrorCode code, const std::string& message)
      : NetError("server error " +
                 std::to_string(static_cast<std::uint32_t>(code)) + ": " +
                 message),
        code_(code) {}
  [[nodiscard]] ErrorCode code() const noexcept { return code_; }

 private:
  ErrorCode code_;
};

class Client {
 public:
  struct Options {
    std::string host = "127.0.0.1";
    std::uint16_t port = 0;
    /// Total budget for connect() retries (covers a server that is
    /// still binding its port when the client races it). Attempts are
    /// spaced by jittered exponential backoff; the budget, not an
    /// attempt count, decides when to give up.
    std::chrono::milliseconds connect_deadline{2000};
    std::chrono::milliseconds initial_backoff{20};
    std::chrono::milliseconds max_backoff{500};
    /// Jitter stream seed; 0 (the default) draws fresh per-instance
    /// entropy so fleet retries stay decorrelated. Set non-zero for a
    /// reproducible schedule in tests.
    std::uint64_t backoff_seed = 0;
    /// Per-syscall send/receive deadline.
    std::chrono::milliseconds io_timeout{5000};
    /// Stamp every request with a kFlagTraced 8-byte trace-id prefix so
    /// the server's request span, slow-request record and log line
    /// correlate back to this client. On by default — the cost is 8
    /// payload bytes per request.
    bool stamp_trace_ids = true;
    /// Trace-id stream seed; 0 (the default) draws per-instance entropy.
    /// Set non-zero for reproducible ids in tests.
    std::uint64_t trace_seed = 0;
  };

  explicit Client(Options options) : options_(std::move(options)) {}
  ~Client() = default;
  Client(Client&&) = default;
  Client& operator=(Client&&) = default;

  /// Connects (with retry/backoff). Throws NetError after the last
  /// failed attempt. Idempotent once connected.
  void connect();

  [[nodiscard]] bool connected() const noexcept { return sock_.valid(); }
  void close() noexcept { sock_.close(); }

  // --- batched filter ops (auto-connect) --------------------------------

  /// Membership verdicts, one byte per key (1 = positive).
  std::vector<std::uint8_t> query(std::span<const std::string> keys);
  std::vector<std::uint8_t> query(std::span<const std::string_view> keys);

  /// Inserts; ok[i] mirrors the server-side insert return value.
  std::vector<std::uint8_t> insert(std::span<const std::string> keys);
  std::vector<std::uint8_t> insert(std::span<const std::string_view> keys);

  /// Erases; ok[i] false for keys whose counters underflowed.
  std::vector<std::uint8_t> erase(std::span<const std::string> keys);
  std::vector<std::uint8_t> erase(std::span<const std::string_view> keys);

  /// Min-counter occurrence estimates, one u32 per key (0 = definitely
  /// absent; counting-filter semantics otherwise: never under the true
  /// multiplicity except after saturation clamps).
  std::vector<std::uint32_t> est_count(std::span<const std::string> keys);
  std::vector<std::uint32_t> est_count(
      std::span<const std::string_view> keys);

  // --- namespaces -------------------------------------------------------

  /// Scopes every subsequent filter op (query/insert/erase/est_count)
  /// and per-filter admin op (stats/health/snapshot) to a server-side
  /// namespace: frames gain kFlagNamespaced and a name prefix. An empty
  /// name reverts to the server's default (un-namespaced) filter.
  void set_namespace(std::string name) { ns_ = std::move(name); }
  [[nodiscard]] const std::string& current_namespace() const noexcept {
    return ns_;
  }

  /// Creates a namespace; throws RemoteError (kNamespaceExists,
  /// kQuotaExceeded, ...) on rejection.
  void ns_create(std::string_view name, const NsConfigWire& cfg);
  /// Drops a namespace and its durable directory.
  void ns_drop(std::string_view name);
  /// All namespaces, name-sorted.
  [[nodiscard]] std::vector<NsRow> ns_list();
  /// Forces one decay tick; returns the namespace's new tick ordinal.
  std::uint64_t ns_tick(std::string_view name);

  // --- admin ops --------------------------------------------------------

  [[nodiscard]] StatsReply stats();
  [[nodiscard]] HealthReply health();
  /// Asks the server to publish a durable snapshot; returns the journal
  /// watermark. Throws RemoteError(kUnsupported) on memory-only servers.
  std::uint64_t snapshot();

  // --- replication ops (durable servers only) ---------------------------
  // Scoped like the data ops: a client with a namespace set reaches
  // that tenant's journal and snapshot, not the default backend's.

  /// Pulls one page of journal records; `records` receives the page.
  ReplicateInfo replicate(const ReplicateRequest& req,
                          std::vector<io::JournalRecord>& records);
  /// Fetches one chunk of the primary's consistent snapshot image.
  SnapFetchInfo snap_fetch(const SnapFetchRequest& req, std::string& bytes);
  [[nodiscard]] ReplStatusReply repl_status();

  /// One round trip: frames `payload`, sends, reads the matching
  /// response frame (id-checked), throws RemoteError on error replies.
  /// Returns the response payload. Public so wrappers (FailoverClient)
  /// can send flagged frames. `trace_id` overrides the auto-stamped id
  /// (retries of one logical op resend the same id); 0 means "stamp per
  /// Options::stamp_trace_ids".
  std::string round_trip(Opcode op, std::string_view payload,
                         std::uint8_t flags = 0,
                         std::uint64_t trace_id = 0);

  /// Trace id stamped on the most recent request (0 when stamping is
  /// off) — what to grep for in the server's log and /tracez.
  [[nodiscard]] std::uint64_t last_trace_id() const noexcept {
    return last_trace_id_;
  }

 private:
  template <typename Key>
  std::vector<std::uint8_t> batch_op(Opcode op, std::span<const Key> keys);
  template <typename Key>
  std::vector<std::uint32_t> count_op(std::span<const Key> keys);

  /// Starts a request payload: the namespace prefix when scoped (also
  /// setting kFlagNamespaced in `flags`), else empty.
  std::string scoped_payload(std::uint8_t& flags) const;

  std::uint64_t next_trace_id() noexcept;

  Options options_;
  std::string ns_;
  Socket sock_;
  std::uint64_t next_id_ = 1;
  std::uint64_t trace_state_ = 0;
  std::uint64_t last_trace_id_ = 0;
  std::string sendbuf_;
  std::string tracebuf_;
  std::string recvbuf_;
};

/// One server address a FailoverClient may talk to.
struct Endpoint {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;
};

/// Multi-endpoint client with automatic failover. Not thread-safe, like
/// Client. Endpoint rotation triggers on transport failures (NetError)
/// and kShuttingDown replies; every other RemoteError is authoritative
/// (the server answered) and is rethrown immediately. Mutations carry a
/// SequencePrefix so a retry after failover-to-the-same-node can never
/// double-apply; note that across *distinct* nodes the dedup cache is
/// per-server — point the endpoint list at one replication group.
class FailoverClient {
 public:
  struct Options {
    std::vector<Endpoint> endpoints;
    /// Total budget for one logical operation across all retries.
    std::chrono::milliseconds op_deadline{10000};
    std::chrono::milliseconds initial_backoff{20};
    std::chrono::milliseconds max_backoff{1000};
    /// Per-endpoint connect budget; keep it well under op_deadline so
    /// a dead endpoint cannot eat the whole budget.
    std::chrono::milliseconds connect_deadline{500};
    std::chrono::milliseconds io_timeout{2000};
    /// Dedup session id; 0 = derived from std::random_device.
    std::uint64_t session_id = 0;
    std::uint64_t backoff_seed = 0;
    /// Stamp one trace id per *logical* operation — every failover
    /// retry of that operation resends the same id, mirroring op_seq.
    bool stamp_trace_ids = true;
  };

  explicit FailoverClient(Options options);

  std::vector<std::uint8_t> query(std::span<const std::string> keys);
  std::vector<std::uint8_t> query(std::span<const std::string_view> keys);
  std::vector<std::uint8_t> insert(std::span<const std::string> keys);
  std::vector<std::uint8_t> insert(std::span<const std::string_view> keys);
  std::vector<std::uint8_t> erase(std::span<const std::string> keys);
  std::vector<std::uint8_t> erase(std::span<const std::string_view> keys);
  [[nodiscard]] StatsReply stats();
  [[nodiscard]] HealthReply health();
  [[nodiscard]] ReplStatusReply repl_status();

  /// Index into Options::endpoints the next operation will try first.
  [[nodiscard]] std::size_t active_endpoint() const noexcept {
    return active_;
  }
  /// Endpoint rotations forced by failures so far.
  [[nodiscard]] std::uint64_t failovers() const noexcept {
    return failovers_;
  }
  [[nodiscard]] std::uint64_t session_id() const noexcept {
    return session_id_;
  }
  /// Trace id stamped on the most recent query/insert/erase (all its
  /// retries share it); 0 before the first op or with stamping off.
  [[nodiscard]] std::uint64_t last_trace_id() const noexcept {
    return last_trace_id_;
  }

 private:
  Client& ensure_client();
  void rotate();
  std::uint64_t next_trace_id() noexcept;
  template <typename Fn>
  auto with_failover(Fn&& fn) -> decltype(fn(std::declval<Client&>()));
  template <typename Key>
  std::vector<std::uint8_t> mutate(Opcode op, std::span<const Key> keys);
  template <typename Key>
  std::vector<std::uint8_t> query_impl(std::span<const Key> keys);

  Options options_;
  std::optional<Client> client_;
  std::size_t active_ = 0;
  std::uint64_t failovers_ = 0;
  std::uint64_t session_id_ = 0;
  std::uint64_t next_op_seq_ = 0;
  std::uint64_t trace_state_ = 0;
  std::uint64_t last_trace_id_ = 0;
};

}  // namespace mpcbf::net
