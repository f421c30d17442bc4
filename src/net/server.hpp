// mpcbfd — the multi-threaded TCP filter server.
//
// Two ownership models share one wire protocol (docs/server.md has the
// operator view):
//
// Flat (`--cores 1`, the bisectable baseline): every worker serves every
// request against one FilterBackend whose hooks serialize through a
// shared_mutex — queries shared, mutations exclusive.
//
//   acceptor ──round-robin──▶ N worker event loops (epoll)
//                               │ decode → dispatch → encode
//                               ▼
//                       FilterBackend (type-erased)
//                               │ shared_mutex
//                               ▼
//             Mpcbf / DurableMpcbf / ShardedMpcbf batch paths
//
// Shared-nothing (`--cores N`): the key space is partitioned across N
// shards, each owned outright by one worker thread — its filter words,
// WAL segment, health prober and shard metrics are touched by that
// thread only, so the data path holds zero shared locks. Routing
// happens at decode time (protocol.hpp::shard_of): a parsed batch is
// split into per-shard sub-batches; keys owned by the decoding worker
// are served in place, the rest travel to their owners over lossless
// SPSC rings (spsc_ring.hpp) and the completions ride the reverse
// rings, eventfd-woken. A per-connection reply pipeline reassembles
// responses in request order, so the wire protocol is byte-identical to
// the flat server.
//
//   acceptor ──round-robin──▶ N worker event loops (epoll)
//                               │ decode → shard split
//                  ┌────────────┼─ SPSC work/completion rings ─┐
//                  ▼            ▼                              ▼
//             ShardBackend 0  ShardBackend 1  …  ShardBackend N-1
//             (worker 0 only) (worker 1 only)    (worker N-1 only)
//
// Request pipelining: a connection may send any number of frames without
// waiting; responses are emitted in arrival order (flat mode appends
// directly; sharded mode orders completions through the reply pipeline)
// — ordering needs no sequence bookkeeping beyond the echoed request id.
//
// Batches decode to string_views into the connection's read buffer and
// feed the word-engine batch pipeline directly (no per-key allocation on
// the flat path or the sharded all-local fast path; a cross-shard
// scatter copies the key bytes once into the request's own storage,
// because the read buffer may be compacted while sub-batches are still
// in flight).
//
// Shutdown: stop() closes the listener, lets every worker finish the
// requests already buffered, flushes response bytes (bounded by
// Options::drain_timeout), then joins. Sharded workers additionally
// keep serving ring work for their peers until every origin has
// finished, so no in-flight sub-batch is dropped, and flush their WAL
// segment before exiting; stop() then writes the per-shard snapshots +
// manifest through the ShardSet hooks.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <span>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/thread_pool.hpp"
#include "metrics/health.hpp"
#include "metrics/registry.hpp"
#include "net/event_loop.hpp"
#include "net/protocol.hpp"
#include "net/slow_ring.hpp"
#include "net/socket.hpp"
#include "net/spsc_ring.hpp"

namespace mpcbf::net {

class NamespaceRegistry;

/// Type-erased filter backend — the serving-layer sibling of
/// bench_common.hpp's FilterHandle. Batch hooks receive key views into
/// the connection's read buffer and write one verdict/ok byte per key.
/// A null hook makes the server answer that opcode with kUnsupported.
struct FilterBackend {
  std::function<void(std::span<const std::string_view>,
                     std::span<std::uint8_t>)>
      contains_batch;
  std::function<void(std::span<const std::string_view>,
                     std::span<std::uint8_t>)>
      insert_batch;
  std::function<void(std::span<const std::string_view>,
                     std::span<std::uint8_t>)>
      erase_batch;
  /// EST_COUNT: per-key min-counter frequency estimate. Null when the
  /// wrapped filter has no count() (plain Bloom semantics).
  std::function<void(std::span<const std::string_view>,
                     std::span<std::uint32_t>)>
      est_count;
  /// Pre-insert quota gate: given the incoming batch size, returns a
  /// static error reason when admitting it would breach the namespace's
  /// key quota, nullptr to admit. Checked before insert_batch so a
  /// quota breach is a clean wire-level rejection (kQuotaExceeded), not
  /// a half-applied batch. Null = no quota (the default backend).
  std::function<const char*(std::size_t incoming_keys)> admit;
  std::function<StatsReply()> stats;
  /// Probes the filter's health (HealthProber-backed); the server fills
  /// in the `ready` bit itself.
  std::function<HealthReply()> health;
  /// Forces a durable snapshot; returns the journal watermark. Null for
  /// memory-only backends.
  std::function<std::uint64_t()> snapshot;
  /// Serves one REPLICATE request: appends the complete reply payload
  /// to the string, or returns a static error reason. Null for
  /// memory-only backends.
  std::function<const char*(const ReplicateRequest&, std::string&)>
      replicate;
  /// Serves one SNAPFETCH request (chunked consistent snapshot image).
  std::function<const char*(const SnapFetchRequest&, std::string&)>
      snap_fetch;
  /// Replication role + watermarks for REPLSTATUS.
  std::function<ReplStatusReply()> repl_status;
  /// Optional readiness veto ANDed into the HEALTH ready bit — a
  /// follower keeps it false until it has caught up to its primary.
  std::function<bool()> ready;
};

namespace detail {

/// Layout/usage stats probed off a concrete filter (members are probed,
/// not required — the publish_filter idiom). Shared by the flat and
/// per-shard backend factories.
template <typename F>
[[nodiscard]] StatsReply probe_stats(const F& f) {
  StatsReply s;
  s.elements = f.size();
  // DurableMpcbf exposes layout through its in-memory filter; probe
  // the inner filter when one exists, the wrapped object otherwise.
  const auto& t = [&]() -> const auto& {
    if constexpr (requires { f.filter(); }) {
      return f.filter();
    } else {
      return f;
    }
  }();
  if constexpr (requires { t.memory_bits(); }) {
    s.memory_bits = t.memory_bits();
  }
  if constexpr (requires { t.k(); t.g(); }) {
    s.k = t.k();
    s.g = t.g();
  }
  if constexpr (requires { t.b1(); t.n_max(); }) {
    s.b1 = t.b1();
    s.n_max = t.n_max();
  }
  if constexpr (requires { t.stash_size(); }) {
    s.stash_entries = t.stash_size();
  }
  if constexpr (requires { t.overflow_events(); }) {
    s.overflow_events = t.overflow_events();
  }
  if constexpr (requires { t.underflow_events(); }) {
    s.underflow_events = t.underflow_events();
  }
  return s;
}

/// Health probe off a concrete filter via a HealthProber. The caller
/// owns filling the `ready` bit.
template <typename F>
[[nodiscard]] HealthReply probe_health(metrics::HealthProber& prober,
                                       const F& f) {
  const auto& probe_target = [&]() -> const auto& {
    // DurableMpcbf is probed through its in-memory filter; everything
    // else is probed directly.
    if constexpr (requires { f.filter(); }) {
      return f.filter();
    } else {
      return f;
    }
  }();
  const metrics::HealthSample s = prober.probe(probe_target);
  HealthReply r;
  r.severity = static_cast<std::uint8_t>(s.severity);
  r.saturation_score = s.saturation_score;
  r.level1_fill = s.level1_fill;
  r.measured_fpr = s.measured_fpr;
  r.fpr_drift = s.fpr_drift;
  r.elements = s.elements;
  return r;
}

/// Primary-side replication bookkeeping shared by the make_backend
/// hooks: the cached consistent snapshot image SNAPFETCH serves, and
/// the per-follower acked watermarks REPLICATE maintains.
struct ReplSource {
  std::mutex mu;
  std::string snap_image;
  std::uint64_t snap_watermark = 0;
  bool snap_valid = false;
  std::unordered_map<std::uint64_t, std::uint64_t> acked;  // follower→seq

  /// Updates the follower table and the fleet lag gauges; call with a
  /// fresh view of the journal's next sequence number.
  void note_follower(std::uint64_t follower_id, std::uint64_t acked_seq,
                     std::uint64_t next_seq) {
    std::lock_guard<std::mutex> lock(mu);
    acked[follower_id] = acked_seq;
    std::uint64_t min_acked = next_seq - 1;
    for (const auto& [id, seq] : acked) {
      min_acked = std::min(min_acked, seq);
    }
    auto& reg = metrics::Registry::global();
    reg.gauge("mpcbf_server_replication_followers",
              "Followers that have polled REPLICATE")
        .set(static_cast<double>(acked.size()));
    reg.gauge("mpcbf_server_replication_min_acked_seq",
              "Slowest follower's acked journal sequence")
        .set(static_cast<double>(min_acked));
    reg.gauge("mpcbf_server_replication_lag_records",
              "Journal records not yet acked by every follower")
        .set(static_cast<double>(next_seq - 1 - min_acked));
  }

  [[nodiscard]] ReplStatusReply status(std::uint64_t next_seq) {
    std::lock_guard<std::mutex> lock(mu);
    ReplStatusReply r;
    r.role = static_cast<std::uint8_t>(ReplRole::kPrimary);
    r.next_seq = next_seq;
    r.acked_seq = next_seq - 1;
    r.followers = acked.size();
    std::uint64_t min_acked = next_seq - 1;
    for (const auto& [id, seq] : acked) {
      min_acked = std::min(min_acked, seq);
    }
    r.min_acked_seq = min_acked;
    r.lag_records = next_seq - 1 - min_acked;
    r.caught_up = r.lag_records == 0 ? 1 : 0;
    return r;
  }
};

/// An ERASE frame's keys: through the filter's own erase_batch pipeline
/// where it has one (Mpcbf), otherwise a scalar erase loop. Both give
/// the same verdicts, state and stats.
template <typename F>
void erase_batch(F& f, std::span<const std::string_view> keys,
                 std::span<std::uint8_t> ok) {
  if constexpr (requires { f.erase_batch(keys, ok); }) {
    f.erase_batch(keys, ok);
  } else {
    for (std::size_t i = 0; i < keys.size(); ++i) {
      ok[i] = f.erase(keys[i]) ? 1 : 0;
    }
  }
}

}  // namespace detail

/// Wraps a concrete filter in a FilterBackend. Works with Mpcbf,
/// DurableMpcbf and ShardedMpcbf (members are probed, not required —
/// the publish_filter idiom). All request classes are serialized
/// through one shared_mutex: queries/stats/health take it shared,
/// mutations and snapshots exclusive, matching the filters' "const
/// queries are concurrent-safe, mutations are not" contract. Pass the
/// mutex explicitly when another actor (a follower's Replicator)
/// mutates the filter outside the server's request path and must share
/// the same exclusion.
template <typename F>
[[nodiscard]] FilterBackend make_backend(
    std::shared_ptr<F> f, std::shared_ptr<std::shared_mutex> mu,
    std::size_t health_fpr_probes = 512,
    std::string filter_label = "server") {
  auto prober = std::make_shared<metrics::HealthProber>([&] {
    metrics::HealthProber::Config cfg;
    cfg.filter_label = std::move(filter_label);
    cfg.fpr_probes = health_fpr_probes;
    return cfg;
  }());
  FilterBackend b;
  b.contains_batch = [f, mu](std::span<const std::string_view> keys,
                             std::span<std::uint8_t> out) {
    std::shared_lock lock(*mu);
    f->contains_batch(keys, out);
  };
  b.insert_batch = [f, mu](std::span<const std::string_view> keys,
                           std::span<std::uint8_t> ok) {
    std::unique_lock lock(*mu);
    f->insert_batch(keys, ok);
  };
  b.erase_batch = [f, mu](std::span<const std::string_view> keys,
                          std::span<std::uint8_t> ok) {
    std::unique_lock lock(*mu);
    detail::erase_batch(*f, keys, ok);
  };
  if constexpr (requires {
                  { f->count(std::string_view{}) }
                  -> std::convertible_to<std::uint32_t>;
                }) {
    b.est_count = [f, mu](std::span<const std::string_view> keys,
                          std::span<std::uint32_t> out) {
      std::shared_lock lock(*mu);
      for (std::size_t i = 0; i < keys.size(); ++i) {
        out[i] = f->count(keys[i]);
      }
    };
  }
  b.stats = [f, mu]() {
    std::shared_lock lock(*mu);
    return detail::probe_stats(*f);
  };
  b.health = [f, mu, prober]() {
    std::shared_lock lock(*mu);
    return detail::probe_health(*prober, *f);
  };
  if constexpr (requires { f->snapshot(); f->next_seq(); }) {
    b.snapshot = [f, mu]() {
      std::unique_lock lock(*mu);
      f->snapshot();
      return f->next_seq() - 1;
    };
  }
  // Durable backends (journal + serializable snapshot) can act as a
  // replication primary: REPLICATE streams journal records, SNAPFETCH
  // serves a cached consistent snapshot image, REPLSTATUS reports fleet
  // watermarks. Lock order: the filter mutex and the ReplSource mutex
  // are never held together in the replicate hook, and snap_fetch
  // acquires ReplSource → filter only, so there is no cycle.
  if constexpr (requires {
                  f->journal_records_from(std::uint64_t{0},
                                          std::uint32_t{0},
                                          std::uint64_t{0});
                  f->serialize_snapshot();
                }) {
    auto repl = std::make_shared<detail::ReplSource>();
    b.replicate = [f, mu, repl](const ReplicateRequest& req,
                                std::string& out) -> const char* {
      const std::uint32_t max_records =
          std::min(req.max_records != 0 ? req.max_records
                                        : kMaxReplicateRecords,
                   kMaxReplicateRecords);
      const std::uint64_t max_bytes = std::min<std::uint64_t>(
          req.max_bytes != 0 ? req.max_bytes : (1u << 20),
          kMaxPayload / 2);
      typename F::ReplicationBatch batch;
      {
        // Exclusive: journal_records_from may flush buffered appends.
        std::unique_lock lock(*mu);
        batch = f->journal_records_from(req.from_seq, max_records,
                                        max_bytes);
      }
      ReplicateInfo info;
      info.next_seq = batch.next_seq;
      info.base_seq = batch.base_seq;
      info.need_snapshot = req.from_seq < batch.base_seq ? 1 : 0;
      if (info.need_snapshot != 0) batch.records.clear();
      append_replicate_reply(out, info, batch.records);
      repl->note_follower(req.follower_id,
                          req.from_seq > 0 ? req.from_seq - 1 : 0,
                          batch.next_seq);
      return nullptr;
    };
    b.snap_fetch = [f, mu, repl](const SnapFetchRequest& req,
                                 std::string& out) -> const char* {
      const std::uint32_t max_bytes = std::min(
          req.max_bytes != 0 ? req.max_bytes : (1u << 20), kMaxSnapChunk);
      std::lock_guard<std::mutex> guard(repl->mu);
      if (req.offset == 0 || !repl->snap_valid) {
        if (req.offset != 0) {
          // A mid-fetch request with no cached image cannot be served
          // consistently; the follower restarts from offset 0.
          return "snapfetch: no cached image for nonzero offset";
        }
        std::unique_lock lock(*mu);
        auto [image, watermark] = f->serialize_snapshot();
        repl->snap_image = std::move(image);
        repl->snap_watermark = watermark;
        repl->snap_valid = true;
      }
      if (req.offset > repl->snap_image.size()) {
        return "snapfetch: offset beyond image";
      }
      SnapFetchInfo info;
      info.watermark = repl->snap_watermark;
      info.total_bytes = repl->snap_image.size();
      info.offset = req.offset;
      const std::size_t len = std::min<std::size_t>(
          max_bytes, repl->snap_image.size() - req.offset);
      append_snapfetch_reply(
          out, info,
          std::string_view(repl->snap_image).substr(req.offset, len));
      // The image cache exists only to keep one fetch consistent; drop
      // it once the follower has read past the end.
      if (req.offset + len >= repl->snap_image.size()) {
        repl->snap_valid = false;
        repl->snap_image.clear();
        repl->snap_image.shrink_to_fit();
      }
      return nullptr;
    };
    b.repl_status = [f, mu, repl]() {
      std::uint64_t next_seq = 1;
      {
        std::shared_lock lock(*mu);
        next_seq = f->next_seq();
      }
      return repl->status(next_seq);
    };
  }
  return b;
}

template <typename F>
[[nodiscard]] FilterBackend make_backend(std::shared_ptr<F> f,
                                         std::size_t health_fpr_probes =
                                             512) {
  return make_backend(std::move(f),
                      std::make_shared<std::shared_mutex>(),
                      health_fpr_probes);
}

/// Sharded-ownership variant of FilterBackend: one per key-space shard,
/// every hook invoked exclusively by the worker thread that owns the
/// shard — which is why, unlike make_backend's hooks, none of them
/// takes a lock. Null hooks disable the corresponding opcode (the
/// server answers kUnsupported), mirroring FilterBackend semantics.
struct ShardBackend {
  std::function<void(std::span<const std::string_view>,
                     std::span<std::uint8_t>)>
      contains_batch;
  std::function<void(std::span<const std::string_view>,
                     std::span<std::uint8_t>)>
      insert_batch;
  std::function<void(std::span<const std::string_view>,
                     std::span<std::uint8_t>)>
      erase_batch;
  /// EST_COUNT against this shard's keys (min-counter estimate).
  std::function<void(std::span<const std::string_view>,
                     std::span<std::uint32_t>)>
      est_count;
  std::function<StatsReply()> stats;
  std::function<HealthReply()> health;
  /// Durable snapshot of this shard; returns its journal watermark
  /// (highest global seq captured). Null for memory-only shards.
  std::function<std::uint64_t()> snapshot;
  /// Forces this shard's WAL group-commit buffer to stable storage
  /// (drain path). Null for memory-only shards.
  std::function<void()> wal_flush;
  /// One page of this shard's journal tail from `from_seq` — the
  /// per-shard half of the merged replication stream.
  struct Tail {
    std::vector<io::JournalRecord> records;
    std::uint64_t next_seq = 1;
    std::uint64_t base_seq = 1;
  };
  std::function<Tail(std::uint64_t from_seq, std::uint32_t max_records,
                     std::uint64_t max_bytes)>
      journal_tail;
  /// Owner-thread housekeeping (elastic compaction step); invoked by
  /// the owning worker between request batches, never concurrently
  /// with the data hooks.
  std::function<void()> maintain;
};

/// The sharded server's backend: per-shard hooks plus the cross-shard
/// glue that cannot live in any single shard.
struct ShardSet {
  std::vector<ShardBackend> shards;
  /// Last globally assigned journal sequence number. Shared with every
  /// shard's DurableMpcbf seq_source; the server reads it for
  /// REPLSTATUS and the merged replication stream. Null for
  /// memory-only shard sets.
  std::shared_ptr<std::atomic<std::uint64_t>> seq_counter;
  /// Writes the merged final snapshot artifacts after all shards have
  /// snapshotted (one watermark per shard, in shard order): the
  /// shards.manifest file tying the per-shard snapshots into one
  /// recovery unit, plus a best-effort single-file merged filter.
  /// Called by at most one thread at a time.
  std::function<void(std::span<const std::uint64_t>)> manifest;
};

/// Wraps one concrete filter shard in a ShardBackend. No mutex
/// parameter on purpose: the owning worker thread is the only caller.
template <typename F>
[[nodiscard]] ShardBackend make_shard_backend(
    std::shared_ptr<F> f, std::size_t shard_index,
    std::size_t health_fpr_probes = 512) {
  auto prober = std::make_shared<metrics::HealthProber>([&] {
    metrics::HealthProber::Config cfg;
    cfg.filter_label = "shard-" + std::to_string(shard_index);
    cfg.fpr_probes = health_fpr_probes;
    return cfg;
  }());
  ShardBackend b;
  b.contains_batch = [f](std::span<const std::string_view> keys,
                         std::span<std::uint8_t> out) {
    f->contains_batch(keys, out);
  };
  b.insert_batch = [f](std::span<const std::string_view> keys,
                       std::span<std::uint8_t> ok) {
    f->insert_batch(keys, ok);
  };
  b.erase_batch = [f](std::span<const std::string_view> keys,
                      std::span<std::uint8_t> ok) {
    detail::erase_batch(*f, keys, ok);
  };
  if constexpr (requires {
                  { f->count(std::string_view{}) }
                  -> std::convertible_to<std::uint32_t>;
                }) {
    b.est_count = [f](std::span<const std::string_view> keys,
                      std::span<std::uint32_t> out) {
      for (std::size_t i = 0; i < keys.size(); ++i) {
        out[i] = f->count(keys[i]);
      }
    };
  }
  b.stats = [f]() { return detail::probe_stats(*f); };
  b.health = [f, prober]() { return detail::probe_health(*prober, *f); };
  if constexpr (requires { f->snapshot(); f->next_seq(); }) {
    b.snapshot = [f]() {
      f->snapshot();
      return f->next_seq() - 1;
    };
  }
  if constexpr (requires { f->flush(); }) {
    b.wal_flush = [f]() { f->flush(); };
  }
  if constexpr (requires {
                  f->journal_records_from(std::uint64_t{0},
                                          std::uint32_t{0},
                                          std::uint64_t{0});
                }) {
    b.journal_tail = [f](std::uint64_t from_seq, std::uint32_t max_records,
                         std::uint64_t max_bytes) {
      auto batch = f->journal_records_from(from_seq, max_records, max_bytes);
      ShardBackend::Tail t;
      t.records = std::move(batch.records);
      t.next_seq = batch.next_seq;
      t.base_seq = batch.base_seq;
      return t;
    };
  }
  if constexpr (requires { f->compact_once(); }) {
    b.maintain = [f]() { (void)f->compact_once(); };
  }
  return b;
}

class Server {
 public:
  /// Bytes one read(2) asks for. Large enough that a 64-key batch of
  /// short keys arrives in one syscall; small enough that a slow
  /// connection does not pin memory.
  static constexpr std::size_t kReadChunk = 64 * 1024;
  /// A read buffer may hold at most one maximal frame plus one read
  /// chunk of the next; a peer that streams more without ever
  /// completing a frame is hostile or broken and is closed as a
  /// protocol error.
  static constexpr std::size_t kMaxReadBuffer =
      kHeaderSize + kMaxPayload + kReadChunk;

  struct Options {
    std::string bind_address = "127.0.0.1";
    /// 0 = kernel-assigned ephemeral port; read back via port().
    std::uint16_t port = 0;
    /// Worker event loops (and ThreadPool threads). Each connection is
    /// pinned to one worker for its lifetime.
    std::size_t workers = 2;
    /// stop() flushes pending response bytes for at most this long.
    std::chrono::milliseconds drain_timeout{2000};
    /// A connection whose read buffer has held a partial frame for
    /// longer than this is closed (slow-loris defense) and counted in
    /// mpcbf_server_timeouts_total. 0 disables the sweep.
    std::chrono::milliseconds frame_timeout{30000};
    /// Requests served slower than this are captured in the
    /// slow-request ring (slow_ring()) and logged, rate-limited, with
    /// their trace id. Negative disables capture; 0 captures every
    /// request (tests, fine-grained debugging).
    std::chrono::microseconds slow_request_threshold{-1};
  };

  Server(FilterBackend backend, Options options);
  /// Shared-nothing server: one worker per shard, each owning its
  /// ShardBackend outright. Options::workers is overridden to the shard
  /// count (thread-per-core is the whole point).
  Server(ShardSet shards, Options options);
  ~Server();

  /// Attaches the multi-tenant namespace registry (flat mode only; the
  /// sharded server answers namespaced frames with kUnsupported). Call
  /// before start(). Namespaced data frames route to the named
  /// namespace's backend; NSCREATE/NSDROP/NSLIST/NSTICK administer the
  /// registry over the wire.
  void set_namespace_registry(std::shared_ptr<NamespaceRegistry> registry);

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds, listens and spawns acceptor + workers. Throws NetError when
  /// the address is unusable.
  void start();

  /// Graceful shutdown: stop accepting, serve every request already
  /// received, flush responses, join all threads. Idempotent.
  void stop();

  [[nodiscard]] bool running() const noexcept;

  /// The actually bound port (resolves port 0). Valid after start().
  [[nodiscard]] std::uint16_t port() const noexcept { return port_; }

  /// Connections accepted over the server's lifetime.
  [[nodiscard]] std::uint64_t connections_accepted() const noexcept;

  /// Requests served (all opcodes, error replies included).
  [[nodiscard]] std::uint64_t requests_served() const noexcept;

  /// The slow-request ring /tracez renders. Populated only when
  /// Options::slow_request_threshold is >= 0.
  [[nodiscard]] const SlowRequestRing& slow_ring() const noexcept {
    return slow_ring_;
  }

  /// Key-space shards served (1 for the flat backend).
  [[nodiscard]] std::size_t shard_count() const noexcept {
    return sharded_ ? shards_.shards.size() : 1;
  }

  /// Event-loop iterations across the acceptor and every worker. An
  /// idle server's count stays flat — the no-periodic-wakeups test
  /// asserts exactly that.
  [[nodiscard]] std::uint64_t loop_iterations() const noexcept;

 private:
  struct Connection;
  struct Worker;
  struct ServerMetrics;
  struct PendingReply;
  struct SubBatch;
  /// One slot in a cross-worker SPSC ring: a sub-batch travelling to
  /// its owner (work) or back to its origin (completion).
  struct RingMsg {
    SubBatch* sub = nullptr;
    bool completion = false;
  };

  void acceptor_loop();
  void worker_loop(Worker& w);
  void service_connection(Worker& w, Connection& c, bool readable,
                          bool broken);
  /// Decodes and serves every complete frame in the read buffer.
  /// Returns false when the connection must be closed.
  bool drain_frames(Worker& w, Connection& c);
  void serve_frame(Worker& w, Connection& c, const Frame& frame);
  /// Sequenced-mutation path: dedups on (session_id, op_seq), replaying
  /// the cached reply for retries. Returns true when it fully handled
  /// the frame (reply already appended). `be` is the route target — the
  /// default backend or a namespace's.
  bool serve_sequenced(Worker& w, Connection& c, const Frame& frame,
                       Opcode op, const FilterBackend& be);
  void reply_error(Worker& w, Connection& c, const Frame& frame,
                   ErrorCode code, std::string_view message);
  /// Flushes the write buffer; returns false on a dead connection.
  bool flush_writes(Connection& c);
  /// Re-arms EPOLLOUT to match pending write bytes.
  void update_write_interest(Worker& w, Connection& c);
  /// Closes connections stuck mid-frame past Options::frame_timeout.
  void sweep_stalled(Worker& w);

  // --- sharded mode ------------------------------------------------------
  void serve_frame_sharded(Worker& w, Connection& c, const Frame& frame);
  /// Runs one sub-batch against the worker's own shard.
  void execute_sub(Worker& w, SubBatch& sub);
  /// Sends `msg` to worker `dest`'s inbound ring (producer side = `w`),
  /// parking it on the overflow queue when the ring is full.
  void send_to(Worker& w, std::size_t dest, RingMsg msg);
  /// Pops and handles every pending ring message; returns work done.
  bool drain_rings(Worker& w);
  /// Called on the origin worker when a sub-batch completes; finalizes
  /// the job once the last shard reports in.
  void complete_sub(Worker& w, SubBatch& sub);
  /// Merges sub results into the reply payload and marks the job done.
  void finalize_job(Worker& w, PendingReply& job);
  /// Emits every leading completed reply of the connection's pipeline.
  void pump_replies(Worker& w, Connection& c);
  /// Enqueues an already-complete reply, preserving pipeline order.
  void complete_now(Worker& w, Connection& c, std::uint8_t opcode,
                    std::uint8_t flags, std::uint64_t request_id,
                    std::string payload);
  /// Records served-request metrics at job completion time.
  void note_served(PendingReply& job);

  FilterBackend backend_;
  std::shared_ptr<NamespaceRegistry> registry_;
  ShardSet shards_;
  bool sharded_ = false;
  Options options_;
  Socket listener_;
  std::uint16_t port_ = 0;
  std::atomic<bool> started_{false};
  std::atomic<bool> stopping_{false};
  std::atomic<std::uint64_t> accepted_{0};
  std::atomic<std::uint64_t> served_{0};
  /// Sharded drain: origins that have finished producing new work.
  std::atomic<std::size_t> drained_origins_{0};
  std::thread acceptor_;
  std::unique_ptr<EventLoop> accept_loop_;
  std::unique_ptr<util::ThreadPool> pool_;
  std::vector<std::unique_ptr<Worker>> workers_;
  /// rings_[dest][src]: messages from worker src to worker dest.
  std::vector<std::vector<std::unique_ptr<SpscRing<RingMsg>>>> rings_;
  ServerMetrics* metrics_ = nullptr;  // registry-owned, process lifetime
  SlowRequestRing slow_ring_;
  detail::ReplSource repl_source_;  ///< sharded-primary follower table

  // Sequenced-mutation dedup: one entry per client session, holding the
  // last (op_seq, reply) so a failover retry replays instead of
  // re-applying. Shared across workers — a retried session typically
  // arrives on a brand-new connection.
  struct DedupEntry {
    std::uint64_t op_seq = 0;
    std::uint8_t opcode = 0;
    /// Sharded mode: the op is scattered and its reply not yet cached.
    /// A concurrent retry is answered with a retryable error instead of
    /// a second apply.
    bool inflight = false;
    std::string reply;
  };
  static constexpr std::size_t kMaxDedupSessions = 4096;
  std::mutex dedup_mu_;
  std::unordered_map<std::uint64_t, DedupEntry> dedup_;
};

}  // namespace mpcbf::net
