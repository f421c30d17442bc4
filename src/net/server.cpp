#include "net/server.hpp"

#include <algorithm>
#include <deque>
#include <limits>
#include <utility>

#include "common/log.hpp"
#include "metrics/build_info.hpp"
#include "net/namespace_registry.hpp"
#include "metrics/registry.hpp"
#include "metrics/timer.hpp"
#include "trace/trace.hpp"

namespace mpcbf::net {

namespace {

/// Sharded mode: run the shard's maintenance hook (elastic compaction
/// step) after this many mutation sub-batches.
constexpr std::uint64_t kMaintainEvery = 64;

/// Per-direction SPSC ring capacity (sub-batch descriptors, not bytes).
constexpr std::size_t kRingCapacity = 1024;

}  // namespace

// Per-op serving metrics, registered once into the global registry (the
// registry owns the cells; references stay valid for the process).
struct Server::ServerMetrics {
  metrics::Counter* requests[4];
  metrics::Counter* keys[4];
  /// Service-time histograms for every served opcode, indexed by
  /// opcode - 1 (REPLICATE/SNAPFETCH/REPLSTATUS included — replication
  /// tail latency is an operator signal, not an implementation detail).
  metrics::Histogram* duration_ns[kMaxOpcode];
  metrics::Counter& connections = metrics::Registry::global().counter(
      "mpcbf_server_connections_total", "Connections accepted");
  metrics::Gauge& active = metrics::Registry::global().gauge(
      "mpcbf_server_active_connections", "Currently open connections");
  metrics::Counter& proto_errors = metrics::Registry::global().counter(
      "mpcbf_server_protocol_errors_total",
      "Connections dropped for framing violations (bad magic/CRC/size)");
  metrics::Counter& request_errors = metrics::Registry::global().counter(
      "mpcbf_server_request_errors_total",
      "Well-framed requests answered with an error reply");
  metrics::Counter& admin_requests = metrics::Registry::global().counter(
      "mpcbf_server_admin_requests_total",
      "STATS/HEALTH/SNAPSHOT requests served");
  metrics::Counter& timeouts = metrics::Registry::global().counter(
      "mpcbf_server_timeouts_total",
      "Connections closed after a partial frame stalled past "
      "frame_timeout");
  metrics::Counter& repl_requests = metrics::Registry::global().counter(
      "mpcbf_server_replication_requests_total",
      "REPLICATE/SNAPFETCH/REPLSTATUS requests served");
  metrics::Counter& deduped = metrics::Registry::global().counter(
      "mpcbf_server_deduped_mutations_total",
      "Sequenced mutations answered from the dedup cache");
  metrics::Histogram& batch_keys = metrics::Registry::global().histogram(
      "mpcbf_server_batch_keys", "Keys per batched request");

  ServerMetrics() {
    static constexpr const char* kOps[4] = {"query", "insert", "erase",
                                            "est_count"};
    for (int i = 0; i < 4; ++i) {
      requests[i] = &metrics::Registry::global().counter(
          "mpcbf_server_requests_total", "Requests served by opcode",
          {{"op", kOps[i]}});
      keys[i] = &metrics::Registry::global().counter(
          "mpcbf_server_keys_total", "Keys processed by opcode",
          {{"op", kOps[i]}});
    }
    for (std::uint8_t op = 1; op <= kMaxOpcode; ++op) {
      duration_ns[op - 1] = &metrics::Registry::global().histogram(
          "mpcbf_server_request_duration_ns",
          "Request service time (decode to encoded reply), ns",
          {{"op", to_string(static_cast<Opcode>(op))}});
    }
  }

  static ServerMetrics& get() {
    static ServerMetrics m;
    return m;
  }
};

// One sub-batch: the slice of a request owned by a single shard. The
// origin worker fills keys/idx, the owner fills the result fields, and
// the SPSC ring crossings (push release / pop acquire) order the two
// sides — no field needs its own synchronization.
struct Server::SubBatch {
  PendingReply* job = nullptr;
  std::uint32_t shard = 0;
  std::uint8_t op = 0;  ///< opcode byte
  /// Key views into the job's keybuf (stable while the job lives).
  std::vector<std::string_view> keys;
  /// Positions in the original batch — the gather map.
  std::vector<std::uint32_t> idx;
  std::vector<std::uint8_t> out;       ///< per-key verdicts
  std::vector<std::uint32_t> counts;   ///< per-key estimates (EST_COUNT)
  // Admin results (one variant used per opcode).
  StatsReply stats{};
  HealthReply health{};
  std::uint64_t watermark = 0;
  ShardBackend::Tail tail;
  std::uint64_t tail_from = 0;
  std::uint32_t tail_max_records = 0;
  std::uint64_t tail_max_bytes = 0;
  /// Nonempty: the shard's hook threw; the job answers kInternal.
  std::string error;
};

// One in-flight request on a connection's reply pipeline. Owned by the
// origin worker; `outstanding` and every field except the sub-batch
// result slots are touched by the origin thread only.
struct Server::PendingReply {
  Connection* conn = nullptr;  ///< null once the connection died
  std::size_t origin = 0;      ///< worker index that decoded the frame
  std::uint8_t opcode = 0;
  std::uint8_t flags = kFlagResponse;
  std::uint64_t request_id = 0;
  std::string payload;
  bool done = false;
  bool sequenced = false;
  SequencePrefix seq_prefix{};
  /// Owned copy of the batch's key bytes — the connection's read buffer
  /// may be compacted while sub-batches are still in flight.
  std::string keybuf;
  std::vector<std::string_view> keys;  ///< views into keybuf
  std::vector<SubBatch> subs;
  int outstanding = 0;
  ReplicateRequest repl_req{};  ///< normalized caps for the merge
  // Timing/diagnostics captured at decode time.
  std::uint64_t t0 = 0;
  std::uint64_t trace_id = 0;
  std::uint64_t peer = 0;
  std::uint32_t batch_keys = 0;
};

struct Server::Connection {
  explicit Connection(Socket s)
      : sock(std::move(s)), peer(peer_id(sock.fd())) {}
  Socket sock;
  std::uint64_t peer = 0;  ///< packed IPv4 ip:port (slow-ring/log form)
  std::string rbuf;
  std::size_t rpos = 0;  ///< parsed prefix of rbuf (compacted lazily)
  std::string wbuf;
  std::size_t wpos = 0;  ///< flushed prefix of wbuf
  // Request-scoped scratch, reused so steady-state serving does not
  // allocate per request.
  std::vector<std::string_view> keys;
  std::vector<std::uint8_t> verdicts;
  std::vector<std::uint32_t> counts;
  std::string payload;
  ShardSplit split;
  /// In-flight requests in arrival order; replies are emitted strictly
  /// front-to-back, which keeps pipelined responses in request order
  /// even when sub-batches complete out of order across shards.
  std::deque<std::unique_ptr<PendingReply>> pipeline;
  bool want_write = false;  ///< EPOLLOUT currently armed
  bool dead = false;
  /// Peer closed its write half; the connection stays up until the
  /// pipeline has flushed, then closes.
  bool eof = false;
  // Slow-loris accounting: when the read buffer ends in a partial
  // frame, the time that partial first appeared. A peer may idle
  // between frames forever; it may not stall *inside* one.
  bool mid_frame = false;
  std::chrono::steady_clock::time_point partial_since{};
};

struct Server::Worker {
  std::size_t index = 0;
  EventLoop loop;
  /// Every read lands here first; a connection's buffer then grows by
  /// the bytes that arrived, never by a zero-filled chunk.
  std::unique_ptr<char[]> read_chunk =
      std::make_unique_for_overwrite<char[]>(kReadChunk);
  std::mutex mu;
  std::vector<Socket> intake;  ///< accepted sockets awaiting adoption
  std::vector<std::unique_ptr<Connection>> conns;

  // --- sharded mode state (owner thread only) ---------------------------
  /// Producer-side parking lot, one FIFO per destination, for messages
  /// that found the ring full. Drained (in order, ahead of new pushes)
  /// every loop iteration.
  std::vector<std::deque<RingMsg>> overflow;
  bool has_overflow = false;
  /// Parked *work* messages (not completions). The drain protocol may
  /// not declare this origin finished while one exists — a peer would
  /// otherwise exit without serving it and deadlock the shutdown.
  std::size_t overflow_work = 0;
  /// Jobs whose connection died while sub-batches were still remote;
  /// kept alive until the last completion returns.
  std::vector<std::unique_ptr<PendingReply>> orphans;
  std::uint64_t mutation_subs = 0;  ///< since the last maintain()

  // Per-shard serving metrics (registry-owned; labeled {"shard", i}).
  metrics::Counter* shard_requests = nullptr;
  metrics::Counter* shard_keys = nullptr;
  metrics::Counter* ring_forwards = nullptr;
  metrics::Counter* ring_full = nullptr;

  // Drain state.
  bool draining = false;
  bool origin_done = false;
  std::chrono::steady_clock::time_point drain_deadline{};
};

Server::Server(FilterBackend backend, Options options)
    : backend_(std::move(backend)), options_(std::move(options)) {
  if (options_.workers == 0) options_.workers = 1;
  metrics_ = &ServerMetrics::get();
}

Server::Server(ShardSet shards, Options options)
    : shards_(std::move(shards)),
      sharded_(true),
      options_(std::move(options)) {
  if (shards_.shards.empty()) {
    throw NetError("Server: empty shard set");
  }
  // Thread-per-core is the whole point: one worker owns each shard.
  options_.workers = shards_.shards.size();
  metrics_ = &ServerMetrics::get();
}

Server::~Server() { stop(); }

void Server::set_namespace_registry(
    std::shared_ptr<NamespaceRegistry> registry) {
  if (sharded_) {
    throw NetError(
        "Server: namespaces require the flat server (--cores 1)");
  }
  registry_ = std::move(registry);
}

bool Server::running() const noexcept {
  return started_.load(std::memory_order_acquire) &&
         !stopping_.load(std::memory_order_acquire);
}

std::uint64_t Server::connections_accepted() const noexcept {
  return accepted_.load(std::memory_order_relaxed);
}

std::uint64_t Server::requests_served() const noexcept {
  return served_.load(std::memory_order_relaxed);
}

std::uint64_t Server::loop_iterations() const noexcept {
  std::uint64_t total = accept_loop_ ? accept_loop_->iterations() : 0;
  for (const auto& w : workers_) total += w->loop.iterations();
  return total;
}

void Server::start() {
  if (started_.exchange(true)) {
    throw NetError("Server::start: already started");
  }
  listener_ = listen_tcp(options_.bind_address, options_.port);
  set_nonblocking(listener_.fd(), true);
  port_ = local_port(listener_.fd());
  accept_loop_ = std::make_unique<EventLoop>();
  accept_loop_->add(listener_.fd(), false, nullptr);

  workers_.reserve(options_.workers);
  for (std::size_t i = 0; i < options_.workers; ++i) {
    auto w = std::make_unique<Worker>();
    w->index = i;
    if (sharded_) {
      w->overflow.resize(options_.workers);
      auto& reg = metrics::Registry::global();
      const std::string shard = std::to_string(i);
      w->shard_requests = &reg.counter(
          "mpcbf_server_shard_requests_total",
          "Sub-batches executed against this shard", {{"shard", shard}});
      w->shard_keys = &reg.counter(
          "mpcbf_server_shard_keys_total",
          "Keys executed against this shard", {{"shard", shard}});
      w->ring_forwards = &reg.counter(
          "mpcbf_server_shard_ring_forwards_total",
          "Sub-batches forwarded to a peer shard over the SPSC rings",
          {{"shard", shard}});
      w->ring_full = &reg.counter(
          "mpcbf_server_shard_ring_full_total",
          "Ring messages parked on the overflow queue (ring full)",
          {{"shard", shard}});
    }
    workers_.push_back(std::move(w));
  }
  if (sharded_) {
    rings_.resize(options_.workers);
    for (std::size_t dest = 0; dest < options_.workers; ++dest) {
      rings_[dest].resize(options_.workers);
      for (std::size_t src = 0; src < options_.workers; ++src) {
        if (src == dest) continue;
        rings_[dest][src] =
            std::make_unique<SpscRing<RingMsg>>(kRingCapacity);
      }
    }
  }
  pool_ = std::make_unique<util::ThreadPool>(options_.workers);
  for (auto& w : workers_) {
    (void)pool_->submit([this, worker = w.get()] { worker_loop(*worker); });
  }
  acceptor_ = std::thread([this] { acceptor_loop(); });
  MPCBF_LOG_INFO("server.start", log::str("bind", options_.bind_address),
                 log::u64("port", port_),
                 log::u64("workers", options_.workers),
                 log::u64("shards", sharded_ ? shards_.shards.size() : 1));
}

void Server::stop() {
  if (!started_.load(std::memory_order_acquire)) return;
  if (stopping_.exchange(true)) {
    // A second caller still has to wait for the joins below, which the
    // first caller performs; make stop() safe to call twice by only
    // joining what is still joinable.
  } else {
    MPCBF_LOG_INFO("server.drain", log::u64("port", port_),
                   log::u64("requests_served", requests_served()));
  }
  if (accept_loop_) accept_loop_->wake();
  if (acceptor_.joinable()) acceptor_.join();
  for (auto& w : workers_) w->loop.wake();
  if (pool_) {
    pool_->stop();  // waits for every worker loop to drain and return
    pool_.reset();
    if (sharded_) {
      // All workers have exited (pool joined), so this thread is the
      // sole owner of every shard: take the final per-shard snapshots
      // sequentially and tie them together with the manifest.
      bool durable = false;
      for (const auto& s : shards_.shards) {
        if (s.snapshot) durable = true;
      }
      if (durable) {
        try {
          std::vector<std::uint64_t> marks;
          marks.reserve(shards_.shards.size());
          for (const auto& s : shards_.shards) {
            marks.push_back(s.snapshot ? s.snapshot() : 0);
          }
          if (shards_.manifest) shards_.manifest(marks);
        } catch (const std::exception& e) {
          MPCBF_LOG_ERROR("server.final_snapshot_failed",
                          log::str("error", e.what()));
        }
      }
    }
  }
  listener_.close();
}

void Server::acceptor_loop() {
  std::vector<EventLoop::Event> events;
  std::size_t next_worker = 0;
  while (!stopping_.load(std::memory_order_acquire)) {
    (void)accept_loop_->wait(events, -1);
    if (stopping_.load(std::memory_order_acquire)) break;
    for (;;) {
      Socket conn = accept_tcp(listener_);
      if (!conn.valid()) break;  // EAGAIN (or transient): back to the loop
      accepted_.fetch_add(1, std::memory_order_relaxed);
      metrics_->connections.inc();
      Worker& w = *workers_[next_worker];
      next_worker = (next_worker + 1) % workers_.size();
      {
        std::lock_guard<std::mutex> lock(w.mu);
        w.intake.push_back(std::move(conn));
      }
      w.loop.wake();
    }
  }
}

void Server::worker_loop(Worker& w) {
  std::vector<EventLoop::Event> events;
  for (;;) {
    // Adopt connections handed over by the acceptor.
    {
      std::lock_guard<std::mutex> lock(w.mu);
      for (auto& sock : w.intake) {
        auto c = std::make_unique<Connection>(std::move(sock));
        w.loop.add(c->sock.fd(), false, c.get());
        w.conns.push_back(std::move(c));
        metrics_->active.add(1.0);
      }
      w.intake.clear();
    }

    // Peer work first: remote sub-batches to execute, completions to
    // gather, parked ring messages to retry.
    if (sharded_) {
      (void)drain_rings(w);
      if (w.mutation_subs >= kMaintainEvery &&
          shards_.shards[w.index].maintain) {
        w.mutation_subs = 0;
        try {
          shards_.shards[w.index].maintain();
        } catch (const std::exception& e) {
          MPCBF_LOG_ERROR("server.maintain_failed",
                          log::u64("shard", w.index),
                          log::str("error", e.what()));
        }
      }
    }

    const auto now = std::chrono::steady_clock::now();
    if (stopping_.load(std::memory_order_acquire) && !w.draining) {
      w.draining = true;
      w.drain_deadline = now + options_.drain_timeout;
    }
    if (w.draining) {
      // In-flight work is whatever bytes arrived before the drain began;
      // serve it, wait for its sub-batches, flush it, close. Past the
      // deadline, close regardless (incomplete jobs become orphans and
      // are freed when their completions return).
      const bool expired = now >= w.drain_deadline;
      for (auto& c : w.conns) {
        if (c->dead) continue;
        try {
          if (!drain_frames(w, *c) || !flush_writes(*c)) c->dead = true;
        } catch (const NetError&) {
          c->dead = true;
        }
        if (expired ||
            (c->pipeline.empty() && c->wpos == c->wbuf.size())) {
          c->dead = true;
        }
      }
    }
    sweep_stalled(w);
    // Reap dead connections, orphaning jobs whose sub-batches are still
    // at peer shards (the job memory must outlive the completions).
    std::erase_if(w.conns, [&](const auto& c) {
      if (!c->dead) return false;
      for (auto& job : c->pipeline) {
        if (!job->done && job->outstanding > 0) {
          job->conn = nullptr;
          w.orphans.push_back(std::move(job));
        }
      }
      c->pipeline.clear();
      w.loop.del(c->sock.fd());
      metrics_->active.add(-1.0);
      return true;
    });

    if (w.draining) {
      if (!sharded_) {
        if (w.conns.empty()) return;
      } else {
        // Two-phase sharded drain. Phase 1 ends when this origin has no
        // connections left and no parked *work* for peers — from then
        // on it only produces completions. Phase 2 (serving-only) ends
        // when every origin is done, our inbound rings are empty, no
        // message of ours is parked, and every orphan has been freed:
        // at that point no sub-batch of ours is anywhere in the system.
        if (!w.origin_done && w.conns.empty() && w.overflow_work == 0) {
          w.origin_done = true;
          drained_origins_.fetch_add(1, std::memory_order_acq_rel);
          for (auto& other : workers_) {
            if (other.get() != &w) other->loop.wake();
          }
        }
        if (w.origin_done &&
            drained_origins_.load(std::memory_order_acquire) ==
                workers_.size() &&
            !w.has_overflow && w.orphans.empty()) {
          bool rings_empty = true;
          for (std::size_t src = 0; src < workers_.size(); ++src) {
            if (src != w.index && !rings_[w.index][src]->empty()) {
              rings_empty = false;
              break;
            }
          }
          if (rings_empty) {
            if (shards_.shards[w.index].wal_flush) {
              try {
                shards_.shards[w.index].wal_flush();
              } catch (const std::exception& e) {
                MPCBF_LOG_ERROR("server.wal_flush_failed",
                                log::u64("shard", w.index),
                                log::str("error", e.what()));
              }
            }
            return;
          }
        }
      }
    }

    // Idle means block forever: wakes come from the acceptor hand-off,
    // peer ring pushes and stop(). Finite timeouts exist only to retry
    // full rings, re-check drain progress, and sweep stalled frames.
    int timeout_ms = -1;
    if (w.has_overflow) {
      timeout_ms = 1;
    } else if (w.draining) {
      timeout_ms = 10;
    } else if (options_.frame_timeout.count() > 0) {
      auto earliest = std::chrono::steady_clock::time_point::max();
      for (const auto& c : w.conns) {
        if (!c->dead && c->mid_frame) {
          earliest =
              std::min(earliest, c->partial_since + options_.frame_timeout);
        }
      }
      if (earliest != std::chrono::steady_clock::time_point::max()) {
        const auto wait_ms =
            std::chrono::duration_cast<std::chrono::milliseconds>(earliest -
                                                                  now)
                .count() +
            1;
        timeout_ms = static_cast<int>(std::clamp<long long>(
            wait_ms, 1, std::numeric_limits<int>::max()));
      }
    }
    (void)w.loop.wait(events, timeout_ms);
    for (const auto& e : events) {
      auto* c = static_cast<Connection*>(e.data);
      if (c == nullptr || c->dead) continue;
      service_connection(w, *c, e.readable, e.error);
    }
  }
}

void Server::service_connection(Worker& w, Connection& c, bool readable,
                                bool broken) {
  try {
    if (readable || broken) {
      const ReadStatus st =
          read_available(c.sock.fd(), c.rbuf,
                         std::span<char>(w.read_chunk.get(), kReadChunk),
                         kMaxReadBuffer);
      if (st == ReadStatus::kFull) {
        // One frame can never legitimately need this much buffer.
        metrics_->proto_errors.inc();
        c.dead = true;
        return;
      }
      if (st == ReadStatus::kEof) {  // serve what we have, then close
        c.eof = true;
        if (!drain_frames(w, c)) {
          c.dead = true;
          return;
        }
        // Stop watching the fd (level-triggered EOF would spin);
        // in-flight sub-batches finish via the rings and
        // pump_replies closes once the pipeline empties.
        w.loop.del(c.sock.fd());
        if (c.pipeline.empty()) {
          (void)flush_writes(c);
          c.dead = true;
        }
        return;
      }
      if (!drain_frames(w, c)) {
        c.dead = true;
        return;
      }
    }
    if (!flush_writes(c)) {
      c.dead = true;
      return;
    }
    update_write_interest(w, c);
  } catch (const NetError&) {
    c.dead = true;
  }
}

bool Server::drain_frames(Worker& w, Connection& c) {
  for (;;) {
    const std::string_view unparsed =
        std::string_view(c.rbuf).substr(c.rpos);
    const DecodeResult r = decode_frame(unparsed);
    if (r.status == DecodeStatus::kError) {
      // The byte stream lost framing; there is no safe resync point.
      metrics_->proto_errors.inc();
      MPCBF_LOG_WARN("server.protocol_error",
                     log::str("reason", r.error),
                     log::str("peer", format_peer(c.peer)));
      return false;
    }
    if (r.status == DecodeStatus::kNeedMore) break;
    if (sharded_) {
      serve_frame_sharded(w, c, r.frame);
    } else {
      serve_frame(w, c, r.frame);
    }
    c.rpos += r.consumed;
  }
  if (c.rpos > 0) {
    // Safe even with sub-batches in flight: a cross-shard scatter owns
    // a copy of its key bytes, and single-shard batches complete inline
    // before reaching this point.
    c.rbuf.erase(0, c.rpos);
    c.rpos = 0;
  }
  // Partial-frame deadline bookkeeping: the clock starts when a partial
  // frame first appears and resets whenever the buffer is drained to a
  // frame boundary.
  if (c.rbuf.empty()) {
    c.mid_frame = false;
  } else if (!c.mid_frame) {
    c.mid_frame = true;
    c.partial_since = std::chrono::steady_clock::now();
  }
  return true;
}

void Server::sweep_stalled(Worker& w) {
  if (options_.frame_timeout.count() <= 0) return;
  const auto now = std::chrono::steady_clock::now();
  for (auto& c : w.conns) {
    if (c->dead || !c->mid_frame) continue;
    if (now - c->partial_since >= options_.frame_timeout) {
      // A peer stalled mid-frame left the stream in an ambiguous state;
      // the only safe move is to drop the connection — never to retry
      // the partial read into the next request.
      metrics_->timeouts.inc();
      MPCBF_LOG_WARN("server.frame_timeout",
                     log::str("peer", format_peer(c->peer)),
                     log::u64("buffered_bytes", c->rbuf.size()));
      c->dead = true;
    }
  }
}

void Server::serve_frame(Worker& w, Connection& c, const Frame& frame) {
  MPCBF_TRACE_SPAN(span, kNet, "net.request");
  const bool slow_capture = options_.slow_request_threshold.count() >= 0;
  const std::uint64_t t0 =
      (metrics::kStatsEnabled || slow_capture) ? metrics::now_ns() : 0;
  served_.fetch_add(1, std::memory_order_relaxed);
  const FrameHeader& h = frame.header;
  if ((h.flags & kFlagResponse) != 0 || !opcode_known(h.opcode)) {
    reply_error(w, c, frame, ErrorCode::kBadRequest,
                (h.flags & kFlagResponse) != 0
                    ? "response flag set on a request"
                    : "unknown opcode");
    return;
  }
  const auto op = static_cast<Opcode>(h.opcode);
  span.set_arg("opcode", h.opcode);
  // Traced requests carry the client's trace id as the first payload
  // bytes; strip the prefix so every downstream parser sees the plain
  // payload, and open the request span under the propagated id.
  Frame f = frame;
  TracePrefix trace;
  if ((h.flags & kFlagTraced) != 0) {
    std::string_view rest;
    if (const char* err = parse_trace_prefix(frame.payload, trace, rest);
        err != nullptr) {
      reply_error(w, c, frame, ErrorCode::kBadRequest, err);
      return;
    }
    f.payload = rest;
    span.set_arg("trace_id", trace.trace_id);
  }
  // Namespaced routing: strip the NamespacePrefix and resolve the
  // target backend. The resolved shared_ptr pins the namespace for the
  // rest of the request, so a concurrent NSDROP cannot free filter
  // state under a hook that is still running.
  const FilterBackend* be = &backend_;
  std::shared_ptr<const FilterBackend> ns_backend;
  std::string_view ns_name;
  if ((h.flags & kFlagNamespaced) != 0) {
    std::string_view rest;
    if (const char* err = parse_ns_prefix(f.payload, ns_name, rest);
        err != nullptr) {
      reply_error(w, c, frame, ErrorCode::kBadRequest, err);
      return;
    }
    f.payload = rest;
    if (op == Opcode::kNsCreate || op == Opcode::kNsDrop ||
        op == Opcode::kNsList || op == Opcode::kNsTick) {
      reply_error(w, c, frame, ErrorCode::kBadRequest,
                  "namespace admin opcodes are not namespaced");
      return;
    }
    if (registry_ == nullptr) {
      reply_error(w, c, frame, ErrorCode::kUnsupported,
                  "server has no namespace registry");
      return;
    }
    ns_backend = registry_->resolve(ns_name);
    if (ns_backend == nullptr) {
      reply_error(w, c, frame, ErrorCode::kUnknownNamespace,
                  "unknown namespace");
      return;
    }
    be = ns_backend.get();
  }
  c.payload.clear();
  std::size_t batch_keys = 0;
  try {
    switch (op) {
      case Opcode::kQuery:
      case Opcode::kInsert:
      case Opcode::kErase: {
        if ((h.flags & kFlagSequenced) != 0) {
          if (op == Opcode::kQuery) {
            reply_error(w, c, frame, ErrorCode::kBadRequest,
                        "sequenced flag on an idempotent opcode");
            return;
          }
          // Dedup path: fills c.payload (fresh apply or cached replay);
          // on false an error reply has already been sent.
          if (!serve_sequenced(w, c, f, op, *be)) return;
          batch_keys = c.keys.size();
          break;
        }
        if (const char* err = parse_key_batch(f.payload, c.keys);
            err != nullptr) {
          reply_error(w, c, frame, ErrorCode::kBadRequest, err);
          return;
        }
        const auto& hook = op == Opcode::kQuery ? be->contains_batch
                           : op == Opcode::kInsert ? be->insert_batch
                                                   : be->erase_batch;
        if (!hook) {
          reply_error(w, c, frame, ErrorCode::kUnsupported,
                      "opcode not supported by this backend");
          return;
        }
        if (op == Opcode::kInsert && be->admit) {
          if (const char* err = be->admit(c.keys.size());
              err != nullptr) {
            reply_error(w, c, frame, ErrorCode::kQuotaExceeded, err);
            return;
          }
        }
        c.verdicts.assign(c.keys.size(), 0);
        hook(c.keys, c.verdicts);
        append_verdicts(c.payload, c.verdicts);
        batch_keys = c.keys.size();
        const int idx = op == Opcode::kQuery ? 0
                        : op == Opcode::kInsert ? 1
                                                : 2;
        metrics_->requests[idx]->inc();
        metrics_->keys[idx]->inc(c.keys.size());
        metrics_->batch_keys.record(c.keys.size());
        break;
      }
      case Opcode::kStats: {
        if (!be->stats) {
          reply_error(w, c, frame, ErrorCode::kUnsupported,
                      "stats not supported by this backend");
          return;
        }
        StatsReply s = be->stats();
        s.requests_served = served_.load(std::memory_order_relaxed);
        s.uptime_seconds = static_cast<std::uint64_t>(
            metrics::process_uptime_seconds());
        append_reply_pod(c.payload, s);
        metrics_->admin_requests.inc();
        break;
      }
      case Opcode::kHealth: {
        if (!be->health) {
          reply_error(w, c, frame, ErrorCode::kUnsupported,
                      "health not supported by this backend");
          return;
        }
        HealthReply r = be->health();
        // The backend's readiness veto (a follower still catching up)
        // ANDs with the server's own lifecycle bit.
        r.ready = running() && (!be->ready || be->ready()) ? 1 : 0;
        append_reply_pod(c.payload, r);
        metrics_->admin_requests.inc();
        break;
      }
      case Opcode::kSnapshot: {
        if (!be->snapshot) {
          reply_error(w, c, frame, ErrorCode::kUnsupported,
                      "backend has no durable storage");
          return;
        }
        SnapshotReply r;
        r.last_seq = be->snapshot();
        append_reply_pod(c.payload, r);
        metrics_->admin_requests.inc();
        break;
      }
      case Opcode::kReplicate: {
        if (!be->replicate) {
          reply_error(w, c, frame, ErrorCode::kUnsupported,
                      "replication requires a durable backend");
          return;
        }
        ReplicateRequest req;
        if (const char* err = parse_reply_pod(f.payload, req);
            err != nullptr) {
          reply_error(w, c, frame, ErrorCode::kBadRequest, err);
          return;
        }
        if (const char* err = be->replicate(req, c.payload);
            err != nullptr) {
          reply_error(w, c, frame, ErrorCode::kInternal, err);
          return;
        }
        metrics_->repl_requests.inc();
        break;
      }
      case Opcode::kSnapFetch: {
        if (!be->snap_fetch) {
          reply_error(w, c, frame, ErrorCode::kUnsupported,
                      "replication requires a durable backend");
          return;
        }
        SnapFetchRequest req;
        if (const char* err = parse_reply_pod(f.payload, req);
            err != nullptr) {
          reply_error(w, c, frame, ErrorCode::kBadRequest, err);
          return;
        }
        if (const char* err = be->snap_fetch(req, c.payload);
            err != nullptr) {
          reply_error(w, c, frame, ErrorCode::kInternal, err);
          return;
        }
        metrics_->repl_requests.inc();
        break;
      }
      case Opcode::kReplStatus: {
        if (!be->repl_status) {
          reply_error(w, c, frame, ErrorCode::kUnsupported,
                      "replication status requires a durable backend");
          return;
        }
        append_reply_pod(c.payload, be->repl_status());
        metrics_->repl_requests.inc();
        break;
      }
      case Opcode::kEstCount: {
        if (const char* err = parse_key_batch(f.payload, c.keys);
            err != nullptr) {
          reply_error(w, c, frame, ErrorCode::kBadRequest, err);
          return;
        }
        if (!be->est_count) {
          reply_error(w, c, frame, ErrorCode::kUnsupported,
                      "count estimation not supported by this backend");
          return;
        }
        c.counts.assign(c.keys.size(), 0);
        be->est_count(c.keys, c.counts);
        append_counts(c.payload, c.counts);
        batch_keys = c.keys.size();
        metrics_->requests[3]->inc();
        metrics_->keys[3]->inc(c.keys.size());
        metrics_->batch_keys.record(c.keys.size());
        break;
      }
      case Opcode::kNsCreate: {
        if (registry_ == nullptr) {
          reply_error(w, c, frame, ErrorCode::kUnsupported,
                      "server has no namespace registry");
          return;
        }
        std::string_view name;
        NsConfigWire cfg;
        if (const char* err = parse_ns_create(f.payload, name, cfg);
            err != nullptr) {
          reply_error(w, c, frame, ErrorCode::kBadRequest, err);
          return;
        }
        ErrorCode code = ErrorCode::kBadRequest;
        if (const std::string err = registry_->create(name, cfg, code);
            !err.empty()) {
          reply_error(w, c, frame, code, err);
          return;
        }
        metrics_->admin_requests.inc();
        break;  // success reply has an empty payload
      }
      case Opcode::kNsDrop: {
        if (registry_ == nullptr) {
          reply_error(w, c, frame, ErrorCode::kUnsupported,
                      "server has no namespace registry");
          return;
        }
        std::string_view name;
        if (const char* err = parse_ns_drop(f.payload, name);
            err != nullptr) {
          reply_error(w, c, frame, ErrorCode::kBadRequest, err);
          return;
        }
        ErrorCode code = ErrorCode::kBadRequest;
        if (const std::string err = registry_->drop(name, code);
            !err.empty()) {
          reply_error(w, c, frame, code, err);
          return;
        }
        metrics_->admin_requests.inc();
        break;
      }
      case Opcode::kNsList: {
        if (registry_ == nullptr) {
          reply_error(w, c, frame, ErrorCode::kUnsupported,
                      "server has no namespace registry");
          return;
        }
        if (!f.payload.empty()) {
          reply_error(w, c, frame, ErrorCode::kBadRequest,
                      "nslist: trailing bytes");
          return;
        }
        append_ns_list_reply(c.payload, registry_->list());
        metrics_->admin_requests.inc();
        break;
      }
      case Opcode::kNsTick: {
        if (registry_ == nullptr) {
          reply_error(w, c, frame, ErrorCode::kUnsupported,
                      "server has no namespace registry");
          return;
        }
        std::string_view name;
        if (const char* err = parse_ns_drop(f.payload, name);
            err != nullptr) {
          reply_error(w, c, frame, ErrorCode::kBadRequest, err);
          return;
        }
        NsTickReply r;
        ErrorCode code = ErrorCode::kBadRequest;
        if (const std::string err = registry_->tick(name, r.ticks, code);
            !err.empty()) {
          reply_error(w, c, frame, code, err);
          return;
        }
        append_reply_pod(c.payload, r);
        metrics_->admin_requests.inc();
        break;
      }
    }
  } catch (const std::exception& e) {
    MPCBF_LOG_ERROR("server.request_failed",
                    log::str("op", to_string(op)),
                    log::str("error", e.what()),
                    log::hex("trace_id", trace.trace_id),
                    log::str("peer", format_peer(c.peer)));
    reply_error(w, c, frame, ErrorCode::kInternal, e.what());
    return;
  }
  append_frame(c.wbuf, op, kFlagResponse, h.request_id, c.payload);
  const std::uint64_t dur =
      (metrics::kStatsEnabled || slow_capture) ? metrics::now_ns() - t0
                                               : 0;
  if (metrics::kStatsEnabled) {
    metrics_->duration_ns[h.opcode - 1]->record(dur);
  }
  if (slow_capture &&
      dur >= static_cast<std::uint64_t>(
                 options_.slow_request_threshold.count()) *
                 1000) {
    SlowRequest r;
    r.start_ns = t0;
    r.duration_ns = dur;
    r.trace_id = trace.trace_id;
    r.peer = c.peer;
    r.batch_keys = static_cast<std::uint32_t>(batch_keys);
    r.opcode = h.opcode;
    slow_ring_.record(r);
    MPCBF_LOG_WARN("server.slow_request", log::str("op", to_string(op)),
                   log::u64("duration_ns", dur),
                   log::u64("batch_keys", r.batch_keys),
                   log::hex("trace_id", trace.trace_id),
                   log::str("peer", format_peer(c.peer)));
  }
}

bool Server::serve_sequenced(Worker& w, Connection& c, const Frame& frame,
                             Opcode op, const FilterBackend& be) {
  SequencePrefix prefix;
  if (const char* err =
          parse_sequenced_key_batch(frame.payload, prefix, c.keys);
      err != nullptr) {
    reply_error(w, c, frame, ErrorCode::kBadRequest, err);
    return false;
  }
  const auto& hook =
      op == Opcode::kInsert ? be.insert_batch : be.erase_batch;
  if (!hook) {
    reply_error(w, c, frame, ErrorCode::kUnsupported,
                "opcode not supported by this backend");
    return false;
  }
  // The dedup lock is held across the apply so two concurrent retries
  // of the same op cannot both pass the check; mutations are already
  // serialized by the backend's exclusive lock, so this adds no new
  // contention. Lock order is dedup → backend, nowhere reversed.
  std::lock_guard<std::mutex> lock(dedup_mu_);
  auto it = dedup_.find(prefix.session_id);
  if (it != dedup_.end() && it->second.op_seq == prefix.op_seq) {
    if (it->second.opcode != static_cast<std::uint8_t>(op)) {
      reply_error(w, c, frame, ErrorCode::kBadRequest,
                  "sequence number reused across opcodes");
      return false;
    }
    c.payload = it->second.reply;  // retry: replay, never re-apply
    metrics_->deduped.inc();
    return true;
  }
  if (it != dedup_.end() && prefix.op_seq < it->second.op_seq) {
    reply_error(w, c, frame, ErrorCode::kBadRequest,
                "stale sequence number");
    return false;
  }
  // Quota-gate after the replay check: a retry of an already-applied
  // insert replays its cached reply and must never be re-judged.
  if (op == Opcode::kInsert && be.admit) {
    if (const char* err = be.admit(c.keys.size()); err != nullptr) {
      reply_error(w, c, frame, ErrorCode::kQuotaExceeded, err);
      return false;
    }
  }
  c.verdicts.assign(c.keys.size(), 0);
  hook(c.keys, c.verdicts);
  append_verdicts(c.payload, c.verdicts);
  if (it == dedup_.end()) {
    if (dedup_.size() >= kMaxDedupSessions) {
      // Bounded by eviction: correctness degrades to at-least-once for
      // a session idle long enough to be evicted, never unbounded RAM.
      dedup_.erase(dedup_.begin());
    }
    it = dedup_.emplace(prefix.session_id, DedupEntry{}).first;
  }
  it->second.op_seq = prefix.op_seq;
  it->second.opcode = static_cast<std::uint8_t>(op);
  it->second.reply = c.payload;
  const int idx = op == Opcode::kInsert ? 1 : 2;
  metrics_->requests[idx]->inc();
  metrics_->keys[idx]->inc(c.keys.size());
  metrics_->batch_keys.record(c.keys.size());
  return true;
}

void Server::reply_error(Worker& w, Connection& c, const Frame& frame,
                         ErrorCode code, std::string_view message) {
  metrics_->request_errors.inc();
  const Opcode op = opcode_known(frame.header.opcode)
                        ? static_cast<Opcode>(frame.header.opcode)
                        : Opcode::kQuery;
  if (sharded_) {
    // Sharded replies flow through the pipeline so an error emitted
    // while earlier requests are still scattered cannot jump the queue.
    std::string payload;
    append_error(payload, code, message);
    complete_now(w, c, static_cast<std::uint8_t>(op),
                 kFlagResponse | kFlagError, frame.header.request_id,
                 std::move(payload));
    return;
  }
  c.payload.clear();
  append_error(c.payload, code, message);
  append_frame(c.wbuf, op, kFlagResponse | kFlagError,
               frame.header.request_id, c.payload);
}

bool Server::flush_writes(Connection& c) {
  while (c.wpos < c.wbuf.size()) {
    const std::ptrdiff_t n = write_some(
        c.sock.fd(), c.wbuf.data() + c.wpos, c.wbuf.size() - c.wpos);
    if (n < 0) break;  // EAGAIN: the loop will report writability
    c.wpos += static_cast<std::size_t>(n);
  }
  if (c.wpos == c.wbuf.size()) {
    c.wbuf.clear();
    c.wpos = 0;
  } else if (c.wpos > (1u << 20)) {
    c.wbuf.erase(0, c.wpos);
    c.wpos = 0;
  }
  return true;
}

void Server::update_write_interest(Worker& w, Connection& c) {
  if (c.dead || c.eof) return;  // eof: the fd is already deregistered
  const bool want = c.wpos < c.wbuf.size();
  if (want != c.want_write) {
    c.want_write = want;
    w.loop.mod(c.sock.fd(), want, &c);
  }
}

// --- sharded mode --------------------------------------------------------

void Server::serve_frame_sharded(Worker& w, Connection& c,
                                 const Frame& frame) {
  MPCBF_TRACE_SPAN(span, kNet, "net.request");
  const bool slow_capture = options_.slow_request_threshold.count() >= 0;
  const std::uint64_t t0 =
      (metrics::kStatsEnabled || slow_capture) ? metrics::now_ns() : 0;
  served_.fetch_add(1, std::memory_order_relaxed);
  const FrameHeader& h = frame.header;
  if ((h.flags & kFlagResponse) != 0 || !opcode_known(h.opcode)) {
    reply_error(w, c, frame, ErrorCode::kBadRequest,
                (h.flags & kFlagResponse) != 0
                    ? "response flag set on a request"
                    : "unknown opcode");
    return;
  }
  const auto op = static_cast<Opcode>(h.opcode);
  span.set_arg("opcode", h.opcode);
  Frame f = frame;
  TracePrefix trace;
  if ((h.flags & kFlagTraced) != 0) {
    std::string_view rest;
    if (const char* err = parse_trace_prefix(frame.payload, trace, rest);
        err != nullptr) {
      reply_error(w, c, frame, ErrorCode::kBadRequest, err);
      return;
    }
    f.payload = rest;
    span.set_arg("trace_id", trace.trace_id);
  }
  if ((h.flags & kFlagNamespaced) != 0) {
    // Namespaces are a flat-server feature: shard ownership and the
    // registry's per-namespace locking do not compose (yet).
    reply_error(w, c, frame, ErrorCode::kUnsupported,
                "sharded server does not support namespaces");
    return;
  }

  // Synchronous completions (inline fast path, admin replies served
  // from this thread) share one timing recorder; scattered jobs record
  // in note_served() instead.
  const auto record = [&](std::uint32_t batch_keys) {
    const std::uint64_t dur =
        (metrics::kStatsEnabled || slow_capture) ? metrics::now_ns() - t0
                                                 : 0;
    if (metrics::kStatsEnabled) {
      metrics_->duration_ns[h.opcode - 1]->record(dur);
    }
    if (slow_capture &&
        dur >= static_cast<std::uint64_t>(
                   options_.slow_request_threshold.count()) *
                   1000) {
      SlowRequest r;
      r.start_ns = t0;
      r.duration_ns = dur;
      r.trace_id = trace.trace_id;
      r.peer = c.peer;
      r.batch_keys = batch_keys;
      r.opcode = h.opcode;
      slow_ring_.record(r);
      MPCBF_LOG_WARN("server.slow_request",
                     log::str("op", to_string(op)),
                     log::u64("duration_ns", dur),
                     log::u64("batch_keys", r.batch_keys),
                     log::hex("trace_id", trace.trace_id),
                     log::str("peer", format_peer(c.peer)));
    }
  };

  const auto nshards = static_cast<std::uint32_t>(shards_.shards.size());
  const ShardBackend& own = shards_.shards[w.index];

  // Builds the scatter job skeleton; the caller fills per-sub fields
  // and dispatches. Returned raw pointer is owned by the pipeline.
  const auto new_job = [&]() {
    auto job = std::make_unique<PendingReply>();
    job->conn = &c;
    job->origin = w.index;
    job->opcode = h.opcode;
    job->request_id = h.request_id;
    job->t0 = t0;
    job->trace_id = trace.trace_id;
    job->peer = c.peer;
    return job;
  };
  // Dispatches a fully built job: remote subs over the rings, the own
  // shard's sub (if any) inline. Must run after the job is in the
  // pipeline so an inline completion finds it there.
  const auto dispatch = [&](PendingReply* job) {
    job->outstanding = static_cast<int>(job->subs.size());
    SubBatch* own_sub = nullptr;
    for (auto& sub : job->subs) {
      if (sub.shard == w.index) {
        own_sub = &sub;
        continue;
      }
      send_to(w, sub.shard, RingMsg{&sub, false});
    }
    if (own_sub != nullptr) {
      execute_sub(w, *own_sub);
      complete_sub(w, *own_sub);
    } else if (job->subs.empty()) {
      finalize_job(w, *job);
    }
  };

  switch (op) {
    case Opcode::kQuery:
    case Opcode::kInsert:
    case Opcode::kErase: {
      const bool sequenced = (h.flags & kFlagSequenced) != 0;
      SequencePrefix prefix{};
      const char* err =
          sequenced
              ? (op == Opcode::kQuery
                     ? "sequenced flag on an idempotent opcode"
                     : parse_sequenced_key_batch(f.payload, prefix,
                                                 c.keys))
              : parse_key_batch(f.payload, c.keys);
      if (err != nullptr) {
        reply_error(w, c, frame, ErrorCode::kBadRequest, err);
        return;
      }
      const auto& hook = op == Opcode::kQuery  ? own.contains_batch
                         : op == Opcode::kInsert ? own.insert_batch
                                                 : own.erase_batch;
      if (!hook) {
        reply_error(w, c, frame, ErrorCode::kUnsupported,
                    "opcode not supported by this backend");
        return;
      }
      if (sequenced) {
        // Dedup check + inflight claim, all under the lock. The apply
        // itself happens outside (scattered); a concurrent retry during
        // the flight gets a retryable error rather than a second apply.
        std::lock_guard<std::mutex> lock(dedup_mu_);
        auto it = dedup_.find(prefix.session_id);
        if (it != dedup_.end() && it->second.op_seq == prefix.op_seq) {
          if (it->second.opcode != static_cast<std::uint8_t>(op)) {
            reply_error(w, c, frame, ErrorCode::kBadRequest,
                        "sequence number reused across opcodes");
            return;
          }
          if (it->second.inflight) {
            reply_error(w, c, frame, ErrorCode::kInternal,
                        "sequenced mutation still in flight; retry");
            return;
          }
          metrics_->deduped.inc();
          complete_now(w, c, h.opcode, kFlagResponse, h.request_id,
                       it->second.reply);
          record(0);
          return;
        }
        if (it != dedup_.end() && prefix.op_seq < it->second.op_seq) {
          reply_error(w, c, frame, ErrorCode::kBadRequest,
                      "stale sequence number");
          return;
        }
        if (it == dedup_.end()) {
          if (dedup_.size() >= kMaxDedupSessions) {
            dedup_.erase(dedup_.begin());
          }
          it = dedup_.emplace(prefix.session_id, DedupEntry{}).first;
        }
        it->second.op_seq = prefix.op_seq;
        it->second.opcode = static_cast<std::uint8_t>(op);
        it->second.inflight = true;
        it->second.reply.clear();
      }
      c.split.reset(nshards);
      split_by_shard(c.keys, nshards, c.split);
      const int idx = op == Opcode::kQuery ? 0
                      : op == Opcode::kInsert ? 1
                                              : 2;
      metrics_->requests[idx]->inc();
      metrics_->keys[idx]->inc(c.keys.size());
      metrics_->batch_keys.record(c.keys.size());

      // Fast path: every key lives in this worker's shard (or the batch
      // is empty) — serve on the read-buffer views, zero copies, no job
      // allocation. Sequenced ops always take the job path so the reply
      // caching happens in exactly one place (finalize_job).
      if (!sequenced &&
          (c.keys.empty() ||
           (c.split.active == 1 && c.split.solo == w.index))) {
        c.verdicts.assign(c.keys.size(), 0);
        try {
          if (!c.keys.empty()) hook(c.keys, c.verdicts);
        } catch (const std::exception& e) {
          MPCBF_LOG_ERROR("server.request_failed",
                          log::str("op", to_string(op)),
                          log::str("error", e.what()),
                          log::hex("trace_id", trace.trace_id),
                          log::str("peer", format_peer(c.peer)));
          reply_error(w, c, frame, ErrorCode::kInternal, e.what());
          return;
        }
        if (op != Opcode::kQuery) ++w.mutation_subs;
        w.shard_requests->inc();
        w.shard_keys->inc(c.keys.size());
        c.payload.clear();
        append_verdicts(c.payload, c.verdicts);
        complete_now(w, c, h.opcode, kFlagResponse, h.request_id,
                     c.payload);
        record(static_cast<std::uint32_t>(c.keys.size()));
        return;
      }

      // Scatter: copy the key bytes into job-owned storage (views into
      // the read buffer cannot outlive this call), then one sub-batch
      // per active shard.
      auto job = new_job();
      job->sequenced = sequenced;
      job->seq_prefix = prefix;
      job->batch_keys = static_cast<std::uint32_t>(c.keys.size());
      std::size_t total = 0;
      for (const auto key : c.keys) total += key.size();
      job->keybuf.reserve(total);
      for (const auto key : c.keys) job->keybuf.append(key);
      job->keys.reserve(c.keys.size());
      std::size_t off = 0;
      for (const auto key : c.keys) {
        job->keys.emplace_back(job->keybuf.data() + off, key.size());
        off += key.size();
      }
      job->subs.reserve(c.split.active);
      for (std::uint32_t s = 0; s < nshards; ++s) {
        if (c.split.idx[s].empty()) continue;
        job->subs.emplace_back();
        SubBatch& sub = job->subs.back();
        sub.job = job.get();
        sub.shard = s;
        sub.op = h.opcode;
        sub.idx = c.split.idx[s];
        sub.keys.reserve(sub.idx.size());
        for (const auto i : sub.idx) sub.keys.push_back(job->keys[i]);
        sub.out.assign(sub.idx.size(), 0);
      }
      PendingReply* jp = job.get();
      c.pipeline.push_back(std::move(job));
      dispatch(jp);
      return;
    }
    case Opcode::kStats:
    case Opcode::kHealth: {
      auto job = new_job();
      job->subs.reserve(nshards);
      for (std::uint32_t s = 0; s < nshards; ++s) {
        job->subs.emplace_back();
        job->subs.back().job = job.get();
        job->subs.back().shard = s;
        job->subs.back().op = h.opcode;
      }
      PendingReply* jp = job.get();
      c.pipeline.push_back(std::move(job));
      dispatch(jp);
      return;
    }
    case Opcode::kSnapshot: {
      if (!own.snapshot) {
        reply_error(w, c, frame, ErrorCode::kUnsupported,
                    "backend has no durable storage");
        return;
      }
      auto job = new_job();
      job->subs.reserve(nshards);
      for (std::uint32_t s = 0; s < nshards; ++s) {
        job->subs.emplace_back();
        job->subs.back().job = job.get();
        job->subs.back().shard = s;
        job->subs.back().op = h.opcode;
      }
      PendingReply* jp = job.get();
      c.pipeline.push_back(std::move(job));
      dispatch(jp);
      return;
    }
    case Opcode::kReplicate: {
      if (!own.journal_tail) {
        reply_error(w, c, frame, ErrorCode::kUnsupported,
                    "replication requires a durable backend");
        return;
      }
      ReplicateRequest req;
      if (const char* err = parse_reply_pod(f.payload, req);
          err != nullptr) {
        reply_error(w, c, frame, ErrorCode::kBadRequest, err);
        return;
      }
      auto job = new_job();
      job->repl_req = req;
      job->repl_req.max_records =
          std::min(req.max_records != 0 ? req.max_records
                                        : kMaxReplicateRecords,
                   kMaxReplicateRecords);
      job->repl_req.max_bytes = static_cast<std::uint32_t>(
          std::min<std::uint64_t>(
              req.max_bytes != 0 ? req.max_bytes : (1u << 20),
              kMaxPayload / 2));
      job->subs.reserve(nshards);
      for (std::uint32_t s = 0; s < nshards; ++s) {
        job->subs.emplace_back();
        SubBatch& sub = job->subs.back();
        sub.job = job.get();
        sub.shard = s;
        sub.op = h.opcode;
        sub.tail_from = req.from_seq;
        // Each shard gets the full caps; the merge truncates. The
        // per-shard page is bounded by kMaxReplicateRecords either way.
        sub.tail_max_records = job->repl_req.max_records;
        sub.tail_max_bytes = job->repl_req.max_bytes;
      }
      PendingReply* jp = job.get();
      c.pipeline.push_back(std::move(job));
      dispatch(jp);
      return;
    }
    case Opcode::kSnapFetch: {
      // A consistent full-image snapshot would require freezing all
      // shards at one sequence point — deliberately unsupported.
      // Followers bootstrap by starting before the primary's journals
      // compact (from_seq 1 replays the full merged stream).
      reply_error(w, c, frame, ErrorCode::kUnsupported,
                  "sharded primary cannot serve snapshot bootstrap; "
                  "start followers before the journal is compacted");
      return;
    }
    case Opcode::kReplStatus: {
      if (!shards_.seq_counter) {
        reply_error(w, c, frame, ErrorCode::kUnsupported,
                    "replication status requires a durable backend");
        return;
      }
      const std::uint64_t next_seq =
          shards_.seq_counter->load(std::memory_order_relaxed) + 1;
      c.payload.clear();
      append_reply_pod(c.payload, repl_source_.status(next_seq));
      metrics_->repl_requests.inc();
      complete_now(w, c, h.opcode, kFlagResponse, h.request_id,
                   c.payload);
      record(0);
      return;
    }
    case Opcode::kEstCount: {
      if (const char* err = parse_key_batch(f.payload, c.keys);
          err != nullptr) {
        reply_error(w, c, frame, ErrorCode::kBadRequest, err);
        return;
      }
      if (!own.est_count) {
        reply_error(w, c, frame, ErrorCode::kUnsupported,
                    "count estimation not supported by this backend");
        return;
      }
      c.split.reset(nshards);
      split_by_shard(c.keys, nshards, c.split);
      metrics_->requests[3]->inc();
      metrics_->keys[3]->inc(c.keys.size());
      metrics_->batch_keys.record(c.keys.size());

      // Same fast path as kQuery: all keys owned here → serve inline.
      if (c.keys.empty() ||
          (c.split.active == 1 && c.split.solo == w.index)) {
        c.counts.assign(c.keys.size(), 0);
        try {
          if (!c.keys.empty()) own.est_count(c.keys, c.counts);
        } catch (const std::exception& e) {
          MPCBF_LOG_ERROR("server.request_failed",
                          log::str("op", to_string(op)),
                          log::str("error", e.what()),
                          log::hex("trace_id", trace.trace_id),
                          log::str("peer", format_peer(c.peer)));
          reply_error(w, c, frame, ErrorCode::kInternal, e.what());
          return;
        }
        w.shard_requests->inc();
        w.shard_keys->inc(c.keys.size());
        c.payload.clear();
        append_counts(c.payload, c.counts);
        complete_now(w, c, h.opcode, kFlagResponse, h.request_id,
                     c.payload);
        record(static_cast<std::uint32_t>(c.keys.size()));
        return;
      }

      auto job = new_job();
      job->batch_keys = static_cast<std::uint32_t>(c.keys.size());
      std::size_t total = 0;
      for (const auto key : c.keys) total += key.size();
      job->keybuf.reserve(total);
      for (const auto key : c.keys) job->keybuf.append(key);
      job->keys.reserve(c.keys.size());
      std::size_t off = 0;
      for (const auto key : c.keys) {
        job->keys.emplace_back(job->keybuf.data() + off, key.size());
        off += key.size();
      }
      job->subs.reserve(c.split.active);
      for (std::uint32_t s = 0; s < nshards; ++s) {
        if (c.split.idx[s].empty()) continue;
        job->subs.emplace_back();
        SubBatch& sub = job->subs.back();
        sub.job = job.get();
        sub.shard = s;
        sub.op = h.opcode;
        sub.idx = c.split.idx[s];
        sub.keys.reserve(sub.idx.size());
        for (const auto i : sub.idx) sub.keys.push_back(job->keys[i]);
        sub.counts.assign(sub.idx.size(), 0);
      }
      PendingReply* jp = job.get();
      c.pipeline.push_back(std::move(job));
      dispatch(jp);
      return;
    }
    case Opcode::kNsCreate:
    case Opcode::kNsDrop:
    case Opcode::kNsList:
    case Opcode::kNsTick: {
      reply_error(w, c, frame, ErrorCode::kUnsupported,
                  "namespace administration requires the flat server");
      return;
    }
  }
}

void Server::execute_sub(Worker& w, SubBatch& sub) {
  const ShardBackend& s = shards_.shards[w.index];
  try {
    switch (static_cast<Opcode>(sub.op)) {
      case Opcode::kQuery:
        s.contains_batch(sub.keys, sub.out);
        w.shard_requests->inc();
        w.shard_keys->inc(sub.keys.size());
        break;
      case Opcode::kInsert:
        s.insert_batch(sub.keys, sub.out);
        w.shard_requests->inc();
        w.shard_keys->inc(sub.keys.size());
        ++w.mutation_subs;
        break;
      case Opcode::kErase:
        s.erase_batch(sub.keys, sub.out);
        w.shard_requests->inc();
        w.shard_keys->inc(sub.keys.size());
        ++w.mutation_subs;
        break;
      case Opcode::kStats:
        sub.stats = s.stats();
        break;
      case Opcode::kHealth:
        sub.health = s.health();
        break;
      case Opcode::kSnapshot:
        sub.watermark = s.snapshot();
        break;
      case Opcode::kReplicate:
        sub.tail = s.journal_tail(sub.tail_from, sub.tail_max_records,
                                  sub.tail_max_bytes);
        break;
      case Opcode::kEstCount:
        s.est_count(sub.keys, sub.counts);
        w.shard_requests->inc();
        w.shard_keys->inc(sub.keys.size());
        break;
      default:
        sub.error = "internal: unexpected sub-batch opcode";
        break;
    }
  } catch (const std::exception& e) {
    sub.error = e.what();
  }
}

void Server::send_to(Worker& w, std::size_t dest, RingMsg msg) {
  auto& ring = *rings_[dest][w.index];
  // FIFO per (src, dest) is what preserves per-key operation order, so
  // a new message may not overtake ones already parked.
  if (!msg.completion) w.ring_forwards->inc();
  if (w.overflow[dest].empty() && ring.push(msg)) {
    workers_[dest]->loop.wake();
    return;
  }
  w.ring_full->inc();
  w.overflow[dest].push_back(msg);
  w.has_overflow = true;
  if (!msg.completion) ++w.overflow_work;
  workers_[dest]->loop.wake();
}

bool Server::drain_rings(Worker& w) {
  bool did = false;
  RingMsg msg;
  for (std::size_t src = 0; src < workers_.size(); ++src) {
    if (src == w.index) continue;
    auto& ring = *rings_[w.index][src];
    while (ring.pop(msg)) {
      did = true;
      if (msg.completion) {
        complete_sub(w, *msg.sub);
      } else {
        execute_sub(w, *msg.sub);
        send_to(w, msg.sub->job->origin, RingMsg{msg.sub, true});
      }
    }
  }
  // Retry parked messages: peers may have drained their rings since.
  if (w.has_overflow) {
    w.has_overflow = false;
    for (std::size_t dest = 0; dest < workers_.size(); ++dest) {
      auto& q = w.overflow[dest];
      while (!q.empty() && rings_[dest][w.index]->push(q.front())) {
        if (!q.front().completion) --w.overflow_work;
        q.pop_front();
        workers_[dest]->loop.wake();
        did = true;
      }
      if (!q.empty()) w.has_overflow = true;
    }
  }
  return did;
}

void Server::complete_sub(Worker& w, SubBatch& sub) {
  PendingReply& job = *sub.job;
  // `outstanding` is touched only by the origin thread (us); the ring
  // pop's acquire ordered the remote result fields before this read.
  if (--job.outstanding == 0) finalize_job(w, job);
}

void Server::finalize_job(Worker& w, PendingReply& job) {
  std::string& out = job.payload;
  out.clear();
  const auto op = static_cast<Opcode>(job.opcode);
  std::string error;
  for (const auto& sub : job.subs) {
    if (!sub.error.empty()) {
      error = sub.error;
      break;
    }
  }
  if (!error.empty()) {
    MPCBF_LOG_ERROR("server.request_failed",
                    log::str("op", to_string(op)),
                    log::str("error", error),
                    log::hex("trace_id", job.trace_id),
                    log::str("peer", format_peer(job.peer)));
    metrics_->request_errors.inc();
    job.flags = kFlagResponse | kFlagError;
    append_error(out, ErrorCode::kInternal, error);
  } else {
    switch (op) {
      case Opcode::kQuery:
      case Opcode::kInsert:
      case Opcode::kErase: {
        // Gather: scatter each sub's verdicts back to the original key
        // positions — the reply is byte-identical to a flat server's.
        std::vector<std::uint8_t> verdicts(job.batch_keys, 0);
        for (const auto& sub : job.subs) {
          for (std::size_t i = 0; i < sub.idx.size(); ++i) {
            verdicts[sub.idx[i]] = sub.out[i];
          }
        }
        append_verdicts(out, verdicts);
        break;
      }
      case Opcode::kEstCount: {
        std::vector<std::uint32_t> counts(job.batch_keys, 0);
        for (const auto& sub : job.subs) {
          for (std::size_t i = 0; i < sub.idx.size(); ++i) {
            counts[sub.idx[i]] = sub.counts[i];
          }
        }
        append_counts(out, counts);
        break;
      }
      case Opcode::kStats: {
        StatsReply total{};
        bool first = true;
        for (const auto& sub : job.subs) {
          if (first) {
            total = sub.stats;  // layout params from shard 0
            first = false;
            continue;
          }
          total.elements += sub.stats.elements;
          total.memory_bits += sub.stats.memory_bits;
          total.stash_entries += sub.stats.stash_entries;
          total.overflow_events += sub.stats.overflow_events;
          total.underflow_events += sub.stats.underflow_events;
        }
        total.requests_served = served_.load(std::memory_order_relaxed);
        total.uptime_seconds = static_cast<std::uint64_t>(
            metrics::process_uptime_seconds());
        append_reply_pod(out, total);
        metrics_->admin_requests.inc();
        break;
      }
      case Opcode::kHealth: {
        // Worst-shard severity/scores, summed elements: one saturated
        // shard degrades the whole server's health, which is exactly
        // what an operator needs to see.
        HealthReply hr{};
        bool first = true;
        for (const auto& sub : job.subs) {
          const HealthReply& s = sub.health;
          if (first) {
            hr = s;
            first = false;
            continue;
          }
          hr.severity = std::max(hr.severity, s.severity);
          hr.saturation_score =
              std::max(hr.saturation_score, s.saturation_score);
          hr.level1_fill = std::max(hr.level1_fill, s.level1_fill);
          hr.measured_fpr = std::max(hr.measured_fpr, s.measured_fpr);
          hr.fpr_drift = std::max(hr.fpr_drift, s.fpr_drift);
          hr.elements += s.elements;
        }
        hr.ready = running() ? 1 : 0;
        append_reply_pod(out, hr);
        metrics_->admin_requests.inc();
        break;
      }
      case Opcode::kSnapshot: {
        std::vector<std::uint64_t> marks;
        marks.reserve(job.subs.size());
        std::uint64_t last = 0;
        for (const auto& sub : job.subs) {
          marks.push_back(sub.watermark);
          last = std::max(last, sub.watermark);
        }
        bool manifest_ok = true;
        if (shards_.manifest) {
          try {
            shards_.manifest(marks);
          } catch (const std::exception& e) {
            manifest_ok = false;
            metrics_->request_errors.inc();
            job.flags = kFlagResponse | kFlagError;
            append_error(out, ErrorCode::kInternal, e.what());
          }
        }
        if (manifest_ok) {
          SnapshotReply r;
          r.last_seq = last;
          append_reply_pod(out, r);
          metrics_->admin_requests.inc();
        }
        break;
      }
      case Opcode::kReplicate: {
        // Merge the per-shard journal tails into one ordered stream and
        // truncate at the first gap: the union of shard WALs is the
        // consecutive global stream, but a record may be momentarily
        // missing (scanned shard A before shard B flushed a lower seq).
        // The follower simply re-polls from the gap.
        std::vector<io::JournalRecord> merged;
        std::uint64_t base = 1;
        std::uint64_t next = 1;
        for (auto& sub : job.subs) {
          base = std::max(base, sub.tail.base_seq);
          next = std::max(next, sub.tail.next_seq);
          for (auto& rec : sub.tail.records) {
            merged.push_back(std::move(rec));
          }
        }
        std::sort(merged.begin(), merged.end(),
                  [](const io::JournalRecord& a,
                     const io::JournalRecord& b) { return a.seq < b.seq; });
        std::vector<io::JournalRecord> keep;
        std::uint64_t expected = job.repl_req.from_seq;
        std::uint64_t bytes = 0;
        for (auto& rec : merged) {
          if (rec.seq != expected) break;
          // 13 = seq u64 + op u8 + key_len u32 (wire framing per record).
          if (keep.size() >= job.repl_req.max_records ||
              bytes + 13 + rec.key.size() > job.repl_req.max_bytes) {
            break;
          }
          bytes += 13 + rec.key.size();
          keep.push_back(std::move(rec));
          ++expected;
        }
        ReplicateInfo info;
        info.next_seq = next;
        info.base_seq = base;
        info.need_snapshot =
            job.repl_req.from_seq < base ? 1 : 0;
        if (info.need_snapshot != 0) keep.clear();
        append_replicate_reply(out, info, keep);
        repl_source_.note_follower(
            job.repl_req.follower_id,
            job.repl_req.from_seq > 0 ? job.repl_req.from_seq - 1 : 0,
            next);
        metrics_->repl_requests.inc();
        break;
      }
      default: {
        metrics_->request_errors.inc();
        job.flags = kFlagResponse | kFlagError;
        append_error(out, ErrorCode::kInternal,
                     "internal: unexpected scattered opcode");
        break;
      }
    }
  }
  if (job.sequenced) {
    // Cache the reply (error replies included: sub-batches may have
    // partially applied, so a blind re-apply on retry would double
    // count — at-most-once is the safe degradation) and release the
    // inflight claim.
    std::lock_guard<std::mutex> lock(dedup_mu_);
    auto it = dedup_.find(job.seq_prefix.session_id);
    if (it != dedup_.end() &&
        it->second.op_seq == job.seq_prefix.op_seq) {
      it->second.inflight = false;
      it->second.reply = job.payload;
    }
  }
  job.done = true;
  note_served(job);
  if (job.conn != nullptr) {
    pump_replies(w, *job.conn);
  } else {
    // Orphan: the connection died while subs were remote; the job only
    // existed to keep the sub-batch memory alive. Free it.
    std::erase_if(w.orphans, [&](const std::unique_ptr<PendingReply>& p) {
      return p.get() == &job;
    });
  }
}

void Server::pump_replies(Worker& w, Connection& c) {
  bool wrote = false;
  while (!c.pipeline.empty() && c.pipeline.front()->done) {
    const std::unique_ptr<PendingReply> job =
        std::move(c.pipeline.front());
    c.pipeline.pop_front();
    append_frame(c.wbuf, static_cast<Opcode>(job->opcode), job->flags,
                 job->request_id, job->payload);
    wrote = true;
  }
  if (!wrote) return;
  if (!flush_writes(c)) {
    c.dead = true;
    return;
  }
  if (c.eof) {
    // The fd is deregistered; once the pipeline empties the connection
    // closes (best-effort flush above — a half-closed peer with a full
    // socket buffer forfeits the tail).
    if (c.pipeline.empty()) c.dead = true;
    return;
  }
  update_write_interest(w, c);
}

void Server::complete_now(Worker& w, Connection& c, std::uint8_t opcode,
                          std::uint8_t flags, std::uint64_t request_id,
                          std::string payload) {
  if (c.pipeline.empty()) {
    append_frame(c.wbuf, static_cast<Opcode>(opcode), flags, request_id,
                 payload);
    return;
  }
  // Earlier requests are still in flight: queue behind them so replies
  // stay in request order.
  auto job = std::make_unique<PendingReply>();
  job->conn = &c;
  job->origin = w.index;
  job->opcode = opcode;
  job->flags = flags;
  job->request_id = request_id;
  job->payload = std::move(payload);
  job->done = true;
  c.pipeline.push_back(std::move(job));
}

void Server::note_served(PendingReply& job) {
  const bool slow_capture = options_.slow_request_threshold.count() >= 0;
  if (!metrics::kStatsEnabled && !slow_capture) return;
  const std::uint64_t dur = metrics::now_ns() - job.t0;
  if (metrics::kStatsEnabled && job.opcode >= 1 &&
      job.opcode <= kMaxOpcode) {
    metrics_->duration_ns[job.opcode - 1]->record(dur);
  }
  if (slow_capture &&
      dur >= static_cast<std::uint64_t>(
                 options_.slow_request_threshold.count()) *
                 1000) {
    SlowRequest r;
    r.start_ns = job.t0;
    r.duration_ns = dur;
    r.trace_id = job.trace_id;
    r.peer = job.peer;
    r.batch_keys = job.batch_keys;
    r.opcode = job.opcode;
    slow_ring_.record(r);
    MPCBF_LOG_WARN("server.slow_request",
                   log::str("op",
                            to_string(static_cast<Opcode>(job.opcode))),
                   log::u64("duration_ns", dur),
                   log::u64("batch_keys", r.batch_keys),
                   log::hex("trace_id", job.trace_id),
                   log::str("peer", format_peer(job.peer)));
  }
}

}  // namespace mpcbf::net
