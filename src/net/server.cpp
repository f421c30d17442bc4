#include "net/server.hpp"

#include <algorithm>
#include <limits>
#include <utility>

#include "common/log.hpp"
#include "metrics/build_info.hpp"
#include "net/namespace_registry.hpp"
#include "metrics/registry.hpp"
#include "metrics/timer.hpp"
#include "trace/trace.hpp"

namespace mpcbf::net {

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
  bool want_write = false;  ///< EPOLLOUT currently armed
  bool dead = false;
  // Slow-loris accounting: when the read buffer ends in a partial
  // frame, the time that partial first appeared. A peer may idle
  // between frames forever; it may not stall *inside* one.
  bool mid_frame = false;
  std::chrono::steady_clock::time_point partial_since{};
};

struct Server::Worker {
  EventLoop loop;
  /// Every read lands here first; a connection's buffer then grows by
  /// the bytes that arrived, never by a zero-filled chunk.
  std::unique_ptr<char[]> read_chunk =
      std::make_unique_for_overwrite<char[]>(kReadChunk);
  std::mutex mu;
  std::vector<Socket> intake;  ///< accepted sockets awaiting adoption
  std::vector<std::unique_ptr<Connection>> conns;

  // Drain state.
  bool draining = false;
  std::chrono::steady_clock::time_point drain_deadline{};
};

Server::Server(FilterBackend backend, Options options)
    : backend_(std::move(backend)), options_(std::move(options)) {
  if (options_.workers == 0) options_.workers = 1;
  metrics_ = &ServerMetrics::get();
}

Server::~Server() { stop(); }

void Server::set_namespace_registry(
    std::shared_ptr<NamespaceRegistry> registry) {
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
    workers_.push_back(std::make_unique<Worker>());
  }
  pool_ = std::make_unique<util::ThreadPool>(options_.workers);
  for (auto& w : workers_) {
    (void)pool_->submit([this, worker = w.get()] { worker_loop(*worker); });
  }
  acceptor_ = std::thread([this] { acceptor_loop(); });
  MPCBF_LOG_INFO("server.start", log::str("bind", options_.bind_address),
                 log::u64("port", port_),
                 log::u64("workers", options_.workers));
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

    const auto now = std::chrono::steady_clock::now();
    if (stopping_.load(std::memory_order_acquire) && !w.draining) {
      w.draining = true;
      w.drain_deadline = now + options_.drain_timeout;
    }
    if (w.draining) {
      // In-flight work is whatever bytes arrived before the drain began;
      // serve it, flush it, close. Past the deadline, close regardless.
      const bool expired = now >= w.drain_deadline;
      for (auto& c : w.conns) {
        if (c->dead) continue;
        try {
          if (!drain_frames(*c) || !flush_writes(*c)) c->dead = true;
        } catch (const NetError&) {
          c->dead = true;
        }
        if (expired || c->wpos == c->wbuf.size()) c->dead = true;
      }
    }
    sweep_stalled(w);
    std::erase_if(w.conns, [&](const auto& c) {
      if (!c->dead) return false;
      w.loop.del(c->sock.fd());
      metrics_->active.add(-1.0);
      return true;
    });
    if (w.draining && w.conns.empty()) return;

    // Idle means block forever: wakes come from the acceptor hand-off
    // and stop(). Finite timeouts exist only to re-check drain progress
    // and sweep stalled frames.
    int timeout_ms = -1;
    if (w.draining) {
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
    // A full buffer is served before reading on: it may hold a maximal
    // frame followed by pipelined bytes. Only a buffer still full once
    // its complete frames are answered holds no complete frame at the
    // cap, which one frame can never legitimately need.
    for (bool more = readable || broken; more;) {
      const ReadStatus st =
          read_available(c.sock.fd(), c.rbuf,
                         std::span<char>(w.read_chunk.get(), kReadChunk),
                         kMaxReadBuffer);
      if (st == ReadStatus::kEof) {  // serve what we have, then close
        if (drain_frames(c)) (void)flush_writes(c);
        c.dead = true;
        return;
      }
      if (!drain_frames(c)) {
        c.dead = true;
        return;
      }
      more = st == ReadStatus::kFull;
      if (more && c.rbuf.size() + kReadChunk > kMaxReadBuffer) {
        metrics_->proto_errors.inc();
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

bool Server::drain_frames(Connection& c) {
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
    serve_frame(c, r.frame);
    c.rpos += r.consumed;
  }
  if (c.rpos > 0) {
    // Every frame decoded so far has been answered, so no key view
    // into the consumed prefix survives the compaction.
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

void Server::serve_frame(Connection& c, const Frame& frame) {
  const bool traced = trace::Tracer::armed();
  const bool slow_capture = options_.slow_request_threshold.count() >= 0;
  const std::uint64_t t0 = metrics::now_ns();
  served_.fetch_add(1, std::memory_order_relaxed);
  std::uint64_t trace_id = 0;
  std::size_t batch_keys = 0;
  const bool answered = answer_frame(c, frame, trace_id, batch_keys);
  // Error replies feed only the tracer.
  if (!answered && !traced) return;
  const std::uint64_t dur = metrics::now_ns() - t0;
  const std::uint8_t opcode = frame.header.opcode;
  if (answered) metrics_->duration_ns[opcode - 1]->record(dur);
  trace::Span span;
  span.ts_ns = t0;
  span.dur_ns = std::max<std::uint64_t>(1, dur);  // 0 encodes an instant
  span.cat = trace::Category::kNet;
  span.trace_id = trace_id;
  span.peer = c.peer;
  if (traced) {
    span.name = "net.request";
    span.arg_name = "opcode";
    span.arg = opcode;
    trace::Tracer::global().record(span);
  }
  if (answered && slow_capture &&
      dur >= static_cast<std::uint64_t>(
                 options_.slow_request_threshold.count()) *
                 1000) {
    // The slow ring's reader, /tracez, shows nothing but the span, so
    // the opcode names it and the one arg carries the batch size.
    const auto op = static_cast<Opcode>(opcode);
    span.name = to_string(op);
    span.arg_name = "batch_keys";
    span.arg = batch_keys;
    slow_ring_.record(span);
    MPCBF_LOG_WARN("server.slow_request", log::str("op", to_string(op)),
                   log::u64("duration_ns", dur),
                   log::u64("batch_keys", batch_keys),
                   log::hex("trace_id", trace_id),
                   log::str("peer", format_peer(c.peer)));
  }
}

bool Server::answer_frame(Connection& c, const Frame& frame,
                          std::uint64_t& trace_id,
                          std::size_t& batch_keys) {
  const FrameHeader& h = frame.header;
  if ((h.flags & kFlagResponse) != 0 || !opcode_known(h.opcode)) {
    reply_error(c, frame, ErrorCode::kBadRequest,
                (h.flags & kFlagResponse) != 0
                    ? "response flag set on a request"
                    : "unknown opcode");
    return false;
  }
  const auto op = static_cast<Opcode>(h.opcode);
  // Traced requests carry the client's trace id as the first payload
  // bytes; strip the prefix so every downstream parser sees the plain
  // payload, and report the propagated id for the request's span.
  Frame f = frame;
  TracePrefix trace;
  if ((h.flags & kFlagTraced) != 0) {
    std::string_view rest;
    if (const char* err = parse_trace_prefix(frame.payload, trace, rest);
        err != nullptr) {
      reply_error(c, frame, ErrorCode::kBadRequest, err);
      return false;
    }
    f.payload = rest;
    trace_id = trace.trace_id;
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
      reply_error(c, frame, ErrorCode::kBadRequest, err);
      return false;
    }
    f.payload = rest;
    if (op == Opcode::kNsCreate || op == Opcode::kNsDrop ||
        op == Opcode::kNsList || op == Opcode::kNsTick) {
      reply_error(c, frame, ErrorCode::kBadRequest,
                  "namespace admin opcodes are not namespaced");
      return false;
    }
    if (registry_ == nullptr) {
      reply_error(c, frame, ErrorCode::kUnsupported,
                  "server has no namespace registry");
      return false;
    }
    ns_backend = registry_->resolve(ns_name);
    if (ns_backend == nullptr) {
      reply_error(c, frame, ErrorCode::kUnknownNamespace,
                  "unknown namespace");
      return false;
    }
    be = ns_backend.get();
  }
  c.payload.clear();
  try {
    switch (op) {
      case Opcode::kQuery:
      case Opcode::kInsert:
      case Opcode::kErase: {
        if ((h.flags & kFlagSequenced) != 0) {
          if (op == Opcode::kQuery) {
            reply_error(c, frame, ErrorCode::kBadRequest,
                        "sequenced flag on an idempotent opcode");
            return false;
          }
          // Dedup path: fills c.payload (fresh apply or cached replay);
          // on false an error reply has already been sent.
          if (!serve_sequenced(c, f, op, *be)) return false;
          batch_keys = c.keys.size();
          break;
        }
        if (const char* err = parse_key_batch(f.payload, c.keys);
            err != nullptr) {
          reply_error(c, frame, ErrorCode::kBadRequest, err);
          return false;
        }
        const auto& hook = op == Opcode::kQuery ? be->contains_batch
                           : op == Opcode::kInsert ? be->insert_batch
                                                   : be->erase_batch;
        if (!hook) {
          reply_error(c, frame, ErrorCode::kUnsupported,
                      "opcode not supported by this backend");
          return false;
        }
        if (op == Opcode::kInsert && be->admit) {
          if (const char* err = be->admit(c.keys.size());
              err != nullptr) {
            reply_error(c, frame, ErrorCode::kQuotaExceeded, err);
            return false;
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
          reply_error(c, frame, ErrorCode::kUnsupported,
                      "stats not supported by this backend");
          return false;
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
          reply_error(c, frame, ErrorCode::kUnsupported,
                      "health not supported by this backend");
          return false;
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
          reply_error(c, frame, ErrorCode::kUnsupported,
                      "backend has no durable storage");
          return false;
        }
        SnapshotReply r;
        r.last_seq = be->snapshot();
        append_reply_pod(c.payload, r);
        metrics_->admin_requests.inc();
        break;
      }
      case Opcode::kReplicate: {
        if (!be->replicate) {
          reply_error(c, frame, ErrorCode::kUnsupported,
                      "replication requires a durable backend");
          return false;
        }
        ReplicateRequest req;
        if (const char* err = parse_reply_pod(f.payload, req);
            err != nullptr) {
          reply_error(c, frame, ErrorCode::kBadRequest, err);
          return false;
        }
        if (const char* err = be->replicate(req, c.payload);
            err != nullptr) {
          reply_error(c, frame, ErrorCode::kInternal, err);
          return false;
        }
        metrics_->repl_requests.inc();
        break;
      }
      case Opcode::kSnapFetch: {
        if (!be->snap_fetch) {
          reply_error(c, frame, ErrorCode::kUnsupported,
                      "replication requires a durable backend");
          return false;
        }
        SnapFetchRequest req;
        if (const char* err = parse_reply_pod(f.payload, req);
            err != nullptr) {
          reply_error(c, frame, ErrorCode::kBadRequest, err);
          return false;
        }
        if (const char* err = be->snap_fetch(req, c.payload);
            err != nullptr) {
          reply_error(c, frame, ErrorCode::kInternal, err);
          return false;
        }
        metrics_->repl_requests.inc();
        break;
      }
      case Opcode::kReplStatus: {
        if (!be->repl_status) {
          reply_error(c, frame, ErrorCode::kUnsupported,
                      "replication status requires a durable backend");
          return false;
        }
        append_reply_pod(c.payload, be->repl_status());
        metrics_->repl_requests.inc();
        break;
      }
      case Opcode::kEstCount: {
        if (const char* err = parse_key_batch(f.payload, c.keys);
            err != nullptr) {
          reply_error(c, frame, ErrorCode::kBadRequest, err);
          return false;
        }
        if (!be->est_count) {
          reply_error(c, frame, ErrorCode::kUnsupported,
                      "count estimation not supported by this backend");
          return false;
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
          reply_error(c, frame, ErrorCode::kUnsupported,
                      "server has no namespace registry");
          return false;
        }
        std::string_view name;
        NsConfigWire cfg;
        if (const char* err = parse_ns_create(f.payload, name, cfg);
            err != nullptr) {
          reply_error(c, frame, ErrorCode::kBadRequest, err);
          return false;
        }
        ErrorCode code = ErrorCode::kBadRequest;
        if (const std::string err = registry_->create(name, cfg, code);
            !err.empty()) {
          reply_error(c, frame, code, err);
          return false;
        }
        metrics_->admin_requests.inc();
        break;  // success reply has an empty payload
      }
      case Opcode::kNsDrop: {
        if (registry_ == nullptr) {
          reply_error(c, frame, ErrorCode::kUnsupported,
                      "server has no namespace registry");
          return false;
        }
        std::string_view name;
        if (const char* err = parse_ns_drop(f.payload, name);
            err != nullptr) {
          reply_error(c, frame, ErrorCode::kBadRequest, err);
          return false;
        }
        ErrorCode code = ErrorCode::kBadRequest;
        if (const std::string err = registry_->drop(name, code);
            !err.empty()) {
          reply_error(c, frame, code, err);
          return false;
        }
        metrics_->admin_requests.inc();
        break;
      }
      case Opcode::kNsList: {
        if (registry_ == nullptr) {
          reply_error(c, frame, ErrorCode::kUnsupported,
                      "server has no namespace registry");
          return false;
        }
        if (!f.payload.empty()) {
          reply_error(c, frame, ErrorCode::kBadRequest,
                      "nslist: trailing bytes");
          return false;
        }
        append_ns_list_reply(c.payload, registry_->list());
        metrics_->admin_requests.inc();
        break;
      }
      case Opcode::kNsTick: {
        if (registry_ == nullptr) {
          reply_error(c, frame, ErrorCode::kUnsupported,
                      "server has no namespace registry");
          return false;
        }
        std::string_view name;
        if (const char* err = parse_ns_drop(f.payload, name);
            err != nullptr) {
          reply_error(c, frame, ErrorCode::kBadRequest, err);
          return false;
        }
        NsTickReply r;
        ErrorCode code = ErrorCode::kBadRequest;
        if (const std::string err = registry_->tick(name, r.ticks, code);
            !err.empty()) {
          reply_error(c, frame, code, err);
          return false;
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
    reply_error(c, frame, ErrorCode::kInternal, e.what());
    return false;
  }
  append_frame(c.wbuf, op, kFlagResponse, h.request_id, c.payload);
  return true;
}

bool Server::serve_sequenced(Connection& c, const Frame& frame,
                             Opcode op, const FilterBackend& be) {
  SequencePrefix prefix;
  if (const char* err =
          parse_sequenced_key_batch(frame.payload, prefix, c.keys);
      err != nullptr) {
    reply_error(c, frame, ErrorCode::kBadRequest, err);
    return false;
  }
  const auto& hook =
      op == Opcode::kInsert ? be.insert_batch : be.erase_batch;
  if (!hook) {
    reply_error(c, frame, ErrorCode::kUnsupported,
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
      reply_error(c, frame, ErrorCode::kBadRequest,
                  "sequence number reused across opcodes");
      return false;
    }
    c.payload = it->second.reply;  // retry: replay, never re-apply
    metrics_->deduped.inc();
    return true;
  }
  if (it != dedup_.end() && prefix.op_seq < it->second.op_seq) {
    reply_error(c, frame, ErrorCode::kBadRequest,
                "stale sequence number");
    return false;
  }
  // Quota-gate after the replay check: a retry of an already-applied
  // insert replays its cached reply and must never be re-judged.
  if (op == Opcode::kInsert && be.admit) {
    if (const char* err = be.admit(c.keys.size()); err != nullptr) {
      reply_error(c, frame, ErrorCode::kQuotaExceeded, err);
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

void Server::reply_error(Connection& c, const Frame& frame,
                         ErrorCode code, std::string_view message) {
  metrics_->request_errors.inc();
  const Opcode op = opcode_known(frame.header.opcode)
                        ? static_cast<Opcode>(frame.header.opcode)
                        : Opcode::kQuery;
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
  if (c.dead) return;
  const bool want = c.wpos < c.wbuf.size();
  if (want != c.want_write) {
    c.want_write = want;
    w.loop.mod(c.sock.fd(), want, &c);
  }
}

}  // namespace mpcbf::net
