#include "net/http.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <limits>
#include <sstream>
#include <utility>

#include "common/log.hpp"
#include "metrics/build_info.hpp"
#include "metrics/registry.hpp"

namespace mpcbf::net {

namespace {

constexpr std::size_t kReadChunk = 2048;

[[nodiscard]] const char* status_text(int status) noexcept {
  switch (status) {
    case 200: return "OK";
    case 400: return "Bad Request";
    case 404: return "Not Found";
    case 405: return "Method Not Allowed";
    case 431: return "Request Header Fields Too Large";
    case 503: return "Service Unavailable";
    default: return "Error";
  }
}

}  // namespace

struct AdminServer::Conn {
  explicit Conn(Socket s) : sock(std::move(s)) {}
  Socket sock;
  std::string rbuf;
  std::string wbuf;
  std::size_t wpos = 0;
  bool responded = false;   ///< reply buffered; close once flushed
  bool want_write = false;  ///< EPOLLOUT currently armed
  bool dead = false;
  std::chrono::steady_clock::time_point since =
      std::chrono::steady_clock::now();
};

AdminServer::AdminServer(Options options) : options_(std::move(options)) {}

AdminServer::~AdminServer() { stop(); }

void AdminServer::handle(std::string path, Handler handler) {
  handlers_[std::move(path)] = std::move(handler);
}

void AdminServer::start() {
  if (started_.exchange(true)) {
    throw NetError("AdminServer::start: already started");
  }
  listener_ = listen_tcp(options_.bind_address, options_.port);
  set_nonblocking(listener_.fd(), true);
  port_ = local_port(listener_.fd());
  loop_ = std::make_unique<EventLoop>();
  loop_->add(listener_.fd(), false, nullptr);
  thread_ = std::thread([this] { service_loop(); });
  MPCBF_LOG_INFO("admin.start",
                 log::str("bind", options_.bind_address),
                 log::u64("port", port_));
}

void AdminServer::stop() {
  if (!started_.load(std::memory_order_acquire)) return;
  stopping_.store(true, std::memory_order_release);
  if (loop_) loop_->wake();  // unblock a wait(-1) on the idle plane
  if (thread_.joinable()) thread_.join();
  listener_.close();
}

void AdminServer::service_loop() {
  std::vector<std::unique_ptr<Conn>> conns;
  std::vector<EventLoop::Event> events;
  while (!stopping_.load(std::memory_order_acquire)) {
    // Block indefinitely when idle; a finite timeout exists only while
    // a connection is mid-request (slow-loris sweep needs a clock).
    int timeout_ms = -1;
    const auto now = std::chrono::steady_clock::now();
    auto earliest = std::chrono::steady_clock::time_point::max();
    for (const auto& c : conns) {
      if (!c->dead && !c->responded) {
        earliest = std::min(earliest, c->since + options_.header_timeout);
      }
    }
    if (earliest != std::chrono::steady_clock::time_point::max()) {
      const auto wait_ms = std::chrono::duration_cast<
                               std::chrono::milliseconds>(earliest - now)
                               .count() +
                           1;
      timeout_ms = static_cast<int>(std::clamp<long long>(
          wait_ms, 1, std::numeric_limits<int>::max()));
    }
    (void)loop_->wait(events, timeout_ms);
    if (stopping_.load(std::memory_order_acquire)) break;

    for (const auto& e : events) {
      if (e.data == nullptr) {  // listener
        for (;;) {
          Socket sock = accept_tcp(listener_);
          if (!sock.valid()) break;
          if (conns.size() >= options_.max_connections) {
            continue;  // over cap: close immediately (Socket dtor)
          }
          auto conn = std::make_unique<Conn>(std::move(sock));
          loop_->add(conn->sock.fd(), false, conn.get());
          conns.push_back(std::move(conn));
        }
        continue;
      }
      Conn& c = *static_cast<Conn*>(e.data);
      if (c.dead) continue;
      try {
        if (e.readable || e.error) {
          if (c.responded) {
            // Level-triggered readability after the response is built
            // (pipelined bytes, FIN): drain and discard so the loop
            // does not spin while the reply flushes.
            char junk[kReadChunk];
            std::ptrdiff_t n;
            while ((n = read_some(c.sock.fd(), junk, sizeof junk)) > 0) {
            }
            if (n == 0 && c.wpos == c.wbuf.size()) c.dead = true;
          } else {
            char chunk[kReadChunk];
            const ReadStatus st = read_available(
                c.sock.fd(), c.rbuf, chunk, kMaxRequestBytes + kReadChunk);
            if (st == ReadStatus::kFull) {
              // Headers over the cap: answer 431 and stop reading.
              // The buffer never grows past cap + one chunk.
              respond(c, HttpRequest{},
                      HttpResponse{431, "text/plain; charset=utf-8",
                                   "request header fields too large\n"});
            } else if (st == ReadStatus::kEof) {  // before a full request
              c.dead = true;
            }
            if (!c.dead && !c.responded) (void)try_serve(c);
          }
        }
        // Flush.
        while (!c.dead && c.wpos < c.wbuf.size()) {
          const std::ptrdiff_t n =
              write_some(c.sock.fd(), c.wbuf.data() + c.wpos,
                         c.wbuf.size() - c.wpos);
          if (n < 0) break;
          c.wpos += static_cast<std::size_t>(n);
        }
        if (c.responded && c.wpos == c.wbuf.size()) c.dead = true;
        if (!c.dead) {
          const bool want = c.wpos < c.wbuf.size();
          if (want != c.want_write) {
            c.want_write = want;
            loop_->mod(c.sock.fd(), want, &c);
          }
        }
      } catch (const NetError&) {
        c.dead = true;
      }
    }

    const auto after = std::chrono::steady_clock::now();
    for (auto& c : conns) {
      if (!c->dead && !c->responded &&
          after - c->since > options_.header_timeout) {
        c->dead = true;  // slow-loris: never completed the header
      }
    }
    std::erase_if(conns, [this](const auto& c) {
      if (c->dead) loop_->del(c->sock.fd());
      return c->dead;
    });
  }
}

bool AdminServer::try_serve(Conn& c) {
  const std::size_t header_end = c.rbuf.find("\r\n\r\n");
  if (header_end == std::string::npos) {
    if (c.rbuf.size() > kMaxRequestBytes) {
      respond(c, HttpRequest{},
              HttpResponse{431, "text/plain; charset=utf-8",
                           "request header fields too large\n"});
      return true;
    }
    return false;
  }
  const std::string_view head =
      std::string_view(c.rbuf).substr(0, header_end);
  const std::size_t line_end = head.find("\r\n");
  const std::string_view request_line =
      line_end == std::string_view::npos ? head : head.substr(0, line_end);

  // "METHOD SP target SP HTTP/1.x" — anything else is malformed.
  const std::size_t sp1 = request_line.find(' ');
  const std::size_t sp2 =
      sp1 == std::string_view::npos ? std::string_view::npos
                                    : request_line.find(' ', sp1 + 1);
  HttpRequest req;
  if (sp1 == std::string_view::npos || sp2 == std::string_view::npos ||
      !request_line.substr(sp2 + 1).starts_with("HTTP/1.")) {
    respond(c, req,
            HttpResponse{400, "text/plain; charset=utf-8",
                         "malformed request line\n"});
    return true;
  }
  req.method = request_line.substr(0, sp1);
  std::string_view target = request_line.substr(sp1 + 1, sp2 - sp1 - 1);
  if (target.empty() || target[0] != '/') {
    respond(c, req,
            HttpResponse{400, "text/plain; charset=utf-8",
                         "malformed request target\n"});
    return true;
  }
  if (const std::size_t q = target.find('?');
      q != std::string_view::npos) {
    req.query = target.substr(q + 1);
    target = target.substr(0, q);
  }
  req.path = target;
  if (req.method != "GET" && req.method != "HEAD") {
    respond(c, req,
            HttpResponse{405, "text/plain; charset=utf-8",
                         "only GET and HEAD are served\n"});
    return true;
  }
  const auto it = handlers_.find(req.path);
  if (it == handlers_.end()) {
    respond(c, req,
            HttpResponse{404, "text/plain; charset=utf-8",
                         "unknown admin path\n"});
    return true;
  }
  HttpResponse r;
  try {
    r = it->second(req);
  } catch (const std::exception& e) {
    r.status = 503;
    r.body = std::string("handler failed: ") + e.what() + "\n";
  }
  respond(c, req, r);
  return true;
}

void AdminServer::respond(Conn& c, const HttpRequest& req,
                          const HttpResponse& r) {
  served_.fetch_add(1, std::memory_order_relaxed);
  char head[160];
  const int n = std::snprintf(
      head, sizeof head,
      "HTTP/1.1 %d %s\r\nContent-Type: %s\r\nContent-Length: %zu\r\n"
      "Connection: close\r\n\r\n",
      r.status, status_text(r.status), r.content_type, r.body.size());
  c.wbuf.append(head, static_cast<std::size_t>(n));
  if (req.method != "HEAD") c.wbuf.append(r.body);
  c.responded = true;
  if (r.status >= 400) {
    MPCBF_LOG_DEBUG("admin.request_error",
                    log::u64("status",
                             static_cast<std::uint64_t>(r.status)),
                    log::str("path", req.path));
  }
}

// --- standard endpoint set ---------------------------------------------

void register_admin_endpoints(AdminServer& server, AdminEndpoints eps) {
  auto shared = std::make_shared<AdminEndpoints>(std::move(eps));

  server.handle("/metrics", [](const HttpRequest&) {
    metrics::publish_build_info();
    std::ostringstream os;
    metrics::Registry::global().write_prometheus(os);
    HttpResponse r;
    r.content_type = "text/plain; version=0.0.4; charset=utf-8";
    r.body = os.str();
    return r;
  });

  server.handle("/healthz", [shared](const HttpRequest&) {
    HttpResponse r;
    if (!shared->health) {
      r.body = "ok (no health probe)\n";
      return r;
    }
    const HealthReply h = shared->health();
    const bool critical = h.severity >= 2;  // metrics::Severity::kCritical
    r.status = critical ? 503 : 200;
    char buf[192];
    std::snprintf(buf, sizeof buf,
                  "%s severity=%u score=%.1f level1_fill=%.4f "
                  "measured_fpr=%.6g fpr_drift=%.6g elements=%llu\n",
                  critical ? "critical" : (h.severity == 1 ? "warn" : "ok"),
                  static_cast<unsigned>(h.severity), h.saturation_score,
                  h.level1_fill, h.measured_fpr, h.fpr_drift,
                  static_cast<unsigned long long>(h.elements));
    r.body = buf;
    return r;
  });

  server.handle("/readyz", [shared](const HttpRequest&) {
    HttpResponse r;
    const bool ready = !shared->ready || shared->ready();
    r.status = ready ? 200 : 503;
    r.body = ready ? "ready\n" : "not ready\n";
    return r;
  });

  server.handle("/statusz", [shared, &server](const HttpRequest&) {
    HttpResponse r;
    std::string& b = r.body;
    b.append("mpcbfd admin plane\n");
    b.append("backend: ").append(shared->backend_kind).push_back('\n');
    char buf[192];
    std::snprintf(buf, sizeof buf, "version: %s (git %s)\n",
                  metrics::kBuildVersion, metrics::build_git_sha());
    b.append(buf);
    std::snprintf(buf, sizeof buf, "uptime_seconds: %.1f\n",
                  metrics::process_uptime_seconds());
    b.append(buf);
    const bool ready = !shared->ready || shared->ready();
    b.append("ready: ").append(ready ? "true" : "false").push_back('\n');
    if (shared->health) {
      const HealthReply h = shared->health();
      std::snprintf(buf, sizeof buf,
                    "health: severity=%u score=%.1f elements=%llu\n",
                    static_cast<unsigned>(h.severity), h.saturation_score,
                    static_cast<unsigned long long>(h.elements));
      b.append(buf);
    }
    if (shared->repl_status) {
      const ReplStatusReply s = shared->repl_status();
      static constexpr const char* kRoles[] = {"none", "primary",
                                               "follower"};
      std::snprintf(
          buf, sizeof buf,
          "replication: role=%s caught_up=%u next_seq=%llu "
          "acked_seq=%llu followers=%llu min_acked_seq=%llu "
          "lag_records=%llu\n",
          s.role <= 2 ? kRoles[s.role] : "?",
          static_cast<unsigned>(s.caught_up),
          static_cast<unsigned long long>(s.next_seq),
          static_cast<unsigned long long>(s.acked_seq),
          static_cast<unsigned long long>(s.followers),
          static_cast<unsigned long long>(s.min_acked_seq),
          static_cast<unsigned long long>(s.lag_records));
      b.append(buf);
    }
    if (shared->slow_ring != nullptr) {
      std::snprintf(buf, sizeof buf,
                    "slow_requests_captured: %llu\n",
                    static_cast<unsigned long long>(
                        shared->slow_ring->recorded()));
      b.append(buf);
    }
    std::snprintf(buf, sizeof buf, "admin_requests_served: %llu\n",
                  static_cast<unsigned long long>(
                      server.requests_served()));
    b.append(buf);
    if (shared->status_extra) shared->status_extra(b);
    return r;
  });

  server.handle("/tracez", [shared](const HttpRequest&) {
    HttpResponse r;
    r.content_type = "application/json";
    trace::append_chrome_json(r.body, shared->slow_ring != nullptr
                                          ? shared->slow_ring->snapshot()
                                          : std::vector<trace::Span>{});
    return r;
  });

  server.handle("/", [](const HttpRequest&) {
    HttpResponse r;
    r.body =
        "mpcbfd admin endpoints:\n"
        "  /metrics  Prometheus text exposition\n"
        "  /healthz  saturation severity (503 when critical)\n"
        "  /readyz   readiness bit (503 while not ready)\n"
        "  /statusz  human status page\n"
        "  /tracez   slow-request spans (Chrome trace JSON)\n";
    return r;
  });
}

}  // namespace mpcbf::net
