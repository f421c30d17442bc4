// Admin introspection plane — a minimal HTTP/1.1 GET server bound to a
// *separate* port from the MPN1 binary listener, so a Prometheus
// scraper, a load balancer's health checker and a curl-wielding
// operator never share a socket with the data path.
//
// Deliberately tiny: GET/HEAD only, no keep-alive (every response closes
// the connection, so connection state is one request), request line +
// headers capped at kMaxRequestBytes before any allocation grows past
// it — the same hostile-input discipline as protocol.hpp's frame caps.
// One thread runs a readiness event loop (EventLoop: epoll on Linux)
// for accept and all admin connections; admin traffic is orders of
// magnitude below the data plane, and a single loop keeps the plane
// allocation-capped and lock-free on the data path's hot threads. Idle
// means blocked indefinitely — stop() and new events are delivered via
// the loop's wake channel, never a periodic tick.
//
// Endpoints are injected as handlers (register_admin_endpoints wires
// the standard set), so the server class itself knows nothing about
// filters, registries or replication — tests drive it with fakes.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "net/event_loop.hpp"
#include "net/protocol.hpp"
#include "net/socket.hpp"
#include "trace/trace.hpp"

namespace mpcbf::net {

struct HttpRequest {
  std::string_view method;  ///< "GET" / "HEAD"
  std::string_view path;    ///< target with any ?query stripped
  std::string_view query;   ///< bytes after '?', possibly empty
};

struct HttpResponse {
  int status = 200;
  const char* content_type = "text/plain; charset=utf-8";
  std::string body;
};

/// The admin-plane HTTP listener. start() spawns one service thread;
/// stop() drains and joins (idempotent, like Server).
class AdminServer {
 public:
  struct Options {
    std::string bind_address = "127.0.0.1";
    /// 0 = kernel-assigned ephemeral port; read back via port().
    std::uint16_t port = 0;
    /// A connection that has not completed its request line + headers
    /// within this window is closed (slow-loris defense, same rule as
    /// Server::Options::frame_timeout).
    std::chrono::milliseconds header_timeout{5000};
    /// Concurrent admin connections; excess accepts are closed
    /// immediately. Scrapers and probes are serial — this is a cap on
    /// abuse, not a tuning knob.
    std::size_t max_connections = 32;
  };

  /// Request line + headers cap. A scrape request is ~100 bytes; 8 KiB
  /// of headroom covers any legitimate proxy chain.
  static constexpr std::size_t kMaxRequestBytes = 8192;

  using Handler = std::function<HttpResponse(const HttpRequest&)>;

  explicit AdminServer(Options options);
  ~AdminServer();

  AdminServer(const AdminServer&) = delete;
  AdminServer& operator=(const AdminServer&) = delete;

  /// Registers the handler for an exact path. Call before start().
  void handle(std::string path, Handler handler);

  /// Binds, listens and spawns the service thread. Throws NetError.
  void start();
  /// Stops accepting, closes connections, joins. Idempotent.
  void stop();

  [[nodiscard]] bool running() const noexcept {
    return started_.load(std::memory_order_acquire) &&
           !stopping_.load(std::memory_order_acquire);
  }

  /// The actually bound port (resolves port 0). Valid after start().
  [[nodiscard]] std::uint16_t port() const noexcept { return port_; }

  /// Requests answered (any status) over the server's lifetime.
  [[nodiscard]] std::uint64_t requests_served() const noexcept {
    return served_.load(std::memory_order_relaxed);
  }

  /// Event-loop iterations of the service thread. An idle admin plane's
  /// count stays flat (no periodic tick) — asserted by the
  /// no-idle-wakeups test.
  [[nodiscard]] std::uint64_t loop_iterations() const noexcept {
    return loop_ ? loop_->iterations() : 0;
  }

 private:
  struct Conn;

  void service_loop();
  /// Parses and answers the buffered request once the header terminator
  /// has arrived; returns false while more bytes are needed.
  bool try_serve(Conn& c);
  void respond(Conn& c, const HttpRequest& req, const HttpResponse& r);

  Options options_;
  std::map<std::string, Handler, std::less<>> handlers_;
  Socket listener_;
  std::uint16_t port_ = 0;
  std::atomic<bool> started_{false};
  std::atomic<bool> stopping_{false};
  std::atomic<std::uint64_t> served_{0};
  std::unique_ptr<EventLoop> loop_;
  std::thread thread_;
};

/// Everything the standard endpoint set needs, injected so the wiring
/// works identically for mpcbf_tool's real backends and test fakes.
/// Null hooks degrade the affected endpoint ("unavailable"), never 500.
struct AdminEndpoints {
  /// HEALTH-equivalent probe (FilterBackend::health). /healthz keys on
  /// severity: kCritical -> 503.
  std::function<HealthReply()> health;
  /// Readiness bit, matching the MPN1 HEALTH ready semantics (server
  /// running AND backend caught up). /readyz keys on it: false -> 503.
  std::function<bool()> ready;
  /// Replication role/watermarks for /statusz; null for memory-only.
  std::function<ReplStatusReply()> repl_status;
  /// Human-readable backend kind ("memory", "durable", "elastic", ...).
  std::string backend_kind = "memory";
  /// Appends extra /statusz lines (elastic topology digest, journal
  /// paths); optional.
  std::function<void(std::string&)> status_extra;
  /// Slow-request ring backing /tracez; optional (borrowed pointer, must
  /// outlive the AdminServer).
  const trace::SpanRing* slow_ring = nullptr;
};

/// Registers the standard admin plane on `server`:
///   /metrics  Prometheus text exposition of the global registry
///   /healthz  saturation severity (503 once critical)
///   /readyz   readiness bit (503 while not ready / draining)
///   /statusz  human status page
///   /tracez   slow-request spans as Chrome trace JSON
void register_admin_endpoints(AdminServer& server, AdminEndpoints eps);

}  // namespace mpcbf::net
