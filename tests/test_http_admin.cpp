// Admin-plane tests: the HTTP listener's request handling and hostile-
// input behavior, the standard endpoint set against fake and real
// backends, the end-to-end trace-id contract (a FailoverClient-stamped
// id must appear verbatim in the server's slow-request log line, the
// slow ring and /tracez), per-opcode duration-histogram coverage, and a
// concurrent scrape-during-mutation-storm run for the TSan job.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/log.hpp"
#include "core/durable_mpcbf.hpp"
#include "core/mpcbf.hpp"
#include "metrics/build_info.hpp"
#include "metrics/registry.hpp"
#include "net/client.hpp"
#include "net/http.hpp"
#include "net/protocol.hpp"
#include "net/server.hpp"
#include "net/socket.hpp"
#include "trace/trace.hpp"

namespace {

namespace fs = std::filesystem;
using namespace mpcbf;
using namespace mpcbf::net;

core::MpcbfConfig small_config() {
  core::MpcbfConfig cfg;
  cfg.memory_bits = 1 << 18;
  cfg.expected_n = 4096;
  cfg.policy = core::OverflowPolicy::kStash;
  return cfg;
}

/// Minimal blocking HTTP client: sends `raw` and returns everything the
/// server wrote before closing (the admin server closes after every
/// response, so EOF delimits the response).
std::string http_raw(std::uint16_t port, const std::string& raw) {
  Socket s = connect_tcp("127.0.0.1", port, std::chrono::milliseconds(5000));
  write_all(s.fd(), raw.data(), raw.size());
  std::string response;
  char buf[4096];
  for (;;) {
    const auto n = read_some(s.fd(), buf, sizeof buf);
    if (n <= 0) break;
    response.append(buf, static_cast<std::size_t>(n));
  }
  return response;
}

std::string http_get(std::uint16_t port, const std::string& path,
                     const char* method = "GET") {
  return http_raw(port, std::string(method) + " " + path +
                            " HTTP/1.1\r\nHost: t\r\n\r\n");
}

int status_of(const std::string& response) {
  if (response.size() < 12 || response.compare(0, 5, "HTTP/") != 0) {
    return -1;
  }
  return std::atoi(response.c_str() + 9);
}

std::string body_of(const std::string& response) {
  const auto pos = response.find("\r\n\r\n");
  return pos == std::string::npos ? std::string()
                                  : response.substr(pos + 4);
}

TEST(AdminServer, ServesRegisteredHandler) {
  AdminServer srv({});
  srv.handle("/ping", [](const HttpRequest& req) {
    HttpResponse r;
    r.body = "pong method=" + std::string(req.method) +
             " query=" + std::string(req.query);
    return r;
  });
  srv.start();
  const auto resp = http_get(srv.port(), "/ping?x=1");
  EXPECT_EQ(status_of(resp), 200);
  EXPECT_EQ(body_of(resp), "pong method=GET query=x=1");
  EXPECT_NE(resp.find("Connection: close"), std::string::npos);
  srv.stop();
}

TEST(AdminServer, HeadOmitsBodyButKeepsLength) {
  AdminServer srv({});
  srv.handle("/b", [](const HttpRequest&) {
    HttpResponse r;
    r.body = "0123456789";
    return r;
  });
  srv.start();
  const auto resp = http_get(srv.port(), "/b", "HEAD");
  EXPECT_EQ(status_of(resp), 200);
  EXPECT_NE(resp.find("Content-Length: 10"), std::string::npos);
  EXPECT_EQ(body_of(resp), "");
  srv.stop();
}

TEST(AdminServer, HostileInputs) {
  AdminServer srv({});
  srv.handle("/ok", [](const HttpRequest&) { return HttpResponse{}; });
  srv.handle("/boom", [](const HttpRequest&) -> HttpResponse {
    throw std::runtime_error("handler failure");
  });
  srv.start();
  const auto port = srv.port();

  EXPECT_EQ(status_of(http_get(port, "/nope")), 404);          // unknown
  EXPECT_EQ(status_of(http_get(port, "/ok", "POST")), 405);    // method
  EXPECT_EQ(status_of(http_get(port, "/boom")), 503);          // throw
  EXPECT_EQ(status_of(http_raw(port, "garbage\r\n\r\n")), 400);
  EXPECT_EQ(status_of(http_raw(port, "GET no-slash HTTP/1.1\r\n\r\n")),
            400);
  // Request larger than the cap: rejected with 431, never buffered
  // beyond kMaxRequestBytes.
  std::string big = "GET /ok HTTP/1.1\r\nX-Pad: ";
  big.append(AdminServer::kMaxRequestBytes, 'a');
  big += "\r\n\r\n";
  EXPECT_EQ(status_of(http_raw(port, big)), 431);
  // A connection that sends nothing parseable and closes must not wedge
  // the service loop.
  { Socket s = connect_tcp("127.0.0.1", port, std::chrono::milliseconds(1000)); }
  EXPECT_EQ(status_of(http_get(port, "/ok")), 200);
  srv.stop();
}

TEST(AdminServer, RequestTrickledByteByByteIsServed) {
  AdminServer srv({});
  srv.handle("/ok", [](const HttpRequest&) { return HttpResponse{}; });
  srv.start();
  Socket s =
      connect_tcp("127.0.0.1", srv.port(), std::chrono::milliseconds(5000));
  const std::string req = "GET /ok HTTP/1.1\r\nHost: t\r\n\r\n";
  for (const char ch : req) {
    write_all(s.fd(), &ch, 1);
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  std::string response;
  char buf[4096];
  for (;;) {
    const auto n = read_some(s.fd(), buf, sizeof buf);
    if (n <= 0) break;
    response.append(buf, static_cast<std::size_t>(n));
  }
  EXPECT_EQ(status_of(response), 200);
  srv.stop();
}

TEST(AdminServer, RequestCapIsExact) {
  // A request of exactly kMaxRequestBytes is served; one byte more is
  // answered 431, whether it arrives whole or in pieces.
  AdminServer srv({});
  srv.handle("/ok", [](const HttpRequest&) { return HttpResponse{}; });
  srv.start();
  const auto request_of_size = [](std::size_t total) {
    const std::string head = "GET /ok HTTP/1.1\r\nX-Pad: ";
    const std::string tail = "\r\n\r\n";
    return head + std::string(total - head.size() - tail.size(), 'a') + tail;
  };
  const std::string at_cap = request_of_size(AdminServer::kMaxRequestBytes);
  const std::string over = request_of_size(AdminServer::kMaxRequestBytes + 1);
  EXPECT_EQ(status_of(http_raw(srv.port(), at_cap)), 200);
  EXPECT_EQ(status_of(http_raw(srv.port(), over)), 431);

  Socket s =
      connect_tcp("127.0.0.1", srv.port(), std::chrono::milliseconds(5000));
  for (std::size_t off = 0; off < over.size(); off += 1000) {
    write_all(s.fd(), over.data() + off,
              std::min<std::size_t>(1000, over.size() - off));
    std::this_thread::sleep_for(std::chrono::microseconds(500));
  }
  std::string response;
  char buf[4096];
  for (;;) {
    const auto n = read_some(s.fd(), buf, sizeof buf);
    if (n <= 0) break;
    response.append(buf, static_cast<std::size_t>(n));
  }
  EXPECT_EQ(status_of(response), 431);
  srv.stop();
}

TEST(AdminServer, EndpointsAgainstFakes) {
  AdminServer srv({});
  std::atomic<int> severity{0};
  std::atomic<bool> ready{true};
  trace::SpanRing ring;
  trace::Span sr;
  sr.ts_ns = 1000;
  sr.dur_ns = 2500;
  sr.name = to_string(Opcode::kInsert);
  sr.cat = trace::Category::kNet;
  sr.arg_name = "batch_keys";
  sr.arg = 7;
  sr.trace_id = 0xabcdef0123456789ull;
  sr.peer = (0x7F000001ull << 16) | 4242;
  ring.record(sr);

  AdminEndpoints eps;
  eps.health = [&severity] {
    HealthReply h;
    h.severity = static_cast<std::uint8_t>(severity.load());
    h.saturation_score = 0.25;
    return h;
  };
  eps.ready = [&ready] { return ready.load(); };
  eps.repl_status = [] {
    ReplStatusReply r;
    r.role = static_cast<std::uint8_t>(ReplRole::kPrimary);
    r.next_seq = 42;
    return r;
  };
  eps.backend_kind = "fake";
  eps.status_extra = [](std::string& out) { out += "extra_line: 1\n"; };
  eps.slow_ring = &ring;
  register_admin_endpoints(srv, std::move(eps));
  srv.start();
  const auto port = srv.port();

  EXPECT_EQ(status_of(http_get(port, "/healthz")), 200);
  severity.store(2);
  EXPECT_EQ(status_of(http_get(port, "/healthz")), 503);

  EXPECT_EQ(status_of(http_get(port, "/readyz")), 200);
  ready.store(false);
  EXPECT_EQ(status_of(http_get(port, "/readyz")), 503);

  const auto statusz = body_of(http_get(port, "/statusz"));
  EXPECT_NE(statusz.find("backend: fake"), std::string::npos);
  EXPECT_NE(statusz.find("role=primary"), std::string::npos);
  EXPECT_NE(statusz.find("extra_line: 1"), std::string::npos);
  EXPECT_NE(statusz.find(metrics::kBuildVersion), std::string::npos);

  const auto tracez = body_of(http_get(port, "/tracez"));
  EXPECT_NE(tracez.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(tracez.find(log::format_hex16(sr.trace_id)),
            std::string::npos);
  EXPECT_NE(tracez.find("\"name\":\"insert\""), std::string::npos);
  EXPECT_NE(tracez.find("127.0.0.1:4242"), std::string::npos);
  EXPECT_NE(tracez.find("\"batch_keys\":7"), std::string::npos);

  const auto metrics_resp = http_get(port, "/metrics");
  EXPECT_EQ(status_of(metrics_resp), 200);
  EXPECT_NE(metrics_resp.find("text/plain; version=0.0.4"),
            std::string::npos);
  const auto metrics_body = body_of(metrics_resp);
  EXPECT_NE(metrics_body.find("mpcbf_build_info{"), std::string::npos);
  EXPECT_NE(metrics_body.find("mpcbf_server_uptime_seconds"),
            std::string::npos);
  srv.stop();
}

TEST(SlowRing, SeqlockSnapshotOrderedAndBounded) {
  using trace::SpanRing;
  SpanRing ring;
  for (std::uint64_t i = 0; i < SpanRing::kCapacity + 50; ++i) {
    trace::Span r;
    r.dur_ns = i;  // the capture order, so the snapshot's order shows
    r.trace_id = i + 1;
    r.name = to_string(Opcode::kQuery);
    ring.record(r);
  }
  const auto snap = ring.snapshot();
  ASSERT_EQ(snap.size(), SpanRing::kCapacity);
  // Oldest entries were overwritten; the snapshot is in capture order.
  for (std::size_t i = 1; i < snap.size(); ++i) {
    EXPECT_EQ(snap[i - 1].dur_ns + 1, snap[i].dur_ns);
    EXPECT_EQ(snap[i].trace_id, snap[i].dur_ns + 1);
  }
  EXPECT_EQ(snap.front().dur_ns, 50u);
  EXPECT_EQ(snap.back().dur_ns, SpanRing::kCapacity + 49);
  EXPECT_EQ(ring.recorded(), SpanRing::kCapacity + 50);
}

TEST(SlowRing, FormatPeer) {
  EXPECT_EQ(format_peer((0x7F000001ull << 16) | 8080), "127.0.0.1:8080");
  EXPECT_EQ(format_peer(0), "-");
}

// The acceptance-locking e2e: a trace id stamped by a FailoverClient
// shows up, rendered identically, in (1) the server's slow-request log
// line, (2) the slow ring, (3) the /tracez JSON, (4) an armed tracer's
// Chrome capture.
TEST(AdminE2E, FailoverClientTraceIdReachesLogRingAndTracez) {
  auto filter = std::make_shared<core::Mpcbf<64>>(small_config());
  Server::Options sopts;
  sopts.slow_request_threshold = std::chrono::microseconds(0);  // all
  Server server(make_backend(filter), sopts);
  server.start();

  AdminServer admin({});
  AdminEndpoints eps;
  eps.slow_ring = &server.slow_ring();
  register_admin_endpoints(admin, std::move(eps));
  admin.start();

  // Capture log lines; restore the default sink on exit.
  std::mutex log_mu;
  std::vector<std::string> lines;
  auto& logger = log::Logger::global();
  const auto old_level = logger.level();
  logger.set_level(log::Level::kDebug);
  logger.set_sink([&](std::string_view line) {
    std::lock_guard<std::mutex> lock(log_mu);
    lines.emplace_back(line);
  });

  FailoverClient::Options copts;
  copts.endpoints = {{"127.0.0.1", server.port()}};
  FailoverClient client(copts);
  const std::vector<std::string> keys = {"alpha", "beta", "gamma"};
  auto& tracer = trace::Tracer::global();
  tracer.clear();
  tracer.arm();
  client.insert(keys);
  tracer.disarm();
  const std::uint64_t tid = client.last_trace_id();
  ASSERT_NE(tid, 0u);
  const std::string hex = log::format_hex16(tid);

  bool in_log = false;
  {
    std::lock_guard<std::mutex> lock(log_mu);
    for (const auto& line : lines) {
      if (line.find("server.slow_request") != std::string::npos &&
          line.find(hex) != std::string::npos) {
        in_log = true;
      }
    }
  }
  EXPECT_TRUE(in_log) << "trace id " << hex
                      << " missing from slow-request log";

  bool in_ring = false;
  for (const auto& r : server.slow_ring().snapshot()) {
    if (r.trace_id == tid) {
      in_ring = true;
      EXPECT_STREQ(r.name, to_string(Opcode::kInsert));
      ASSERT_NE(r.arg_name, nullptr);
      EXPECT_STREQ(r.arg_name, "batch_keys");
      EXPECT_EQ(r.arg, keys.size());
    }
  }
  EXPECT_TRUE(in_ring);

  const auto tracez = body_of(http_get(admin.port(), "/tracez"));
  EXPECT_NE(tracez.find("\"trace_id\":\"" + hex + "\""), std::string::npos)
      << "trace id " << hex << " missing from /tracez";

  // The tracer renders the id as the same hex string, never as a JSON
  // number a viewer would round to a double.
  std::ostringstream capture;
  tracer.write_chrome_json(capture);
  tracer.clear();
  EXPECT_NE(capture.str().find("\"trace_id\":\"" + hex + "\""),
            std::string::npos)
      << "trace id " << hex << " missing from the tracer capture";

  logger.set_sink(nullptr);
  logger.set_level(old_level);
  admin.stop();
  server.stop();
}

// A traced request's net.request span keeps both its opcode arg and
// the client's trace id.
TEST(AdminE2E, TracedRequestSpanKeepsOpcodeAndTraceId) {
  auto filter = std::make_shared<core::Mpcbf<64>>(small_config());
  Server server(make_backend(filter), {});
  server.start();
  Client::Options copts;
  copts.port = server.port();
  Client c(copts);
  auto& tracer = trace::Tracer::global();
  tracer.clear();
  tracer.arm();
  const std::vector<std::string> keys = {"traced"};
  c.insert(keys);
  tracer.disarm();
  const std::uint64_t tid = c.last_trace_id();
  ASSERT_NE(tid, 0u);
  int requests = 0;
  for (const trace::Span& s : tracer.drain()) {
    if (std::string_view(s.name) != "net.request") continue;
    ++requests;
    ASSERT_NE(s.arg_name, nullptr);
    EXPECT_STREQ(s.arg_name, "opcode");
    EXPECT_EQ(s.arg, static_cast<std::uint64_t>(Opcode::kInsert));
    EXPECT_EQ(s.trace_id, tid);
    EXPECT_NE(s.peer, 0u);
  }
  EXPECT_EQ(requests, 1);
  tracer.clear();
  server.stop();
}

TEST(AdminE2E, RetriesReuseTheSameTraceId) {
  // Two client instances with the same deterministic seed produce the
  // same id stream; and within one FailoverClient op the id is chosen
  // once (verified indirectly: last_trace_id is stable across the
  // attempt loop because it is set before with_failover runs).
  Client::Options a;
  a.trace_seed = 7;
  Client::Options b;
  b.trace_seed = 7;
  auto filter = std::make_shared<core::Mpcbf<64>>(small_config());
  Server server(make_backend(filter), {});
  server.start();
  a.port = b.port = server.port();
  Client ca(a), cb(b);
  const std::vector<std::string> keys = {"k"};
  ca.query(keys);
  cb.query(keys);
  EXPECT_EQ(ca.last_trace_id(), cb.last_trace_id());
  ca.query(keys);
  EXPECT_NE(ca.last_trace_id(), cb.last_trace_id());
  server.stop();
}

TEST(AdminE2E, EveryOpcodeLandsInItsDurationHistogram) {
  // Drive all nine opcodes against a durable primary and assert each
  // one recorded at least one duration sample under its own label.
  const fs::path dir =
      fs::temp_directory_path() / "mpcbf_admin_opcode_test";
  fs::remove_all(dir);
  auto mu = std::make_shared<std::shared_mutex>();
  auto durable =
      core::DurableMpcbf<64>::open_shared(dir.string(), small_config());
  Server server(make_backend(durable, mu), {});
  server.start();

  auto& reg = metrics::Registry::global();
  std::uint64_t before[9];
  for (std::uint8_t op = 1; op <= 9; ++op) {
    before[op - 1] =
        reg.histogram("mpcbf_server_request_duration_ns",
                      "Per-request service time by opcode",
                      {{"op", to_string(static_cast<Opcode>(op))}})
            .count();
  }

  Client::Options copts;
  copts.port = server.port();
  Client c(copts);
  const std::vector<std::string> keys = {"one", "two"};
  c.insert(keys);
  c.query(keys);
  c.erase(keys);
  (void)c.stats();
  (void)c.health();
  (void)c.snapshot();
  ReplicateRequest rreq;
  std::vector<io::JournalRecord> records;
  (void)c.replicate(rreq, records);
  SnapFetchRequest sreq;
  std::string bytes;
  (void)c.snap_fetch(sreq, bytes);
  (void)c.repl_status();

  for (std::uint8_t op = 1; op <= 9; ++op) {
    const auto count =
        reg.histogram("mpcbf_server_request_duration_ns",
                      "Per-request service time by opcode",
                      {{"op", to_string(static_cast<Opcode>(op))}})
            .count();
    EXPECT_GT(count, before[op - 1])
        << "opcode " << to_string(static_cast<Opcode>(op))
        << " recorded no duration sample";
  }
  server.stop();
  fs::remove_all(dir);
}

TEST(AdminE2E, StatsReplyCarriesUptime) {
  auto filter = std::make_shared<core::Mpcbf<64>>(small_config());
  Server server(make_backend(filter), {});
  server.start();
  Client::Options copts;
  copts.port = server.port();
  Client c(copts);
  // process_uptime_seconds anchors on first use, which happened long
  // before this test; only sanity-check the plumbing.
  const auto s = c.stats();
  EXPECT_LT(s.uptime_seconds, 24u * 3600u);
  server.stop();
}

// TSan target: scrape /metrics and /tracez concurrently with a mutation
// storm that keeps the slow ring and every histogram hot.
TEST(AdminConcurrency, ScrapeDuringMutationStorm) {
  auto filter = std::make_shared<core::Mpcbf<64>>(small_config());
  Server::Options sopts;
  sopts.workers = 2;
  sopts.slow_request_threshold = std::chrono::microseconds(0);
  Server server(make_backend(filter), sopts);
  server.start();

  AdminServer admin({});
  AdminEndpoints eps;
  eps.slow_ring = &server.slow_ring();
  register_admin_endpoints(admin, std::move(eps));
  admin.start();

  // Keep the storm's slow-request warn lines out of the test output;
  // the logger itself is exercised by test_log.
  auto& logger = log::Logger::global();
  const auto old_level = logger.level();
  logger.set_level(log::Level::kOff);

  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  for (int t = 0; t < 3; ++t) {
    writers.emplace_back([&, t] {
      Client::Options copts;
      copts.port = server.port();
      Client c(copts);
      std::vector<std::string> keys;
      for (int i = 0; i < 16; ++i) {
        keys.push_back(std::string("w")
                           .append(std::to_string(t))
                           .append("-")
                           .append(std::to_string(i)));
      }
      while (!stop.load(std::memory_order_relaxed)) {
        c.insert(keys);
        c.query(keys);
        c.erase(keys);
      }
    });
  }
  std::vector<std::thread> scrapers;
  for (int t = 0; t < 2; ++t) {
    scrapers.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        const auto m = http_get(admin.port(), "/metrics");
        EXPECT_EQ(status_of(m), 200);
        const auto tr = http_get(admin.port(), "/tracez");
        EXPECT_EQ(status_of(tr), 200);
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(500));
  stop.store(true);
  for (auto& t : writers) t.join();
  for (auto& t : scrapers) t.join();
  EXPECT_GT(server.slow_ring().recorded(), 0u);
  logger.set_level(old_level);
  admin.stop();
  server.stop();
}

}  // namespace
