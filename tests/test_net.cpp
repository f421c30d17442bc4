// End-to-end server/client tests over loopback: batch verdict parity
// against a directly-driven Mpcbf, pipelined and concurrent clients
// (the TSan job runs this file), WAL-before-apply ordering for batched
// inserts through a DurableMpcbf backend, a hostile-bytes sweep
// against a live socket — malformed input must produce an error reply
// or a clean close, never a crash — and the accept and read paths:
// socket options on accepted connections, frames split at every byte,
// a trickled 1 MiB frame, and the read-buffer cap.
#include <fcntl.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "common/thread_pool.hpp"
#include "core/durable_mpcbf.hpp"
#include "core/mpcbf.hpp"
#include "net/client.hpp"
#include "net/protocol.hpp"
#include "net/server.hpp"
#include "net/shutdown.hpp"
#include "net/socket.hpp"

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

std::vector<std::string> make_keys(std::size_t n, std::uint64_t seed) {
  std::vector<std::string> keys;
  keys.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    keys.push_back("key-" + std::to_string(seed) + "-" + std::to_string(i));
  }
  return keys;
}

/// A server over a fresh in-memory filter, started on an ephemeral port.
struct MemoryServer {
  std::shared_ptr<core::Mpcbf<64>> filter;
  std::unique_ptr<Server> server;

  explicit MemoryServer(std::size_t workers = 2) {
    filter = std::make_shared<core::Mpcbf<64>>(small_config());
    Server::Options opts;
    opts.workers = workers;
    server = std::make_unique<Server>(make_backend(filter), opts);
    server->start();
  }
  ~MemoryServer() { server->stop(); }

  [[nodiscard]] Client client() const {
    Client::Options copts;
    copts.port = server->port();
    return Client(copts);
  }
};

TEST(Net, QueryInsertEraseRoundTrip) {
  MemoryServer srv;
  Client c = srv.client();
  const auto keys = make_keys(64, 1);

  // Empty filter: all queries negative.
  auto verdicts = c.query(keys);
  ASSERT_EQ(verdicts.size(), keys.size());
  for (const auto v : verdicts) EXPECT_EQ(v, 0);

  verdicts = c.insert(keys);
  for (const auto v : verdicts) EXPECT_EQ(v, 1);

  verdicts = c.query(keys);
  for (const auto v : verdicts) EXPECT_EQ(v, 1);

  verdicts = c.erase(keys);
  for (const auto v : verdicts) EXPECT_EQ(v, 1);

  verdicts = c.query(keys);
  for (const auto v : verdicts) EXPECT_EQ(v, 0);
}

TEST(Net, BatchVerdictParityWithDirectFilter) {
  // The same inserts and probes against a remote filter and a local one
  // with identical config must agree verdict-for-verdict (same seed =>
  // same hash layout).
  MemoryServer srv;
  Client c = srv.client();
  core::Mpcbf<64> local(small_config());

  const auto inserted = make_keys(512, 2);
  (void)c.insert(inserted);
  for (const auto& k : inserted) local.insert(k);

  auto probes = make_keys(512, 3);  // disjoint: mostly negative
  probes.insert(probes.end(), inserted.begin(), inserted.end());

  const auto remote = c.query(probes);
  std::vector<std::uint8_t> direct(probes.size());
  local.contains_batch(probes, direct);
  ASSERT_EQ(remote.size(), direct.size());
  for (std::size_t i = 0; i < probes.size(); ++i) {
    EXPECT_EQ(remote[i], direct[i]) << "key " << probes[i];
  }
}

TEST(Net, StatsReflectsLayoutAndServedRequests) {
  MemoryServer srv;
  Client c = srv.client();
  const auto keys = make_keys(100, 4);
  (void)c.insert(keys);

  const StatsReply s = c.stats();
  EXPECT_EQ(s.elements, 100u);
  EXPECT_EQ(s.memory_bits, srv.filter->memory_bits());
  EXPECT_EQ(s.k, srv.filter->k());
  EXPECT_EQ(s.g, srv.filter->g());
  EXPECT_GE(s.requests_served, 2u);  // the insert + this stats request
}

TEST(Net, HealthReportsReady) {
  MemoryServer srv;
  Client c = srv.client();
  const HealthReply h = c.health();
  EXPECT_EQ(h.ready, 1);
  EXPECT_GE(h.saturation_score, 0.0);
}

TEST(Net, SnapshotUnsupportedOnMemoryBackend) {
  MemoryServer srv;
  Client c = srv.client();
  try {
    (void)c.snapshot();
    FAIL() << "snapshot on a memory-only backend must fail";
  } catch (const RemoteError& e) {
    EXPECT_EQ(e.code(), ErrorCode::kUnsupported);
  }
  // The error reply does not poison the connection.
  const auto keys = make_keys(4, 5);
  EXPECT_EQ(c.insert(keys).size(), keys.size());
}

TEST(Net, PipelinedRequestsAnswerInOrder) {
  // Raw-socket pipelining: several frames written back-to-back without
  // reading; responses must come back in arrival order with echoed ids.
  MemoryServer srv;
  Socket s = connect_tcp("127.0.0.1", srv.server->port(),
                         std::chrono::milliseconds(5000));
  const auto keys = make_keys(8, 6);
  std::string batch;
  append_key_batch<std::string>(batch, keys);
  std::string wire;
  for (std::uint64_t id = 10; id < 20; ++id) {
    append_frame(wire, Opcode::kInsert, 0, id, batch);
  }
  write_all(s.fd(), wire.data(), wire.size());

  std::string rx;
  std::uint64_t expect_id = 10;
  while (expect_id < 20) {
    const DecodeResult r = decode_frame(rx);
    if (r.status == DecodeStatus::kFrame) {
      EXPECT_EQ(r.frame.header.request_id, expect_id);
      EXPECT_TRUE(r.frame.header.flags & kFlagResponse);
      ++expect_id;
      rx.erase(0, r.consumed);
      continue;
    }
    ASSERT_EQ(r.status, DecodeStatus::kNeedMore);
    char chunk[4096];
    const auto n = read_some(s.fd(), chunk, sizeof chunk);
    ASSERT_GT(n, 0);
    rx.append(chunk, static_cast<std::size_t>(n));
  }
}

TEST(Net, ConcurrentClientsAgreeWithSequentialTruth) {
  // N threads, each with its own Client, hammering inserts+queries on
  // disjoint key ranges. Exercises the shared_mutex discipline in
  // make_backend and the per-worker connection ownership under TSan.
  MemoryServer srv(/*workers=*/3);
  constexpr int kThreads = 4;
  constexpr int kRounds = 8;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Client c = srv.client();
      for (int round = 0; round < kRounds; ++round) {
        const auto keys =
            make_keys(32, 100 + static_cast<std::uint64_t>(t) * 1000 +
                              static_cast<std::uint64_t>(round));
        try {
          (void)c.insert(keys);
          const auto verdicts = c.query(keys);
          for (const auto v : verdicts) {
            if (v != 1) failures.fetch_add(1);
          }
        } catch (const NetError&) {
          failures.fetch_add(1);
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(srv.filter->size(),
            static_cast<std::size_t>(kThreads) * kRounds * 32);
}

TEST(Net, WalBeforeApplyForInsertBatches) {
  // Batched inserts through the server must hit the journal before the
  // in-memory filter (DurableMpcbf's WAL invariant, flush_every=1).
  // Proof: recover() from the directory *while the server still runs and
  // no snapshot was taken* already sees every acknowledged key.
  const fs::path dir =
      fs::temp_directory_path() /
      ("mpcbf_net_wal_" +
       std::to_string(
           ::testing::UnitTest::GetInstance()->random_seed()));
  fs::remove_all(dir);
  auto durable = core::DurableMpcbf<64>::open_shared(dir, small_config());

  Server server(make_backend(durable), {});
  server.start();
  Client::Options copts;
  copts.port = server.port();
  Client c(copts);

  const auto keys = make_keys(128, 7);
  const auto ok = c.insert(keys);
  for (const auto v : ok) EXPECT_EQ(v, 1);

  // No snapshot() yet: recovery must come purely from the journal.
  const auto cfg = small_config();
  const auto recovered = core::DurableMpcbf<64>::recover(dir, &cfg);
  EXPECT_EQ(recovered.size(), keys.size());
  for (const auto& k : keys) {
    EXPECT_TRUE(recovered.contains(k)) << k;
  }

  // And the snapshot RPC compacts: watermark equals the journal seq.
  const std::uint64_t seq = c.snapshot();
  EXPECT_EQ(seq, durable->next_seq() - 1);

  server.stop();
  durable.reset();
  fs::remove_all(dir);
}

// --- hostile input against a live server --------------------------------

TEST(Net, MalformedPayloadGetsErrorReplyAndConnectionSurvives) {
  MemoryServer srv;
  Socket s = connect_tcp("127.0.0.1", srv.server->port(),
                         std::chrono::milliseconds(5000));
  // Intact frame, garbage batch payload: semantic error => error reply,
  // connection stays open.
  std::string wire;
  append_frame(wire, Opcode::kQuery, 0, 5, "not a key batch");
  write_all(s.fd(), wire.data(), wire.size());

  std::string rx;
  for (;;) {
    const DecodeResult r = decode_frame(rx);
    if (r.status == DecodeStatus::kFrame) {
      EXPECT_TRUE(r.frame.header.flags & kFlagError);
      WireError we;
      ASSERT_EQ(parse_error(r.frame.payload, we), nullptr);
      EXPECT_EQ(we.code, ErrorCode::kBadRequest);
      break;
    }
    ASSERT_EQ(r.status, DecodeStatus::kNeedMore);
    char chunk[4096];
    const auto n = read_some(s.fd(), chunk, sizeof chunk);
    ASSERT_GT(n, 0);
    rx.append(chunk, static_cast<std::size_t>(n));
  }

  // Same connection still serves a valid request.
  const auto keys = make_keys(4, 8);
  std::string batch;
  append_key_batch<std::string>(batch, keys);
  wire.clear();
  append_frame(wire, Opcode::kQuery, 0, 6, batch);
  write_all(s.fd(), wire.data(), wire.size());
  rx.clear();
  for (;;) {
    const DecodeResult r = decode_frame(rx);
    if (r.status == DecodeStatus::kFrame) {
      EXPECT_EQ(r.frame.header.request_id, 6u);
      EXPECT_FALSE(r.frame.header.flags & kFlagError);
      break;
    }
    char chunk[4096];
    const auto n = read_some(s.fd(), chunk, sizeof chunk);
    ASSERT_GT(n, 0);
    rx.append(chunk, static_cast<std::size_t>(n));
  }
}

TEST(Net, FramingViolationClosesConnectionServerSurvives) {
  MemoryServer srv;
  {
    Socket s = connect_tcp("127.0.0.1", srv.server->port(),
                           std::chrono::milliseconds(2000));
    std::string garbage = "GET / HTTP/1.1\r\nHost: wrong-protocol\r\n\r\n";
    write_all(s.fd(), garbage.data(), garbage.size());
    // Server must close on the framing violation: read returns EOF
    // (0) rather than hanging or crashing.
    char chunk[256];
    for (;;) {
      const auto n = read_some(s.fd(), chunk, sizeof chunk);
      ASSERT_NE(n, -1) << "server neither replied nor closed";
      if (n == 0) break;
    }
  }
  // Server is still alive and serving.
  Client c = srv.client();
  const auto keys = make_keys(4, 9);
  EXPECT_EQ(c.query(keys).size(), keys.size());
}

TEST(Net, RandomBytesFuzzAgainstLiveServer) {
  // Random byte blasts on fresh connections: every one must end with an
  // error reply or a clean close; the server keeps running throughout.
  MemoryServer srv;
  std::mt19937_64 rng(0xC0FFEEu);
  for (int iter = 0; iter < 32; ++iter) {
    Socket s = connect_tcp("127.0.0.1", srv.server->port(),
                           std::chrono::milliseconds(2000));
    std::string blob(1 + rng() % 512, '\0');
    for (auto& ch : blob) ch = static_cast<char>(rng());
    try {
      write_all(s.fd(), blob.data(), blob.size());
    } catch (const NetError&) {
      // Server already closed on an early framing violation; fine.
    }
    char chunk[1024];
    // Drain whatever comes back until close/timeout; must not hang.
    for (int reads = 0; reads < 64; ++reads) {
      const auto n = read_some(s.fd(), chunk, sizeof chunk);
      if (n <= 0) break;
    }
  }
  Client c = srv.client();
  const auto keys = make_keys(4, 10);
  EXPECT_EQ(c.query(keys).size(), keys.size());
}

TEST(Net, OversizedLengthFieldRejectedWithoutAllocation) {
  MemoryServer srv;
  Socket s = connect_tcp("127.0.0.1", srv.server->port(),
                         std::chrono::milliseconds(2000));
  // Valid header claiming a 4 GiB payload: the server must close from
  // the header alone instead of buffering toward the claimed length.
  std::string frame;
  append_frame(frame, Opcode::kQuery, 0, 1, "");
  const std::uint32_t huge = 0xFFFFFFF0u;
  std::memcpy(frame.data() + 16, &huge, sizeof huge);
  write_all(s.fd(), frame.data(), frame.size());
  char chunk[256];
  for (;;) {
    const auto n = read_some(s.fd(), chunk, sizeof chunk);
    ASSERT_NE(n, -1) << "server neither replied nor closed";
    if (n == 0) break;  // clean close
  }
}

// --- accept and read paths --------------------------------------------

/// Reads from `s` until `count` whole frames have arrived; returns them
/// in arrival order as (request id, verdicts) pairs.
std::vector<std::pair<std::uint64_t, std::vector<std::uint8_t>>>
read_verdict_replies(const Socket& s, std::size_t count) {
  std::vector<std::pair<std::uint64_t, std::vector<std::uint8_t>>> out;
  std::string rx;
  while (out.size() < count) {
    const DecodeResult r = decode_frame(rx);
    if (r.status == DecodeStatus::kFrame) {
      EXPECT_TRUE(r.frame.header.flags & kFlagResponse);
      EXPECT_FALSE(r.frame.header.flags & kFlagError);
      std::vector<std::uint8_t> verdicts;
      EXPECT_EQ(parse_verdicts(r.frame.payload, verdicts), nullptr);
      out.emplace_back(r.frame.header.request_id, std::move(verdicts));
      rx.erase(0, r.consumed);
      continue;
    }
    EXPECT_EQ(r.status, DecodeStatus::kNeedMore);
    if (r.status != DecodeStatus::kNeedMore) break;
    char chunk[4096];
    const auto n = read_some(s.fd(), chunk, sizeof chunk);
    EXPECT_GT(n, 0) << "server closed or timed out mid-reply";
    if (n <= 0) break;
    rx.append(chunk, static_cast<std::size_t>(n));
  }
  return out;
}

TEST(Net, AcceptTcpSetsNoDelayNonblockAndCloexec) {
  Socket listener = listen_tcp("127.0.0.1", 0);
  set_nonblocking(listener.fd(), true);
  EXPECT_FALSE(accept_tcp(listener).valid()) << "nothing pending yet";

  Socket client = connect_tcp("127.0.0.1", local_port(listener.fd()),
                              std::chrono::milliseconds(2000));
  Socket accepted;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (!(accepted = accept_tcp(listener)).valid() &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_TRUE(accepted.valid());

  int nodelay = 0;
  socklen_t len = sizeof nodelay;
  ASSERT_EQ(::getsockopt(accepted.fd(), IPPROTO_TCP, TCP_NODELAY, &nodelay,
                         &len),
            0);
  EXPECT_NE(nodelay, 0);
  const int fl = ::fcntl(accepted.fd(), F_GETFL);
  ASSERT_GE(fl, 0);
  EXPECT_NE(fl & O_NONBLOCK, 0);
  const int fd_flags = ::fcntl(accepted.fd(), F_GETFD);
  ASSERT_GE(fd_flags, 0);
  EXPECT_NE(fd_flags & FD_CLOEXEC, 0);

  // The pair is connected: bytes flow both ways.
  write_all(client.fd(), "ping", 4);
  char buf[4];
  std::ptrdiff_t got = -1;
  for (int i = 0; i < 5000 && got < 0; ++i) {
    got = read_some(accepted.fd(), buf, sizeof buf);
    if (got < 0) std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(got, 4);
  EXPECT_EQ(std::string(buf, 4), "ping");
}

TEST(Net, FramesSplitAtEveryByteBoundaryAreAnswered) {
  MemoryServer srv;
  Client c = srv.client();
  const auto members = make_keys(6, 20);
  (void)c.insert(members);
  auto probes_a = make_keys(3, 21);  // absent
  probes_a.insert(probes_a.end(), members.begin(), members.begin() + 3);
  auto probes_b = make_keys(2, 22);
  probes_b.insert(probes_b.end(), members.begin() + 3, members.end());
  const auto want_a = c.query(probes_a);
  const auto want_b = c.query(probes_b);

  std::string payload_a;
  std::string payload_b;
  append_key_batch<std::string>(payload_a, probes_a);
  append_key_batch<std::string>(payload_b, probes_b);
  std::string wire;
  append_frame(wire, Opcode::kQuery, 0, 101, payload_a);
  append_frame(wire, Opcode::kQuery, 0, 102, payload_b);

  // One connection, the two-frame stream sent once per split point; the
  // pause lets the server read the head on its own before the tail.
  Socket s = connect_tcp("127.0.0.1", srv.server->port(),
                         std::chrono::milliseconds(5000));
  for (std::size_t split = 1; split < wire.size(); ++split) {
    write_all(s.fd(), wire.data(), split);
    std::this_thread::sleep_for(std::chrono::microseconds(200));
    write_all(s.fd(), wire.data() + split, wire.size() - split);
    const auto replies = read_verdict_replies(s, 2);
    ASSERT_EQ(replies.size(), 2u) << "split " << split;
    EXPECT_EQ(replies[0].first, 101u) << "split " << split;
    EXPECT_EQ(replies[0].second, want_a) << "split " << split;
    EXPECT_EQ(replies[1].first, 102u) << "split " << split;
    EXPECT_EQ(replies[1].second, want_b) << "split " << split;
  }
}

TEST(Net, MegabyteFrameTrickledInRandomWritesIsAnswered) {
  MemoryServer srv;
  Client c = srv.client();
  // 256 keys of 4092 bytes: a 1 MiB (+4 byte) QUERY payload.
  std::vector<std::string> keys;
  for (int i = 0; i < 256; ++i) {
    std::string key = "big-" + std::to_string(i) + "-";
    key.resize(4092, 'x');
    keys.push_back(std::move(key));
  }
  const std::vector<std::string> members(keys.begin(), keys.begin() + 128);
  (void)c.insert(members);
  const auto want = c.query(keys);
  for (std::size_t i = 0; i < members.size(); ++i) ASSERT_EQ(want[i], 1);

  std::string payload;
  append_key_batch<std::string>(payload, keys);
  ASSERT_GE(payload.size(), std::size_t{1} << 20);
  std::string wire;
  append_frame(wire, Opcode::kQuery, 0, 7, payload);

  Socket s = connect_tcp("127.0.0.1", srv.server->port(),
                         std::chrono::milliseconds(5000));
  std::mt19937_64 rng(0x7121C);
  for (std::size_t off = 0; off < wire.size();) {
    const std::size_t n = std::min<std::size_t>(1 + rng() % 9000,
                                                wire.size() - off);
    write_all(s.fd(), wire.data() + off, n);
    off += n;
    if (rng() % 16 == 0) {
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
  }
  const auto replies = read_verdict_replies(s, 1);
  ASSERT_EQ(replies.size(), 1u);
  EXPECT_EQ(replies[0].first, 7u);
  EXPECT_EQ(replies[0].second, want);
}

TEST(Net, ReadBufferCapTripsOneBytePastTheLimit) {
  // The server reads with read_available(..., kReadChunk, kMaxReadBuffer)
  // and closes the connection as a protocol error on kFull. A live
  // socket cannot be made to buffer 16 MiB in one event on demand, so
  // the cap is pinned here on a socketpair with the server's constants.
  static_assert(Server::kMaxReadBuffer ==
                kHeaderSize + kMaxPayload + Server::kReadChunk);
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  Socket server_end(fds[0]);
  Socket peer_end(fds[1]);
  set_nonblocking(server_end.fd(), true);
  write_all(peer_end.fd(), "next", 4);

  // Buffered bytes that open with a header claiming the largest payload.
  // One maximal frame (header + kMaxPayload) is the most a connection
  // may hold and still read on; one byte more is refused.
  std::string buffered;
  append_frame(buffered, Opcode::kQuery, 0, 1, "");
  const std::uint32_t claimed = kMaxPayload;
  std::memcpy(buffered.data() + 16, &claimed, sizeof claimed);
  std::vector<char> chunk(Server::kReadChunk);
  const std::size_t limit = Server::kMaxReadBuffer - Server::kReadChunk;
  ASSERT_EQ(limit, kHeaderSize + kMaxPayload);

  buffered.resize(limit + 1, 'p');
  EXPECT_EQ(read_available(server_end.fd(), buffered, chunk,
                           Server::kMaxReadBuffer),
            ReadStatus::kFull);
  EXPECT_EQ(buffered.size(), limit + 1) << "nothing may be read past the cap";

  // At the limit the pending bytes are still read; the check before the
  // next read then trips.
  buffered.resize(limit);
  EXPECT_EQ(read_available(server_end.fd(), buffered, chunk,
                           Server::kMaxReadBuffer),
            ReadStatus::kFull);
  EXPECT_EQ(buffered.size(), limit + 4);
  EXPECT_EQ(buffered.substr(limit), "next");

  // Below it, reading runs until the socket has nothing more.
  write_all(peer_end.fd(), "more", 4);
  buffered.resize(limit - 4);
  EXPECT_EQ(read_available(server_end.fd(), buffered, chunk,
                           Server::kMaxReadBuffer),
            ReadStatus::kDrained);
  EXPECT_EQ(buffered.size(), limit);
  EXPECT_EQ(buffered.substr(limit - 4), "more");

  // EOF is reported once the peer closes.
  peer_end.close();
  buffered.clear();
  EXPECT_EQ(read_available(server_end.fd(), buffered, chunk,
                           Server::kMaxReadBuffer),
            ReadStatus::kEof);
}

// --- lifecycle ----------------------------------------------------------

TEST(Net, StopDrainsBufferedRequestsAndIsIdempotent) {
  auto filter = std::make_shared<core::Mpcbf<64>>(small_config());
  auto server = std::make_unique<Server>(make_backend(filter),
                                         Server::Options{});
  server->start();
  const auto port = server->port();
  Client::Options copts;
  copts.port = port;
  Client c(copts);
  (void)c.insert(make_keys(16, 11));
  server->stop();
  server->stop();  // idempotent
  EXPECT_FALSE(server->running());
  EXPECT_EQ(filter->size(), 16u);

  // New connections are refused once stopped.
  EXPECT_THROW(
      connect_tcp("127.0.0.1", port, std::chrono::milliseconds(200)),
      NetError);
}

TEST(Net, BackoffNonZeroSeedIsDeterministic) {
  // An explicit seed must reproduce the exact schedule — tests and
  // simulations rely on it.
  Backoff a(std::chrono::milliseconds(20), std::chrono::milliseconds(500),
            0xDEADBEEFull);
  Backoff b(std::chrono::milliseconds(20), std::chrono::milliseconds(500),
            0xDEADBEEFull);
  for (int i = 0; i < 16; ++i) {
    EXPECT_EQ(a.next().count(), b.next().count()) << "step " << i;
  }
}

TEST(Net, BackoffSeedZeroDecorrelatesInstances) {
  // Regression: seed 0 used to fall back to one shared fixed default,
  // marching every default-configured client through identical jitter —
  // exactly the synchronized-retry stampede the jitter exists to break.
  // With per-instance entropy, two seed-0 instances should disagree on
  // at least one step of a 32-step schedule (the chance of a full
  // collision with independent 64-bit states is negligible).
  Backoff a(std::chrono::milliseconds(64), std::chrono::milliseconds(4096),
            0);
  Backoff b(std::chrono::milliseconds(64), std::chrono::milliseconds(4096),
            0);
  bool diverged = false;
  for (int i = 0; i < 32 && !diverged; ++i) {
    diverged = a.next().count() != b.next().count();
  }
  EXPECT_TRUE(diverged);
  // Schedules stay inside the equal-jitter envelope either way.
  Backoff c(std::chrono::milliseconds(100), std::chrono::milliseconds(100),
            0);
  for (int i = 0; i < 8; ++i) {
    const auto d = c.next().count();
    EXPECT_GE(d, 50);
    EXPECT_LE(d, 100);
  }
}

TEST(Net, BackoffEntropySeedNeverZero) {
  for (int i = 0; i < 64; ++i) {
    EXPECT_NE(Backoff::entropy_seed(), 0u);
  }
}

TEST(Net, ShutdownSignalLatchAndWait) {
  ShutdownSignal::install();
  ShutdownSignal::reset();
  EXPECT_FALSE(ShutdownSignal::requested());
  // Timed wait without a signal: returns false after the timeout.
  EXPECT_FALSE(ShutdownSignal::wait(std::chrono::milliseconds(50)));
  ShutdownSignal::trigger();
  EXPECT_TRUE(ShutdownSignal::requested());
  EXPECT_TRUE(ShutdownSignal::wait(std::chrono::milliseconds(50)));
  ShutdownSignal::reset();
  EXPECT_FALSE(ShutdownSignal::requested());
}

}  // namespace
