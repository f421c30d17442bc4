// Replication stack tests: wire-format hardening for the REPLICATE /
// SNAPFETCH / REPLSTATUS payloads (including the every-byte truncation
// sweep the frame decoder gets in test_protocol.cpp), follower
// bootstrap + tail convergence with byte-identical snapshots, sequenced
// mutation dedup, client failover, the slow-loris partial-frame
// timeout, torn-journal-tail recovery of a replicated WAL, and a
// randomized chaos harness (FaultProxy) that kills, partitions and
// truncates the replication stream and asserts primary/follower
// convergence after every schedule. The TSan CI job runs this file.
#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <random>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "core/durable_mpcbf.hpp"
#include "core/elastic_mpcbf.hpp"
#include "core/mpcbf.hpp"
#include "metrics/registry.hpp"
#include "net/client.hpp"
#include "net/fault_proxy.hpp"
#include "net/protocol.hpp"
#include "net/replication.hpp"
#include "net/server.hpp"
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

/// Segments small enough that a chaos schedule's inserts split the
/// chain several times and leave segments that own no bucket.
core::ElasticConfig small_elastic_config() {
  core::ElasticConfig cfg;
  cfg.segment.memory_bits = 1 << 13;
  cfg.segment.expected_n = 300;
  cfg.segment.policy = core::OverflowPolicy::kStash;
  cfg.route_bits = 3;
  cfg.probe_stride = 16;
  return cfg;
}

/// Durable options tuned for tests: still WAL-first, but without
/// per-record fsync (the chaos schedules would crawl otherwise).
template <class D = core::DurableMpcbf<64>>
typename D::Options fast_durable() {
  typename D::Options o;
  o.fsync = false;
  return o;
}

std::vector<std::string> make_keys(std::size_t n, std::uint64_t seed) {
  std::vector<std::string> keys;
  keys.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    keys.push_back("key-" + std::to_string(seed) + "-" +
                   std::to_string(i));
  }
  return keys;
}

fs::path fresh_dir(const std::string& name) {
  const fs::path dir =
      fs::temp_directory_path() / "mpcbf_repl_tests" / name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

std::string read_file(const fs::path& p) {
  std::ifstream is(p, std::ios::binary);
  std::ostringstream os;
  os << is.rdbuf();
  return os.str();
}

Replicator::Options fast_repl(std::uint16_t port) {
  Replicator::Options o;
  o.primaries = {{"127.0.0.1", port}};
  o.poll_interval = std::chrono::milliseconds(2);
  o.io_timeout = std::chrono::milliseconds(1000);
  o.connect_deadline = std::chrono::milliseconds(300);
  o.initial_backoff = std::chrono::milliseconds(2);
  o.max_backoff = std::chrono::milliseconds(50);
  o.max_records = 64;        // force paging over larger histories
  o.snap_chunk = 4096;       // force multi-chunk bootstraps
  return o;
}

/// A durable primary server in a fresh directory.
struct PrimaryServer {
  fs::path dir;
  std::shared_ptr<core::DurableMpcbf<64>> durable;
  std::shared_ptr<std::shared_mutex> mu;
  std::unique_ptr<Server> server;

  explicit PrimaryServer(const std::string& name)
      : dir(fresh_dir(name)) {
    durable = core::DurableMpcbf<64>::open_shared(dir, small_config(),
                                                  fast_durable());
    mu = std::make_shared<std::shared_mutex>();
    Server::Options opts;
    opts.workers = 1;
    server = std::make_unique<Server>(make_backend(durable, mu), opts);
    server->start();
  }
  ~PrimaryServer() {
    if (server) server->stop();
    std::error_code ec;
    fs::remove_all(dir, ec);
  }

  [[nodiscard]] Client client() const {
    Client::Options copts;
    copts.port = server->port();
    return Client(copts);
  }
};

// --- wire format --------------------------------------------------------

std::vector<io::JournalRecord> sample_records(std::size_t n,
                                              std::uint64_t first_seq) {
  std::vector<io::JournalRecord> records;
  for (std::size_t i = 0; i < n; ++i) {
    io::JournalRecord rec;
    rec.seq = first_seq + i;
    rec.op = i % 3 == 0 ? io::JournalOp::kErase : io::JournalOp::kInsert;
    rec.key = "wire-key-" + std::to_string(i);
    records.push_back(std::move(rec));
  }
  return records;
}

TEST(ReplProtocol, ReplicateReplyRoundTrip) {
  const auto records = sample_records(17, 42);
  ReplicateInfo info;
  info.next_seq = 42 + 17;
  info.base_seq = 7;
  std::string payload;
  append_replicate_reply(payload, info, records);

  ReplicateInfo parsed;
  std::vector<io::JournalRecord> out;
  ASSERT_EQ(parse_replicate_reply(payload, parsed, out), nullptr);
  EXPECT_EQ(parsed.next_seq, info.next_seq);
  EXPECT_EQ(parsed.base_seq, info.base_seq);
  EXPECT_EQ(parsed.count, 17u);
  ASSERT_EQ(out.size(), records.size());
  for (std::size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(out[i], records[i]);
  }
}

TEST(ReplProtocol, ReplicateReplyTruncationSweep) {
  // The satellite requirement: a streamed batch cut at EVERY byte
  // boundary must be rejected by the parser — mirroring the
  // decode_frame sweep in test_protocol.cpp. No prefix may half-apply.
  const auto records = sample_records(9, 100);
  ReplicateInfo info;
  info.next_seq = 109;
  info.base_seq = 1;
  std::string payload;
  append_replicate_reply(payload, info, records);

  ReplicateInfo parsed;
  std::vector<io::JournalRecord> out;
  for (std::size_t len = 0; len < payload.size(); ++len) {
    EXPECT_NE(parse_replicate_reply(payload.substr(0, len), parsed, out),
              nullptr)
        << "accepted a batch truncated to " << len << " bytes";
  }
  ASSERT_EQ(parse_replicate_reply(payload, parsed, out), nullptr);
}

TEST(ReplProtocol, ReplicateReplyRejectsHostileInput) {
  ReplicateInfo parsed;
  std::vector<io::JournalRecord> out;

  // Count over cap (no allocation may happen first).
  {
    ReplicateInfo info;
    info.count = kMaxReplicateRecords + 1;
    std::string payload;
    detail::append_pod(payload, info);
    EXPECT_NE(parse_replicate_reply(payload, parsed, out), nullptr);
  }
  // Count exceeding the structural minimum payload size.
  {
    ReplicateInfo info;
    info.count = 1000;
    std::string payload;
    detail::append_pod(payload, info);
    payload.append(64, '\0');
    EXPECT_NE(parse_replicate_reply(payload, parsed, out), nullptr);
  }
  // Unknown journal op.
  {
    auto records = sample_records(1, 5);
    ReplicateInfo info;
    std::string payload;
    append_replicate_reply(payload, info, records);
    payload[sizeof(ReplicateInfo) + 8] = 7;  // op byte
    EXPECT_NE(parse_replicate_reply(payload, parsed, out), nullptr);
  }
  // Non-consecutive sequence numbers: a gap is not a journal suffix.
  {
    auto records = sample_records(3, 5);
    records[2].seq = 99;
    ReplicateInfo info;
    std::string payload;
    append_replicate_reply(payload, info, records);
    EXPECT_NE(parse_replicate_reply(payload, parsed, out), nullptr);
  }
  // Trailing bytes after the declared records.
  {
    auto records = sample_records(2, 5);
    ReplicateInfo info;
    std::string payload;
    append_replicate_reply(payload, info, records);
    payload.push_back('x');
    EXPECT_NE(parse_replicate_reply(payload, parsed, out), nullptr);
  }
}

TEST(ReplProtocol, SnapFetchReplySweepAndCaps) {
  SnapFetchInfo info;
  info.watermark = 12;
  info.total_bytes = 100;
  info.offset = 10;
  const std::string bytes(50, 'z');
  std::string payload;
  append_snapfetch_reply(payload, info, bytes);

  SnapFetchInfo parsed;
  std::string_view view;
  for (std::size_t len = 0; len < payload.size(); ++len) {
    EXPECT_NE(parse_snapfetch_reply(payload.substr(0, len), parsed, view),
              nullptr);
  }
  ASSERT_EQ(parse_snapfetch_reply(payload, parsed, view), nullptr);
  EXPECT_EQ(parsed.watermark, 12u);
  EXPECT_EQ(view, bytes);

  // A chunk that claims to extend past the image is rejected.
  {
    SnapFetchInfo bad;
    bad.total_bytes = 20;
    bad.offset = 10;
    std::string p;
    append_snapfetch_reply(p, bad, std::string(11, 'q'));
    EXPECT_NE(parse_snapfetch_reply(p, parsed, view), nullptr);
  }
  // An image over the follower's assembly cap is rejected from the
  // header, before any bytes accumulate.
  {
    SnapFetchInfo bad;
    bad.total_bytes = kMaxSnapshotBytes + 1;
    std::string p;
    append_snapfetch_reply(p, bad, {});
    EXPECT_NE(parse_snapfetch_reply(p, parsed, view), nullptr);
  }
}

TEST(ReplProtocol, SequencedBatchRoundTrip) {
  const auto keys = make_keys(8, 77);
  const SequencePrefix prefix{0xABCDu, 42};
  std::string payload;
  append_sequenced_key_batch(payload, prefix,
                             std::span<const std::string>(keys));

  SequencePrefix parsed;
  std::vector<std::string_view> out;
  ASSERT_EQ(parse_sequenced_key_batch(payload, parsed, out), nullptr);
  EXPECT_EQ(parsed.session_id, prefix.session_id);
  EXPECT_EQ(parsed.op_seq, prefix.op_seq);
  ASSERT_EQ(out.size(), keys.size());
  for (std::size_t i = 0; i < keys.size(); ++i) {
    EXPECT_EQ(out[i], keys[i]);
  }
  // Too short for even the prefix.
  EXPECT_NE(parse_sequenced_key_batch(payload.substr(0, 15), parsed, out),
            nullptr);
}

// --- durable replication primitives -------------------------------------

TEST(ReplDurable, ApplyReplicatedRejectsGaps) {
  const fs::path dir = fresh_dir("apply_gap");
  auto d = core::DurableMpcbf<64>::open_shared(dir, small_config(),
                                               fast_durable());
  EXPECT_TRUE(d->apply_replicated(1, io::JournalOp::kInsert, "a"));
  EXPECT_TRUE(d->apply_replicated(2, io::JournalOp::kInsert, "b"));
  // Gap, replay of an old seq, and a future seq are all refused.
  EXPECT_FALSE(d->apply_replicated(4, io::JournalOp::kInsert, "d"));
  EXPECT_FALSE(d->apply_replicated(2, io::JournalOp::kInsert, "b"));
  EXPECT_EQ(d->next_seq(), 3u);
  EXPECT_TRUE(d->contains("a"));
  EXPECT_TRUE(d->contains("b"));
  EXPECT_FALSE(d->contains("d"));
  d.reset();
  fs::remove_all(dir);
}

TEST(ReplDurable, SerializedSnapshotMatchesPublishedFile) {
  const fs::path dir = fresh_dir("serialize_parity");
  auto d = core::DurableMpcbf<64>::open_shared(dir, small_config(),
                                               fast_durable());
  for (const auto& k : make_keys(200, 9)) d->insert(k);
  auto [image, watermark] = d->serialize_snapshot();
  d->snapshot();
  const auto files = core::DurableMpcbf<64>::snapshot_files(dir);
  ASSERT_FALSE(files.empty());
  EXPECT_EQ(read_file(files.front()), image);
  EXPECT_EQ(watermark, 200u);
  d.reset();
  fs::remove_all(dir);
}

TEST(ReplDurable, JournalRecordsFromPagesAndSignalsCompaction) {
  const fs::path dir = fresh_dir("records_from");
  auto d = core::DurableMpcbf<64>::open_shared(dir, small_config(),
                                               fast_durable());
  const auto keys = make_keys(50, 11);
  for (const auto& k : keys) d->insert(k);

  auto batch = d->journal_records_from(1, 20, 1 << 20);
  EXPECT_EQ(batch.records.size(), 20u);
  EXPECT_EQ(batch.records.front().seq, 1u);
  EXPECT_EQ(batch.next_seq, 51u);

  batch = d->journal_records_from(21, 100, 1 << 20);
  EXPECT_EQ(batch.records.size(), 30u);
  EXPECT_EQ(batch.records.front().seq, 21u);

  // Nothing new at the head.
  batch = d->journal_records_from(51, 100, 1 << 20);
  EXPECT_TRUE(batch.records.empty());

  // After compaction, from_seq below base_seq is the bootstrap signal.
  d->snapshot();
  batch = d->journal_records_from(1, 100, 1 << 20);
  EXPECT_TRUE(batch.records.empty());
  EXPECT_EQ(batch.base_seq, 51u);
  d.reset();
  fs::remove_all(dir);
}

// --- follower convergence ------------------------------------------------

void converge(Replicator& repl, int max_polls = 10000) {
  for (int i = 0; i < max_polls && !repl.caught_up(); ++i) {
    repl.poll_once();
  }
  ASSERT_TRUE(repl.caught_up());
}

TEST(Replication, FollowerTailsFromGenesisWithVerdictParity) {
  PrimaryServer primary("tail_genesis_primary");
  Client c = primary.client();
  const auto keys = make_keys(300, 21);
  (void)c.insert(keys);

  const fs::path fdir = fresh_dir("tail_genesis_follower");
  auto follower = core::DurableMpcbf<64>::open_shared(
      fdir, small_config(), fast_durable());
  auto fmu = std::make_shared<std::shared_mutex>();
  Replicator repl(follower, fmu, fast_repl(primary.server->port()));
  converge(repl);
  EXPECT_EQ(repl.bootstraps(), 0u);  // genesis tail needs no snapshot
  EXPECT_EQ(repl.acked_seq(), 300u);

  // Verdict parity on inserted keys and disjoint probes.
  auto probes = make_keys(300, 22);
  probes.insert(probes.end(), keys.begin(), keys.end());
  for (const auto& k : probes) {
    EXPECT_EQ(follower->contains(k), primary.durable->contains(k))
        << "verdict divergence on " << k;
  }

  // At equal watermarks the snapshot files are byte-identical.
  ASSERT_EQ(c.snapshot(), 300u);
  follower->snapshot();
  const auto pfiles = core::DurableMpcbf<64>::snapshot_files(primary.dir);
  const auto ffiles = core::DurableMpcbf<64>::snapshot_files(fdir);
  ASSERT_FALSE(pfiles.empty());
  ASSERT_FALSE(ffiles.empty());
  EXPECT_EQ(pfiles.front().filename(), ffiles.front().filename());
  EXPECT_EQ(read_file(pfiles.front()), read_file(ffiles.front()));

  // The primary saw the follower's acks.
  const auto status = c.repl_status();
  EXPECT_EQ(status.role,
            static_cast<std::uint8_t>(ReplRole::kPrimary));
  EXPECT_EQ(status.followers, 1u);
  fs::remove_all(fdir);
}

TEST(Replication, FollowerBootstrapsAfterCompaction) {
  PrimaryServer primary("bootstrap_primary");
  Client c = primary.client();
  const auto first = make_keys(200, 31);
  (void)c.insert(first);
  ASSERT_EQ(c.snapshot(), 200u);  // compacts: base_seq is now 201
  const auto second = make_keys(100, 32);
  (void)c.insert(second);

  const fs::path fdir = fresh_dir("bootstrap_follower");
  auto follower = core::DurableMpcbf<64>::open_shared(
      fdir, small_config(), fast_durable());
  auto fmu = std::make_shared<std::shared_mutex>();
  Replicator repl(follower, fmu, fast_repl(primary.server->port()));
  converge(repl);
  EXPECT_GE(repl.bootstraps(), 1u);
  EXPECT_EQ(repl.acked_seq(), 300u);
  for (const auto& k : first) EXPECT_TRUE(follower->contains(k));
  for (const auto& k : second) EXPECT_TRUE(follower->contains(k));

  // The installed bootstrap image and the primary's own snapshot of
  // the same watermark are the same bytes on disk.
  ASSERT_EQ(c.snapshot(), 300u);
  const auto pfiles = core::DurableMpcbf<64>::snapshot_files(primary.dir);
  const auto ffiles = core::DurableMpcbf<64>::snapshot_files(fdir);
  ASSERT_FALSE(pfiles.empty());
  ASSERT_FALSE(ffiles.empty());
  // Follower's newest file is the bootstrap image (watermark 300 only
  // if the bootstrap happened after the second batch; it may also be
  // an earlier watermark plus tailed records — snapshot now to align).
  follower->snapshot();
  const auto ffiles2 = core::DurableMpcbf<64>::snapshot_files(fdir);
  EXPECT_EQ(read_file(pfiles.front()), read_file(ffiles2.front()));
  fs::remove_all(fdir);
}

TEST(Replication, RestartedPrimaryConvergesAsFollowerOfReplica) {
  // The failback flow the CI smoke job scripts: A dies, B (its former
  // follower) keeps serving and takes writes, A comes back as a
  // follower of B and converges over the same stream.
  PrimaryServer a("failback_a");
  {
    Client c = a.client();
    (void)c.insert(make_keys(150, 41));
  }
  // B converges as A's follower.
  const fs::path bdir = fresh_dir("failback_b");
  auto b = core::DurableMpcbf<64>::open_shared(bdir, small_config(),
                                               fast_durable());
  auto bmu = std::make_shared<std::shared_mutex>();
  {
    Replicator repl(b, bmu, fast_repl(a.server->port()));
    converge(repl);
  }
  // A dies; B is promoted to a serving primary and takes new writes.
  a.server->stop();
  Server::Options bopts;
  bopts.workers = 1;
  Server bserver(make_backend(b, bmu), bopts);
  bserver.start();
  {
    Client bc{[&] {
      Client::Options o;
      o.port = bserver.port();
      return o;
    }()};
    (void)bc.insert(make_keys(50, 42));
  }
  // Old A restarts as a follower of B and converges, including the
  // writes it missed while dead.
  auto amu = std::make_shared<std::shared_mutex>();
  Replicator arepl(a.durable, amu, fast_repl(bserver.port()));
  converge(arepl);
  EXPECT_EQ(arepl.acked_seq(), 200u);
  for (const auto& k : make_keys(50, 42)) {
    EXPECT_TRUE(a.durable->contains(k));
  }
  bserver.stop();
  fs::remove_all(bdir);
}

TEST(Replication, ForkedExPrimaryDiscardsItsForkAndRebootstraps) {
  // A follower whose journal ran AHEAD of the primary (an ex-primary
  // with unreplicated writes) must throw its fork away and re-sync:
  // the primary's history wins.
  PrimaryServer primary("fork_primary");
  {
    Client c = primary.client();
    (void)c.insert(make_keys(100, 91));
  }
  const fs::path fdir = fresh_dir("fork_follower");
  auto follower = core::DurableMpcbf<64>::open_shared(
      fdir, small_config(), fast_durable());
  auto fmu = std::make_shared<std::shared_mutex>();
  {
    Replicator repl(follower, fmu, fast_repl(primary.server->port()));
    converge(repl);
  }
  // Fork: local writes the primary never saw.
  follower->insert("forked-key-1");
  follower->insert("forked-key-2");
  ASSERT_EQ(follower->next_seq(), 103u);

  Replicator repl(follower, fmu, fast_repl(primary.server->port()));
  converge(repl);
  EXPECT_GE(repl.bootstraps(), 1u);
  EXPECT_EQ(repl.acked_seq(), 100u);
  EXPECT_FALSE(follower->contains("forked-key-1"));
  EXPECT_FALSE(follower->contains("forked-key-2"));
  for (const auto& k : make_keys(100, 91)) {
    EXPECT_TRUE(follower->contains(k));
  }
  fs::remove_all(fdir);
}

// --- sequenced mutations and failover ------------------------------------

TEST(Replication, SequencedMutationRetryIsDeduped) {
  PrimaryServer primary("dedup_primary");
  Client c = primary.client();
  const auto keys = make_keys(50, 51);
  const SequencePrefix prefix{0xFEEDu, 1};
  std::string payload;
  append_sequenced_key_batch(payload, prefix,
                             std::span<const std::string>(keys));

  const std::string reply1 =
      c.round_trip(Opcode::kInsert, payload, kFlagSequenced);
  // A failover retry resends the identical sequenced frame; the server
  // must replay the cached reply, not apply the batch twice.
  const std::string reply2 =
      c.round_trip(Opcode::kInsert, payload, kFlagSequenced);
  EXPECT_EQ(reply1, reply2);
  EXPECT_EQ(c.stats().elements, 50u);  // double-apply would read 100

  // A stale sequence number is rejected outright.
  const SequencePrefix stale{0xFEEDu, 0};
  std::string stale_payload;
  append_sequenced_key_batch(stale_payload, stale,
                             std::span<const std::string>(keys));
  EXPECT_THROW(
      (void)c.round_trip(Opcode::kInsert, stale_payload, kFlagSequenced),
      RemoteError);
  // Sequenced queries make no sense and are refused.
  EXPECT_THROW(
      (void)c.round_trip(Opcode::kQuery, payload, kFlagSequenced),
      RemoteError);
}

TEST(Replication, FailoverClientRotatesOnDeadEndpoint) {
  // Two servers over the same filter through the same mutex — the
  // degenerate "replication group" where both nodes are one state.
  auto filter = std::make_shared<core::Mpcbf<64>>(small_config());
  auto mu = std::make_shared<std::shared_mutex>();
  Server::Options opts;
  opts.workers = 1;
  auto sa = std::make_unique<Server>(make_backend(filter, mu), opts);
  auto sb = std::make_unique<Server>(make_backend(filter, mu), opts);
  sa->start();
  sb->start();

  FailoverClient::Options fo;
  fo.endpoints = {{"127.0.0.1", sa->port()}, {"127.0.0.1", sb->port()}};
  fo.op_deadline = std::chrono::milliseconds(5000);
  fo.initial_backoff = std::chrono::milliseconds(1);
  fo.max_backoff = std::chrono::milliseconds(20);
  fo.connect_deadline = std::chrono::milliseconds(200);
  FailoverClient fc(fo);

  const auto keys = make_keys(64, 61);
  auto ok = fc.insert(keys);
  for (const auto v : ok) EXPECT_EQ(v, 1);
  EXPECT_EQ(fc.failovers(), 0u);

  sa->stop();
  sa.reset();  // endpoint 0 is now refusing connections

  const auto verdicts = fc.query(keys);
  for (const auto v : verdicts) EXPECT_EQ(v, 1);
  EXPECT_GE(fc.failovers(), 1u);

  // Mutations keep flowing after the failover, sequenced via the same
  // session.
  const auto more = make_keys(32, 62);
  ok = fc.insert(more);
  for (const auto v : ok) EXPECT_EQ(v, 1);
  EXPECT_EQ(fc.stats().elements, 96u);
  sb->stop();
}

TEST(Replication, FailoverClientExhaustsDeadlineWhenAllDown) {
  FailoverClient::Options fo;
  // Nothing listens on these ports (bound-then-closed ephemeral would
  // be racy; connecting to a likely-unused high port fails fast).
  fo.endpoints = {{"127.0.0.1", 1}, {"127.0.0.1", 2}};
  fo.op_deadline = std::chrono::milliseconds(300);
  fo.connect_deadline = std::chrono::milliseconds(50);
  fo.initial_backoff = std::chrono::milliseconds(1);
  fo.max_backoff = std::chrono::milliseconds(10);
  FailoverClient fc(fo);
  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_THROW((void)fc.stats(), NetError);
  // The deadline is a budget, not a hint: the op gave up near it.
  EXPECT_LT(std::chrono::steady_clock::now() - t0,
            std::chrono::seconds(5));
}

// --- server timeout (slow-loris) -----------------------------------------

TEST(Replication, PartialFrameStallClosesConnectionAndCounts) {
  auto filter = std::make_shared<core::Mpcbf<64>>(small_config());
  Server::Options opts;
  opts.workers = 1;
  opts.frame_timeout = std::chrono::milliseconds(100);
  Server server(make_backend(filter), opts);
  server.start();

  auto& timeouts = metrics::Registry::global().counter(
      "mpcbf_server_timeouts_total");
  const std::uint64_t before = timeouts.value();

  // Send half a frame header, then stall — the classic slow loris.
  Socket sock = connect_tcp("127.0.0.1", server.port(),
                            std::chrono::milliseconds(5000));
  std::string full;
  append_frame(full, Opcode::kStats, 0, 1, {});
  write_all(sock.fd(), full.data(), 10);

  // The server must close the connection rather than wait forever or
  // retry the partial read into the next frame.
  char buf[64];
  const std::ptrdiff_t n = read_some(sock.fd(), buf, sizeof buf);
  EXPECT_EQ(n, 0) << "expected EOF from the server's timeout sweep";
  EXPECT_EQ(timeouts.value(), before + 1);

  // An idle connection BETWEEN frames is fine — only mid-frame stalls
  // trip the sweep.
  Client::Options copts;
  copts.port = server.port();
  Client c(copts);
  (void)c.stats();
  std::this_thread::sleep_for(std::chrono::milliseconds(250));
  (void)c.stats();  // still alive after idling past frame_timeout
  EXPECT_EQ(timeouts.value(), before + 1);
  server.stop();
}

// --- torn journal tail over the wire -------------------------------------

TEST(Replication, TornReplicatedJournalTailRecoversToWatermark) {
  // Build a follower WAL purely from the replication stream, then tear
  // its tail at every byte boundary: recovery must come back to the
  // longest valid prefix (the last locally-durable watermark), and the
  // replicator must then re-converge from exactly that point.
  PrimaryServer primary("torn_primary");
  const auto keys = make_keys(25, 71);
  {
    Client c = primary.client();
    (void)c.insert(keys);
  }
  const fs::path fdir = fresh_dir("torn_follower");
  {
    auto follower = core::DurableMpcbf<64>::open_shared(
        fdir, small_config(), fast_durable());
    auto fmu = std::make_shared<std::shared_mutex>();
    Replicator repl(follower, fmu, fast_repl(primary.server->port()));
    converge(repl);
  }  // closed: journal flushed

  const fs::path wal = core::DurableMpcbf<64>::journal_path(fdir);
  const std::string full = read_file(wal);
  const auto full_scan = io::Journal::scan(wal.string());
  ASSERT_EQ(full_scan.records.size(), keys.size());

  const auto cfg = small_config();
  for (std::size_t cut = io::Journal::kHeaderBytes;
       cut < full.size(); ++cut) {
    const fs::path tdir = fresh_dir("torn_follower_cut");
    {
      std::ofstream os(tdir / "journal.wal", std::ios::binary);
      os.write(full.data(), static_cast<std::streamsize>(cut));
    }
    // The repaired journal is the longest valid record prefix…
    const auto scan =
        io::Journal::scan((tdir / "journal.wal").string());
    ASSERT_LE(scan.records.size(), keys.size());
    // …and recovery serves exactly the keys that prefix covers.
    const auto filter = core::DurableMpcbf<64>::recover(tdir, &cfg);
    for (std::size_t i = 0; i < keys.size(); ++i) {
      EXPECT_EQ(filter.contains(keys[i]), i < scan.records.size())
          << "cut=" << cut << " key " << i;
    }
    fs::remove_all(tdir);
  }

  // Full resume from a mid-record tear: reopen (tail repair truncates
  // the garbage), re-tail, and converge to the primary's watermark.
  const std::size_t mid_cut = full.size() - 7;
  {
    std::ofstream os(wal,
                     std::ios::binary | std::ios::trunc);
    os.write(full.data(), static_cast<std::streamsize>(mid_cut));
  }
  auto follower = core::DurableMpcbf<64>::open_shared(
      fdir, small_config(), fast_durable());
  ASSERT_LT(follower->next_seq(), keys.size() + 1);
  auto fmu = std::make_shared<std::shared_mutex>();
  Replicator repl(follower, fmu, fast_repl(primary.server->port()));
  converge(repl);
  EXPECT_EQ(repl.acked_seq(), keys.size());
  for (const auto& k : keys) EXPECT_TRUE(follower->contains(k));
  fs::remove_all(fdir);
}

// --- ready bit ------------------------------------------------------------

TEST(Replication, ReadyBitVetoedByBackendUntilCaughtUp) {
  auto filter = std::make_shared<core::Mpcbf<64>>(small_config());
  auto backend = make_backend(filter);
  std::atomic<bool> caught_up{false};
  backend.ready = [&caught_up] { return caught_up.load(); };
  Server::Options opts;
  opts.workers = 1;
  Server server(std::move(backend), opts);
  server.start();
  Client::Options copts;
  copts.port = server.port();
  Client c(copts);
  EXPECT_EQ(c.health().ready, 0);  // running, but the backend vetoes
  caught_up.store(true);
  EXPECT_EQ(c.health().ready, 1);
  server.stop();
}

// --- the backend stack (net::host) -----------------------------------------

TEST(Host, LayersFollowTheFilterType) {
  auto mu = std::make_shared<std::shared_mutex>();
  // Flat, in memory: the served hooks only.
  const Hosted flat =
      host(std::make_shared<core::Mpcbf<64>>(small_config()), mu);
  EXPECT_EQ(flat.kind, "in-memory");
  EXPECT_TRUE(flat.backend.insert_batch && flat.backend.erase_batch);
  EXPECT_FALSE(flat.maintain || flat.ticks || flat.replicator);
  EXPECT_FALSE(flat.backend.snapshot);
  EXPECT_EQ(flat.shutdown(), "");
  std::string status;
  flat.status(status);
  EXPECT_EQ(status, "");
  // A follower needs a journal to apply records to.
  Replicator::Options follow;
  follow.primaries = {{"127.0.0.1", 1}};
  EXPECT_THROW(
      (void)host(std::make_shared<core::Mpcbf<64>>(small_config()), mu,
                 512, "server", follow),
      std::invalid_argument);

  // Elastic, durable: a drain pass, the chain's status lines and a
  // final snapshot.
  const fs::path dir = fresh_dir("host_elastic_durable");
  using Chain = core::DurableElasticMpcbf<64>;
  auto chain = Chain::open_shared(dir, small_elastic_config(),
                                  fast_durable<Chain>());
  const Hosted durable = host(chain, mu);
  EXPECT_EQ(durable.kind, "elastic durable");
  EXPECT_TRUE(durable.maintain && durable.backend.snapshot &&
              durable.backend.replicate);
  for (const auto& k : make_keys(2000, 5)) chain->insert(k);
  durable.maintain();
  status.clear();
  durable.status(status);
  EXPECT_NE(status.find("elastic_segments: "), std::string::npos);
  EXPECT_NE(status.find("journal_next_seq: "), std::string::npos);
  const std::string line = durable.shutdown();
  EXPECT_EQ(line.rfind("final snapshot at seq ", 0), 0u) << line;
  EXPECT_NE(line.find(" segments)"), std::string::npos) << line;
  EXPECT_FALSE(Chain::snapshot_files(dir).empty());

  // The same durable chain as a follower: read-only, no drain pass, a
  // started replicator that the ready bit waits on.
  follow.connect_deadline = std::chrono::milliseconds(50);
  follow.max_backoff = std::chrono::milliseconds(50);
  const Hosted follower = host(chain, mu, 512, "server", follow);
  EXPECT_EQ(follower.kind, "elastic follower");
  EXPECT_FALSE(follower.backend.insert_batch || follower.backend.erase_batch);
  EXPECT_FALSE(follower.maintain);
  ASSERT_TRUE(follower.replicator);
  EXPECT_FALSE(follower.backend.ready());
  follower.replicator->stop();
  fs::remove_all(dir);
}

// --- chaos harness --------------------------------------------------------

TEST(ReplicationChaos, ProxyPassthroughConverges) {
  // Baseline: the proxy with no faults injected must be transparent.
  PrimaryServer primary("proxy_passthrough_primary");
  FaultProxy::Options popts;
  popts.target_port = primary.server->port();
  FaultProxy proxy(popts);
  proxy.start();

  {
    Client c = primary.client();
    (void)c.insert(make_keys(120, 81));
  }
  const fs::path fdir = fresh_dir("proxy_passthrough_follower");
  auto follower = core::DurableMpcbf<64>::open_shared(
      fdir, small_config(), fast_durable());
  auto fmu = std::make_shared<std::shared_mutex>();
  Replicator repl(follower, fmu, fast_repl(proxy.port()));
  converge(repl);
  EXPECT_EQ(repl.acked_seq(), 120u);
  EXPECT_GT(proxy.forwarded_bytes(), 0u);
  for (const auto& k : make_keys(120, 81)) {
    EXPECT_TRUE(follower->contains(k));
  }
  proxy.stop();
  fs::remove_all(fdir);
}

/// One randomized kill/partition/truncation schedule: inserts flow to
/// the primary while the replication stream crosses a FaultProxy that
/// misbehaves; both nodes may be killed and restarted. After the
/// schedule heals, the follower must converge to verdict parity and a
/// byte-identical snapshot. `churn` also erases every fourth key of
/// each batch and runs the primary's drain pass after it (the elastic
/// kind journals each pass as a kSegmentRetire record).
template <class D>
void run_chaos_schedule(std::uint64_t seed, const typename D::Config& cfg,
                        std::size_t keys_per_step, bool churn,
                        std::uint64_t* retires = nullptr) {
  std::mt19937_64 rng(seed);
  const std::string tag = std::to_string(seed) + (churn ? "_churn" : "");
  const fs::path pdir = fresh_dir("chaos_primary_" + tag);
  const fs::path fdir = fresh_dir("chaos_follower_" + tag);

  auto pdur = D::open_shared(pdir, cfg, fast_durable<D>());
  auto pmu = std::make_shared<std::shared_mutex>();
  Server::Options sopts;
  sopts.workers = 1;
  auto pserver =
      std::make_unique<Server>(make_backend(pdur, pmu), sopts);
  pserver->start();

  FaultProxy::Options popts;
  popts.target_port = pserver->port();
  FaultProxy proxy(popts);
  proxy.start();

  auto fdur = D::open_shared(fdir, cfg, fast_durable<D>());
  auto fmu = std::make_shared<std::shared_mutex>();
  auto repl = std::make_unique<Replicator>(fdur, fmu,
                                           fast_repl(proxy.port()));
  repl->start();

  std::vector<std::string> inserted;
  const auto insert_batch = [&](std::size_t n) {
    const auto keys = make_keys(n, seed * 1000 + inserted.size());
    std::vector<std::string> gone;
    for (std::size_t i = 0; churn && i < keys.size(); i += 4) {
      gone.push_back(keys[i]);
    }
    for (int attempt = 0; attempt < 50; ++attempt) {
      try {
        Client::Options copts;
        copts.port = pserver->port();
        copts.connect_deadline = std::chrono::milliseconds(500);
        copts.io_timeout = std::chrono::milliseconds(2000);
        Client c(copts);
        (void)c.insert(keys);
        if (!gone.empty()) (void)c.erase(gone);
        break;
      } catch (const NetError&) {
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
      }
    }
    inserted.insert(inserted.end(), keys.begin(), keys.end());
    if constexpr (requires { pdur->compact_once(); }) {
      if (churn) {
        std::unique_lock lock(*pmu);
        (void)pdur->compact_once();
      }
    }
  };

  for (int step = 0; step < 10; ++step) {
    insert_batch(keys_per_step);
    switch (rng() % 8) {
      case 0:  // clean step
        break;
      case 1:  // brief partition of the replication stream
        proxy.set_partitioned(true);
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
        proxy.set_partitioned(false);
        break;
      case 2:  // hard-kill every replication connection
        proxy.kill_connections();
        break;
      case 3:  // cut the stream mid-frame
        proxy.truncate_open_connections(rng() % 64);
        break;
      case 4:  // latency + slow-loris dribble
        proxy.set_delay(std::chrono::milliseconds(rng() % 8));
        proxy.set_throttle_bytes_per_tick(256);
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
        proxy.set_delay(std::chrono::milliseconds(0));
        proxy.set_throttle_bytes_per_tick(0);
        break;
      case 5: {  // primary snapshot: compacts, may force a bootstrap
        std::unique_lock lock(*pmu);
        pdur->snapshot();
        break;
      }
      case 6: {  // kill and restart the primary
        pserver->stop();
        pserver.reset();
        pdur.reset();
        pdur = D::open_shared(pdir, cfg, fast_durable<D>());
        pmu = std::make_shared<std::shared_mutex>();
        pserver =
            std::make_unique<Server>(make_backend(pdur, pmu), sopts);
        pserver->start();
        proxy.set_target("127.0.0.1", pserver->port());
        proxy.kill_connections();  // old conns point at the dead port
        break;
      }
      case 7: {  // kill and restart the follower
        repl.reset();
        fdur.reset();
        fdur = D::open_shared(fdir, cfg, fast_durable<D>());
        fmu = std::make_shared<std::shared_mutex>();
        repl = std::make_unique<Replicator>(fdur, fmu,
                                            fast_repl(proxy.port()));
        repl->start();
        break;
      }
    }
  }

  // Heal the network and wait for convergence.
  proxy.set_partitioned(false);
  proxy.set_delay(std::chrono::milliseconds(0));
  proxy.set_throttle_bytes_per_tick(0);
  // caught_up() alone can be stale-true for an instant after the last
  // insert (the replicator has not polled the new head yet), so also
  // require the acked watermark to reach the primary's journal head.
  std::uint64_t target = 0;
  {
    std::shared_lock lock(*pmu);
    target = pdur->next_seq();
  }
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while ((!repl->caught_up() || repl->acked_seq() + 1 != target) &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_TRUE(repl->caught_up() && repl->acked_seq() + 1 == target)
      << "schedule " << seed << " failed to converge: acked="
      << repl->acked_seq() << " lag=" << repl->lag()
      << " bootstraps=" << repl->bootstraps()
      << " failovers=" << repl->failovers()
      << " primary_next=" << pdur->next_seq()
      << " follower_next=" << fdur->next_seq();
  repl->stop();
  pserver->stop();

  // Zero divergence: identical verdicts on every inserted key and on a
  // held-out probe set.
  ASSERT_EQ(fdur->next_seq(), pdur->next_seq());
  for (const auto& k : inserted) {
    ASSERT_EQ(fdur->contains(k), pdur->contains(k))
        << "schedule " << seed << " diverged on " << k;
  }
  for (const auto& k : make_keys(100, seed * 1000 + 999)) {
    ASSERT_EQ(fdur->contains(k), pdur->contains(k))
        << "schedule " << seed << " diverged on held-out " << k;
  }

  if constexpr (requires { pdur->filter().grows(); }) {
    EXPECT_GT(pdur->filter().grows(), 0u) << "the chain must split";
    EXPECT_EQ(fdur->filter().topology_bytes(),
              pdur->filter().topology_bytes());
    if (retires != nullptr) *retires += pdur->filter().retires();
  }

  // Byte-identical snapshots at the shared watermark.
  pdur->snapshot();
  fdur->snapshot();
  const auto pfiles = D::snapshot_files(pdir);
  const auto ffiles = D::snapshot_files(fdir);
  ASSERT_FALSE(pfiles.empty());
  ASSERT_FALSE(ffiles.empty());
  ASSERT_EQ(pfiles.front().filename(), ffiles.front().filename());
  ASSERT_EQ(read_file(pfiles.front()), read_file(ffiles.front()))
      << "schedule " << seed << " snapshots diverged";

  proxy.stop();
  repl.reset();
  fdur.reset();
  pdur.reset();
  fs::remove_all(pdir);
  fs::remove_all(fdir);
}

TEST(ReplicationChaos, TwentyRandomizedSchedulesConverge) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    SCOPED_TRACE("schedule " + std::to_string(seed));
    run_chaos_schedule<core::DurableMpcbf<64>>(seed, small_config(), 10,
                                               false);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST(ReplicationChaos, ElasticFollowerSchedulesConverge) {
  // An elastic follower under the same faults, with erases and drain
  // passes on the primary: it applies the primary's kSegmentAdd and
  // kSegmentRetire records and journals none of its own, so the chains
  // and the snapshot bytes match at the end.
  std::uint64_t retires = 0;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    SCOPED_TRACE("schedule " + std::to_string(seed));
    run_chaos_schedule<core::DurableElasticMpcbf<64>>(
        seed, small_elastic_config(), 150, true, &retires);
    if (::testing::Test::HasFatalFailure()) return;
  }
  EXPECT_GT(retires, 0u) << "some schedule must drain a segment";
}

}  // namespace
