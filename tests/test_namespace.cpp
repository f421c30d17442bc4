// Multi-tenant namespace tests: registry validation and lifecycle,
// drop-safety of resolved backends, quota gating, automatic decay
// ticking, and the wire-level acceptance criteria — one server hosting
// two independently-configured namespaces answers byte-identically to
// standalone single-namespace servers; a tenant exhausting its key
// quota gets clean kQuotaExceeded rejections while siblings stay
// healthy; a server without a registry rejects namespaced frames.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/decaying_mpcbf.hpp"
#include "core/mpcbf.hpp"
#include "io/journal.hpp"
#include "net/client.hpp"
#include "net/namespace_registry.hpp"
#include "net/protocol.hpp"
#include "net/server.hpp"

namespace {

namespace fs = std::filesystem;
using namespace mpcbf;
using namespace mpcbf::net;

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
      fs::temp_directory_path() / "mpcbf_ns_tests" / name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

NsConfigWire memory_ns(std::uint64_t memory_bits = 1 << 18,
                       std::uint64_t expected_n = 4096) {
  NsConfigWire cfg;
  cfg.kind = static_cast<std::uint8_t>(NsKind::kMemory);
  cfg.memory_bits = memory_bits;
  cfg.expected_n = expected_n;
  return cfg;
}

NsConfigWire decay_ns(std::uint8_t generations,
                      std::uint64_t memory_bits = 1 << 18) {
  NsConfigWire cfg;
  cfg.kind = static_cast<std::uint8_t>(NsKind::kDecay);
  cfg.decay_generations = generations;
  cfg.memory_bits = memory_bits;
  cfg.expected_n = 4096;
  return cfg;
}

/// The registry sizes each namespace (or generation) filter from the
/// wire config through exactly this mapping — reproduced here so parity
/// tests can build a standalone filter with the identical layout.
core::MpcbfConfig ns_equiv_config(const NsConfigWire& cfg) {
  core::MpcbfConfig c;
  c.memory_bits = cfg.memory_bits;
  c.k = cfg.k;
  c.g = cfg.g;
  c.expected_n = cfg.expected_n != 0
                     ? cfg.expected_n
                     : std::max<std::uint64_t>(cfg.memory_bits / 16, 1);
  return c;
}

NamespaceRegistry::Options no_ticker(std::string root_dir = {}) {
  NamespaceRegistry::Options o;
  o.root_dir = std::move(root_dir);
  o.start_ticker = false;  // tests drive ticks deterministically
  return o;
}

/// A flat server with an attached namespace registry (default backend
/// is a plain in-memory filter, as mpcbf_tool's `serve --namespaces`).
struct NamespaceServer {
  std::shared_ptr<core::Mpcbf<64>> default_filter;
  std::shared_ptr<NamespaceRegistry> registry;
  std::unique_ptr<Server> server;

  explicit NamespaceServer(NamespaceRegistry::Options nopts = no_ticker(),
                           std::size_t workers = 2) {
    core::MpcbfConfig cfg;
    cfg.memory_bits = 1 << 18;
    cfg.expected_n = 4096;
    default_filter = std::make_shared<core::Mpcbf<64>>(cfg);
    registry = std::make_shared<NamespaceRegistry>(std::move(nopts));
    Server::Options opts;
    opts.workers = workers;
    server = std::make_unique<Server>(make_backend(default_filter), opts);
    server->set_namespace_registry(registry);
    server->start();
  }
  ~NamespaceServer() { server->stop(); }

  [[nodiscard]] Client client(std::string ns = {}) const {
    Client::Options copts;
    copts.port = server->port();
    Client c(copts);
    if (!ns.empty()) c.set_namespace(std::move(ns));
    return c;
  }
};

/// A standalone single-filter server sized to one namespace's wire
/// config — the parity baseline.
struct StandaloneServer {
  std::shared_ptr<core::Mpcbf<64>> filter;
  std::unique_ptr<Server> server;

  explicit StandaloneServer(const NsConfigWire& cfg) {
    filter = std::make_shared<core::Mpcbf<64>>(ns_equiv_config(cfg));
    Server::Options opts;
    opts.workers = 2;
    server = std::make_unique<Server>(make_backend(filter), opts);
    server->start();
  }
  ~StandaloneServer() { server->stop(); }

  [[nodiscard]] Client client() const {
    Client::Options copts;
    copts.port = server->port();
    return Client(copts);
  }
};

ErrorCode code_of(const std::function<void()>& fn) {
  try {
    fn();
  } catch (const RemoteError& e) {
    return e.code();
  }
  ADD_FAILURE() << "expected a RemoteError";
  return ErrorCode::kInternal;
}

// --- registry unit tests --------------------------------------------------

TEST(NamespaceRegistryTest, CreateValidatesNamesKindsAndShapes) {
  NamespaceRegistry reg(no_ticker());
  ErrorCode code = ErrorCode::kInternal;

  EXPECT_FALSE(reg.create("", memory_ns(), code).empty());
  EXPECT_EQ(code, ErrorCode::kBadRequest);
  EXPECT_FALSE(reg.create("bad name!", memory_ns(), code).empty());
  EXPECT_EQ(code, ErrorCode::kBadRequest);
  EXPECT_FALSE(
      reg.create(std::string(kMaxNamespaceLen + 1, 'a'), memory_ns(), code)
          .empty());

  NsConfigWire bad_kind = memory_ns();
  bad_kind.kind = 17;
  EXPECT_FALSE(reg.create("a", bad_kind, code).empty());
  EXPECT_EQ(code, ErrorCode::kBadRequest);

  NsConfigWire gens_on_memory = memory_ns();
  gens_on_memory.decay_generations = 4;
  EXPECT_FALSE(reg.create("a", gens_on_memory, code).empty());

  NsConfigWire interval_on_memory = memory_ns();
  interval_on_memory.tick_interval_ms = 100;
  EXPECT_FALSE(reg.create("a", interval_on_memory, code).empty());

  EXPECT_FALSE(reg.create("a", decay_ns(1), code).empty());
  EXPECT_EQ(code, ErrorCode::kBadRequest);

  NsConfigWire zero_bits = memory_ns(0);
  EXPECT_FALSE(reg.create("a", zero_bits, code).empty());

  // Durable kinds need a root directory; this registry has none.
  NsConfigWire durable = memory_ns();
  durable.kind = static_cast<std::uint8_t>(NsKind::kDurable);
  EXPECT_FALSE(reg.create("a", durable, code).empty());
  EXPECT_EQ(code, ErrorCode::kUnsupported);

  // Nothing registered by any of the rejections.
  EXPECT_EQ(reg.size(), 0u);
  EXPECT_TRUE(reg.create("a", memory_ns(), code).empty());
  EXPECT_EQ(reg.size(), 1u);
}

TEST(NamespaceRegistryTest, DuplicateAndCountCapRejected) {
  NamespaceRegistry::Options opts = no_ticker();
  opts.max_namespaces = 2;
  NamespaceRegistry reg(std::move(opts));
  ErrorCode code = ErrorCode::kInternal;

  EXPECT_TRUE(reg.create("a", memory_ns(), code).empty());
  EXPECT_FALSE(reg.create("a", memory_ns(), code).empty());
  EXPECT_EQ(code, ErrorCode::kNamespaceExists);

  EXPECT_TRUE(reg.create("b", memory_ns(), code).empty());
  EXPECT_FALSE(reg.create("c", memory_ns(), code).empty());
  EXPECT_EQ(code, ErrorCode::kQuotaExceeded);
  EXPECT_EQ(reg.size(), 2u);
}

TEST(NamespaceRegistryTest, MemoryQuotaEnforcedAgainstConfiguredFootprint) {
  NamespaceRegistry reg(no_ticker());
  ErrorCode code = ErrorCode::kInternal;

  // 4 generations of 2^18 bits = 4 * 32 KiB configured footprint.
  NsConfigWire cfg = decay_ns(4, 1 << 18);
  cfg.max_memory_bytes = 3 * (1 << 15);
  EXPECT_FALSE(reg.create("tight", cfg, code).empty());
  EXPECT_EQ(code, ErrorCode::kQuotaExceeded);

  cfg.max_memory_bytes = 4 * (1 << 15);
  EXPECT_TRUE(reg.create("tight", cfg, code).empty());
}

TEST(NamespaceRegistryTest, DropRemovesDurableDirectory) {
  const fs::path root = fresh_dir("drop_removes_dir");
  NamespaceRegistry reg(no_ticker(root.string()));
  ErrorCode code = ErrorCode::kInternal;

  NsConfigWire cfg = memory_ns();
  cfg.kind = static_cast<std::uint8_t>(NsKind::kDurable);
  ASSERT_TRUE(reg.create("tenant", cfg, code).empty());
  EXPECT_TRUE(fs::is_directory(root / "ns-tenant"));
  ASSERT_NE(reg.resolve("tenant"), nullptr);

  ASSERT_TRUE(reg.drop("tenant", code).empty());
  EXPECT_FALSE(fs::exists(root / "ns-tenant"));
  EXPECT_EQ(reg.resolve("tenant"), nullptr);

  EXPECT_FALSE(reg.drop("tenant", code).empty());
  EXPECT_EQ(code, ErrorCode::kUnknownNamespace);
}

TEST(NamespaceRegistryTest, ResolvedBackendSurvivesDrop) {
  NamespaceRegistry reg(no_ticker());
  ErrorCode code = ErrorCode::kInternal;
  ASSERT_TRUE(reg.create("tenant", memory_ns(), code).empty());

  const auto backend = reg.resolve("tenant");
  ASSERT_NE(backend, nullptr);
  ASSERT_TRUE(reg.drop("tenant", code).empty());

  // An in-flight request's pinned backend keeps serving after the drop.
  const std::vector<std::string_view> keys = {"alpha", "beta"};
  std::vector<std::uint8_t> ok(keys.size(), 0);
  backend->insert_batch(keys, ok);
  std::vector<std::uint8_t> verdicts(keys.size(), 0);
  backend->contains_batch(keys, verdicts);
  EXPECT_EQ(verdicts[0], 1);
  EXPECT_EQ(verdicts[1], 1);
}

TEST(NamespaceRegistryTest, TickSemanticsPerKind) {
  NamespaceRegistry reg(no_ticker());
  ErrorCode code = ErrorCode::kInternal;
  std::uint64_t ticks = 0;

  ASSERT_TRUE(reg.create("plain", memory_ns(), code).empty());
  ASSERT_TRUE(reg.create("window", decay_ns(3), code).empty());

  EXPECT_FALSE(reg.tick("missing", ticks, code).empty());
  EXPECT_EQ(code, ErrorCode::kUnknownNamespace);

  EXPECT_FALSE(reg.tick("plain", ticks, code).empty());
  EXPECT_EQ(code, ErrorCode::kUnsupported);

  EXPECT_TRUE(reg.tick("window", ticks, code).empty());
  EXPECT_EQ(ticks, 1u);
  EXPECT_TRUE(reg.tick("window", ticks, code).empty());
  EXPECT_EQ(ticks, 2u);

  for (const auto& row : reg.list()) {
    if (row.name == "window") {
      EXPECT_EQ(row.info.decay_ticks, 2u);
    }
    if (row.name == "plain") {
      EXPECT_EQ(row.info.decay_ticks, 0u);
    }
  }
}

TEST(NamespaceRegistryTest, AutomaticTickFiresAfterInterval) {
  NamespaceRegistry reg(no_ticker());
  ErrorCode code = ErrorCode::kInternal;

  NsConfigWire cfg = decay_ns(3);
  cfg.tick_interval_ms = 1;
  ASSERT_TRUE(reg.create("auto", cfg, code).empty());
  ASSERT_TRUE(reg.create("manual", decay_ns(3), code).empty());

  // Fresh namespaces start with a full interval ahead of them.
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  EXPECT_EQ(reg.tick_elapsed(), 1u);  // only "auto" has an interval
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  EXPECT_EQ(reg.tick_elapsed(), 1u);

  for (const auto& row : reg.list()) {
    if (row.name == "auto") {
      EXPECT_EQ(row.info.decay_ticks, 2u);
    }
    if (row.name == "manual") {
      EXPECT_EQ(row.info.decay_ticks, 0u);
    }
  }
}

TEST(NamespaceRegistryTest, QuotaGateAdmitsExactlyUpToMaxKeys) {
  NamespaceRegistry reg(no_ticker());
  ErrorCode code = ErrorCode::kInternal;
  NsConfigWire cfg = memory_ns();
  cfg.max_keys = 10;
  ASSERT_TRUE(reg.create("bounded", cfg, code).empty());
  const auto backend = reg.resolve("bounded");
  ASSERT_NE(backend, nullptr);
  ASSERT_TRUE(static_cast<bool>(backend->admit));

  EXPECT_EQ(backend->admit(10), nullptr);
  EXPECT_NE(backend->admit(11), nullptr);

  const auto keys = make_keys(10, 7);
  std::vector<std::string_view> views(keys.begin(), keys.end());
  std::vector<std::uint8_t> ok(keys.size(), 0);
  backend->insert_batch(views, ok);

  EXPECT_NE(backend->admit(1), nullptr);  // 10 resident + 1 > 10
  for (const auto& row : reg.list()) {
    if (row.name == "bounded") {
      EXPECT_EQ(row.info.elements, 10u);
      EXPECT_EQ(row.info.quota_rejections, 2u);
    }
  }
}

// --- wire-level tests -----------------------------------------------------

TEST(NamespaceWireTest, VerdictParityAgainstStandaloneServers) {
  // The ISSUE acceptance criterion: one mpcbfd serving two
  // independently-configured namespaces answers byte-identically to two
  // standalone servers, each built from the same wire config.
  const NsConfigWire sessions_cfg = memory_ns(1 << 18, 4096);
  const NsConfigWire urls_cfg = memory_ns(1 << 19, 8192);

  NamespaceServer multi;
  {
    Client admin = multi.client();
    admin.ns_create("sessions", sessions_cfg);
    admin.ns_create("urls", urls_cfg);
  }
  StandaloneServer sessions_alone(sessions_cfg);
  StandaloneServer urls_alone(urls_cfg);

  const auto session_keys = make_keys(512, 11);
  const auto url_keys = make_keys(512, 22);
  auto probes = make_keys(512, 33);  // disjoint: mostly negative
  probes.insert(probes.end(), session_keys.begin(), session_keys.end());
  probes.insert(probes.end(), url_keys.begin(), url_keys.end());

  Client ns_sessions = multi.client("sessions");
  Client ns_urls = multi.client("urls");
  Client ref_sessions = sessions_alone.client();
  Client ref_urls = urls_alone.client();

  (void)ns_sessions.insert(session_keys);
  (void)ref_sessions.insert(session_keys);
  (void)ns_urls.insert(url_keys);
  (void)ref_urls.insert(url_keys);

  const auto got_sessions = ns_sessions.query(probes);
  const auto want_sessions = ref_sessions.query(probes);
  const auto got_urls = ns_urls.query(probes);
  const auto want_urls = ref_urls.query(probes);
  ASSERT_EQ(got_sessions.size(), probes.size());
  ASSERT_EQ(got_urls.size(), probes.size());
  for (std::size_t i = 0; i < probes.size(); ++i) {
    EXPECT_EQ(got_sessions[i], want_sessions[i]) << "key " << probes[i];
    EXPECT_EQ(got_urls[i], want_urls[i]) << "key " << probes[i];
  }

  // EST_COUNT parity on the same probe set.
  const auto got_counts = ns_sessions.est_count(probes);
  const auto want_counts = ref_sessions.est_count(probes);
  ASSERT_EQ(got_counts.size(), probes.size());
  for (std::size_t i = 0; i < probes.size(); ++i) {
    EXPECT_EQ(got_counts[i], want_counts[i]) << "key " << probes[i];
  }

  // Tenant isolation: every session key inserted only into "sessions"
  // must not leak a guaranteed positive into "urls" (an FP-rate worth
  // of collisions is possible; full overlap is not).
  const auto cross = ns_urls.query(session_keys);
  std::size_t cross_positives = 0;
  for (const auto v : cross) cross_positives += v;
  EXPECT_LT(cross_positives, session_keys.size() / 4);
}

TEST(NamespaceWireTest, QuotaExhaustionIsCleanAndIsolated) {
  NamespaceServer multi;
  {
    Client admin = multi.client();
    NsConfigWire bounded = memory_ns();
    bounded.max_keys = 100;
    admin.ns_create("bounded", bounded);
    admin.ns_create("open", memory_ns());
  }

  Client bounded = multi.client("bounded");
  Client open = multi.client("open");

  const auto first = make_keys(100, 1);
  auto ok = bounded.insert(first);
  for (const auto v : ok) EXPECT_EQ(v, 1);

  // The over-quota batch is rejected whole: clean error, nothing
  // applied, and the namespace keeps serving queries.
  const auto more = make_keys(64, 2);
  EXPECT_EQ(code_of([&] { (void)bounded.insert(more); }),
            ErrorCode::kQuotaExceeded);
  auto verdicts = bounded.query(first);
  for (const auto v : verdicts) EXPECT_EQ(v, 1);
  verdicts = bounded.query(more);
  std::size_t applied = 0;
  for (const auto v : verdicts) applied += v;
  EXPECT_LT(applied, more.size() / 4);  // FP noise at most, not inserts

  // The sibling tenant never notices.
  ok = open.insert(more);
  for (const auto v : ok) EXPECT_EQ(v, 1);
  verdicts = open.query(more);
  for (const auto v : verdicts) EXPECT_EQ(v, 1);

  Client admin = multi.client();
  for (const auto& row : admin.ns_list()) {
    if (row.name == "bounded") {
      EXPECT_EQ(row.info.elements, 100u);
      EXPECT_GE(row.info.quota_rejections, 1u);
    }
    if (row.name == "open") {
      EXPECT_EQ(row.info.quota_rejections, 0u);
    }
  }
}

TEST(NamespaceWireTest, DecayTickOverWireAgesOutInserts) {
  NamespaceServer multi;
  Client admin = multi.client();
  admin.ns_create("window", decay_ns(3));

  Client c = multi.client("window");
  const auto keys = make_keys(64, 5);
  (void)c.insert(keys);
  auto verdicts = c.query(keys);
  for (const auto v : verdicts) EXPECT_EQ(v, 1);

  // generations=3: entries survive the first two rotations, not three.
  EXPECT_EQ(admin.ns_tick("window"), 1u);
  EXPECT_EQ(admin.ns_tick("window"), 2u);
  verdicts = c.query(keys);
  for (const auto v : verdicts) EXPECT_EQ(v, 1);
  EXPECT_EQ(admin.ns_tick("window"), 3u);
  verdicts = c.query(keys);
  for (const auto v : verdicts) EXPECT_EQ(v, 0);
}

TEST(NamespaceWireTest, AdminErrorsMapToWireCodes) {
  NamespaceServer multi;
  Client admin = multi.client();
  admin.ns_create("plain", memory_ns());

  EXPECT_EQ(code_of([&] { admin.ns_create("plain", memory_ns()); }),
            ErrorCode::kNamespaceExists);
  EXPECT_EQ(code_of([&] { admin.ns_drop("missing"); }),
            ErrorCode::kUnknownNamespace);
  EXPECT_EQ(code_of([&] { (void)admin.ns_tick("plain"); }),
            ErrorCode::kUnsupported);

  Client lost = multi.client("missing");
  const auto keys = make_keys(4, 9);
  EXPECT_EQ(code_of([&] { (void)lost.query(keys); }),
            ErrorCode::kUnknownNamespace);

  // Dropping a live namespace invalidates its name on the wire.
  admin.ns_drop("plain");
  Client gone = multi.client("plain");
  EXPECT_EQ(code_of([&] { (void)gone.query(keys); }),
            ErrorCode::kUnknownNamespace);
}

TEST(NamespaceWireTest, ServerWithoutRegistryRejectsNamespaces) {
  core::MpcbfConfig cfg;
  cfg.memory_bits = 1 << 18;
  cfg.expected_n = 4096;
  auto filter = std::make_shared<core::Mpcbf<64>>(cfg);
  Server::Options opts;
  opts.workers = 2;
  Server server(make_backend(filter), opts);
  server.start();

  Client::Options copts;
  copts.port = server.port();
  Client c(copts);
  c.set_namespace("tenant");
  const auto keys = make_keys(4, 3);
  EXPECT_EQ(code_of([&] { (void)c.query(keys); }),
            ErrorCode::kUnsupported);

  Client admin(copts);
  EXPECT_EQ(code_of([&] { admin.ns_create("tenant", memory_ns()); }),
            ErrorCode::kUnsupported);
  EXPECT_EQ(code_of([&] { (void)admin.ns_list(); }),
            ErrorCode::kUnsupported);
  server.stop();
}

TEST(NamespaceWireTest, EstCountReportsMultiplicity) {
  NamespaceServer multi;
  Client admin = multi.client();
  admin.ns_create("counted", memory_ns());

  Client c = multi.client("counted");
  const auto keys = make_keys(32, 8);
  (void)c.insert(keys);
  (void)c.insert(keys);
  (void)c.insert(keys);

  const auto counts = c.est_count(keys);
  ASSERT_EQ(counts.size(), keys.size());
  // Counting-filter contract: never under the true multiplicity.
  for (const auto n : counts) EXPECT_GE(n, 3u);

  const auto absent = c.est_count(make_keys(32, 80));
  std::size_t positives = 0;
  for (const auto n : absent) positives += n > 0 ? 1 : 0;
  EXPECT_LT(positives, absent.size() / 4);
}

TEST(NamespaceWireTest, DurableDecayNamespaceRecoversAcrossRestart) {
  const fs::path root = fresh_dir("durable_decay_restart");
  NsConfigWire cfg = decay_ns(4);
  cfg.kind = static_cast<std::uint8_t>(NsKind::kDurableDecay);

  const auto keys = make_keys(128, 44);
  {
    NamespaceServer multi(no_ticker(root.string()));
    Client admin = multi.client();
    admin.ns_create("events", cfg);
    Client c = multi.client("events");
    (void)c.insert(keys);
    EXPECT_EQ(admin.ns_tick("events"), 1u);
  }

  // A new process re-registers the namespace over the same root; the
  // durable directory replays journal records — decay ticks included —
  // back to the pre-restart window.
  NamespaceServer multi(no_ticker(root.string()));
  Client admin = multi.client();
  admin.ns_create("events", cfg);
  for (const auto& row : admin.ns_list()) {
    if (row.name == "events") {
      EXPECT_EQ(row.info.decay_ticks, 1u);
      EXPECT_EQ(row.info.elements, keys.size());
    }
  }
  Client c = multi.client("events");
  const auto verdicts = c.query(keys);
  for (const auto v : verdicts) EXPECT_EQ(v, 1);
}

TEST(NamespaceWireTest, DurableDecayNamespaceServesReplication) {
  // A durable-decay namespace is a Durable<DecayingMpcbf>, so its backend
  // gets the replication hooks every durable kind has: REPLICATE streams
  // its journal (decay ticks included), SNAPFETCH serves its snapshot
  // image, which a decay-kind follower installs, and REPLSTATUS reports
  // its watermarks. A client scoped to the namespace reaches all three.
  const fs::path root = fresh_dir("durable_decay_replicate");
  NsConfigWire cfg = decay_ns(4);
  cfg.kind = static_cast<std::uint8_t>(NsKind::kDurableDecay);
  NamespaceServer multi(no_ticker(root.string()));
  Client admin = multi.client();
  admin.ns_create("events", cfg);
  Client c = multi.client("events");
  const auto keys = make_keys(16, 45);
  (void)c.insert(keys);
  EXPECT_EQ(admin.ns_tick("events"), 1u);

  ReplicateRequest req;
  req.follower_id = 7;
  req.from_seq = 1;
  std::vector<io::JournalRecord> records;
  const ReplicateInfo info = c.replicate(req, records);
  ASSERT_EQ(records.size(), keys.size() + 1);
  for (std::size_t i = 0; i < keys.size(); ++i) {
    EXPECT_EQ(records[i].op, io::JournalOp::kInsert);
    EXPECT_EQ(records[i].key, keys[i]);
  }
  EXPECT_EQ(records.back().op, io::JournalOp::kDecayTick);
  EXPECT_EQ(info.next_seq, keys.size() + 2);

  const ReplStatusReply status = c.repl_status();
  EXPECT_EQ(status.role, static_cast<std::uint8_t>(ReplRole::kPrimary));
  EXPECT_EQ(status.next_seq, keys.size() + 2);
  EXPECT_EQ(status.followers, 1u);  // follower 7, registered above

  SnapFetchRequest sreq;
  sreq.max_bytes = 1u << 20;
  std::string image;
  const SnapFetchInfo sinfo = c.snap_fetch(sreq, image);
  EXPECT_EQ(sinfo.watermark, keys.size() + 1);
  ASSERT_EQ(image.size(), sinfo.total_bytes);
  const fs::path follower_dir = fresh_dir("durable_decay_follower");
  core::DecayConfig dc;
  dc.generation = ns_equiv_config(cfg);
  dc.generations = cfg.decay_generations;
  core::DurableDecayingMpcbf<64> follower(follower_dir, dc);
  EXPECT_EQ(follower.install_snapshot(image), sinfo.watermark);
  EXPECT_EQ(follower.ticks(), 1u);
  for (const auto& k : keys) EXPECT_TRUE(follower.contains(k));

  // The in-memory default backend still has no journal to stream.
  EXPECT_EQ(code_of([&] { (void)admin.replicate(req, records); }),
            ErrorCode::kUnsupported);
  EXPECT_EQ(code_of([&] { (void)admin.repl_status(); }),
            ErrorCode::kUnsupported);
}

}  // namespace
