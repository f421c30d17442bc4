// serve-read and serve-write: a real `mpcbf_tool serve --workers 2` child
// process driven from this one thread over at most two loopback
// connections.
//
//   serve-read   in-memory 1 MiB filter (fits in L2); pipelined batch-64
//                QUERY frames, 50% present / 50% absent keys.
//   serve-write  the same filter behind `serve --dir` with the default
//                flush policy (flush_every=1, fsync on); batch-16 frames,
//                50% INSERT of new keys, 25% ERASE of the oldest live keys,
//                25% QUERY; ends with SIGKILL mid-stream, a restart, and a
//                check of every acknowledged, un-erased insert.
//
// Every reply is checked against the key generator's ground truth.
#include <algorithm>
#include <deque>
#include <filesystem>
#include <fstream>
#include <memory>
#include <poll.h>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <vector>

#include "common.hpp"
#include "core/durable_mpcbf.hpp"
#include "core/mpcbf.hpp"
#include "layers.hpp"
#include "metrics/registry.hpp"
#include "net/protocol.hpp"
#include "server_proc.hpp"
#include "wire.hpp"

namespace pb {

namespace {

namespace fs = std::filesystem;

constexpr std::size_t kBulkBatch = 1024;
constexpr int kBulkWindow = 4;
constexpr double kStallS = 20;

struct Params {
  bool write = false;
  std::size_t memory_bits = std::size_t{8} << 20;  // 1 MiB: fits in L2
  std::uint64_t preload = 1u << 17;               // one key per word
  int setups = 11;
  std::uint64_t fpr_probes = 1u << 22;
  int recover_cycles = 0;  // serve-write: crash/restart cycles
  std::size_t batch = 64;
  int window = 8;          // closed loop: frames in flight per connection
  double open_rate = 0;    // open loop: requests per second, both conns
  int crash_after = 0;     // serve-write: acked frames before SIGKILL
};

Params params(bool write, bool tiny) {
  Params p;
  p.write = write;
  if (write) {
    p.batch = 16;
    p.window = 4;
    p.open_rate = 100;
    p.recover_cycles = 11;
    p.crash_after = 100;
  } else {
    p.open_rate = 20000;
  }
  if (tiny) {
    p.preload = 1u << 13;
    p.setups = 2;
    p.fpr_probes = 1u << 15;
    p.recover_cycles = std::min(p.recover_cycles, 1);
    p.crash_after = 40;
  }
  return p;
}

core::MpcbfConfig filter_config(const Params& p) {
  // Mirrors mpcbf_tool serve's sizing flags (durable_config there).
  core::MpcbfConfig cfg;
  cfg.memory_bits = p.memory_bits;
  cfg.k = 3;
  cfg.g = 1;
  cfg.expected_n = p.preload;
  cfg.policy = core::OverflowPolicy::kStash;
  return cfg;
}

std::vector<std::string> serve_args(const Params& p, const std::string& dir) {
  std::vector<std::string> a = {
      "--memory-bits", std::to_string(p.memory_bits), "--k", "3", "--g", "1",
      "--expected-n", std::to_string(p.preload)};
  if (!dir.empty()) {
    a.push_back("--dir");
    a.push_back(dir);
  }
  return a;
}

/// Bulk-loads present keys [0, n) into a fresh durable directory and
/// publishes a snapshot, so the server starts from it (serve-write's
/// preload; fsync is off here because the server has not started yet).
void bulk_load_dir(const std::string& dir, const Params& p, const KeyGen& kg,
                   Record& rec) {
  fs::remove_all(dir);
  core::DurableMpcbf<64>::Options o;
  o.flush_every = std::size_t{1} << 40;
  o.fsync = false;
  core::DurableMpcbf<64> d(dir, filter_config(p), o);
  std::vector<std::string> keys(kBulkBatch);
  std::vector<std::uint8_t> ok(kBulkBatch);
  for (std::uint64_t i = 0; i < p.preload; i += kBulkBatch) {
    for (std::size_t j = 0; j < kBulkBatch; ++j) kg.present(i + j, keys[j]);
    d.insert_batch(std::span<const std::string>(keys), ok);
    for (auto v : ok) {
      if (v) rec.op();
      else rec.fail("bulk load insert refused");
    }
  }
  d.snapshot();
}

/// Key states for serve-write's bookkeeping (serve-read only uses kLive).
enum : std::uint8_t { kUnused, kInsertSent, kLive, kEraseSent, kErased };

/// The load generator: request mixes, in-flight bookkeeping, reply checks.
class Traffic {
 public:
  Traffic(const Params& p, const KeyGen& kg, std::uint64_t seed, Record& rec,
          Spans& spans)
      : p_(p), kg_(kg), rng_(seed), rec_(rec), spans_(spans) {}

  void connect(std::uint16_t port) {
    conns_.clear();
    for (int c = 0; c < 2; ++c) conns_.push_back(std::make_unique<Conn>(port));
  }

  /// After a crash: requests still in flight were never acknowledged, so
  /// their keys stay in an unknown state and are never checked or reused.
  void abandon() {
    pending_.clear();
    conns_.clear();
  }

  /// One QUERY of kBulkBatch absent keys on each connection and its
  /// reply, so that each of the server's two workers has just done more
  /// work than its acceptor did for the two connections.
  void touch() {
    keys_.resize(kBulkBatch);
    for (int c = 0; c < 2; ++c) {
      Pending q;
      q.conn = c;
      for (auto& k : keys_) {
        q.idx.push_back(0);
        q.truth.push_back(0);
        kg_.absent(rng_.below(KeyGen::kHeldOut), k);
      }
      send(next_id_++, std::move(q));
    }
    flush();
    while (!pending_.empty()) {
      pump(100, [](int, const Pending&, std::int64_t) {});
    }
  }

  /// Marks present keys [0, n) as live (loaded outside the wire).
  void mark_loaded(std::uint64_t n) {
    state_.assign(n, kLive);
    for (std::uint64_t i = 0; i < n; ++i) live_.push_back(i);
    next_insert_ = n;
  }

  /// Closed loop: `window` frames in flight per connection. Appends the
  /// keys completed and the length of each ~kWindowS window.
  void closed(double seconds, std::vector<double>& keys_w,
              std::vector<double>& secs_w) {
    double in_window = 0;
    const std::int64_t start = now_ns();
    const std::int64_t end = start + static_cast<std::int64_t>(seconds * 1e9);
    std::int64_t window_start = start;
    for (int c = 0; c < 2; ++c) {
      for (int w = 0; w < p_.window; ++w) issue_mix(c, start);
    }
    flush();
    while (!pending_.empty()) {
      pump(100, [&](int conn, const Pending& q, std::int64_t now) {
        if (now < end) {
          in_window += static_cast<double>(q.idx.size());
          issue_mix(conn, now);
        }
      });
      const std::int64_t now = now_ns();
      if (now < end &&
          now - window_start >= window_ns(seconds)) {
        keys_w.push_back(in_window);
        secs_w.push_back(static_cast<double>(now - window_start) * 1e-9);
        in_window = 0;
        window_start = now;
      }
    }
  }

  /// Open loop at p.open_rate requests/s for `seconds`: request i is due
  /// at start + i/rate whatever the replies do. Latency runs from the due
  /// time; lag is how late the generator actually sent.
  void open(double seconds, std::vector<double>& lat_us,
            std::vector<double>& lag_us) {
    const double interval = 1e9 / p_.open_rate;
    const std::int64_t start = now_ns();
    const std::int64_t end = start + static_cast<std::int64_t>(seconds * 1e9);
    std::uint64_t i = 0;
    std::int64_t due = start;
    auto on_reply = [&](int, const Pending& q, std::int64_t now) {
      lat_us.push_back(static_cast<double>(now - q.due) * 1e-3);
    };
    for (;;) {
      std::int64_t now = now_ns();
      while (due <= now && due < end) {
        issue_mix(static_cast<int>(i % 2), due);
        flush();
        lag_us.push_back(static_cast<double>(now - due) * 1e-3);
        ++i;
        due = start +
              static_cast<std::int64_t>(static_cast<double>(i) * interval);
        now = now_ns();
      }
      if (due >= end && pending_.empty()) break;
      // Sleep in poll until a millisecond before the next send, then spin.
      const std::int64_t wait_ms =
          due < end ? (due - now) / 1'000'000 - 1 : 100;
      pump(static_cast<int>(std::max<std::int64_t>(wait_ms, 0)), on_reply);
    }
  }

  /// Inserts present keys [lo, hi) (serve-read preload). `track` marks
  /// them live; a reload after a restart does not.
  void bulk_insert(std::uint64_t lo, std::uint64_t hi, bool track) {
    if (track) {
      state_.resize(std::max<std::uint64_t>(state_.size(), hi), kUnused);
      std::fill(state_.begin() + static_cast<std::ptrdiff_t>(lo),
                state_.begin() + static_cast<std::ptrdiff_t>(hi), kInsertSent);
      next_insert_ = std::max(next_insert_, hi);
    }
    bulk(hi - lo, [&](std::uint64_t i, Pending& q, std::string& key) {
      q.op = net::Opcode::kInsert;
      q.track = track;
      q.idx.push_back(lo + i);
      kg_.present(lo + i, key);
    });
  }

  /// Queries `n` held-out absent keys; returns how many answered positive.
  std::uint64_t probe_fpr(std::uint64_t n) {
    probe_positives_ = 0;
    bulk(n, [&](std::uint64_t i, Pending& q, std::string& key) {
      q.op = net::Opcode::kQuery;
      q.probe = true;
      q.idx.push_back(i);
      q.truth.push_back(0);
      kg_.absent(KeyGen::kHeldOut + i, key);
    });
    return probe_positives_;
  }

  /// Every acknowledged, un-erased insert must answer positive.
  void verify_live() {
    std::vector<std::uint64_t> must;
    for (std::uint64_t i = 0; i < state_.size(); ++i) {
      if (state_[i] == kLive) must.push_back(i);
    }
    bulk(must.size(), [&](std::uint64_t i, Pending& q, std::string& key) {
      q.op = net::Opcode::kQuery;
      q.idx.push_back(must[i]);
      q.truth.push_back(1);
      kg_.present(must[i], key);
    });
    verified += must.size();
  }

  /// serve-write's crash stream: the mixed closed loop until `frames`
  /// replies arrived; returns with requests still in flight.
  void until_acked(int frames) {
    int acked = 0;
    const std::int64_t now = now_ns();
    for (int c = 0; c < 2; ++c) {
      for (int w = 0; w < p_.window; ++w) issue_mix(c, now);
    }
    flush();
    while (acked < frames) {
      pump(100, [&](int conn, const Pending&, std::int64_t t) {
        if (++acked < frames) issue_mix(conn, t);
      });
    }
  }

  /// Sends a SNAPSHOT request and waits for its reply.
  void snapshot() {
    std::string frame;
    net::append_frame(frame, net::Opcode::kSnapshot, 0, next_id_++, {});
    Pending q;
    q.op = net::Opcode::kSnapshot;
    pending_.emplace(next_id_ - 1, std::move(q));
    conns_[0]->queue(frame);
    flush();
    while (!pending_.empty()) {
      pump(100, [](int, const Pending&, std::int64_t) {});
    }
  }

  [[nodiscard]] std::uint64_t bytes() const {
    std::uint64_t b = 0;
    for (const auto& c : conns_) b += c->bytes_sent + c->bytes_recv;
    return b;
  }
  std::uint64_t keys_done = 0;
  std::uint64_t mutated = 0;
  std::uint64_t verified = 0;

 private:
  struct Pending {
    net::Opcode op = net::Opcode::kQuery;
    int conn = 0;
    bool probe = false;
    bool track = true;
    std::int64_t due = 0;
    std::int64_t span = -1;
    std::vector<std::uint64_t> idx;   // key index per key
    std::vector<std::uint8_t> truth;  // QUERY: 1 if key j is present
  };

  /// Builds and sends one request of the workload mix on `conn`.
  void issue_mix(int conn, std::int64_t due) {
    const std::uint64_t id = next_id_++;
    Pending q;
    q.conn = conn;
    q.due = due;
    q.span = spans_.begin(Spans::kBatch, -1, id);
    {
      Span s(spans_, Spans::kKeygen, q.span, id);
      keys_.resize(p_.batch);
      const std::uint64_t slot = mix_count_++ % 4;
      if (p_.write && slot < 2) {
        q.op = net::Opcode::kInsert;
        for (auto& k : keys_) {
          const std::uint64_t i = next_insert_++;
          state_.push_back(kInsertSent);
          q.idx.push_back(i);
          kg_.present(i, k);
        }
      } else if (p_.write && slot == 2) {
        q.op = net::Opcode::kErase;
        for (auto& k : keys_) {
          const std::uint64_t i = live_.front();
          live_.pop_front();
          state_[i] = kEraseSent;
          q.idx.push_back(i);
          kg_.present(i, k);
        }
      } else {
        // Present keys come from the newer half of the live set, far from
        // the oldest keys that erases take, so no erase can race a query.
        q.op = net::Opcode::kQuery;
        const std::size_t lo = p_.write ? live_.size() / 2 : 0;
        for (std::size_t j = 0; j < keys_.size(); ++j) {
          if (j % 2 == 0) {
            const std::uint64_t i = live_[lo + rng_.below(live_.size() - lo)];
            q.idx.push_back(i);
            q.truth.push_back(1);
            kg_.present(i, keys_[j]);
          } else {
            q.idx.push_back(0);
            q.truth.push_back(0);
            kg_.absent(rng_.below(KeyGen::kHeldOut), keys_[j]);
          }
        }
      }
    }
    send(id, std::move(q));
  }

  template <class Fill>
  void bulk(std::uint64_t n, Fill&& fill) {
    std::uint64_t next = 0;
    auto issue = [&](int conn) {
      if (next >= n) return;
      const std::uint64_t id = next_id_++;
      Pending q;
      q.conn = conn;
      keys_.clear();
      for (std::size_t j = 0; j < kBulkBatch && next < n; ++j, ++next) {
        keys_.emplace_back();
        fill(next, q, keys_.back());
      }
      send(id, std::move(q));
    };
    for (int c = 0; c < 2; ++c) {
      for (int w = 0; w < kBulkWindow; ++w) issue(c);
    }
    flush();
    while (!pending_.empty()) {
      pump(100, [&](int conn, const Pending&, std::int64_t) { issue(conn); });
    }
  }

  void send(std::uint64_t id, Pending&& q) {
    {
      Span s(spans_, Spans::kEncode, q.span, id);
      views_.assign(keys_.begin(), keys_.end());
      payload_.clear();
      frame_.clear();
      net::append_key_batch(payload_,
                            std::span<const std::string_view>(views_));
      net::append_frame(frame_, q.op, 0, id, payload_);
    }
    const int conn = q.conn;
    if (pending_.empty()) last_reply_ = now_ns();
    pending_.emplace(id, std::move(q));
    conns_[static_cast<std::size_t>(conn)]->queue(frame_);
  }

  /// Writes every queued frame, one send per connection. The send span is
  /// a root span (one syscall may carry several requests).
  void flush() {
    for (auto& c : conns_) {
      const std::int64_t t0 = now_ns();
      if (c->flush()) spans_.add(Spans::kSend, -1, 0, t0, now_ns());
    }
  }

  /// Waits up to `timeout_ms` for replies and handles all that arrived;
  /// `done(conn, request, now)` runs after each checked reply.
  template <class Done>
  void pump(int timeout_ms, Done&& done) {
    pollfd fds[2];
    for (int c = 0; c < 2; ++c) {
      fds[c] = {conns_[static_cast<std::size_t>(c)]->fd(), POLLIN, 0};
    }
    const int n = ::poll(fds, 2, timeout_ms);
    if (n <= 0) {
      if (!pending_.empty() &&
          now_ns() - last_reply_ > static_cast<std::int64_t>(kStallS * 1e9)) {
        throw std::runtime_error("server stopped answering");
      }
      return;
    }
    for (int c = 0; c < 2; ++c) {
      if (!(fds[c].revents & (POLLIN | POLLHUP | POLLERR))) continue;
      Conn& conn = *conns_[static_cast<std::size_t>(c)];
      if (!conn.read_some()) {
        throw std::runtime_error("server closed a connection");
      }
      const std::int64_t now = now_ns();
      last_reply_ = now;
      for (;;) {
        const std::int64_t t0 = now_ns();
        net::Frame f;
        if (!conn.next_frame(f)) break;
        auto it = pending_.find(f.header.request_id);
        if (it == pending_.end()) {
          rec_.fail("reply to an unknown request id");
          continue;
        }
        Pending q = std::move(it->second);
        pending_.erase(it);
        const std::int64_t t1 = now_ns();
        check(q, f);
        const std::int64_t t2 = now_ns();
        spans_.add(Spans::kDecode, q.span, f.header.request_id, t0, t1);
        spans_.add(Spans::kCheck, q.span, f.header.request_id, t1, t2);
        spans_.end(q.span);
        done(c, q, now);
      }
    }
    flush();
  }

  void check(const Pending& q, const net::Frame& f) {
    const std::size_t n = q.idx.size();
    if (f.header.flags & net::kFlagError) {
      net::WireError e;
      const char* bad = net::parse_error(f.payload, e);
      for (std::size_t j = 0; j < std::max<std::size_t>(n, 1); ++j) {
        rec_.fail(std::string("error reply: ") + (bad ? bad : e.message));
      }
      return;
    }
    if (q.op == net::Opcode::kSnapshot) {
      rec_.op();
      return;
    }
    if (const char* bad = net::parse_verdicts(f.payload, verdicts_);
        bad != nullptr || verdicts_.size() != n) {
      for (std::size_t j = 0; j < n; ++j) rec_.fail("malformed verdicts");
      return;
    }
    keys_done += n;
    for (std::size_t j = 0; j < n; ++j) {
      const bool v = verdicts_[j] != 0;
      const std::uint64_t i = q.idx[j];
      if (q.op == net::Opcode::kQuery) {
        if (q.truth[j] && !v) {
          rec_.fail("false negative");
          continue;
        }
        if (!q.truth[j] && v && q.probe) ++probe_positives_;
      } else if (!v) {
        rec_.fail(q.op == net::Opcode::kInsert ? "insert refused"
                                               : "erase refused");
        continue;
      } else if (q.op == net::Opcode::kInsert && q.track) {
        if (i < state_.size() && state_[i] == kInsertSent) {
          state_[i] = kLive;
          live_.push_back(i);
          ++mutated;
        }
      } else if (q.op == net::Opcode::kErase) {
        state_[i] = kErased;
        ++mutated;
      }
      rec_.op();
    }
  }

  const Params& p_;
  const KeyGen& kg_;
  Rng rng_;
  Record& rec_;
  Spans& spans_;
  std::vector<std::unique_ptr<Conn>> conns_;
  std::unordered_map<std::uint64_t, Pending> pending_;
  std::vector<std::uint8_t> state_;   // per present-key index
  std::deque<std::uint64_t> live_;    // acknowledged live keys, oldest first
  std::uint64_t next_insert_ = 0;
  std::uint64_t next_id_ = 1;
  std::uint64_t mix_count_ = 0;
  std::uint64_t probe_positives_ = 0;
  std::int64_t last_reply_ = now_ns();
  std::vector<std::string> keys_;
  std::vector<std::string_view> views_;
  std::vector<std::uint8_t> verdicts_;
  std::string payload_, frame_;
};

void scrape(ServerProc& s, const std::string& path) {
  std::ofstream os(path, std::ios::trunc);
  os << http_get(s.admin_port(), "/metrics");
}

double wal_bytes(const std::string& dir) {
  std::error_code ec;
  const auto n = fs::file_size(fs::path(dir) / "journal.wal", ec);
  return ec ? 0.0 : static_cast<double>(n);
}

/// In-process durable recovery timings on the crashed directory: the
/// newest snapshot alone (copied aside), then snapshot + journal replay.
void time_durable_recovery(const std::string& dir, const std::string& scratch,
                           Record& rec) {
  fs::remove_all(scratch);
  fs::create_directories(scratch);
  for (const auto& e : fs::directory_iterator(dir)) {
    if (e.path().filename().string().rfind("snapshot-", 0) == 0) {
      fs::copy_file(e.path(), fs::path(scratch) / e.path().filename());
    }
  }
  // Alternating repetitions; medians keep the small replay share
  // readable next to the snapshot load.
  std::vector<double> snap_s, full_s;
  for (int r = 0; r < 7; ++r) {
    std::int64_t t0 = now_ns();
    keep(core::DurableMpcbf<64>::recover(scratch));
    snap_s.push_back(seconds_since(t0));
    t0 = now_ns();
    keep(core::DurableMpcbf<64>::recover(dir));
    full_s.push_back(seconds_since(t0));
  }
  std::sort(snap_s.begin(), snap_s.end());
  std::sort(full_s.begin(), full_s.end());
  rec.num("durable_snapshot_load_s", snap_s[snap_s.size() / 2]);
  rec.num("durable_recover_s", full_s[full_s.size() / 2]);
  fs::remove_all(scratch);
}

/// io/journal and core/durable_mpcbf, timed in process (serve-read's
/// traced run; serve-write takes the same figures from its server): a
/// DurableMpcbf with the server's filter and the default flush policy
/// (flush_every=1, fsync on) in a scratch directory, a stream of batch-16
/// inserts of new keys and erases of the oldest, then recovery. Writes the
/// fields and registry dumps that run.py's durable_layers() reads.
void measure_durable(const Params& p, const KeyGen& kg, const std::string& out,
                     Record& rec) {
  constexpr std::size_t kBatch = 16;
  constexpr int kFrames = 64;  // 2 of 3 insert, 1 of 3 erase
  const std::string dir = out + "/durable-layer";
  auto dump = [&](const std::string& name) {
    std::ofstream os(out + "/registry-" + name + ".txt", std::ios::trunc);
    metrics::Registry::global().write_prometheus(os);
  };
  bulk_load_dir(dir, p, kg, rec);
  const double wal0 = wal_bytes(dir);
  std::uint64_t mutated = 0;
  {
    core::DurableMpcbf<64> d(dir, filter_config(p));
    dump("start");
    std::vector<std::string> keys(kBatch);
    std::vector<std::uint8_t> ok(kBatch);
    std::uint64_t next = p.preload, oldest = 0;
    for (int f = 0; f < kFrames; ++f) {
      const bool erase = f % 3 == 2;
      for (auto& k : keys) kg.present(erase ? oldest++ : next++, k);
      if (erase) {
        for (std::size_t j = 0; j < kBatch; ++j) ok[j] = d.erase(keys[j]);
      } else {
        d.insert_batch(std::span<const std::string>(keys), ok);
      }
      for (auto v : ok) {
        if (v) rec.op();
        else rec.fail(erase ? "durable erase refused"
                            : "durable insert refused");
      }
      mutated += kBatch;
    }
    dump("open");
  }
  rec.num("wal_bytes_delta", wal_bytes(dir) - wal0);
  rec.num("phase_mutated_keys", mutated);
  keep(core::DurableMpcbf<64>::recover(dir));
  dump("recovered");
  time_durable_recovery(dir, out + "/snapshot-only", rec);
  fs::remove_all(dir);
}

}  // namespace

int run_served(const RunConfig& cfg, Record& rec) {
  const bool write = cfg.workload == "serve-write";
  Params p = params(write, cfg.tiny);
  if (cfg.trace) {
    p.setups = 1;
    p.recover_cycles = std::min(p.recover_cycles, 1);
  }
  const KeyGen kg(cfg.seed);
  Spans spans(cfg.trace);
  spans.set_enabled(false);
  const std::string dir = write ? cfg.out_dir + "/durable" : "";
  cpu_set_t server_cpus;
  if (!pin_split(server_cpus)) {
    ::sched_getaffinity(0, sizeof server_cpus, &server_cpus);
  }
  ServerProc server(cfg.tool, serve_args(p, dir), cfg.out_dir, server_cpus);
  std::unique_ptr<Traffic> traffic;

  // Set-up: (serve-write: bulk-load a durable dir) + server start +
  // readiness + worker pinning + (serve-read: preload over the wire).
  // Half the set-ups run before the timed phases and the rest after
  // them, so that their median samples the host at both ends of the run.
  std::vector<double> setup_s;
  bool pinned = true;
  auto set_up = [&] {
    server.kill9();
    traffic = std::make_unique<Traffic>(p, kg, cfg.seed, rec, spans);
    const std::int64_t t0 = now_ns();
    if (write) bulk_load_dir(dir, p, kg, rec);
    traffic->connect(server.start());
    const auto before = server.thread_times();
    traffic->touch();
    pinned = server.pin_workers(before) && pinned;
    if (write) {
      traffic->mark_loaded(p.preload);
    } else {
      traffic->bulk_insert(0, p.preload, true);
    }
    setup_s.push_back(seconds_since(t0));
  };
  const int setups_first = (p.setups + 1) / 2;
  for (int s = 0; s < setups_first; ++s) set_up();

  const std::uint64_t positives = traffic->probe_fpr(p.fpr_probes);
  rec.num("fpr", static_cast<double>(positives) /
                     static_cast<double>(p.fpr_probes));
  rec.num("fpr_probe_positives", positives);

  // Timed phases, with /metrics scraped around each.
  scrape(server, cfg.out_dir + "/metrics-start.txt");
  const double wal0 = wal_bytes(dir);
  const std::uint64_t bytes0 = traffic->bytes();
  const std::uint64_t keys0 = traffic->keys_done;
  const std::uint64_t mutated0 = traffic->mutated;
  std::vector<double> keys_w, secs_w;
  if (cfg.trace) {
    // Untraced and traced segments alternate; their difference is the
    // tracing overhead.
    std::vector<double> keys_u, secs_u;
    for (int i = 0; i < kTraceSegments; ++i) {
      traffic->closed(cfg.seconds / (3 * kTraceSegments), keys_u, secs_u);
      spans.set_enabled(true);
      traffic->closed(cfg.seconds / (3 * kTraceSegments), keys_w, secs_w);
      spans.set_enabled(false);
    }
    rec.list("windows_untraced", keys_u);
    rec.list("window_secs_untraced", secs_u);
  } else {
    traffic->closed(cfg.seconds * 3 / 4, keys_w, secs_w);
  }
  rec.list("windows", keys_w);
  rec.list("window_secs", secs_w);
  scrape(server, cfg.out_dir + "/metrics-closed.txt");
  std::vector<double> lat_us, lag_us;
  traffic->open(cfg.seconds / (cfg.trace ? 3 : 4), lat_us, lag_us);
  scrape(server, cfg.out_dir + "/metrics-open.txt");
  write_samples(cfg.out_dir + "/lat_us.bin", lat_us);
  write_samples(cfg.out_dir + "/lag_us.bin", lag_us);
  rec.num("phase_bytes", static_cast<double>(traffic->bytes() - bytes0));
  rec.num("phase_keys", static_cast<double>(traffic->keys_done - keys0));
  if (write) {
    rec.num("wal_bytes_delta", wal_bytes(dir) - wal0);
    rec.num("phase_mutated_keys",
            static_cast<double>(traffic->mutated - mutated0));
  }
  rec.num("peak_rss_kb", vm_hwm_kb(server.pid()));
  if (cfg.trace) spans.write_csv(cfg.out_dir + "/spans.csv");

  if (write) {
    // Recovery: snapshot (so each cycle replays the same amount of
    // journal), write stream, SIGKILL mid-stream, restart until the data
    // port accepts, then check every acknowledged, un-erased insert.
    std::vector<double> recover_s;
    for (int c = 0; c < p.recover_cycles; ++c) {
      traffic->snapshot();
      traffic->until_acked(p.crash_after);
      server.kill9();
      traffic->abandon();
      if (cfg.trace) {
        time_durable_recovery(dir, cfg.out_dir + "/snapshot-only", rec);
      }
      const std::int64_t t0 = now_ns();
      traffic->connect(server.start());
      recover_s.push_back(seconds_since(t0));
      if (c == 0) scrape(server, cfg.out_dir + "/metrics-recovered.txt");
      traffic->verify_live();
    }
    rec.list("recover_s", recover_s);
  } else {
    traffic->verify_live();
  }
  rec.num("verified_live_keys", traffic->verified);
  for (int s = setups_first; s < p.setups; ++s) set_up();
  rec.list("setup_s", setup_s);
  rec.num("workers_pinned", pinned ? 1.0 : 0.0);

  if (cfg.trace) {
    // Layer timings on an in-process replica of the server's filter
    // (same config, same preload); `serve` does not export filter stats.
    core::Mpcbf<64> replica(filter_config(p));
    std::vector<std::string> keys(p.batch);
    std::vector<std::uint8_t> ok(p.batch);
    for (std::uint64_t i = 0; i < p.preload; i += p.batch) {
      for (std::size_t j = 0; j < p.batch; ++j) kg.present(i + j, keys[j]);
      replica.insert_batch(std::span<const std::string>(keys), ok);
    }
    measure_layers(replica, kg, 0, p.preload, p.batch, rec);
    if (!write) measure_durable(p, kg, cfg.out_dir, rec);
  }

  traffic->abandon();
  if (!server.stop()) rec.fail("server did not exit cleanly on SIGTERM");
  return rec.failed() == 0 ? 0 : 1;
}

}  // namespace pb
