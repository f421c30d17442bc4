#include "net/client.hpp"

#include <random>
#include <thread>

#include "common/rng.hpp"
#include "trace/trace.hpp"

namespace mpcbf::net {

void Client::connect() {
  if (sock_.valid()) return;
  const auto deadline =
      std::chrono::steady_clock::now() + options_.connect_deadline;
  Backoff backoff(options_.initial_backoff, options_.max_backoff,
                  options_.backoff_seed);
  NetError last("connect: no attempts made");
  for (;;) {
    try {
      sock_ = connect_tcp(options_.host, options_.port,
                          options_.io_timeout);
      return;
    } catch (const NetError& e) {
      last = e;
    }
    const auto now = std::chrono::steady_clock::now();
    if (now >= deadline) throw last;
    // Jittered exponential spacing, clipped to the remaining budget —
    // the deadline is a hard ceiling, not a hint.
    const auto delay = std::min(
        backoff.next(), std::chrono::duration_cast<std::chrono::milliseconds>(
                            deadline - now));
    std::this_thread::sleep_for(delay);
  }
}

std::uint64_t Client::next_trace_id() noexcept {
  if (trace_state_ == 0) {
    trace_state_ = options_.trace_seed != 0 ? options_.trace_seed
                                            : Backoff::entropy_seed();
  }
  trace_state_ += 0x9E3779B97F4A7C15ull;  // SplitMix64 stream increment
  const std::uint64_t id = util::SplitMix64::mix(trace_state_);
  return id != 0 ? id : 1;
}

std::string Client::round_trip(Opcode op, std::string_view payload,
                               std::uint8_t flags,
                               std::uint64_t trace_id) {
  MPCBF_TRACE_SPAN(span, kNet, "client.round_trip");
  connect();
  const std::uint64_t id = next_id_++;
  if (trace_id == 0 && options_.stamp_trace_ids) {
    trace_id = next_trace_id();
  }
  sendbuf_.clear();
  if (trace_id != 0) {
    // The trace id rides as the first payload bytes under kFlagTraced;
    // the server strips it before parsing the real payload.
    last_trace_id_ = trace_id;
    span.set_trace_id(trace_id);
    tracebuf_.clear();
    append_trace_prefix(tracebuf_, TracePrefix{trace_id});
    tracebuf_.append(payload);
    append_frame(sendbuf_, op, flags | kFlagTraced, id, tracebuf_);
  } else {
    append_frame(sendbuf_, op, flags, id, payload);
  }
  try {
    write_all(sock_.fd(), sendbuf_.data(), sendbuf_.size());
    recvbuf_.clear();
    for (;;) {
      const DecodeResult r = decode_frame(recvbuf_);
      if (r.status == DecodeStatus::kError) {
        close();
        throw NetError(std::string("response frame: ") + r.error);
      }
      if (r.status == DecodeStatus::kFrame) {
        const FrameHeader& h = r.frame.header;
        if ((h.flags & kFlagResponse) == 0 || h.request_id != id ||
            h.opcode != static_cast<std::uint8_t>(op)) {
          close();
          throw NetError("response frame does not match request");
        }
        if ((h.flags & kFlagError) != 0) {
          WireError we;
          if (const char* err = parse_error(r.frame.payload, we);
              err != nullptr) {
            close();
            throw NetError(err);
          }
          // The connection stays usable after a server-side error
          // reply; only the operation failed.
          throw RemoteError(we.code, we.message);
        }
        return std::string(r.frame.payload);
      }
      char chunk[16 * 1024];
      const std::ptrdiff_t n = read_some(sock_.fd(), chunk, sizeof chunk);
      if (n == 0) {
        close();
        throw NetError("server closed the connection mid-response");
      }
      if (n < 0) {
        close();
        throw NetError("response timed out");
      }
      recvbuf_.append(chunk, static_cast<std::size_t>(n));
    }
  } catch (const RemoteError&) {
    throw;
  } catch (const NetError&) {
    close();  // transport state is unknown; force a reconnect
    throw;
  }
}

std::string Client::scoped_payload(std::uint8_t& flags) const {
  std::string payload;
  if (!ns_.empty()) {
    append_ns_prefix(payload, ns_);
    flags |= kFlagNamespaced;
  }
  return payload;
}

template <typename Key>
std::vector<std::uint8_t> Client::batch_op(Opcode op,
                                           std::span<const Key> keys) {
  std::uint8_t flags = 0;
  std::string payload = scoped_payload(flags);
  append_key_batch(payload, keys);
  const std::string reply = round_trip(op, payload, flags);
  std::vector<std::uint8_t> verdicts;
  if (const char* err = parse_verdicts(reply, verdicts); err != nullptr) {
    throw NetError(err);
  }
  if (verdicts.size() != keys.size()) {
    throw NetError("verdict count does not match key count");
  }
  return verdicts;
}

std::vector<std::uint8_t> Client::query(
    std::span<const std::string> keys) {
  return batch_op(Opcode::kQuery, keys);
}
std::vector<std::uint8_t> Client::query(
    std::span<const std::string_view> keys) {
  return batch_op(Opcode::kQuery, keys);
}
std::vector<std::uint8_t> Client::insert(
    std::span<const std::string> keys) {
  return batch_op(Opcode::kInsert, keys);
}
std::vector<std::uint8_t> Client::insert(
    std::span<const std::string_view> keys) {
  return batch_op(Opcode::kInsert, keys);
}
std::vector<std::uint8_t> Client::erase(
    std::span<const std::string> keys) {
  return batch_op(Opcode::kErase, keys);
}
std::vector<std::uint8_t> Client::erase(
    std::span<const std::string_view> keys) {
  return batch_op(Opcode::kErase, keys);
}

template <typename Key>
std::vector<std::uint32_t> Client::count_op(std::span<const Key> keys) {
  std::uint8_t flags = 0;
  std::string payload = scoped_payload(flags);
  append_key_batch(payload, keys);
  const std::string reply = round_trip(Opcode::kEstCount, payload, flags);
  std::vector<std::uint32_t> counts;
  if (const char* err = parse_counts(reply, counts); err != nullptr) {
    throw NetError(err);
  }
  if (counts.size() != keys.size()) {
    throw NetError("count count does not match key count");
  }
  return counts;
}

std::vector<std::uint32_t> Client::est_count(
    std::span<const std::string> keys) {
  return count_op(keys);
}
std::vector<std::uint32_t> Client::est_count(
    std::span<const std::string_view> keys) {
  return count_op(keys);
}

void Client::ns_create(std::string_view name, const NsConfigWire& cfg) {
  std::string payload;
  append_ns_create(payload, name, cfg);
  const std::string reply = round_trip(Opcode::kNsCreate, payload);
  if (!reply.empty()) {
    throw NetError("nscreate reply: unexpected payload");
  }
}

void Client::ns_drop(std::string_view name) {
  std::string payload;
  append_ns_prefix(payload, name);
  const std::string reply = round_trip(Opcode::kNsDrop, payload);
  if (!reply.empty()) {
    throw NetError("nsdrop reply: unexpected payload");
  }
}

std::vector<NsRow> Client::ns_list() {
  const std::string reply = round_trip(Opcode::kNsList, {});
  std::vector<NsRow> rows;
  if (const char* err = parse_ns_list_reply(reply, rows); err != nullptr) {
    throw NetError(err);
  }
  return rows;
}

std::uint64_t Client::ns_tick(std::string_view name) {
  std::string payload;
  append_ns_prefix(payload, name);
  const std::string reply = round_trip(Opcode::kNsTick, payload);
  NsTickReply r;
  if (const char* err = parse_reply_pod(reply, r); err != nullptr) {
    throw NetError(err);
  }
  return r.ticks;
}

StatsReply Client::stats() {
  std::uint8_t flags = 0;
  const std::string payload = scoped_payload(flags);
  const std::string reply = round_trip(Opcode::kStats, payload, flags);
  StatsReply s;
  if (const char* err = parse_reply_pod(reply, s); err != nullptr) {
    throw NetError(err);
  }
  return s;
}

HealthReply Client::health() {
  std::uint8_t flags = 0;
  const std::string payload = scoped_payload(flags);
  const std::string reply = round_trip(Opcode::kHealth, payload, flags);
  HealthReply h;
  if (const char* err = parse_reply_pod(reply, h); err != nullptr) {
    throw NetError(err);
  }
  return h;
}

std::uint64_t Client::snapshot() {
  std::uint8_t flags = 0;
  const std::string payload = scoped_payload(flags);
  const std::string reply = round_trip(Opcode::kSnapshot, payload, flags);
  SnapshotReply s;
  if (const char* err = parse_reply_pod(reply, s); err != nullptr) {
    throw NetError(err);
  }
  return s.last_seq;
}

ReplicateInfo Client::replicate(const ReplicateRequest& req,
                                std::vector<io::JournalRecord>& records) {
  std::uint8_t flags = 0;
  std::string payload = scoped_payload(flags);
  append_reply_pod(payload, req);
  const std::string reply = round_trip(Opcode::kReplicate, payload, flags);
  ReplicateInfo info;
  if (const char* err = parse_replicate_reply(reply, info, records);
      err != nullptr) {
    throw NetError(err);
  }
  return info;
}

SnapFetchInfo Client::snap_fetch(const SnapFetchRequest& req,
                                 std::string& bytes) {
  std::uint8_t flags = 0;
  std::string payload = scoped_payload(flags);
  append_reply_pod(payload, req);
  const std::string reply = round_trip(Opcode::kSnapFetch, payload, flags);
  SnapFetchInfo info;
  std::string_view view;
  if (const char* err = parse_snapfetch_reply(reply, info, view);
      err != nullptr) {
    throw NetError(err);
  }
  bytes.assign(view);
  return info;
}

ReplStatusReply Client::repl_status() {
  std::uint8_t flags = 0;
  const std::string payload = scoped_payload(flags);
  const std::string reply = round_trip(Opcode::kReplStatus, payload, flags);
  ReplStatusReply r;
  if (const char* err = parse_reply_pod(reply, r); err != nullptr) {
    throw NetError(err);
  }
  return r;
}

// --- FailoverClient -----------------------------------------------------

FailoverClient::FailoverClient(Options options)
    : options_(std::move(options)) {
  if (options_.endpoints.empty()) {
    throw NetError("FailoverClient: no endpoints");
  }
  session_id_ = options_.session_id;
  if (session_id_ == 0) {
    std::random_device rd;
    session_id_ = (static_cast<std::uint64_t>(rd()) << 32) ^ rd();
    if (session_id_ == 0) session_id_ = 1;
  }
}

std::uint64_t FailoverClient::next_trace_id() noexcept {
  trace_state_ += 0x9E3779B97F4A7C15ull;
  const std::uint64_t id =
      util::SplitMix64::mix(session_id_ ^ trace_state_);
  return id != 0 ? id : 1;
}

Client& FailoverClient::ensure_client() {
  if (!client_ || !client_->connected()) {
    const Endpoint& ep = options_.endpoints[active_];
    Client::Options co;
    co.host = ep.host;
    co.port = ep.port;
    co.connect_deadline = options_.connect_deadline;
    co.initial_backoff = options_.initial_backoff;
    co.max_backoff = options_.max_backoff;
    co.backoff_seed = options_.backoff_seed;
    co.io_timeout = options_.io_timeout;
    // The failover layer stamps one id per logical op itself; the
    // inner client must not burn ids per attempt.
    co.stamp_trace_ids = options_.stamp_trace_ids;
    client_.emplace(std::move(co));
  }
  return *client_;
}

void FailoverClient::rotate() {
  client_.reset();
  active_ = (active_ + 1) % options_.endpoints.size();
  ++failovers_;
}

template <typename Fn>
auto FailoverClient::with_failover(Fn&& fn)
    -> decltype(fn(std::declval<Client&>())) {
  const auto deadline =
      std::chrono::steady_clock::now() + options_.op_deadline;
  // Seed 0 keeps Backoff's per-instance entropy. An explicit seed is
  // mixed with the session id through SplitMix64 so concurrent sessions
  // sharing one configured seed still jitter apart — the old plain XOR
  // collapsed to the sentinel whenever the two values collided.
  std::uint64_t seed = 0;
  if (options_.backoff_seed != 0) {
    seed = util::SplitMix64::mix(options_.backoff_seed ^ session_id_);
    if (seed == 0) seed = 1;
  }
  Backoff backoff(options_.initial_backoff, options_.max_backoff, seed);
  NetError last("failover: no attempts made");
  for (;;) {
    try {
      return fn(ensure_client());
    } catch (const RemoteError& e) {
      // The server answered: every code but "I'm draining, go away" is
      // an authoritative verdict on the operation itself.
      if (e.code() != ErrorCode::kShuttingDown) throw;
      last = e;
    } catch (const NetError& e) {
      last = e;
    }
    rotate();
    const auto now = std::chrono::steady_clock::now();
    if (now >= deadline) throw last;
    const auto delay = std::min(
        backoff.next(), std::chrono::duration_cast<std::chrono::milliseconds>(
                            deadline - now));
    std::this_thread::sleep_for(delay);
  }
}

template <typename Key>
std::vector<std::uint8_t> FailoverClient::query_impl(
    std::span<const Key> keys) {
  std::string payload;
  append_key_batch(payload, keys);
  // One trace id per logical query: every failover retry resends the
  // same id, so the server-side spans of all attempts correlate.
  const std::uint64_t tid =
      options_.stamp_trace_ids ? next_trace_id() : 0;
  if (tid != 0) last_trace_id_ = tid;
  return with_failover([&](Client& c) {
    const std::string reply =
        c.round_trip(Opcode::kQuery, payload, 0, tid);
    std::vector<std::uint8_t> verdicts;
    if (const char* err = parse_verdicts(reply, verdicts);
        err != nullptr) {
      throw NetError(err);
    }
    if (verdicts.size() != keys.size()) {
      throw NetError("verdict count does not match key count");
    }
    return verdicts;
  });
}

template <typename Key>
std::vector<std::uint8_t> FailoverClient::mutate(
    Opcode op, std::span<const Key> keys) {
  // One op_seq per logical mutation: every retry resends the same
  // sequence number, so the server applies once and replays the cached
  // reply for the duplicates.
  const SequencePrefix prefix{session_id_, ++next_op_seq_};
  std::string payload;
  append_sequenced_key_batch(payload, prefix, keys);
  const std::uint64_t tid =
      options_.stamp_trace_ids ? next_trace_id() : 0;
  if (tid != 0) last_trace_id_ = tid;
  return with_failover([&](Client& c) {
    const std::string reply =
        c.round_trip(op, payload, kFlagSequenced, tid);
    std::vector<std::uint8_t> verdicts;
    if (const char* err = parse_verdicts(reply, verdicts);
        err != nullptr) {
      throw NetError(err);
    }
    if (verdicts.size() != keys.size()) {
      throw NetError("verdict count does not match key count");
    }
    return verdicts;
  });
}

std::vector<std::uint8_t> FailoverClient::query(
    std::span<const std::string> keys) {
  return query_impl(keys);
}
std::vector<std::uint8_t> FailoverClient::query(
    std::span<const std::string_view> keys) {
  return query_impl(keys);
}
std::vector<std::uint8_t> FailoverClient::insert(
    std::span<const std::string> keys) {
  return mutate(Opcode::kInsert, keys);
}
std::vector<std::uint8_t> FailoverClient::insert(
    std::span<const std::string_view> keys) {
  return mutate(Opcode::kInsert, keys);
}
std::vector<std::uint8_t> FailoverClient::erase(
    std::span<const std::string> keys) {
  return mutate(Opcode::kErase, keys);
}
std::vector<std::uint8_t> FailoverClient::erase(
    std::span<const std::string_view> keys) {
  return mutate(Opcode::kErase, keys);
}

StatsReply FailoverClient::stats() {
  return with_failover([](Client& c) { return c.stats(); });
}

HealthReply FailoverClient::health() {
  return with_failover([](Client& c) { return c.health(); });
}

ReplStatusReply FailoverClient::repl_status() {
  return with_failover([](Client& c) { return c.repl_status(); });
}

}  // namespace mpcbf::net
