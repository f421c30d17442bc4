#include "net/replication.hpp"

#include <random>

#include "common/log.hpp"
#include "metrics/registry.hpp"
#include "trace/trace.hpp"

namespace mpcbf::net {

namespace {

/// The classic follower sink: one durable filter behind the serving
/// backend's shared_mutex.
class DurableSink final : public ReplicationSink {
 public:
  DurableSink(std::shared_ptr<core::DurableMpcbf<64>> local,
              std::shared_ptr<std::shared_mutex> mu)
      : local_(std::move(local)), mu_(std::move(mu)) {}

  std::uint64_t next_seq() override {
    std::shared_lock lock(*mu_);
    return local_->next_seq();
  }

  bool apply(std::uint64_t seq, io::JournalOp op,
             std::string_view key) override {
    std::unique_lock lock(*mu_);
    return local_->apply_replicated(seq, op, key);
  }

  void install_snapshot(const std::string& image) override {
    std::unique_lock lock(*mu_);
    local_->install_snapshot(image);
  }

 private:
  std::shared_ptr<core::DurableMpcbf<64>> local_;
  std::shared_ptr<std::shared_mutex> mu_;
};

}  // namespace

std::shared_ptr<ReplicationSink> make_replication_sink(
    std::shared_ptr<core::DurableMpcbf<64>> local,
    std::shared_ptr<std::shared_mutex> mu) {
  return std::make_shared<DurableSink>(std::move(local), std::move(mu));
}

Replicator::Replicator(std::shared_ptr<ReplicationSink> sink, Options options)
    : sink_(std::move(sink)), options_(std::move(options)) {
  if (!sink_) throw NetError("Replicator: null sink");
  if (options_.primaries.empty()) {
    throw NetError("Replicator: no primary endpoints");
  }
  if (options_.follower_id == 0) {
    std::random_device rd;
    options_.follower_id = (static_cast<std::uint64_t>(rd()) << 32) ^ rd();
    if (options_.follower_id == 0) options_.follower_id = 1;
  }
  // The local journal's position is the resume point: a restarted
  // follower continues from whatever its own WAL made durable.
  acked_seq_.store(sink_->next_seq() - 1, std::memory_order_release);
}

Replicator::Replicator(std::shared_ptr<core::DurableMpcbf<64>> local,
                       std::shared_ptr<std::shared_mutex> mu,
                       Options options)
    : Replicator(make_replication_sink(std::move(local), std::move(mu)),
                 std::move(options)) {}

Replicator::~Replicator() { stop(); }

void Replicator::start() {
  std::lock_guard<std::mutex> lock(stop_mu_);
  if (thread_.joinable()) return;
  stop_requested_ = false;
  thread_ = std::thread([this] { run(); });
}

void Replicator::stop() {
  {
    std::lock_guard<std::mutex> lock(stop_mu_);
    stop_requested_ = true;
  }
  stop_cv_.notify_all();
  if (thread_.joinable()) thread_.join();
}

bool Replicator::interruptible_sleep(std::chrono::milliseconds d) {
  std::unique_lock<std::mutex> lock(stop_mu_);
  return !stop_cv_.wait_for(lock, d, [this] { return stop_requested_; });
}

Client& Replicator::ensure_client() {
  if (!client_ || !client_->connected()) {
    const Endpoint& ep = options_.primaries[active_];
    Client::Options co;
    co.host = ep.host;
    co.port = ep.port;
    co.connect_deadline = options_.connect_deadline;
    co.initial_backoff = options_.initial_backoff;
    co.max_backoff = options_.max_backoff;
    co.io_timeout = options_.io_timeout;
    client_.emplace(std::move(co));
  }
  return *client_;
}

void Replicator::publish_gauges(bool connected) const {
  auto& reg = metrics::Registry::global();
  reg.gauge("mpcbf_replication_acked_seq",
            "Highest journal sequence applied by this follower")
      .set(static_cast<double>(acked_seq_.load(std::memory_order_relaxed)));
  reg.gauge("mpcbf_replication_lag_records",
            "Primary records this follower has not yet applied")
      .set(static_cast<double>(lag_.load(std::memory_order_relaxed)));
  reg.gauge("mpcbf_replication_connected",
            "1 while the follower's last poll succeeded")
      .set(connected ? 1.0 : 0.0);
}

void Replicator::bootstrap(Client& client) {
  MPCBF_TRACE_SPAN(span, kNet, "repl.bootstrap");
  MPCBF_LOG_INFO("repl.bootstrap_begin",
                 log::u64("follower_id", options_.follower_id));
  std::string image;
  std::uint64_t watermark = 0;
  std::uint64_t total = 0;
  std::uint64_t offset = 0;
  for (;;) {
    SnapFetchRequest req;
    req.offset = offset;
    req.max_bytes = options_.snap_chunk;
    std::string bytes;
    const SnapFetchInfo info = client.snap_fetch(req, bytes);
    if (offset == 0) {
      watermark = info.watermark;
      total = info.total_bytes;
      image.clear();
      image.reserve(total);  // total is capped by the reply parser
    } else if (info.watermark != watermark) {
      // The primary regenerated its image mid-fetch (it snapshotted
      // between our chunks); restart from the top.
      offset = 0;
      continue;
    }
    image.append(bytes);
    offset += bytes.size();
    if (offset >= total) break;
    if (bytes.empty()) {
      throw NetError("snap fetch returned no bytes before the image end");
    }
  }
  sink_->install_snapshot(image);
  acked_seq_.store(sink_->next_seq() - 1, std::memory_order_release);
  bootstraps_.fetch_add(1, std::memory_order_relaxed);
  MPCBF_LOG_INFO("repl.bootstrap_done", log::u64("watermark", watermark),
                 log::u64("image_bytes", image.size()));
  span.set_arg("watermark", watermark);
}

std::size_t Replicator::poll_once() {
  MPCBF_TRACE_SPAN(span, kNet, "repl.poll");
  Client& client = ensure_client();
  if (force_bootstrap_) {
    bootstrap(client);
    force_bootstrap_ = false;
  }
  ReplicateRequest req;
  req.follower_id = options_.follower_id;
  req.from_seq = sink_->next_seq();
  req.max_records = options_.max_records;
  req.max_bytes = options_.max_bytes;
  std::vector<io::JournalRecord> records;
  const ReplicateInfo info = client.replicate(req, records);
  if (info.next_seq < req.from_seq) {
    // Our journal is AHEAD of this primary's stream: we hold a fork
    // (the classic case is an ex-primary restarting as a follower of
    // its old replica, carrying writes that were never replicated).
    // The primary's history wins — discard the fork by re-syncing from
    // its snapshot image, which rewinds our journal to its watermark.
    MPCBF_LOG_WARN("repl.fork_discard",
                   log::u64("local_next_seq", req.from_seq),
                   log::u64("primary_next_seq", info.next_seq));
    bootstrap(client);
    caught_up_.store(false, std::memory_order_release);
    publish_gauges(true);
    return 0;
  }
  if (info.need_snapshot != 0) {
    bootstrap(client);
    // Lag against the stream head is unknown until the next poll; stay
    // not-caught-up rather than claim readiness off a stale number.
    caught_up_.store(false, std::memory_order_release);
    publish_gauges(true);
    return 0;
  }
  for (const auto& rec : records) {
    if (!sink_->apply(rec.seq, rec.op, rec.key)) {
      // A gap means stream continuity is lost (e.g. the local journal
      // was repaired behind our back); re-sync from a snapshot.
      force_bootstrap_ = true;
      MPCBF_LOG_WARN("repl.stream_gap", log::u64("record_seq", rec.seq),
                     log::u64("expected_seq", sink_->next_seq()));
      throw NetError("replicate stream gap; forcing bootstrap");
    }
  }
  acked_seq_.store(sink_->next_seq() - 1, std::memory_order_release);
  const std::uint64_t acked = acked_seq_.load(std::memory_order_relaxed);
  const std::uint64_t lag = info.next_seq - 1 - acked;
  lag_.store(lag, std::memory_order_release);
  caught_up_.store(lag == 0, std::memory_order_release);
  publish_gauges(true);
  span.set_arg("records", records.size());
  return records.size();
}

void Replicator::run() {
  Backoff backoff(options_.initial_backoff, options_.max_backoff,
                  options_.follower_id);
  for (;;) {
    {
      std::lock_guard<std::mutex> lock(stop_mu_);
      if (stop_requested_) return;
    }
    try {
      const std::size_t applied = poll_once();
      backoff.reset();
      if (applied == 0) {
        if (!interruptible_sleep(options_.poll_interval)) return;
      }
    } catch (const std::exception& e) {
      // Rate-limited by the per-site limiter: a primary that rejects
      // every poll would otherwise retry silently forever.
      MPCBF_LOG_WARN("repl.poll_failed", log::str("error", e.what()),
                     log::u64("follower_id", options_.follower_id));
      caught_up_.store(false, std::memory_order_release);
      publish_gauges(false);
      client_.reset();
      active_ = (active_ + 1) % options_.primaries.size();
      failovers_.fetch_add(1, std::memory_order_relaxed);
      if (!interruptible_sleep(backoff.next())) return;
    }
  }
}

ReplStatusReply Replicator::status() const {
  ReplStatusReply r;
  r.role = static_cast<std::uint8_t>(ReplRole::kFollower);
  r.caught_up = caught_up() ? 1 : 0;
  r.acked_seq = acked_seq();
  r.next_seq = r.acked_seq + 1;
  r.lag_records = lag();
  return r;
}

}  // namespace mpcbf::net
