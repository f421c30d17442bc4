// Replicator — the follower half of mpcbfd primary/follower
// replication.
//
// The journal's monotonic sequence numbers double as the replication
// stream (docs/server.md#replication):
//
//   ┌──────────┐  REPLICATE from_seq=N   ┌──────────┐
//   │ follower │ ───────────────────────▶│ primary  │
//   │          │ ◀─────────────────────── │          │
//   └──────────┘  records N..M | need_snapshot
//
// A poll for records from N is simultaneously the ack for everything
// below N — the primary tracks it as this follower's durable watermark.
// When N has been compacted away (N < the primary's journal base_seq)
// the reply says need_snapshot and the follower bootstraps: it fetches
// the primary's consistent snapshot image in SNAPFETCH chunks, installs
// the bytes verbatim into its own durable directory, and resets its
// journal to the image's watermark + 1. From then on the follower's
// sequence numbering mirrors the primary's exactly, so at equal
// watermarks the two directories hold byte-identical snapshot files —
// and a crashed primary can be restarted as a follower of whoever
// superseded it, converging over the same stream.
//
// Applying records preserves the WAL invariant locally (journal first,
// then memory) and rejects any gap in sequence numbers by forcing a
// re-bootstrap; a torn local journal tail is repaired on reopen just
// like on a primary, after which tailing resumes from the repaired
// watermark.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <thread>
#include <vector>

#include "core/durable_mpcbf.hpp"
#include "net/client.hpp"

namespace mpcbf::net {

/// Where a follower's replicated records land. The tailing loop only
/// needs three operations — the resume point, gap-checked apply, and
/// snapshot install — which every core::Durable<F> provides (next_seq,
/// apply_replicated, install_snapshot). The standard follower wraps a
/// DurableMpcbf + shared_mutex pair (make_replication_sink). No sink
/// serves an elastic follower yet: its maintainer and growth drain
/// journal records of their own, which would fork the primary's
/// sequence stream.
///
/// Thread contract: the Replicator calls every method from its one
/// tailing thread; implementations own whatever exclusion they need
/// against their serving side (the default sink takes the backend's
/// shared_mutex internally).
class ReplicationSink {
 public:
  virtual ~ReplicationSink() = default;
  /// Next sequence number the local store expects. Doubles as the ack
  /// watermark: polling from N acknowledges everything below N.
  [[nodiscard]] virtual std::uint64_t next_seq() = 0;
  /// Applies one replicated record (journal first, then memory).
  /// Returns false on a sequence gap — the caller must re-bootstrap.
  virtual bool apply(std::uint64_t seq, io::JournalOp op,
                     std::string_view key) = 0;
  /// Installs a full snapshot image fetched from the primary, rewinding
  /// the local journal to the image's watermark.
  virtual void install_snapshot(const std::string& image) = 0;
};

/// The standard sink: one durable filter guarded by the same
/// shared_mutex the serving backend uses (make_backend's explicit-mutex
/// overload), so replica apply and request serving exclude each other.
[[nodiscard]] std::shared_ptr<ReplicationSink> make_replication_sink(
    std::shared_ptr<core::DurableMpcbf<64>> local,
    std::shared_ptr<std::shared_mutex> mu);

class Replicator {
 public:
  struct Options {
    /// Endpoints to tail, tried in order with jittered exponential
    /// backoff on transport failure.
    std::vector<Endpoint> primaries;
    /// Delay between polls once caught up (an empty batch).
    std::chrono::milliseconds poll_interval{20};
    std::chrono::milliseconds io_timeout{2000};
    std::chrono::milliseconds connect_deadline{500};
    std::chrono::milliseconds initial_backoff{20};
    std::chrono::milliseconds max_backoff{1000};
    /// Per-poll page caps (0 = server default).
    std::uint32_t max_records = 4096;
    std::uint32_t max_bytes = 1u << 20;
    /// Snapshot bytes per bootstrap chunk.
    std::uint32_t snap_chunk = 512u * 1024;
    /// Stable id for the primary's lag accounting; 0 = random.
    std::uint64_t follower_id = 0;
  };

  /// Tails `options.primaries` into `sink`.
  Replicator(std::shared_ptr<ReplicationSink> sink, Options options);

  /// Convenience overload for the standard single-filter follower:
  /// equivalent to Replicator(make_replication_sink(local, mu), options).
  Replicator(std::shared_ptr<core::DurableMpcbf<64>> local,
             std::shared_ptr<std::shared_mutex> mu, Options options);
  ~Replicator();

  Replicator(const Replicator&) = delete;
  Replicator& operator=(const Replicator&) = delete;

  /// Spawns the background tailing thread. Idempotent.
  void start();
  /// Stops and joins the tailing thread. Idempotent.
  void stop();

  /// One synchronous replication round against the current primary:
  /// bootstrap when the primary says so, otherwise pull and apply one
  /// page. Returns records applied (0 = caught up or bootstrapped).
  /// Throws NetError/RemoteError on failure; callers polling manually
  /// own the retry policy. start()'s thread wraps this with endpoint
  /// rotation and backoff.
  std::size_t poll_once();

  /// True after a poll observed zero lag and no failure since.
  [[nodiscard]] bool caught_up() const noexcept {
    return caught_up_.load(std::memory_order_acquire);
  }
  /// Highest sequence number applied locally.
  [[nodiscard]] std::uint64_t acked_seq() const noexcept {
    return acked_seq_.load(std::memory_order_acquire);
  }
  /// Records the primary had that this follower had not applied, as of
  /// the last successful poll.
  [[nodiscard]] std::uint64_t lag() const noexcept {
    return lag_.load(std::memory_order_acquire);
  }
  [[nodiscard]] std::uint64_t bootstraps() const noexcept {
    return bootstraps_.load(std::memory_order_acquire);
  }
  /// Endpoint rotations forced by failures.
  [[nodiscard]] std::uint64_t failovers() const noexcept {
    return failovers_.load(std::memory_order_acquire);
  }
  [[nodiscard]] std::uint64_t follower_id() const noexcept {
    return options_.follower_id;
  }

  /// Follower-flavoured REPLSTATUS payload for this node's own server.
  [[nodiscard]] ReplStatusReply status() const;

 private:
  void run();
  void bootstrap(Client& client);
  Client& ensure_client();
  void publish_gauges(bool connected) const;
  /// Sleeps up to `d`, waking early on stop(). Returns false when
  /// stopping.
  bool interruptible_sleep(std::chrono::milliseconds d);

  std::shared_ptr<ReplicationSink> sink_;
  Options options_;

  std::optional<Client> client_;
  std::size_t active_ = 0;
  bool force_bootstrap_ = false;

  std::atomic<bool> caught_up_{false};
  std::atomic<std::uint64_t> acked_seq_{0};
  std::atomic<std::uint64_t> lag_{0};
  std::atomic<std::uint64_t> bootstraps_{0};
  std::atomic<std::uint64_t> failovers_{0};

  std::mutex stop_mu_;
  std::condition_variable stop_cv_;
  bool stop_requested_ = false;
  std::thread thread_;
};

}  // namespace mpcbf::net
