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
//
// Any core::Durable<F> can follow: flat, decaying and elastic
// directories alike. An elastic follower applies the primary's
// kSegmentAdd/kSegmentRetire records at their sequence positions and
// runs no drain pass (net::host gives a follower no maintenance step).
// The one record it may journal itself is a split that the last
// applied insert made due, on reopen after a crash between the two;
// growth is a pure function of the record stream, so that record is
// the one the primary journaled behind the same insert, and the two
// streams never fork.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <thread>
#include <vector>

#include "core/durable_mpcbf.hpp"
#include "net/client.hpp"

namespace mpcbf::net {

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

  /// Tails `options.primaries` into `local`, any durable filter kind,
  /// through its own next_seq / apply_replicated / install_snapshot.
  /// Each runs under `mu`, the mutex the local serving backend takes
  /// (make_backend's explicit-mutex overload), so replica apply and
  /// request serving exclude each other. Called only from the one
  /// tailing thread (or poll_once's caller).
  template <class F>
  Replicator(std::shared_ptr<core::Durable<F>> local,
             std::shared_ptr<std::shared_mutex> mu, Options options)
      : Replicator(
            Local{[local, mu] {
                    std::shared_lock lock(*mu);
                    return local->next_seq();
                  },
                  [local, mu](std::uint64_t seq, io::JournalOp op,
                              std::string_view key) {
                    std::unique_lock lock(*mu);
                    return local->apply_replicated(seq, op, key);
                  },
                  [local, mu](const std::string& image) {
                    std::unique_lock lock(*mu);
                    (void)local->install_snapshot(image);
                  }},
            std::move(options)) {}
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
  /// What the tailing loop needs from the local store. `next_seq` is
  /// the resume point and doubles as the ack watermark (polling from N
  /// acknowledges everything below N); `apply` is false on a sequence
  /// gap, which forces a re-bootstrap; `install_snapshot` rewinds the
  /// local journal to the image's watermark.
  struct Local {
    std::function<std::uint64_t()> next_seq;
    std::function<bool(std::uint64_t, io::JournalOp, std::string_view)>
        apply;
    std::function<void(const std::string&)> install_snapshot;
  };

  Replicator(Local local, Options options);
  void run();
  void bootstrap(Client& client);
  Client& ensure_client();
  void publish_gauges(bool connected) const;
  /// Sleeps up to `d`, waking early on stop(). Returns false when
  /// stopping.
  bool interruptible_sleep(std::chrono::milliseconds d);

  Local local_;
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
