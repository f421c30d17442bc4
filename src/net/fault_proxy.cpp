#include "net/fault_proxy.hpp"

#include <poll.h>

#include <algorithm>

namespace mpcbf::net {

namespace {
constexpr std::size_t kChunk = 16 * 1024;
constexpr int kTickMs = 5;
}  // namespace

/// One proxied connection: two sockets and a delayed-chunk queue per
/// direction. `budget` is the truncation fuse — SIZE_MAX means intact.
struct FaultProxy::Pair {
  Socket client;
  Socket upstream;
  struct Chunk {
    std::chrono::steady_clock::time_point ready;
    std::string data;
    std::size_t sent = 0;
  };
  std::deque<Chunk> to_upstream;
  std::deque<Chunk> to_client;
  std::size_t budget = static_cast<std::size_t>(-1);
  bool client_eof = false;
  bool upstream_eof = false;
  bool dead = false;
};

FaultProxy::FaultProxy(Options options) : options_(std::move(options)) {}

FaultProxy::~FaultProxy() { stop(); }

void FaultProxy::start() {
  if (running_.exchange(true)) return;
  listener_ = listen_tcp(options_.listen_address, options_.port);
  set_nonblocking(listener_.fd(), true);
  port_ = local_port(listener_.fd());
  stop_.store(false, std::memory_order_release);
  thread_ = std::thread([this] { run(); });
}

void FaultProxy::stop() {
  if (!running_.load(std::memory_order_acquire)) return;
  stop_.store(true, std::memory_order_release);
  if (thread_.joinable()) thread_.join();
  listener_.close();
  pairs_.clear();
  running_.store(false, std::memory_order_release);
}

void FaultProxy::set_target(const std::string& host,
                            std::uint16_t target_port) {
  std::lock_guard<std::mutex> lock(target_mu_);
  options_.target_host = host;
  options_.target_port = target_port;
}

void FaultProxy::truncate_open_connections(std::size_t bytes) noexcept {
  std::lock_guard<std::mutex> lock(trunc_mu_);
  trunc_pending_ = true;
  trunc_bytes_ = bytes;
}

void FaultProxy::pump(Pair& p, std::size_t budget_bytes) {
  const auto now = std::chrono::steady_clock::now();
  const auto write_side = [&](std::deque<Pair::Chunk>& q, int fd) {
    while (!q.empty() && budget_bytes > 0) {
      Pair::Chunk& chunk = q.front();
      if (chunk.ready > now) break;
      std::size_t want = chunk.data.size() - chunk.sent;
      want = std::min({want, budget_bytes, p.budget});
      if (want == 0) {
        if (p.budget == 0) p.dead = true;  // truncation fuse blown
        return;
      }
      std::ptrdiff_t n = 0;
      try {
        n = write_some(fd, chunk.data.data() + chunk.sent, want);
      } catch (const NetError&) {
        p.dead = true;
        return;
      }
      if (n < 0) break;  // peer's buffer is full
      chunk.sent += static_cast<std::size_t>(n);
      budget_bytes -= static_cast<std::size_t>(n);
      if (p.budget != static_cast<std::size_t>(-1)) {
        p.budget -= static_cast<std::size_t>(n);
      }
      forwarded_.fetch_add(static_cast<std::uint64_t>(n),
                           std::memory_order_relaxed);
      if (chunk.sent == chunk.data.size()) q.pop_front();
    }
    if (p.budget == 0) p.dead = true;
  };
  write_side(p.to_upstream, p.upstream.fd());
  if (p.dead) return;
  write_side(p.to_client, p.client.fd());
}

void FaultProxy::run() {
  std::uint64_t seen_kill = kill_epoch_.load(std::memory_order_acquire);
  std::vector<pollfd> pfds;
  while (!stop_.load(std::memory_order_acquire)) {
    const bool partitioned = partitioned_.load(std::memory_order_acquire);
    // Kill switch: hard-close everything once per epoch bump.
    const std::uint64_t epoch =
        kill_epoch_.load(std::memory_order_acquire);
    if (epoch != seen_kill) {
      seen_kill = epoch;
      for (auto& p : pairs_) p->dead = true;
      killed_.fetch_add(pairs_.size(), std::memory_order_relaxed);
    }
    // Truncation fuse: arm every currently open pair.
    {
      std::lock_guard<std::mutex> lock(trunc_mu_);
      if (trunc_pending_) {
        trunc_pending_ = false;
        for (auto& p : pairs_) p->budget = trunc_bytes_;
      }
    }
    std::erase_if(pairs_, [](const auto& p) { return p->dead; });

    pfds.clear();
    pfds.push_back({listener_.fd(), POLLIN, 0});
    const std::size_t polled = pairs_.size();
    for (const auto& p : pairs_) {
      pfds.push_back(
          {p->client.fd(),
           static_cast<short>(p->client_eof ? 0 : POLLIN), 0});
      pfds.push_back(
          {p->upstream.fd(),
           static_cast<short>(p->upstream_eof ? 0 : POLLIN), 0});
    }
    (void)::poll(pfds.data(), static_cast<nfds_t>(pfds.size()), kTickMs);
    if (stop_.load(std::memory_order_acquire)) break;

    // Accept — or, while partitioned, refuse by immediate close.
    if ((pfds[0].revents & POLLIN) != 0) {
      for (;;) {
        Socket client = accept_tcp(listener_);
        if (!client.valid()) break;
        if (partitioned) continue;  // dropped on the floor
        try {
          std::string host;
          std::uint16_t tport = 0;
          {
            std::lock_guard<std::mutex> lock(target_mu_);
            host = options_.target_host;
            tport = options_.target_port;
          }
          Socket upstream =
              connect_tcp(host, tport, std::chrono::milliseconds(1000));
          set_nonblocking(upstream.fd(), true);
          auto p = std::make_unique<Pair>();
          p->client = std::move(client);
          p->upstream = std::move(upstream);
          pairs_.push_back(std::move(p));
          connections_.fetch_add(1, std::memory_order_relaxed);
        } catch (const NetError&) {
          // Target unreachable: the refused client sees a reset, which
          // is exactly what a real dead backend looks like.
        }
      }
    }

    const auto delay =
        std::chrono::milliseconds(delay_ms_.load(std::memory_order_acquire));
    const auto ready_at = std::chrono::steady_clock::now() + delay;
    const std::size_t throttle =
        throttle_.load(std::memory_order_acquire);

    // Pairs accepted after the poll have no pfds entry yet; they get
    // serviced on the next tick.
    for (std::size_t i = 0; i < polled; ++i) {
      Pair& p = *pairs_[i];
      if (p.dead) continue;
      const short client_rev = pfds[1 + 2 * i].revents;
      const short upstream_rev = pfds[2 + 2 * i].revents;
      if (((client_rev | upstream_rev) & (POLLERR | POLLNVAL)) != 0) {
        p.dead = true;
        continue;
      }
      // While partitioned, neither read nor write: bytes already queued
      // stay frozen, new bytes back-pressure in the kernel.
      if (partitioned) continue;
      const auto read_side = [&](int fd, bool& eof,
                                 std::deque<Pair::Chunk>& q) {
        char buf[kChunk];
        for (;;) {
          std::ptrdiff_t n = 0;
          try {
            n = read_some(fd, buf, sizeof buf);
          } catch (const NetError&) {
            p.dead = true;
            return;
          }
          if (n < 0) break;  // drained
          if (n == 0) {
            eof = true;
            break;
          }
          q.push_back({ready_at,
                       std::string(buf, static_cast<std::size_t>(n)), 0});
        }
      };
      if ((client_rev & (POLLIN | POLLHUP)) != 0) {
        read_side(p.client.fd(), p.client_eof, p.to_upstream);
      }
      if (!p.dead && (upstream_rev & (POLLIN | POLLHUP)) != 0) {
        read_side(p.upstream.fd(), p.upstream_eof, p.to_client);
      }
      if (p.dead) continue;
      pump(p, throttle == 0 ? static_cast<std::size_t>(-1) : throttle);
      if ((p.client_eof || p.upstream_eof) && p.to_upstream.empty() &&
          p.to_client.empty()) {
        p.dead = true;  // flushed both ways; propagate the close
      }
    }
  }
}

}  // namespace mpcbf::net
