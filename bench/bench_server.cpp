// Serving-layer benchmark: loopback round-trip cost of the mpcbfd
// binary protocol as a function of request batch size, plus
// multi-client scaling. The headline number is ns/key — one 64-key
// QUERY frame amortizes the syscall + framing + dispatch overhead that
// completely dominates 1-key requests, which is the whole argument for
// the batched protocol (docs/server.md). The acceptance gate is
// batch-64 >= 5x the per-key throughput of batch-1.
//
// Telemetry goes to BENCH_server.json (bench_json.hpp); the ns/key series
// are regression-gated by scripts/bench_compare.py. Min-of-reps is
// reported (interference only adds time).
//
// A saturation section drives a 4-worker server under a mixed
// 70/20/10 query/insert/erase workload and reports aggregate QPS and
// p99 frame latency (no gate).
//
// Usage: bench_server [--frames 400] [--reps 3] [--clients 4]
//        [--workers 2] [--n 20000] [--seed 7]
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <shared_mutex>
#include <string>
#include <thread>
#include <vector>

#include "bench_json.hpp"
#include "common/cli.hpp"
#include "core/mpcbf.hpp"
#include "metrics/timer.hpp"
#include "net/client.hpp"
#include "net/server.hpp"
#include "workload/string_sets.hpp"

namespace {

using namespace mpcbf;

struct Setup {
  std::shared_ptr<core::Mpcbf<64>> filter;
  std::unique_ptr<net::Server> server;
  std::vector<std::string> keys;

  Setup(std::size_t n, std::size_t workers, std::uint64_t seed) {
    core::MpcbfConfig cfg;
    cfg.memory_bits = 1u << 22;
    cfg.expected_n = n;
    cfg.policy = core::OverflowPolicy::kStash;
    filter = std::make_shared<core::Mpcbf<64>>(cfg);
    keys = workload::generate_unique_strings(n, 12, seed);
    for (const auto& k : keys) filter->insert(k);
    net::Server::Options opts;
    opts.workers = workers;
    server = std::make_unique<net::Server>(net::make_backend(filter),
                                           opts);
    server->start();
  }
  ~Setup() { server->stop(); }

  [[nodiscard]] net::Client client() const {
    net::Client::Options copts;
    copts.port = server->port();
    return net::Client(copts);
  }
};

/// ns/key for `frames` QUERY round trips of `batch` keys each,
/// min over `reps` repetitions.
double query_ns_per_key(const Setup& s, std::size_t batch,
                        std::size_t frames, int reps) {
  net::Client c = s.client();
  std::vector<std::string> req(batch);
  double best = 1e300;
  for (int rep = 0; rep < reps; ++rep) {
    std::size_t cursor = 0;
    const auto t0 = metrics::now_ns();
    for (std::size_t f = 0; f < frames; ++f) {
      for (std::size_t i = 0; i < batch; ++i) {
        req[i] = s.keys[(cursor + i) % s.keys.size()];
      }
      cursor += batch;
      const auto verdicts = c.query(req);
      if (verdicts.size() != batch) throw std::runtime_error("bad reply");
    }
    const auto ns = static_cast<double>(metrics::now_ns() - t0);
    best = std::min(best, ns / static_cast<double>(frames * batch));
  }
  return best;
}

/// Aggregate ns/key with `clients` threads each running batch-64
/// queries concurrently (each thread owns one connection, so the load
/// also spreads across the server's workers).
double concurrent_ns_per_key(const Setup& s, std::size_t clients,
                             std::size_t frames, int reps) {
  constexpr std::size_t kBatch = 64;
  double best = 1e300;
  for (int rep = 0; rep < reps; ++rep) {
    std::atomic<std::uint64_t> failures{0};
    std::vector<std::thread> threads;
    threads.reserve(clients);
    const auto t0 = metrics::now_ns();
    for (std::size_t t = 0; t < clients; ++t) {
      threads.emplace_back([&, t] {
        try {
          net::Client c = s.client();
          std::vector<std::string> req(kBatch);
          std::size_t cursor = t * 1000;
          for (std::size_t f = 0; f < frames; ++f) {
            for (std::size_t i = 0; i < kBatch; ++i) {
              req[i] = s.keys[(cursor + i) % s.keys.size()];
            }
            cursor += kBatch;
            if (c.query(req).size() != kBatch) failures.fetch_add(1);
          }
        } catch (const net::NetError&) {
          failures.fetch_add(1);
        }
      });
    }
    for (auto& th : threads) th.join();
    const auto ns = static_cast<double>(metrics::now_ns() - t0);
    if (failures.load() != 0) throw std::runtime_error("client failures");
    best = std::min(
        best, ns / static_cast<double>(clients * frames * kBatch));
  }
  return best;
}

/// Failover latency: two servers over the same filter, a
/// FailoverClient pinned to the first; stop it and time the next query
/// end to end (detect the dead endpoint, back off, reconnect, serve).
/// Min over reps — scheduling noise only adds time.
double failover_first_query_ns(const Setup& s, int reps) {
  auto mu = std::make_shared<std::shared_mutex>();
  double best = 1e300;
  const std::vector<std::string> req{s.keys.front()};
  for (int rep = 0; rep < reps; ++rep) {
    net::Server::Options opts;
    opts.workers = 1;
    auto sa = std::make_unique<net::Server>(
        net::make_backend(s.filter, mu), opts);
    net::Server sb(net::make_backend(s.filter, mu), opts);
    sa->start();
    sb.start();

    net::FailoverClient::Options fo;
    fo.endpoints = {{"127.0.0.1", sa->port()}, {"127.0.0.1", sb.port()}};
    fo.initial_backoff = std::chrono::milliseconds(1);
    fo.max_backoff = std::chrono::milliseconds(8);
    net::FailoverClient fc(fo);
    if (fc.query(req).size() != 1) throw std::runtime_error("bad reply");

    sa->stop();
    sa.reset();  // the active endpoint is now refusing connections
    const auto t0 = metrics::now_ns();
    if (fc.query(req).size() != 1) throw std::runtime_error("bad reply");
    const auto ns = static_cast<double>(metrics::now_ns() - t0);
    if (fc.failovers() == 0) throw std::runtime_error("no failover");
    best = std::min(best, ns);
    sb.stop();
  }
  return best;
}

struct SatResult {
  double qps = 0.0;     ///< aggregate keys served per second
  double p99_us = 0.0;  ///< p99 frame round-trip, microseconds
};

/// Mixed 70/20/10 query/insert/erase load from `clients` threads of
/// batch-64 frames against an already-running server. QPS is best-of
/// reps, p99 is taken from the best rep's merged frame timings.
SatResult saturation_run(net::Server& server,
                         const std::vector<std::string>& keys,
                         std::size_t clients, std::size_t frames,
                         int reps) {
  constexpr std::size_t kBatch = 64;
  SatResult best;
  for (int rep = 0; rep < reps; ++rep) {
    std::atomic<std::uint64_t> failures{0};
    std::vector<std::vector<double>> frame_us(clients);
    std::vector<std::thread> threads;
    threads.reserve(clients);
    const auto t0 = metrics::now_ns();
    for (std::size_t t = 0; t < clients; ++t) {
      threads.emplace_back([&, t] {
        try {
          net::Client::Options copts;
          copts.port = server.port();
          net::Client c{copts};
          std::vector<std::string> req(kBatch);
          // Each client churns a private key range so insert/erase
          // pairs cancel without cross-client interference.
          const std::string churn_tag =
              "churn-" + std::to_string(t) + "-";
          std::size_t cursor = t * 1711;
          auto& us = frame_us[t];
          us.reserve(frames);
          for (std::size_t f = 0; f < frames; ++f) {
            const std::size_t op = f % 10;
            for (std::size_t i = 0; i < kBatch; ++i) {
              if (op < 7) {
                req[i] = keys[(cursor + i) % keys.size()];
              } else {
                req[i] = churn_tag + std::to_string((f / 10) * kBatch + i);
              }
            }
            cursor += kBatch;
            const auto f0 = metrics::now_ns();
            const auto verdicts = op < 7   ? c.query(req)
                                  : op < 9 ? c.insert(req)
                                           : c.erase(req);
            us.push_back(
                static_cast<double>(metrics::now_ns() - f0) / 1000.0);
            if (verdicts.size() != kBatch) failures.fetch_add(1);
          }
        } catch (const net::NetError&) {
          failures.fetch_add(1);
        }
      });
    }
    for (auto& th : threads) th.join();
    const auto ns = static_cast<double>(metrics::now_ns() - t0);
    if (failures.load() != 0) throw std::runtime_error("client failures");
    const double qps =
        static_cast<double>(clients * frames * kBatch) * 1e9 / ns;
    if (qps > best.qps) {
      std::vector<double> all;
      for (auto& v : frame_us) all.insert(all.end(), v.begin(), v.end());
      std::sort(all.begin(), all.end());
      best.qps = qps;
      best.p99_us = all[std::min(all.size() - 1,
                                 (all.size() * 99) / 100)];
    }
  }
  return best;
}

}  // namespace

int main(int argc, char** argv) {
  mpcbf::util::CliArgs args(argc, argv);
  const std::size_t frames = args.get_uint("frames", 400);
  const int reps = static_cast<int>(args.get_uint("reps", 3));
  const std::size_t clients = args.get_uint("clients", 4);
  const std::size_t workers = args.get_uint("workers", 2);
  const std::size_t n = args.get_uint("n", 20000);
  const std::uint64_t seed = args.get_uint("seed", 7);

  Setup s(n, workers, seed);
  std::printf("mpcbfd loopback bench: %zu keys, %zu workers, port %u\n\n",
              n, workers, unsigned(s.server->port()));

  struct Row {
    std::size_t batch;
    double ns_per_key;
  };
  std::vector<Row> rows;
  for (const std::size_t batch : {std::size_t{1}, std::size_t{8},
                                  std::size_t{64}}) {
    // Same wall-clock budget per row: fewer frames for bigger batches.
    const std::size_t f = std::max<std::size_t>(frames / batch, 50);
    rows.push_back({batch, query_ns_per_key(s, batch, f, reps)});
    std::printf("query batch=%-3zu  %10.1f ns/key  (%.1f us/frame)\n",
                batch, rows.back().ns_per_key,
                rows.back().ns_per_key * batch / 1000.0);
  }
  const double mt =
      concurrent_ns_per_key(s, clients, std::max<std::size_t>(frames / 64, 50),
                            reps);
  std::printf("query batch=64 x %zu clients  %10.1f ns/key aggregate\n",
              clients, mt);

  // Saturation: the single-mutex backend at 4 workers, mixed workload.
  const std::size_t sat_frames = std::max<std::size_t>(frames / 8, 40);
  const unsigned hw = std::thread::hardware_concurrency();
  std::printf("\nsaturation (mixed 70/20/10, %zu clients x %zu frames, "
              "%u hw threads):\n",
              clients, sat_frames, hw);
  SatResult flat;
  {
    net::Server::Options fopts;
    fopts.workers = 4;
    net::Server fsrv(
        net::make_backend(s.filter, std::make_shared<std::shared_mutex>()),
        fopts);
    fsrv.start();
    flat = saturation_run(fsrv, s.keys, clients, sat_frames, reps);
    fsrv.stop();
    std::printf("flat  mutex   4 workers  %12.0f qps  p99 %8.1f us\n",
                flat.qps, flat.p99_us);
  }

  const double failover_ns = failover_first_query_ns(s, reps);
  std::printf("failover: first query after endpoint death  %10.1f us\n",
              failover_ns / 1000.0);

  const double speedup = rows[0].ns_per_key / rows[2].ns_per_key;
  std::printf("\nbatch-64 speedup over batch-1: %.1fx (gate: >= 5x)\n",
              speedup);

  mpcbf::bench::JsonReport report("server");
  report.config("frames", frames);
  report.config("reps", reps);
  report.config("clients", clients);
  report.config("workers", workers);
  report.config("n", n);
  report.metric("query_batch1_ns_per_key", rows[0].ns_per_key, "ns");
  report.metric("query_batch8_ns_per_key", rows[1].ns_per_key, "ns");
  report.metric("query_batch64_ns_per_key", rows[2].ns_per_key, "ns");
  report.metric("query_batch64_concurrent_ns_per_key", mt, "ns");
  report.metric("failover_first_query_ns", failover_ns, "ns");
  report.metric("batch64_speedup_x", speedup, "x");
  report.metric("saturation_flat_mutex_qps", flat.qps, "qps");
  report.metric("saturation_flat_mutex_p99_us", flat.p99_us, "us");
  report.write();

  if (speedup < 5.0) {
    std::fprintf(stderr,
                 "FAIL: batch-64 speedup %.1fx below the 5x gate\n",
                 speedup);
    return 1;
  }
  return 0;
}
