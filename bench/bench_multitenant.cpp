// Multi-tenant routing-overhead bench: what a kFlagNamespaced frame
// costs over the same server's un-namespaced fast path. The namespaced
// path adds a name prefix to every frame (encode + validate + decode)
// and a registry resolve (shared-lock lookup in a name-sorted vector)
// before the request reaches a backend — this harness prices exactly
// that delta, with everything else (socket, framing, dispatch, filter)
// held identical by running both paths against one server.
//
// Three query shapes are timed: the un-namespaced baseline, a client
// scoped to a single tenant, and a client that re-scopes every frame
// round-robin across all tenants (the worst case for resolve locality).
// The acceptance gate is scoped batch-64 <= 1.5x the baseline — the
// multi-tenant feature must not tax tenants who use it.
//
// The shapes run interleaved, one pass of each per rep, and the gate
// reads the median of the per-rep scoped/flat batch-64 ratios: a
// scheduling hiccup slows one pass, not the median, and both sides of
// each ratio share the rep's conditions.
//
// Telemetry goes to BENCH_multitenant.json (bench_json.hpp); the ns/key
// series are regression-gated by scripts/bench_compare.py. Min-of-reps
// is reported per shape (interference only adds time).
//
// Usage: bench_multitenant [--frames 400] [--reps 5] [--n 20000]
//        [--namespaces 8] [--workers 2] [--seed 7]
#include <algorithm>
#include <cstdio>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench_json.hpp"
#include "common/cli.hpp"
#include "core/mpcbf.hpp"
#include "metrics/timer.hpp"
#include "net/client.hpp"
#include "net/namespace_registry.hpp"
#include "net/protocol.hpp"
#include "net/server.hpp"
#include "workload/string_sets.hpp"

namespace {

using namespace mpcbf;

std::string tenant_name(std::size_t i) {
  return "tenant-" + std::to_string(i);
}

struct Setup {
  std::shared_ptr<core::Mpcbf<64>> filter;
  std::unique_ptr<net::Server> server;
  std::shared_ptr<net::NamespaceRegistry> registry;
  std::vector<std::string> keys;
  std::size_t namespaces;

  Setup(std::size_t n, std::size_t tenants, std::size_t workers,
        std::uint64_t seed)
      : namespaces(tenants) {
    // The default (un-namespaced) filter — the baseline path.
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
    net::NamespaceRegistry::Options ropts;
    ropts.start_ticker = false;  // no background interference
    registry = std::make_shared<net::NamespaceRegistry>(ropts);
    server->set_namespace_registry(registry);
    server->start();

    net::NsConfigWire ns_cfg;
    ns_cfg.kind = static_cast<std::uint8_t>(net::NsKind::kMemory);
    ns_cfg.memory_bits = 1u << 22;
    ns_cfg.expected_n = n;
    net::ErrorCode code;
    for (std::size_t t = 0; t < tenants; ++t) {
      const auto err = registry->create(tenant_name(t), ns_cfg, code);
      if (!err.empty()) throw std::runtime_error("ns create: " + err);
    }
    // Seed tenant 0 with the full key set (the single-tenant probe
    // target); the rest get a slice so interleaved queries hit real,
    // comparably occupied filters.
    net::Client c = client();
    seed_tenant(c, 0, keys.size());
    for (std::size_t t = 1; t < tenants; ++t) {
      seed_tenant(c, t, keys.size() / tenants);
    }
  }
  ~Setup() { server->stop(); }

  void seed_tenant(net::Client& c, std::size_t tenant,
                   std::size_t count) {
    c.set_namespace(tenant_name(tenant));
    constexpr std::size_t kBatch = 64;
    std::vector<std::string> req;
    for (std::size_t i = 0; i < count; i += kBatch) {
      req.assign(keys.begin() + static_cast<std::ptrdiff_t>(i),
                 keys.begin() + static_cast<std::ptrdiff_t>(
                                    std::min(i + kBatch, count)));
      (void)c.insert(req);
    }
    c.set_namespace("");
  }

  [[nodiscard]] net::Client client() const {
    net::Client::Options copts;
    copts.port = server->port();
    return net::Client(copts);
  }
};

/// ns/key of one pass of `frames` QUERY round trips of `batch` keys each
/// on `c`. `rotate` re-scopes every frame round-robin across every
/// tenant.
double query_ns_per_key(const Setup& s, net::Client& c, bool rotate,
                        std::size_t batch, std::size_t frames) {
  std::vector<std::string> req(batch);
  std::size_t cursor = 0;
  const auto t0 = metrics::now_ns();
  for (std::size_t f = 0; f < frames; ++f) {
    if (rotate) c.set_namespace(tenant_name(f % s.namespaces));
    for (std::size_t i = 0; i < batch; ++i) {
      req[i] = s.keys[(cursor + i) % s.keys.size()];
    }
    cursor += batch;
    const auto verdicts = c.query(req);
    if (verdicts.size() != batch) throw std::runtime_error("bad reply");
  }
  const auto ns = static_cast<double>(metrics::now_ns() - t0);
  return ns / static_cast<double>(frames * batch);
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t mid = v.size() / 2;
  return v.size() % 2 != 0 ? v[mid] : (v[mid - 1] + v[mid]) / 2;
}

/// NSLIST round-trip microseconds with every tenant registered, min
/// over `rounds` calls — the admin-plane cost of a full catalog walk.
double nslist_us(const Setup& s, std::size_t rounds) {
  net::Client c = s.client();
  double best = 1e300;
  for (std::size_t i = 0; i < rounds; ++i) {
    const auto t0 = metrics::now_ns();
    const auto rows = c.ns_list();
    const auto ns = static_cast<double>(metrics::now_ns() - t0);
    if (rows.size() != s.namespaces) {
      throw std::runtime_error("nslist row count mismatch");
    }
    best = std::min(best, ns / 1000.0);
  }
  return best;
}

}  // namespace

int main(int argc, char** argv) {
  mpcbf::util::CliArgs args(argc, argv);
  const std::size_t frames = args.get_uint("frames", 400);
  const int reps =
      std::max(1, static_cast<int>(args.get_uint("reps", 5)));
  const std::size_t n = args.get_uint("n", 20000);
  const std::size_t tenants = args.get_uint("namespaces", 8);
  const std::size_t workers = args.get_uint("workers", 2);
  const std::uint64_t seed = args.get_uint("seed", 7);

  Setup s(n, tenants, workers, seed);
  std::printf(
      "multi-tenant routing bench: %zu keys, %zu namespaces, port %u\n\n",
      n, tenants, unsigned(s.server->port()));

  struct Row {
    const char* label;
    std::string scope;  ///< "": un-namespaced, "*": rotate, else a tenant
    std::size_t batch;
    net::Client client;
    double ns_per_key = 1e300;  ///< min over reps
    double last = 0.0;          ///< this rep's pass
  };
  std::vector<Row> rows;
  const auto add_row = [&](const char* label, std::string scope,
                           std::size_t batch) {
    rows.push_back(Row{label, std::move(scope), batch, s.client()});
    if (rows.back().scope != "*") {
      rows.back().client.set_namespace(rows.back().scope);
    }
  };
  add_row("flat   batch=1 ", "", 1);
  add_row("scoped batch=1 ", tenant_name(0), 1);
  add_row("flat   batch=64", "", 64);
  add_row("scoped batch=64", tenant_name(0), 64);
  add_row("rotate batch=64", "*", 64);
  std::vector<double> ratios64;
  for (int rep = 0; rep < reps; ++rep) {
    for (auto& row : rows) {
      // Same wall-clock budget per row: fewer frames for bigger batches.
      const std::size_t f = std::max<std::size_t>(frames / row.batch, 50);
      row.last = query_ns_per_key(s, row.client, row.scope == "*",
                                  row.batch, f);
      row.ns_per_key = std::min(row.ns_per_key, row.last);
    }
    ratios64.push_back(rows[3].last / rows[2].last);
  }
  for (const auto& row : rows) {
    std::printf("query %s  %10.1f ns/key\n", row.label, row.ns_per_key);
  }
  const double list_us = nslist_us(s, 64);
  std::printf("nslist (%zu tenants)      %10.1f us\n", tenants, list_us);

  const double overhead1 = rows[1].ns_per_key / rows[0].ns_per_key;
  const double overhead64 = median(ratios64);
  const double overhead_rotate = rows[4].ns_per_key / rows[2].ns_per_key;
  std::printf(
      "\nrouting overhead: batch-1 %.2fx  batch-64 %.2fx (median of %d "
      "reps)  rotating %.2fx  (gate: scoped batch-64 <= 1.5x)\n",
      overhead1, overhead64, reps, overhead_rotate);

  mpcbf::bench::JsonReport report("multitenant");
  report.config("frames", frames);
  report.config("reps", reps);
  report.config("n", n);
  report.config("namespaces", tenants);
  report.config("workers", workers);
  report.metric("query_batch1_flat_ns_per_key", rows[0].ns_per_key, "ns");
  report.metric("query_batch1_scoped_ns_per_key", rows[1].ns_per_key, "ns");
  report.metric("query_batch64_flat_ns_per_key", rows[2].ns_per_key, "ns");
  report.metric("query_batch64_scoped_ns_per_key", rows[3].ns_per_key, "ns");
  report.metric("query_batch64_rotating_ns_per_key", rows[4].ns_per_key, "ns");
  report.metric("routing_overhead_batch64_x", overhead64, "x");
  report.metric("nslist_us", list_us, "us");
  report.write();

  if (overhead64 > 1.5) {
    std::fprintf(stderr,
                 "FAIL: scoped batch-64 routing overhead %.2fx above "
                 "the 1.5x gate\n",
                 overhead64);
    return 1;
  }
  return 0;
}
