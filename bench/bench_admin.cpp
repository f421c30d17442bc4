// Admin-plane overhead — what the observability layer costs the hot
// path when nobody is looking, and what it costs when it is armed:
//
//   query+log-site        a filter query loop with a *disarmed* debug
//                         log site inside (below the level gate: one
//                         relaxed load + untaken branch per iteration);
//   admitted line         formatting + sinking one logfmt line into a
//                         null sink (the steady-state cost of a line
//                         that IS written);
//   suppressed line       a site over its rate budget (counter bump);
//   slow-ring record      one seqlock slot rewrite;
//   slow-ring snapshot    reading all 256 slots + Chrome JSON render,
//                         i.e. one /tracez request's CPU.
//
// scripts/bench_compare.py gates the ns metrics against
// results/json/baseline/BENCH_admin.json.
//
// Usage: bench_admin [--n 100000] [--queries 1000000] [--seed 7]
#include "bench_common.hpp"
#include "common/log.hpp"
#include "trace/trace.hpp"

namespace {

using namespace mpcbf;

template <typename Fn>
double best_of(int reps, std::uint64_t ops, Fn&& fn) {
  double best = 1e300;
  for (int r = 0; r < reps; ++r) {
    util::Stopwatch watch;
    fn();
    best = std::min(best, watch.elapsed_seconds());
  }
  return best * 1e9 / static_cast<double>(ops);
}

}  // namespace

int main(int argc, char** argv) {
  util::CliArgs args(argc, argv);
  const std::size_t n = args.get_uint("n", 100000);
  const std::size_t num_queries = args.get_uint("queries", 1000000);
  const std::uint64_t seed = args.get_uint("seed", 7);
  args.reject_unknown({"n", "queries", "seed"});
  mpcbf::bench::JsonReport report("admin");
  report.config("n", n);
  report.config("queries", num_queries);
  report.config("seed", seed);

  std::cout << "=== Admin-plane overhead ===\n"
            << "n=" << n << " queries=" << num_queries << " seed=" << seed
            << "\n\n";

  const auto keys = workload::generate_unique_strings(n, 5, seed);
  const auto qs =
      workload::build_query_set(keys, num_queries, 0.5, seed + 1);

  core::MpcbfConfig cfg;
  cfg.memory_bits = std::max<std::size_t>(n * 16, 1 << 16);
  cfg.k = 3;
  cfg.g = 1;
  cfg.expected_n = n;
  cfg.seed = seed;
  cfg.policy = core::OverflowPolicy::kStash;
  core::Mpcbf<64> filter(cfg);
  for (const auto& k : keys) filter.insert(k);

  auto& logger = log::Logger::global();
  logger.set_level(log::Level::kWarn);  // debug sites below the gate

  // The acceptance loop: one query + one disarmed debug log site per
  // iteration.
  std::uint64_t sink = 0;
  const double query_log_site_ns = best_of(3, qs.queries.size(), [&] {
    for (const auto& q : qs.queries) {
      const bool hit = filter.contains(q);
      sink += hit ? 1 : 0;
      MPCBF_LOG_DEBUG("bench.query", log::boolean("hit", hit),
                      log::u64("len", q.size()));
    }
  });

  util::Table table({"path", "ns/op"});
  table.row().add("query + disarmed log site").addf(query_log_site_ns, 2);
  report.metric("query_log_disarmed_ns", query_log_site_ns, "ns");

  // Armed costs, measured into a null sink so the numbers are the
  // logger's, not the filesystem's. The rate limiter is bypassed
  // (null site) for the admitted-line number and exercised for the
  // suppressed-line number.
  logger.set_sink([](std::string_view) {});
  logger.set_level(log::Level::kDebug);

  constexpr std::size_t kLines = 200000;
  const double admitted_ns = best_of(3, kLines, [&] {
    for (std::size_t i = 0; i < kLines; ++i) {
      logger.log(log::Level::kInfo, "bench.line",
                 {log::u64("i", i), log::str("tag", "steady"),
                  log::hex("id", 0x1234abcd5678ef00ull + i)},
                 nullptr);
    }
  });

  // One static site hammered far over budget: after the first 16 lines
  // per rolled window every call is a suppressed-count bump.
  const double suppressed_ns = best_of(3, kLines, [&] {
    for (std::size_t i = 0; i < kLines; ++i) {
      MPCBF_LOG_INFO("bench.storm", log::u64("i", i));
    }
  });

  logger.set_level(log::Level::kWarn);
  logger.set_sink(nullptr);

  // The spans the server records for a slow batch-64 query.
  trace::SpanRing ring;
  constexpr std::size_t kRecords = 1000000;
  const double record_ns = best_of(3, kRecords, [&] {
    trace::Span s;
    s.name = "query";
    s.cat = trace::Category::kNet;
    s.arg_name = "batch_keys";
    s.arg = 64;
    s.peer = (0x7F000001ull << 16) | 40000;
    for (std::size_t i = 0; i < kRecords; ++i) {
      s.ts_ns = i;
      s.dur_ns = i * 3;
      s.trace_id = i + 1;
      ring.record(s);
    }
  });

  constexpr std::size_t kSnapshots = 2000;
  std::size_t json_bytes = 0;
  const double snapshot_ns = best_of(3, kSnapshots, [&] {
    for (std::size_t i = 0; i < kSnapshots; ++i) {
      std::string body;
      trace::append_chrome_json(body, ring.snapshot());
      json_bytes += body.size();
    }
  });

  table.row().add("log line (admitted, null sink)").addf(admitted_ns, 2);
  table.row().add("log line (rate-suppressed)").addf(suppressed_ns, 2);
  table.row().add("slow-ring record").addf(record_ns, 2);
  table.row().add("slow-ring snapshot + JSON (/tracez)")
      .addf(snapshot_ns, 2);
  report.metric("log_line_admitted_ns", admitted_ns, "ns");
  report.metric("log_line_suppressed_ns", suppressed_ns, "ns");
  report.metric("slow_ring_record_ns", record_ns, "ns");
  report.metric("tracez_render_ns", snapshot_ns, "ns");
  sink += json_bytes;

  table.print(std::cout);
  std::cout << "(sink " << sink % 10 << ")\n";
  report.write();
  return 0;
}
