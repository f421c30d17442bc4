// mpcbf_tool — command-line front end for building, querying, planning
// and persisting MPCBF filters. The kind of utility an operator uses to
// pre-build a filter offline (e.g. the patent-key filter of Sec. V) and
// ship it to consumers.
//
// Subcommands:
//   plan  --n N --fpr F [--accesses G]        size a filter from the model
//   build --keys FILE --out FILTER [...]      build & save from a key file
//   query --filter FILTER --keys FILE         membership-check a key file
//         [--batch]                           via the batched engine pipeline
//   merge --a F1 --b F2 --out F3              counter-wise union of filters
//   stats --filter FILTER | --dir D           layout + metric registry dump
//         [--keys FILE] [--prometheus]        (optionally after a workload)
//   verify --filter FILTER                    integrity-check a snapshot file
//   snapshot --dir D [--keys FILE] [...]      append to a durable dir & compact
//   recover --dir D [--out FILTER]            rebuild state from a durable dir
//   health --filter FILTER | --dir D          saturation / FPR-drift probe
//          [--probes N] [--warn S] [--critical S] [--prometheus]
//          [--watch] [--interval-ms MS]       re-probe until SIGINT/SIGTERM
//   trace --keys FILE [--filter F | --dir D]  record a keyfile replay to
//         [--out T.trace.json] [--timeline T] Chrome trace-event JSON
//   serve --dir D | --filter F | (sizing)     run mpcbfd (docs/server.md)
//         [--port P] [--bind A] [--workers N] until SIGINT/SIGTERM; durable
//         [--port-file PATH]                  dirs snapshot on shutdown
//         [--admin-port P] [--admin-bind A]   HTTP admin plane (/metrics,
//         [--admin-port-file PATH]            /healthz, /readyz, /statusz,
//                                             /tracez) on a separate port
//         [--log-level L] [--log-file PATH]   structured logging; L one of
//         [--log-json]                        debug|info|warn|error|off
//         [--slow-request-threshold-us N]     record requests over N us to
//                                             /tracez and the log
//         [--follow H:P[,H:P...]]             follower: tail a primary's
//                                             journal (requires --dir);
//                                             read-only until caught up
//         [--elastic]                         chain-of-segments backend that
//         [--route-bits N] [--grow-score S]   grows online (sizing flags
//         [--probe-stride N]                  size one segment); with --dir
//         [--max-segments N]                  the chain is WAL-journaled
//         [--maintenance-ms MS]               drain/gauge cadence
//         [--namespaces]                      multi-tenant registry: clients
//         [--ns-root DIR]                     create/drop namespaces over
//                                             the wire (docs/server.md);
//                                             durable namespaces live under
//                                             DIR/ns-<name>/ (default --dir)
//   topology --dir D                          segment chain of an elastic
//                                             durable dir + CRC digest
//   client --port P [--host H]                one batched RPC against a
//          --op query|insert|erase|est_count| running server
//               stats|health|snapshot|
//               replstatus
//          [--keys FILE] [--verbose]
//          [--ns NAME]                        scope filter ops to a namespace
//   ns <create|drop|list|tick>                namespace admin against a
//      --port P [--host H]                    running server
//      create: --name N [--kind memory|durable|decay|durable-decay]
//              [--memory-bits B] [--k K] [--g G] [--expected-n N]
//              [--generations G] [--tick-interval-ms MS]
//              [--max-keys N] [--max-memory-bytes B]
//      drop/tick: --name N
//   replstatus --port P [--host H]            replication watermarks; exit
//                                             0 only when caught up
//   proxy --target-port P [--target-host H]   chaos TCP forwarder
//         [--port P] [--port-file PATH]       (net/fault_proxy.hpp) for
//         [--delay-ms N]                      failure-injection tests
//
// Key files are newline-separated keys. A "durable dir" is a
// DurableMpcbf directory (write-ahead journal + checksummed snapshots,
// see docs/persistence.md); `snapshot` creates one on first use from the
// sizing flags (--memory-bits/--k/--g/--expected-n/--n-max).
#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <vector>

#include "common/cli.hpp"
#include "common/log.hpp"
#include "core/durable_mpcbf.hpp"
#include "core/elastic_mpcbf.hpp"
#include "core/mpcbf.hpp"
#include "io/crc32c.hpp"
#include "metrics/export.hpp"
#include "metrics/health.hpp"
#include "model/planner.hpp"
#include "net/client.hpp"
#include "net/fault_proxy.hpp"
#include "net/http.hpp"
#include "net/namespace_registry.hpp"
#include "net/replication.hpp"
#include "net/server.hpp"
#include "net/shutdown.hpp"
#include "trace/trace.hpp"

namespace {

std::vector<std::string> read_keys(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open key file: " + path);
  std::vector<std::string> keys;
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty()) keys.push_back(line);
  }
  return keys;
}

int cmd_plan(const mpcbf::util::CliArgs& args) {
  mpcbf::model::PlanRequirements req;
  req.expected_n = args.get_uint("n", 100000);
  req.target_fpr = args.get_double("fpr", 1e-3);
  req.max_accesses = static_cast<unsigned>(args.get_uint("accesses", 1));
  const auto plan = mpcbf::model::plan_mpcbf(req);
  const auto cbf = mpcbf::model::plan_cbf(req);
  if (!plan.feasible) {
    std::cerr << "no feasible MPCBF configuration within the memory cap\n";
    return 1;
  }
  std::cout << "MPCBF-" << plan.g << ": " << plan.memory_bits / 8 / 1024
            << " KiB, k=" << plan.k << ", n_max=" << plan.n_max
            << ", b1=" << plan.b1 << ", predicted fpr="
            << plan.predicted_fpr << " ("
            << plan.bits_per_element(req.expected_n) << " bits/element)\n";
  if (cbf.feasible) {
    std::cout << "CBF (for comparison): " << cbf.memory_bits / 8 / 1024
              << " KiB at k=" << cbf.k << " (" << cbf.k
              << " memory accesses/query vs MPCBF's " << plan.g << ")\n";
  }
  return 0;
}

int cmd_build(const mpcbf::util::CliArgs& args) {
  const auto keys = read_keys(args.get_string("keys", ""));
  mpcbf::core::MpcbfConfig cfg;
  // --expected-n sizes the per-word capacity for a larger future
  // population (e.g. the total after merging several shards).
  cfg.expected_n = args.get_uint("expected-n", keys.size());
  cfg.k = static_cast<unsigned>(args.get_uint("k", 3));
  cfg.g = static_cast<unsigned>(args.get_uint("g", 1));
  cfg.memory_bits = args.get_uint("memory-bits", 0);
  if (cfg.memory_bits == 0) {
    // No size given: plan one from the target FPR.
    mpcbf::model::PlanRequirements req;
    req.expected_n = keys.size();
    req.target_fpr = args.get_double("fpr", 1e-3);
    req.max_accesses = cfg.g;
    const auto plan = mpcbf::model::plan_mpcbf(req);
    if (!plan.feasible) {
      std::cerr << "no feasible configuration for target fpr\n";
      return 1;
    }
    cfg.memory_bits = plan.memory_bits;
    cfg.k = plan.k;
    cfg.g = plan.g;
  }
  cfg.policy = mpcbf::core::OverflowPolicy::kStash;
  mpcbf::core::Mpcbf<64> filter(cfg);
  for (const auto& key : keys) {
    filter.insert(key);
  }
  const std::string out = args.get_string("out", "filter.mpcbf");
  std::ofstream os(out, std::ios::binary);
  filter.save(os);
  std::cout << "built " << out << ": " << filter.size() << " keys in "
            << filter.memory_bits() / 8 / 1024 << " KiB (k=" << filter.k()
            << ", g=" << filter.g() << ", b1=" << filter.b1()
            << ", stash=" << filter.stash_size() << ")\n";
  return 0;
}

int cmd_query(const mpcbf::util::CliArgs& args) {
  std::ifstream is(args.get_string("filter", "filter.mpcbf"),
                   std::ios::binary);
  if (!is) {
    std::cerr << "cannot open filter file\n";
    return 1;
  }
  auto filter = mpcbf::core::Mpcbf<64>::load(is);
  const auto keys = read_keys(args.get_string("keys", ""));
  std::size_t hits = 0;
  if (args.get_bool("batch")) {
    // Engine batch pipeline (derive → gather → resolve): same verdicts
    // as the scalar loop, fewer memory stalls on large filters.
    std::vector<std::uint8_t> out(keys.size());
    filter.contains_batch(keys, out);
    for (std::size_t i = 0; i < keys.size(); ++i) {
      hits += out[i];
      if (args.get_bool("verbose")) {
        std::cout << (out[i] ? "+ " : "- ") << keys[i] << "\n";
      }
    }
  } else {
    for (const auto& key : keys) {
      const bool hit = filter.contains(key);
      hits += hit;
      if (args.get_bool("verbose")) {
        std::cout << (hit ? "+ " : "- ") << key << "\n";
      }
    }
  }
  std::cout << hits << "/" << keys.size() << " keys positive\n";
  return 0;
}

int cmd_merge(const mpcbf::util::CliArgs& args) {
  std::ifstream a_in(args.get_string("a", ""), std::ios::binary);
  std::ifstream b_in(args.get_string("b", ""), std::ios::binary);
  if (!a_in || !b_in) {
    std::cerr << "cannot open input filters (--a / --b)\n";
    return 1;
  }
  auto a = mpcbf::core::Mpcbf<64>::load(a_in);
  const auto b = mpcbf::core::Mpcbf<64>::load(b_in);
  if (!a.compatible(b)) {
    std::cerr << "filters have different layouts/seeds; cannot merge\n";
    return 1;
  }
  if (!a.merge(b)) {
    std::cerr << "merge would overflow a word; rebuild with more memory\n";
    return 1;
  }
  const std::string out = args.get_string("out", "merged.mpcbf");
  std::ofstream os(out, std::ios::binary);
  a.save(os);
  std::cout << "merged " << a.size() << " keys into " << out << "\n";
  return 0;
}

// Loads either a plain saved filter (v2-framed or bare v1) or a
// DurableMpcbf snapshot file, whose frame payload carries the durable
// magic and journal watermark ahead of the filter payload.
mpcbf::core::Mpcbf<64> load_any_filter(std::istream& is) {
  const auto magic = mpcbf::io::read_raw_magic(is);
  if (mpcbf::io::magic_equals(magic, mpcbf::io::kFrameMagic)) {
    std::istringstream payload(
        mpcbf::io::read_frame_payload_after_magic(is));
    const auto inner = mpcbf::io::read_raw_magic(payload);
    if (mpcbf::io::magic_equals(
            inner, mpcbf::core::DurableMpcbf<64>::kSnapshotMagic)) {
      (void)mpcbf::io::read_pod<std::uint64_t>(payload);  // watermark
    } else if (mpcbf::io::magic_equals(inner,
                                       mpcbf::core::Mpcbf<64>::kMagic)) {
      payload.seekg(0);  // plain save(): payload is the bare v1 stream
    } else {
      throw std::runtime_error("unrecognized frame payload magic");
    }
    return mpcbf::core::Mpcbf<64>::load_payload(payload);
  }
  if (mpcbf::io::magic_equals(magic, mpcbf::core::Mpcbf<64>::kMagic)) {
    is.seekg(0);
    return mpcbf::core::Mpcbf<64>::load(is);
  }
  throw std::runtime_error("unrecognized magic");
}

// Layout report for a saved filter (--filter) or a durable directory
// (--dir, recovered through the WAL — which also populates the journal/
// durability series). With --keys the key file is replayed as a query
// workload (scalar + batch passes, exercising both accounting paths)
// before the metric registry is dumped: Prometheus exposition format
// under --prometheus, the one-line-per-series human summary otherwise.
int cmd_stats(const mpcbf::util::CliArgs& args) {
  const std::string dir = args.get_string("dir", "");
  const auto filter = [&]() -> mpcbf::core::Mpcbf<64> {
    if (!dir.empty()) {
      return mpcbf::core::DurableMpcbf<64>::recover(dir);
    }
    const std::string path = args.get_string("filter", "filter.mpcbf");
    std::ifstream is(path, std::ios::binary);
    if (!is) throw std::runtime_error("cannot open filter file: " + path);
    return load_any_filter(is);
  }();
  std::cout << "words:          " << filter.num_words() << " x 64 bits\n"
            << "memory:         " << filter.memory_bits() / 8 / 1024
            << " KiB\n"
            << "k / g:          " << filter.k() << " / " << filter.g() << "\n"
            << "b1 / n_max:     " << filter.b1() << " / " << filter.n_max()
            << "\n"
            << "elements:       " << filter.size() << "\n"
            << "hierarchy bits: " << filter.total_hierarchy_bits() << " ("
            << "max/word " << filter.max_word_hierarchy_bits() << ")\n"
            << "stash entries:  " << filter.stash_size() << "\n"
            << "valid:          " << (filter.validate() ? "yes" : "NO") << "\n";
  const std::string key_file = args.get_string("keys", "");
  if (!key_file.empty()) {
    const auto keys = read_keys(key_file);
    std::size_t hits = 0;
    for (const auto& key : keys) {
      hits += filter.contains(key) ? 1 : 0;
    }
    std::vector<std::uint8_t> out(keys.size());
    filter.contains_batch(keys, out);
    std::cout << "workload:       " << keys.size() << " keys, " << hits
              << " positive\n";
  }
  auto& reg = mpcbf::metrics::Registry::global();
  mpcbf::metrics::publish_filter(reg, dir.empty() ? "mpcbf64" : "durable",
                                 filter);
  if (args.get_bool("prometheus")) {
    reg.write_prometheus(std::cout);
  } else {
    std::cout << "--- metrics ---\n";
    reg.write_summary(std::cout);
  }
  return 0;
}

int cmd_verify(const mpcbf::util::CliArgs& args) {
  const std::string path = args.get_string("filter", "filter.mpcbf");
  std::ifstream is(path, std::ios::binary);
  if (!is) {
    std::cerr << "cannot open filter file: " << path << "\n";
    return 1;
  }
  try {
    const auto filter = load_any_filter(is);
    // load() already CRC-checked the frame and cross-validated the
    // state; validate() re-derives the word invariants as a belt.
    if (!filter.validate()) {
      std::cerr << path << ": INVALID (word state inconsistent)\n";
      return 1;
    }
    std::cout << path << ": ok (" << filter.size() << " elements, "
              << filter.memory_bits() / 8 / 1024 << " KiB, stash "
              << filter.stash_size() << ")\n";
    return 0;
  } catch (const std::exception& e) {
    std::cerr << path << ": CORRUPT: " << e.what() << "\n";
    return 1;
  }
}

mpcbf::core::MpcbfConfig durable_config(const mpcbf::util::CliArgs& args) {
  mpcbf::core::MpcbfConfig cfg;
  cfg.memory_bits = args.get_uint("memory-bits", 1 << 20);
  cfg.k = static_cast<unsigned>(args.get_uint("k", 3));
  cfg.g = static_cast<unsigned>(args.get_uint("g", 1));
  cfg.expected_n = args.get_uint("expected-n", 0);
  cfg.n_max = static_cast<unsigned>(args.get_uint("n-max", 0));
  if (cfg.expected_n == 0 && cfg.n_max == 0) {
    cfg.expected_n = args.get_uint("memory-bits", 1 << 20) / 16;
  }
  cfg.policy = mpcbf::core::OverflowPolicy::kStash;
  return cfg;
}

// Elastic chain config: sizing flags describe ONE segment; the chain
// flags describe when and how far it grows.
mpcbf::core::ElasticConfig elastic_config(const mpcbf::util::CliArgs& args) {
  mpcbf::core::ElasticConfig cfg;
  cfg.segment = durable_config(args);
  cfg.route_bits =
      static_cast<unsigned>(args.get_uint("route-bits", 6));
  cfg.grow_score = args.get_double("grow-score", 70.0);
  cfg.probe_stride = args.get_uint("probe-stride", 256);
  cfg.max_segments = args.get_uint("max-segments", 64);
  return cfg;
}

// Segment-chain report for an elastic durable dir: per-segment load,
// bucket ownership counts, and a CRC32C digest of the topology record —
// the line scripts compare across kill/recover to prove the chain came
// back byte-identical.
int cmd_topology(const mpcbf::util::CliArgs& args) {
  const std::string dir = args.get_string("dir", "");
  if (dir.empty()) {
    std::cerr << "topology: --dir is required\n";
    return 2;
  }
  const auto filter = mpcbf::core::DurableElasticMpcbf<64>::recover(dir);
  std::cout << "segments:       " << filter.live_segments() << " live / "
            << filter.num_segments() << " total\n"
            << "route buckets:  " << filter.num_buckets() << "\n"
            << "grows/retires:  " << filter.grows() << " / "
            << filter.retires() << "\n"
            << "elements:       " << filter.size() << "\n"
            << "memory:         " << filter.memory_bits() / 8 / 1024
            << " KiB\n"
            << "model FPR:      " << filter.model_fpr() << "\n"
            << "valid:          " << (filter.validate() ? "yes" : "NO")
            << "\n";
  std::vector<std::size_t> owned(filter.num_segments(), 0);
  for (std::uint32_t b = 0; b < filter.num_buckets(); ++b) {
    ++owned[filter.owner(b)];
  }
  for (std::size_t i = 0; i < filter.num_segments(); ++i) {
    const auto* seg = filter.segment(i);
    if (seg == nullptr) {
      std::cout << "  segment " << i << ": retired\n";
      continue;
    }
    std::cout << "  segment " << i << ": " << seg->size() << " elements, "
              << owned[i] << " buckets, score "
              << filter.segment_score(i) << "\n";
  }
  const std::string topo = filter.topology_bytes();
  char digest[16];
  std::snprintf(digest, sizeof digest, "%08x",
                mpcbf::io::crc32c(topo.data(), topo.size()));
  std::cout << "topology digest: " << digest << "\n";
  return filter.validate() ? 0 : 1;
}

int cmd_snapshot(const mpcbf::util::CliArgs& args) {
  const std::string dir = args.get_string("dir", "");
  if (dir.empty()) {
    std::cerr << "snapshot: --dir is required\n";
    return 2;
  }
  // An existing directory dictates its own layout; the sizing flags only
  // matter the first time, when the durable state is created.
  auto durable = [&] {
    try {
      return mpcbf::core::DurableMpcbf<64>::open_existing(dir);
    } catch (const std::runtime_error&) {
      return mpcbf::core::DurableMpcbf<64>(dir, durable_config(args));
    }
  }();
  const std::string key_file = args.get_string("keys", "");
  std::size_t appended = 0;
  if (!key_file.empty()) {
    for (const auto& key : read_keys(key_file)) {
      durable.insert(key);
      ++appended;
    }
  }
  durable.snapshot();
  std::cout << "snapshot " << dir << ": +" << appended << " keys, "
            << durable.size() << " total, journal compacted at seq "
            << durable.next_seq() - 1 << "\n";
  return 0;
}

int cmd_recover(const mpcbf::util::CliArgs& args) {
  const std::string dir = args.get_string("dir", "");
  if (dir.empty()) {
    std::cerr << "recover: --dir is required\n";
    return 2;
  }
  const auto filter = mpcbf::core::DurableMpcbf<64>::recover(dir);
  std::cout << "recovered " << dir << ": " << filter.size()
            << " elements, stash " << filter.stash_size() << ", valid: "
            << (filter.validate() ? "yes" : "NO") << "\n";
  const std::string out = args.get_string("out", "");
  if (!out.empty()) {
    std::ofstream os(out, std::ios::binary);
    filter.save(os);
    std::cout << "exported to " << out << "\n";
  }
  return 0;
}


// Health probe of a saved filter (--filter) or durable directory
// (--dir): publishes the mpcbf_health_* gauges, prints the sample, and
// exits non-zero when the saturation score crosses --critical.
int cmd_health(const mpcbf::util::CliArgs& args) {
  const std::string dir = args.get_string("dir", "");
  const auto filter = [&]() -> mpcbf::core::Mpcbf<64> {
    if (!dir.empty()) {
      return mpcbf::core::DurableMpcbf<64>::recover(dir);
    }
    const std::string path = args.get_string("filter", "filter.mpcbf");
    std::ifstream is(path, std::ios::binary);
    if (!is) throw std::runtime_error("cannot open filter file: " + path);
    return load_any_filter(is);
  }();

  mpcbf::metrics::HealthProber::Config cfg;
  cfg.filter_label = dir.empty() ? "mpcbf64" : "durable";
  cfg.warn_score = args.get_double("warn", 70.0);
  cfg.critical_score = args.get_double("critical", 90.0);
  cfg.fpr_probes = args.get_uint("probes", 4096);
  cfg.on_alarm = [](const mpcbf::metrics::HealthSample& s) {
    std::cerr << "ALARM [" << mpcbf::metrics::to_string(s.severity)
              << "]: saturation score " << s.saturation_score << "\n";
  };
  mpcbf::metrics::HealthProber prober(cfg);

  if (args.get_bool("watch")) {
    // Re-probe on an interval until SIGINT/SIGTERM (same latch as
    // `serve`), then flush the registry and exit 0 — so a supervised
    // watcher always leaves a final scrape behind.
    mpcbf::net::ShutdownSignal::install();
    const auto interval =
        std::chrono::milliseconds(args.get_uint("interval-ms", 1000));
    while (!mpcbf::net::ShutdownSignal::requested()) {
      const auto w = prober.probe(filter);
      std::cout << "health: score=" << w.saturation_score << " severity="
                << mpcbf::metrics::to_string(w.severity)
                << " fill=" << w.level1_fill << " fpr=" << w.measured_fpr
                << " drift=" << w.fpr_drift << std::endl;
      mpcbf::net::ShutdownSignal::wait(interval);
    }
    if (args.get_bool("prometheus")) {
      mpcbf::metrics::Registry::global().write_prometheus(std::cout);
    }
    std::cout << "health watch: shutdown signal received, exiting\n";
    return 0;
  }

  const auto s = prober.probe(filter);

  std::cout << "severity:              " << mpcbf::metrics::to_string(s.severity)
            << "\n"
            << "saturation score:      " << s.saturation_score << " / 100\n"
            << "level-1 fill:          " << s.level1_fill << "\n"
            << "hierarchy utilization: " << s.hierarchy_utilization << "\n"
            << "stash pressure:        " << s.stash_pressure << "\n"
            << "overflow rate:         " << s.overflow_rate << "\n"
            << "predicted FPR:         " << s.predicted_fpr << "\n"
            << "measured FPR:          " << s.measured_fpr << " ("
            << cfg.fpr_probes << " probes)\n"
            << "FPR drift:             " << s.fpr_drift << "\n";
  if (args.get_bool("prometheus")) {
    mpcbf::metrics::Registry::global().write_prometheus(std::cout);
  }
  return s.severity == mpcbf::metrics::Severity::kCritical ? 1 : 0;
}

// Records a traced keyfile replay. Against --filter the replay inserts
// then queries every key through an in-memory Mpcbf (core spans:
// insert, level walk, query, word fetch). Against --dir the keys run
// through a DurableMpcbf, adding the WAL append/group-commit/fsync and
// snapshot spans. Output is Chrome trace-event JSON for
// chrome://tracing / Perfetto; --timeline additionally writes the plain
// text view.
int cmd_trace(const mpcbf::util::CliArgs& args) {
  const auto keys = read_keys(args.get_string("keys", ""));
  const std::string out = args.get_string("out", "replay.trace.json");
  const std::string dir = args.get_string("dir", "");

  auto& tracer = mpcbf::trace::Tracer::global();
  tracer.clear();
  tracer.arm();
  // Runs `op` on every key, moving the thread ring's spans to the
  // tracer's backlog every kDrainEvery keys: the ring holds 16384
  // spans, a few thousand keys' worth, so a replay that drained only at
  // the end would drop the rest.
  constexpr std::size_t kDrainEvery = 1024;
  const auto replay = [&](auto&& op) {
    for (std::size_t i = 0; i < keys.size(); ++i) {
      op(keys[i]);
      if ((i + 1) % kDrainEvery == 0) (void)tracer.drain();
    }
  };
  std::size_t hits = 0;
  if (!dir.empty()) {
    auto durable = [&] {
      try {
        return mpcbf::core::DurableMpcbf<64>::open_existing(dir);
      } catch (const std::runtime_error&) {
        return mpcbf::core::DurableMpcbf<64>(dir, durable_config(args));
      }
    }();
    replay([&](const std::string& key) { durable.insert(key); });
    replay([&](const std::string& key) {
      hits += durable.contains(key) ? 1 : 0;
    });
    durable.snapshot();
  } else {
    const std::string path = args.get_string("filter", "");
    auto filter = [&]() -> mpcbf::core::Mpcbf<64> {
      if (!path.empty()) {
        std::ifstream is(path, std::ios::binary);
        if (!is) {
          throw std::runtime_error("cannot open filter file: " + path);
        }
        return load_any_filter(is);
      }
      mpcbf::core::MpcbfConfig cfg;
      cfg.memory_bits = 1 << 20;
      cfg.expected_n = std::max<std::size_t>(keys.size(), 1);
      cfg.policy = mpcbf::core::OverflowPolicy::kStash;
      return mpcbf::core::Mpcbf<64>(cfg);
    }();
    replay([&](const std::string& key) { filter.insert(key); });
    replay([&](const std::string& key) {
      hits += filter.contains(key) ? 1 : 0;
    });
  }
  tracer.disarm();

  std::ofstream os(out);
  if (!os) {
    std::cerr << "cannot write trace file: " << out << "\n";
    return 1;
  }
  const std::uint64_t dropped = tracer.dropped();
  tracer.write_chrome_json(os);
  std::cout << "traced " << keys.size() << " keys (" << hits
            << " positive) to " << out;
  if (dropped != 0) std::cout << " [" << dropped << " events dropped]";
  std::cout << "\n";
  const std::string timeline = args.get_string("timeline", "");
  if (!timeline.empty()) {
    // write_chrome_json drained the backlog; the timeline writer reuses
    // the same backlog, so re-emit from a fresh capture is not needed.
    std::ofstream ts(timeline);
    tracer.write_timeline(ts);
    std::cout << "timeline written to " << timeline << "\n";
  }
  tracer.clear();
  return 0;
}

// Splits "host:port[,host:port...]" into endpoints.
std::vector<mpcbf::net::Endpoint> parse_endpoints(
    const std::string& spec) {
  std::vector<mpcbf::net::Endpoint> endpoints;
  std::stringstream ss(spec);
  std::string item;
  while (std::getline(ss, item, ',')) {
    const auto colon = item.rfind(':');
    if (colon == std::string::npos || colon + 1 >= item.size()) {
      throw std::runtime_error("bad endpoint (want host:port): " + item);
    }
    mpcbf::net::Endpoint ep;
    ep.host = item.substr(0, colon);
    ep.port = static_cast<std::uint16_t>(
        std::stoul(item.substr(colon + 1)));
    endpoints.push_back(std::move(ep));
  }
  if (endpoints.empty()) {
    throw std::runtime_error("no endpoints in: " + spec);
  }
  return endpoints;
}

// Runs mpcbfd until SIGINT/SIGTERM. Backing modes:
//   --dir D      durable: WAL-first mutations, final snapshot on shutdown
//   --filter F   serve a pre-built snapshot (read-mostly deployments)
//   (neither)    fresh in-memory filter from the sizing flags
//   --dir D --follow H:P[,...]   durable follower: bootstraps from and
//                tails the primary's journal; serves queries only (the
//                HEALTH ready bit stays 0 until it has caught up)
// --port 0 (the default) binds an ephemeral port; --port-file writes the
// resolved port for scripted callers (the CI smoke test uses it).
int cmd_serve(const mpcbf::util::CliArgs& args) {
  args.reject_unknown(
      {"dir", "filter", "follow", "elastic", "namespaces", "ns-root",
       "probes", "maintenance-ms", "bind", "port", "port-file", "workers",
       "slow-request-threshold-us", "admin-port", "admin-bind",
       "admin-port-file", "log-level", "log-json", "log-file", "prometheus",
       // durable_config / elastic_config sizing flags
       "memory-bits", "k", "g", "expected-n", "n-max", "route-bits",
       "grow-score", "probe-stride", "max-segments"});
  mpcbf::net::ShutdownSignal::install();

  // Logging first, so every later subsystem (backend open, replication,
  // the servers) emits through the configured sink. The library default
  // is warn; a daemon wants its lifecycle lines, so serve defaults to
  // info.
  {
    auto& logger = mpcbf::log::Logger::global();
    mpcbf::log::Level lvl = mpcbf::log::Level::kInfo;
    const std::string level_str = args.get_string("log-level", "info");
    if (!mpcbf::log::parse_level(level_str, lvl)) {
      std::cerr << "serve: bad --log-level (want "
                   "debug|info|warn|error|off): " << level_str << "\n";
      return 2;
    }
    logger.set_level(lvl);
    if (args.get_bool("log-json")) {
      logger.set_format(mpcbf::log::Logger::Format::kJson);
    }
    const std::string log_file = args.get_string("log-file", "");
    if (!log_file.empty() && !logger.open_file(log_file)) {
      std::cerr << "serve: cannot open --log-file " << log_file << "\n";
      return 2;
    }
  }

  const std::string dir = args.get_string("dir", "");
  const std::string filter_path = args.get_string("filter", "");
  const std::string follow = args.get_string("follow", "");
  const bool elastic = args.get_bool("elastic");
  if (!dir.empty() &&
      std::filesystem::exists(std::filesystem::path(dir) /
                              "shards.manifest")) {
    // A directory the removed sharded server wrote keeps its state in
    // per-shard subdirectories; opened flat it would serve an empty
    // filter.
    std::cerr << "serve: " << dir
              << " was written by the sharded server (--cores), which has "
                 "been removed. " << dir
              << "/merged.filter holds the union of its shards as of the "
                 "last clean shutdown; serve it with --filter.\n";
    return 2;
  }
  if (!follow.empty() && dir.empty()) {
    std::cerr << "serve: --follow requires --dir (the follower's own "
                 "durable directory)\n";
    return 2;
  }
  if (elastic && !follow.empty()) {
    std::cerr << "serve: --elastic cannot combine with --follow yet "
                 "(the replication agent speaks flat durable dirs)\n";
    return 2;
  }
  if (elastic && !filter_path.empty()) {
    std::cerr << "serve: --elastic takes sizing flags or --dir, not "
                 "--filter\n";
    return 2;
  }

  std::shared_ptr<mpcbf::core::DurableMpcbf<64>> durable;
  std::shared_ptr<mpcbf::core::Mpcbf<64>> plain;
  std::shared_ptr<mpcbf::core::DurableElasticMpcbf<64>> elastic_durable;
  std::shared_ptr<mpcbf::core::ElasticMpcbf<64>> elastic_plain;
  std::unique_ptr<mpcbf::core::ElasticMaintainer> maintainer;
  std::unique_ptr<mpcbf::net::Replicator> replicator;
  mpcbf::net::FilterBackend backend;
  std::function<void(std::string&)> status_extra;  // extra /statusz lines
  if (elastic) {
    // Chain backend: segments split online when the active segment's
    // health crosses the grow score; a background maintainer drains
    // cold segments and refreshes the mpcbf_elastic_* gauges under the
    // same lock the server's mutations take.
    auto mu = std::make_shared<std::shared_mutex>();
    const auto interval =
        std::chrono::milliseconds(args.get_uint("maintenance-ms", 1000));
    auto& reg = mpcbf::metrics::Registry::global();
    if (!dir.empty()) {
      elastic_durable = mpcbf::core::DurableElasticMpcbf<64>::open_shared(
          dir, elastic_config(args));
      backend = mpcbf::net::make_backend(elastic_durable, mu,
                                         args.get_uint("probes", 512));
      maintainer = std::make_unique<mpcbf::core::ElasticMaintainer>(
          [elastic_durable, mu, &reg] {
            std::unique_lock lock(*mu);
            (void)elastic_durable->compact_once();
            elastic_durable->publish_metrics(reg);
          },
          interval);
      status_extra = [elastic_durable, mu](std::string& out) {
        std::shared_lock lock(*mu);
        const auto& f = elastic_durable->filter();
        out += "elastic_segments: " +
               std::to_string(f.live_segments()) + "\n";
        out += "elastic_grows: " + std::to_string(f.grows()) + "\n";
        out += "elastic_retires: " + std::to_string(f.retires()) + "\n";
        out += "journal_next_seq: " +
               std::to_string(elastic_durable->next_seq()) + "\n";
      };
    } else {
      elastic_plain = std::make_shared<mpcbf::core::ElasticMpcbf<64>>(
          elastic_config(args));
      backend = mpcbf::net::make_backend(elastic_plain, mu,
                                         args.get_uint("probes", 512));
      maintainer = std::make_unique<mpcbf::core::ElasticMaintainer>(
          [elastic_plain, mu, &reg] {
            std::unique_lock lock(*mu);
            (void)elastic_plain->compact_once();
            elastic_plain->publish_metrics(reg);
          },
          interval);
      status_extra = [elastic_plain, mu](std::string& out) {
        std::shared_lock lock(*mu);
        out += "elastic_segments: " +
               std::to_string(elastic_plain->live_segments()) + "\n";
        out += "elastic_grows: " +
               std::to_string(elastic_plain->grows()) + "\n";
        out += "elastic_retires: " +
               std::to_string(elastic_plain->retires()) + "\n";
      };
    }
  } else if (!dir.empty()) {
    durable = [&] {
      try {
        return mpcbf::core::DurableMpcbf<64>::open_shared(dir);
      } catch (const std::runtime_error&) {
        return mpcbf::core::DurableMpcbf<64>::open_shared(
            dir, durable_config(args));
      }
    }();
    auto mu = std::make_shared<std::shared_mutex>();
    backend = mpcbf::net::make_backend(durable, mu,
                                       args.get_uint("probes", 512));
    status_extra = [durable, mu](std::string& out) {
      std::shared_lock lock(*mu);
      out += "journal_next_seq: " +
             std::to_string(durable->next_seq()) + "\n";
    };
    if (!follow.empty()) {
      mpcbf::net::Replicator::Options ropts;
      ropts.primaries = parse_endpoints(follow);
      replicator = std::make_unique<mpcbf::net::Replicator>(durable, mu,
                                                            ropts);
      // A follower is a read-only replica: mutations must go to the
      // primary, or the sequence streams would fork.
      backend.insert_batch = nullptr;
      backend.erase_batch = nullptr;
      mpcbf::net::Replicator* rp = replicator.get();
      backend.ready = [rp] { return rp->caught_up(); };
      backend.repl_status = [rp] { return rp->status(); };
      replicator->start();
    }
  } else if (!filter_path.empty()) {
    std::ifstream is(filter_path, std::ios::binary);
    if (!is) {
      std::cerr << "cannot open filter file: " << filter_path << "\n";
      return 1;
    }
    plain = std::make_shared<mpcbf::core::Mpcbf<64>>(load_any_filter(is));
    backend = mpcbf::net::make_backend(plain, args.get_uint("probes", 512));
  } else {
    plain = std::make_shared<mpcbf::core::Mpcbf<64>>(durable_config(args));
    backend = mpcbf::net::make_backend(plain, args.get_uint("probes", 512));
  }

  // Multi-tenant registry: wire-created namespaces, each its own filter
  // backend.
  std::shared_ptr<mpcbf::net::NamespaceRegistry> registry;
  if (args.get_bool("namespaces")) {
    mpcbf::net::NamespaceRegistry::Options nopts;
    // Durable namespaces default to living next to the server's own
    // durable state; --ns-root overrides (and is the only way to get
    // durable namespaces on an otherwise in-memory server).
    nopts.root_dir = args.get_string("ns-root", dir);
    registry = std::make_shared<mpcbf::net::NamespaceRegistry>(nopts);
    auto base_extra = status_extra;
    status_extra = [registry, base_extra](std::string& out) {
      if (base_extra) base_extra(out);
      registry->status_lines(out);
    };
  }

  // The admin plane needs the backend's introspection hooks after the
  // data plane takes ownership of `backend`; std::function copies are
  // cheap and share the underlying state.
  const auto health_fn = backend.health;
  const auto ready_fn = backend.ready;
  const auto repl_fn = backend.repl_status;

  mpcbf::net::Server::Options opts;
  opts.bind_address = args.get_string("bind", "127.0.0.1");
  opts.port = static_cast<std::uint16_t>(args.get_uint("port", 0));
  opts.workers = args.get_uint("workers", 2);
  opts.slow_request_threshold = std::chrono::microseconds(
      args.get_int("slow-request-threshold-us", -1));
  mpcbf::net::Server server(std::move(backend), opts);
  if (registry) server.set_namespace_registry(registry);
  server.start();

  const char* backend_kind =
      replicator        ? "follower"
      : elastic_durable ? "elastic durable"
      : elastic_plain   ? "elastic in-memory"
      : durable         ? "durable"
                        : "in-memory";
  std::cout << "mpcbfd listening on " << opts.bind_address << ":"
            << server.port() << " (" << opts.workers << " workers, "
            << backend_kind << " backend";
  if (registry) std::cout << ", namespaces enabled";
  std::cout << ")" << std::endl;
  const std::string port_file = args.get_string("port-file", "");
  if (!port_file.empty()) {
    std::ofstream pf(port_file);
    pf << server.port() << "\n";
  }

  // Optional admin plane on its own port: /metrics, /healthz, /readyz,
  // /statusz, /tracez (docs/observability.md).
  std::unique_ptr<mpcbf::net::AdminServer> admin;
  if (args.has("admin-port")) {
    mpcbf::net::AdminServer::Options aopts;
    aopts.bind_address = args.get_string("admin-bind", "127.0.0.1");
    aopts.port =
        static_cast<std::uint16_t>(args.get_uint("admin-port", 0));
    admin = std::make_unique<mpcbf::net::AdminServer>(aopts);
    mpcbf::net::AdminEndpoints eps;
    eps.health = health_fn;
    mpcbf::net::Server* sp = &server;
    eps.ready = [sp, ready_fn] {
      return sp->running() && (!ready_fn || ready_fn());
    };
    eps.repl_status = repl_fn;
    eps.backend_kind = backend_kind;
    eps.status_extra = status_extra;
    eps.slow_ring = &server.slow_ring();
    mpcbf::net::register_admin_endpoints(*admin, std::move(eps));
    admin->start();
    std::cout << "admin plane on " << aopts.bind_address << ":"
              << admin->port() << std::endl;
    const std::string admin_port_file =
        args.get_string("admin-port-file", "");
    if (!admin_port_file.empty()) {
      std::ofstream pf(admin_port_file);
      pf << admin->port() << "\n";
    }
  }

  mpcbf::net::ShutdownSignal::wait(std::chrono::milliseconds(0));
  std::cout << "mpcbfd: shutdown signal received, draining" << std::endl;
  if (replicator) replicator->stop();
  if (maintainer) maintainer->stop();
  server.stop();
  if (admin) admin->stop();

  if (durable) {
    // In-flight mutations are already journaled (WAL-first); the final
    // snapshot just compacts recovery to one file read.
    durable->snapshot();
    std::cout << "final snapshot at seq " << durable->next_seq() - 1
              << "\n";
  }
  if (elastic_durable) {
    elastic_durable->snapshot();
    elastic_durable->publish_metrics(mpcbf::metrics::Registry::global());
    std::cout << "final snapshot at seq " << elastic_durable->next_seq() - 1
              << " (" << elastic_durable->filter().live_segments()
              << " segments)\n";
  }
  if (elastic_plain) {
    elastic_plain->publish_metrics(mpcbf::metrics::Registry::global());
  }
  std::cout << "served " << server.requests_served() << " requests on "
            << server.connections_accepted() << " connections\n";
  if (args.get_bool("prometheus")) {
    mpcbf::metrics::Registry::global().write_prometheus(std::cout);
  } else {
    std::cout << "--- metrics ---\n";
    mpcbf::metrics::Registry::global().write_summary(std::cout);
  }
  mpcbf::trace::Tracer::global().clear();
  return 0;
}

// One client RPC against a running server: batched filter ops read the
// key file and print verdict counts; admin ops print the decoded reply.
int cmd_client(const mpcbf::util::CliArgs& args) {
  mpcbf::net::Client::Options opts;
  opts.host = args.get_string("host", "127.0.0.1");
  opts.port = static_cast<std::uint16_t>(args.get_uint("port", 0));
  if (opts.port == 0) {
    std::cerr << "client: --port is required\n";
    return 2;
  }
  mpcbf::net::Client client(opts);
  const std::string ns = args.get_string("ns", "");
  if (!ns.empty()) client.set_namespace(ns);
  const std::string op = args.get_string("op", "query");

  if (op == "stats") {
    const auto s = client.stats();
    std::cout << "elements:        " << s.elements << "\n"
              << "memory:          " << s.memory_bits / 8 / 1024 << " KiB\n"
              << "k / g:           " << s.k << " / " << s.g << "\n"
              << "b1 / n_max:      " << s.b1 << " / " << s.n_max << "\n"
              << "stash entries:   " << s.stash_entries << "\n"
              << "overflow events: " << s.overflow_events << "\n"
              << "requests served: " << s.requests_served << "\n";
    return 0;
  }
  if (op == "health") {
    const auto h = client.health();
    std::cout << "ready:            " << (h.ready ? "yes" : "no") << "\n"
              << "severity:         " << unsigned(h.severity) << "\n"
              << "saturation score: " << h.saturation_score << "\n"
              << "level-1 fill:     " << h.level1_fill << "\n"
              << "measured FPR:     " << h.measured_fpr << "\n"
              << "FPR drift:        " << h.fpr_drift << "\n"
              << "elements:         " << h.elements << "\n";
    return h.severity >= 2 ? 1 : 0;
  }
  if (op == "snapshot") {
    std::cout << "snapshot at seq " << client.snapshot() << "\n";
    return 0;
  }
  if (op == "replstatus") {
    const auto r = client.repl_status();
    const char* role = r.role == 1   ? "primary"
                       : r.role == 2 ? "follower"
                                     : "none";
    std::cout << "role:          " << role << "\n"
              << "caught up:     " << (r.caught_up ? "yes" : "no") << "\n"
              << "next seq:      " << r.next_seq << "\n"
              << "acked seq:     " << r.acked_seq << "\n"
              << "followers:     " << r.followers << "\n"
              << "min acked seq: " << r.min_acked_seq << "\n"
              << "lag records:   " << r.lag_records << "\n";
    return r.caught_up ? 0 : 1;
  }

  const auto keys = read_keys(args.get_string("keys", ""));
  if (op == "est_count") {
    const auto counts = client.est_count(keys);
    std::size_t positive = 0;
    std::uint64_t total = 0;
    for (std::size_t i = 0; i < keys.size(); ++i) {
      positive += counts[i] > 0 ? 1 : 0;
      total += counts[i];
      if (args.get_bool("verbose")) {
        std::cout << counts[i] << " " << keys[i] << "\n";
      }
    }
    std::cout << "est_count: " << positive << "/" << keys.size()
              << " positive, " << total << " total occurrences\n";
    return 0;
  }
  std::vector<std::uint8_t> verdicts;
  if (op == "query") {
    verdicts = client.query(keys);
  } else if (op == "insert") {
    verdicts = client.insert(keys);
  } else if (op == "erase") {
    verdicts = client.erase(keys);
  } else {
    std::cerr << "unknown --op: " << op << "\n";
    return 2;
  }
  std::size_t positive = 0;
  for (std::size_t i = 0; i < keys.size(); ++i) {
    positive += verdicts[i];
    if (args.get_bool("verbose")) {
      std::cout << (verdicts[i] ? "+ " : "- ") << keys[i] << "\n";
    }
  }
  std::cout << op << ": " << positive << "/" << keys.size()
            << " positive\n";
  return 0;
}

const char* ns_kind_name(std::uint8_t kind) {
  switch (static_cast<mpcbf::net::NsKind>(kind)) {
    case mpcbf::net::NsKind::kMemory: return "memory";
    case mpcbf::net::NsKind::kDurable: return "durable";
    case mpcbf::net::NsKind::kDecay: return "decay";
    case mpcbf::net::NsKind::kDurableDecay: return "durable-decay";
  }
  return "?";
}

// Namespace administration against a running server:
//   ns create --port P --name sessions --kind decay --generations 4 ...
//   ns drop   --port P --name sessions
//   ns list   --port P
//   ns tick   --port P --name sessions
int cmd_ns(const std::string& action, const mpcbf::util::CliArgs& args) {
  mpcbf::net::Client::Options opts;
  opts.host = args.get_string("host", "127.0.0.1");
  opts.port = static_cast<std::uint16_t>(args.get_uint("port", 0));
  if (opts.port == 0) {
    std::cerr << "ns " << action << ": --port is required\n";
    return 2;
  }
  mpcbf::net::Client client(opts);

  if (action == "list") {
    const auto rows = client.ns_list();
    std::cout << rows.size() << " namespace" << (rows.size() == 1 ? "" : "s")
              << "\n";
    for (const auto& row : rows) {
      std::cout << "  " << row.name << ": kind=" << ns_kind_name(row.info.kind)
                << " elements=" << row.info.elements
                << " memory_bits=" << row.info.memory_bits;
      if (row.info.decay_generations != 0) {
        std::cout << " generations="
                  << unsigned(row.info.decay_generations)
                  << " ticks=" << row.info.decay_ticks;
      }
      if (row.info.max_keys != 0) {
        std::cout << " max_keys=" << row.info.max_keys;
      }
      if (row.info.quota_rejections != 0) {
        std::cout << " quota_rejections=" << row.info.quota_rejections;
      }
      std::cout << "\n";
    }
    return 0;
  }

  const std::string name = args.get_string("name", "");
  if (name.empty()) {
    std::cerr << "ns " << action << ": --name is required\n";
    return 2;
  }
  if (action == "create") {
    mpcbf::net::NsConfigWire cfg;
    const std::string kind = args.get_string("kind", "memory");
    if (kind == "memory") {
      cfg.kind = static_cast<std::uint8_t>(mpcbf::net::NsKind::kMemory);
    } else if (kind == "durable") {
      cfg.kind = static_cast<std::uint8_t>(mpcbf::net::NsKind::kDurable);
    } else if (kind == "decay") {
      cfg.kind = static_cast<std::uint8_t>(mpcbf::net::NsKind::kDecay);
    } else if (kind == "durable-decay") {
      cfg.kind =
          static_cast<std::uint8_t>(mpcbf::net::NsKind::kDurableDecay);
    } else {
      std::cerr << "ns create: bad --kind (want "
                   "memory|durable|decay|durable-decay): " << kind << "\n";
      return 2;
    }
    cfg.k = static_cast<std::uint8_t>(args.get_uint("k", 3));
    cfg.g = static_cast<std::uint8_t>(args.get_uint("g", 1));
    cfg.decay_generations =
        static_cast<std::uint8_t>(args.get_uint("generations", 0));
    cfg.tick_interval_ms =
        static_cast<std::uint32_t>(args.get_uint("tick-interval-ms", 0));
    cfg.memory_bits = args.get_uint("memory-bits", 1 << 20);
    cfg.expected_n = args.get_uint("expected-n", 0);
    cfg.max_keys = args.get_uint("max-keys", 0);
    cfg.max_memory_bytes = args.get_uint("max-memory-bytes", 0);
    client.ns_create(name, cfg);
    std::cout << "created namespace " << name << " ("
              << ns_kind_name(cfg.kind) << ")\n";
    return 0;
  }
  if (action == "drop") {
    client.ns_drop(name);
    std::cout << "dropped namespace " << name << "\n";
    return 0;
  }
  if (action == "tick") {
    const std::uint64_t ticks = client.ns_tick(name);
    std::cout << "namespace " << name << " at decay tick " << ticks << "\n";
    return 0;
  }
  std::cerr << "ns: unknown action (want create|drop|list|tick): "
            << action << "\n";
  return 2;
}

// Replication watermarks of a running server. Exit code doubles as a
// poll predicate: 0 only when the node reports caught_up, so scripts
// can `until mpcbf_tool replstatus --port P; do sleep 0.2; done`.
int cmd_replstatus(const mpcbf::util::CliArgs& args) {
  mpcbf::net::Client::Options opts;
  opts.host = args.get_string("host", "127.0.0.1");
  opts.port = static_cast<std::uint16_t>(args.get_uint("port", 0));
  if (opts.port == 0) {
    std::cerr << "replstatus: --port is required\n";
    return 2;
  }
  mpcbf::net::Client client(opts);
  const auto r = client.repl_status();
  const char* role = r.role == 1   ? "primary"
                     : r.role == 2 ? "follower"
                                   : "none";
  std::cout << "role:          " << role << "\n"
            << "caught up:     " << (r.caught_up ? "yes" : "no") << "\n"
            << "next seq:      " << r.next_seq << "\n"
            << "acked seq:     " << r.acked_seq << "\n"
            << "followers:     " << r.followers << "\n"
            << "min acked seq: " << r.min_acked_seq << "\n"
            << "lag records:   " << r.lag_records << "\n";
  return r.caught_up ? 0 : 1;
}

// Chaos TCP forwarder between a client and a server, for scripted
// failure-injection (the CI replication-smoke job routes the insert
// stream through it). Runs until SIGINT/SIGTERM.
int cmd_proxy(const mpcbf::util::CliArgs& args) {
  mpcbf::net::ShutdownSignal::install();
  mpcbf::net::FaultProxy::Options opts;
  opts.listen_address = args.get_string("bind", "127.0.0.1");
  opts.port = static_cast<std::uint16_t>(args.get_uint("port", 0));
  opts.target_host = args.get_string("target-host", "127.0.0.1");
  opts.target_port =
      static_cast<std::uint16_t>(args.get_uint("target-port", 0));
  if (opts.target_port == 0) {
    std::cerr << "proxy: --target-port is required\n";
    return 2;
  }
  mpcbf::net::FaultProxy proxy(opts);
  proxy.start();
  proxy.set_delay(
      std::chrono::milliseconds(args.get_uint("delay-ms", 0)));
  std::cout << "fault proxy " << opts.listen_address << ":"
            << proxy.port() << " -> " << opts.target_host << ":"
            << opts.target_port << std::endl;
  const std::string port_file = args.get_string("port-file", "");
  if (!port_file.empty()) {
    std::ofstream pf(port_file);
    pf << proxy.port() << "\n";
  }
  mpcbf::net::ShutdownSignal::wait(std::chrono::milliseconds(0));
  proxy.stop();
  std::cout << "proxy forwarded " << proxy.forwarded_bytes()
            << " bytes over " << proxy.connections() << " connections\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::cerr << "usage: mpcbf_tool "
                 "<plan|build|query|merge|stats|verify|snapshot|recover|"
                 "health|trace|serve|client|ns|replstatus|proxy|topology> "
                 "[flags]\n";
    return 2;
  }
  const std::string cmd = argv[1];
  if (cmd == "ns") {
    if (argc < 3) {
      std::cerr << "usage: mpcbf_tool ns <create|drop|list|tick> "
                   "--port P [flags]\n";
      return 2;
    }
    mpcbf::util::CliArgs ns_args(argc - 2, argv + 2);
    try {
      return cmd_ns(argv[2], ns_args);
    } catch (const std::exception& e) {
      std::cerr << "error: " << e.what() << "\n";
      return 1;
    }
  }
  mpcbf::util::CliArgs args(argc - 1, argv + 1);
  try {
    if (cmd == "plan") return cmd_plan(args);
    if (cmd == "build") return cmd_build(args);
    if (cmd == "query") return cmd_query(args);
    if (cmd == "merge") return cmd_merge(args);
    if (cmd == "stats") return cmd_stats(args);
    if (cmd == "verify") return cmd_verify(args);
    if (cmd == "snapshot") return cmd_snapshot(args);
    if (cmd == "recover") return cmd_recover(args);
    if (cmd == "health") return cmd_health(args);
    if (cmd == "trace") return cmd_trace(args);
    if (cmd == "serve") return cmd_serve(args);
    if (cmd == "client") return cmd_client(args);
    if (cmd == "replstatus") return cmd_replstatus(args);
    if (cmd == "proxy") return cmd_proxy(args);
    if (cmd == "topology") return cmd_topology(args);
    std::cerr << "unknown subcommand: " << cmd << "\n";
    return 2;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
