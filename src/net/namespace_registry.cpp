#include "net/namespace_registry.hpp"

#include <algorithm>
#include <filesystem>
#include <stdexcept>
#include <utility>

#include "common/log.hpp"
#include "core/decaying_mpcbf.hpp"
#include "core/durable_mpcbf.hpp"
#include "core/mpcbf.hpp"
#include "metrics/registry.hpp"

namespace mpcbf::net {

namespace {

[[nodiscard]] const char* kind_name(NsKind kind) noexcept {
  switch (kind) {
    case NsKind::kMemory: return "memory";
    case NsKind::kDurable: return "durable";
    case NsKind::kDecay: return "decay";
    case NsKind::kDurableDecay: return "durable-decay";
  }
  return "?";
}

[[nodiscard]] core::MpcbfConfig generation_config(const NsConfigWire& cfg) {
  core::MpcbfConfig c;
  c.memory_bits = cfg.memory_bits;
  c.k = cfg.k;
  c.g = cfg.g;
  // The eq.-(11) planner needs a cardinality; default to the same
  // bits-per-element heuristic mpcbf_tool's serve path uses.
  c.expected_n =
      cfg.expected_n != 0 ? cfg.expected_n : std::max<std::uint64_t>(
                                                 cfg.memory_bits / 16, 1);
  return c;
}

[[nodiscard]] std::int64_t steady_now_ns() noexcept {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

// One registered namespace. The backend (and the hosted closures) keep
// the concrete filter alive via shared_ptr, so an Entry released by
// drop() while a request is in flight dies only after that request
// finishes.
struct NamespaceRegistry::Entry {
  std::string name;
  NsConfigWire cfg{};
  NsKind kind = NsKind::kMemory;
  unsigned generations = 0;  ///< decay kinds only; 0 otherwise
  std::shared_ptr<FilterBackend> backend;
  /// host()'s introspection hooks (its backend moved into `backend`).
  Hosted hosted;
  std::shared_ptr<std::atomic<std::uint64_t>> quota_rejections =
      std::make_shared<std::atomic<std::uint64_t>>(0);
  /// steady_clock nanos of the last decay tick (automatic or NSTICK);
  /// atomic because the ticker and request threads both touch it.
  std::atomic<std::int64_t> last_tick_ns{steady_now_ns()};
};

NamespaceRegistry::NamespaceRegistry(Options options)
    : options_(std::move(options)) {
  if (options_.max_namespaces == 0 ||
      options_.max_namespaces > kMaxNamespaces) {
    options_.max_namespaces = kMaxNamespaces;
  }
  if (options_.start_ticker && options_.ticker_period.count() > 0) {
    ticker_ = std::thread([this] { ticker_loop(); });
  }
}

NamespaceRegistry::~NamespaceRegistry() {
  {
    std::lock_guard<std::mutex> lock(ticker_mu_);
    ticker_stop_ = true;
  }
  ticker_cv_.notify_all();
  if (ticker_.joinable()) ticker_.join();
}

std::string NamespaceRegistry::create(std::string_view name,
                                      const NsConfigWire& cfg,
                                      ErrorCode& code) {
  code = ErrorCode::kBadRequest;
  if (!namespace_name_valid(name)) return "invalid namespace name";
  if (cfg.kind > static_cast<std::uint8_t>(NsKind::kDurableDecay)) {
    return "unknown backend kind";
  }
  const auto kind = static_cast<NsKind>(cfg.kind);
  const bool decaying =
      kind == NsKind::kDecay || kind == NsKind::kDurableDecay;
  const bool durable =
      kind == NsKind::kDurable || kind == NsKind::kDurableDecay;
  unsigned generations = 0;
  if (decaying) {
    generations = cfg.decay_generations != 0 ? cfg.decay_generations : 4;
    if (generations < 2) {
      return "decay_generations must be at least 2";
    }
  } else {
    if (cfg.decay_generations != 0) {
      return "decay_generations set on a non-decay kind";
    }
    if (cfg.tick_interval_ms != 0) {
      return "tick_interval_ms set on a non-decay kind";
    }
  }
  if (durable && options_.root_dir.empty()) {
    code = ErrorCode::kUnsupported;
    return "server has no durable root directory; durable namespace "
           "kinds need one";
  }
  if (cfg.memory_bits == 0) return "memory_bits must be positive";
  // The memory quota is enforced against the *configured* footprint:
  // filters are sized up front, so an oversized plan is rejected here,
  // cleanly, instead of ever allocating.
  const std::uint64_t footprint =
      cfg.memory_bits / 8 * (decaying ? generations : 1);
  if (cfg.max_memory_bytes != 0 && footprint > cfg.max_memory_bytes) {
    code = ErrorCode::kQuotaExceeded;
    return "configured filter footprint exceeds the namespace memory "
           "quota";
  }

  std::unique_lock lock(mu_);
  if (entries_.size() >= options_.max_namespaces) {
    code = ErrorCode::kQuotaExceeded;
    return "namespace count cap reached";
  }
  const auto pos = std::lower_bound(
      entries_.begin(), entries_.end(), name,
      [](const std::shared_ptr<Entry>& e, std::string_view n) {
        return e->name < n;
      });
  if (pos != entries_.end() && (*pos)->name == name) {
    code = ErrorCode::kNamespaceExists;
    return "namespace already exists";
  }

  auto entry = std::make_shared<Entry>();
  entry->name.assign(name);
  entry->cfg = cfg;
  entry->kind = kind;
  entry->generations = generations;
  const std::filesystem::path dir =
      std::filesystem::path(options_.root_dir) / ("ns-" + entry->name);
  try {
    // The wire kind picks the filter type; host() builds the rest.
    const auto stack = [&](auto filter) {
      return host(std::move(filter), std::make_shared<std::shared_mutex>(),
                  options_.health_fpr_probes, "ns-" + entry->name);
    };
    core::DecayConfig dc;
    dc.generation = generation_config(cfg);
    dc.generations = generations;
    Hosted& h = entry->hosted;
    switch (kind) {
      case NsKind::kMemory:
        h = stack(std::make_shared<core::Mpcbf<64>>(dc.generation));
        break;
      case NsKind::kDurable:
        h = stack(core::DurableMpcbf<64>::open_shared(dir, dc.generation));
        break;
      case NsKind::kDecay:
        h = stack(std::make_shared<core::DecayingMpcbf<64>>(dc));
        break;
      case NsKind::kDurableDecay:
        h = stack(core::DurableDecayingMpcbf<64>::open_shared(dir, dc));
        break;
    }
    entry->backend = std::make_shared<FilterBackend>(std::move(h.backend));
  } catch (const std::exception& e) {
    code = ErrorCode::kInternal;
    return std::string("namespace backend construction failed: ") +
           e.what();
  }
  if (cfg.max_keys != 0) {
    // Quota gate: the server consults this before insert_batch, so a
    // breach is an all-or-nothing wire rejection.
    entry->backend->admit =
        [elements = entry->hosted.elements, max = cfg.max_keys,
         rej = entry->quota_rejections](
            std::size_t incoming) -> const char* {
      if (elements() + incoming > max) {
        rej->fetch_add(1, std::memory_order_relaxed);
        return "namespace key quota exceeded";
      }
      return nullptr;
    };
  }
  entries_.insert(pos, std::move(entry));
  const std::size_t count = entries_.size();
  lock.unlock();
  MPCBF_LOG_INFO("ns.create", log::str("ns", name),
                 log::str("kind", kind_name(kind)),
                 log::u64("memory_bits", cfg.memory_bits),
                 log::u64("max_keys", cfg.max_keys),
                 log::u64("generations", generations),
                 log::u64("namespaces", count));
  publish_metrics();
  return {};
}

std::string NamespaceRegistry::drop(std::string_view name,
                                    ErrorCode& code) {
  std::shared_ptr<Entry> entry;
  {
    std::unique_lock lock(mu_);
    const auto it = std::find_if(
        entries_.begin(), entries_.end(),
        [&](const std::shared_ptr<Entry>& e) { return e->name == name; });
    if (it == entries_.end()) {
      code = ErrorCode::kUnknownNamespace;
      return "unknown namespace";
    }
    entry = *it;
    entries_.erase(it);
  }
  if (entry->kind == NsKind::kDurable ||
      entry->kind == NsKind::kDurableDecay) {
    // Bounded-lifetime contract: the durable directory goes with the
    // namespace. In-flight requests still hold the backend; on POSIX,
    // unlinking files a live journal has open is safe.
    std::error_code ec;
    std::filesystem::remove_all(
        std::filesystem::path(options_.root_dir) / ("ns-" + entry->name),
        ec);
    if (ec) {
      MPCBF_LOG_WARN("ns.drop_cleanup_failed",
                     log::str("ns", entry->name),
                     log::str("error", ec.message()));
    }
  }
  MPCBF_LOG_INFO("ns.drop", log::str("ns", entry->name),
                 log::str("kind", kind_name(entry->kind)));
  publish_metrics();
  return {};
}

std::string NamespaceRegistry::tick(std::string_view name,
                                    std::uint64_t& ticks,
                                    ErrorCode& code) {
  const auto entry = find(name);
  if (!entry) {
    code = ErrorCode::kUnknownNamespace;
    return "unknown namespace";
  }
  if (!entry->hosted.do_tick) {
    code = ErrorCode::kUnsupported;
    return "namespace kind has no decay window";
  }
  try {
    ticks = entry->hosted.do_tick();
  } catch (const std::exception& e) {
    code = ErrorCode::kInternal;
    return std::string("decay tick failed: ") + e.what();
  }
  entry->last_tick_ns.store(steady_now_ns(), std::memory_order_relaxed);
  MPCBF_LOG_INFO("ns.tick", log::str("ns", entry->name),
                 log::u64("tick", ticks));
  return {};
}

std::vector<NsRow> NamespaceRegistry::list() const {
  std::shared_lock lock(mu_);
  std::vector<NsRow> rows;
  rows.reserve(entries_.size());
  for (const auto& e : entries_) {
    NsRow row;
    row.name = e->name;
    row.info.kind = static_cast<std::uint8_t>(e->kind);
    row.info.decay_generations =
        static_cast<std::uint8_t>(e->generations);
    row.info.elements = e->hosted.elements();
    row.info.memory_bits = e->hosted.memory_bits();
    row.info.max_keys = e->cfg.max_keys;
    row.info.max_memory_bytes = e->cfg.max_memory_bytes;
    row.info.decay_ticks = e->hosted.ticks ? e->hosted.ticks() : 0;
    row.info.quota_rejections =
        e->quota_rejections->load(std::memory_order_relaxed);
    rows.push_back(std::move(row));
  }
  return rows;
}

std::shared_ptr<const FilterBackend> NamespaceRegistry::resolve(
    std::string_view name) const {
  const auto entry = find(name);
  return entry ? entry->backend : nullptr;
}

std::size_t NamespaceRegistry::size() const {
  std::shared_lock lock(mu_);
  return entries_.size();
}

void NamespaceRegistry::status_lines(std::string& out) const {
  for (const auto& row : list()) {
    out += "namespace ";
    out += row.name;
    out += " kind=";
    out += kind_name(static_cast<NsKind>(row.info.kind));
    out += " elements=" + std::to_string(row.info.elements);
    out += " memory_bits=" + std::to_string(row.info.memory_bits);
    if (row.info.decay_generations != 0) {
      out += " generations=" +
             std::to_string(row.info.decay_generations);
      out += " decay_ticks=" + std::to_string(row.info.decay_ticks);
    }
    if (row.info.max_keys != 0) {
      out += " max_keys=" + std::to_string(row.info.max_keys);
    }
    out += " quota_rejections=" +
           std::to_string(row.info.quota_rejections);
    out += "\n";
  }
}

void NamespaceRegistry::publish_metrics() {
  auto& reg = metrics::Registry::global();
  std::vector<std::shared_ptr<Entry>> entries;
  {
    std::shared_lock lock(mu_);
    entries = entries_;
  }
  reg.gauge("mpcbf_namespaces", "Registered namespaces")
      .set(static_cast<double>(entries.size()));
  for (const auto& e : entries) {
    reg.gauge("mpcbf_ns_elements", "Elements resident per namespace",
              {{"ns", e->name}})
        .set(static_cast<double>(e->hosted.elements()));
    reg.gauge("mpcbf_ns_memory_bits",
              "Configured filter bits per namespace", {{"ns", e->name}})
        .set(static_cast<double>(e->hosted.memory_bits()));
    auto& ticks = reg.counter("mpcbf_ns_decay_ticks_total",
                              "Decay window rotations per namespace",
                              {{"ns", e->name}});
    const double tick_total =
        static_cast<double>(e->hosted.ticks ? e->hosted.ticks() : 0);
    if (tick_total > ticks.value()) ticks.inc(tick_total - ticks.value());
    auto& rej = reg.counter(
        "mpcbf_ns_quota_rejections_total",
        "Insert batches rejected by the namespace key quota",
        {{"ns", e->name}});
    const double rej_total = static_cast<double>(
        e->quota_rejections->load(std::memory_order_relaxed));
    if (rej_total > rej.value()) rej.inc(rej_total - rej.value());
  }
}

std::size_t NamespaceRegistry::tick_elapsed() {
  std::vector<std::shared_ptr<Entry>> entries;
  {
    std::shared_lock lock(mu_);
    entries = entries_;
  }
  std::size_t ticked = 0;
  const std::int64_t now = steady_now_ns();
  for (const auto& e : entries) {
    if (!e->hosted.do_tick || e->cfg.tick_interval_ms == 0) continue;
    const std::int64_t interval_ns =
        std::int64_t{e->cfg.tick_interval_ms} * 1'000'000;
    if (now - e->last_tick_ns.load(std::memory_order_relaxed) <
        interval_ns) {
      continue;
    }
    try {
      const std::uint64_t tick = e->hosted.do_tick();
      e->last_tick_ns.store(steady_now_ns(), std::memory_order_relaxed);
      ++ticked;
      MPCBF_LOG_INFO("ns.auto_tick", log::str("ns", e->name),
                     log::u64("tick", tick));
    } catch (const std::exception& ex) {
      MPCBF_LOG_ERROR("ns.auto_tick_failed", log::str("ns", e->name),
                      log::str("error", ex.what()));
    }
  }
  return ticked;
}

std::shared_ptr<NamespaceRegistry::Entry> NamespaceRegistry::find(
    std::string_view name) const {
  std::shared_lock lock(mu_);
  const auto pos = std::lower_bound(
      entries_.begin(), entries_.end(), name,
      [](const std::shared_ptr<Entry>& e, std::string_view n) {
        return e->name < n;
      });
  if (pos != entries_.end() && (*pos)->name == name) return *pos;
  return nullptr;
}

void NamespaceRegistry::ticker_loop() {
  std::unique_lock<std::mutex> lock(ticker_mu_);
  while (!ticker_stop_) {
    ticker_cv_.wait_for(lock, options_.ticker_period);
    if (ticker_stop_) break;
    lock.unlock();
    tick_elapsed();
    publish_metrics();
    lock.lock();
  }
}

}  // namespace mpcbf::net
