#include "trace/trace.hpp"

#include <algorithm>
#include <charconv>
#include <ostream>
#include <string_view>
#include <utility>

#include "common/log.hpp"
#include "metrics/timer.hpp"
#include "net/socket.hpp"

namespace mpcbf::trace {

// Single-producer (owning thread) / single-consumer (drain, serialized
// by the Tracer mutex) bounded ring. The producer publishes a slot with
// a release store of head_; the consumer acquires head_, copies the
// slots out, then releases tail_ back to the producer. A full ring drops
// the span and counts it — recording must never block or reallocate.
struct Tracer::ThreadRing {
  explicit ThreadRing(std::uint32_t tid_in) : tid(tid_in) {}

  bool try_push(const Span& s) noexcept {
    const std::uint64_t head = head_.load(std::memory_order_relaxed);
    const std::uint64_t tail = tail_.load(std::memory_order_acquire);
    if (head - tail >= kRingCapacity) {
      dropped_.fetch_add(1, std::memory_order_relaxed);
      return false;
    }
    slots[head % kRingCapacity] = s;
    head_.store(head + 1, std::memory_order_release);
    return true;
  }

  /// Consumer side: moves everything recorded so far into `sink`.
  void drain_into(std::vector<Span>& sink) {
    const std::uint64_t head = head_.load(std::memory_order_acquire);
    std::uint64_t tail = tail_.load(std::memory_order_relaxed);
    for (; tail != head; ++tail) {
      sink.push_back(slots[tail % kRingCapacity]);
      sink.back().tid = tid;
    }
    tail_.store(tail, std::memory_order_release);
  }

  [[nodiscard]] std::uint64_t dropped() const noexcept {
    return dropped_.load(std::memory_order_relaxed);
  }
  void reset_dropped() noexcept {
    dropped_.store(0, std::memory_order_relaxed);
  }

  const std::uint32_t tid;
  std::array<Span, kRingCapacity> slots{};
  std::atomic<std::uint64_t> head_{0};
  std::atomic<std::uint64_t> tail_{0};
  std::atomic<std::uint64_t> dropped_{0};
};

// Thread-local owner of one ring; keeps the ring alive (shared with the
// Tracer's registry) and caches the raw pointer so the steady-state
// record path is ring-lookup-free.
class Tracer::RingHandle {
 public:
  ThreadRing* ring = nullptr;
  std::shared_ptr<ThreadRing> owner;
};

Tracer& Tracer::global() {
  static Tracer instance;
  return instance;
}

Tracer::ThreadRing& Tracer::ring_for_this_thread() {
  thread_local RingHandle handle;
  if (handle.ring == nullptr) {
    std::lock_guard<std::mutex> lock(mu_);
    handle.owner = std::make_shared<ThreadRing>(next_tid_++);
    handle.ring = handle.owner.get();
    rings_.push_back(handle.owner);
  }
  return *handle.ring;
}

void Tracer::record(const Span& s) { ring_for_this_thread().try_push(s); }

const std::vector<Span>& Tracer::drain() {
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& ring : rings_) {
    ring->drain_into(backlog_);
  }
  return backlog_;
}

std::uint64_t Tracer::dropped() const noexcept {
  std::lock_guard<std::mutex> lock(mu_);
  std::uint64_t total = 0;
  for (const auto& ring : rings_) total += ring->dropped();
  return total;
}

void Tracer::clear() {
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& ring : rings_) {
    std::vector<Span> discard;
    ring->drain_into(discard);
    ring->reset_dropped();
  }
  backlog_.clear();
}

namespace {

void append_u64(std::string& out, std::uint64_t v) {
  char buf[20];
  const auto r = std::to_chars(buf, buf + sizeof buf, v);
  out.append(buf, r.ptr);
}

/// Chrome's ts/dur unit is microseconds; the nanoseconds stay as the
/// three-digit fraction.
void append_us(std::string& out, std::uint64_t ns) {
  append_u64(out, ns / 1000);
  const auto frac = static_cast<unsigned>(ns % 1000);
  const char digits[4] = {'.', static_cast<char>('0' + frac / 100),
                          static_cast<char>('0' + frac / 10 % 10),
                          static_cast<char>('0' + frac % 10)};
  out.append(digits, sizeof digits);
}

std::vector<Span> sorted_by_start(std::vector<Span> spans) {
  std::stable_sort(spans.begin(), spans.end(),
                   [](const Span& a, const Span& b) {
                     return a.ts_ns < b.ts_ns;
                   });
  return spans;
}

}  // namespace

void append_chrome_json(std::string& out, std::span<const Span> spans,
                        std::uint64_t dropped) {
  std::uint64_t base = spans.empty() ? 0 : spans.front().ts_ns;
  std::uint64_t last = base;
  for (const Span& s : spans) {
    base = std::min(base, s.ts_ns);
    last = std::max(last, s.ts_ns);
  }
  out.reserve(out.size() + 256 + spans.size() * 192);
  out.append(
      "{\"traceEvents\":[\n"
      "{\"name\":\"process_name\",\"cat\":\"__metadata\",\"ph\":\"M\","
      "\"pid\":1,\"tid\":0,\"ts\":0,\"args\":{\"name\":\"mpcbf\"}}");
  for (const Span& s : spans) {
    out.append(",\n{\"name\":");
    log::append_json_string(out, s.name != nullptr ? s.name : "?");
    out.append(",\"cat\":\"");
    out.append(to_string(s.cat));
    if (s.dur_ns != 0) {
      out.append("\",\"ph\":\"X\",\"dur\":");
      append_us(out, s.dur_ns);
    } else {
      out.append("\",\"ph\":\"i\",\"s\":\"t\"");
    }
    out.append(",\"pid\":1,\"tid\":");
    append_u64(out, s.tid);
    out.append(",\"ts\":");
    append_us(out, s.ts_ns - base);
    bool has_args = false;
    const auto key = [&](std::string_view k) {
      out.append(has_args ? "," : ",\"args\":{");
      has_args = true;
      log::append_json_string(out, k);
      out.push_back(':');
    };
    if (s.arg_name != nullptr) {
      key(s.arg_name);
      append_u64(out, s.arg);
    }
    // Hex digits and a dotted address need no escaping.
    if (s.trace_id != 0) {
      key("trace_id");
      out.push_back('"');
      out.append(log::format_hex16(s.trace_id));
      out.push_back('"');
    }
    if (s.peer != 0) {
      key("peer");
      out.push_back('"');
      out.append(net::format_peer(s.peer));
      out.push_back('"');
    }
    if (has_args) out.push_back('}');
    out.push_back('}');
  }
  if (dropped != 0) {
    // Truncation must be visible in the viewer, not just in logs.
    out.append(
        ",\n{\"name\":\"trace.dropped_events\",\"cat\":\"tool\","
        "\"ph\":\"i\",\"s\":\"g\",\"pid\":1,\"tid\":0,\"ts\":");
    append_us(out, last - base);
    out.append(",\"args\":{\"count\":");
    append_u64(out, dropped);
    out.append("}}");
  }
  out.append("\n],\"displayTimeUnit\":\"ns\"}\n");
}

void Tracer::write_chrome_json(std::ostream& os) {
  const auto spans = sorted_by_start(drain());
  std::string out;
  append_chrome_json(out, spans, dropped());
  os << out;
}

void Tracer::write_timeline(std::ostream& os) {
  const auto spans = sorted_by_start(drain());
  const std::uint64_t base = spans.empty() ? 0 : spans.front().ts_ns;
  for (const Span& s : spans) {
    os << "+" << (s.ts_ns - base) << "ns\tt" << s.tid << "\t["
       << to_string(s.cat) << "] " << s.name;
    if (s.dur_ns != 0) os << " dur=" << s.dur_ns << "ns";
    if (s.arg_name != nullptr) os << " " << s.arg_name << "=" << s.arg;
    if (s.trace_id != 0) {
      os << " trace_id=" << log::format_hex16(s.trace_id);
    }
    os << "\n";
  }
  const std::uint64_t drops = dropped();
  if (drops != 0) os << "(" << drops << " spans dropped)\n";
}

void ScopedSpan::finish() {
  // Sub-clock-resolution spans still need dur > 0 to render as "X"
  // complete events (dur 0 is the instant encoding).
  span_.dur_ns = std::max<std::uint64_t>(1, metrics::now_ns() - span_.ts_ns);
  Tracer::global().record(span_);
}

void instant(Category cat, const char* name, const char* arg_name,
             std::uint64_t arg) noexcept {
  if (!Tracer::armed()) return;
  Span s;
  s.ts_ns = metrics::now_ns();
  s.name = name;
  s.arg_name = arg_name;
  s.arg = arg;
  s.cat = cat;
  Tracer::global().record(s);
}

std::vector<Span> SpanRing::snapshot() const {
  std::vector<std::pair<std::uint64_t, Span>> stable;
  stable.reserve(kCapacity);
  for (const Slot& slot : slots_) {
    const std::uint64_t v1 = slot.version.load(std::memory_order_acquire);
    if (v1 == 0 || (v1 & 1) != 0) continue;  // empty or mid-rewrite
    Span s;
    s.ts_ns = slot.ts_ns.load(std::memory_order_relaxed);
    s.dur_ns = slot.dur_ns.load(std::memory_order_relaxed);
    s.name = slot.name.load(std::memory_order_relaxed);
    s.arg_name = slot.arg_name.load(std::memory_order_relaxed);
    s.arg = slot.arg.load(std::memory_order_relaxed);
    s.trace_id = slot.trace_id.load(std::memory_order_relaxed);
    s.peer = slot.peer.load(std::memory_order_relaxed);
    const std::uint64_t tid_cat =
        slot.tid_cat.load(std::memory_order_relaxed);
    std::atomic_thread_fence(std::memory_order_acquire);
    if (slot.version.load(std::memory_order_relaxed) != v1) continue;
    s.tid = static_cast<std::uint32_t>(tid_cat >> 8);
    s.cat = static_cast<Category>(tid_cat & 0xFF);
    stable.emplace_back(v1 / 2 - 1, s);  // the capture seq
  }
  std::sort(stable.begin(), stable.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  std::vector<Span> out;
  out.reserve(stable.size());
  for (const auto& [seq, s] : stable) out.push_back(s);
  return out;
}

}  // namespace mpcbf::trace
