// Structured tracing — the "where did this operation's nanoseconds go"
// layer on top of the aggregate counters in src/metrics/.
//
// One record, Span, carries every timed fact: start, duration, a static
// name and category, one named u64 argument (level-walk depth, shard
// index, batch size, opcode), the request's trace id and its peer. Two
// buffers hold spans, because their policies differ:
//
//   Tracer    per-thread single-producer rings, drained by one collector
//             (SPSC acquire/release, no locks on the hot path). Armed
//             explicitly (a debug / replay session, never always-on):
//             a disarmed span site costs one relaxed load and an untaken
//             branch. A full ring drops the newest span and counts it;
//             drops are reported in the output, never silent.
//   SpanRing  always-on, multi-writer seqlock ring keeping the newest
//             kCapacity spans (the server's slow-request capture).
//
// One encoder, append_chrome_json, renders either as Chrome trace-event
// JSON ("ph":"X" complete spans + "i" instants), loadable in
// chrome://tracing and Perfetto; the Tracer also writes a plain text
// timeline. Names are static strings: no allocation, no copying on the
// hot path.
//
// Instrumentation sites use the MPCBF_TRACE_* macros below.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "metrics/timer.hpp"

namespace mpcbf::trace {

enum class Category : std::uint8_t {
  kCore,       ///< filter hot paths (query/insert/erase/level walk)
  kIo,         ///< WAL append/flush/fsync, snapshot save/load
  kMapReduce,  ///< mapreduce stage execution
  kTool,       ///< CLI / harness driver scopes
  kNet,        ///< mpcbfd server request handling / client RPCs
};

[[nodiscard]] constexpr const char* to_string(Category c) noexcept {
  switch (c) {
    case Category::kCore: return "core";
    case Category::kIo: return "io";
    case Category::kMapReduce: return "mapreduce";
    case Category::kTool: return "tool";
    case Category::kNet: return "net";
  }
  return "?";
}

/// One timed event. `name`/`arg_name` must be static-storage strings
/// (string literals at every call site); dur_ns == 0 marks an instant.
struct Span {
  std::uint64_t ts_ns = 0;         ///< metrics::now_ns() at the start
  std::uint64_t dur_ns = 0;
  const char* name = nullptr;
  const char* arg_name = nullptr;  ///< nullptr: the span has no arg
  std::uint64_t arg = 0;
  std::uint64_t trace_id = 0;      ///< propagated request id; 0 = none
  std::uint64_t peer = 0;          ///< packed IPv4 (net::peer_id); 0 = none
  std::uint32_t tid = 0;           ///< Tracer ring id, stamped at drain
  Category cat = Category::kCore;
};
static_assert(sizeof(Span) == 64, "a span is one cache line");

/// The Chrome trace-event encoder: appends one {"traceEvents":[...]}
/// object for `spans`, timestamps rebased to the earliest span.
/// trace_id renders as the canonical 16-digit hex (log::format_hex16)
/// and peer as "a.b.c.d:port"; either is omitted when 0. A nonzero
/// `dropped` adds a global trace.dropped_events instant, so a truncated
/// capture is visible in the viewer.
void append_chrome_json(std::string& out, std::span<const Span> spans,
                        std::uint64_t dropped = 0);

class Tracer {
 public:
  /// Spans a thread can buffer between drains. Power of two; at 64
  /// bytes per span a ring is 1 MiB, paid only by threads that record
  /// while armed.
  static constexpr std::size_t kRingCapacity = 16384;

  static Tracer& global();

  /// Recording gate, checked (relaxed) by every instrumentation site.
  [[nodiscard]] static bool armed() noexcept {
    return armed_.load(std::memory_order_relaxed);
  }

  /// Starts/stops recording. arm() does not clear prior spans —
  /// sessions can be stitched; call clear() for a fresh capture.
  void arm() noexcept { armed_.store(true, std::memory_order_relaxed); }
  void disarm() noexcept { armed_.store(false, std::memory_order_relaxed); }

  /// Records one span into the calling thread's ring (drops + counts
  /// when the ring is full). Call sites should gate on armed() first so
  /// the disarmed path never reaches here.
  void record(const Span& s);

  /// Moves every buffered span out of the thread rings into the
  /// collector's backlog and returns the backlog (oldest drain first;
  /// within a ring, record order), each span stamped with its ring's
  /// tid. Thread-safe; concurrent recorders keep recording into the
  /// space this frees.
  const std::vector<Span>& drain();

  /// Spans dropped because a ring was full, process-wide, since the
  /// last clear().
  [[nodiscard]] std::uint64_t dropped() const noexcept;

  /// Drops the backlog and zeroes drop counters (rings stay registered).
  void clear();

  /// Drains and writes the capture through append_chrome_json, spans
  /// in timestamp order, with the drop count.
  void write_chrome_json(std::ostream& os);

  /// Drains and writes a plain one-line-per-span timeline, sorted by
  /// timestamp (diagnostic / test-friendly output).
  void write_timeline(std::ostream& os);

 private:
  Tracer() = default;

  struct ThreadRing;
  class RingHandle;

  ThreadRing& ring_for_this_thread();

  inline static std::atomic<bool> armed_{false};

  mutable std::mutex mu_;  // guards rings_ registration and backlog_/drain
  std::vector<std::shared_ptr<ThreadRing>> rings_;
  std::vector<Span> backlog_;
  std::uint32_t next_tid_ = 1;
};

/// RAII span: captures the begin timestamp on construction and records
/// one complete ("X") span on destruction. Construction checks the armed
/// gate once; a disarmed span costs one load + branch and never reads
/// the clock. The setters are safe to call whether or not the span is
/// live; `set_arg` is last-call-wins.
class ScopedSpan {
 public:
  // Inline so a disarmed span compiles down to one relaxed load and an
  // untaken branch at the call site — no function call on the hot path.
  ScopedSpan(Category cat, const char* name) noexcept
      : live_(Tracer::armed()) {
    span_.name = name;
    span_.cat = cat;
    if (live_) span_.ts_ns = metrics::now_ns();
  }
  ~ScopedSpan() {
    if (live_) finish();
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  void set_arg(const char* arg_name, std::uint64_t value) noexcept {
    span_.arg_name = arg_name;
    span_.arg = value;
  }
  void set_trace_id(std::uint64_t trace_id) noexcept {
    span_.trace_id = trace_id;
  }

  /// True when the tracer was armed at construction (the span will be
  /// recorded) — lets call sites skip arg computation when idle.
  [[nodiscard]] bool live() const noexcept { return live_; }

 private:
  /// Cold path: stamps the duration and hands the span to the tracer.
  void finish();

  Span span_;
  bool live_ = false;
};

/// Records a zero-duration instant (armed-gated like ScopedSpan).
void instant(Category cat, const char* name,
             const char* arg_name = nullptr, std::uint64_t arg = 0) noexcept;

/// Always-on capture of the newest kCapacity spans from any number of
/// writers; the server records its slow requests here for /tracez.
/// Recording must not block: a writer claims capture number `seq` with
/// one fetch_add and publishes its slot under a per-slot seqlock whose
/// version is 2*seq+1 (odd) while the slot is being rewritten and
/// 2*seq+2 (even) once stable; every field is a relaxed atomic, so a
/// concurrent reader's discarded torn read is not a data race.
/// snapshot() copies slots and skips any whose version changed mid-copy,
/// so a reader never delays a writer.
class SpanRing {
 public:
  static constexpr std::size_t kCapacity = 256;  // power of two

  /// Lock-free; overwrites the oldest span once the ring is full.
  void record(const Span& s) noexcept {
    const std::uint64_t seq =
        next_.fetch_add(1, std::memory_order_relaxed);
    Slot& slot = slots_[seq & (kCapacity - 1)];
    slot.version.store(2 * seq + 1, std::memory_order_relaxed);
    // Orders the odd version before the field stores: a reader that sees
    // any new field then sees the version change too.
    std::atomic_thread_fence(std::memory_order_release);
    slot.ts_ns.store(s.ts_ns, std::memory_order_relaxed);
    slot.dur_ns.store(s.dur_ns, std::memory_order_relaxed);
    slot.name.store(s.name, std::memory_order_relaxed);
    slot.arg_name.store(s.arg_name, std::memory_order_relaxed);
    slot.arg.store(s.arg, std::memory_order_relaxed);
    slot.trace_id.store(s.trace_id, std::memory_order_relaxed);
    slot.peer.store(s.peer, std::memory_order_relaxed);
    slot.tid_cat.store(
        (static_cast<std::uint64_t>(s.tid) << 8) |
            static_cast<std::uint8_t>(s.cat),
        std::memory_order_relaxed);
    slot.version.store(2 * seq + 2, std::memory_order_release);
  }

  /// Consistent copies of every stable slot, oldest first.
  [[nodiscard]] std::vector<Span> snapshot() const;

  /// Spans recorded over the ring's lifetime (overwritten ones too).
  [[nodiscard]] std::uint64_t recorded() const noexcept {
    return next_.load(std::memory_order_relaxed);
  }

 private:
  struct Slot {
    std::atomic<std::uint64_t> version{0};  ///< seqlock; 0 = never written
    std::atomic<std::uint64_t> ts_ns{0};
    std::atomic<std::uint64_t> dur_ns{0};
    std::atomic<const char*> name{nullptr};
    std::atomic<const char*> arg_name{nullptr};
    std::atomic<std::uint64_t> arg{0};
    std::atomic<std::uint64_t> trace_id{0};
    std::atomic<std::uint64_t> peer{0};
    std::atomic<std::uint64_t> tid_cat{0};  ///< tid << 8 | category
  };

  std::atomic<std::uint64_t> next_{0};
  std::array<Slot, kCapacity> slots_{};
};

}  // namespace mpcbf::trace

// --- instrumentation macros ------------------------------------------------
//
// MPCBF_TRACE_SPAN(var, category, "name");   // RAII span named `var`
// var.set_arg("depth", depth);               // optional structured arg
// MPCBF_TRACE_INSTANT(category, "name");     // point event
//
// `category` is the bare enumerator name (kCore, kIo, ...).
#define MPCBF_TRACE_SPAN(var, category, name)   \
  ::mpcbf::trace::ScopedSpan var(               \
      ::mpcbf::trace::Category::category, name)
#define MPCBF_TRACE_INSTANT(category, ...)                                 \
  do {                                                                     \
    if (::mpcbf::trace::Tracer::armed()) {                                 \
      ::mpcbf::trace::instant(::mpcbf::trace::Category::category,          \
                              __VA_ARGS__);                                \
    }                                                                      \
  } while (false)
