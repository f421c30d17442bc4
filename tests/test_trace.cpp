// Tracer semantics: armed gating, ring overflow accounting (drops are
// counted, never silent), drain/clear lifecycle, Chrome trace-event JSON
// well-formedness under concurrent writers, and span nesting; plus the
// one encoder's rendering of a span's trace id, peer and args.
#include <gtest/gtest.h>

#include <cctype>
#include <cstdint>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/mpcbf.hpp"
#include "trace/trace.hpp"

namespace {

using mpcbf::trace::Category;
using mpcbf::trace::Span;
using mpcbf::trace::Tracer;

/// Minimal recursive-descent JSON syntax checker — enough to prove the
/// writer emits structurally valid JSON without a JSON library.
class JsonChecker {
 public:
  explicit JsonChecker(const std::string& text) : s_(text) {}

  bool valid() {
    skip_ws();
    if (!value()) return false;
    skip_ws();
    return pos_ == s_.size();
  }

 private:
  bool value() {
    if (pos_ >= s_.size()) return false;
    switch (s_[pos_]) {
      case '{': return object();
      case '[': return array();
      case '"': return string();
      case 't': return literal("true");
      case 'f': return literal("false");
      case 'n': return literal("null");
      default: return number();
    }
  }

  bool object() {
    ++pos_;  // '{'
    skip_ws();
    if (peek() == '}') { ++pos_; return true; }
    while (true) {
      skip_ws();
      if (!string()) return false;
      skip_ws();
      if (peek() != ':') return false;
      ++pos_;
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') { ++pos_; continue; }
      if (peek() == '}') { ++pos_; return true; }
      return false;
    }
  }

  bool array() {
    ++pos_;  // '['
    skip_ws();
    if (peek() == ']') { ++pos_; return true; }
    while (true) {
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') { ++pos_; continue; }
      if (peek() == ']') { ++pos_; return true; }
      return false;
    }
  }

  bool string() {
    if (peek() != '"') return false;
    ++pos_;
    while (pos_ < s_.size() && s_[pos_] != '"') {
      if (s_[pos_] == '\\') {
        if (pos_ + 1 >= s_.size()) return false;
        ++pos_;
      }
      ++pos_;
    }
    if (pos_ >= s_.size()) return false;
    ++pos_;  // closing quote
    return true;
  }

  bool number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (pos_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[pos_])) != 0 ||
            s_[pos_] == '.' || s_[pos_] == 'e' || s_[pos_] == 'E' ||
            s_[pos_] == '+' || s_[pos_] == '-')) {
      ++pos_;
    }
    return pos_ > start;
  }

  bool literal(const char* lit) {
    for (; *lit != '\0'; ++lit, ++pos_) {
      if (pos_ >= s_.size() || s_[pos_] != *lit) return false;
    }
    return true;
  }

  [[nodiscard]] char peek() const {
    return pos_ < s_.size() ? s_[pos_] : '\0';
  }
  void skip_ws() {
    while (pos_ < s_.size() &&
           std::isspace(static_cast<unsigned char>(s_[pos_])) != 0) {
      ++pos_;
    }
  }

  const std::string& s_;
  std::size_t pos_ = 0;
};

/// Every test must leave the global tracer disarmed and empty.
struct TracerSession {
  TracerSession() {
    Tracer::global().clear();
    Tracer::global().arm();
  }
  ~TracerSession() {
    Tracer::global().disarm();
    Tracer::global().clear();
  }
};

TEST(Trace, DisarmedSpansRecordNothing) {
  Tracer::global().disarm();
  Tracer::global().clear();
  {
    MPCBF_TRACE_SPAN(span, kCore, "noop");
    span.set_arg("x", 1);
    EXPECT_FALSE(span.live());
  }
  MPCBF_TRACE_INSTANT(kCore, "noop_instant");
  EXPECT_TRUE(Tracer::global().drain().empty());
  EXPECT_EQ(Tracer::global().dropped(), 0u);
}

TEST(Trace, ArmedSpansRecordWithArgsAndDuration) {
  TracerSession session;
  {
    MPCBF_TRACE_SPAN(span, kIo, "unit.span");
    EXPECT_TRUE(span.live());
    span.set_arg("depth", 3);
  }
  mpcbf::trace::instant(Category::kTool, "unit.instant", "n", 7);
  const auto& events = Tracer::global().drain();
  ASSERT_EQ(events.size(), 2u);
  const Span& span = events[0];
  EXPECT_STREQ(span.name, "unit.span");
  EXPECT_EQ(span.cat, Category::kIo);
  EXPECT_GE(span.dur_ns, 1u);  // sub-clock spans are clamped, not instants
  EXPECT_NE(span.tid, 0u);     // stamped with its thread ring at drain
  ASSERT_NE(span.arg_name, nullptr);
  EXPECT_STREQ(span.arg_name, "depth");
  EXPECT_EQ(span.arg, 3u);
  const Span& inst = events[1];
  EXPECT_STREQ(inst.name, "unit.instant");
  EXPECT_EQ(inst.dur_ns, 0u);
  EXPECT_EQ(inst.arg, 7u);
}

TEST(Trace, RingOverflowDropsAreCountedNotSilent) {
  TracerSession session;
  const std::size_t total = Tracer::kRingCapacity + 500;
  for (std::size_t i = 0; i < total; ++i) {
    mpcbf::trace::instant(Category::kCore, "flood");
  }
  EXPECT_EQ(Tracer::global().dropped(), 500u);
  // The drop count must survive into the Chrome JSON as a visible
  // instant, so truncated captures are never mistaken for complete ones.
  std::ostringstream os;
  Tracer::global().write_chrome_json(os);
  const std::string json = os.str();
  EXPECT_NE(json.find("trace.dropped_events"), std::string::npos);
  EXPECT_NE(json.find("\"count\":500"), std::string::npos);
  // Ring contents themselves are intact: capacity events survived.
  Tracer::global().clear();
  EXPECT_EQ(Tracer::global().dropped(), 0u);
}

TEST(Trace, ClearEmptiesBacklogAndRings) {
  TracerSession session;
  mpcbf::trace::instant(Category::kCore, "a");
  mpcbf::trace::instant(Category::kCore, "b");
  Tracer::global().clear();
  EXPECT_TRUE(Tracer::global().drain().empty());
  // Recording continues after a clear.
  mpcbf::trace::instant(Category::kCore, "c");
  EXPECT_EQ(Tracer::global().drain().size(), 1u);
}

TEST(Trace, NestedSpansAreContained) {
  TracerSession session;
  {
    MPCBF_TRACE_SPAN(outer, kCore, "outer");
    {
      MPCBF_TRACE_SPAN(inner, kCore, "inner");
      volatile int sink = 0;
      for (int i = 0; i < 1000; ++i) sink = sink + i;
    }
  }
  const auto& events = Tracer::global().drain();
  ASSERT_EQ(events.size(), 2u);
  // Destructor order: inner emits first.
  const Span& inner = events[0];
  const Span& outer = events[1];
  EXPECT_STREQ(inner.name, "inner");
  EXPECT_STREQ(outer.name, "outer");
  EXPECT_GE(inner.ts_ns, outer.ts_ns);
  EXPECT_LE(inner.ts_ns + inner.dur_ns, outer.ts_ns + outer.dur_ns);
}

TEST(Trace, ChromeJsonParsesUnderConcurrentWriters) {
  TracerSession session;
  constexpr int kThreads = 8;
  constexpr int kSpansPerThread = 1000;
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([] {
      for (int i = 0; i < kSpansPerThread; ++i) {
        MPCBF_TRACE_SPAN(outer, kTool, "mt.outer");
        outer.set_arg("i", static_cast<std::uint64_t>(i));
        MPCBF_TRACE_SPAN(inner, kCore, "mt.inner");
      }
    });
  }
  // Drain concurrently with the writers — the SPSC protocol must hold.
  for (int d = 0; d < 50; ++d) {
    (void)Tracer::global().drain();
  }
  for (auto& w : workers) w.join();

  std::ostringstream os;
  Tracer::global().write_chrome_json(os);
  const std::string json = os.str();
  EXPECT_TRUE(JsonChecker(json).valid()) << json.substr(0, 400);
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("mt.outer"), std::string::npos);
  EXPECT_NE(json.find("mt.inner"), std::string::npos);
  // Nothing was lost or it was accounted for: events written + dropped
  // equals events produced (2 spans per iteration per thread).
  std::size_t complete_events = 0;
  for (std::size_t p = json.find("\"ph\":\"X\""); p != std::string::npos;
       p = json.find("\"ph\":\"X\"", p + 1)) {
    ++complete_events;
  }
  EXPECT_EQ(complete_events + Tracer::global().dropped(),
            static_cast<std::size_t>(kThreads) * kSpansPerThread * 2);
}

TEST(Trace, TimelineListsEventsInTimestampOrder) {
  TracerSession session;
  {
    MPCBF_TRACE_SPAN(span, kMapReduce, "tl.span");
  }
  mpcbf::trace::instant(Category::kTool, "tl.instant");
  std::ostringstream os;
  Tracer::global().write_timeline(os);
  const std::string text = os.str();
  EXPECT_NE(text.find("tl.span"), std::string::npos);
  EXPECT_NE(text.find("tl.instant"), std::string::npos);
  EXPECT_LT(text.find("tl.span"), text.find("tl.instant"));
}

TEST(Trace, InstrumentedFilterEmitsCoreSpans) {
  TracerSession session;
  mpcbf::core::MpcbfConfig cfg;
  cfg.memory_bits = 1 << 16;
  cfg.k = 3;
  cfg.g = 1;
  cfg.expected_n = 500;
  cfg.policy = mpcbf::core::OverflowPolicy::kStash;
  mpcbf::core::Mpcbf<64> filter(cfg);
  filter.insert("alpha");
  (void)filter.contains("alpha");
  const auto& events = Tracer::global().drain();
  bool saw_insert = false;
  bool saw_query = false;
  bool saw_level_walk = false;
  for (const Span& e : events) {
    const std::string name = e.name;
    saw_insert |= name == "mpcbf.insert";
    saw_query |= name == "mpcbf.query";
    saw_level_walk |= name == "mpcbf.level_walk";
  }
  EXPECT_TRUE(saw_insert);
  EXPECT_TRUE(saw_query);
  EXPECT_TRUE(saw_level_walk);
}

TEST(Trace, ChromeJsonRendersTraceIdAndPeerOnlyWhenSet) {
  Span full;
  full.ts_ns = 5000;
  full.dur_ns = 2500;
  full.name = "insert";
  full.cat = Category::kNet;
  full.arg_name = "batch_keys";
  full.arg = 7;
  full.trace_id = 0xfedcba9876543210ull;  // above 2^53: must stay exact
  full.peer = (0x0A000001ull << 16) | 80;
  full.tid = 3;
  Span bare;
  bare.ts_ns = 6000;
  bare.dur_ns = 1;
  bare.name = "bare";
  const std::vector<Span> spans = {full, bare};
  std::string json;
  mpcbf::trace::append_chrome_json(json, spans);
  EXPECT_TRUE(JsonChecker(json).valid()) << json;
  EXPECT_NE(json.find("\"name\":\"insert\",\"cat\":\"net\",\"ph\":\"X\","
                      "\"dur\":2.500,\"pid\":1,\"tid\":3,\"ts\":0.000,"
                      "\"args\":{\"batch_keys\":7,"
                      "\"trace_id\":\"fedcba9876543210\","
                      "\"peer\":\"10.0.0.1:80\"}}"),
            std::string::npos)
      << json;
  // A span without an arg, id or peer carries no args object at all.
  EXPECT_NE(json.find("\"name\":\"bare\",\"cat\":\"core\",\"ph\":\"X\","
                      "\"dur\":0.001,\"pid\":1,\"tid\":0,\"ts\":1.000}"),
            std::string::npos)
      << json;
  EXPECT_EQ(json.find("trace.dropped_events"), std::string::npos);
}

}  // namespace
