// Logger tests: level gating, logfmt/JSON formatting (quoting, escapes,
// hex ids), per-site rate limiting with the carried suppressed count,
// concurrent writers (lines never interleave), and the canonical hex16
// rendering shared with /tracez. The same source compiles a second time
// as test_log_disabled with MPCBF_DISABLE_LOGGING, proving every macro
// expands to an inert statement whose arguments are not evaluated.
#include <gtest/gtest.h>

#include <atomic>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "common/log.hpp"

namespace {

using namespace mpcbf;

/// Captures lines through the test sink; restores defaults on exit.
class LogCapture {
 public:
  LogCapture() {
    auto& logger = log::Logger::global();
    old_level_ = logger.level();
    old_format_ = logger.format();
    logger.set_sink([this](std::string_view line) {
      std::lock_guard<std::mutex> lock(mu_);
      lines_.emplace_back(line);
    });
  }
  ~LogCapture() {
    auto& logger = log::Logger::global();
    logger.set_sink(nullptr);
    logger.set_level(old_level_);
    logger.set_format(old_format_);
  }

  [[nodiscard]] std::vector<std::string> lines() {
    std::lock_guard<std::mutex> lock(mu_);
    return lines_;
  }
  [[nodiscard]] std::size_t count() {
    std::lock_guard<std::mutex> lock(mu_);
    return lines_.size();
  }

 private:
  std::mutex mu_;
  std::vector<std::string> lines_;
  log::Level old_level_ = log::Level::kWarn;
  log::Logger::Format old_format_ = log::Logger::Format::kLogfmt;
};

TEST(Log, ParseLevel) {
  log::Level l = log::Level::kOff;
  EXPECT_TRUE(log::parse_level("debug", l));
  EXPECT_EQ(l, log::Level::kDebug);
  EXPECT_TRUE(log::parse_level("error", l));
  EXPECT_EQ(l, log::Level::kError);
  EXPECT_TRUE(log::parse_level("off", l));
  EXPECT_EQ(l, log::Level::kOff);
  EXPECT_FALSE(log::parse_level("verbose", l));
  EXPECT_FALSE(log::parse_level("", l));
}

TEST(Log, FormatHex16) {
  EXPECT_EQ(log::format_hex16(0), "0000000000000000");
  EXPECT_EQ(log::format_hex16(0xdeadbeefull), "00000000deadbeef");
  EXPECT_EQ(log::format_hex16(0xABCDEF0123456789ull), "abcdef0123456789");
}

/// Decodes `text` as one complete JSON string literal (RFC 8259): false
/// on a missing quote, a raw control byte or an unknown escape.
bool decode_json_string(std::string_view text, std::string& out) {
  if (text.size() < 2 || text.front() != '"' || text.back() != '"') {
    return false;
  }
  out.clear();
  for (std::size_t i = 1; i + 1 < text.size(); ++i) {
    const char c = text[i];
    if (static_cast<unsigned char>(c) < 0x20) return false;
    if (c == '"') return false;  // unescaped quote ends the string early
    if (c != '\\') {
      out.push_back(c);
      continue;
    }
    if (++i + 1 >= text.size()) return false;
    switch (text[i]) {
      case '"': out.push_back('"'); break;
      case '\\': out.push_back('\\'); break;
      case '/': out.push_back('/'); break;
      case 'b': out.push_back('\b'); break;
      case 'f': out.push_back('\f'); break;
      case 'n': out.push_back('\n'); break;
      case 'r': out.push_back('\r'); break;
      case 't': out.push_back('\t'); break;
      case 'u': {
        if (i + 4 >= text.size() - 1) return false;  // before the quote
        const std::string hex(text.substr(i + 1, 4));
        if (hex.find_first_not_of("0123456789abcdefABCDEF") !=
            std::string::npos) {
          return false;
        }
        const unsigned long cp = std::stoul(hex, nullptr, 16);
        if (cp >= 0x80) return false;  // the escaper only emits < 0x20
        out.push_back(static_cast<char>(cp));
        i += 4;
        break;
      }
      default: return false;
    }
  }
  return true;
}

TEST(Log, AppendJsonStringEscapesEveryControlByte) {
  const std::string raw = "q\"b\\n\nr\rt\tc\x01" "end";
  std::string out = "prefix:";
  log::append_json_string(out, raw);
  ASSERT_EQ(out.rfind("prefix:", 0), 0u);
  const std::string_view literal = std::string_view(out).substr(7);
  std::string decoded;
  ASSERT_TRUE(decode_json_string(literal, decoded)) << literal;
  EXPECT_EQ(decoded, raw);
  EXPECT_EQ(literal, "\"q\\\"b\\\\n\\nr\\rt\\tc\\u0001end\"");
}

#ifndef MPCBF_DISABLE_LOGGING

TEST(Log, LevelGate) {
  LogCapture cap;
  auto& logger = log::Logger::global();
  logger.set_level(log::Level::kWarn);
  MPCBF_LOG_DEBUG("gate.debug");
  MPCBF_LOG_INFO("gate.info");
  MPCBF_LOG_WARN("gate.warn");
  MPCBF_LOG_ERROR("gate.error");
  auto lines = cap.lines();
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_NE(lines[0].find("event=gate.warn"), std::string::npos);
  EXPECT_NE(lines[1].find("event=gate.error"), std::string::npos);

  logger.set_level(log::Level::kOff);
  MPCBF_LOG_ERROR("gate.silenced");
  EXPECT_EQ(cap.count(), 2u);
}

TEST(Log, LogfmtFieldsAndQuoting) {
  LogCapture cap;
  auto& logger = log::Logger::global();
  logger.set_level(log::Level::kDebug);
  logger.set_format(log::Logger::Format::kLogfmt);
  MPCBF_LOG_INFO("fmt.fields", log::u64("n", 42),
                 log::i64("delta", -7), log::f64("ratio", 0.5),
                 log::boolean("ok", true), log::str("plain", "bare"),
                 log::str("quoted", "two words"),
                 log::str("escaped", "a\"b\\c\nd"),
                 log::hex("id", 0xff));
  auto lines = cap.lines();
  ASSERT_EQ(lines.size(), 1u);
  const std::string& line = lines[0];
  EXPECT_EQ(line.find("ts="), 0u);
  EXPECT_NE(line.find(" level=info"), std::string::npos);
  EXPECT_NE(line.find(" event=fmt.fields"), std::string::npos);
  EXPECT_NE(line.find(" n=42"), std::string::npos);
  EXPECT_NE(line.find(" delta=-7"), std::string::npos);
  EXPECT_NE(line.find(" ratio=0.5"), std::string::npos);
  EXPECT_NE(line.find(" ok=true"), std::string::npos);
  EXPECT_NE(line.find(" plain=bare"), std::string::npos);
  EXPECT_NE(line.find(" quoted=\"two words\""), std::string::npos);
  EXPECT_NE(line.find(" escaped=\"a\\\"b\\\\c\\nd\""), std::string::npos);
  EXPECT_NE(line.find(" id=00000000000000ff"), std::string::npos);
  EXPECT_EQ(line.back(), '\n');
}

TEST(Log, JsonLines) {
  LogCapture cap;
  auto& logger = log::Logger::global();
  logger.set_level(log::Level::kDebug);
  logger.set_format(log::Logger::Format::kJson);
  MPCBF_LOG_WARN("fmt.json", log::u64("n", 3),
                 log::str("msg", "say \"hi\""),
                 log::hex("id", 0xabc));
  auto lines = cap.lines();
  ASSERT_EQ(lines.size(), 1u);
  const std::string& line = lines[0];
  EXPECT_EQ(line.find("{\"ts\":\""), 0u);
  EXPECT_NE(line.find("\"level\":\"warn\""), std::string::npos);
  EXPECT_NE(line.find("\"event\":\"fmt.json\""), std::string::npos);
  EXPECT_NE(line.find("\"n\":3"), std::string::npos);
  EXPECT_NE(line.find("\"msg\":\"say \\\"hi\\\"\""), std::string::npos);
  EXPECT_NE(line.find("\"id\":\"0000000000000abc\""), std::string::npos);
  EXPECT_EQ(line[line.size() - 2], '}');
}

TEST(Log, PerSiteRateLimitCarriesSuppressedCount) {
  LogCapture cap;
  auto& logger = log::Logger::global();
  logger.set_level(log::Level::kDebug);
  const auto suppressed_before = logger.lines_suppressed();
  // One site, one burst: the budget admits kSiteBudget lines in the
  // window, the rest are counted, not written.
  const int burst = static_cast<int>(log::Logger::kSiteBudget) + 20;
  for (int i = 0; i < burst; ++i) {
    MPCBF_LOG_INFO("limit.burst", log::u64("i", static_cast<std::uint64_t>(i)));
  }
  EXPECT_EQ(cap.count(), log::Logger::kSiteBudget);
  EXPECT_EQ(logger.lines_suppressed() - suppressed_before, 20u);
  // A *different* site is not throttled by the first one's storm.
  MPCBF_LOG_INFO("limit.other_site");
  EXPECT_EQ(cap.count(), log::Logger::kSiteBudget + 1);
}

TEST(Log, ConcurrentWritersNeverInterleave) {
  LogCapture cap;
  auto& logger = log::Logger::global();
  logger.set_level(log::Level::kDebug);
  constexpr int kThreads = 4;
  constexpr int kPerThread = 200;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([t] {
      for (int i = 0; i < kPerThread; ++i) {
        // Distinct call sites per thread would be ideal, but one site
        // under heavy contention exercises the admit() races; null-site
        // logging (rate limiter bypassed) keeps every line.
        log::Logger::global().log(
            log::Level::kInfo, "concurrent.write",
            {log::u64("thread", static_cast<std::uint64_t>(t)),
             log::u64("i", static_cast<std::uint64_t>(i))},
            nullptr);
      }
    });
  }
  for (auto& t : threads) t.join();
  auto lines = cap.lines();
  ASSERT_EQ(lines.size(),
            static_cast<std::size_t>(kThreads) * kPerThread);
  for (const auto& line : lines) {
    // A torn write would corrupt the prefix or drop the terminator.
    EXPECT_EQ(line.find("ts="), 0u);
    EXPECT_EQ(line.back(), '\n');
    EXPECT_NE(line.find("event=concurrent.write"), std::string::npos);
  }
}

TEST(Log, WrittenCounterAdvances) {
  LogCapture cap;
  auto& logger = log::Logger::global();
  logger.set_level(log::Level::kDebug);
  const auto before = logger.lines_written();
  MPCBF_LOG_WARN("counter.tick");
  EXPECT_EQ(logger.lines_written(), before + 1);
}

#else  // MPCBF_DISABLE_LOGGING

TEST(LogDisabled, MacrosAreInertAndDoNotEvaluateArguments) {
  // The twin build: macros must compile against the same call shapes
  // the armed build uses, produce no lines, and skip argument
  // evaluation entirely.
  auto& logger = log::Logger::global();
  logger.set_level(log::Level::kDebug);
  const auto written_before = logger.lines_written();
  int evaluations = 0;
  // Never called in this build: the disabled macros drop their
  // arguments unevaluated, which is what the test checks.
  [[maybe_unused]] auto touch = [&evaluations]() -> std::uint64_t {
    ++evaluations;
    return 1;
  };
  MPCBF_LOG_DEBUG("disabled.event", log::u64("v", touch()));
  MPCBF_LOG_INFO("disabled.event", log::u64("v", touch()));
  MPCBF_LOG_WARN("disabled.event", log::u64("v", touch()));
  MPCBF_LOG_ERROR("disabled.event", log::u64("v", touch()));
  EXPECT_EQ(evaluations, 0);
  EXPECT_EQ(logger.lines_written(), written_before);
  // The macro must be a real statement: legal in an unbraced if.
  if (evaluations == 0) MPCBF_LOG_WARN("disabled.unbraced");
  EXPECT_EQ(logger.lines_written(), written_before);
}

#endif  // MPCBF_DISABLE_LOGGING

}  // namespace
