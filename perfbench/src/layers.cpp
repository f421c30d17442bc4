#include "layers.hpp"

#include <algorithm>
#include <string>
#include <string_view>
#include <vector>

#include "core/word_engine.hpp"
#include "hash/hash_stream.hpp"
#include "io/crc32c.hpp"
#include "net/protocol.hpp"

namespace pb {

namespace {

constexpr int kRounds = 7;

/// Median over kRounds of `body()`'s wall time, divided by `per`.
template <class Body>
double median_ns(double per, Body&& body) {
  std::vector<double> t;
  for (int r = 0; r < kRounds; ++r) {
    const std::int64_t t0 = now_ns();
    body();
    t.push_back(static_cast<double>(now_ns() - t0) / per);
  }
  std::nth_element(t.begin(), t.begin() + kRounds / 2, t.end());
  return t[kRounds / 2];
}

std::uint64_t query_ops(const metrics::AccessStats& s) {
  return s.ops(metrics::OpClass::kQueryNegative) +
         s.ops(metrics::OpClass::kQueryPositive);
}
std::uint64_t query_words(const metrics::AccessStats& s) {
  return s.words(metrics::OpClass::kQueryNegative) +
         s.words(metrics::OpClass::kQueryPositive);
}
std::uint64_t query_bits(const metrics::AccessStats& s) {
  return s.bits(metrics::OpClass::kQueryNegative) +
         s.bits(metrics::OpClass::kQueryPositive);
}

}  // namespace

void measure_layers(core::Mpcbf<64>& f, const KeyGen& keys,
                    std::uint64_t live_lo, std::uint64_t live_hi,
                    std::size_t batch, Record& rec) {
  constexpr std::size_t kKeys = 1 << 15;
  constexpr std::uint64_t kFreshBase = std::uint64_t{1} << 61;
  Rng rng(live_hi);
  std::vector<std::string> mixed(kKeys);  // 50% present / 50% absent
  std::vector<std::string> fresh(kKeys);
  for (std::size_t i = 0; i < kKeys; ++i) {
    if (i % 2 == 0) {
      keys.present(live_lo + rng.below(live_hi - live_lo), mixed[i]);
    } else {
      keys.absent(rng.below(KeyGen::kHeldOut), mixed[i]);
    }
    keys.present(kFreshBase + i, fresh[i]);
  }
  const double n = kKeys;

  // hash: the murmur3-backed bit stream alone.
  std::uint64_t sink = 0;
  rec.num("layer.hash_ns_per_key", median_ns(n, [&] {
            for (const auto& k : mixed) {
              hash::HashBitStream s(k, f.seed());
              sink += s.next_bits(8);
            }
          }));

  // core: target derivation alone, then whole batch operations.
  const engine::TargetDeriver der(f.num_words(), f.k(), f.g(), f.b1());
  rec.num("layer.derive_ns_per_key", median_ns(n, [&] {
            engine::Targets t;
            for (const auto& k : mixed) {
              hash::HashBitStream s(k, f.seed());
              der.derive_all(s, t);
              sink += t.group_word[0];
            }
          }));

  std::vector<std::uint8_t> out(batch);
  const auto stats0 = f.stats();
  rec.num("layer.query_ns_per_key", median_ns(n, [&] {
            for (std::size_t i = 0; i + batch <= kKeys; i += batch) {
              f.contains_batch(
                  std::span<const std::string>(mixed.data() + i, batch),
                  std::span<std::uint8_t>(out));
              sink += out[0];
            }
          }));
  const auto& stats1 = f.stats();
  const auto qops =
      static_cast<double>(query_ops(stats1) - query_ops(stats0));
  rec.num("layer.words_per_op",
          static_cast<double>(query_words(stats1) - query_words(stats0)) /
              qops);
  rec.num("layer.bits_per_op",
          static_cast<double>(query_bits(stats1) - query_bits(stats0)) / qops);

  // Insert then erase the same fresh keys once per round, so the filter
  // is left as it was; each is timed on its own.
  std::vector<double> ins, era;
  for (int r = 0; r < kRounds; ++r) {
    std::int64_t t0 = now_ns();
    for (std::size_t i = 0; i + batch <= kKeys; i += batch) {
      f.insert_batch(std::span<const std::string>(fresh.data() + i, batch),
                     std::span<std::uint8_t>(out));
      sink += out[0];
    }
    ins.push_back(static_cast<double>(now_ns() - t0) / n);
    t0 = now_ns();
    for (const auto& k : fresh) sink += f.erase(k);
    era.push_back(static_cast<double>(now_ns() - t0) / n);
  }
  std::nth_element(ins.begin(), ins.begin() + kRounds / 2, ins.end());
  std::nth_element(era.begin(), era.begin() + kRounds / 2, era.end());
  rec.num("layer.insert_ns_per_key", ins[kRounds / 2]);
  rec.num("layer.erase_ns_per_key", era[kRounds / 2]);

  // net: one request frame of the workload's batch size.
  std::vector<std::string_view> views(mixed.begin(), mixed.begin() + batch);
  std::string payload, frame;
  constexpr int kFrames = 2000;
  rec.num("layer.encode_ns_per_frame", median_ns(kFrames, [&] {
            for (int i = 0; i < kFrames; ++i) {
              payload.clear();
              frame.clear();
              net::append_key_batch(payload,
                                    std::span<const std::string_view>(views));
              net::append_frame(frame, net::Opcode::kQuery, 0, i, payload);
              sink += frame.size();
            }
          }));
  std::vector<std::string_view> parsed;
  rec.num("layer.decode_ns_per_frame", median_ns(kFrames, [&] {
            for (int i = 0; i < kFrames; ++i) {
              const auto d = net::decode_frame(frame);
              if (d.status != net::DecodeStatus::kFrame ||
                  net::parse_key_batch(d.frame.payload, parsed) != nullptr) {
                throw std::runtime_error("layer: frame did not round-trip");
              }
              sink += parsed.size();
            }
          }));
  std::string reply_payload, reply;
  net::append_verdicts(reply_payload, std::span<const std::uint8_t>(out));
  net::append_frame(reply, net::Opcode::kQuery, net::kFlagResponse, 0,
                    reply_payload);
  rec.num("layer.frame_wire_bytes_per_key",
          static_cast<double>(frame.size() + reply.size()) /
              static_cast<double>(batch));

  // io: CRC32C over a 64 KiB buffer.
  std::string buf(64 * 1024, '\0');
  for (std::size_t i = 0; i < buf.size(); ++i) {
    buf[i] = static_cast<char>(mix64(i));
  }
  constexpr int kCrcReps = 200;
  rec.num("layer.crc32c_ns_per_kib", median_ns(kCrcReps * 64.0, [&] {
            for (int i = 0; i < kCrcReps; ++i) sink += io::crc32c(buf);
          }));
  keep(sink);
}

}  // namespace pb
