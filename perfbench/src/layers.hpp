// Per-layer timings taken from outside the program: the benchmark calls
// each module's public functions on the workload's own keys and filter
// geometry and times them (traced runs only).
#pragma once

#include <cstdint>

#include "common.hpp"
#include "core/mpcbf.hpp"

namespace pb {

/// Times hash (HashBitStream), core (TargetDeriver::derive_all,
/// contains_batch, insert_batch, erase), net (frame encode, decode +
/// parse_key_batch) and io (crc32c) on `f`, whose live present keys are
/// indices [live_lo, live_hi). Insert timing uses fresh keys no workload
/// uses and erases them again, so `f` ends as it started.
/// Writes layer.* fields into `rec`.
void measure_layers(core::Mpcbf<64>& f, const KeyGen& keys,
                    std::uint64_t live_lo, std::uint64_t live_hi,
                    std::size_t batch, Record& rec);

}  // namespace pb
