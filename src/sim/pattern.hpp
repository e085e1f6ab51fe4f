// Test patterns and pattern batches.
//
// A TestCube is one test vector over the full-scan combinational inputs
// (primary inputs followed by DFF pseudo-inputs, in Netlist::
// combinational_inputs() order), with X for don't-care positions. Cubes are
// what ATPG produces; fully specified patterns are what simulators consume.
//
// PatternBatch packs up to 64 fully specified patterns bit-parallel: one
// 64-bit word per input, bit p = value in pattern p. This is the unit of
// work of the parallel-pattern simulators. PackedPatterns is a whole set in
// that form: grading takes it, so a set is packed once and stays packed
// (the chip flow tiles a core's batches to the SoC without any SoC-wide
// cube, and LBIST hands one packing to its campaign and its MISR).
//
// Packing runs at word speed: each cube's 64-input slice becomes one 64-bit
// row (a byte compare per input, 16 at a time on SSE2, which also collects
// the slice's X bytes), and a 64x64 bit transpose turns 64 cube rows into
// 64 input words. The width and X checks ride the same pass.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "sim/val3.hpp"

namespace aidft {

struct TestCube {
  std::vector<Val3> bits;

  TestCube() = default;
  explicit TestCube(std::size_t ninputs) : bits(ninputs, Val3::kX) {}

  std::size_t size() const { return bits.size(); }

  /// Number of specified (non-X) positions.
  std::size_t care_count() const {
    std::size_t n = 0;
    for (Val3 v : bits) n += (v != Val3::kX);
    return n;
  }

  /// True if this cube and `other` agree on every position where both are
  /// specified (i.e. they could be merged into one pattern).
  bool compatible(const TestCube& other) const {
    if (bits.size() != other.bits.size()) return false;
    for (std::size_t i = 0; i < bits.size(); ++i) {
      if (bits[i] != Val3::kX && other.bits[i] != Val3::kX &&
          bits[i] != other.bits[i]) {
        return false;
      }
    }
    return true;
  }

  /// Merges `other` into this cube (specified positions win over X).
  /// Precondition: compatible(other).
  void merge(const TestCube& other) {
    for (std::size_t i = 0; i < bits.size(); ++i) {
      if (bits[i] == Val3::kX) bits[i] = other.bits[i];
    }
  }

  /// Replaces every X with a random bit.
  void random_fill(Rng& rng) {
    for (Val3& v : bits) {
      if (v == Val3::kX) v = rng.next_bool() ? Val3::kOne : Val3::kZero;
    }
  }

  /// Replaces every X with `fill`.
  void constant_fill(Val3 fill) {
    for (Val3& v : bits) {
      if (v == Val3::kX) v = fill;
    }
  }

  /// "01X..." string for debugging.
  std::string to_string() const {
    std::string s;
    s.reserve(bits.size());
    for (Val3 v : bits) s.push_back(to_char(v));
    return s;
  }
};

/// Up to 64 fully specified patterns, bit-parallel.
struct PatternBatch {
  std::vector<std::uint64_t> words;  // one word per combinational input
  std::size_t npatterns = 0;         // 1..64 valid bit lanes

  /// Mask with bit p set for every valid pattern lane.
  std::uint64_t lane_mask() const {
    return npatterns >= 64 ? ~0ull : ((1ull << npatterns) - 1);
  }
};

/// In-place transpose of a 64x64 bit matrix, a[r] bit c -> a[c] bit r:
/// rows of one pattern become one word per input (the packer and the
/// PRPG), and words of one signal become one row per pattern (the MISR).
void transpose64(std::uint64_t (&a)[64]);

/// Packs up to 64 cubes (X treated as 0 — callers should fill first) into a
/// batch. `cubes` must all have the same width.
PatternBatch pack_patterns(const std::vector<TestCube>& cubes,
                           std::size_t first, std::size_t count);

/// A pattern set in batch form: pattern i is lane i % 64 of batches[i / 64],
/// and every batch but the last is full. Built from cubes by the converting
/// constructor, or tiled from another set (aichip::broadcast_patterns).
struct PackedPatterns {
  /// `width` of a set whose cubes differ in width: nothing is packed.
  static constexpr std::size_t kRagged = ~std::size_t{0};

  std::vector<PatternBatch> batches;  // capture batches
  std::size_t count = 0;              // patterns
  std::size_t width = 0;              // words per batch, or kRagged
  bool has_x = false;  // some cube held an X, packed as 0

  PackedPatterns() = default;
  /// Packs `cubes` in one word-speed pass. A ragged width or an X is noted,
  /// not thrown: run_campaign() rejects either only after its early return
  /// on an empty fault or pattern list. Implicit, so a cube set goes
  /// wherever a packed one does.
  PackedPatterns(const std::vector<TestCube>& cubes);
};

/// Launch batch `b` of a transition stream: lane p holds pattern
/// 64 * b + p - 1, the vector applied the cycle before capture, so it is
/// capture batch b shifted up one lane with lane 63 of batch b - 1 carried
/// in. Pattern 0 has no predecessor: lane 0 of batch 0 repeats it, which
/// never arms a transition.
PatternBatch launch_batch(const PackedPatterns& patterns, std::size_t b);

/// Generates `count` uniformly random fully-specified patterns.
std::vector<TestCube> random_patterns(std::size_t ninputs, std::size_t count,
                                      Rng& rng);

}  // namespace aidft
