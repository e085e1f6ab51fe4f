#include "scan/power.hpp"

#include <algorithm>
#include <cstdint>

namespace aidft {

ShiftPowerReport shift_power(const Netlist& nl, const ScanPlan& plan,
                             const std::vector<TestCube>& patterns) {
  const std::vector<std::size_t> flop_pos =
      checked_flop_positions(nl, plan, "shift_power");
  ShiftPowerReport report;
  report.patterns = patterns.size();
  if (patterns.empty()) return report;
  for (const TestCube& cube : patterns) {
    AIDFT_REQUIRE(cube.size() == nl.num_combinational_inputs(),
                  "cube width != combinational inputs");
  }
  // Every boundary between adjacent cells i and i+1 of a chain: the cells'
  // input positions, and the len-1-i cells it travels through (it enters at
  // shift position i+1, as cell i's value is loaded one cycle later than
  // cell i+1's).
  struct Boundary {
    std::size_t a, b;
    std::uint64_t weight;
  };
  std::vector<Boundary> boundaries;
  for (const ScanChain& chain : plan.chains) {
    const std::size_t len = chain.cells.size();
    for (std::size_t i = 0; i + 1 < len; ++i) {
      boundaries.push_back(
          {flop_pos[chain.cells[i]], flop_pos[chain.cells[i + 1]], len - 1 - i});
    }
  }
  const PackedPatterns packed(patterns);
  if (packed.has_x) {
    // An X packs as 0; it is an error only where a boundary reads it.
    for (const TestCube& cube : patterns) {
      for (const Boundary& bd : boundaries) {
        AIDFT_REQUIRE(cube.bits[bd.a] != Val3::kX && cube.bits[bd.b] != Val3::kX,
                      "shift_power needs fully specified patterns");
      }
    }
  }
  // A boundary's word of differing lanes adds its weight to each of those
  // patterns. Every WTM is an integer far below 2^53, so the doubles are
  // exact.
  std::uint64_t total = 0;
  std::uint64_t peak = 0;
  for (const PatternBatch& batch : packed.batches) {
    std::uint64_t wtm[64] = {};
    for (const Boundary& bd : boundaries) {
      for (std::uint64_t d = batch.words[bd.a] ^ batch.words[bd.b]; d != 0;
           d &= d - 1) {
        wtm[__builtin_ctzll(d)] += bd.weight;
      }
    }
    for (std::size_t p = 0; p < batch.npatterns; ++p) {
      total += wtm[p];
      peak = std::max(peak, wtm[p]);
    }
  }
  report.total_wtm = static_cast<double>(total);
  report.peak_wtm_pattern = static_cast<double>(peak);
  report.avg_wtm_per_pattern =
      report.total_wtm / static_cast<double>(patterns.size());
  return report;
}

void adjacent_fill(const Netlist& nl, const ScanPlan& plan,
                   std::vector<TestCube>& cubes) {
  const std::vector<std::size_t> flop_pos =
      checked_flop_positions(nl, plan, "adjacent_fill");
  const std::size_t npi = nl.inputs().size();
  for (TestCube& cube : cubes) {
    AIDFT_REQUIRE(cube.size() == npi + nl.dffs().size(),
                  "adjacent_fill: cube width mismatch");
    for (std::size_t p = 0; p < npi; ++p) {
      if (cube.bits[p] == Val3::kX) cube.bits[p] = Val3::kZero;
    }
    for (const ScanChain& chain : plan.chains) {
      // First pass: find the first care value for the leading X run.
      Val3 last = Val3::kZero;
      for (GateId ff : chain.cells) {
        const Val3 v = cube.bits[flop_pos[ff]];
        if (v != Val3::kX) {
          last = v;
          break;
        }
      }
      for (GateId ff : chain.cells) {
        Val3& v = cube.bits[flop_pos[ff]];
        if (v == Val3::kX) {
          v = last;
        } else {
          last = v;
        }
      }
    }
  }
}

}  // namespace aidft
