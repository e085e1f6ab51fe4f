// Sequential (non-scan) functional fault simulation.
//
// Models testing a design WITHOUT DFT: patterns are applied only at the
// primary inputs, cycle after cycle, from the reset state; responses are
// observed only at the primary outputs. A fault is detected when some cycle
// shows a PO difference. State divergence persists across cycles, so one
// activation can surface many cycles later — or never, which is exactly why
// sequential test generation is hopeless at scale and why scan exists.
// Benchmark E15 quantifies that argument against this engine.
//
// Engine: 64 independent input sequences run bit-parallel; each cycle of
// the good machine and of each faulty machine (fault injected, own state)
// is one full_sweep from fsim/fault_sim.hpp (cheap enough for the design
// sizes this motivational experiment uses).
#pragma once

#include <cstdint>
#include <vector>

#include "fault/fault.hpp"
#include "netlist/netlist.hpp"
#include "sim/pattern.hpp"

namespace aidft {

/// One functional test: per cycle, one value per primary input.
/// sequences[cycle][pi] over 64 parallel lanes (bit p = lane p).
struct InputSequence {
  std::size_t cycles = 0;
  std::vector<std::vector<std::uint64_t>> stimulus;  // [cycle][pi]
};

/// Uniformly random stimulus for `cycles` cycles, 64 lanes.
InputSequence random_sequence(const Netlist& netlist, std::size_t cycles,
                              Rng& rng);

struct SeqCampaignResult {
  std::size_t total_faults = 0;
  std::size_t detected = 0;
  /// Cycle of first detection per fault (-1 undetected). Lane-agnostic:
  /// earliest cycle over all 64 lanes.
  std::vector<std::int64_t> first_detected_cycle;

  double coverage() const {
    return total_faults == 0
               ? 1.0
               : static_cast<double>(detected) / static_cast<double>(total_faults);
  }
};

/// Runs the functional campaign: all flops reset to 0, `sequence` applied
/// cycle by cycle, POs compared each cycle. Stuck-at faults only.
SeqCampaignResult run_functional_campaign(const Netlist& netlist,
                                          const std::vector<Fault>& faults,
                                          const InputSequence& sequence);

}  // namespace aidft
