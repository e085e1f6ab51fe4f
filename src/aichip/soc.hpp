// Multi-core accelerator SoC model and identical-core broadcast test.
//
// AI accelerators replicate one core design tens of times. Hierarchical DFT
// exploits that: generate patterns for ONE core, then broadcast the same
// stimulus to every instance in parallel and compare/compact responses
// per instance. make_replicated_soc() builds the N-instance netlist;
// broadcast_patterns() tiles a packed core pattern set to the SoC, batch by
// batch, without any SoC-wide cube (broadcast_cube() lifts one cube, and is
// the oracle the tiling is tested against), and lift_faults() lifts a
// core-level fault list; coverage of the broadcast set over the whole-SoC
// fault list equals the core's coverage — the property benchmark E7 and the
// tests verify by fault-simulating the SoC netlist.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "fault/fault.hpp"
#include "netlist/netlist.hpp"
#include "sim/pattern.hpp"

namespace aidft::aichip {

struct SocNetlist {
  Netlist netlist;
  std::size_t num_instances = 0;
  std::size_t core_pis = 0;   // per-core primary input count
  std::size_t core_ffs = 0;   // per-core flop count

  /// SoC combinational-input index of instance `inst`'s input `k` (in the
  /// core's combinational_inputs() order).
  std::size_t comb_index(std::size_t inst, std::size_t k) const;
};

/// `core` replicated N times (Netlist::replicate: names prefixed u<i>_),
/// each instance with its own primary inputs and outputs.
SocNetlist make_replicated_soc(const Netlist& core, std::size_t n);

/// Lifts a core-level cube to the SoC by giving every instance the same
/// values (the broadcast-scan stimulus).
TestCube broadcast_cube(const SocNetlist& soc, const TestCube& core_cube);

/// The broadcast of a packed core pattern set: each batch gives every
/// instance the core batch's words at comb_index() positions, so batch b
/// equals pack_patterns() of the broadcast_cube()s of the core patterns it
/// packs. A core X stays noted for run_campaign() to reject. Throws Error
/// when a non-empty `core` is not the core's width.
PackedPatterns broadcast_patterns(const SocNetlist& soc,
                                  const PackedPatterns& core);

/// Lifts a core-level fault list to a make_replicated_soc() SoC, instance
/// by instance: core fault (g, pin, v) becomes (g + i * G, pin, v) for
/// instance i, G the core's gate count. Instances are disjoint and the SoC
/// is tiled instance-major, so lifting the core's universe yields the SoC's
/// universe and lifting the core's collapsed list yields the SoC's
/// collapsed list, each with the same faults in the same order. Throws
/// Error on a SoC whose netlist is not a Netlist::replicate() replica of
/// its instance count, or on a core fault outside the core. Grading never materialises this list: run_chip_flow
/// hands the campaign a LiftedFaults view (fsim/campaign.hpp), and this
/// function is the oracle the view is tested against.
std::vector<Fault> lift_faults(const SocNetlist& soc,
                               std::span<const Fault> core_faults);

}  // namespace aidft::aichip
