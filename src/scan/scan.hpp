// Full-scan DFT insertion and scan-protocol machinery.
//
// Two layers:
//  * ScanPlan — a logical assignment of every flop to a (chain, position):
//    what ATPG, compression, BIST, and the test-time model reason about.
//  * insert_scan() — the physical transformation: every DFF gets a
//    scan-path MUX (se ? scan_in : D) and chains are stitched from sin_k to
//    sout_k. The result is a real netlist whose shift/capture behaviour can
//    be *simulated cycle by cycle*; ScanProtocolSimulator does exactly that
//    and is cross-checked against the one-shot combinational view in tests.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "netlist/netlist.hpp"
#include "sim/event_sim.hpp"
#include "sim/pattern.hpp"

namespace aidft {

struct ScanChain {
  std::vector<GateId> cells;  // flops in scan-in → scan-out order (ids in the
                              // ORIGINAL netlist)
};

struct ScanPlan {
  std::vector<ScanChain> chains;

  std::size_t num_chains() const { return chains.size(); }
  std::size_t max_chain_length() const;
  std::size_t total_cells() const;
};

/// Checks `plan` against `netlist` (finalized): every cell a flop of it, in
/// one chain only, and every flop in a chain; throws aidft::Error prefixed
/// with `where` otherwise. Returns, per gate, a flop's position among the
/// combinational inputs (PIs first, then flops in dffs() order) and
/// SIZE_MAX for every other gate. insert_scan, to_scan_patterns,
/// combinational_reference_response, shift_power, adjacent_fill,
/// write_stil and run_compressed_session check their plan this way first.
std::vector<std::size_t> checked_flop_positions(const Netlist& netlist,
                                                const ScanPlan& plan,
                                                const char* where);

/// Partitions the netlist's flops into `num_chains` balanced chains in a
/// deterministic order (flop id order, round-robin by length).
ScanPlan plan_scan_chains(const Netlist& netlist, std::size_t num_chains);

/// Result of physical scan insertion.
struct ScanNetlist {
  Netlist netlist;              // transformed copy with se/si/so
  GateId scan_enable = kNoGate; // "se" input
  std::vector<GateId> scan_in;  // one "si<k>" input per chain
  std::vector<GateId> scan_out; // one "so<k>" OUTPUT marker per chain
  std::vector<std::vector<GateId>> chain_cells;  // flop ids in the NEW netlist
};

/// Rebuilds `netlist` with mux-scan flops stitched per `plan`.
ScanNetlist insert_scan(const Netlist& netlist, const ScanPlan& plan);

/// Cycle counts of a standard scan test session:
///   cycles = L (preload) + P * (L + 1)   with L = max chain length,
/// i.e. each pattern overlaps its unload with the next pattern's load.
struct ScanTimeModel {
  std::size_t patterns = 0;
  std::size_t max_chain_length = 0;
  std::size_t cycles() const {
    return patterns == 0 ? 0 : max_chain_length + patterns * (max_chain_length + 1);
  }
};

/// Per-pattern stimulus/response of a scan test, in chain-shift order.
struct ScanPattern {
  std::vector<Val3> pi_values;                 // primary inputs during capture
  std::vector<std::vector<Val3>> chain_load;   // [chain][position]
};

/// Splits combinational-view cubes (PIs then flops, in combinational_inputs
/// order) into scan patterns per `plan`.
std::vector<ScanPattern> to_scan_patterns(const Netlist& netlist,
                                          const ScanPlan& plan,
                                          const std::vector<TestCube>& cubes);

/// Drives a scan-inserted netlist through load → capture → unload for one
/// pattern at a time, bit-accurately, using the event simulator.
class ScanProtocolSimulator {
 public:
  /// `scan` must outlive the simulator; `original` is the pre-insertion
  /// netlist used for input ordering.
  ScanProtocolSimulator(const Netlist& original, const ScanNetlist& scan,
                        const ScanPlan& plan);

  /// Runs one full pattern; returns the captured response: primary-output
  /// values during capture followed by the unloaded chain contents
  /// (chain-major, scan-out order). X pattern bits are applied as 0.
  std::vector<bool> run_pattern(const ScanPattern& pattern);

  /// Total clock cycles consumed so far.
  std::uint64_t cycles() const { return cycles_; }

 private:
  const ScanNetlist* scan_;
  std::vector<GateId> pi_map_;  // original PI order -> new netlist gate ids
  std::size_t max_len_;
  std::unique_ptr<EventSimulator> sim_;
  std::uint64_t cycles_ = 0;
};

/// Reference response of the combinational view for the same cube: observed
/// PO values followed by captured flop values (chain-major unload order),
/// with X inputs applied as 0. Used to validate the protocol simulator.
std::vector<bool> combinational_reference_response(const Netlist& netlist,
                                                   const ScanPlan& plan,
                                                   const TestCube& cube);

}  // namespace aidft
