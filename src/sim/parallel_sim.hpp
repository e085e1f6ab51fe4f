// 64-way bit-parallel two-value logic simulator.
//
// Evaluates a finalized netlist over a PatternBatch in one topological pass;
// each gate's value is a 64-bit word whose bit p is the gate's logic value
// under pattern p. This is the "good machine" engine used by fault
// simulation, BIST signature computation, and functional checks.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "netlist/netlist.hpp"
#include "sim/pattern.hpp"

namespace aidft {

/// Evaluates one gate over 64-bit parallel words. `val(i)` returns the word
/// of fanin i. Sources/DFFs are not evaluated here (state, not logic).
template <typename FaninWord>
std::uint64_t eval_gate_words(GateType type, std::size_t nfanin,
                              FaninWord&& val) {
  switch (type) {
    case GateType::kConst0: return 0;
    case GateType::kConst1: return ~0ull;
    case GateType::kOutput:
    case GateType::kBuf:
    case GateType::kDff:
      return val(0);
    case GateType::kNot: return ~val(0);
    case GateType::kMux: {
      const std::uint64_t s = val(0);
      return (~s & val(1)) | (s & val(2));
    }
    case GateType::kAnd:
    case GateType::kNand: {
      std::uint64_t w = ~0ull;
      for (std::size_t i = 0; i < nfanin; ++i) w &= val(i);
      return type == GateType::kAnd ? w : ~w;
    }
    case GateType::kOr:
    case GateType::kNor: {
      std::uint64_t w = 0;
      for (std::size_t i = 0; i < nfanin; ++i) w |= val(i);
      return type == GateType::kOr ? w : ~w;
    }
    case GateType::kXor:
    case GateType::kXnor: {
      std::uint64_t w = 0;
      for (std::size_t i = 0; i < nfanin; ++i) w ^= val(i);
      return type == GateType::kXor ? w : ~w;
    }
    case GateType::kInput: return 0;  // caller sets inputs directly
  }
  return 0;
}

class ParallelSimulator {
 public:
  /// The netlist must outlive the simulator.
  explicit ParallelSimulator(const Netlist& netlist);

  /// Simulates one batch. `batch.words` are in combinational_inputs() order
  /// (PIs, then DFF pseudo-inputs). After the call every gate's word is
  /// available via value(); DFF gates hold their *loaded* (pseudo-input)
  /// value, and their captured next-state is next_state().
  ///
  /// On a replica (Netlist::replicate) whose batch gives every instance
  /// instance 0's input and scan words — checked word by word, O(width) —
  /// only instance 0 is simulated: every other instance is a disjoint copy
  /// under the same stimulus, so its words provably equal instance 0's.
  void simulate(const PatternBatch& batch);

  /// Gates the last simulate() evaluated, [0, tile()): the core's gate
  /// count after a broadcast batch on a replica, num_gates() otherwise.
  std::size_t tile() const { return tile_; }

  /// First gate of the tile-sized block holding `g`: gate g's word is the
  /// tile's word of g - tile_base(g).
  GateId tile_base(GateId g) const {
    return g < tile_ ? 0 : static_cast<GateId>(g - g % tile_);
  }

  /// Word of gate `g` from the last simulate() call.
  std::uint64_t value(GateId g) const { return values_[g - tile_base(g)]; }

  /// The tile's words from the last simulate() call: gate g reads
  /// values()[g - tile_base(g)].
  const std::vector<std::uint64_t>& values() const { return values_; }

  /// Captured D-input word of a DFF (what the flop would load next cycle).
  std::uint64_t next_state(GateId dff) const {
    return value(netlist_->topology().fanin0(dff));
  }

  /// Observed response: words at observe_points() in order (POs then DFFs'
  /// D inputs).
  std::vector<std::uint64_t> observed_response() const;

  const Netlist& netlist() const { return *netlist_; }

 private:
  bool broadcast(const PatternBatch& batch) const;

  const Netlist* netlist_;
  const Topology* topo_ = nullptr;  // compiled view; set in the constructor
  std::size_t tile_ = 0;
  std::vector<std::uint32_t> instance_level_size_;  // replicas only
  std::vector<std::uint64_t> values_;  // the tile's words, sized by simulate()
};

}  // namespace aidft
