// Compiled structure-of-arrays form of a finalized Netlist: its only
// structural form once finalize() has run.
//
// The builder-side IR keeps just each gate's type and fanin list, which is
// convenient to grow incrementally but is an allocation-fragmented pointer
// chase — exactly what the innermost loops of every hot engine (good-machine
// simulation, PPSFP fault propagation, SCOAP, PODEM implication) traverse
// millions of times. Topology is the flat form Netlist::finalize() compiles
// once, before it frees the builder records:
//
//  * CSR fanin adjacency (edge order identical to Gate::fanin: pin order)
//    and CSR fanout adjacency (sinks in ascending id, one entry per edge),
//    the latter from build_fanout_csr(), the one fanout builder;
//  * flat GateType[] and level[] arrays (no Gate struct in the hot path);
//  * the topological order plus per-level bucket offsets (level_begin[]),
//    so simulators can iterate level-by-level over contiguous ranges.
//
// Invalidation: a Netlist is frozen by finalize() (add_gate/connect throw
// afterwards), so the compiled view can never go stale; it lives exactly as
// long as its Netlist. Netlist::gate() views of a finalized netlist read
// it; hot engines cache `const Topology&` at construction instead.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/error.hpp"
#include "netlist/types.hpp"

namespace aidft {

class Netlist;

/// Compressed sparse rows: row g is edges[offsets[g], offsets[g+1]).
struct Csr {
  std::vector<std::uint32_t> offsets;  // size rows+1
  std::vector<GateId> edges;

  std::span<const GateId> row(GateId g) const {
    return {edges.data() + offsets[g], offsets[g + 1] - offsets[g]};
  }
  std::size_t row_size(GateId g) const { return offsets[g + 1] - offsets[g]; }
};

/// Fanout CSR of the netlist's fanin lists, by counting sort: row d holds
/// the sinks of driver d in ascending id, one entry per edge. Drivers out of
/// range are skipped, so it also serves unfinalized netlists.
Csr build_fanout_csr(const Netlist& netlist);

class Topology {
 public:
  Topology() = default;

  /// Compiles the flat view and levelises it (FIFO Kahn over the fanout
  /// CSR; a DFF is a source and its D edge is not a dependency). Throws
  /// Error when some gate cannot be ordered (a combinational cycle).
  static Topology build(const Netlist& netlist);

  /// The view build() would compile for `n` disjoint copies of the netlist
  /// behind `core`, copy i's gate g having id i * core.num_gates() + g:
  /// types, levels and both CSRs tiled with id and edge offsets, and level
  /// L's bucket the core's bucket repeated copy by copy (FIFO Kahn over
  /// disjoint copies seeded in id order yields exactly that). Throws Error
  /// before allocating when the gate ids or edge offsets would overflow
  /// 32 bits.
  static Topology replicate(const Topology& core, std::size_t n);

  std::size_t num_gates() const { return types_.size(); }
  GateType type(GateId g) const { return types_[g]; }
  std::uint32_t level(GateId g) const { return levels_[g]; }

  std::span<const GateId> fanin(GateId g) const { return fanin_.row(g); }
  std::size_t fanin_size(GateId g) const { return fanin_.row_size(g); }
  /// Index of gate g's first fanin edge in the CSR: the number of fanin
  /// edges of gates 0..g-1. Valid for g in [0, num_gates()].
  std::uint32_t fanin_offset(GateId g) const { return fanin_.offsets[g]; }
  /// First fanin (D pin of a DFF, driver of a BUF/NOT/OUTPUT).
  GateId fanin0(GateId g) const { return fanin_.edges[fanin_.offsets[g]]; }

  std::span<const GateId> fanout(GateId g) const { return fanout_.row(g); }
  std::size_t fanout_size(GateId g) const { return fanout_.row_size(g); }

  /// Gates in topological order (sources first), level-sorted: the gates of
  /// level L occupy the contiguous range [level_begin(L), level_begin(L+1)).
  const std::vector<GateId>& topo_order() const { return topo_; }

  /// Max level + 1 (0 for an empty netlist).
  std::uint32_t num_levels() const { return num_levels_; }

  /// Contiguous slice of topo_order() holding exactly the gates of `lvl`.
  std::span<const GateId> level_gates(std::uint32_t lvl) const {
    AIDFT_DBG_ASSERT(lvl < num_levels_, "level out of range");
    return {topo_.data() + level_begin_[lvl],
            level_begin_[lvl + 1] - level_begin_[lvl]};
  }

  /// Offset table into topo_order(): size num_levels()+1.
  const std::vector<std::uint32_t>& level_begin() const { return level_begin_; }

  /// Heap footprint of the compiled view (for bytes-per-gate reporting).
  std::size_t bytes() const;

 private:
  std::vector<GateType> types_;
  std::vector<std::uint32_t> levels_;
  Csr fanin_;
  Csr fanout_;
  std::vector<GateId> topo_;
  std::vector<std::uint32_t> level_begin_;  // size num_levels+1
  std::uint32_t num_levels_ = 0;
};

}  // namespace aidft
