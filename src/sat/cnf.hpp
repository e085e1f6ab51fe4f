// Tseitin encoding of netlists into CNF.
//
// Encodes the full-scan combinational view: primary inputs and DFF outputs
// are free variables; every logic gate gets an equivalence (output-var <->
// gate-function) clause set. BUF and OUTPUT markers alias their fanin's
// variable instead of introducing a new one.
//
// An encoding may also cover only a fanin-closed subset of the gates; the
// SAT-based ATPG encodes only the support of the fault's output cone this
// way, then adds a partial faulty copy of the cone itself (see
// atpg/sat_atpg). One CircuitCnf serves many encodings: its per-gate
// literal table is sized once, and each encode() replaces the last.
#pragma once

#include <span>
#include <vector>

#include "netlist/netlist.hpp"
#include "sat/solver.hpp"

namespace aidft {

/// Emits clauses enforcing out <-> type(fanins) into `solver`.
/// For XOR/XNOR with more than 2 inputs, auxiliary chain variables are
/// allocated internally. AND/OR-family gates build their wide clause in
/// `scratch`, which must not alias `fanins`.
void add_gate_clauses(SatSolver& solver, GateType type, Lit out,
                      std::span<const Lit> fanins, std::vector<Lit>& scratch);

class CircuitCnf {
 public:
  /// An empty encoding of `netlist`, which must outlive this object.
  explicit CircuitCnf(const Netlist& netlist);
  /// Encodes every gate of `netlist` into `solver`.
  CircuitCnf(const Netlist& netlist, SatSolver& solver);

  /// Encodes `gates` into `solver`, forgetting the previous encoding's
  /// literals. `gates` must be listed in topo_order() order and be
  /// fanin-closed (every fanin of a listed gate is listed; a DFF, being a
  /// free variable, needs none). The encoding is the one the whole-circuit
  /// constructor makes of these gates, in the same order.
  void encode(SatSolver& solver, std::span<const GateId> gates);

  /// The solver literal representing gate `g`'s value (`g` must be encoded).
  Lit lit(GateId g) const {
    AIDFT_ASSERT(g < lits_.size() && lits_[g].code != kUnencoded,
                 "CircuitCnf::lit of a gate outside the encoding");
    return lits_[g];
  }

 private:
  static constexpr std::uint32_t kUnencoded = ~std::uint32_t{0};
  const Netlist* nl_;
  std::vector<Lit> lits_;
  std::vector<Lit> fanin_;   // scratch: one gate's fanin literals
  std::vector<Lit> clause_;  // scratch: one gate's wide clause
};

}  // namespace aidft
