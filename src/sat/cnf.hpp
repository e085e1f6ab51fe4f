// Tseitin encoding of netlists into CNF.
//
// Encodes the full-scan combinational view: primary inputs and DFF outputs
// are free variables; every logic gate gets an equivalence (output-var <->
// gate-function) clause set. BUF and OUTPUT markers alias their fanin's
// variable instead of introducing a new one.
//
// An optional gate filter restricts the encoding to a fanin-closed subset of
// the gates; the SAT-based ATPG encodes only the support of the fault's
// output cone this way, then adds a partial faulty copy of the cone itself
// (see atpg/sat_atpg).
#pragma once

#include <vector>

#include "netlist/netlist.hpp"
#include "sat/solver.hpp"

namespace aidft {

/// Emits clauses enforcing out <-> type(fanins) into `solver`.
/// For XOR/XNOR with more than 2 inputs, auxiliary chain variables are
/// allocated internally.
void add_gate_clauses(SatSolver& solver, GateType type, Lit out,
                      const std::vector<Lit>& fanins);

class CircuitCnf {
 public:
  /// Encodes `netlist` into `solver`: every gate, or only the gates with
  /// `only[g]` set when `only` is non-empty. The subset must be fanin-closed
  /// (every fanin of a selected gate is selected; a DFF, being a free
  /// variable, needs none). Both `netlist` and `solver` must outlive this
  /// object.
  CircuitCnf(const Netlist& netlist, SatSolver& solver,
             const std::vector<bool>& only = {});

  /// The solver literal representing gate `g`'s value (`g` must be encoded).
  Lit lit(GateId g) const {
    AIDFT_ASSERT(g < lits_.size() && lits_[g].code != kUnencoded,
                 "CircuitCnf::lit of a gate outside the encoding");
    return lits_[g];
  }

 private:
  static constexpr std::uint32_t kUnencoded = ~std::uint32_t{0};
  std::vector<Lit> lits_;
};

}  // namespace aidft
