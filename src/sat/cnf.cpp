#include "sat/cnf.hpp"

#include <algorithm>

namespace aidft {
namespace {

void encode_and(SatSolver& s, Lit out, std::span<const Lit> in,
                std::vector<Lit>& big) {
  big.clear();
  for (const Lit l : in) {
    s.add_binary(~out, l);  // out -> every input
    big.push_back(~l);
  }
  big.push_back(out);  // all inputs -> out
  s.add_clause(big);
}

void encode_or(SatSolver& s, Lit out, std::span<const Lit> in,
               std::vector<Lit>& big) {
  big.clear();
  for (const Lit l : in) {
    s.add_binary(out, ~l);  // any input -> out
    big.push_back(l);
  }
  big.push_back(~out);  // out -> some input
  s.add_clause(big);
}

void encode_xor2(SatSolver& s, Lit out, Lit a, Lit b) {
  s.add_ternary(~out, a, b);
  s.add_ternary(~out, ~a, ~b);
  s.add_ternary(out, ~a, b);
  s.add_ternary(out, a, ~b);
}

void encode_eq(SatSolver& s, Lit a, Lit b) {
  s.add_binary(~a, b);
  s.add_binary(a, ~b);
}

}  // namespace

void add_gate_clauses(SatSolver& s, GateType type, Lit out,
                      std::span<const Lit> in, std::vector<Lit>& scratch) {
  switch (type) {
    case GateType::kConst0:
      s.add_unit(~out);
      return;
    case GateType::kConst1:
      s.add_unit(out);
      return;
    case GateType::kBuf:
    case GateType::kOutput:
    case GateType::kDff:  // combinational alias: value of the D line
      encode_eq(s, out, in[0]);
      return;
    case GateType::kNot:
      encode_eq(s, out, ~in[0]);
      return;
    case GateType::kAnd:
      encode_and(s, out, in, scratch);
      return;
    case GateType::kNand:
      encode_and(s, ~out, in, scratch);
      return;
    case GateType::kOr:
      encode_or(s, out, in, scratch);
      return;
    case GateType::kNor:
      encode_or(s, ~out, in, scratch);
      return;
    case GateType::kXor:
    case GateType::kXnor: {
      Lit acc = in[0];
      for (std::size_t i = 1; i + 1 < in.size(); ++i) {
        const Lit aux = pos_lit(s.new_var());
        encode_xor2(s, aux, acc, in[i]);
        acc = aux;
      }
      const Lit target = type == GateType::kXor ? out : ~out;
      if (in.size() == 1) {
        encode_eq(s, target, acc);
      } else {
        encode_xor2(s, target, acc, in.back());
      }
      return;
    }
    case GateType::kMux: {
      const Lit sel = in[0], d0 = in[1], d1 = in[2];
      s.add_ternary(sel, ~d0, out);    // sel=0 & d0  -> out
      s.add_ternary(sel, d0, ~out);    // sel=0 & !d0 -> !out
      s.add_ternary(~sel, ~d1, out);   // sel=1 & d1  -> out
      s.add_ternary(~sel, d1, ~out);   // sel=1 & !d1 -> !out
      // Redundant but propagation-strengthening:
      s.add_ternary(~d0, ~d1, out);
      s.add_ternary(d0, d1, ~out);
      return;
    }
    case GateType::kInput:
      return;  // free variable
  }
}

CircuitCnf::CircuitCnf(const Netlist& nl) : nl_(&nl) {
  AIDFT_REQUIRE(nl.finalized(), "CircuitCnf requires finalized netlist");
  Lit unencoded;
  unencoded.code = kUnencoded;
  lits_.assign(nl.num_gates(), unencoded);
}

CircuitCnf::CircuitCnf(const Netlist& nl, SatSolver& solver) : CircuitCnf(nl) {
  encode(solver, nl.topology().topo_order());
}

void CircuitCnf::encode(SatSolver& solver, std::span<const GateId> gates) {
  const Topology& t = nl_->topology();
  Lit unencoded;
  unencoded.code = kUnencoded;
  std::fill(lits_.begin(), lits_.end(), unencoded);
  auto fanin_lit = [&](GateId f) {
    AIDFT_REQUIRE(lits_[f].code != kUnencoded,
                  "CircuitCnf: gate subset is not fanin-closed");
    return lits_[f];
  };
  for (GateId id : gates) {
    AIDFT_REQUIRE(id < lits_.size(), "CircuitCnf: gate out of range");
    const GateType type = t.type(id);
    switch (type) {
      case GateType::kInput:
      case GateType::kDff:  // pseudo primary input in the scan view
        lits_[id] = pos_lit(solver.new_var());
        break;
      case GateType::kBuf:
      case GateType::kOutput:
        lits_[id] = fanin_lit(t.fanin0(id));  // alias, no clauses needed
        break;
      case GateType::kNot:
        lits_[id] = ~fanin_lit(t.fanin0(id));  // alias with sign flip
        break;
      default: {
        lits_[id] = pos_lit(solver.new_var());
        fanin_.clear();
        for (GateId f : t.fanin(id)) fanin_.push_back(fanin_lit(f));
        add_gate_clauses(solver, type, lits_[id], fanin_, clause_);
        break;
      }
    }
  }
}

}  // namespace aidft
