#include "atpg/sat_atpg.hpp"

#include <vector>

namespace aidft {

// Turns the care bits of `cube` into X one at a time, first to last, and
// restores each one without which a 3-valued good/faulty simulation of the
// support no longer shows a known difference at an observed cone gate (for
// a D-pin fault: the driver no longer holds the opposite of the stuck
// value). `cube` must detect the fault on entry. Only support gates are
// read, each after it is written, so the tables need no clearing.
void SatAtpg::relax_cube(const Fault& fault, TestCube& cube) {
  const Topology& topo = nl_->topology();
  const FaultScope& scope = scope_;
  const std::vector<GateId>& inputs = comb_inputs_;
  const std::vector<bool>& observed = observed_;
  const GateId line = scope.line();
  const Val3 stuck = fault.stuck_at_one() ? Val3::kOne : Val3::kZero;
  std::vector<Val3>& good = good3_;
  std::vector<Val3>& bad = bad3_;
  auto detects = [&] {
    for (std::size_t i = 0; i < inputs.size(); ++i) {
      if (scope.in_support(inputs[i])) good[inputs[i]] = cube.bits[i];
    }
    for (GateId g : scope.support()) {
      if (topo.type(g) == GateType::kInput || topo.type(g) == GateType::kDff) {
        continue;
      }
      const std::span<const GateId> fin = topo.fanin(g);
      good[g] = eval_gate3(topo.type(g), fin.size(),
                           [&](std::size_t k) { return good[fin[k]]; });
    }
    if (scope.dpin()) return good[line] == not3(stuck);
    for (GateId g : scope.cone()) {
      if (g == fault.gate && fault.is_stem()) {
        bad[g] = stuck;
        continue;
      }
      const std::span<const GateId> fin = topo.fanin(g);
      bad[g] = eval_gate3(topo.type(g), fin.size(), [&](std::size_t k) {
        if (g == fault.gate && k == fault.pin) return stuck;
        return scope.in_cone(fin[k]) ? bad[fin[k]] : good[fin[k]];
      });
    }
    for (GateId g : scope.cone()) {
      if (observed[g] && is_known(good[g]) && is_known(bad[g]) &&
          good[g] != bad[g]) {
        return true;
      }
    }
    return false;
  };
  AIDFT_ASSERT(detects(), "SAT ATPG: model does not detect its fault");
  for (Val3& bit : cube.bits) {
    if (bit == Val3::kX) continue;
    const Val3 care = bit;
    bit = Val3::kX;
    if (!detects()) bit = care;
  }
}

void flush_sat_stats(obs::Telemetry* t, const SatSolver& solver) {
  if (t == nullptr) return;
  const SatSolver::Stats& s = solver.stats();
  obs::add(t, "sat.solves");
  obs::add(t, "sat.vars", solver.num_vars());
  obs::add(t, "sat.clauses", solver.num_added_clauses());
  obs::add(t, "sat.conflicts", s.conflicts);
  obs::add(t, "sat.decisions", s.decisions);
  obs::add(t, "sat.propagations", s.propagations);
  obs::add(t, "sat.restarts", s.restarts);
}

SatAtpg::SatAtpg(const Netlist& netlist)
    : nl_(&netlist),
      scope_(netlist.topology()),
      good_(netlist),
      flit_(netlist.num_gates()),
      dlit_(netlist.num_gates()),
      good3_(netlist.num_gates(), Val3::kX),
      bad3_(netlist.num_gates(), Val3::kX) {
  comb_inputs_ = netlist.combinational_inputs();
  observed_.assign(netlist.num_gates(), false);
  for (GateId op : netlist.observe_points()) {
    observed_[netlist.observed_gate(op)] = true;
  }
}

AtpgOutcome SatAtpg::generate(const Fault& fault, const SatAtpgOptions& options) {
  AIDFT_REQUIRE(fault.kind == FaultKind::kStuckAt,
                "SAT ATPG generates stuck-at tests");
  const Topology& topo = nl_->topology();
  scope_.build(fault);
  const FaultScope& scope = scope_;
  const bool dpin = scope.dpin();
  const GateId line = scope.line();
  AtpgOutcome out;
  SatSolver& solver = solver_;
  solver.reset();

  bool observable = dpin;  // a D-pin fault is observed at its own flop
  for (GateId g : scope.cone()) observable = observable || observed_[g];
  if (!observable) {
    flush_sat_stats(options.telemetry, solver);
    out.status = AtpgStatus::kUntestable;  // no observable path exists at all
    return out;
  }

  CircuitCnf& good = good_;
  good.encode(solver, scope.support());
  // Activation: the fault line carries the opposite of the stuck value. For
  // a D-pin fault that alone is detection.
  const Lit active = good.lit(line);
  solver.add_unit(fault.stuck_at_one() ? ~active : active);

  // Faulty copy of the cone. flit_ and dlit_ are read only at cone gates,
  // each after it is written.
  std::vector<Lit>& flit = flit_;
  std::vector<Lit>& fin = clause_;
  for (GateId id : scope.cone()) {
    const GateType gtype = topo.type(id);
    const std::span<const GateId> gfanin = topo.fanin(id);
    if (id == fault.gate && fault.is_stem()) {
      // Site output pinned to the stuck value; no function clauses.
      const Lit v = pos_lit(solver.new_var());
      solver.add_unit(fault.stuck_at_one() ? v : ~v);
      flit[id] = v;
      continue;
    }
    fin.clear();
    for (std::size_t k = 0; k < gfanin.size(); ++k) {
      const GateId f = gfanin[k];
      if (id == fault.gate && k == fault.pin) {
        // Forced pin: a fresh variable pinned to the stuck value.
        const Lit c = pos_lit(solver.new_var());
        solver.add_unit(fault.stuck_at_one() ? c : ~c);
        fin.push_back(c);
      } else {
        fin.push_back(scope.in_cone(f) ? flit[f] : good.lit(f));
      }
    }
    switch (gtype) {
      case GateType::kBuf:
      case GateType::kOutput:
        flit[id] = fin[0];
        break;
      case GateType::kNot:
        flit[id] = ~fin[0];
        break;
      default: {
        const Lit v = pos_lit(solver.new_var());
        add_gate_clauses(solver, gtype, v, fin);
        flit[id] = v;
        break;
      }
    }
  }

  // D-chain: the site differs, and every differing unobserved cone gate
  // hands the difference to a cone fanout, so the chain ends at an observed
  // gate that differs.
  std::vector<Lit>& dlit = dlit_;
  for (GateId g : scope.cone()) dlit[g] = pos_lit(solver.new_var());
  for (GateId g : scope.cone()) {
    const Lit d = dlit[g], a = good.lit(g), b = flit[g];
    solver.add_ternary(~d, a, b);  // d -> good != faulty
    solver.add_ternary(~d, ~a, ~b);
    if (observed_[g]) continue;
    clause_.assign(1, ~d);  // d -> some cone fanout differs too
    for (GateId s : topo.fanout(g)) {
      if (scope.in_cone(s)) clause_.push_back(dlit[s]);
    }
    solver.add_clause(clause_);
  }
  if (!dpin) solver.add_unit(dlit[fault.gate]);

  const SatResult res =
      solver.solve({}, options.conflict_limit, options.run_control);
  flush_sat_stats(options.telemetry, solver);
  if (res != SatResult::kSat) {
    out.status = res == SatResult::kUnsat ? AtpgStatus::kUntestable
                                          : AtpgStatus::kAborted;
    return out;
  }
  out.status = AtpgStatus::kDetected;
  out.cube = TestCube(comb_inputs_.size());
  for (std::size_t i = 0; i < comb_inputs_.size(); ++i) {
    if (!scope.in_support(comb_inputs_[i])) continue;  // cannot matter: X
    const Lit l = good.lit(comb_inputs_[i]);
    out.cube.bits[i] =
        solver.model_value(l.var()) != l.negated() ? Val3::kOne : Val3::kZero;
  }
  relax_cube(fault, out.cube);
  return out;
}

}  // namespace aidft
