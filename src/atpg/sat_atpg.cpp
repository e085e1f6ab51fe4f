#include "atpg/sat_atpg.hpp"

#include <vector>

namespace aidft {
namespace {

// Flushes one solve's `sat.*` counters into `t` (null = off): `sat.solves`
// += 1, the encoding's `sat.vars` and `sat.clauses`, and the search's
// conflicts, decisions, propagations and restarts.
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

}  // namespace

SatAtpg::SatAtpg(Podem& podem)
    : podem_(&podem),
      good_(podem.netlist()),
      flit_(podem.netlist().num_gates()),
      dlit_(podem.netlist().num_gates()) {}

AtpgOutcome SatAtpg::generate(const Fault& fault, const SatAtpgOptions& options) {
  podem_->target(fault);
  return solve(fault, options);
}

AtpgOutcome SatAtpg::justify(GateId line, Val3 value,
                             const SatAtpgOptions& options) {
  podem_->target_line(line, value);
  const std::uint8_t stuck = value == Val3::kOne ? 0 : 1;
  return solve(Fault{line, kStemPin, stuck, FaultKind::kStuckAt}, options);
}

AtpgOutcome SatAtpg::solve(const Fault& fault, const SatAtpgOptions& options) {
  const Topology& topo = podem_->netlist().topology();
  const FaultScope& scope = podem_->scope();
  const bool dpin = scope.dpin();
  AtpgOutcome out;
  SatSolver& solver = solver_;
  solver.reset();

  bool observable = dpin;  // a D-pin fault is observed at its own flop
  for (GateId g : scope.cone()) observable = observable || podem_->observed(g);
  if (!observable) {
    flush_sat_stats(options.telemetry, solver);
    out.status = AtpgStatus::kUntestable;  // no observable path exists at all
    return out;
  }

  CircuitCnf& good = good_;
  good.encode(solver, scope.support());
  // Activation: the fault line carries the opposite of the stuck value. For
  // a D-pin fault (and a justified line) that alone is detection.
  const Lit active = good.lit(scope.line());
  solver.add_unit(fault.stuck_at_one() ? ~active : active);

  // Faulty copy of the cone. flit_ and dlit_ are read only at cone gates,
  // each after it is written.
  std::vector<Lit>& flit = flit_;
  std::vector<Lit>& fin = fanin_;
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
        add_gate_clauses(solver, gtype, v, fin, clause_);
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
    if (podem_->observed(g)) continue;
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
  const std::vector<GateId>& inputs = podem_->inputs();
  out.cube = TestCube(inputs.size());
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    if (!scope.in_support(inputs[i])) continue;  // cannot matter: X
    const Lit l = good.lit(inputs[i]);
    out.cube.bits[i] =
        solver.model_value(l.var()) != l.negated() ? Val3::kOne : Val3::kZero;
  }
  podem_->relax(out.cube);
  return out;
}

}  // namespace aidft
