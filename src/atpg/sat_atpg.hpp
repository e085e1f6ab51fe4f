// SAT-based ATPG: a Larrabee-style miter with TEGUS-style active-path
// (D-chain) clauses.
//
// Per fault, an empty solver gets only what the fault can touch:
//   - the good machine of the *support*, the transitive fanin of the fault's
//     output cone (for a DFF D-pin fault, the transitive fanin of the pin's
//     driver);
//   - a faulty copy of the cone, with the fault site pinned to the stuck
//     value;
//   - the activation unit: the fault line's good value is the opposite of
//     the stuck value;
//   - a D-chain: for every cone gate g, d_g implies good_g != faulty_g, and
//     when g is not observed, d_g also implies the OR of d_s over g's cone
//     fanouts. d_site is a unit.
// SAT ⇒ the model's support inputs form a test; inputs outside the support
// stay X, and a greedy pass turns further care bits into X while a 3-valued
// good/faulty simulation of the support still shows a known difference at an
// observe point. UNSAT ⇒ the fault is provably untestable (combinationally
// redundant); hitting the conflict limit ⇒ abort. This is the engine that
// closes the aborts PODEM leaves behind (benchmark E2). DESIGN.md, "SAT
// miter: support, activation, D-chain", argues why each clause family keeps
// the encoding sound and complete.
#pragma once

#include <cstdint>
#include <vector>

#include "atpg/fault_scope.hpp"
#include "atpg/podem.hpp"  // AtpgOutcome/AtpgStatus
#include "fault/fault.hpp"
#include "netlist/netlist.hpp"
#include "obs/telemetry.hpp"
#include "sat/cnf.hpp"
#include "sat/solver.hpp"
#include "sim/val3.hpp"

namespace aidft {

struct SatAtpgOptions {
  std::int64_t conflict_limit = 200'000;  // <0 = unlimited
  /// Optional sink for `sat.*` counters, flushed once per generate() call:
  /// solves, the encoding's vars and clauses, and the search's conflicts,
  /// decisions, propagations and restarts. A fault whose cone holds no
  /// observe point is untestable without a search; it still counts one
  /// solve (of an empty encoding), so `sat.solves` equals the number of
  /// calls. Null = off.
  obs::Telemetry* telemetry = nullptr;
  /// Run control: null = solve to the conflict limit. When set, the solver
  /// polls every 1024 conflicts; expiry/cancel yields kAborted (the same
  /// shape as a conflict-budget abort).
  RunControl* run_control = nullptr;
};

/// Flushes one solve's `sat.*` counters into `telemetry` (null = off):
/// `sat.solves` += 1, the encoding's `sat.vars` and `sat.clauses`, and the
/// search's conflicts, decisions, propagations and restarts.
void flush_sat_stats(obs::Telemetry* telemetry, const SatSolver& solver);

class SatAtpg {
 public:
  explicit SatAtpg(const Netlist& netlist);

  /// Generates a test cube for a stuck-at fault, proves it untestable, or
  /// aborts at the conflict limit. The cube's X bits are don't-cares: every
  /// completion detects the fault. Each call encodes the fault's support
  /// into an emptied solver; the solver and the per-gate tables are reused
  /// across calls, so no call depends on an earlier one.
  AtpgOutcome generate(const Fault& fault, const SatAtpgOptions& options = {});

 private:
  /// Turns care bits of `cube` into X while it still detects the fault.
  void relax_cube(const Fault& fault, TestCube& cube);

  const Netlist* nl_;
  FaultScope scope_;  // rebuilt per call
  std::vector<GateId> comb_inputs_;
  std::vector<bool> observed_;  // per gate: observed_gate() of an observe point
  // Reused per call: emptied or overwritten before being read.
  SatSolver solver_;
  CircuitCnf good_;
  std::vector<Lit> flit_;  // per gate: faulty-machine literal of a cone gate
  std::vector<Lit> dlit_;  // per gate: D-chain literal of a cone gate
  std::vector<Lit> clause_;  // scratch: one gate's fanins, or a D-chain clause
  std::vector<Val3> good3_, bad3_;  // per gate: relax_cube's simulation
};

}  // namespace aidft
