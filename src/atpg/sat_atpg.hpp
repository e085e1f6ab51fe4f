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
// stay X, and Podem::relax turns further care bits into X while PODEM's
// event-driven good/faulty machine still shows a known difference at an
// observe point. UNSAT ⇒ the fault is provably untestable (combinationally
// redundant); hitting the conflict limit ⇒ abort. This is the engine that
// closes the aborts PODEM leaves behind (benchmark E2). DESIGN.md, "SAT
// miter: support, activation, D-chain", argues why each clause family keeps
// the encoding sound and complete.
//
// The engine owns no scope and no simulator: it borrows a Podem's. A call
// targets the Podem at the fault (a no-op rescoping when PODEM has just
// searched it), encodes the Podem's scope and relaxes the model on the
// Podem's machine. Line justification is the empty-cone case: the line's
// fanin and the activation unit "line = value", nothing else.
#pragma once

#include <cstdint>
#include <vector>

#include "atpg/podem.hpp"
#include "fault/fault.hpp"
#include "netlist/netlist.hpp"
#include "obs/telemetry.hpp"
#include "sat/cnf.hpp"
#include "sat/solver.hpp"

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

class SatAtpg {
 public:
  /// Borrows `podem`'s fault scope and 3-valued machine; `podem` must
  /// outlive this engine. A call leaves the Podem targeted at its fault.
  explicit SatAtpg(Podem& podem);

  /// Generates a test cube for a stuck-at fault, proves it untestable, or
  /// aborts at the conflict limit. The cube's X bits are don't-cares: every
  /// completion detects the fault. Each call encodes the fault's support
  /// into an emptied solver; the solver and the per-gate tables are reused
  /// across calls, so no call depends on an earlier one.
  AtpgOutcome generate(const Fault& fault, const SatAtpgOptions& options = {});
  /// Line justification: a cube whose every completion sets `line` to
  /// `value` (kDetected), a proof that none exists (kUntestable), or
  /// kAborted at the conflict limit.
  AtpgOutcome justify(GateId line, Val3 value,
                      const SatAtpgOptions& options = {});

 private:
  /// Encodes, solves and relaxes the Podem's current target, which is
  /// `fault` (for a justified line: the line stuck at the opposite value,
  /// over an empty cone).
  AtpgOutcome solve(const Fault& fault, const SatAtpgOptions& options);

  Podem* podem_;
  // Reused per call: emptied or overwritten before being read.
  SatSolver solver_;
  CircuitCnf good_;
  std::vector<Lit> flit_;  // per gate: faulty-machine literal of a cone gate
  std::vector<Lit> dlit_;  // per gate: D-chain literal of a cone gate
  std::vector<Lit> fanin_;   // scratch: one gate's fanin literals
  std::vector<Lit> clause_;  // scratch: one clause
};

}  // namespace aidft
