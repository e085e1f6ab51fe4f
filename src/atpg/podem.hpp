// PODEM (Path-Oriented DEcision Making) test generation (Goel 1981).
//
// Search is over primary-input assignments only: an *objective* (line,
// value) is chosen — first to activate the fault, then to advance the
// D-frontier — and *backtraced* through the circuit to an unassigned input,
// guided by SCOAP controllabilities. Implication runs two 3-valued machines
// (good, faulty-within-cone); detection is a both-known, differing pair at
// an observe point. Completeness: objectives only steer the search; the
// decision tree enumerates input assignments, so exhausting it proves the
// fault untestable, and exceeding the backtrack budget yields kAborted.
//
// Implication is event-driven and scoped to the fault (FaultScope): every
// value the search reads lies in the fault's support, the transitive fanin
// of its output cone. Each search starts with every support gate at X,
// stored without an evaluation: with all inputs X, only the support's
// constant gates, the fault site (its forced value) and the constrained
// inputs can leave X, so they seed the first implication. After that, each
// input whose assignment changed (a decision, a flip, or a pop back to X)
// is an event, propagated level by level through support gates only, and
// stopped at a gate whose good and faulty values both stay put. Only
// relax(), whose cube is fully assigned, starts from a full levelized pass.
// The faulty machine is evaluated only on the cone; outside it the faulty
// value is the good one. An undo is just another event, so no trail is
// kept.
//
// generate() and justify() share one search. Line justification is the
// empty-cone case of a fault: the line stuck at the opposite of the wanted
// value, scoped to the line's fanin, is "detected" once the line holds the
// value, which is how a DFF D-pin fault is detected too. This machine is
// also the only 3-valued one in ATPG: SatAtpg borrows the scope of the
// current target and relaxes its cubes with relax().
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "atpg/fault_scope.hpp"
#include "common/run_control.hpp"
#include "fault/fault.hpp"
#include "netlist/netlist.hpp"
#include "netlist/scoap.hpp"
#include "sim/pattern.hpp"

namespace aidft {

enum class AtpgStatus : std::uint8_t {
  kDetected,    // cube found
  kUntestable,  // proven: no input assignment detects the fault
  kAborted,     // budget exceeded before either proof
};

struct AtpgOutcome {
  AtpgStatus status = AtpgStatus::kAborted;
  TestCube cube;  // valid when status == kDetected (X = don't care)
  std::uint64_t backtracks = 0;
  std::uint64_t decisions = 0;
  std::uint64_t implications = 0;
  /// Gate evaluations performed by implication (PODEM only).
  std::uint64_t events = 0;
};

struct PodemOptions {
  std::uint64_t backtrack_limit = 10'000;
  /// Pin constraints: combinational inputs (PIs or flop pseudo-inputs, by
  /// gate id) held at fixed values throughout the search. Used e.g. to
  /// model a test mode (wrapper enable held at 1, functional inputs held
  /// quiet). A fault unprovable under the constraints is reported
  /// kUntestable — untestable *in this mode*.
  std::vector<std::pair<GateId, Val3>> constraints;
  /// Run control: null = search to the backtrack limit. When set, the search
  /// polls every 256 backtracks and reports kAborted on expiry/cancel — the
  /// same partial-result shape as a backtrack-budget abort.
  RunControl* run_control = nullptr;
};

class Podem {
 public:
  /// `scoap` may be null (falls back to level-based guidance); if given it
  /// must outlive the Podem object, as must `netlist`.
  explicit Podem(const Netlist& netlist, const ScoapResult* scoap = nullptr);

  AtpgOutcome generate(const Fault& fault, const PodemOptions& options = {});

  /// Line justification: finds an input cube that sets gate `line` to
  /// `value` (no fault, no propagation — used e.g. for the launch vector of
  /// a transition test). kDetected = cube found; kUntestable = value proven
  /// unreachable; kAborted = budget exceeded.
  AtpgOutcome justify(GateId line, Val3 value, const PodemOptions& options = {});

  /// Makes stuck-at `fault` the target of the next search or relax(),
  /// scoping it (generate() starts with this). Throws aidft::Error for a
  /// fault that is not stuck-at or is out of range.
  void target(const Fault& fault);
  /// Makes "`line` holds `value`" the target (justify() starts with this).
  void target_line(GateId line, Val3 value);
  /// Turns the care bits of `cube`, first to last, into X while the cube
  /// still meets the current target in 3-valued logic (a known difference
  /// at an observed cone gate; for an empty cone, the line holding its
  /// value), so every completion of the result meets it. `cube` must meet
  /// the target on entry.
  void relax(TestCube& cube);

  const Netlist& netlist() const { return *nl_; }
  /// The current target's scope.
  const FaultScope& scope() const { return scope_; }
  /// Combinational inputs, in cube bit order.
  const std::vector<GateId>& inputs() const { return comb_inputs_; }
  /// True if gate `g` is the observed gate of an observe point.
  bool observed(GateId g) const { return observed_flag_[g]; }

 private:
  struct Decision {
    std::size_t input_idx;  // index into combinational inputs
    bool flipped;           // both phases tried?
  };

  /// Sets comb input `idx` to `v`; the next imply() propagates the change.
  void assign(std::size_t idx, Val3 v);
  /// Levelized pass over the whole support, for a fully assigned cube:
  /// the start of relax().
  void imply_all();
  /// Propagates the inputs assigned since the last implication, and
  /// re-evaluates the support gates `seeds` (with their events) in level
  /// order.
  void imply(std::span<const GateId> seeds = {});
  /// The start of a search: every support gate to X (no evaluation), then
  /// imply() from the only gates that can leave X.
  void imply_from_x();
  /// Re-evaluates gate `g`'s good and faulty values; true if either changed.
  bool evaluate(GateId g);
  bool fault_activated() const;
  /// The target is met: a known difference at an observed cone gate, or,
  /// for an empty cone, the activated line.
  bool detected() const;
  /// True if some D-frontier gate still has an X-path to an observe point.
  bool x_path_exists() const;
  /// Chooses the next objective; returns false if none (dead end).
  bool pick_objective(GateId& obj_gate, Val3& obj_val) const;
  /// The decision loop over the current target.
  AtpgOutcome search(const PodemOptions& options);
  /// Closes a search: `status`, the cube when detected, and the effort.
  AtpgOutcome finish(AtpgOutcome out, AtpgStatus status) const;
  /// Walks an objective back to an unassigned input; returns (input index,
  /// value to assign).
  std::pair<std::size_t, Val3> backtrace(GateId gate, Val3 val) const;

  const Netlist* nl_;
  const Topology* topo_ = nullptr;  // compiled view; set in the constructor
  const ScoapResult* scoap_;
  std::vector<GateId> comb_inputs_;
  std::vector<std::size_t> input_index_;  // GateId -> comb input idx (or npos)
  std::vector<bool> observed_flag_;       // per gate: is an observe gate
  std::vector<Val3> assignment_;          // per comb input
  std::vector<Val3> good_;    // valid on the support
  std::vector<Val3> faulty_;  // valid on the support; == good_ off the cone
  FaultScope scope_;
  Fault fault_;  // the targeted fault (ignored while the cone is empty)
  Val3 stuck_ = Val3::kX;
  std::vector<GateId> cone_observed_;  // observe gates inside the cone
  std::vector<std::size_t> touched_;   // inputs assigned since last imply
  std::vector<GateId> seeds_;          // imply_from_x() scratch
  std::vector<std::vector<GateId>> buckets_;  // levelized event queue
  std::vector<std::uint8_t> queued_;          // per gate: in a bucket
  mutable std::vector<GateId> dfrontier_;  // scratch
  mutable std::vector<GateId> stack_;      // scratch for x_path_exists
  mutable std::vector<std::uint32_t> visit_;  // x_path_exists marks
  mutable std::uint32_t visit_epoch_ = 0;
  std::uint64_t implications_ = 0;
  std::uint64_t events_ = 0;
};

}  // namespace aidft
