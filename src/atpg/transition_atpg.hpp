// Transition-delay-fault ATPG (enhanced-scan two-vector tests).
//
// A slow-to-rise fault at line L needs a pattern pair: a launch vector V1
// setting L to 0, then a capture vector V2 that detects L stuck-at-0 (i.e.
// sets L to 1 and propagates the late value to an observe point). With
// enhanced scan both vectors are loaded independently, so V1 is a pure line
// justification and V2 a pure stuck-at test — both served by the hand-off
// stuck-at ATPG uses (AtpgHandOff): PODEM first, SAT when PODEM aborts.
// Justification is each engine's empty-cone case, so a SAT launch cube is
// encoded over the line's fanin only and comes back relaxed, X outside it,
// like PODEM's. The result interleaves [V1a, V2a, V1b, V2b, ...] so the
// standard pattern-pair fault-simulation campaign grades it directly.
#pragma once

#include <vector>

#include "atpg/atpg.hpp"  // FaultStatus
#include "atpg/podem.hpp"
#include "fault/fault.hpp"
#include "netlist/netlist.hpp"

namespace aidft {

struct TransitionAtpgOptions {
  PodemOptions podem;
  std::uint64_t seed = 5;  // X-fill of the emitted pairs
  std::size_t num_threads = 1;  // fault-campaign workers for (re)grading
  /// Observability sink: null (default) = off. Emits an `atpg.transition`
  /// span (with podem_calls, sat_calls and backtracks args) plus aggregated
  /// `podem.*` counters; campaigns and SAT fallbacks inherit the same sink.
  obs::Telemetry* telemetry = nullptr;
  /// Run control: null (default) = run to completion. When set it is
  /// check()ed once per fault and inherited by PODEM, the SAT fallbacks and
  /// the intermediate dropping campaigns. On expiry/cancel the generator
  /// stops targeting new faults but still runs the final authoritative
  /// regrade over the pairs emitted so far, so every reported status is
  /// true for the returned pattern set (outcome != kCompleted).
  RunControl* run_control = nullptr;
};

/// A fault is untestable when no stuck-at test exists for its capture
/// vector or its line cannot hold the initial value.
struct TransitionAtpgResult : AtpgDispositions {
  /// Interleaved launch/capture patterns, fully specified.
  std::vector<TestCube> patterns;
};

/// Generates pattern pairs for a transition-fault list (kind ==
/// kTransition), with pair-wise fault dropping via the transition campaign.
TransitionAtpgResult generate_transition_tests(
    const Netlist& netlist, const std::vector<Fault>& faults,
    const TransitionAtpgOptions& options = {});

}  // namespace aidft
