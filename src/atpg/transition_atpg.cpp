#include "atpg/transition_atpg.hpp"

#include "common/rng.hpp"

namespace aidft {

TransitionAtpgResult generate_transition_tests(
    const Netlist& nl, const std::vector<Fault>& faults,
    const TransitionAtpgOptions& options) {
  AIDFT_REQUIRE_CTX(nl.finalized(), "generate_transition_tests",
                    "requires a finalized netlist");
  const Topology& topo = nl.topology();
  for (const Fault& f : faults) {
    AIDFT_REQUIRE_CTX(f.kind == FaultKind::kTransition,
                      "generate_transition_tests", "takes transition faults");
    AIDFT_REQUIRE_CTX(f.gate < topo.num_gates() &&
                          (f.is_stem() || f.pin < topo.fanin_size(f.gate)),
                      "generate_transition_tests", "fault out of range");
  }
  TransitionAtpgResult result;
  result.status.assign(faults.size(), FaultStatus::kUndetected);

  obs::Span phase_span =
      obs::span(options.telemetry, "atpg.transition", "atpg");
  const ScoapResult scoap = compute_scoap(nl);
  PodemOptions podem_opts = options.podem;
  podem_opts.run_control = options.run_control;
  AtpgHandOff engines(
      nl, &scoap, AtpgEngine::kPodemThenSat, podem_opts,
      {.telemetry = options.telemetry, .run_control = options.run_control},
      /*timing=*/nullptr);
  Rng rng(options.seed);

  // Grades the accumulated pattern list against all not-yet-detected faults
  // (pairs form at consecutive indices; our interleaving guarantees each
  // generated (V1,V2) sits at (2k, 2k+1)). Inheriting run control here is
  // safe: an early stop only *misses* incidental detections (more
  // deterministic work later), it never records a false one.
  auto drop_detected = [&] {
    grade_statuses(nl, faults, result.status, result.patterns,
                   {.num_threads = options.num_threads,
                    .telemetry = options.telemetry,
                    .run_control = options.run_control});
  };

  std::size_t since_drop = 0;
  for (std::size_t i = 0; i < faults.size(); ++i) {
    if (result.status[i] != FaultStatus::kUndetected) continue;
    if (options.run_control != nullptr) {
      result.outcome = outcome_from(options.run_control->check());
      if (result.outcome != StageOutcome::kCompleted) break;
    }
    const Fault& f = faults[i];
    const GateId line = f.is_stem() ? f.gate : topo.fanin(f.gate)[f.pin];
    // Initial value the launch vector must establish: the opposite of the
    // transition's final value. The late line then behaves as stuck-at-init
    // during capture.
    const Val3 init = f.stuck_at_one() ? Val3::kZero : Val3::kOne;

    Fault as_stuck = f;
    as_stuck.kind = FaultKind::kStuckAt;
    as_stuck.value = f.value ? 0 : 1;
    const AtpgOutcome capture = engines.generate(as_stuck);
    if (capture.status != AtpgStatus::kDetected) {
      result.status[i] = fault_status(capture.status);
      continue;
    }
    // An untestable launch: the line can never hold the initial value, so
    // no transition is possible.
    const AtpgOutcome launch = engines.justify(line, init);
    if (launch.status != AtpgStatus::kDetected) {
      result.status[i] = fault_status(launch.status);
      continue;
    }
    TestCube v1 = launch.cube;
    TestCube v2 = capture.cube;
    v1.random_fill(rng);
    v2.random_fill(rng);
    result.patterns.push_back(std::move(v1));
    result.patterns.push_back(std::move(v2));
    result.status[i] = FaultStatus::kDetected;  // provisional; regraded below

    if (++since_drop >= 16) {
      since_drop = 0;
      drop_detected();
    }
  }

  // Final authoritative grade: statuses must reflect what the emitted
  // pattern set actually detects. Deliberately NOT run-controlled — its cost
  // is proportional to the pairs actually emitted, and skipping it could
  // leave a provisional kDetected that the pattern set does not back up.
  grade_statuses(nl, faults, result.status, result.patterns,
                 {.num_threads = options.num_threads,
                  .telemetry = options.telemetry},
                 /*recheck_detected=*/true);

  const AtpgEffort& effort = engines.effort();
  result.podem_calls = effort.podem_calls;
  result.podem_backtracks = effort.podem_backtracks;
  result.sat_calls = effort.sat_calls;
  result.count();

  if (options.telemetry != nullptr) {
    effort.flush_podem(options.telemetry);
    phase_span.arg("pairs", result.patterns.size() / 2);
    phase_span.arg("podem_calls", result.podem_calls);
    phase_span.arg("sat_calls", result.sat_calls);
    phase_span.arg("backtracks", result.podem_backtracks);
    phase_span.arg("detected", result.detected);
  }
  return result;
}

}  // namespace aidft
