#include "atpg/transition_atpg.hpp"

#include "atpg/sat_atpg.hpp"
#include "common/rng.hpp"
#include "netlist/scoap.hpp"
#include "sat/cnf.hpp"

namespace aidft {
namespace {

// SAT-based line justification over the whole circuit: is there an input
// assignment with `line` == value? Returns a fully specified cube on
// success. Each call encodes the circuit into the emptied solver, whose
// buffers and literal table are reused across calls.
class SatJustifier {
 public:
  explicit SatJustifier(const Netlist& nl)
      : cnf_(nl), inputs_(nl.combinational_inputs()) {}

  AtpgOutcome justify(GateId line, Val3 value, std::int64_t conflict_limit,
                      obs::Telemetry* telemetry, RunControl* run_control);

 private:
  SatSolver solver_;
  CircuitCnf cnf_;
  std::vector<GateId> inputs_;
};

AtpgOutcome SatJustifier::justify(GateId line, Val3 value,
                                  std::int64_t conflict_limit,
                                  obs::Telemetry* telemetry,
                                  RunControl* run_control) {
  AtpgOutcome out;
  solver_.reset();
  cnf_.encode(solver_);
  const Lit l = cnf_.lit(line);
  solver_.add_unit(value == Val3::kOne ? l : ~l);
  const SatResult res = solver_.solve({}, conflict_limit, run_control);
  flush_sat_stats(telemetry, solver_);
  if (res == SatResult::kUnsat) {
    out.status = AtpgStatus::kUntestable;
    return out;
  }
  if (res == SatResult::kUnknown) {
    out.status = AtpgStatus::kAborted;
    return out;
  }
  out.status = AtpgStatus::kDetected;
  out.cube = TestCube(inputs_.size());
  for (std::size_t i = 0; i < inputs_.size(); ++i) {
    const Lit il = cnf_.lit(inputs_[i]);
    out.cube.bits[i] = (solver_.model_value(il.var()) != il.negated())
                           ? Val3::kOne
                           : Val3::kZero;
  }
  return out;
}

}  // namespace

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
  Podem podem(nl, &scoap);
  SatAtpg sat(nl);
  SatJustifier sat_justifier(nl);
  const SatAtpgOptions sat_opts{options.sat_conflict_limit, options.telemetry,
                                options.run_control};
  PodemOptions podem_opts = options.podem;
  podem_opts.run_control = options.run_control;
  Rng rng(options.seed);

  std::uint64_t podem_calls = 0;
  std::uint64_t podem_backtracks = 0;
  std::uint64_t podem_decisions = 0;
  std::uint64_t podem_implications = 0;
  std::uint64_t podem_events = 0;
  auto note_podem = [&](const AtpgOutcome& o) {
    ++podem_calls;
    podem_backtracks += o.backtracks;
    podem_decisions += o.decisions;
    podem_implications += o.implications;
    podem_events += o.events;
  };

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
      const StopReason stop = options.run_control->check();
      if (stop != StopReason::kNone) {
        result.outcome = outcome_from(stop);
        break;
      }
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
    AtpgOutcome capture = podem.generate(as_stuck, podem_opts);
    note_podem(capture);
    if (capture.status == AtpgStatus::kAborted && options.sat_fallback) {
      capture = sat.generate(as_stuck, sat_opts);
    }
    if (capture.status == AtpgStatus::kUntestable) {
      result.status[i] = FaultStatus::kUntestable;
      continue;
    }
    if (capture.status == AtpgStatus::kAborted) {
      result.status[i] = FaultStatus::kAborted;
      continue;
    }
    AtpgOutcome launch = podem.justify(line, init, podem_opts);
    note_podem(launch);
    if (launch.status == AtpgStatus::kAborted && options.sat_fallback) {
      launch = sat_justifier.justify(line, init, options.sat_conflict_limit,
                                     options.telemetry, options.run_control);
    }
    if (launch.status == AtpgStatus::kUntestable) {
      // The line can never hold the initial value: no transition possible.
      result.status[i] = FaultStatus::kUntestable;
      continue;
    }
    if (launch.status == AtpgStatus::kAborted) {
      result.status[i] = FaultStatus::kAborted;
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

  for (FaultStatus s : result.status) {
    if (s == FaultStatus::kDetected) ++result.detected;
    if (s == FaultStatus::kUntestable) ++result.untestable;
    if (s == FaultStatus::kAborted) ++result.aborted;
  }

  if (options.telemetry != nullptr) {
    obs::add(options.telemetry, "podem.calls", podem_calls);
    obs::add(options.telemetry, "podem.backtracks", podem_backtracks);
    obs::add(options.telemetry, "podem.decisions", podem_decisions);
    obs::add(options.telemetry, "podem.implications", podem_implications);
    obs::add(options.telemetry, "podem.events", podem_events);
    phase_span.arg("pairs", result.patterns.size() / 2);
    phase_span.arg("detected", result.detected);
  }
  return result;
}

}  // namespace aidft
