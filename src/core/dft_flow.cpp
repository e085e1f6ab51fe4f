#include "core/dft_flow.hpp"

#include <sstream>
#include <string_view>

#include "common/error.hpp"
#include "fault/fault.hpp"
#include "obs/json.hpp"

namespace aidft {
namespace {

// Records a stage outcome in the report and on the per-outcome counter.
void record_outcome(DftFlowReport& report, obs::Telemetry* telemetry,
                    const char* name, StageOutcome outcome) {
  report.stage_outcomes.emplace_back(name, outcome);
  if (telemetry != nullptr) {
    obs::add(telemetry,
             std::string("flow.stage_outcome.") + to_string(outcome));
  }
}

// Runs one flow stage under a `flow.<name>` span and records its wall time
// and outcome in the report. The clock read costs nothing worth gating, so
// stage_seconds fills whether or not a telemetry sink is attached.
//
// Run-control semantics: a stage reached after the budget is already
// exhausted (or cancellation requested) is recorded kSkipped and never runs;
// stage budgets are keyed on the bare stage name ("atpg" for "flow.atpg") and
// scoped with begin_stage/end_stage so one stage's budget expiry never bleeds
// into the next; an aidft::Error thrown by the body is captured as kFailed
// (with its message in stage_errors) instead of escaping the flow. The body
// returns the outcome its engine reported (kCompleted for stages without an
// interruptible engine).
template <typename Body>
StageOutcome run_stage(DftFlowReport& report, obs::Telemetry* telemetry,
                       RunControl* rc, const char* name, Body&& body) {
  // check(), not poll(): stage entry is a serial orchestration boundary, so
  // it participates in cancel_after_checks() determinism.
  if (rc != nullptr && rc->check() != StopReason::kNone) {
    record_outcome(report, telemetry, name, StageOutcome::kSkipped);
    return StageOutcome::kSkipped;
  }
  if (rc != nullptr) {
    rc->begin_stage(std::string_view(name).substr(sizeof("flow.") - 1));
  }
  obs::Span stage_span = obs::span(telemetry, name, "flow");
  obs::Stopwatch clock;
  StageOutcome outcome = StageOutcome::kCompleted;
  try {
    outcome = body();
  } catch (const Error& e) {
    outcome = StageOutcome::kFailed;
    report.stage_errors.emplace_back(name, e.what());
  }
  if (rc != nullptr) rc->end_stage();
  report.stage_seconds.emplace_back(name, clock.seconds());
  if (outcome != StageOutcome::kCompleted && stage_span.active()) {
    stage_span.arg("outcome", to_string(outcome));
  }
  record_outcome(report, telemetry, name, outcome);
  return outcome;
}

}  // namespace

DftFlowReport run_dft_flow(const Netlist& input, const DftFlowOptions& options) {
  AIDFT_REQUIRE(options.run_drc || input.finalized(),
                "run_dft_flow without DRC requires a finalized netlist");
  DftFlowReport report;
  obs::Telemetry* telemetry = options.telemetry;
  RunControl* rc = options.run_control;
  const std::uint64_t cancels_before = rc != nullptr ? rc->cancellations() : 0;
  obs::Span flow_span = obs::span(telemetry, "flow.run", "flow");

  // Marks every not-yet-recorded downstream stage kSkipped, so an aborted
  // report still lists the full plan. Only option-gated stages are known at
  // abort time; data-gated ones (compression without cubes, power without
  // patterns) would not have run on the happy path either.
  const auto skip_downstream = [&] {
    const std::pair<const char*, bool> rest[] = {
        {"flow.fault_universe", true},
        {"flow.scan_plan", true},
        {"flow.atpg", true},
        {"flow.compression", options.run_compression},
        {"flow.lbist", options.run_lbist},
        {"flow.transition", options.run_transition},
        {"flow.power", options.run_power},
    };
    for (const auto& [name, enabled] : rest) {
      if (enabled) {
        record_outcome(report, telemetry, name, StageOutcome::kSkipped);
      }
    }
  };
  const auto finish = [&] {
    if (telemetry != nullptr) {
      flow_span.arg("stages", report.stage_seconds.size());
      if (report.degraded()) flow_span.arg("degraded", "true");
      if (rc != nullptr) {
        // runctl.checks is emitted (as deltas) by the campaigns themselves;
        // the flow owns the cancellation count to avoid double counting.
        obs::add(telemetry, "runctl.cancellations",
                 rc->cancellations() - cancels_before);
      }
      flow_span.end();
      report.metrics = telemetry->metrics.snapshot();
    }
  };

  // DRC + SCOAP audit first — an unfinalized netlist is allowed here and
  // only here, so structural defects come back as rule violations instead
  // of finalize() throws. Error findings abort before pattern generation.
  // A DRC-clean netlist is guaranteed to finalize; when the caller handed
  // us a raw one we finalize a copy and run the rest of the flow on that.
  Netlist finalized_copy;
  const Netlist* active = &input;
  if (options.run_drc) {
    report.drc_ran = true;
    const StageOutcome drc_outcome =
        run_stage(report, telemetry, rc, "flow.drc", [&]() -> StageOutcome {
          DrcOptions drc_opts = options.drc;
          drc_opts.telemetry = telemetry;
          report.drc = run_drc(input, drc_opts);
          if (!report.drc.clean()) return StageOutcome::kCompleted;
          if (!input.finalized()) {
            finalized_copy = input;
            finalized_copy.finalize();
            active = &finalized_copy;
          }
          if (!active->dffs().empty()) {
            // Scan-stitching self-audit: insert per the same plan the flow
            // will use and run the chain-integrity rules (D6..D8) on the
            // result.
            const ScanPlan audit_plan =
                plan_scan_chains(*active, options.scan_chains);
            const ScanNetlist audit = insert_scan(*active, audit_plan);
            check_scan_chains(audit, audit_plan, report.drc, drc_opts);
          }
          return StageOutcome::kCompleted;
        });
    if (!report.drc.clean()) {
      report.drc_aborted = true;
      if (telemetry != nullptr) flow_span.arg("drc_aborted", "true");
      skip_downstream();
      finish();
      return report;
    }
    // A skipped or failed DRC stage on a raw netlist leaves nothing
    // finalized to run on — every downstream stage would only throw.
    if (drc_outcome != StageOutcome::kCompleted && !active->finalized()) {
      skip_downstream();
      finish();
      return report;
    }
  }
  const Netlist& nl = *active;
  report.stats = compute_stats(nl);

  // Fault universe.
  std::vector<Fault> faults;
  run_stage(report, telemetry, rc, "flow.fault_universe",
            [&]() -> StageOutcome {
              const auto universe = generate_stuck_at_faults(nl);
              report.faults_total = universe.size();
              faults = collapse_equivalent(nl, universe);
              report.faults_collapsed = faults.size();
              obs::add(telemetry, "flow.faults_total", report.faults_total);
              obs::add(telemetry, "flow.faults_collapsed",
                       report.faults_collapsed);
              return StageOutcome::kCompleted;
            });

  // Scan planning.
  run_stage(report, telemetry, rc, "flow.scan_plan", [&]() -> StageOutcome {
    report.scan_plan = plan_scan_chains(nl, options.scan_chains);
    return StageOutcome::kCompleted;
  });

  // One campaign worker count for every grading stage (see DftFlowOptions).
  const std::size_t num_threads = options.campaign.num_threads;

  // ATPG.
  run_stage(report, telemetry, rc, "flow.atpg", [&]() -> StageOutcome {
    AtpgOptions atpg_opts = options.atpg;
    atpg_opts.num_threads = num_threads;
    atpg_opts.telemetry = telemetry;
    atpg_opts.run_control = rc;
    report.atpg = generate_tests(nl, faults, atpg_opts);
    report.scan_time.patterns = report.atpg.patterns.size();
    report.scan_time.max_chain_length = report.scan_plan.max_chain_length();
    return report.atpg.outcome;
  });

  // Compression (deterministic cubes only — X density is the fuel). A
  // partial ATPG pattern set still compresses soundly: the stage grades
  // whatever cubes exist.
  if (options.run_compression && !nl.dffs().empty() &&
      !report.atpg.cubes.empty()) {
    report.compression_ran = true;
    run_stage(report, telemetry, rc, "flow.compression",
              [&]() -> StageOutcome {
                CompressedSessionConfig compression_opts = options.compression;
                compression_opts.num_threads = num_threads;
                compression_opts.telemetry = telemetry;
                compression_opts.run_control = rc;
                report.compression =
                    run_compressed_session(nl, report.scan_plan, faults,
                                           report.atpg.cubes, compression_opts);
                return report.compression.outcome;
              });
  }

  // LBIST sign-off.
  if (options.run_lbist) {
    report.lbist_ran = true;
    run_stage(report, telemetry, rc, "flow.lbist", [&]() -> StageOutcome {
      LbistConfig lbist_opts = options.lbist;
      lbist_opts.num_threads = num_threads;
      lbist_opts.telemetry = telemetry;
      lbist_opts.run_control = rc;
      report.lbist = run_lbist(nl, faults, lbist_opts);
      return report.lbist.outcome;
    });
  }

  // Transition-delay test on the same collapsed lines.
  if (options.run_transition) {
    report.transition_ran = true;
    run_stage(report, telemetry, rc, "flow.transition", [&]() -> StageOutcome {
      TransitionAtpgOptions transition_opts = options.transition;
      transition_opts.num_threads = num_threads;
      transition_opts.telemetry = telemetry;
      transition_opts.run_control = rc;
      const auto tfaults = generate_transition_faults(nl);
      report.transition = generate_transition_tests(nl, tfaults, transition_opts);
      return report.transition.outcome;
    });
  }

  // Shift-power accounting of the shipped stuck-at patterns.
  if (options.run_power && !nl.dffs().empty() &&
      !report.atpg.patterns.empty()) {
    report.power_ran = true;
    run_stage(report, telemetry, rc, "flow.power", [&]() -> StageOutcome {
      report.power = shift_power(nl, report.scan_plan, report.atpg.patterns);
      return StageOutcome::kCompleted;
    });
  }

  finish();
  return report;
}

namespace {

// One-line digest of every stage that did not complete; empty on the happy
// path so the report text is unchanged for uninterrupted runs.
std::string outcome_digest(
    const std::vector<std::pair<std::string, StageOutcome>>& stage_outcomes) {
  std::ostringstream ss;
  bool any = false;
  for (const auto& [stage, outcome] : stage_outcomes) {
    if (outcome == StageOutcome::kCompleted) continue;
    ss << (any ? " " : "runctl: ") << stage << "=" << to_string(outcome);
    any = true;
  }
  if (any) ss << "\n";
  return ss.str();
}

}  // namespace

std::string DftFlowReport::to_string() const {
  std::ostringstream ss;
  if (drc_ran) {
    ss << "drc:    " << drc.total_found() << " violation(s), " << drc.errors()
       << " error(s)";
    if (drc.scoap.ran) {
      ss << " | scoap avg co " << drc.scoap.avg_co << ", unobservable "
         << drc.scoap.unreachable_co;
    }
    ss << "\n";
    for (const DrcViolation& v : drc.violations) {
      ss << "        " << v.to_string() << "\n";
    }
    if (drc_aborted) {
      ss << "flow:   ABORTED on DRC errors — no patterns generated\n";
      ss << outcome_digest(stage_outcomes);
      return ss.str();
    }
  }
  ss << "design: " << stats.to_string() << "\n";
  ss << "faults: " << faults_total << " uncollapsed, " << faults_collapsed
     << " collapsed (ratio "
     << (faults_total ? static_cast<double>(faults_collapsed) / faults_total : 1.0)
     << ")\n";
  ss << "scan:   " << scan_plan.num_chains() << " chains, max length "
     << scan_plan.max_chain_length() << "\n";
  ss << "atpg:   " << atpg.patterns.size() << " patterns | coverage "
     << 100.0 * atpg.fault_coverage() << "% fault / "
     << 100.0 * atpg.test_coverage() << "% test | " << atpg.untestable
     << " untestable, " << atpg.aborted << " aborted\n";
  ss << "        engines: " << atpg.podem_calls << " PODEM calls, "
     << atpg.sat_calls << " SAT calls, random phase detected "
     << atpg.random_phase_detected << "\n";
  ss << "time:   " << scan_time.cycles() << " scan cycles uncompressed\n";
  if (compression_ran) {
    ss << "edt:    " << compression.cubes_encoded << "/"
       << compression.cubes_offered << " cubes encoded, stimulus compression "
       << compression.stimulus_compression << "x | coverage "
       << 100.0 * compression.coverage_ideal() << "% ideal / "
       << 100.0 * compression.coverage_compacted() << "% compacted\n";
  }
  if (lbist_ran) {
    ss << "lbist:  " << lbist.patterns << " patterns -> "
       << 100.0 * lbist.coverage() << "% coverage\n";
  }
  if (transition_ran) {
    ss << "trans:  " << transition.patterns.size() << " vectors ("
       << transition.patterns.size() / 2 << " pairs) | coverage "
       << 100.0 * transition.fault_coverage() << "% fault / "
       << 100.0 * transition.test_coverage() << "% test\n";
  }
  if (power_ran) {
    ss << "power:  avg WTM/pattern " << power.avg_wtm_per_pattern << ", peak "
       << power.peak_wtm_pattern << "\n";
  }
  ss << outcome_digest(stage_outcomes);
  for (const auto& [stage, what] : stage_errors) {
    ss << "error:  " << stage << ": " << what << "\n";
  }
  return ss.str();
}

std::string DftFlowReport::to_json() const {
  obs::JsonWriter w;
  w.begin_object();

  if (drc_ran) {
    // DrcReport::to_json emits a complete JSON object, spliced verbatim.
    w.key("drc").raw(drc.to_json());
    w.field("drc_aborted", drc_aborted);
  }

  w.key("design").begin_object();
  w.field("gates", stats.num_gates);
  w.field("logic_gates", stats.num_logic_gates);
  w.field("inputs", stats.num_inputs);
  w.field("outputs", stats.num_outputs);
  w.field("dffs", stats.num_dffs);
  w.field("depth", static_cast<std::uint64_t>(stats.depth));
  w.field("max_fanout", stats.max_fanout);
  w.field("avg_fanin", stats.avg_fanin);
  w.end_object();

  w.key("faults").begin_object();
  w.field("total", faults_total);
  w.field("collapsed", faults_collapsed);
  w.end_object();

  w.key("scan").begin_object();
  w.field("chains", scan_plan.num_chains());
  w.field("max_chain_length", scan_plan.max_chain_length());
  w.field("uncompressed_cycles", scan_time.cycles());
  w.end_object();

  w.key("atpg").begin_object();
  w.field("patterns", atpg.patterns.size());
  w.field("cubes", atpg.cubes.size());
  w.field("detected", atpg.detected);
  w.field("untestable", atpg.untestable);
  w.field("aborted", atpg.aborted);
  w.field("random_phase_detected", atpg.random_phase_detected);
  w.field("podem_calls", atpg.podem_calls);
  w.field("sat_calls", atpg.sat_calls);
  w.field("fault_coverage", atpg.fault_coverage());
  w.field("test_coverage", atpg.test_coverage());
  w.end_object();

  if (compression_ran) {
    w.key("compression").begin_object();
    w.field("cubes_offered", compression.cubes_offered);
    w.field("cubes_encoded", compression.cubes_encoded);
    w.field("encode_failures", compression.encode_failures);
    w.field("stimulus_compression", compression.stimulus_compression);
    w.field("response_compression", compression.response_compression);
    w.field("coverage_baseline", compression.coverage_baseline());
    w.field("coverage_ideal", compression.coverage_ideal());
    w.field("coverage_compacted", compression.coverage_compacted());
    w.end_object();
  }

  if (lbist_ran) {
    w.key("lbist").begin_object();
    w.field("patterns", lbist.patterns);
    w.field("detected", lbist.detected);
    w.field("coverage", lbist.coverage());
    w.end_object();
  }

  if (transition_ran) {
    w.key("transition").begin_object();
    w.field("patterns", transition.patterns.size());
    w.field("detected", transition.detected);
    w.field("untestable", transition.untestable);
    w.field("aborted", transition.aborted);
    w.field("fault_coverage", transition.fault_coverage());
    w.field("test_coverage", transition.test_coverage());
    w.end_object();
  }

  if (power_ran) {
    w.key("power").begin_object();
    w.field("avg_wtm_per_pattern", power.avg_wtm_per_pattern);
    w.field("peak_wtm_pattern", power.peak_wtm_pattern);
    w.end_object();
  }

  w.key("stage_seconds").begin_object();
  for (const auto& [stage, seconds] : stage_seconds) {
    w.field(stage, seconds);
  }
  w.end_object();

  w.key("stage_outcomes").begin_object();
  for (const auto& [stage, outcome] : stage_outcomes) {
    w.field(stage, aidft::to_string(outcome));
  }
  w.end_object();

  if (!stage_errors.empty()) {
    w.key("stage_errors").begin_object();
    for (const auto& [stage, what] : stage_errors) {
      w.field(stage, what);
    }
    w.end_object();
  }

  // MetricsSnapshot::to_json emits a complete JSON object, spliced verbatim.
  w.key("metrics").raw(metrics.to_json());

  w.end_object();
  return std::move(w).take();
}

}  // namespace aidft
