#include "core/chip_flow.hpp"

#include <sstream>

#include "fsim/campaign.hpp"
#include "obs/json.hpp"

namespace aidft {

ChipFlowReport run_chip_flow(const Netlist& core, const ChipFlowOptions& options) {
  AIDFT_REQUIRE(core.finalized(), "core must be finalized");
  ChipFlowReport report;

  // Core-level DFT, once.
  report.core = run_dft_flow(core, options.core_flow);

  // Build the SoC and tile the patterns.
  obs::Telemetry* telemetry = options.core_flow.telemetry;
  obs::Span build_span = obs::span(telemetry, "chip.soc_build", "flow");
  const aichip::SocNetlist soc =
      aichip::make_replicated_soc(core, options.num_cores);
  report.soc_gates = soc.netlist.logic_gate_count();
  // The core's patterns are packed once and their batches tiled per
  // instance: no SoC-wide cube is ever built.
  const PackedPatterns broadcast =
      aichip::broadcast_patterns(soc, report.core.atpg.patterns);
  if (build_span.active()) {
    build_span.arg("cores", options.num_cores);
    build_span.arg("gates", soc.netlist.num_gates());
    build_span.arg("bytes", soc.netlist.topology().bytes() +
                                soc.netlist.name_bytes());
  }
  build_span.end();

  // The full SoC fault list is the core's lifted instance by instance: no
  // equivalence class crosses instances, so the lift of the core's
  // (collapsed) list is the SoC's own, in the same order, at the core's
  // enumeration cost. The campaign decodes the lift on the fly, so only
  // the core's list is ever held.
  obs::Span faults_span = obs::span(telemetry, "chip.soc_faults", "flow");
  std::vector<Fault> core_faults = generate_stuck_at_faults(core);
  const std::size_t universe = core_faults.size() * options.num_cores;
  core_faults = collapse_equivalent(core, core_faults);
  report.soc_faults = core_faults.size() * options.num_cores;
  if (faults_span.active()) {
    faults_span.arg("faults", universe);
    faults_span.arg("collapsed", report.soc_faults);
    faults_span.arg("bytes", core_faults.capacity() * sizeof(Fault));
  }
  faults_span.end();

  // The replicated-SoC universe is the biggest campaign in the toolkit —
  // exactly the case the sharded engine exists for.
  obs::Span soc_span = obs::span(telemetry, "chip.soc_grade", "flow");
  CampaignOptions soc_campaign = options.core_flow.campaign;
  soc_campaign.telemetry = telemetry;
  soc_campaign.run_control = options.core_flow.run_control;
  soc_campaign.checkpoint_path = options.soc_checkpoint_path;
  soc_campaign.resume_from = options.soc_resume_from;
  const LiftedFaults soc_faults{core_faults, options.num_cores,
                                core.num_gates()};
  const CampaignResult graded =
      run_campaign(soc.netlist, soc_faults, broadcast, soc_campaign);
  report.soc_detected = graded.detected;
  report.soc_grade_outcome = graded.outcome;
  if (soc_span.active()) {
    soc_span.arg("cores", options.num_cores);
    soc_span.arg("faults", report.soc_faults);
    soc_span.arg("detected", graded.detected);
    if (graded.outcome != StageOutcome::kCompleted) {
      soc_span.arg("outcome", to_string(graded.outcome));
    }
  }
  soc_span.end();

  // Test-time table.
  aichip::CoreTestSpec spec;
  spec.scan_cells = core.dffs().size();
  spec.patterns = report.core.atpg.patterns.size();
  report.flat_cycles =
      aichip::flat_test_cycles(spec, options.num_cores, options.tester);
  report.sequential_cycles =
      aichip::sequential_test_cycles(spec, options.num_cores, options.tester);
  report.broadcast_cycles =
      aichip::broadcast_test_cycles(spec, options.num_cores, options.tester);
  return report;
}

std::string ChipFlowReport::to_string() const {
  std::ostringstream ss;
  ss << "== core flow ==\n" << core.to_string();
  ss << "== chip (replicated cores) ==\n";
  ss << "soc:    " << soc_gates << " gates, " << soc_faults << " faults\n";
  if (soc_grade_outcome != StageOutcome::kCompleted) {
    ss << "soc grade " << aidft::to_string(soc_grade_outcome)
       << " — coverage below is a partial measurement\n";
  }
  ss << "broadcast coverage on full SoC: " << 100.0 * broadcast_coverage()
     << "% (" << soc_detected << "/" << soc_faults << ")\n";
  ss << "test time (cycles): flat " << flat_cycles << " | per-core sequential "
     << sequential_cycles << " | identical-core broadcast " << broadcast_cycles
     << "\n";
  return ss.str();
}

std::string ChipFlowReport::to_json() const {
  obs::JsonWriter w;
  w.begin_object();
  // DftFlowReport::to_json emits a complete JSON object, spliced verbatim.
  w.key("core").raw(core.to_json());
  w.field("soc_gates", soc_gates);
  w.field("soc_faults", soc_faults);
  w.field("soc_detected", soc_detected);
  w.field("broadcast_coverage", broadcast_coverage());
  w.field("soc_grade_outcome", aidft::to_string(soc_grade_outcome));
  w.field("flat_cycles", flat_cycles);
  w.field("sequential_cycles", sequential_cycles);
  w.field("broadcast_cycles", broadcast_cycles);
  w.end_object();
  return std::move(w).take();
}

}  // namespace aidft
