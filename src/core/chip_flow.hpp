// Chip-level hierarchical DFT flow for replicated-core AI accelerators.
//
// Runs the core-level flow ONCE, lifts the resulting patterns to an
// N-instance SoC by broadcast, and verifies — by fault-simulating the real
// N-core netlist — that the broadcast set covers the full SoC fault list at
// the core's coverage. Also tabulates flat / sequential / broadcast test
// time so the tutorial's "test one core, broadcast to all" argument is a
// measured number, not a slide claim.
//
// The SoC pays core-sized costs only where that is exact: its fault list is
// the core's (collapsed) list lifted instance by instance
// (aichip::lift_faults), and the campaign simulates one tile of the
// broadcast good machine (ParallelSimulator::simulate). Every SoC fault is
// still propagated over the real SoC topology, so the SoC coverage stays a
// measurement rather than "core coverage x N".
#pragma once

#include <string>
#include <vector>

#include "aichip/soc.hpp"
#include "aichip/test_time.hpp"
#include "core/dft_flow.hpp"

namespace aidft {

struct ChipFlowOptions {
  std::size_t num_cores = 4;
  DftFlowOptions core_flow;
  aichip::TesterConfig tester;
  /// Checkpoint/resume for the SoC-grade campaign — the longest single
  /// campaign in the toolkit, so the one worth protecting against lost work.
  /// Both fields pass straight into CampaignOptions (see campaign.hpp); the
  /// run-control handle is inherited from core_flow.run_control.
  std::string soc_checkpoint_path;
  std::string soc_resume_from;
};

struct ChipFlowReport {
  DftFlowReport core;
  std::size_t soc_gates = 0;
  std::size_t soc_faults = 0;
  std::size_t soc_detected = 0;  // by broadcast patterns, measured on the SoC
  /// How the SoC-grade campaign ended (kCompleted, or partial on stop).
  StageOutcome soc_grade_outcome = StageOutcome::kCompleted;
  double broadcast_coverage() const {
    return soc_faults == 0
               ? 1.0
               : static_cast<double>(soc_detected) / static_cast<double>(soc_faults);
  }
  std::size_t flat_cycles = 0;
  std::size_t sequential_cycles = 0;
  std::size_t broadcast_cycles = 0;

  std::string to_string() const;

  /// Machine-readable report: the core report under "core" (see
  /// DftFlowReport::to_json) plus the SoC fields and cycle counts above,
  /// under their member names.
  std::string to_json() const;
};

ChipFlowReport run_chip_flow(const Netlist& core, const ChipFlowOptions& options);

}  // namespace aidft
