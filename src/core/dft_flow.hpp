// DftFlow — the end-to-end DFT methodology the tutorial teaches, as one
// call: fault universe + collapsing → scan planning → ATPG (random phase,
// PODEM, SAT fallback, dynamic compaction) → EDT compression → LBIST
// sign-off → test-time accounting, with a human-readable report.
//
// This is the facade a downstream user starts from; every stage is also
// available individually through the per-module headers.
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "atpg/atpg.hpp"
#include "atpg/transition_atpg.hpp"
#include "bist/lbist.hpp"
#include "common/run_control.hpp"
#include "compress/session.hpp"
#include "drc/drc.hpp"
#include "fsim/campaign.hpp"
#include "netlist/netlist.hpp"
#include "netlist/stats.hpp"
#include "obs/telemetry.hpp"
#include "scan/power.hpp"
#include "scan/scan.hpp"

namespace aidft {

struct DftFlowOptions {
  /// DFT DRC + SCOAP audit as the first stage (industrial flows always DRC
  /// before pattern generation). Any error-severity finding aborts the flow
  /// — the report carries the findings and every later stage is skipped.
  /// The stage also self-audits scan stitching: it plans + inserts scan and
  /// runs the chain-integrity rules (D6..D8) on the result.
  bool run_drc = true;
  DrcOptions drc;
  std::size_t scan_chains = 4;
  /// Fault-campaign settings shared by every grading stage: the facade
  /// copies `campaign.num_threads` into the per-stage options (atpg, lbist,
  /// compression, transition) before running them. Call the stages directly
  /// for per-stage thread counts.
  CampaignOptions campaign;
  AtpgOptions atpg;
  bool run_compression = true;
  CompressedSessionConfig compression;
  bool run_lbist = true;
  LbistConfig lbist;             // session length is lbist.patterns
  bool run_transition = false;   // adds two-vector delay test
  TransitionAtpgOptions transition;
  bool run_power = true;         // WTM of the final stuck-at pattern set
  /// Observability sink: null (the default) = telemetry off at near-zero
  /// cost. When set, the facade emits one `flow.<stage>` span per stage,
  /// threads the sink through every stage (ATPG, campaigns, EDT, LBIST,
  /// transition), and snapshots all counters into DftFlowReport::metrics.
  obs::Telemetry* telemetry = nullptr;
  /// Run control: null (the default) = run to completion. When set, the
  /// facade threads the handle through every stage, honours per-stage
  /// budgets (set_stage_budget with the bare stage key: "drc", "atpg",
  /// "compression", ...), and degrades gracefully on expiry/cancel: the
  /// interrupted stage returns its partial result, stages never reached are
  /// recorded kSkipped, and the report stays well-formed (to_json included).
  /// A stage that throws aidft::Error is recorded kFailed and the flow
  /// continues with the stages that do not depend on it.
  RunControl* run_control = nullptr;
};

struct DftFlowReport {
  bool drc_ran = false;
  DrcReport drc;
  /// True when DRC found error-severity violations and the flow stopped
  /// before fault generation; only `drc` and `stage_seconds` are filled.
  bool drc_aborted = false;
  NetlistStats stats;
  std::size_t faults_total = 0;      // uncollapsed universe
  std::size_t faults_collapsed = 0;  // after equivalence collapsing
  ScanPlan scan_plan;
  AtpgResult atpg;
  ScanTimeModel scan_time;           // uncompressed scan session
  bool compression_ran = false;
  CompressedSessionResult compression;
  bool lbist_ran = false;
  LbistResult lbist;
  bool transition_ran = false;
  TransitionAtpgResult transition;
  bool power_ran = false;
  ShiftPowerReport power;
  /// Wall-clock per executed stage, in flow order (stage name, seconds).
  /// Filled unconditionally — timing costs one clock read per stage.
  std::vector<std::pair<std::string, double>> stage_seconds;
  /// How every stage ended, in flow order — including stages that never ran
  /// (kSkipped: budget exhausted before they were reached, or an upstream
  /// abort). Filled unconditionally; an all-kCompleted vector is the happy
  /// path. Stage names match stage_seconds ("flow.atpg", ...).
  std::vector<std::pair<std::string, StageOutcome>> stage_outcomes;
  /// Error text per kFailed stage (stage name, aidft::Error::what()).
  std::vector<std::pair<std::string, std::string>> stage_errors;
  /// Counter/gauge/histogram snapshot taken at flow end when a telemetry
  /// sink was attached; empty otherwise.
  obs::MetricsSnapshot metrics;

  /// True when any stage ended in something other than kCompleted — the
  /// report is a valid partial result, not a full signoff.
  bool degraded() const {
    for (const auto& [stage, outcome] : stage_outcomes) {
      if (outcome != StageOutcome::kCompleted) return true;
    }
    return false;
  }

  /// Multi-line summary suitable for printing.
  std::string to_string() const;

  /// Machine-readable report: design stats, per-stage results, stage wall
  /// times, and the metrics snapshot, as a single JSON object.
  std::string to_json() const;
};

/// Runs the full flow. With DRC enabled (the default) the netlist may be
/// UNFINALIZED: the DRC stage reports the structural defects finalize()
/// would throw on (with rule IDs and locations) and aborts cleanly; a
/// DRC-clean netlist is finalized internally and the flow proceeds. With
/// `run_drc = false` the netlist must already be finalized.
DftFlowReport run_dft_flow(const Netlist& netlist,
                           const DftFlowOptions& options = {});

}  // namespace aidft
