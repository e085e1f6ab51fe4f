// DFT design-rule checking (DRC) + SCOAP testability audit — the pre-ATPG
// static-analysis stage every industrial flow (Tessent-style) runs first.
//
// Two entry points:
//  * run_drc()            — netlist-level rules D1..D5 and D9 plus a SCOAP
//                           controllability/observability summary. Works on
//                           BOTH finalized and unfinalized netlists: the
//                           structural rules (loops, undriven pins) catch
//                           exactly the defects finalize() would throw on,
//                           so a DRC-clean netlist is guaranteed to
//                           finalize. SCOAP-based analysis (D9, summary)
//                           needs a topological order and only runs on
//                           finalized netlists.
//  * check_scan_chains()  — scan-integrity rules D6..D8 on a scan-inserted
//                           netlist against its ScanPlan (shift-path trace
//                           from si<k> through every cell to so<k>).
//
// Every rule has a stable ID, severity, and fix hint in the registry
// (drc_rules()); docs/DRC_RULES.md documents each ID with a violating
// example, and a unit test cross-references the two so the doc cannot rot.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "netlist/netlist.hpp"
#include "obs/telemetry.hpp"
#include "scan/scan.hpp"

namespace aidft {

enum class DrcSeverity : std::uint8_t { kInfo, kWarning, kError };

std::string_view to_string(DrcSeverity severity);

/// One entry of the static rule registry. `id` is stable across releases
/// ("D1"..); `fix_hint` is the one-line remediation shown with every
/// violation of the rule.
struct DrcRule {
  const char* id;
  const char* title;
  DrcSeverity severity;
  const char* summary;
  const char* fix_hint;
};

/// All implemented rules, in ID order. docs/DRC_RULES.md must cover exactly
/// this list (enforced by tests/drc_test.cpp).
std::span<const DrcRule> drc_rules();

/// Registry lookup; returns nullptr for an unknown ID.
const DrcRule* find_drc_rule(std::string_view id);

struct DrcViolation {
  const DrcRule* rule = nullptr;  // points into the static registry
  GateId gate = kNoGate;          // primary site (kNoGate for chain-level)
  /// Human-readable specifics; always self-contained (embeds the site's
  /// "gate <id> (TYPE, name)" label), so reports never need the netlist.
  std::string detail;

  /// "D3 [warning] <detail>  fix: <hint>" one-liner.
  std::string to_string() const;
};

struct DrcOptions {
  /// Recorded violations per rule are capped at this many (the per-rule
  /// total in `DrcReport::count` is always exact). 0 = record everything.
  std::size_t max_recorded_per_rule = 100;
  obs::Telemetry* telemetry = nullptr;
};

/// SCOAP aggregate of a finalized netlist: the "testability health" numbers
/// a signoff report quotes. Averages are over logic gates with finite
/// measures; `unreachable_*` count the provably impossible ones.
struct ScoapSummary {
  bool ran = false;
  double avg_cc0 = 0.0;
  double avg_cc1 = 0.0;
  double avg_co = 0.0;
  std::uint32_t max_finite_co = 0;
  std::size_t unreachable_co = 0;  // gates no observe point can see
  GateId hardest_gate = kNoGate;   // largest finite max(cc0,cc1)+co
};

struct DrcReport {
  std::vector<DrcViolation> violations;  // capped per rule (see DrcOptions)
  /// Exact found-count per rule, parallel to drc_rules() order; includes
  /// rules that found nothing (0) so a snapshot shows what ran.
  std::vector<std::size_t> found_per_rule;
  std::size_t rules_run = 0;
  ScoapSummary scoap;

  /// Exact number of violations found for `rule_id` (not capped).
  std::size_t count(std::string_view rule_id) const;
  std::size_t total_found() const;
  std::size_t errors() const;  // total at kError severity
  /// No error-severity findings (warnings/info do not block a flow).
  bool clean() const { return errors() == 0; }

  std::string to_string() const;
  /// {"violations":[...],"counts":{...},"scoap":{...}} JSON object.
  std::string to_json() const;
};

/// Runs netlist-level rules (D1 loops, D2 undriven pins, D3 floating nets,
/// D4 X-source propagation, D5 uncontrollable cells, D9 SCOAP-untestable
/// faults). Accepts unfinalized netlists — that is the point: DRC reports
/// the defects finalize() would throw on, with rule IDs and locations.
DrcReport run_drc(const Netlist& netlist, const DrcOptions& options = {});

/// Appends scan-integrity findings (D6 control pins, D7 broken/reordered
/// chains, D8 inverted shift path) for `scan` against `plan` to `report`.
void check_scan_chains(const ScanNetlist& scan, const ScanPlan& plan,
                       DrcReport& report, const DrcOptions& options = {});

/// Convenience: a fresh report holding only the scan-integrity findings.
DrcReport run_scan_drc(const ScanNetlist& scan, const ScanPlan& plan,
                       const DrcOptions& options = {});

}  // namespace aidft
