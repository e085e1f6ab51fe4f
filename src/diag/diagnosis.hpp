// Effect-cause stuck-at fault diagnosis.
//
// Input: the tester's fail log — for each applied pattern, the set of
// observe points (POs and scan cells) that mismatched. Output: candidate
// faults ranked by how well their simulated behaviour explains the log.
// Scoring is the classic TP/FP/FN match: a candidate is rewarded for every
// (pattern, observe-point) failure it predicts and observed (TP), penalised
// for predicted-but-not-observed (FP, "misprediction") and observed-but-
// not-predicted (FN, "unexplained") events. A perfect single-stuck-at match
// scores TP = |log| with FP = FN = 0 and ranks first.
#pragma once

#include <cstdint>
#include <vector>

#include "fault/fault.hpp"
#include "netlist/netlist.hpp"
#include "obs/telemetry.hpp"
#include "sim/pattern.hpp"

namespace aidft {

/// Per-pattern failing observe points, packed as one word per observe point
/// per 64-pattern block: a detailed campaign hook's (point, word) pairs
/// scattered by point, zero where nothing fails.
struct FailLog {
  std::size_t num_patterns = 0;
  std::size_t num_observe_points = 0;
  /// blocks[b][op] = failure word for patterns [64b, 64b+63] at point `op`.
  std::vector<std::vector<std::uint64_t>> blocks;

  bool any_failure() const;
  std::size_t failing_pattern_count() const;
};

/// Simulates a defective chip (single stuck-at `defect`) against `patterns`
/// and records its fail log — the tester stand-in (see DESIGN.md).
FailLog simulate_defect(const Netlist& netlist,
                        const std::vector<TestCube>& patterns,
                        const Fault& defect);

struct DiagnosisCandidate {
  Fault fault;
  std::uint64_t tp = 0;  // explained failures
  std::uint64_t fp = 0;  // predicted failures that did not occur
  std::uint64_t fn = 0;  // observed failures left unexplained
  double score = 0.0;    // tp - 0.5*fp - 0.5*fn (higher is better)
  bool perfect() const { return fp == 0 && fn == 0 && tp > 0; }
};

struct DiagnosisResult {
  std::vector<DiagnosisCandidate> ranked;  // best first

  /// 1-based rank of `fault` among candidates (0 if absent).
  std::size_t rank_of(const Fault& fault) const;
};

/// Ranks `candidates` against the fail log; only candidates that explain at
/// least one failure (tp > 0) are ranked. Before any simulation, candidates
/// outside the union of the combinational fanin cones of the observe points
/// that fail anywhere in the log are skipped (a DFF D-pin candidate is kept
/// exactly when its own flop's point fails). They cannot predict an observed
/// failure, so the ranking equals that of scoring every candidate. Throws
/// Error when the log's shape does not match `netlist` and `patterns`.
/// `telemetry` (optional; null = off) gets a `diag.diagnose` span and the
/// `diag.candidates_scored` (simulated) and `diag.candidates_pruned`
/// (skipped) counters, which sum to `candidates.size()`.
DiagnosisResult diagnose(const Netlist& netlist,
                         const std::vector<TestCube>& patterns,
                         const FailLog& log,
                         const std::vector<Fault>& candidates,
                         obs::Telemetry* telemetry = nullptr);

/// Simulates a chip carrying SEVERAL independent stuck-at defects (their
/// effects superpose per pattern — each defect simulated separately and the
/// failing (pattern, point) sets unioned, the standard multiplet
/// approximation for defects in disjoint cones).
FailLog simulate_defects(const Netlist& netlist,
                         const std::vector<TestCube>& patterns,
                         const std::vector<Fault>& defects);

struct MultiDiagnosisResult {
  /// Chosen multiplet, in selection order (best explainer first).
  std::vector<DiagnosisCandidate> selected;
  std::uint64_t explained = 0;    // failing (pattern, point) events covered
  std::uint64_t unexplained = 0;  // events no selected candidate predicts
};

/// Greedy set-cover diagnosis for multi-defect chips: repeatedly picks the
/// candidate explaining the most still-unexplained failures (rejecting
/// candidates that mispredict passing events heavily), removes what it
/// explains, and stops when nothing helps or `max_defects` is reached.
/// Skips the same candidates, with the same log checks and counters (span
/// `diag.multiplet`), as diagnose(); none of them could ever be selected.
MultiDiagnosisResult diagnose_multiplet(const Netlist& netlist,
                                        const std::vector<TestCube>& patterns,
                                        const FailLog& log,
                                        const std::vector<Fault>& candidates,
                                        std::size_t max_defects = 4,
                                        obs::Telemetry* telemetry = nullptr);

}  // namespace aidft
