// Top-level ATPG pipeline: the flow a commercial tool runs.
//
//   1. random phase — cheap bulk detection with fault dropping;
//   2. deterministic phase — PODEM per remaining fault, with SAT-based
//      fallback to close aborts and prove redundancy;
//   3. dynamic compaction — each new cube merges into an open partial
//      pattern; on close, the pattern is X-filled and fault-simulated so
//      incidental detections drop future work.
//
// The result carries per-fault dispositions and the industry coverage
// metrics: fault coverage (detected / all) and test coverage
// (detected / (all - untestable)).
#pragma once

#include <cstdint>
#include <vector>

#include "atpg/compaction.hpp"
#include "atpg/podem.hpp"
#include "atpg/sat_atpg.hpp"
#include "fault/fault.hpp"
#include "fsim/campaign.hpp"
#include "netlist/netlist.hpp"
#include "obs/telemetry.hpp"

namespace aidft {

enum class AtpgEngine : std::uint8_t {
  kPodem,        // PODEM only; aborts stay aborted
  kSat,          // SAT only
  kPodemThenSat, // PODEM first, SAT to resolve aborts (default flow)
};

struct AtpgOptions {
  std::size_t random_patterns = 256;
  /// PODEM's per-fault budget before the fault goes to SAT (kPodemThenSat)
  /// or aborts (kPodem). PODEM proves a redundant fault only by exhausting
  /// its decision tree, and a hard testable fault can cost it as many
  /// backtracks; the cone-scoped SAT miter settles either in about 0.1 ms
  /// on a 500-gate block. In the EXPERIMENTS.md E2 sweep the atpg_redundant
  /// blocks take about a third less ATPG time at budgets 5-30 than at 100,
  /// with no clear winner inside that range; 10 gives the fewest patterns
  /// there, and the systolic cores still make no SAT call at 10, with the
  /// backtracks of budget 100. Under kPodemThenSat the budget changes which
  /// engine settles a fault, not its status.
  std::uint64_t podem_backtrack_limit = 10;
  AtpgEngine engine = AtpgEngine::kPodemThenSat;
  /// Steer PODEM with SCOAP measures (hardest-to-control objective first in
  /// pick_objective, cc-ordered backtrace, co-ordered D-frontier). Off falls
  /// back to topological-level heuristics — same coverage, more backtracks;
  /// bench_e18_drc_scoap quantifies the gap.
  bool scoap_guidance = true;
  std::uint64_t seed = 1;
  /// Fault-campaign workers for the random phase (the bulk grading work);
  /// the deterministic phase's incremental dropping stays serial.
  std::size_t num_threads = 1;
  /// Observability sink: null (default) = off. When set, the pipeline emits
  /// `atpg.random_phase` / `atpg.deterministic_phase` spans, aggregates
  /// `podem.*` / `sat.*` counters (flushed per engine call, not per event),
  /// and observes each engine call's wall time in µs into the
  /// `atpg.podem_us` / `atpg.sat_us` histograms. The PODEM calls that end
  /// kAborted are also observed into `atpg.podem_abort_us` (a subset of
  /// `atpg.podem_us`): the time the budget spends before a hand-off.
  obs::Telemetry* telemetry = nullptr;
  /// Run control: null (default) = run to completion. When set it is
  /// check()ed once per deterministic-phase fault and inherited by the
  /// random-phase campaign, PODEM and the SAT engine; on expiry/cancel
  /// generate_tests returns the patterns and dispositions produced so far
  /// (outcome != kCompleted) — untargeted faults stay kUndetected.
  RunControl* run_control = nullptr;
};

enum class FaultStatus : std::uint8_t {
  kUndetected,  // never targeted successfully (only transient, or at end:
                // targeted but pattern generation produced nothing usable)
  kDetected,
  kUntestable,
  kAborted,
};

/// The disposition an engine outcome gives its fault.
FaultStatus fault_status(AtpgStatus status);

/// Per-fault dispositions of an ATPG run, counted, and its engine effort.
struct AtpgDispositions {
  std::vector<FaultStatus> status;  // per input fault
  std::size_t detected = 0;
  std::size_t untestable = 0;
  std::size_t aborted = 0;
  /// Deterministic engine calls (AtpgEffort's tallies).
  std::uint64_t podem_calls = 0;
  std::uint64_t podem_backtracks = 0;  // across all PODEM calls
  std::uint64_t sat_calls = 0;
  /// How the run ended: kCompleted, or kTimedOut/kCancelled when a
  /// RunControl stopped it early (the result is a valid partial run).
  StageOutcome outcome = StageOutcome::kCompleted;

  /// Sets detected, untestable and aborted from `status`.
  void count();
  double fault_coverage() const {
    return status.empty() ? 1.0
                          : static_cast<double>(detected) /
                                static_cast<double>(status.size());
  }
  double test_coverage() const {
    const std::size_t denom = status.size() - untestable;
    return denom == 0 ? 1.0
                      : static_cast<double>(detected) / static_cast<double>(denom);
  }
};

struct AtpgResult : AtpgDispositions {
  std::vector<TestCube> patterns;          // final, fully specified
  /// Deterministic-phase cubes after dynamic compaction but BEFORE X-fill —
  /// the input a compression codec wants (the X density is what it exploits).
  std::vector<TestCube> cubes;
  std::size_t random_phase_detected = 0;   // subset of `detected`

  std::size_t total_faults() const { return status.size(); }
};

/// Engine calls and PODEM's summed search counters.
struct AtpgEffort {
  std::uint64_t podem_calls = 0;
  std::uint64_t podem_backtracks = 0;
  std::uint64_t podem_decisions = 0;
  std::uint64_t podem_implications = 0;
  std::uint64_t podem_events = 0;
  std::uint64_t sat_calls = 0;

  /// Adds the PODEM tallies to `telemetry` (null = off) as the `podem.*`
  /// counters calls, backtracks, decisions, implications and events.
  void flush_podem(obs::Telemetry* telemetry) const;
};

/// The deterministic engines of both ATPG pipelines: one Podem and the
/// SatAtpg that borrows its scope and machine, so a fault handed from one
/// to the other is scoped once. A call goes to PODEM and, under
/// kPodemThenSat, to SAT when PODEM aborts; kSat goes to SAT alone.
class AtpgHandOff {
 public:
  /// `netlist` and `scoap` (may be null) must outlive this object. With a
  /// non-null `timing`, each call's wall time in µs goes into the
  /// `atpg.podem_us` / `atpg.sat_us` histograms, and that of a PODEM call
  /// that aborts into `atpg.podem_abort_us` too.
  AtpgHandOff(const Netlist& netlist, const ScoapResult* scoap,
              AtpgEngine engine, const PodemOptions& podem,
              const SatAtpgOptions& sat, obs::Telemetry* timing);
  AtpgHandOff(const AtpgHandOff&) = delete;
  AtpgHandOff& operator=(const AtpgHandOff&) = delete;

  /// A stuck-at test for `fault`.
  AtpgOutcome generate(const Fault& fault);
  /// An input cube that sets `line` to `value`.
  AtpgOutcome justify(GateId line, Val3 value);

  const AtpgEffort& effort() const { return effort_; }

 private:
  template <typename PodemCall, typename SatCall>
  AtpgOutcome run(PodemCall podem_call, SatCall sat_call);

  Podem podem_;
  SatAtpg sat_;  // borrows podem_
  AtpgEngine engine_;
  PodemOptions podem_opts_;
  SatAtpgOptions sat_opts_;
  obs::Histogram* podem_us_ = nullptr;
  obs::Histogram* podem_abort_us_ = nullptr;
  obs::Histogram* sat_us_ = nullptr;
  AtpgEffort effort_;
};

/// Runs the full pipeline for stuck-at `faults` on a finalized netlist.
AtpgResult generate_tests(const Netlist& netlist, const std::vector<Fault>& faults,
                          const AtpgOptions& options = {});

/// Grades fully specified `patterns` through run_campaign() against the
/// faults whose status is kUndetected (or kDetected, when `recheck_detected`)
/// and sets each of them to kDetected or kUndetected by the result; a no-op
/// for empty `patterns`. The fault dropping of both ATPG pipelines.
void grade_statuses(const Netlist& netlist, const std::vector<Fault>& faults,
                    std::vector<FaultStatus>& status,
                    const std::vector<TestCube>& patterns,
                    const CampaignOptions& options,
                    bool recheck_detected = false);

}  // namespace aidft
