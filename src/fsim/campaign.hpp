// The unified fault-campaign API.
//
// Every pattern-grading loop in the toolkit — ATPG dropping, EDT/LBIST
// grading, transition and bridging campaigns, the fault dictionary and
// diagnosis — is one call: run_campaign(netlist, faults, patterns, options),
// plus a detection hook when the caller needs more than first detections.
// Options select the engine (PPSFP or the full-resimulation reference
// oracle), the number of worker threads, and the fault-dropping policy.
//
// Parallelism and determinism contract:
//  * The fault list is sharded into contiguous blocks, one per worker; each
//    worker owns a private FaultSimulator and streams the same 64-pattern
//    batches over its shard (the netlist and its observe index are shared
//    read-only).
//  * A fault's detection history depends only on the fault and the pattern
//    stream — never on which shard graded it. Its first detection sets its
//    bit in the detected bitmap and counts once toward its pattern; the
//    per-shard counts are summed after the join, so a CampaignResult is
//    bit-identical for every num_threads value (including the serial path).
//  * Dropping is cross-shard: drops are published in a shared atomic drop
//    bitmap, letting every worker observe campaign-wide progress and exit
//    as soon as no fault anywhere still needs simulation.
//
// Picking num_threads: 0 means one worker per hardware thread, which is the
// right default for offline campaigns; inside an already-parallel caller
// keep the default of 1. Each worker re-runs the good-machine simulation per
// batch, so speedup comes from the per-fault propagation work dominating —
// i.e. thousands of faults per shard; tiny fault lists should stay serial.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "common/run_control.hpp"
#include "fault/bridging.hpp"
#include "fault/fault.hpp"
#include "fsim/fault_sim.hpp"
#include "netlist/netlist.hpp"
#include "obs/telemetry.hpp"
#include "sim/pattern.hpp"

namespace aidft {

enum class CampaignEngine : std::uint8_t {
  kPpsfp,      // event-driven parallel-pattern single-fault propagation
  kReference,  // full-circuit resimulation oracle (stuck-at only)
};

struct CampaignOptions {
  CampaignEngine engine = CampaignEngine::kPpsfp;
  /// Worker threads; 0 = one per hardware thread. Results are bit-identical
  /// for every value (see the determinism contract above).
  std::size_t num_threads = 1;
  /// A fault stops being simulated once it has been seen detecting on this
  /// many pattern lanes (1 = classic first-detect dropping, the default;
  /// 0 = never drop, grading every fault against every pattern). Only
  /// n-detect (> 1) keeps a per-fault hit count, 8 B per fault; every
  /// policy keeps two bits per fault (detected, dropped).
  std::size_t drop_limit = 1;
  /// Observability sink (see obs/telemetry.hpp): null (the default) turns
  /// telemetry off at near-zero cost. When set, the campaign emits one
  /// `campaign.shard` span per worker (thread imbalance is visible on the
  /// trace timeline) plus `campaign.*` / `fsim.*` counters.
  obs::Telemetry* telemetry = nullptr;
  /// Run control (see common/run_control.hpp): null (the default) runs to
  /// completion. When set, the campaign is restructured into rounds of
  /// `checkpoint_every_batches` batches: the orchestrator check()s between
  /// rounds and workers poll() before each 64-pattern batch and every 256
  /// faults inside one, so a deadline or cancellation stops the run within
  /// a few hundred fault gradings per worker and run_campaign returns a
  /// well-formed partial CampaignResult (outcome != kCompleted) instead of
  /// throwing.
  RunControl* run_control = nullptr;
  /// When non-empty, a CampaignCheckpoint (fsim/checkpoint.hpp) is saved
  /// here after every round and once more on an early stop, atomically.
  std::string checkpoint_path = {};
  /// Round granularity: 64-pattern batches per round. Only meaningful when
  /// run control and/or checkpointing is active (otherwise the whole stream
  /// is one round and the hot loop is untouched).
  std::size_t checkpoint_every_batches = 64;
  /// When non-empty, resume from this checkpoint file instead of starting
  /// fresh. The file's geometry (fault count, pattern count, drop_limit)
  /// must match the live call; the final CampaignResult is bit-identical to
  /// an uninterrupted run, for every thread count. Throws aidft::Error on a
  /// missing/corrupt/version-mismatched file.
  std::string resume_from = {};
};

/// Result of grading a pattern set against a fault list.
struct CampaignResult {
  std::size_t total_faults = 0;
  std::size_t detected = 0;
  /// Detected bitmap, one bit per fault: bit f of word f / 64 is set when
  /// fault f was detected (see fault_detected()). A caller that needs the
  /// detecting pattern itself gets it from a DetectHook's first call.
  std::vector<std::uint64_t> detected_bits;
  /// Cumulative detected count after pattern i (coverage curve): the faults
  /// whose first detecting pattern (capture pattern for transition faults)
  /// is at most i. Pattern i detected something new iff the curve steps there.
  std::vector<std::size_t> detected_after;
  /// How the campaign ended: kCompleted for a full run, kTimedOut/kCancelled
  /// when a RunControl stopped it early. A stopped result is still
  /// well-formed — every recorded detection is real, and the counts cover
  /// the graded prefix of the pattern stream.
  StageOutcome outcome = StageOutcome::kCompleted;
  /// 64-pattern batches that every fault has been graded against (the round
  /// barrier reached). On an early stop this is the resumable prefix;
  /// individual shards may have partial progress beyond it, which resume
  /// handles (see fsim/checkpoint.hpp).
  std::size_t batches_graded = 0;

  bool fault_detected(std::size_t f) const {
    return (detected_bits[f >> 6] >> (f & 63)) & 1ull;
  }

  double coverage() const {
    return total_faults == 0
               ? 1.0
               : static_cast<double>(detected) / static_cast<double>(total_faults);
  }
};

/// Grades fully specified `patterns` against stuck-at / transition `faults`.
/// Stuck-at faults are graded per pattern; transition faults on consecutive
/// pattern pairs (launch = i-1, capture = i; pattern 0 cannot detect them).
/// `patterns` is a packed set or, through the implicit conversion, a
/// std::vector<TestCube> packed for the call. An empty fault or pattern
/// list returns before any check. CampaignEngine::kReference requires a
/// pure stuck-at fault list. Throws aidft::Error when a pattern holds an X
/// or has the wrong width, or when a fault's site is not in `netlist` (a
/// gate past num_gates(), or a branch pin at or past its gate's fanin
/// count).
CampaignResult run_campaign(const Netlist& netlist,
                            std::span<const Fault> faults,
                            const PackedPatterns& patterns,
                            const CampaignOptions& options = {});

/// The fault list of a Netlist::replicate() replica lifted from its core's
/// list, as a view: fault i is core[i % C] moved to instance i / C, i.e.
/// its gate offset by (i / C) * core_gates (C = core.size()). This is
/// exactly aichip::lift_faults() order, without the replica-sized list.
struct LiftedFaults {
  std::span<const Fault> core;
  std::size_t instances = 0;
  std::size_t core_gates = 0;  // G: the replica's gates per instance

  std::size_t size() const { return core.size() * instances; }
  Fault operator[](std::size_t i) const {
    Fault f = core[i % core.size()];
    f.gate += static_cast<GateId>(i / core.size() * core_gates);
    return f;
  }
};

/// Grades `netlist`, a replica of `faults.instances` copies of a core,
/// against the lifted view of the core's list: the result equals
/// run_campaign() on the materialised lifted list, fault for fault, while
/// holding only the core's list (checked once: every gate below
/// core_gates, every branch pin below its gate's fanin count). Throws
/// aidft::Error when netlist.replicas() != instances (e.g. a gate-by-gate
/// copy of a replica) or core_gates * instances != num_gates(), and on the
/// errors of the list overload.
CampaignResult run_campaign(const Netlist& netlist, const LiftedFaults& faults,
                            const PackedPatterns& patterns,
                            const CampaignOptions& options = {});

/// Detection hooks (DESIGN.md "Detection hooks") run once per (fault, batch)
/// with `mask != 0` (bit p = pattern 64*batch + p; `fault` indexes
/// `faults`); returning true drops the fault, on top of drop_limit. Calls
/// for one fault come from one thread, in batch order; calls for different
/// faults may run concurrently. Hook state is not checkpointed, so a hook
/// with checkpoint_path or resume_from throws aidft::Error. A DetectHook
/// gets mask-only grading (it stops once the mask is final); a
/// DetailedDetectHook also gets the observe points the fault reached in the
/// batch (stuck-at faults and the PPSFP engine only): one (point, word) pair
/// per failing point, each point at most once, nonzero words over live lanes
/// only. The pairs come in the order the fault's fanout-free-region root
/// propagated them, not in index order and not in the order of the fault's
/// own cone, so a hook must not depend on it. A point not listed does not
/// fail, so a hook that walks the pairs costs what the fault reaches, not
/// the observe-point count. The span is valid for the call.
using DetectHook = std::function<bool(std::size_t fault, std::size_t batch,
                                      std::uint64_t mask)>;
using DetailedDetectHook = std::function<bool(
    std::size_t fault, std::size_t batch, std::uint64_t mask,
    std::span<const OpDiff> op_diffs)>;

CampaignResult run_campaign(const Netlist& netlist,
                            std::span<const Fault> faults,
                            const PackedPatterns& patterns,
                            const CampaignOptions& options,
                            const DetectHook& on_detect);
CampaignResult run_campaign(const Netlist& netlist,
                            std::span<const Fault> faults,
                            const PackedPatterns& patterns,
                            const CampaignOptions& options,
                            const DetailedDetectHook& on_detect);

/// Grades a pattern set against bridging faults (PPSFP engine only). The
/// CampaignResult indexes follow `faults` order.
CampaignResult run_campaign(const Netlist& netlist,
                            std::span<const BridgingFault> faults,
                            const PackedPatterns& patterns,
                            const CampaignOptions& options = {});

}  // namespace aidft
