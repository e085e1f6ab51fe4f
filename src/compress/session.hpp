// End-to-end compressed scan test session (the E4 experiment machinery).
//
// Takes ATPG cubes in the combinational view, splits each into a primary-
// input part (driven directly, as on a real tester) and a scan part, encodes
// the scan part through the EDT codec, decompresses it back through the
// concrete LFSR (giving the pseudo-random fill of every don't-care cell),
// and grades the delivered patterns with the fault simulator — once with
// ideal observation and once through the X-tolerant XOR compactor, so the
// coverage cost of both encode failures and compaction aliasing is measured.
// The scan parts are encoded in blocks of at most 64 cubes, one symbolic
// sweep of the decompressor per block (EdtCodec::encode over a span).
#pragma once

#include <cstdint>
#include <vector>

#include "common/run_control.hpp"
#include "compress/edt.hpp"
#include "fault/fault.hpp"
#include "netlist/netlist.hpp"
#include "obs/telemetry.hpp"
#include "scan/scan.hpp"

namespace aidft {

struct CompressedSessionConfig {
  EdtConfig edt;
  std::size_t out_channels = 2;  // response compactor width
  std::uint64_t pi_fill_seed = 7;
  std::size_t num_threads = 1;   // fault-campaign workers (baseline grading)
  /// Observability sink: null (default) = off. Emits an `edt.session` span
  /// holding `edt.encode`, `edt.grade_baseline` and `edt.grade_compacted`,
  /// plus `edt.encode_attempts` / `edt.encode_failures` / `edt.cubes_encoded`
  /// counters; both grading campaigns inherit the same sink.
  obs::Telemetry* telemetry = nullptr;
  /// Run control: null (default) = run to completion. When set, the encode
  /// loop check()s every 16 cubes (a block's first cube before the block is
  /// encoded) and both grading campaigns inherit it. On
  /// expiry/cancel the session returns the patterns delivered and detections
  /// recorded so far (outcome != kCompleted).
  RunControl* run_control = nullptr;
};

struct CompressedSessionResult {
  std::size_t cubes_offered = 0;
  std::size_t cubes_encoded = 0;
  std::size_t encode_failures = 0;
  std::vector<TestCube> delivered;  // decompressed, fully specified patterns

  std::size_t faults_total = 0;
  std::size_t detected_baseline = 0;   // same cubes, random X-fill, no codec:
                                       // the uncompressed-delivery reference
  std::size_t detected_ideal = 0;      // observing every chain directly
  std::size_t detected_compacted = 0;  // observing through the compactor

  double stimulus_compression = 0.0;  // scan-cell bits / channel bits
  double response_compression = 0.0;  // chain outputs / compactor outputs
  /// How the session ended: kCompleted, or kTimedOut/kCancelled when a
  /// RunControl stopped it early (the result is a valid partial run).
  StageOutcome outcome = StageOutcome::kCompleted;

  double coverage_baseline() const {
    return faults_total == 0
               ? 1.0
               : static_cast<double>(detected_baseline) / faults_total;
  }
  double coverage_ideal() const {
    return faults_total == 0 ? 1.0
                             : static_cast<double>(detected_ideal) / faults_total;
  }
  double coverage_compacted() const {
    return faults_total == 0
               ? 1.0
               : static_cast<double>(detected_compacted) / faults_total;
  }
};

/// Runs the session. `cubes` are combinational-view cubes (X allowed), e.g.
/// raw ATPG output before X-fill — the don't-cares are what compression
/// exploits. Throws aidft::Error for a malformed `plan`
/// (checked_flop_positions).
CompressedSessionResult run_compressed_session(
    const Netlist& netlist, const ScanPlan& plan,
    const std::vector<Fault>& faults, const std::vector<TestCube>& cubes,
    const CompressedSessionConfig& config);

}  // namespace aidft
