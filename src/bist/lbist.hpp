// STUMPS-style logic BIST.
//
// A PRPG (LFSR + phase shifter) fills every scan chain in parallel while a
// MISR compacts unloaded responses into a signature. Primary inputs are
// assumed wrapped in boundary-scan cells (standard LBIST practice), so the
// PRPG drives the entire combinational input vector. The signature of the
// fault-free machine is golden; a defective chip is caught when its MISR
// signature differs (a 32-bit MISR: aliasing probability ~2^-32).
#pragma once

#include <cstdint>
#include <vector>

#include "common/run_control.hpp"
#include "compress/lfsr.hpp"
#include "fault/fault.hpp"
#include "netlist/netlist.hpp"
#include "obs/telemetry.hpp"
#include "sim/pattern.hpp"

namespace aidft {

struct LbistConfig {
  std::size_t patterns = 512;   // session length (PRPG patterns applied)
  std::size_t prpg_bits = 32;
  std::uint64_t seed = 0xB157;  // nonzero PRPG seed
  std::size_t num_threads = 1;  // fault-campaign workers for coverage grading
  /// Observability sink: null (default) = off. Emits a `lbist.session` span
  /// plus `lbist.sessions` / `lbist.patterns` counters; the coverage
  /// campaign and faulty_signature()'s campaign inherit the same sink.
  obs::Telemetry* telemetry = nullptr;
  /// Run control: null (default) = run to completion. When set, the coverage
  /// campaign inherits it and the signature loop polls per 64-pattern batch.
  /// On expiry/cancel the result keeps the partial coverage numbers but the
  /// golden signature and the SCOAP resistance audit are left unfilled —
  /// both are only meaningful over the complete session (outcome says so).
  RunControl* run_control = nullptr;
};

/// Pseudo-random pattern generator: LFSR plus per-position phase-shifter
/// taps, the stimulus half of STUMPS flattened onto the combinational view
/// (the free-running configuration of the LinearMachine).
class Prpg {
 public:
  Prpg(const LbistConfig& config, std::size_t num_positions);

  /// Next fully specified pattern (advances the LFSR by one shift per cell,
  /// as a max-length chain load would).
  TestCube next_pattern() {
    TestCube cube(machine_.num_outputs());
    for (std::size_t i = 0; i < cube.bits.size(); ++i) {
      state_ = machine_.step(state_);
      cube.bits[i] = machine_.output(state_, i) ? Val3::kOne : Val3::kZero;
    }
    return cube;
  }

  /// The next `count` patterns, packed: the same LFSR run as `count`
  /// next_pattern() calls, 64 patterns run side by side per batch.
  PackedPatterns patterns(std::size_t count);

 private:
  LinearMachine machine_;  // free-running, one output per position
  std::uint64_t state_;
};

struct LbistResult {
  std::size_t patterns = 0;
  std::size_t faults_total = 0;
  std::size_t detected = 0;
  std::vector<std::size_t> detected_after;      // coverage curve
  std::vector<std::uint64_t> golden_signature;  // fault-free MISR state
  /// How the session ended: kCompleted, or kTimedOut/kCancelled when a
  /// RunControl stopped it early (coverage numbers cover the graded prefix;
  /// golden_signature and the resistance audit stay empty).
  StageOutcome outcome = StageOutcome::kCompleted;

  // SCOAP random-resistance prediction vs. what the session actually missed
  // (the classic test-point-insertion trigger): a fault whose detection
  // difficulty reaches the midpoint between the universe mean and the
  // hardest finite fault (floor 8) is flagged up front as likely to survive
  // the pseudo-random session.
  std::size_t predicted_resistant = 0;   // flagged before simulation
  std::size_t resistant_undetected = 0;  // flagged AND missed (hits)
  std::size_t undetected = 0;            // all misses

  /// Of the faults flagged random-resistant, the fraction the session did
  /// miss (prediction precision).
  double resistance_precision() const {
    return predicted_resistant == 0
               ? 1.0
               : static_cast<double>(resistant_undetected) /
                     static_cast<double>(predicted_resistant);
  }
  /// Of the faults the session missed, the fraction flagged up front
  /// (prediction recall — the test-point-insertion shortlist quality).
  double resistance_recall() const {
    return undetected == 0 ? 1.0
                           : static_cast<double>(resistant_undetected) /
                                 static_cast<double>(undetected);
  }

  double coverage() const {
    return faults_total == 0 ? 1.0
                             : static_cast<double>(detected) / faults_total;
  }
};

/// Runs `config.patterns` of LBIST against `faults`, with fault dropping,
/// and computes the golden signature.
LbistResult run_lbist(const Netlist& netlist, const std::vector<Fault>& faults,
                      const LbistConfig& config = {});

/// MISR signature of a *defective* machine (single stuck-at `fault`) over
/// the same session. Detected faults should produce a differing signature
/// unless MISR aliasing strikes.
std::vector<std::uint64_t> faulty_signature(const Netlist& netlist,
                                            const Fault& fault,
                                            const LbistConfig& config = {});

}  // namespace aidft
