#include "bist/lbist.hpp"

#include <algorithm>

#include "fsim/campaign.hpp"
#include "netlist/scoap.hpp"
#include "sim/parallel_sim.hpp"

namespace aidft {

Prpg::Prpg(const LbistConfig& config, std::size_t num_positions)
    : machine_(config.prpg_bits, 0, num_positions, config.seed,
               config.seed ^ 0x5157D5),
      state_(config.seed | 1) {  // never the all-zero LFSR lockup state
  if (machine_.bits() < 64) state_ &= (1ull << machine_.bits()) - 1;
}

PackedPatterns Prpg::patterns(std::size_t count) {
  PackedPatterns packed;
  packed.count = count;
  packed.width = machine_.num_outputs();
  // A pattern is `width` steps, a linear map: column j of `jump` is where
  // it takes state bit j, so each lane starts one jump after the last.
  std::vector<std::uint64_t> jump(machine_.bits());
  for (std::size_t j = 0; j < jump.size(); ++j) jump[j] = 1ull << j;
  for (std::size_t i = 0; i < packed.width; ++i) {
    for (std::uint64_t& column : jump) column = machine_.step(column);
  }
  for (std::size_t first = 0; first < count; first += 64) {
    PatternBatch& batch = packed.batches.emplace_back();
    batch.npatterns = std::min<std::size_t>(64, count - first);
    std::uint64_t starts[64] = {};  // lanes past the last pattern read 0
    for (std::size_t p = 0; p < batch.npatterns; ++p) {
      starts[p] = state_;
      std::uint64_t next = 0;
      for (std::uint64_t s = state_; s != 0; s &= s - 1) {
        next ^= jump[__builtin_ctzll(s)];
      }
      state_ = next;
    }
    batch.words = machine_.lane_outputs(starts);
  }
  return packed;
}

namespace {

// Width of the response MISR (aliasing probability ~2^-32).
constexpr std::size_t kMisrBits = 32;

// The session's stimulus: config.patterns PRPG patterns, packed once for
// both the campaign and the MISR.
PackedPatterns session_patterns(const Netlist& nl, const LbistConfig& config) {
  return Prpg(config, nl.num_combinational_inputs()).patterns(config.patterns);
}

// Absorbs the session's responses into `misr`, a batch per call: the good
// machine's XOR `diffs` (one word per observe point per batch; empty =
// fault-free). Polls `rc` once per batch; returns why it stopped, kNone
// when complete.
StopReason compact_responses(const Netlist& nl,
                             const PackedPatterns& patterns,
                             const std::vector<std::uint64_t>& diffs,
                             RunControl* rc, Misr& misr) {
  ParallelSimulator sim(nl);
  const std::size_t nops = nl.num_observe_points();
  for (std::size_t b = 0; b < patterns.batches.size(); ++b) {
    if (rc != nullptr) {
      const StopReason stop = rc->poll();
      if (stop != StopReason::kNone) return stop;
    }
    sim.simulate(patterns.batches[b]);
    std::vector<std::uint64_t> words = sim.observed_response();
    if (!diffs.empty()) {
      for (std::size_t i = 0; i < nops; ++i) words[i] ^= diffs[b * nops + i];
    }
    misr.absorb(words, patterns.batches[b].npatterns);
  }
  return StopReason::kNone;
}

}  // namespace

LbistResult run_lbist(const Netlist& nl, const std::vector<Fault>& faults,
                      const LbistConfig& config) {
  AIDFT_REQUIRE_CTX(nl.finalized(), "run_lbist",
                    "requires a finalized netlist");
  LbistResult result;
  result.patterns = config.patterns;
  result.faults_total = faults.size();

  obs::Span session_span =
      obs::span(config.telemetry, "lbist.session", "bist");
  obs::add(config.telemetry, "lbist.sessions");
  obs::add(config.telemetry, "lbist.patterns", config.patterns);

  const PackedPatterns patterns = session_patterns(nl, config);
  const CampaignResult campaign =
      run_campaign(nl, faults, patterns,
                   {.num_threads = config.num_threads,
                    .telemetry = config.telemetry,
                    .run_control = config.run_control});
  result.outcome = campaign.outcome;
  result.detected = campaign.detected;
  result.detected_after = campaign.detected_after;
  result.undetected = result.faults_total - result.detected;

  if (!faults.empty() && result.outcome == StageOutcome::kCompleted) {
    // SCOAP-predicted random resistance: a fault well above the universe's
    // mean detection difficulty rarely falls to pseudo-random patterns.
    // (Pin faults reuse their gate's stem measures — a close over-estimate
    // of observability, biased toward flagging, which is what a test-point
    // shortlist wants.)
    const ScoapResult scoap = compute_scoap(nl);
    double sum = 0.0;
    std::size_t finite = 0;
    std::uint32_t max_finite = 0;
    std::vector<std::uint32_t> difficulty(faults.size());
    for (std::size_t i = 0; i < faults.size(); ++i) {
      difficulty[i] =
          scoap.sa_difficulty(faults[i].gate, faults[i].stuck_at_one());
      if (difficulty[i] < kUnreachable) {
        sum += difficulty[i];
        max_finite = std::max(max_finite, difficulty[i]);
        ++finite;
      }
    }
    const double mean = finite ? sum / static_cast<double>(finite) : 0.0;
    // Midpoint between the universe mean and the hardest finite fault: on a
    // bimodal difficulty profile (the interesting case) this lands between
    // the easy and resistant clusters; on a tight unimodal profile it sits
    // near the max, so almost nothing is flagged.  The absolute floor keeps
    // trivially easy universes from being shortlisted at all.
    const std::uint32_t threshold = std::max<std::uint32_t>(
        8, static_cast<std::uint32_t>((mean + max_finite) / 2.0));
    for (std::size_t i = 0; i < faults.size(); ++i) {
      if (difficulty[i] < threshold) continue;
      ++result.predicted_resistant;
      if (!campaign.fault_detected(i)) ++result.resistant_undetected;
    }
    obs::add(config.telemetry, "lbist.predicted_resistant",
             result.predicted_resistant);
    obs::add(config.telemetry, "lbist.resistant_undetected",
             result.resistant_undetected);
  }

  if (session_span.active()) {
    session_span.arg("patterns", config.patterns);
    session_span.arg("detected", result.detected);
    session_span.arg("predicted_resistant", result.predicted_resistant);
  }

  // Golden signature: MISR over the observed response of every pattern. A
  // partial signature is worthless (it will never match a full session), so
  // on an early stop the loop aborts and golden_signature stays empty.
  if (result.outcome != StageOutcome::kCompleted) return result;
  Misr misr(kMisrBits);
  const StopReason stop =
      compact_responses(nl, patterns, {}, config.run_control, misr);
  result.outcome = outcome_from(stop);
  if (stop == StopReason::kNone) result.golden_signature = misr.signature();
  return result;
}

std::vector<std::uint64_t> faulty_signature(const Netlist& nl, const Fault& fault,
                                            const LbistConfig& config) {
  const PackedPatterns patterns = session_patterns(nl, config);
  // The defect's per-batch observe-point diffs, zero where it hides.
  const std::size_t nops = nl.num_observe_points();
  std::vector<std::uint64_t> diffs(patterns.batches.size() * nops, 0);
  run_campaign(nl, std::span<const Fault>(&fault, 1), patterns,
               {.drop_limit = 0, .telemetry = config.telemetry},
               [&](std::size_t, std::size_t batch, std::uint64_t,
                   std::span<const OpDiff> op_diffs) {
                 for (const OpDiff& d : op_diffs) {
                   diffs[batch * nops + d.op] = d.word;
                 }
                 return false;
               });
  Misr misr(kMisrBits);
  compact_responses(nl, patterns, diffs, nullptr, misr);
  return misr.signature();
}

}  // namespace aidft
