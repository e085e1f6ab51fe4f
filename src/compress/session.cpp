#include "compress/session.hpp"

#include <algorithm>
#include <utility>

#include "common/rng.hpp"
#include "fsim/campaign.hpp"

namespace aidft {

CompressedSessionResult run_compressed_session(
    const Netlist& nl, const ScanPlan& plan, const std::vector<Fault>& faults,
    const std::vector<TestCube>& cubes, const CompressedSessionConfig& config) {
  // Flop -> combinational-input position, for reassembling decompressed
  // cubes; throws on an unfinalized netlist or a malformed plan.
  const std::vector<std::size_t> flop_pos =
      checked_flop_positions(nl, plan, "run_compressed_session");
  CompressedSessionResult result;
  result.cubes_offered = cubes.size();
  result.faults_total = faults.size();

  obs::Span session_span =
      obs::span(config.telemetry, "edt.session", "compress");
  struct SpanFinish {
    obs::Span* span;
    const CompressedSessionResult* r;
    obs::Telemetry* telemetry;
    ~SpanFinish() {
      if (telemetry == nullptr) return;
      obs::add(telemetry, "edt.encode_attempts", r->cubes_offered);
      obs::add(telemetry, "edt.cubes_encoded", r->cubes_encoded);
      obs::add(telemetry, "edt.encode_failures", r->encode_failures);
      span->arg("cubes", r->cubes_offered);
      span->arg("encoded", r->cubes_encoded);
      span->arg("failures", r->encode_failures);
    }
  } span_finish{&session_span, &result, config.telemetry};

  const std::size_t npi = nl.inputs().size();
  const std::size_t nffs = nl.dffs().size();
  const std::size_t max_len = std::max<std::size_t>(1, plan.max_chain_length());
  const std::size_t chains = std::max<std::size_t>(1, plan.num_chains());
  EdtCodec codec(config.edt, chains, max_len);
  result.stimulus_compression =
      nffs == 0 ? 1.0
                : static_cast<double>(nffs) /
                      static_cast<double>(codec.bits_per_pattern());
  AIDFT_REQUIRE(config.out_channels >= 1, "compactor needs an output channel");
  const std::size_t outs = std::min(config.out_channels, chains);
  result.response_compression =
      static_cast<double>(chains) / static_cast<double>(outs);

  RunControl* rc = config.run_control;
  Rng pi_rng(config.pi_fill_seed);
  obs::Span encode_span = obs::span(config.telemetry, "edt.encode", "compress");
  const auto scan_patterns = to_scan_patterns(nl, plan, cubes);
  // Cubes are encoded a block at a time, one symbolic sweep of the
  // decompressor per block, which bounds the equations held at once. Run
  // control is checked every 16 cubes, the first of a block before it is
  // encoded.
  constexpr std::size_t kBlock = 64;
  auto stop_requested = [&] {
    if (rc == nullptr) return false;
    const StopReason stop = rc->check();
    if (stop == StopReason::kNone) return false;
    result.outcome = outcome_from(stop);
    return true;
  };
  std::vector<const ChainLoad*> block;
  result.delivered.reserve(cubes.size());
  bool stopped = false;
  for (std::size_t begin = 0; begin < cubes.size() && !stopped;
       begin += kBlock) {
    if (stop_requested()) break;
    const std::size_t end = std::min(cubes.size(), begin + kBlock);
    block.clear();
    for (std::size_t i = begin; i < end; ++i) {
      block.push_back(&scan_patterns[i].chain_load);
    }
    const auto encoded = codec.encode(block);
    for (std::size_t i = begin; i < end; ++i) {
      if (i != begin && (i & 15) == 0 && stop_requested()) {
        stopped = true;
        break;
      }
      if (!encoded[i - begin]) {
        ++result.encode_failures;
        continue;
      }
      ++result.cubes_encoded;
      const auto chain_fill = codec.decompress(*encoded[i - begin]);
      // Every care bit must be delivered — the codec's contract.
      TestCube full(npi + nffs);
      for (std::size_t p = 0; p < npi; ++p) {
        const Val3 v = cubes[i].bits[p];
        full.bits[p] =
            v == Val3::kX ? (pi_rng.next_bool() ? Val3::kOne : Val3::kZero) : v;
      }
      for (std::size_t c = 0; c < plan.chains.size(); ++c) {
        const std::vector<GateId>& cells = plan.chains[c].cells;
        for (std::size_t p = 0; p < cells.size(); ++p) {
          const std::size_t at = flop_pos[cells[p]];
          full.bits[at] = chain_fill[c][p] ? Val3::kOne : Val3::kZero;
          const Val3 want = cubes[i].bits[at];
          AIDFT_ASSERT(want == Val3::kX || want == full.bits[at],
                       "EDT decompressor failed to deliver a care bit");
        }
      }
      result.delivered.push_back(std::move(full));
    }
  }
  encode_span.end();

  if (faults.empty()) return result;

  // Uncompressed-delivery reference: the same cubes, random-filled, applied
  // without any codec. Compression "cost" is measured against this.
  {
    obs::Span baseline_span =
        obs::span(config.telemetry, "edt.grade_baseline", "compress");
    std::vector<TestCube> baseline = cubes;
    Rng fill_rng(config.pi_fill_seed ^ 0xBA5E11FEull);
    for (auto& c : baseline) c.random_fill(fill_rng);
    const CampaignResult r =
        run_campaign(nl, faults, baseline,
                     {.num_threads = config.num_threads,
                      .telemetry = config.telemetry,
                      .run_control = rc});
    result.detected_baseline = r.detected;
    if (r.outcome != StageOutcome::kCompleted) result.outcome = r.outcome;
  }

  if (result.delivered.empty()) return result;

  // Grade: ideal observation + compacted observation with fault dropping.
  obs::Span grade_span =
      obs::span(config.telemetry, "edt.grade_compacted", "compress");
  // Observe point -> compactor output bit. The POs come first and are seen
  // directly. The XOR compactor folds chain c into output c % outs, and the
  // flop at position p leaves in unload cycle len(c) - 1 - p, so its bit is
  // cycle * outs + c % outs.
  constexpr std::uint32_t kDirect = UINT32_MAX;
  const std::size_t npo = nl.outputs().size();
  std::vector<std::uint32_t> out_bit(npo + nffs, kDirect);
  for (std::size_t c = 0; c < plan.chains.size(); ++c) {
    const std::vector<GateId>& cells = plan.chains[c].cells;
    for (std::size_t p = 0; p < cells.size(); ++p) {
      out_bit[npo + flop_pos[cells[p]] - npi] = static_cast<std::uint32_t>(
          (cells.size() - 1 - p) * outs + c % outs);
    }
  }
  // One parity word per compactor output bit, all zeros between hook calls.
  // The compacted campaign runs one worker (no num_threads), so the hook
  // may share this scratch.
  std::vector<std::uint64_t> parity(max_len * outs, 0);
  // Every detection is an ideal one. A fault is graded on until it also
  // shows through the compactor in a (live) lane: a PO fails, or some
  // output bit sees an odd number of failing flops. Each observe point
  // appears at most once in a fault's pairs, so one pass XORs the flops'
  // words into their bits and a second reads and clears what it touched.
  const CampaignResult graded = run_campaign(
      nl, faults, result.delivered,
      {.drop_limit = 0, .telemetry = config.telemetry, .run_control = rc},
      [&](std::size_t, std::size_t, std::uint64_t,
          std::span<const OpDiff> op_diffs) {
        std::uint64_t lanes = 0;
        for (const OpDiff& d : op_diffs) {
          const std::uint32_t bit = out_bit[d.op];
          if (bit == kDirect) {
            lanes |= d.word;
          } else {
            parity[bit] ^= d.word;
          }
        }
        for (const OpDiff& d : op_diffs) {
          const std::uint32_t bit = out_bit[d.op];
          if (bit != kDirect) lanes |= std::exchange(parity[bit], 0);
        }
        result.detected_compacted += lanes != 0;
        return lanes != 0;
      });
  result.detected_ideal = graded.detected;
  if (graded.outcome != StageOutcome::kCompleted) {
    result.outcome = graded.outcome;
  }
  return result;
}

}  // namespace aidft
