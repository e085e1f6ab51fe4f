#include "fsim/seq_fsim.hpp"

#include "fsim/fault_sim.hpp"

namespace aidft {

InputSequence random_sequence(const Netlist& nl, std::size_t cycles, Rng& rng) {
  InputSequence seq;
  seq.cycles = cycles;
  seq.stimulus.assign(cycles,
                      std::vector<std::uint64_t>(nl.inputs().size(), 0));
  for (auto& cycle : seq.stimulus) {
    for (auto& w : cycle) w = rng.next_u64();
  }
  return seq;
}

SeqCampaignResult run_functional_campaign(const Netlist& nl,
                                          const std::vector<Fault>& faults,
                                          const InputSequence& sequence) {
  AIDFT_REQUIRE(nl.finalized(), "functional campaign requires finalized netlist");
  for (const Fault& f : faults) {
    AIDFT_REQUIRE(f.kind == FaultKind::kStuckAt,
                  "functional campaign grades stuck-at faults");
  }
  SeqCampaignResult result;
  result.total_faults = faults.size();
  result.first_detected_cycle.assign(faults.size(), -1);
  if (sequence.cycles == 0) return result;
  AIDFT_REQUIRE(sequence.stimulus.size() == sequence.cycles &&
                    (sequence.cycles == 0 ||
                     sequence.stimulus[0].size() == nl.inputs().size()),
                "stimulus shape mismatch");

  // Two-phase capture so flop-to-flop paths see pre-edge values.
  std::vector<std::uint64_t> next_state(nl.dffs().size());
  const Topology& topo = nl.topology();
  auto capture = [&](std::vector<std::uint64_t>& values) {
    for (std::size_t i = 0; i < nl.dffs().size(); ++i) {
      next_state[i] = values[topo.fanin0(nl.dffs()[i])];
    }
    for (std::size_t i = 0; i < nl.dffs().size(); ++i) {
      values[nl.dffs()[i]] = next_state[i];
    }
  };

  // Good machine: record PO words per cycle.
  std::vector<std::vector<std::uint64_t>> good_po(
      sequence.cycles, std::vector<std::uint64_t>(nl.outputs().size(), 0));
  {
    std::vector<std::uint64_t> values(nl.num_gates(), 0);
    for (std::size_t t = 0; t < sequence.cycles; ++t) {
      for (std::size_t i = 0; i < nl.inputs().size(); ++i) {
        values[nl.inputs()[i]] = sequence.stimulus[t][i];
      }
      full_sweep(nl, values, nullptr);
      for (std::size_t o = 0; o < nl.outputs().size(); ++o) {
        good_po[t][o] = values[nl.outputs()[o]];
      }
      capture(values);
    }
  }

  // Faulty machines, one full sequential run each, early exit on detect.
  std::vector<std::uint64_t> values(nl.num_gates(), 0);
  for (std::size_t fi = 0; fi < faults.size(); ++fi) {
    std::fill(values.begin(), values.end(), 0);
    const Fault& f = faults[fi];
    for (std::size_t t = 0; t < sequence.cycles; ++t) {
      for (std::size_t i = 0; i < nl.inputs().size(); ++i) {
        values[nl.inputs()[i]] = sequence.stimulus[t][i];
      }
      full_sweep(nl, values, &f);
      bool diff = false;
      for (std::size_t o = 0; o < nl.outputs().size(); ++o) {
        if (values[nl.outputs()[o]] != good_po[t][o]) {
          diff = true;
          break;
        }
      }
      if (diff) {
        result.first_detected_cycle[fi] = static_cast<std::int64_t>(t);
        ++result.detected;
        break;
      }
      // Next state (fault on a flop's Q was already applied in full_sweep;
      // re-apply after capture so it persists).
      capture(values);
      if (f.is_stem() && nl.type(f.gate) == GateType::kDff) {
        values[f.gate] = f.stuck_at_one() ? ~0ull : 0ull;
      }
      if (!f.is_stem() && nl.type(f.gate) == GateType::kDff) {
        // Stuck D pin: the flop captured the stuck value.
        values[f.gate] = f.stuck_at_one() ? ~0ull : 0ull;
      }
    }
  }
  return result;
}

}  // namespace aidft
