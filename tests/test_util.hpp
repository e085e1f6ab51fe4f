// Shared helpers for the aidft test suite.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "fault/fault.hpp"
#include "fsim/campaign.hpp"
#include "fsim/fault_sim.hpp"
#include "netlist/netlist.hpp"
#include "sim/parallel_sim.hpp"
#include "sim/pattern.hpp"
#include "sim/val3.hpp"

namespace aidft::test {

/// Builds a fully specified cube from integer-encoded fields. Each (name,
/// value, width) triple sets inputs name[0..width-1] from the bits of value.
/// Inputs not covered default to 0. Single-bit inputs use the exact name.
struct FieldSpec {
  std::string base;
  std::uint64_t value;
  std::size_t width;  // 0 = scalar input with exact name `base`
};

inline TestCube make_cube(const Netlist& nl, const std::vector<FieldSpec>& fields) {
  const auto inputs = nl.combinational_inputs();
  TestCube cube(inputs.size());
  cube.constant_fill(Val3::kZero);
  auto set_named = [&](const std::string& name, bool v) {
    const GateId g = nl.find(name);
    AIDFT_REQUIRE(g != kNoGate, "make_cube: no input named " + name);
    for (std::size_t i = 0; i < inputs.size(); ++i) {
      if (inputs[i] == g) {
        cube.bits[i] = v ? Val3::kOne : Val3::kZero;
        return;
      }
    }
    throw Error("make_cube: " + name + " is not a combinational input");
  };
  for (const auto& f : fields) {
    if (f.width == 0) {
      set_named(f.base, f.value & 1);
    } else {
      for (std::size_t b = 0; b < f.width; ++b) {
        set_named(f.base + "[" + std::to_string(b) + "]", (f.value >> b) & 1);
      }
    }
  }
  return cube;
}

/// Reads an integer field out of the simulated outputs: collects outputs
/// named base[0..width-1] (these are OUTPUT markers; we read their observed
/// value) for pattern lane `lane`.
inline std::uint64_t read_output_field(const ParallelSimulator& sim,
                                       const std::string& base,
                                       std::size_t width, std::size_t lane) {
  const Netlist& nl = sim.netlist();
  std::uint64_t v = 0;
  for (std::size_t b = 0; b < width; ++b) {
    const GateId g = nl.find(base + "[" + std::to_string(b) + "]");
    AIDFT_REQUIRE(g != kNoGate, "read_output_field: no output " + base);
    if ((sim.value(g) >> lane) & 1) v |= (1ull << b);
  }
  return v;
}

/// Reads a scalar named output.
inline bool read_output_bit(const ParallelSimulator& sim, const std::string& name,
                            std::size_t lane) {
  const GateId g = sim.netlist().find(name);
  AIDFT_REQUIRE(g != kNoGate, "read_output_bit: no output " + name);
  return (sim.value(g) >> lane) & 1;
}

/// `n` copies of the finalized `core` rebuilt gate by gate through the
/// builder (clone_gates + clone_fanins, names prefixed u<i>_) and then
/// finalized: the independent oracle for Netlist::replicate and
/// Topology::replicate.
inline Netlist cloned_replica(const Netlist& core, std::size_t n) {
  Netlist soc(core.name() + "_x" + std::to_string(n));
  soc.reserve(n * core.num_gates());
  for (std::size_t inst = 0; inst < n; ++inst) {
    const std::vector<GateId> map =
        clone_gates(soc, core, "u" + std::to_string(inst) + "_");
    clone_fanins(soc, core, map, map);
  }
  soc.finalize();
  return soc;
}

/// All 2^n cubes over n inputs (n must be small).
inline std::vector<TestCube> exhaustive_patterns(std::size_t ninputs) {
  AIDFT_REQUIRE(ninputs <= 20, "exhaustive_patterns: too many inputs");
  std::vector<TestCube> v;
  v.reserve(std::size_t{1} << ninputs);
  for (std::uint64_t m = 0; m < (1ull << ninputs); ++m) {
    TestCube c(ninputs);
    for (std::size_t i = 0; i < ninputs; ++i) {
      c.bits[i] = ((m >> i) & 1) ? Val3::kOne : Val3::kZero;
    }
    v.push_back(std::move(c));
  }
  return v;
}

/// Exact detectability of every fault: graded against all 2^n vectors of
/// the netlist's combinational inputs (n must be small).
inline std::vector<bool> exhaustive_detectable(const Netlist& nl,
                                               const std::vector<Fault>& faults) {
  const std::vector<TestCube> all =
      exhaustive_patterns(nl.combinational_inputs().size());
  FaultSimulator fsim(nl);
  std::vector<bool> detectable(faults.size(), false);
  for (std::size_t base = 0; base < all.size(); base += 64) {
    const std::size_t count = std::min<std::size_t>(64, all.size() - base);
    fsim.load_batch(pack_patterns(all, base, count));
    for (std::size_t i = 0; i < faults.size(); ++i) {
      if (!detectable[i] && fsim.detect_mask(faults[i]) != 0) {
        detectable[i] = true;
      }
    }
  }
  return detectable;
}

/// A campaign's result next to each fault's first detecting pattern (-1 =
/// undetected), which the result itself does not keep.
struct FirstDetections {
  CampaignResult result;
  std::vector<std::int64_t> first;
};

/// Runs the campaign through the mask-only DetectHook, which grades on the
/// same path as the plain call, and records 64·batch + ctz(mask) on each
/// fault's first hook call. The hook never drops, so `options` alone
/// decides the grading.
inline FirstDetections first_detections(const Netlist& nl,
                                        std::span<const Fault> faults,
                                        const std::vector<TestCube>& patterns,
                                        const CampaignOptions& options = {}) {
  FirstDetections d;
  d.first.assign(faults.size(), -1);
  d.result = run_campaign(
      nl, faults, patterns, options,
      [&](std::size_t f, std::size_t batch, std::uint64_t mask) {
        if (d.first[f] < 0) {
          d.first[f] = static_cast<std::int64_t>(
              64 * batch + static_cast<std::size_t>(__builtin_ctzll(mask)));
        }
        return false;
      });
  return d;
}

/// A detailed grading's (point, word) pairs scattered into one word per
/// observe point (zero where the fault did not reach): the dense form that
/// per-point assertions read.
inline std::vector<std::uint64_t> dense_diffs(std::span<const OpDiff> pairs,
                                              std::size_t num_observe_points) {
  std::vector<std::uint64_t> dense(num_observe_points, 0);
  for (const OpDiff& d : pairs) dense.at(d.op) |= d.word;
  return dense;
}

/// The serial-loop grading oracle: every candidate's predicted fail words
/// (one per observe point per 64-pattern block, block-major), from one
/// FaultSimulator loading each block and grading every candidate on it.
inline std::vector<std::vector<std::uint64_t>> predict_all(
    const Netlist& nl, const std::vector<TestCube>& patterns,
    const std::vector<Fault>& candidates) {
  const std::size_t nops = nl.observe_points().size();
  const std::size_t nblocks = (patterns.size() + 63) / 64;
  std::vector<std::vector<std::uint64_t>> predicted(
      candidates.size(), std::vector<std::uint64_t>(nblocks * nops, 0));
  FaultSimulator fsim(nl);
  std::vector<OpDiff> pairs;
  for (std::size_t b = 0; b < nblocks; ++b) {
    const std::size_t base = 64 * b;
    fsim.load_batch(pack_patterns(
        patterns, base, std::min<std::size_t>(64, patterns.size() - base)));
    for (std::size_t ci = 0; ci < candidates.size(); ++ci) {
      fsim.detect_mask_detailed(candidates[ci], pairs);
      const std::vector<std::uint64_t> op_diffs = dense_diffs(pairs, nops);
      std::copy(op_diffs.begin(), op_diffs.end(),
                predicted[ci].begin() + static_cast<std::ptrdiff_t>(b * nops));
    }
  }
  return predicted;
}

/// The whole-circuit 3-valued good/faulty pass: every gate's good value
/// under the combinational-input values `bits` (X allowed), and its value
/// with `fault` (stuck-at) injected. The reference for the fault-scoped,
/// event-driven implication the ATPG engines run. A DFF D-pin fault changes
/// only the captured value, so it leaves `faulty` equal to `good`.
inline void full_pass_3v(const Netlist& nl, const std::vector<Val3>& bits,
                         const Fault& fault, std::vector<Val3>& good,
                         std::vector<Val3>& faulty) {
  const Topology& t = nl.topology();
  const std::vector<GateId> inputs = nl.combinational_inputs();
  const Val3 stuck = fault.stuck_at_one() ? Val3::kOne : Val3::kZero;
  auto is_free = [&](GateId g) {
    return t.type(g) == GateType::kInput || t.type(g) == GateType::kDff;
  };
  good.assign(nl.num_gates(), Val3::kX);
  for (std::size_t i = 0; i < inputs.size(); ++i) good[inputs[i]] = bits[i];
  for (GateId g : t.topo_order()) {
    if (is_free(g)) continue;
    const std::span<const GateId> fin = t.fanin(g);
    good[g] = eval_gate3(t.type(g), fin.size(),
                         [&](std::size_t k) { return good[fin[k]]; });
  }
  faulty = good;
  for (GateId g : t.topo_order()) {
    if (g == fault.gate && fault.is_stem()) {
      faulty[g] = stuck;
      continue;
    }
    if (is_free(g)) continue;
    const std::span<const GateId> fin = t.fanin(g);
    faulty[g] = eval_gate3(t.type(g), fin.size(), [&](std::size_t k) {
      return g == fault.gate && k == fault.pin ? stuck : faulty[fin[k]];
    });
  }
}

/// True when the full pass over `cube`, X bits kept, shows a known
/// good/faulty difference at an observe point (for a DFF D-pin fault: the
/// pin's driver holds the opposite of the stuck value), i.e. every
/// completion of the cube detects `fault`.
inline bool cube_detects_3v(const Netlist& nl, const TestCube& cube,
                            const Fault& fault) {
  std::vector<Val3> good, faulty;
  full_pass_3v(nl, cube.bits, fault, good, faulty);
  const Val3 stuck = fault.stuck_at_one() ? Val3::kOne : Val3::kZero;
  for (GateId op : nl.observe_points()) {
    const GateId og = nl.observed_gate(op);
    const bool dpin_fault = op == fault.gate && !fault.is_stem();
    const Val3 g = good[og];
    const Val3 b = dpin_fault ? stuck : faulty[og];
    if (is_known(g) && is_known(b) && g != b) return true;
  }
  return false;
}

/// The MISR one state bit at a time: the oracle for Misr's word-form step.
/// Same taps from the same seed; each cycle shifts right, flips the top bit
/// and every tap on feedback, then flips bit i % nbits for each set input i.
class BitSerialMisr {
 public:
  explicit BitSerialMisr(std::size_t bits, std::uint64_t poly_seed = 0x315F)
      : nbits_(bits), state_((bits + 63) / 64, 0) {
    Rng rng(poly_seed);
    const std::size_t count = std::min<std::size_t>(3, bits - 2);
    while (taps_.size() < count) {
      const std::size_t t = 1 + rng.next_below(bits - 1);
      const bool repeat =
          std::find(taps_.begin(), taps_.end(), t) != taps_.end();
      if (t != bits - 1 && !repeat) taps_.push_back(t);
    }
  }

  void shift_in(const std::vector<bool>& bits_in) {
    const bool feedback = state_[0] & 1ull;
    for (std::size_t w = 0; w + 1 < state_.size(); ++w) {
      state_[w] = (state_[w] >> 1) | (state_[w + 1] << 63);
    }
    state_.back() >>= 1;
    auto flip = [&](std::size_t pos) {
      state_[pos >> 6] ^= 1ull << (pos & 63);
    };
    if (feedback) {
      flip(nbits_ - 1);
      for (std::size_t t : taps_) flip(t);
    }
    for (std::size_t i = 0; i < bits_in.size(); ++i) {
      if (bits_in[i]) flip(i % nbits_);
    }
  }

  const std::vector<std::uint64_t>& signature() const { return state_; }

 private:
  std::size_t nbits_;
  std::vector<std::size_t> taps_;
  std::vector<std::uint64_t> state_;
};

}  // namespace aidft::test
