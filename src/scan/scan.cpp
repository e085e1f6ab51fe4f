#include "scan/scan.hpp"

#include <algorithm>

#include "sim/event_sim.hpp"
#include "sim/parallel_sim.hpp"

namespace aidft {

std::size_t ScanPlan::max_chain_length() const {
  std::size_t m = 0;
  for (const auto& c : chains) m = std::max(m, c.cells.size());
  return m;
}

std::size_t ScanPlan::total_cells() const {
  std::size_t n = 0;
  for (const auto& c : chains) n += c.cells.size();
  return n;
}

ScanPlan plan_scan_chains(const Netlist& nl, std::size_t num_chains) {
  AIDFT_REQUIRE_CTX(nl.finalized(), "plan_scan_chains",
                    "requires a finalized netlist");
  AIDFT_REQUIRE_CTX(num_chains >= 1, "plan_scan_chains",
                    "need at least one chain");
  ScanPlan plan;
  plan.chains.resize(std::min(num_chains, std::max<std::size_t>(1, nl.dffs().size())));
  if (nl.dffs().empty()) {
    plan.chains.resize(num_chains);
    return plan;
  }
  // Round-robin keeps lengths within one cell of each other.
  std::size_t k = 0;
  for (GateId ff : nl.dffs()) {
    plan.chains[k].cells.push_back(ff);
    k = (k + 1) % plan.chains.size();
  }
  return plan;
}

std::vector<std::size_t> checked_flop_positions(const Netlist& nl,
                                                const ScanPlan& plan,
                                                const char* where) {
  AIDFT_REQUIRE_CTX(nl.finalized(), where, "requires a finalized netlist");
  // Every flop must be covered exactly once.
  std::vector<bool> in_chain(nl.num_gates(), false);
  std::size_t covered = 0;
  for (const ScanChain& chain : plan.chains) {
    for (GateId ff : chain.cells) {
      AIDFT_REQUIRE_CTX(ff < nl.num_gates() && nl.type(ff) == GateType::kDff,
                        where, "scan plan references a non-flop gate");
      AIDFT_REQUIRE_CTX(!in_chain[ff], where, "flop in two chains");
      in_chain[ff] = true;
      ++covered;
    }
  }
  AIDFT_REQUIRE_CTX(covered == nl.dffs().size(), where,
                    "scan plan must cover all flops");
  std::vector<std::size_t> pos(nl.num_gates(), SIZE_MAX);
  for (std::size_t i = 0; i < nl.dffs().size(); ++i) {
    pos[nl.dffs()[i]] = nl.inputs().size() + i;
  }
  return pos;
}

ScanNetlist insert_scan(const Netlist& nl, const ScanPlan& plan) {
  checked_flop_positions(nl, plan, "insert_scan");

  ScanNetlist out;
  out.netlist.set_name(nl.name() + "_scan");
  // Clone gates (same order → same names resolve to parallel structure).
  const std::vector<GateId> map = clone_gates(out.netlist, nl, "");
  // Scan infrastructure pins.
  out.scan_enable = out.netlist.add_input("se");
  for (std::size_t c = 0; c < plan.chains.size(); ++c) {
    out.scan_in.push_back(out.netlist.add_input("si" + std::to_string(c)));
  }
  // Wire non-flop gates 1:1; flops get a scan mux in front of D.
  std::vector<GateId> sinks = map;
  for (GateId ff : nl.dffs()) sinks[ff] = kNoGate;
  clone_fanins(out.netlist, nl, sinks, map);
  out.chain_cells.resize(plan.chains.size());
  for (std::size_t c = 0; c < plan.chains.size(); ++c) {
    GateId prev_q = out.scan_in[c];
    for (GateId ff : plan.chains[c].cells) {
      const GateId d_new = map[nl.topology().fanin0(ff)];
      const GateId mux = out.netlist.add_gate(
          GateType::kMux, {out.scan_enable, d_new, prev_q},
          out.netlist.name_of(map[ff]).empty()
              ? ""
              : out.netlist.name_of(map[ff]) + "_scanmux");
      out.netlist.connect(mux, map[ff]);
      out.chain_cells[c].push_back(map[ff]);
      prev_q = map[ff];
    }
    out.scan_out.push_back(
        out.netlist.add_output(prev_q, "so" + std::to_string(c)));
  }
  out.netlist.finalize();
  return out;
}

std::vector<ScanPattern> to_scan_patterns(const Netlist& nl, const ScanPlan& plan,
                                          const std::vector<TestCube>& cubes) {
  const std::vector<std::size_t> flop_pos =
      checked_flop_positions(nl, plan, "to_scan_patterns");
  const std::size_t npi = nl.inputs().size();
  std::vector<ScanPattern> out;
  out.reserve(cubes.size());
  for (const TestCube& cube : cubes) {
    AIDFT_REQUIRE(cube.size() == npi + nl.dffs().size(),
                  "cube width != combinational inputs");
    ScanPattern sp;
    sp.pi_values.assign(cube.bits.begin(), cube.bits.begin() + npi);
    sp.chain_load.resize(plan.chains.size());
    for (std::size_t c = 0; c < plan.chains.size(); ++c) {
      const std::vector<GateId>& cells = plan.chains[c].cells;
      sp.chain_load[c].resize(cells.size());
      for (std::size_t p = 0; p < cells.size(); ++p) {
        sp.chain_load[c][p] = cube.bits[flop_pos[cells[p]]];
      }
    }
    out.push_back(std::move(sp));
  }
  return out;
}

ScanProtocolSimulator::ScanProtocolSimulator(const Netlist& original,
                                             const ScanNetlist& scan,
                                             const ScanPlan& plan)
    : scan_(&scan), max_len_(plan.max_chain_length()) {
  AIDFT_REQUIRE(scan.netlist.finalized(), "scan netlist must be finalized");
  // Original PIs were cloned first, in order.
  const auto& new_inputs = scan.netlist.inputs();
  AIDFT_REQUIRE(new_inputs.size() ==
                    original.inputs().size() + 1 + scan.scan_in.size(),
                "unexpected scan netlist input count");
  pi_map_.assign(new_inputs.begin(),
                 new_inputs.begin() + original.inputs().size());
  sim_ = std::make_unique<EventSimulator>(scan.netlist);
}

std::vector<bool> ScanProtocolSimulator::run_pattern(const ScanPattern& pattern) {
  EventSimulator& sim = *sim_;
  const std::size_t nchains = scan_->scan_in.size();
  AIDFT_REQUIRE(pattern.chain_load.size() == nchains,
                "pattern chain count mismatch");

  auto word_of = [](Val3 v) { return v == Val3::kOne ? ~0ull : 0ull; };

  // ---- load: se=1, shift max_len cycles ---------------------------------
  sim.set_input(scan_->scan_enable, ~0ull);
  for (std::size_t t = 0; t < max_len_; ++t) {
    for (std::size_t c = 0; c < nchains; ++c) {
      const auto& load = pattern.chain_load[c];
      const std::size_t l = load.size();
      // Bit entering at cycle t rests at cell (max_len-1-t) after all
      // max_len shifts; cells beyond the chain length are padding.
      const std::size_t target = max_len_ - 1 - t;
      const std::uint64_t w = (target < l) ? word_of(load[target]) : 0;
      sim.set_input(scan_->scan_in[c], w);
    }
    sim.clock();
    ++cycles_;
  }

  // ---- capture: se=0, apply PIs, read POs, clock once --------------------
  sim.set_input(scan_->scan_enable, 0);
  AIDFT_REQUIRE(pattern.pi_values.size() == pi_map_.size(),
                "pattern PI count mismatch");
  for (std::size_t i = 0; i < pi_map_.size(); ++i) {
    sim.set_input(pi_map_[i], word_of(pattern.pi_values[i]));
  }
  sim.settle();
  std::vector<bool> response;
  // Functional POs (every output marker except the soN ones).
  for (GateId po : scan_->netlist.outputs()) {
    if (std::find(scan_->scan_out.begin(), scan_->scan_out.end(), po) !=
        scan_->scan_out.end()) {
      continue;
    }
    response.push_back(sim.value(po) & 1);
  }
  sim.clock();
  ++cycles_;

  // ---- unload: se=1, observe soN while shifting --------------------------
  sim.set_input(scan_->scan_enable, ~0ull);
  for (std::size_t c = 0; c < nchains; ++c) sim.set_input(scan_->scan_in[c], 0);
  std::vector<std::vector<bool>> unload(nchains);
  for (std::size_t t = 0; t < max_len_; ++t) {
    sim.settle();
    for (std::size_t c = 0; c < nchains; ++c) {
      if (t < scan_->chain_cells[c].size()) {
        unload[c].push_back(sim.value(scan_->scan_out[c]) & 1);
      }
    }
    sim.clock();
    ++cycles_;
  }
  for (auto& u : unload) {
    for (bool b : u) response.push_back(b);
  }
  return response;
}

std::vector<bool> combinational_reference_response(const Netlist& nl,
                                                   const ScanPlan& plan,
                                                   const TestCube& cube) {
  checked_flop_positions(nl, plan, "combinational_reference_response");
  TestCube filled = cube;
  filled.constant_fill(Val3::kZero);
  std::vector<TestCube> v{filled};
  ParallelSimulator sim(nl);
  sim.simulate(pack_patterns(v, 0, 1));
  std::vector<bool> response;
  for (GateId po : nl.outputs()) response.push_back(sim.value(po) & 1);
  // Unload order: chain by chain, last cell first (it sits next to so).
  for (const auto& chain : plan.chains) {
    for (auto it = chain.cells.rbegin(); it != chain.cells.rend(); ++it) {
      response.push_back(sim.next_state(*it) & 1);
    }
  }
  return response;
}

}  // namespace aidft
