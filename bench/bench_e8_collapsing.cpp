// E8 — Fault collapsing: equivalence + dominance reduction ratios and the
// fault-simulation time they save. Expected shape: equivalence keeps
// ~40-70% of the universe on gate-level logic (less on inverter/buffer
// heavy nets, none on XOR trees); campaign time scales with list size.
// The soc_collapse rungs time collapse itself on broadcast SoCs of up to
// 2.7M faults, where the fault index leaves cache.
#include <benchmark/benchmark.h>

#include "aichip/soc.hpp"
#include "aichip/systolic.hpp"
#include "bench_util.hpp"
#include "common/rng.hpp"
#include "fsim/campaign.hpp"
#include "fsim/fault_sim.hpp"

namespace aidft {
namespace {

void e8_ratios(benchmark::State& state, const std::string& name) {
  const Netlist nl = bench::circuit_by_name(name);
  const auto universe = generate_stuck_at_faults(nl);
  std::size_t eq_size = 0, dom_size = 0;
  for (auto _ : state) {
    const auto eq = collapse_equivalent(nl, universe);
    const auto dom = collapse_dominance(nl, eq);
    eq_size = eq.size();
    dom_size = dom.size();
    benchmark::DoNotOptimize(eq_size + dom_size);
  }
  state.counters["universe"] = static_cast<double>(universe.size());
  state.counters["equivalence"] = static_cast<double>(eq_size);
  state.counters["dominance"] = static_cast<double>(dom_size);
  state.counters["eq_ratio"] =
      static_cast<double>(eq_size) / static_cast<double>(universe.size());
}

void e8_fsim_savings(benchmark::State& state, const std::string& name,
                     bool collapsed) {
  const Netlist nl = bench::circuit_by_name(name);
  auto faults = generate_stuck_at_faults(nl);
  if (collapsed) faults = collapse_equivalent(nl, faults);
  Rng rng(3);
  const auto patterns = random_patterns(nl.combinational_inputs().size(), 128, rng);
  for (auto _ : state) {
    const CampaignResult r = run_campaign(nl, faults, patterns);
    benchmark::DoNotOptimize(r.detected);
  }
  state.counters["faults"] = static_cast<double>(faults.size());
}

// Equivalence collapse of a broadcast SoC's full universe: the 2x2, 4-bit
// systolic core of perfbench's soc_broadcast, replicated `cores` times.
// Wall time per collapse is the row time.
void e8_soc_collapse(benchmark::State& state, std::size_t cores) {
  const aichip::SystolicConfig core;  // 2x2 PEs, 4-bit operands
  const aichip::SocNetlist soc =
      aichip::make_replicated_soc(aichip::make_systolic_array(core), cores);
  const auto universe = generate_stuck_at_faults(soc.netlist);
  std::size_t collapsed = 0;
  for (auto _ : state) {
    collapsed = collapse_equivalent(soc.netlist, universe).size();
    benchmark::DoNotOptimize(collapsed);
  }
  state.counters["gates"] = static_cast<double>(soc.netlist.num_gates());
  state.counters["faults"] = static_cast<double>(universe.size());
  state.counters["collapsed"] = static_cast<double>(collapsed);
}

void register_all() {
  for (const char* name : {"c17", "mul8", "cla16", "alu8", "parity32",
                           "mac8reg", "rpr4x12", "cmp8"}) {
    aidft::bench::reg(
        std::string("E8/ratio/") + name,
        [name](benchmark::State& s) { e8_ratios(s, name); });
  }
  for (const char* name : {"mul8", "alu8", "mac8reg"}) {
    aidft::bench::reg(
        std::string("E8/fsim_uncollapsed/") + name,
        [name](benchmark::State& s) { e8_fsim_savings(s, name, false); })
        ->Unit(benchmark::kMillisecond);
    aidft::bench::reg(
        std::string("E8/fsim_collapsed/") + name,
        [name](benchmark::State& s) { e8_fsim_savings(s, name, true); })
        ->Unit(benchmark::kMillisecond);
  }
  for (std::size_t cores : {64, 256, 1024}) {
    aidft::bench::reg(
        "E8/soc_collapse/" + std::to_string(cores),
        [cores](benchmark::State& s) { e8_soc_collapse(s, cores); })
        ->Unit(benchmark::kMillisecond)
        ->UseRealTime();
  }
}

}  // namespace
}  // namespace aidft

int main(int argc, char** argv) {
  aidft::register_all();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
