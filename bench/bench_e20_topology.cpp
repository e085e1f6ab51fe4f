// E20 — production engines over the compiled Topology:
//   goodsim_engine — 64-way good-machine simulation by ParallelSimulator
//       (CSR plus level buckets). Patterns/sec.
//   scoap_engine   — compute_scoap (controllability + observability).
//       Sweeps/sec.
//   footprint      — bytes per gate of the compiled view (Topology::bytes()).
#include <benchmark/benchmark.h>

#include "bench_util.hpp"
#include "common/rng.hpp"
#include "netlist/scoap.hpp"
#include "sim/parallel_sim.hpp"

namespace aidft {
namespace {

constexpr std::size_t kBatches = 8;  // 8 x 64 = 512 patterns per iteration

std::vector<PatternBatch> make_batches(const Netlist& nl) {
  Rng rng(0xE20);
  const auto cubes =
      random_patterns(nl.combinational_inputs().size(), kBatches * 64, rng);
  std::vector<PatternBatch> batches;
  for (std::size_t base = 0; base < cubes.size(); base += 64) {
    batches.push_back(pack_patterns(cubes, base, 64));
  }
  return batches;
}

void e20_goodsim_engine(benchmark::State& state, const std::string& name) {
  const Netlist nl = bench::circuit_by_name(name);
  const auto batches = make_batches(nl);
  ParallelSimulator sim(nl);
  std::uint64_t sink = 0;
  for (auto _ : state) {
    for (const PatternBatch& b : batches) {
      sim.simulate(b);
      for (GateId po : nl.outputs()) sink ^= sim.value(po);
    }
    benchmark::DoNotOptimize(sink);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kBatches * 64));
  state.counters["gates"] = static_cast<double>(nl.num_gates());
}

void e20_scoap_engine(benchmark::State& state, const std::string& name) {
  const Netlist nl = bench::circuit_by_name(name);
  for (auto _ : state) {
    const ScoapResult r = compute_scoap(nl);
    benchmark::DoNotOptimize(r.co.back());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}

void e20_footprint(benchmark::State& state, const std::string& name) {
  const Netlist nl = bench::circuit_by_name(name);
  for (auto _ : state) {
    benchmark::DoNotOptimize(nl.topology().bytes());
  }
  state.counters["csr_bytes_per_gate"] =
      static_cast<double>(nl.topology().bytes()) /
      static_cast<double>(nl.num_gates());
}

void register_all() {
  for (const char* name : {"mul8", "mul12", "alu8", "cla16", "mac8reg"}) {
    bench::reg(std::string("E20/goodsim_engine/") + name,
               [name](benchmark::State& s) { e20_goodsim_engine(s, name); })
        ->Unit(benchmark::kMillisecond);
    bench::reg(std::string("E20/scoap_engine/") + name,
               [name](benchmark::State& s) { e20_scoap_engine(s, name); })
        ->Unit(benchmark::kMicrosecond);
    bench::reg(std::string("E20/footprint/") + name,
               [name](benchmark::State& s) { e20_footprint(s, name); })
        ->Iterations(1);
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
