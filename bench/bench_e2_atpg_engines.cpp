// E2 — ATPG engine comparison: PODEM vs SAT vs PODEM-then-SAT.
// Expected shape: PODEM is fastest on easy faults but can abort on
// redundancy-heavy logic; SAT proves every untestable fault; the hybrid
// gets PODEM's speed with SAT's completeness (zero aborts).
//
// E2/scale/<gates> is the scaling rung: the default PODEM->SAT flow (default
// backtrack budget) on one make_random_logic(32, gates, 1) block, the block
// shape of perfbench's atpg_redundant workload, at 250..4,000 gates.
#include <benchmark/benchmark.h>

#include "atpg/atpg.hpp"
#include "bench_util.hpp"

namespace aidft {
namespace {

void e2_engine(benchmark::State& state, const std::string& name,
               AtpgEngine engine) {
  const Netlist nl = bench::circuit_by_name(name);
  const auto faults = collapse_equivalent(nl, generate_stuck_at_faults(nl));
  AtpgResult result;
  for (auto _ : state) {
    AtpgOptions opts;
    opts.engine = engine;
    opts.random_patterns = 64;
    // Tight PODEM budget so hard faults show up as engine differences.
    opts.podem_backtrack_limit = 200;
    result = generate_tests(nl, faults, opts);
    benchmark::DoNotOptimize(result.detected);
  }
  state.counters["faults"] = static_cast<double>(faults.size());
  state.counters["detected"] = static_cast<double>(result.detected);
  state.counters["untestable"] = static_cast<double>(result.untestable);
  state.counters["aborted"] = static_cast<double>(result.aborted);
  state.counters["patterns"] = static_cast<double>(result.patterns.size());
  state.counters["test_cov_pct"] = 100.0 * result.test_coverage();
}

void e2_scale(benchmark::State& state, std::size_t gates) {
  const Netlist nl = circuits::make_random_logic(32, gates, 1);
  const auto faults = collapse_equivalent(nl, generate_stuck_at_faults(nl));
  AtpgResult result;
  for (auto _ : state) {
    result = generate_tests(nl, faults);
    benchmark::DoNotOptimize(result.detected);
  }
  state.counters["faults"] = static_cast<double>(faults.size());
  state.counters["backtracks"] = static_cast<double>(result.podem_backtracks);
  state.counters["sat_calls"] = static_cast<double>(result.sat_calls);
  state.counters["untestable"] = static_cast<double>(result.untestable);
  state.counters["aborted"] = static_cast<double>(result.aborted);
  state.counters["patterns"] = static_cast<double>(result.patterns.size());
}

void register_all() {
  const struct {
    const char* engine_name;
    AtpgEngine engine;
  } engines[] = {
      {"podem", AtpgEngine::kPodem},
      {"sat", AtpgEngine::kSat},
      {"podem+sat", AtpgEngine::kPodemThenSat},
  };
  for (const char* name : {"mul8", "cla16", "alu8", "cmp8", "rpr6x14",
                           "redundant", "mac8reg"}) {
    for (const auto& e : engines) {
      aidft::bench::reg(
          std::string("E2/") + e.engine_name + "/" + name,
          [name, engine = e.engine](benchmark::State& s) {
            e2_engine(s, name, engine);
          })
          ->Unit(benchmark::kMillisecond)
          ->Iterations(1);
    }
  }
  for (std::size_t gates : {250, 500, 1000, 2000, 4000}) {
    aidft::bench::reg("E2/scale/" + std::to_string(gates),
                      [gates](benchmark::State& s) { e2_scale(s, gates); })
        ->Unit(benchmark::kMillisecond)
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
