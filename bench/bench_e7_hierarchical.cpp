// E7 — Hierarchical DFT for replicated AI cores: flat vs per-core-sequential
// vs identical-core-broadcast test time as core count grows, PLUS a measured
// proof on a real N-core netlist that broadcast patterns cover the full SoC
// fault list at core coverage. Expected shape: broadcast is flat in N while
// the alternatives grow linearly — the tutorial's headline argument.
// E7/soc_build times building and freeing the N-core netlist alone and
// gauges what it holds per gate; E7/signoff_rss gauges the peak RSS of each
// stage of the SoC signoff at 1 and 4 campaign workers.
#include <benchmark/benchmark.h>
#include <unistd.h>

#include <chrono>
#include <fstream>
#include <optional>
#include <string>

#include "bench_util.hpp"

#include "aichip/soc.hpp"
#include "aichip/systolic.hpp"
#include "aichip/test_time.hpp"
#include "atpg/atpg.hpp"
#include "fault/fault.hpp"
#include "fsim/campaign.hpp"
#include "fsim/fault_sim.hpp"

namespace aidft {
namespace {

struct E7Core {
  Netlist nl;
  std::vector<Fault> faults;
  AtpgResult atpg;
};

const E7Core& core() {
  static const E7Core c = [] {
    aichip::SystolicConfig cfg;
    cfg.rows = cfg.cols = 2;
    cfg.width = 4;
    E7Core e{aichip::make_systolic_array(cfg), {}, {}};
    e.faults = collapse_equivalent(e.nl, generate_stuck_at_faults(e.nl));
    e.atpg = generate_tests(e.nl, e.faults);
    return e;
  }();
  return c;
}

void e7_test_time(benchmark::State& state, std::size_t num_cores) {
  const E7Core& c = core();
  aichip::CoreTestSpec spec;
  spec.scan_cells = c.nl.dffs().size();
  spec.patterns = c.atpg.patterns.size();
  aichip::TesterConfig tester;
  tester.channels = 8;
  std::size_t flat = 0, seq = 0, bc = 0;
  for (auto _ : state) {
    flat = aichip::flat_test_cycles(spec, num_cores, tester);
    seq = aichip::sequential_test_cycles(spec, num_cores, tester);
    bc = aichip::broadcast_test_cycles(spec, num_cores, tester);
    benchmark::DoNotOptimize(flat + seq + bc);
  }
  state.counters["cores"] = static_cast<double>(num_cores);
  state.counters["flat_cycles"] = static_cast<double>(flat);
  state.counters["sequential_cycles"] = static_cast<double>(seq);
  state.counters["broadcast_cycles"] = static_cast<double>(bc);
  state.counters["speedup_vs_flat"] =
      bc == 0 ? 0.0 : static_cast<double>(flat) / static_cast<double>(bc);
}

void e7_measured_coverage(benchmark::State& state, std::size_t num_cores) {
  const E7Core& c = core();
  double soc_cov = 0, core_cov = 0;
  std::size_t soc_gates = 0;
  for (auto _ : state) {
    const auto soc = aichip::make_replicated_soc(c.nl, num_cores);
    soc_gates = soc.netlist.logic_gate_count();
    auto soc_faults = collapse_equivalent(
        soc.netlist, generate_stuck_at_faults(soc.netlist));
    std::vector<TestCube> broadcast;
    for (const auto& p : c.atpg.patterns) {
      broadcast.push_back(aichip::broadcast_cube(soc, p));
    }
    const CampaignResult r =
        run_campaign(soc.netlist, soc_faults, broadcast);
    soc_cov = r.coverage();
    core_cov = c.atpg.fault_coverage();
    benchmark::DoNotOptimize(r.detected);
  }
  state.counters["cores"] = static_cast<double>(num_cores);
  state.counters["soc_gates"] = static_cast<double>(soc_gates);
  state.counters["soc_cov_pct"] = 100.0 * soc_cov;
  state.counters["core_cov_pct"] = 100.0 * core_cov;
}

double current_rss_bytes() {
  std::ifstream statm("/proc/self/statm");
  double pages_total = 0, pages_resident = 0;
  statm >> pages_total >> pages_resident;
  return pages_resident * static_cast<double>(sysconf(_SC_PAGESIZE));
}

// Build and release of the N-core SoC netlist. RSS growth counts pages the
// build first touches, so it is meaningful only for the first rung a
// process runs (run one rung per process: --benchmark_filter).
void e7_soc_build(benchmark::State& state, std::size_t num_cores) {
  using Clock = std::chrono::steady_clock;
  auto seconds_since = [](Clock::time_point t0) {
    return std::chrono::duration<double>(Clock::now() - t0).count();
  };
  const E7Core& c = core();
  double build_s = 0, release_s = 0, topology_bytes = 0, rss_growth = 0,
         gates = 0;
  for (auto _ : state) {
    std::optional<aichip::SocNetlist> soc;
    const double rss_before = current_rss_bytes();
    auto t0 = Clock::now();
    soc.emplace(aichip::make_replicated_soc(c.nl, num_cores));
    build_s = seconds_since(t0);
    rss_growth = current_rss_bytes() - rss_before;
    gates = static_cast<double>(soc->netlist.num_gates());
    topology_bytes = static_cast<double>(soc->netlist.topology().bytes());
    t0 = Clock::now();
    soc.reset();
    release_s = seconds_since(t0);
  }
  state.counters["cores"] = static_cast<double>(num_cores);
  state.counters["gates"] = gates;
  state.counters["build_s"] = build_s;
  state.counters["release_s"] = release_s;
  state.counters["topology_bytes_per_gate"] = topology_bytes / gates;
  state.counters["rss_bytes_per_gate"] = rss_growth / gates;
}

// Peak RSS of this process so far (VmHWM), in MB.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB
    }
  }
  return 0.0;
}

// run_chip_flow's SoC stages after the core flow — build, broadcast, fault
// list, grade — at `workers` campaign workers, with the process's peak RSS
// read after each. VmHWM only grows, so each counter is the peak up to and
// including its stage, and only the first rung a process runs is clean
// (run one rung per process: --benchmark_filter).
void e7_signoff_rss(benchmark::State& state, std::size_t num_cores,
                    std::size_t workers) {
  const E7Core& c = core();
  double core_mb = 0, build_mb = 0, broadcast_mb = 0, faults_mb = 0,
         grade_mb = 0, detected = 0;
  for (auto _ : state) {
    core_mb = peak_rss_mb();
    const aichip::SocNetlist soc =
        aichip::make_replicated_soc(c.nl, num_cores);
    build_mb = peak_rss_mb();
    const PackedPatterns broadcast =
        aichip::broadcast_patterns(soc, c.atpg.patterns);
    broadcast_mb = peak_rss_mb();
    const LiftedFaults faults{c.faults, num_cores, c.nl.num_gates()};
    faults_mb = peak_rss_mb();
    const CampaignResult r = run_campaign(soc.netlist, faults, broadcast,
                                          {.num_threads = workers});
    grade_mb = peak_rss_mb();
    detected = static_cast<double>(r.detected);
  }
  state.counters["cores"] = static_cast<double>(num_cores);
  state.counters["workers"] = static_cast<double>(workers);
  state.counters["soc_detected"] = detected;
  state.counters["core_mb"] = core_mb;
  state.counters["build_mb"] = build_mb;
  state.counters["broadcast_mb"] = broadcast_mb;
  state.counters["faults_mb"] = faults_mb;
  state.counters["grade_mb"] = grade_mb;
}

void register_all() {
  for (std::size_t n : {1, 2, 4, 8, 16, 32, 64}) {
    aidft::bench::reg(
        "E7/test_time/cores" + std::to_string(n),
        [n](benchmark::State& s) { e7_test_time(s, n); });
  }
  for (std::size_t n : {1, 2, 4, 8}) {
    aidft::bench::reg(
        "E7/measured_broadcast_coverage/cores" + std::to_string(n),
        [n](benchmark::State& s) { e7_measured_coverage(s, n); })
        ->Unit(benchmark::kMillisecond)
        ->Iterations(1);
  }
  for (std::size_t w : {1, 4}) {
    aidft::bench::reg("E7/signoff_rss/1024/w" + std::to_string(w),
                      [w](benchmark::State& s) { e7_signoff_rss(s, 1024, w); })
        ->Unit(benchmark::kMillisecond)
        ->Iterations(1);
  }
  for (std::size_t n : {256, 1024, 4096}) {
    aidft::bench::reg("E7/soc_build/" + std::to_string(n),
                      [n](benchmark::State& s) { e7_soc_build(s, n); })
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
