// E3 — Fault-simulation throughput ladder:
//   serial          — one pattern per full-circuit resimulation (textbook
//                     baseline);
//   parallel_ref    — 64-way bit-parallel patterns, still full resim per
//                     fault (the pattern-parallelism win, ~64x);
//   ppsfp           — event-driven single-fault propagation on top (wins
//                     when fault cones are local, e.g. adders; global-cone
//                     multipliers favour the branch-free full sweep);
//   ppsfp_dropping  — plus fault dropping: the production configuration,
//                     fastest everywhere;
//   campaign/tN     — the unified run_campaign() engine with N worker
//                     threads, sweeping N in {1,2,4,8}: reports patterns/sec
//                     and the wall-clock speedup vs its own serial (t1) run;
//   soc_campaign/N/tT — run_campaign() on N broadcast copies of a 2x2
//                     systolic core (the signoff SoC grade, out of cache) at
//                     T workers: seconds per campaign, gates evaluated
//                     (fsim.events) and early-exited faults;
//   regions/<circuit> — the fanout-free-region engine's work on a
//                     no-dropping campaign: gates evaluated (fsim.events),
//                     region roots propagated and local walks (one per
//                     graded fault), and the walks per root propagation.
// Throughput counter: fault-pattern grades per second.
#include <benchmark/benchmark.h>

#include <chrono>
#include <map>

#include "aichip/soc.hpp"
#include "aichip/systolic.hpp"
#include "atpg/atpg.hpp"
#include "bench_util.hpp"
#include "common/rng.hpp"
#include "fsim/campaign.hpp"
#include "fsim/fault_sim.hpp"

namespace aidft {
namespace {

constexpr std::size_t kPatterns = 256;

void e3_serial(benchmark::State& state, const std::string& name) {
  const Netlist nl = bench::circuit_by_name(name);
  const auto faults = collapse_equivalent(nl, generate_stuck_at_faults(nl));
  Rng rng(7);
  const auto patterns =
      random_patterns(nl.combinational_inputs().size(), kPatterns, rng);
  FaultSimulator fsim(nl);
  for (auto _ : state) {
    std::size_t detected = 0;
    for (std::size_t p = 0; p < patterns.size(); ++p) {
      const PatternBatch one = pack_patterns(patterns, p, 1);
      for (const Fault& f : faults) {
        detected += fsim.detect_mask_reference(one, f) != 0;
      }
    }
    benchmark::DoNotOptimize(detected);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(faults.size() * kPatterns));
  state.counters["faults"] = static_cast<double>(faults.size());
}

void e3_reference(benchmark::State& state, const std::string& name) {
  const Netlist nl = bench::circuit_by_name(name);
  const auto faults = collapse_equivalent(nl, generate_stuck_at_faults(nl));
  Rng rng(7);
  const auto patterns =
      random_patterns(nl.combinational_inputs().size(), kPatterns, rng);
  for (auto _ : state) {
    const CampaignResult r = run_campaign(nl, faults, patterns,
                                          {.engine = CampaignEngine::kReference});
    benchmark::DoNotOptimize(r.detected);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(faults.size() * kPatterns));
  state.counters["faults"] = static_cast<double>(faults.size());
}

void e3_ppsfp(benchmark::State& state, const std::string& name, bool dropping) {
  const Netlist nl = bench::circuit_by_name(name);
  const auto faults = collapse_equivalent(nl, generate_stuck_at_faults(nl));
  Rng rng(7);
  const auto patterns =
      random_patterns(nl.combinational_inputs().size(), kPatterns, rng);
  double coverage = 0;
  for (auto _ : state) {
    if (dropping) {
      const CampaignResult r = run_campaign(nl, faults, patterns);
      coverage = r.coverage();
      benchmark::DoNotOptimize(r.detected);
    } else {
      // No dropping: grade every fault against every batch.
      FaultSimulator fsim(nl);
      std::size_t detected = 0;
      for (std::size_t base = 0; base < patterns.size(); base += 64) {
        fsim.load_batch(pack_patterns(patterns, base, 64));
        for (const Fault& f : faults) detected += fsim.detect_mask(f) != 0;
      }
      benchmark::DoNotOptimize(detected);
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(faults.size() * kPatterns));
  state.counters["faults"] = static_cast<double>(faults.size());
  if (dropping) state.counters["coverage_pct"] = 100.0 * coverage;
}

// Serial (t=1) mean campaign seconds per circuit, recorded so the t>1 rows
// can report speedup. Benchmarks run sequentially on the main thread, and
// registration order guarantees t=1 runs first.
std::map<std::string, double>& serial_seconds() {
  static std::map<std::string, double> s;
  return s;
}

void e3_campaign_threads(benchmark::State& state, const std::string& name,
                         std::size_t threads) {
  const Netlist nl = bench::circuit_by_name(name);
  const auto faults = collapse_equivalent(nl, generate_stuck_at_faults(nl));
  Rng rng(7);
  const auto patterns =
      random_patterns(nl.combinational_inputs().size(), kPatterns, rng);
  const CampaignOptions opts{.num_threads = threads};
  double total_sec = 0.0;
  std::size_t iters = 0;
  double coverage = 0.0;
  for (auto _ : state) {
    const auto t0 = std::chrono::steady_clock::now();
    const CampaignResult r = run_campaign(nl, faults, patterns, opts);
    total_sec += std::chrono::duration<double>(
                     std::chrono::steady_clock::now() - t0)
                     .count();
    ++iters;
    coverage = r.coverage();
    benchmark::DoNotOptimize(r.detected);
  }
  const double mean_sec = total_sec / static_cast<double>(iters);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(faults.size() * kPatterns));
  state.counters["threads"] = static_cast<double>(threads);
  state.counters["faults"] = static_cast<double>(faults.size());
  state.counters["coverage_pct"] = 100.0 * coverage;
  state.counters["patterns_per_sec"] =
      static_cast<double>(kPatterns) / mean_sec;
  if (threads == 1) {
    serial_seconds()[name] = mean_sec;
    state.counters["speedup_vs_t1"] = 1.0;
  } else if (const auto it = serial_seconds().find(name);
             it != serial_seconds().end()) {
    state.counters["speedup_vs_t1"] = it->second / mean_sec;
  }
}

// Instrumented campaign rung: the same run with a telemetry sink attached,
// emitting the engine's own counters (fsim.events, campaign.batches, ...)
// as bench-row counters. Comparing its wall time against the t-matched
// plain campaign rung bounds the enabled-telemetry overhead.
void e3_campaign_instrumented(benchmark::State& state, const std::string& name) {
  const Netlist nl = bench::circuit_by_name(name);
  const auto faults = collapse_equivalent(nl, generate_stuck_at_faults(nl));
  Rng rng(7);
  const auto patterns =
      random_patterns(nl.combinational_inputs().size(), kPatterns, rng);
  obs::Telemetry telemetry;
  const CampaignOptions opts{.num_threads = 1, .telemetry = &telemetry};
  for (auto _ : state) {
    const CampaignResult r = run_campaign(nl, faults, patterns, opts);
    benchmark::DoNotOptimize(r.detected);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(faults.size() * kPatterns));
  bench::emit_metrics(state, telemetry.metrics.snapshot());
}

// Every fault against every batch (drop_limit 0), so the counters measure
// the grading engine rather than how soon faults drop.
void e3_regions(benchmark::State& state, const std::string& name) {
  const Netlist nl = bench::circuit_by_name(name);
  const auto faults = collapse_equivalent(nl, generate_stuck_at_faults(nl));
  Rng rng(7);
  const auto patterns =
      random_patterns(nl.combinational_inputs().size(), kPatterns, rng);
  obs::MetricsSnapshot last;
  for (auto _ : state) {
    obs::Telemetry telemetry;
    const CampaignResult r = run_campaign(
        nl, faults, patterns, {.drop_limit = 0, .telemetry = &telemetry});
    last = telemetry.metrics.snapshot();
    benchmark::DoNotOptimize(r.detected);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(faults.size() * kPatterns));
  const auto counter = [&](const char* c) {
    return static_cast<double>(last.counter_value(c));
  };
  state.counters["faults"] = static_cast<double>(faults.size());
  for (const char* c :
       {"fsim.events", "fsim.root_propagations", "fsim.local_walks"}) {
    state.counters[c] = counter(c);
  }
  state.counters["walks_per_root"] =
      counter("fsim.local_walks") / counter("fsim.root_propagations");
}

// ATPG patterns of the 2x2 systolic core (4-bit operands), built once.
struct SocCore {
  Netlist nl;
  std::vector<TestCube> patterns;
};

const SocCore& soc_core() {
  static const SocCore c = [] {
    aichip::SystolicConfig cfg;
    cfg.rows = cfg.cols = 2;
    cfg.width = 4;
    SocCore core{aichip::make_systolic_array(cfg), {}};
    core.patterns =
        generate_tests(core.nl,
                       collapse_equivalent(core.nl,
                                           generate_stuck_at_faults(core.nl)))
            .patterns;
    return core;
  }();
  return c;
}

void e3_soc_campaign(benchmark::State& state, std::size_t cores,
                     std::size_t threads) {
  const SocCore& core = soc_core();
  const aichip::SocNetlist soc = aichip::make_replicated_soc(core.nl, cores);
  const auto faults =
      collapse_equivalent(soc.netlist, generate_stuck_at_faults(soc.netlist));
  std::vector<TestCube> broadcast;
  for (const TestCube& p : core.patterns) {
    broadcast.push_back(aichip::broadcast_cube(soc, p));
  }
  double total_sec = 0.0;
  double coverage = 0.0;
  obs::MetricsSnapshot last;
  for (auto _ : state) {
    obs::Telemetry telemetry;
    const auto t0 = std::chrono::steady_clock::now();
    const CampaignResult r = run_campaign(
        soc.netlist, faults, broadcast,
        {.num_threads = threads, .telemetry = &telemetry});
    total_sec += std::chrono::duration<double>(
                     std::chrono::steady_clock::now() - t0)
                     .count();
    coverage = r.coverage();
    last = telemetry.metrics.snapshot();
    benchmark::DoNotOptimize(r.detected);
  }
  state.counters["cores"] = static_cast<double>(cores);
  state.counters["threads"] = static_cast<double>(threads);
  state.counters["faults"] = static_cast<double>(faults.size());
  state.counters["coverage_pct"] = 100.0 * coverage;
  state.counters["seconds"] =
      total_sec / static_cast<double>(state.iterations());
  state.counters["fsim.events"] =
      static_cast<double>(last.counter_value("fsim.events"));
  state.counters["fsim.early_exits"] =
      static_cast<double>(last.counter_value("fsim.early_exits"));
}

void register_all() {
  for (const char* name : {"mul8", "mul12", "alu8", "mac8reg", "cla16"}) {
    aidft::bench::reg(
        std::string("E3/serial/") + name,
        [name](benchmark::State& s) { e3_serial(s, name); })
        ->Unit(benchmark::kMillisecond)
        ->Iterations(1);
    aidft::bench::reg(
        std::string("E3/parallel_ref/") + name,
        [name](benchmark::State& s) { e3_reference(s, name); })
        ->Unit(benchmark::kMillisecond);
    aidft::bench::reg(
        std::string("E3/ppsfp/") + name,
        [name](benchmark::State& s) { e3_ppsfp(s, name, false); })
        ->Unit(benchmark::kMillisecond);
    aidft::bench::reg(
        std::string("E3/ppsfp_dropping/") + name,
        [name](benchmark::State& s) { e3_ppsfp(s, name, true); })
        ->Unit(benchmark::kMillisecond);
    for (std::size_t threads : {1, 2, 4, 8}) {
      aidft::bench::reg(
          std::string("E3/campaign/") + name + "/t" + std::to_string(threads),
          [name, threads](benchmark::State& s) {
            e3_campaign_threads(s, name, threads);
          })
          ->Unit(benchmark::kMillisecond);
    }
    aidft::bench::reg(
        std::string("E3/campaign_instrumented/") + name,
        [name](benchmark::State& s) { e3_campaign_instrumented(s, name); })
        ->Unit(benchmark::kMillisecond);
  }
  for (const char* name : {"mul8", "mac8reg"}) {
    aidft::bench::reg(
        std::string("E3/regions/") + name,
        [name](benchmark::State& s) { e3_regions(s, name); })
        ->Unit(benchmark::kMillisecond);
  }
  for (std::size_t cores : {256, 1024}) {
    for (std::size_t threads : {1, 4}) {
      aidft::bench::reg(
          "E3/soc_campaign/" + std::to_string(cores) + "/t" +
              std::to_string(threads),
          [cores, threads](benchmark::State& s) {
            e3_soc_campaign(s, cores, threads);
          })
          ->Unit(benchmark::kMillisecond)
          ->UseRealTime();
    }
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
