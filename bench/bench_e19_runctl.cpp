// E19 — run-control overhead: the cost of carrying a RunControl through the
// campaign hot loop. The probe sites are amortized (one poll per 64-pattern
// batch per shard, one check per round), so the target is < 1% wall-clock
// overhead vs the same campaign with run_control = nullptr — cheap enough to
// attach unconditionally, the way the signoff example does. A second rung
// prices the checkpoint save and load, the per-round cost of crash
// protection, up to the 1024-core SoC's 2,138,112 faults.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <filesystem>
#include <string>

#include "bench_util.hpp"
#include "common/rng.hpp"
#include "common/run_control.hpp"
#include "fault/fault.hpp"
#include "fsim/campaign.hpp"
#include "fsim/checkpoint.hpp"
#include "obs/telemetry.hpp"

namespace aidft {
namespace {

// Paired measurement in one rung: the same campaign with and without a
// RunControl attached, so the overhead percentage is a counter on the row
// rather than a cross-row diff.
void e19_overhead(benchmark::State& state, const std::string& name,
                  std::size_t npat, std::size_t threads) {
  const Netlist nl = bench::circuit_by_name(name);
  const auto faults = collapse_equivalent(nl, generate_stuck_at_faults(nl));
  Rng rng(7);
  const auto patterns =
      random_patterns(nl.combinational_inputs().size(), npat, rng);
  // No dropping: keeps every fault alive for the whole stream, so both
  // variants do identical work and the diff isolates the probe cost.
  CampaignOptions off;
  off.num_threads = threads;
  off.drop_limit = 0;

  double sec_off = 0.0, sec_on = 0.0;
  std::uint64_t checks = 0;
  for (auto _ : state) {
    obs::Stopwatch off_clock;
    const CampaignResult r_off = run_campaign(nl, faults, patterns, off);
    sec_off += off_clock.seconds();

    RunControl rc;  // armed with nothing: the always-attached configuration
    CampaignOptions on = off;
    on.run_control = &rc;
    obs::Stopwatch on_clock;
    const CampaignResult r_on = run_campaign(nl, faults, patterns, on);
    sec_on += on_clock.seconds();
    checks = rc.checks();
    benchmark::DoNotOptimize(r_off.detected + r_on.detected);
  }
  state.counters["faults"] = static_cast<double>(faults.size());
  state.counters["patterns"] = static_cast<double>(npat);
  state.counters["runctl_checks"] = static_cast<double>(checks);
  state.counters["sec_off"] = sec_off;
  state.counters["sec_on"] = sec_on;
  state.counters["overhead_pct"] =
      sec_off > 0.0 ? 100.0 * (sec_on - sec_off) / sec_off : 0.0;
}

// Checkpoint cost: what one round of crash protection adds, priced per
// save and per load of a first-detect (drop_limit 1) snapshot in which
// every third fault was detected, and so dropped.
void e19_checkpoint(benchmark::State& state, std::size_t nfaults) {
  CampaignCheckpoint ckpt;
  ckpt.drop_limit = 1;
  ckpt.total_faults = nfaults;
  ckpt.total_patterns = 1024;
  ckpt.batches_done = 8;
  ckpt.detected.assign((nfaults + 63) / 64, 0);
  ckpt.first_detections.assign(ckpt.total_patterns, 0);
  for (std::size_t i = 0; i < nfaults; i += 3) {
    ckpt.detected[i >> 6] |= 1ull << (i & 63);
    ++ckpt.first_detections[i % 512];
  }
  ckpt.dropped = ckpt.detected;
  const std::string path = "e19.ckpt";
  std::size_t payload = 0;
  double save_s = 0.0, load_s = 0.0;
  for (auto _ : state) {
    obs::Stopwatch save_clock;
    save_campaign_checkpoint(ckpt, path);
    save_s += save_clock.seconds();
    obs::Stopwatch load_clock;
    const CampaignCheckpoint back = load_campaign_checkpoint(path);
    load_s += load_clock.seconds();
    payload = (back.detected.size() + back.first_detections.size() +
               back.hits.size() + back.dropped.size()) *
              sizeof(std::uint64_t);
    benchmark::DoNotOptimize(back.batches_done);
  }
  const std::uintmax_t file = std::filesystem::file_size(path);
  std::remove(path.c_str());
  const double iters = static_cast<double>(state.iterations());
  state.counters["faults"] = static_cast<double>(nfaults);
  state.counters["payload_bytes"] = static_cast<double>(payload);
  state.counters["file_bytes"] = static_cast<double>(file);
  state.counters["save_s"] = save_s / iters;
  state.counters["load_s"] = load_s / iters;
}

void register_all() {
  for (const char* name : {"mul8", "mac8reg"}) {
    for (std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
      bench::reg(std::string("E19/overhead/") + name + "/t" +
                     std::to_string(threads),
                 [name, threads](benchmark::State& s) {
                   e19_overhead(s, name, 512, threads);
                 })
          ->Unit(benchmark::kMillisecond);
    }
  }
  for (std::size_t nfaults :
       {std::size_t{10000}, std::size_t{100000}, std::size_t{2138112}}) {
    bench::reg("E19/checkpoint/f" + std::to_string(nfaults),
               [nfaults](benchmark::State& s) { e19_checkpoint(s, nfaults); })
        ->Unit(benchmark::kMillisecond);
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
