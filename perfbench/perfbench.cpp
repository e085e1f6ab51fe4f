// Signoff benchmark: times four AI-chip DFT jobs end to end through
// the public API and checks their outputs.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                    [--trace-out <file>] [--source-id <id>]
//
// --trace 0 prints the end-to-end metrics, measured with telemetry off.
// --trace 1 replaces each facade call with its sequence of public stage
// calls, wraps every call in a span recorded here (not in the library),
// attaches an obs::Telemetry for the counters, and prints per-layer metrics.
// The last line of stdout is one JSON object:
//   {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}
// See README.md next to this file for the workloads and metric definitions.
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <memory>
#include <map>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "aichip/soc.hpp"
#include "aichip/systolic.hpp"
#include "bench_circuits/generators.hpp"
#include "common/rng.hpp"
#include "compress/edt.hpp"
#include "core/chip_flow.hpp"
#include "diag/diagnosis.hpp"
#include "fault/fault.hpp"
#include "obs/json.hpp"
#include "sim/parallel_sim.hpp"

using namespace aidft;

namespace {

// ---------------------------------------------------------------- utilities

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// Linear-interpolated percentile (q in [0,1]) of an unsorted sample.
double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double median(const std::vector<double>& v) { return percentile(v, 0.5); }

double ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

// Peak RSS of this process image. VmHWM, not getrusage(): ru_maxrss
// carries the parent's peak across fork and exec.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    }
  }
  return 0.0;
}

double current_rss_bytes() {
  std::ifstream statm("/proc/self/statm");
  double pages_total = 0, pages_resident = 0;
  statm >> pages_total >> pages_resident;
  return pages_resident * static_cast<double>(sysconf(_SC_PAGESIZE));
}

// SplitMix64 finaliser: derives the per-engine seeds from the one
// benchmark seed, so every random choice follows --seed.
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t z = seed + 0x9E3779B97F4A7C15ull * (stream + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

std::vector<Fault> collapsed_faults(const Netlist& nl) {
  return collapse_equivalent(nl, generate_stuck_at_faults(nl));
}

CampaignOptions campaign_options(CampaignEngine engine, std::size_t threads) {
  CampaignOptions o;
  o.engine = engine;
  o.num_threads = threads;
  return o;
}

bool same_patterns(const std::vector<TestCube>& a,
                   const std::vector<TestCube>& b) {
  return std::equal(a.begin(), a.end(), b.begin(), b.end(),
                    [](const TestCube& x, const TestCube& y) {
                      return x.bits == y.bits;
                    });
}

bool flow_completed(const DftFlowReport& r) {
  return !r.drc_aborted && !r.degraded();
}

// ------------------------------------------------------------------- tracer

// In-memory span recorder for the traced run. Spans nest by call order on
// the one orchestrating thread; a span's self time is its duration minus
// the durations of its direct children.
class Tracer {
 public:
  class Scope {
   public:
    Scope(Tracer& t, std::string name) : tracer_(t) {
      index_ = tracer_.open(std::move(name));
    }
    ~Scope() { tracer_.close(index_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer& tracer_;
    std::size_t index_;
  };

  struct Event {
    std::string name;
    double start_s = 0.0;
    double end_s = 0.0;
    double child_s = 0.0;
    std::size_t parent = SIZE_MAX;
  };

  // Span-name -> summed self time of every span opened since `first`.
  std::map<std::string, double> self_times(std::size_t first) const {
    std::map<std::string, double> out;
    for (std::size_t i = first; i < events_.size(); ++i) {
      const Event& e = events_[i];
      out[e.name] += (e.end_s - e.start_s) - e.child_s;
    }
    return out;
  }

  double duration(std::size_t index) const {
    return events_[index].end_s - events_[index].start_s;
  }

  std::size_t size() const { return events_.size(); }

  std::string to_chrome_json() const {
    obs::JsonWriter w;
    w.begin_object();
    w.key("traceEvents").begin_array();
    for (const Event& e : events_) {
      w.begin_object();
      w.field("name", e.name);
      w.field("cat", "perfbench");
      w.field("ph", "X");
      w.field("ts", e.start_s * 1e6);
      w.field("dur", (e.end_s - e.start_s) * 1e6);
      w.field("pid", std::uint64_t{1});
      w.field("tid", std::uint64_t{1});
      w.end_object();
    }
    w.end_array();
    w.end_object();
    return w.str();
  }

 private:
  std::size_t open(std::string name) {
    Event e;
    e.name = std::move(name);
    e.parent = stack_.empty() ? SIZE_MAX : stack_.back();
    e.start_s = seconds_since(epoch_);
    events_.push_back(std::move(e));
    stack_.push_back(events_.size() - 1);
    return events_.size() - 1;
  }

  void close(std::size_t index) {
    Event& e = events_[index];
    e.end_s = seconds_since(epoch_);
    stack_.pop_back();
    if (e.parent != SIZE_MAX) events_[e.parent].child_s += e.end_s - e.start_s;
  }

  Clock::time_point epoch_ = Clock::now();
  std::vector<Event> events_;
  std::vector<std::size_t> stack_;
};

// Runs `body` under a span when a tracer is attached, bare otherwise.
template <typename Body>
void traced(Tracer* tracer, const char* name, Body&& body) {
  if (tracer == nullptr) {
    body();
    return;
  }
  Tracer::Scope scope(*tracer, name);
  body();
}

// ---------------------------------------------------------- quality record

// Deterministic outputs of one job; two runs with one seed must agree.
struct Quality {
  double test_coverage = 0.0;
  std::size_t patterns = 0;
  double compacted_coverage = 0.0;
  double soc_coverage = 0.0;
  bool operator==(const Quality&) const = default;
};

// ------------------------------------------------------------ core flow

// The stage sequence of run_dft_flow, one public call per span: the traced
// run's stand-in for the facade. Its outputs are checked against the
// facade's (fidelity), so the attribution measures the same program.
DftFlowReport staged_core_flow(const Netlist& nl, const DftFlowOptions& options,
                               Tracer* tracer, obs::Telemetry* telemetry) {
  DftFlowReport report;
  const std::size_t threads = options.campaign.num_threads;
  traced(tracer, "drc.run", [&] {
    DrcOptions drc_opts = options.drc;
    drc_opts.telemetry = telemetry;
    report.drc_ran = true;
    report.drc = run_drc(nl, drc_opts);
    if (!nl.dffs().empty()) {
      const ScanPlan audit_plan = plan_scan_chains(nl, options.scan_chains);
      const ScanNetlist audit = insert_scan(nl, audit_plan);
      check_scan_chains(audit, audit_plan, report.drc, drc_opts);
    }
  });
  report.drc_aborted = !report.drc.clean();
  traced(tracer, "netlist.stats", [&] { report.stats = compute_stats(nl); });
  std::vector<Fault> universe;
  std::vector<Fault> faults;
  traced(tracer, "fault.universe",
         [&] { universe = generate_stuck_at_faults(nl); });
  traced(tracer, "fault.collapse",
         [&] { faults = collapse_equivalent(nl, universe); });
  report.faults_total = universe.size();
  report.faults_collapsed = faults.size();
  traced(tracer, "scan.plan", [&] {
    report.scan_plan = plan_scan_chains(nl, options.scan_chains);
  });
  traced(tracer, "atpg.generate", [&] {
    AtpgOptions o = options.atpg;
    o.num_threads = threads;
    o.telemetry = telemetry;
    report.atpg = generate_tests(nl, faults, o);
  });
  // Disabled stages keep their span: it covers the check that skips them,
  // which is all the facade spends on them.
  traced(tracer, "compress.session", [&] {
    if (!options.run_compression || nl.dffs().empty() ||
        report.atpg.cubes.empty()) {
      return;
    }
    CompressedSessionConfig c = options.compression;
    c.num_threads = threads;
    c.telemetry = telemetry;
    report.compression_ran = true;
    report.compression = run_compressed_session(nl, report.scan_plan, faults,
                                                report.atpg.cubes, c);
  });
  traced(tracer, "bist.lbist", [&] {
    if (!options.run_lbist) return;
    LbistConfig c = options.lbist;
    c.num_threads = threads;
    c.telemetry = telemetry;
    report.lbist_ran = true;
    report.lbist = run_lbist(nl, faults, c);
  });
  traced(tracer, "scan.shift_power", [&] {
    if (!options.run_power || nl.dffs().empty() ||
        report.atpg.patterns.empty()) {
      return;
    }
    report.power_ran = true;
    report.power = shift_power(nl, report.scan_plan, report.atpg.patterns);
  });
  const auto completed = [](StageOutcome o) {
    return o == StageOutcome::kCompleted;
  };
  const bool ok = !report.drc_aborted && completed(report.atpg.outcome) &&
                  (!report.compression_ran ||
                   completed(report.compression.outcome)) &&
                  (!report.lbist_ran || completed(report.lbist.outcome));
  report.stage_outcomes.emplace_back(
      "staged", ok ? StageOutcome::kCompleted : StageOutcome::kFailed);
  return report;
}

// ---------------------------------------------------- workload settings

constexpr std::size_t kSocCores = 1024;
constexpr std::size_t kSocWorkers = 4;
constexpr std::size_t kVolumeDefects = 128;
// Defects diagnosed on the shipped patterns of the other workloads; edt_core
// takes fewer, as each of its diagnoses costs ~100 ms.
constexpr std::size_t kTailDefects = 128;
constexpr std::size_t kEdtTailDefects = 32;
// Netlist seeds of the four atpg_redundant blocks. They are fixed, not
// drawn from --seed: one 500-gate block's ATPG cost spans 10x across
// netlist seeds, which would swamp every timing across benchmark seeds.
constexpr std::uint64_t kBlockSeeds[] = {1, 2, 3, 4};

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;
  std::string source_id = "unknown";
};

// Per-engine seeds, all derived from --seed.
struct Seeds {
  std::uint64_t atpg, pi_fill, lbist, defects;
  explicit Seeds(std::uint64_t s)
      : atpg(derive_seed(s, 0)),
        pi_fill(derive_seed(s, 1)),
        // Nonzero within the 32-bit PRPG.
        lbist((derive_seed(s, 2) & 0xFFFFFFFFull) | 1),
        defects(derive_seed(s, 3)) {}
};

DftFlowOptions base_flow_options(const Seeds& seeds) {
  DftFlowOptions o;
  o.atpg.seed = seeds.atpg;
  o.compression.pi_fill_seed = seeds.pi_fill;
  o.lbist.seed = seeds.lbist;
  return o;
}

Netlist systolic(std::size_t rows, std::size_t cols) {
  aichip::SystolicConfig c;
  c.rows = rows;
  c.cols = cols;
  c.width = 4;
  return aichip::make_systolic_array(c);
}

// One diagnosis target: a circuit, its shipped patterns, the candidate
// list, and a defect with its tester fail log.
struct DiagCase {
  std::size_t circuit = 0;
  Fault defect;
  FailLog log;
};

struct DiagCircuit {
  const Netlist* netlist = nullptr;
  std::vector<TestCube> patterns;
  std::vector<Fault> candidates;
  std::vector<FaultStatus> status;
};

// Draws `count` distinct detected faults (over all circuits) by `seed` and
// simulates each defective chip to get its fail log.
std::vector<DiagCase> draw_defects(const std::vector<DiagCircuit>& circuits,
                                   std::size_t count, std::uint64_t seed) {
  std::vector<std::pair<std::size_t, std::size_t>> pool;
  for (std::size_t c = 0; c < circuits.size(); ++c) {
    for (std::size_t i = 0; i < circuits[c].status.size(); ++i) {
      if (circuits[c].status[i] == FaultStatus::kDetected) pool.emplace_back(c, i);
    }
  }
  Rng rng(seed);
  count = std::min(count, pool.size());
  std::vector<DiagCase> cases;
  for (std::size_t k = 0; k < count; ++k) {
    const std::size_t j = k + rng.next_below(pool.size() - k);
    std::swap(pool[k], pool[j]);
    const auto [c, i] = pool[k];
    DiagCase d;
    d.circuit = c;
    d.defect = circuits[c].candidates[i];
    d.log = simulate_defect(*circuits[c].netlist, circuits[c].patterns, d.defect);
    cases.push_back(std::move(d));
  }
  return cases;
}

struct DiagOutcome {
  std::vector<double> ms;  // per defect
  std::size_t top1 = 0;
  std::size_t attempted = 0;
  bool outputs_ok = true;  // every fail log and ranking non-empty
};

void diagnose_cases(const std::vector<DiagCircuit>& circuits,
                    const std::vector<DiagCase>& cases, Tracer* tracer,
                    obs::Telemetry* telemetry, DiagOutcome& out) {
  for (const DiagCase& d : cases) {
    const DiagCircuit& c = circuits[d.circuit];
    DiagnosisResult r;
    const auto t0 = Clock::now();
    traced(tracer, "diag.diagnose", [&] {
      r = diagnose(*c.netlist, c.patterns, d.log, c.candidates, telemetry);
    });
    out.ms.push_back(1e3 * seconds_since(t0));
    ++out.attempted;
    if (!d.log.any_failure() || r.ranked.empty()) out.outputs_ok = false;
    if (r.rank_of(d.defect) == 1) ++out.top1;
  }
}

// ------------------------------------------------------- staged signoff

// Outcome counts the traced run reports per layer, summed over every flow
// and fault list of one job.
struct LayerStats {
  double atpg_detected = 0, atpg_aborted = 0;
  double lbist_detected = 0, lbist_faults = 0;
  double faults_total = 0, faults_collapsed = 0;

  void add(const DftFlowReport& r) {
    atpg_detected += static_cast<double>(r.atpg.detected);
    atpg_aborted += static_cast<double>(r.atpg.aborted);
    if (r.lbist_ran) {
      lbist_detected += static_cast<double>(r.lbist.detected);
      lbist_faults += static_cast<double>(r.lbist.faults_total);
    }
    faults_total += static_cast<double>(r.faults_total);
    faults_collapsed += static_cast<double>(r.faults_collapsed);
  }
};

struct StagedChip {
  ChipFlowReport report;
  LayerStats stats;
  double soc_bytes_per_gate = 0.0;  // RSS growth across make_replicated_soc
};

// The stage sequence of run_chip_flow: the core flow, then the SoC lift and
// grade.
StagedChip staged_chip_flow(const Netlist& core, const ChipFlowOptions& o,
                            Tracer* tracer, obs::Telemetry* telemetry) {
  StagedChip out;
  ChipFlowReport& r = out.report;
  r.core = staged_core_flow(core, o.core_flow, tracer, telemetry);
  out.stats.add(r.core);
  std::optional<aichip::SocNetlist> soc;
  traced(tracer, "aichip.soc_build", [&] {
    const double rss_before = current_rss_bytes();
    soc.emplace(aichip::make_replicated_soc(core, o.num_cores));
    out.soc_bytes_per_gate = (current_rss_bytes() - rss_before) /
                             static_cast<double>(soc->netlist.num_gates());
    r.soc_gates = soc->netlist.logic_gate_count();
  });
  std::vector<TestCube> broadcast;
  traced(tracer, "aichip.broadcast", [&] {
    broadcast.reserve(r.core.atpg.patterns.size());
    for (const TestCube& p : r.core.atpg.patterns) {
      broadcast.push_back(aichip::broadcast_cube(*soc, p));
    }
  });
  std::vector<Fault> universe, soc_faults;
  traced(tracer, "fault.universe",
         [&] { universe = generate_stuck_at_faults(soc->netlist); });
  traced(tracer, "fault.collapse",
         [&] { soc_faults = collapse_equivalent(soc->netlist, universe); });
  r.soc_faults = soc_faults.size();
  out.stats.faults_total += static_cast<double>(universe.size());
  out.stats.faults_collapsed += static_cast<double>(soc_faults.size());
  traced(tracer, "fsim.campaign", [&] {
    CampaignOptions c = o.core_flow.campaign;
    c.telemetry = telemetry;
    const CampaignResult graded =
        run_campaign(soc->netlist, soc_faults, broadcast, c);
    r.soc_detected = graded.detected;
    r.soc_grade_outcome = graded.outcome;
  });
  traced(tracer, "aichip.test_time", [&] {
    aichip::CoreTestSpec spec;
    spec.scan_cells = core.dffs().size();
    spec.patterns = r.core.atpg.patterns.size();
    r.flat_cycles = aichip::flat_test_cycles(spec, o.num_cores, o.tester);
    r.sequential_cycles =
        aichip::sequential_test_cycles(spec, o.num_cores, o.tester);
    r.broadcast_cycles =
        aichip::broadcast_test_cycles(spec, o.num_cores, o.tester);
  });
  // The facade frees the SoC on return too; give that its own span.
  traced(tracer, "aichip.soc_release", [&] {
    soc.reset();
    universe = {};
    soc_faults = {};
    broadcast = {};
  });
  return out;
}

// ------------------------------------------------------------- replays

// Layer replays, measured once in the traced run outside the jobs: the
// same inputs through one public call, timed alone.
struct Replays {
  double finalize_s = 0.0;
  double topology_bytes = 0.0;
  double topology_gates = 0.0;
  double encode_s = 0.0;
  double good_machine_s = 0.0;
  double campaign_t1_s = 0.0;
  double campaign_t4_s = 0.0;
  double campaign_faults = 0.0;

  // finalize() of a rebuilt copy of `nl`: the compile its generator ran.
  void finalize(const Netlist& nl) {
    Netlist copy(nl.name());
    copy.reserve(nl.num_gates());
    for (GateId g = 0; g < nl.num_gates(); ++g) {
      copy.add_gate(nl.type(g), nl.name_of(g));
    }
    for (GateId g = 0; g < nl.num_gates(); ++g) {
      for (GateId f : nl.gate(g).fanin) copy.connect(f, g);
    }
    const auto t0 = Clock::now();
    copy.finalize();
    finalize_s += seconds_since(t0);
    topology_bytes += static_cast<double>(copy.topology().bytes());
    topology_gates += static_cast<double>(copy.num_gates());
  }

  // EdtCodec::encode alone on the cubes the flow hands to compression
  // (a design without scan returns at the check).
  void encode(const Netlist& nl, const DftFlowReport& r,
              const DftFlowOptions& options) {
    auto t0 = Clock::now();
    if (nl.dffs().empty() || r.atpg.cubes.empty()) {
      encode_s += seconds_since(t0);
      return;
    }
    const EdtCodec codec(
        options.compression.edt,
        std::max<std::size_t>(1, r.scan_plan.num_chains()),
        std::max<std::size_t>(1, r.scan_plan.max_chain_length()));
    const auto scan_patterns = to_scan_patterns(nl, r.scan_plan, r.atpg.cubes);
    t0 = Clock::now();
    for (const auto& p : scan_patterns) (void)codec.encode(p.chain_load);
    encode_s += seconds_since(t0);
  }

  void good_machine(const Netlist& nl, const std::vector<TestCube>& patterns) {
    ParallelSimulator sim(nl);
    const auto t0 = Clock::now();
    for (std::size_t base = 0; base < patterns.size(); base += 64) {
      const std::size_t n = std::min<std::size_t>(64, patterns.size() - base);
      sim.simulate(pack_patterns(patterns, base, n));
    }
    good_machine_s += seconds_since(t0);
  }

  // One dropping campaign at 1 and at 4 workers.
  void campaigns(const Netlist& nl, const std::vector<Fault>& faults,
                 const std::vector<TestCube>& patterns) {
    const auto time_at = [&](std::size_t threads) {
      const auto t0 = Clock::now();
      (void)run_campaign(nl, faults, patterns,
                         campaign_options(CampaignEngine::kPpsfp, threads));
      return seconds_since(t0);
    };
    campaign_t1_s += time_at(1);
    campaign_t4_s += time_at(4);
    campaign_faults += static_cast<double>(faults.size());
  }

  // The replays every core flow gets.
  void core_flow(const Netlist& nl, const DftFlowReport& r,
                 const DftFlowOptions& options) {
    encode(nl, r, options);
    good_machine(nl, r.atpg.patterns);
    campaigns(nl, collapsed_faults(nl), r.atpg.patterns);
  }
};

// ------------------------------------------------------------ workloads

// Everything a job returns to the harness.
struct JobRun {
  Quality quality;
  LayerStats stats;
  bool completed = true;     // every stage kCompleted
  bool outputs_ok = true;    // workload output checks
  std::string check_detail;  // the failed check, for the log
  DiagOutcome diag;          // volume_diag's job
  double soc_bytes_per_gate = 0.0;
};

class Workload {
 public:
  virtual ~Workload() = default;
  virtual const char* name() const = 0;
  // Campaign workers of the job's grading stages.
  virtual std::size_t workers() const { return 1; }
  // Builds the inputs; the tracer and telemetry are null when untraced.
  virtual void setup(std::uint64_t seed, Tracer* tracer,
                     obs::Telemetry* telemetry) = 0;
  // Netlists the set-up built, for the finalize replay.
  virtual std::vector<const Netlist*> netlists() const = 0;
  // One job: the facade with a null tracer, else the staged sequence.
  virtual JobRun job(Tracer* tracer, obs::Telemetry* telemetry) = 0;
  // Output checks on the last untraced job, outside the timed region.
  virtual void check(JobRun& run) = 0;
  // Layer replays on the last untraced job's inputs and outputs.
  virtual void replay(Replays& out) = 0;
  // Diagnoses defects on the last untraced job's shipped patterns.
  // volume_diag has no tail: diagnosis is its job.
  virtual bool has_diag_tail() const { return true; }
  void diag_tail(Tracer* tracer, obs::Telemetry* telemetry, DiagOutcome& out) {
    if (circuits_.empty()) {
      circuits_ = diag_circuits();
      cases_ = draw_defects(circuits_, tail_defects(), seeds_.defects);
    }
    diagnose_cases(circuits_, cases_, tracer, telemetry, out);
  }

 protected:
  virtual std::vector<DiagCircuit> diag_circuits() const { return {}; }
  virtual std::size_t tail_defects() const { return kTailDefects; }

  Seeds seeds_{1};
  std::vector<DiagCircuit> circuits_;
  std::vector<DiagCase> cases_;
};

DiagCircuit diag_circuit(const Netlist& nl, const AtpgResult& atpg) {
  DiagCircuit c;
  c.netlist = &nl;
  c.patterns = atpg.patterns;
  c.candidates = collapsed_faults(nl);
  c.status = atpg.status;
  return c;
}

// Runs one core flow: the facade when untraced, else the staged sequence.
DftFlowReport core_flow(const Netlist& nl, const DftFlowOptions& options,
                        Tracer* tracer, obs::Telemetry* telemetry) {
  if (tracer == nullptr) return run_dft_flow(nl, options);
  return staged_core_flow(nl, options, tracer, telemetry);
}

// ---- edt_core ---------------------------------------------------------

class EdtCore : public Workload {
 public:
  const char* name() const override { return "edt_core"; }

  void setup(std::uint64_t seed, Tracer*, obs::Telemetry*) override {
    seeds_ = Seeds(seed);
    core_ = systolic(4, 4);
  }

  std::vector<const Netlist*> netlists() const override { return {&core_}; }

  JobRun job(Tracer* tracer, obs::Telemetry* telemetry) override {
    JobRun run;
    DftFlowReport r = core_flow(core_, options(), tracer, telemetry);
    run.stats.add(r);
    run.completed = flow_completed(r);
    run.quality = {r.atpg.test_coverage(), r.atpg.patterns.size(),
                   r.compression.coverage_compacted(), r.atpg.fault_coverage()};
    if (tracer == nullptr) last_ = std::move(r);
    return run;
  }

  void check(JobRun& run) override {
    const auto faults = collapsed_faults(core_);
    const CampaignResult ideal =
        run_campaign(core_, faults, last_.compression.delivered);
    if (ideal.detected != last_.compression.detected_ideal) {
      run.outputs_ok = false;
      run.check_detail = "delivered patterns do not reproduce detected_ideal";
    }
    const CampaignResult ref =
        run_campaign(core_, faults, last_.atpg.patterns,
                     campaign_options(CampaignEngine::kReference, 1));
    if (ref.detected != last_.atpg.detected || last_.atpg.aborted != 0) {
      run.outputs_ok = false;
      run.check_detail = "reference re-grade disagrees with atpg.detected";
    }
  }

  void replay(Replays& out) override { out.core_flow(core_, last_, options()); }

 protected:
  std::vector<DiagCircuit> diag_circuits() const override {
    return {diag_circuit(core_, last_.atpg)};
  }
  std::size_t tail_defects() const override { return kEdtTailDefects; }

 private:
  DftFlowOptions options() const {
    DftFlowOptions o = base_flow_options(seeds_);
    o.scan_chains = 8;
    o.atpg.random_patterns = 0;
    o.campaign.num_threads = 1;
    return o;
  }

  Netlist core_;
  DftFlowReport last_;
};

// ---- soc_broadcast ----------------------------------------------------

class SocBroadcast : public Workload {
 public:
  const char* name() const override { return "soc_broadcast"; }
  std::size_t workers() const override { return kSocWorkers; }

  void setup(std::uint64_t seed, Tracer*, obs::Telemetry*) override {
    seeds_ = Seeds(seed);
    core_ = systolic(2, 2);
  }

  std::vector<const Netlist*> netlists() const override { return {&core_}; }

  JobRun job(Tracer* tracer, obs::Telemetry* telemetry) override {
    JobRun run;
    ChipFlowReport r;
    if (tracer == nullptr) {
      r = run_chip_flow(core_, options());
      run.stats.add(r.core);
    } else {
      StagedChip staged = staged_chip_flow(core_, options(), tracer, telemetry);
      r = std::move(staged.report);
      run.stats = staged.stats;
      run.soc_bytes_per_gate = staged.soc_bytes_per_gate;
    }
    run.completed = flow_completed(r.core) &&
                    r.soc_grade_outcome == StageOutcome::kCompleted;
    // The broadcast patterns ship uncompressed, observed directly.
    run.quality = {r.core.atpg.test_coverage(), r.core.atpg.patterns.size(),
                   r.core.atpg.fault_coverage(), r.broadcast_coverage()};
    if (tracer == nullptr) last_ = std::move(r);
    return run;
  }

  void check(JobRun& run) override {
    const CampaignResult core_graded =
        run_campaign(core_, collapsed_faults(core_), last_.core.atpg.patterns);
    if (last_.soc_detected != kSocCores * core_graded.detected) {
      run.outputs_ok = false;
      run.check_detail = "soc_detected != cores x core detected";
    }
  }

  void replay(Replays& out) override {
    const ChipFlowOptions o = options();
    out.encode(core_, last_.core, o.core_flow);
    const aichip::SocNetlist soc = aichip::make_replicated_soc(core_, kSocCores);
    std::vector<TestCube> broadcast;
    for (const TestCube& p : last_.core.atpg.patterns) {
      broadcast.push_back(aichip::broadcast_cube(soc, p));
    }
    out.finalize(soc.netlist);
    out.good_machine(soc.netlist, broadcast);
    out.campaigns(soc.netlist, collapsed_faults(soc.netlist), broadcast);
  }

 protected:
  std::vector<DiagCircuit> diag_circuits() const override {
    return {diag_circuit(core_, last_.core.atpg)};
  }

 private:
  ChipFlowOptions options() const {
    ChipFlowOptions o;
    o.num_cores = kSocCores;
    o.core_flow = base_flow_options(seeds_);
    o.core_flow.scan_chains = 8;
    o.core_flow.atpg.random_patterns = 64;
    o.core_flow.lbist.patterns = 256;
    o.core_flow.campaign.num_threads = kSocWorkers;
    o.tester.channels = 8;
    return o;
  }

  Netlist core_;
  ChipFlowReport last_;
};

// ---- atpg_redundant ---------------------------------------------------

class AtpgRedundant : public Workload {
 public:
  const char* name() const override { return "atpg_redundant"; }

  void setup(std::uint64_t seed, Tracer*, obs::Telemetry*) override {
    seeds_ = Seeds(seed);
    blocks_.clear();
    for (std::uint64_t s : kBlockSeeds) {
      blocks_.push_back(circuits::make_random_logic(32, 500, s));
    }
  }

  std::vector<const Netlist*> netlists() const override {
    std::vector<const Netlist*> out;
    for (const Netlist& b : blocks_) out.push_back(&b);
    return out;
  }

  JobRun job(Tracer* tracer, obs::Telemetry* telemetry) override {
    JobRun run;
    std::vector<DftFlowReport> reports;
    double detected = 0, untestable = 0, total = 0;
    for (const Netlist& block : blocks_) {
      reports.push_back(core_flow(block, options(), tracer, telemetry));
      const DftFlowReport& r = reports.back();
      run.completed = run.completed && flow_completed(r);
      run.stats.add(r);
      detected += static_cast<double>(r.atpg.detected);
      untestable += static_cast<double>(r.atpg.untestable);
      total += static_cast<double>(r.atpg.total_faults());
      run.quality.patterns += r.atpg.patterns.size();
    }
    run.quality.test_coverage = ratio(detected, total - untestable);
    // No scan, so no compactor: the tester observes every output directly.
    run.quality.compacted_coverage = ratio(detected, total);
    run.quality.soc_coverage = ratio(detected, total);
    if (tracer == nullptr) last_ = std::move(reports);
    return run;
  }

  void check(JobRun& run) override {
    for (std::size_t b = 0; b < blocks_.size(); ++b) {
      const AtpgResult& atpg = last_[b].atpg;
      const CampaignResult ref =
          run_campaign(blocks_[b], collapsed_faults(blocks_[b]), atpg.patterns,
                       campaign_options(CampaignEngine::kReference, 1));
      if (ref.detected != atpg.detected || atpg.aborted != 0) {
        run.outputs_ok = false;
        run.check_detail = "reference re-grade disagrees with atpg.detected";
      }
    }
  }

  void replay(Replays& out) override {
    for (std::size_t b = 0; b < blocks_.size(); ++b) {
      out.core_flow(blocks_[b], last_[b], options());
    }
  }

 protected:
  std::vector<DiagCircuit> diag_circuits() const override {
    std::vector<DiagCircuit> out;
    for (std::size_t b = 0; b < blocks_.size(); ++b) {
      out.push_back(diag_circuit(blocks_[b], last_[b].atpg));
    }
    return out;
  }

 private:
  DftFlowOptions options() const {
    DftFlowOptions o = base_flow_options(seeds_);
    o.atpg.random_patterns = 0;
    o.campaign.num_threads = 1;
    return o;
  }

  std::vector<Netlist> blocks_;
  std::vector<DftFlowReport> last_;
};

// ---- volume_diag ------------------------------------------------------

class VolumeDiag : public Workload {
 public:
  const char* name() const override { return "volume_diag"; }
  bool has_diag_tail() const override { return false; }

  // Patterns from the core flow, then the tester stand-in's fail logs.
  void setup(std::uint64_t seed, Tracer* tracer,
             obs::Telemetry* telemetry) override {
    seeds_ = Seeds(seed);
    core_ = systolic(3, 3);
    flow_ = core_flow(core_, options(), tracer, telemetry);
    // Fidelity of the staged flow, checked here as no job repeats it.
    facade_agrees_ =
        tracer == nullptr ||
        same_patterns(run_dft_flow(core_, options()).atpg.patterns,
                      flow_.atpg.patterns);
    circuits_.assign(1, diag_circuit(core_, flow_.atpg));
    traced(tracer, "diag.fail_logs", [&] {
      cases_ = draw_defects(circuits_, kVolumeDefects, seeds_.defects);
    });
  }

  std::vector<const Netlist*> netlists() const override { return {&core_}; }

  JobRun job(Tracer* tracer, obs::Telemetry* telemetry) override {
    JobRun run;
    run.completed = flow_completed(flow_) && facade_agrees_;
    run.quality = {flow_.atpg.test_coverage(), flow_.atpg.patterns.size(),
                   // No compactor in this flow: every output is observed.
                   flow_.atpg.fault_coverage(), flow_.atpg.fault_coverage()};
    run.stats.add(flow_);
    diagnose_cases(circuits_, cases_, tracer, telemetry, run.diag);
    return run;
  }

  void check(JobRun& run) override {
    if (!run.diag.outputs_ok || cases_.size() != kVolumeDefects) {
      run.outputs_ok = false;
      run.check_detail = "empty fail log or ranking";
    }
  }

  void replay(Replays& out) override { out.core_flow(core_, flow_, options()); }

 private:
  DftFlowOptions options() const {
    DftFlowOptions o = base_flow_options(seeds_);
    o.scan_chains = 8;
    // Deterministic patterns only: with 64 random patterns the shipped set
    // straddles one 64-pattern simulation batch (58-76 patterns), and the
    // diagnosis cost doubled on some seeds and not on others.
    o.atpg.random_patterns = 0;
    o.run_compression = false;
    o.run_lbist = false;
    o.run_power = false;
    return o;
  }

  Netlist core_;
  DftFlowReport flow_;
  bool facade_agrees_ = true;
};
// ------------------------------------------------------------- harness

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

struct Result {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<Metric> metrics;
};

void print_result(const Result& r) {
  for (const Metric& m : r.metrics) {
    std::printf("  %-34s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  obs::JsonWriter w;
  w.begin_object();
  w.field("correct", r.failed == 0);
  w.field("attempted", static_cast<std::uint64_t>(r.attempted));
  w.field("failed", static_cast<std::uint64_t>(r.failed));
  w.key("metrics").begin_object();
  for (const Metric& m : r.metrics) {
    w.key(m.name).begin_object();
    w.field("value", m.value);
    w.field("unit", m.unit);
    w.end_object();
  }
  w.end_object();
  w.end_object();
  std::printf("%s\n", w.str().c_str());
}

// One job with failure accounting: an exception counts as a failed job.
std::optional<JobRun> run_job(Workload& w, Tracer* tracer,
                              obs::Telemetry* telemetry, double& seconds) {
  const auto t0 = Clock::now();
  try {
    JobRun run = w.job(tracer, telemetry);
    seconds = seconds_since(t0);
    return run;
  } catch (const std::exception& e) {
    seconds = seconds_since(t0);
    std::fprintf(stderr, "perfbench: %s job threw: %s\n", w.name(), e.what());
    return std::nullopt;
  }
}

// Jobs are repeated until the budget is spent, but at least this often.
constexpr std::size_t kMinJobs = 3;
// A run gives up after this many jobs threw, whatever the budget.
constexpr std::size_t kMaxFailedJobs = 3;

Result run_untraced(Workload& w, const Args& args) {
  Result res;
  // Set-up repeated 5 to 1001 times within 5% of the budget; median.
  std::vector<double> setup_times;
  const auto setup_start = Clock::now();
  while (setup_times.size() < 5 ||
         (setup_times.size() < 1001 &&
          seconds_since(setup_start) < 0.05 * args.seconds)) {
    const auto t0 = Clock::now();
    w.setup(args.seed, nullptr, nullptr);
    setup_times.push_back(seconds_since(t0));
  }

  // Jobs take the budget; with a diagnosis tail, a fifth of it goes to
  // repeated diagnosis passes, so those samples span seconds too.
  const double job_budget =
      w.has_diag_tail() ? 0.8 * args.seconds : args.seconds;
  std::vector<double> job_times;
  std::optional<JobRun> first;
  DiagOutcome diag;  // volume_diag: every job's per-defect timings
  const auto start = Clock::now();
  while ((job_times.size() < kMinJobs || seconds_since(start) < job_budget) &&
         res.failed < kMaxFailedJobs) {
    double secs = 0.0;
    std::optional<JobRun> run = run_job(w, nullptr, nullptr, secs);
    ++res.attempted;
    if (!run) {
      ++res.failed;
      continue;
    }
    job_times.push_back(secs);
    if (!first) {
      w.check(*run);
      if (!run->outputs_ok) {
        std::fprintf(stderr, "perfbench: %s output check failed: %s\n",
                     w.name(), run->check_detail.c_str());
      }
      first = *run;
    }
    // Every job's outputs equal the checked first job's.
    if (!run->completed || !first->outputs_ok ||
        run->quality != first->quality || !run->diag.outputs_ok) {
      ++res.failed;
    }
    diag.ms.insert(diag.ms.end(), run->diag.ms.begin(), run->diag.ms.end());
    diag.top1 += run->diag.top1;
    diag.attempted += run->diag.attempted;
  }
  if (!first) return res;

  if (w.has_diag_tail()) {
    ++res.attempted;
    const auto tail_start = Clock::now();
    do {
      w.diag_tail(nullptr, nullptr, diag);
    } while (seconds_since(tail_start) < args.seconds - job_budget);
    if (!diag.outputs_ok) {
      ++res.failed;
      std::fprintf(stderr, "perfbench: %s diagnosis gave an empty log or "
                           "ranking\n", w.name());
    }
  }

  std::printf("  %-34s %.6g fraction (%zu of %zu jobs)\n", "failed_frac",
              ratio(res.failed, res.attempted), res.failed, res.attempted);
  std::printf("  samples: set-up %zu, job %zu, diagnosis %zu\n",
              setup_times.size(), job_times.size(), diag.ms.size());
  std::printf("  job_s:");
  for (double t : job_times) std::printf(" %.3f", t);
  std::printf("\n");
  const Quality& q = first->quality;
  res.metrics = {
      {"setup_s", median(setup_times), "s"},
      {"job_s", median(job_times), "s"},
      {"peak_rss_mb", peak_rss_mb(), "MB"},
      {"test_coverage", q.test_coverage, "fraction"},
      {"patterns", static_cast<double>(q.patterns), "count"},
      {"compacted_coverage", q.compacted_coverage, "fraction"},
      {"soc_coverage", q.soc_coverage, "fraction"},
      {"diag_ms_p50", percentile(diag.ms, 0.5), "ms"},
      {"diag_ms_p90", percentile(diag.ms, 0.9), "ms"},
      {"diag_top1", ratio(diag.top1, diag.attempted), "fraction"},
  };
  return res;
}

// Spans whose self time a per-layer metric reports.
constexpr const char* kLayerSpans[] = {
    "drc.run",          "fault.universe", "fault.collapse",   "scan.plan",
    "scan.shift_power", "atpg.generate",  "compress.session", "bist.lbist",
    "fsim.campaign",    "aichip.soc_build", "aichip.broadcast",
    "aichip.soc_release", "diag.diagnose"};

// Largest share of a traced job that no layer span may cover. Measured
// shares are below 0.1% on every workload; above this limit the spans no
// longer describe the job.
constexpr double kMaxUnattributed = 0.02;

// One traced job's span self times and counters.
struct TracedRep {
  double job_s = 0.0;
  std::map<std::string, double> self;  // span name -> self seconds
  obs::MetricsSnapshot counters;
  JobRun run;
};

Result run_traced(Workload& w, const Args& args) {
  Result res;
  Tracer tracer;
  Replays replays;

  // Set-up, traced: volume_diag's patterns and fail logs are set-up work.
  obs::Telemetry setup_telemetry;
  std::size_t mark = tracer.size();
  {
    Tracer::Scope scope(tracer, "setup");
    w.setup(args.seed, &tracer, &setup_telemetry);
  }
  std::map<std::string, double> once = tracer.self_times(mark);

  // Traced and untraced jobs alternate, so both see the same machine state.
  // A traced job runs first: the SoC's RSS growth is read in it.
  std::vector<TracedRep> reps;
  std::vector<double> untraced_times;
  std::optional<JobRun> last_plain;
  const auto start = Clock::now();
  while ((reps.size() < 2 || seconds_since(start) < args.seconds) &&
         res.failed < kMaxFailedJobs) {
    obs::Telemetry telemetry;
    mark = tracer.size();
    double secs = 0.0;
    std::optional<JobRun> run;
    {
      Tracer::Scope scope(tracer, "job");
      run = run_job(w, &tracer, &telemetry, secs);
    }
    double plain_s = 0.0;
    const std::optional<JobRun> plain =
        run_job(w, nullptr, nullptr, plain_s);
    res.attempted += 2;
    if (!run || !plain) {
      res.failed += !run + !plain;
      continue;
    }
    // Fidelity: the staged sequence reproduces the facade's outputs exactly.
    if (!run->completed || !plain->completed ||
        run->quality != plain->quality) {
      ++res.failed;
      std::fprintf(stderr, "perfbench: %s staged run diverged from the "
                           "facade\n", w.name());
    } else if (!run->diag.outputs_ok || !plain->diag.outputs_ok) {
      ++res.failed;
      std::fprintf(stderr, "perfbench: %s diagnosis gave an empty log or "
                           "ranking\n", w.name());
    }
    TracedRep rep;
    rep.self = tracer.self_times(mark);
    rep.job_s = tracer.duration(mark);
    rep.counters = telemetry.metrics.snapshot();
    rep.run = std::move(*run);
    reps.push_back(std::move(rep));
    untraced_times.push_back(plain_s);
    last_plain = std::move(*plain);
  }
  if (reps.empty()) return res;
  w.check(*last_plain);
  if (!last_plain->outputs_ok) {
    ++res.failed;
    std::fprintf(stderr, "perfbench: %s output check failed: %s\n", w.name(),
                 last_plain->check_detail.c_str());
  }

  for (const Netlist* nl : w.netlists()) replays.finalize(*nl);
  w.replay(replays);

  DiagOutcome diag;
  obs::Telemetry diag_telemetry;
  if (w.has_diag_tail()) {
    mark = tracer.size();
    {
      Tracer::Scope scope(tracer, "diag_tail");
      w.diag_tail(&tracer, &diag_telemetry, diag);
    }
    for (const auto& [name, s] : tracer.self_times(mark)) once[name] += s;
    ++res.attempted;
    if (!diag.outputs_ok) {
      ++res.failed;
      std::fprintf(stderr, "perfbench: %s diagnosis gave an empty log or "
                           "ranking\n", w.name());
    }
  } else {
    diag = reps.front().run.diag;
  }

  const TracedRep& rep0 = reps.front();
  const obs::MetricsSnapshot setup_counters = setup_telemetry.metrics.snapshot();
  const obs::MetricsSnapshot diag_counters = diag_telemetry.metrics.snapshot();
  // Job counters of the first traced job, plus set-up's.
  const auto counter = [&](const char* name) {
    return static_cast<double>(rep0.counters.counter_value(name) +
                               setup_counters.counter_value(name));
  };
  // Diagnosis counters come from wherever diagnosis ran.
  const auto diag_counter = [&](const char* name) {
    return static_cast<double>(w.has_diag_tail()
                                   ? diag_counters.counter_value(name)
                                   : rep0.counters.counter_value(name));
  };
  // Layer time: median over traced jobs of the span's self time, plus its
  // self time in set-up and the diagnosis tail.
  const auto layer_s = [&](const char* span) {
    std::vector<double> v;
    for (const TracedRep& r : reps) {
      const auto it = r.self.find(span);
      v.push_back(it == r.self.end() ? 0.0 : it->second);
    }
    const auto it = once.find(span);
    return median(v) + (it == once.end() ? 0.0 : it->second);
  };
  // Job time no reported layer metric covers.
  std::vector<double> traced_times, unattributed;
  for (const TracedRep& r : reps) {
    double covered = 0.0;
    for (const char* span : kLayerSpans) {
      const auto it = r.self.find(span);
      if (it != r.self.end()) covered += it->second;
    }
    traced_times.push_back(r.job_s);
    unattributed.push_back((r.job_s - covered) / r.job_s);
  }
  // Fidelity, second half: the layer spans account for the traced job.
  const double unattributed_share = median(unattributed);
  if (unattributed_share > kMaxUnattributed) {
    ++res.failed;
    std::fprintf(stderr, "perfbench: %s layer spans leave %.2f%% of the "
                         "traced job unattributed\n",
                 w.name(), 100.0 * unattributed_share);
  }
  const double job_traced = median(traced_times);
  const double job_plain = median(untraced_times);
  const LayerStats& stats = rep0.run.stats;
  const double fsim_tw =
      w.workers() == 1 ? replays.campaign_t1_s : replays.campaign_t4_s;

  res.metrics = {
      {"netlist.finalize_s", replays.finalize_s, "s"},
      {"netlist.topology_bytes_per_gate",
       ratio(replays.topology_bytes, replays.topology_gates), "B/gate"},
      {"drc.run_s", layer_s("drc.run"), "s"},
      {"fault.universe_s", layer_s("fault.universe"), "s"},
      {"fault.collapse_s", layer_s("fault.collapse"), "s"},
      {"fault.collapse_ratio",
       ratio(stats.faults_collapsed, stats.faults_total), "fraction"},
      {"scan.plan_s", layer_s("scan.plan"), "s"},
      {"scan.shift_power_s", layer_s("scan.shift_power"), "s"},
      {"atpg.generate_s", layer_s("atpg.generate"), "s"},
      {"atpg.podem_calls", counter("podem.calls"), "count"},
      {"atpg.podem_backtracks", counter("podem.backtracks"), "count"},
      {"atpg.sat_calls", counter("sat.calls"), "count"},
      {"atpg.sat_conflicts", counter("sat.conflicts"), "count"},
      {"atpg.aborted", stats.atpg_aborted, "count"},
      {"atpg.detected_per_podem_call",
       ratio(stats.atpg_detected, counter("podem.calls")), "ratio"},
      {"compress.session_s", layer_s("compress.session"), "s"},
      {"compress.encode_s", replays.encode_s, "s"},
      {"compress.cubes_encoded", counter("edt.cubes_encoded"), "count"},
      {"compress.encode_failures", counter("edt.encode_failures"), "count"},
      {"bist.lbist_s", layer_s("bist.lbist"), "s"},
      {"bist.coverage", ratio(stats.lbist_detected, stats.lbist_faults),
       "fraction"},
      {"fsim.campaign_s", layer_s("fsim.campaign"), "s"},
      {"fsim.faults_per_s", ratio(replays.campaign_faults, fsim_tw), "1/s"},
      {"fsim.events", static_cast<double>(rep0.counters.counter_value("fsim.events")),
       "count"},
      {"fsim.drop_ratio",
       ratio(counter("campaign.faults_dropped"), counter("campaign.faults")),
       "fraction"},
      {"fsim.speedup_t4", ratio(replays.campaign_t1_s, replays.campaign_t4_s),
       "x"},
      {"sim.good_machine_s", replays.good_machine_s, "s"},
      {"aichip.soc_build_s", layer_s("aichip.soc_build"), "s"},
      {"aichip.soc_bytes_per_gate", rep0.run.soc_bytes_per_gate, "B/gate"},
      {"aichip.broadcast_s", layer_s("aichip.broadcast"), "s"},
      {"aichip.soc_release_s", layer_s("aichip.soc_release"), "s"},
      {"diag.diagnose_ms", percentile(diag.ms, 0.5), "ms"},
      {"diag.candidates_scored", diag_counter("diag.candidates_scored"), "count"},
      {"diag.fsim_events", diag_counter("fsim.events"), "count"},
      {"obs.trace_overhead_pct", 100.0 * (job_traced - job_plain) / job_plain,
       "%"},
      {"obs.unattributed_pct", 100.0 * unattributed_share, "%"},
  };

  if (!args.trace_out.empty()) {
    std::ofstream out(args.trace_out);
    out << tracer.to_chrome_json();
    if (!out) {
      std::fprintf(stderr, "perfbench: cannot write %s\n",
                   args.trace_out.c_str());
    }
  }
  return res;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  bool trace_given = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* value = argv[i + 1];
    if (key == "--workload") {
      args.workload = value;
    } else if (key == "--seed") {
      args.seed = std::strtoull(value, nullptr, 10);
    } else if (key == "--seconds") {
      args.seconds = std::atof(value);
    } else if (key == "--trace") {
      args.trace = std::strcmp(value, "1") == 0;
      trace_given = true;
    } else if (key == "--trace-out") {
      args.trace_out = value;
    } else if (key == "--source-id") {
      args.source_id = value;
    } else {
      std::fprintf(stderr, "perfbench: unknown argument %s\n", key.c_str());
      return 2;
    }
  }
  if (args.workload.empty() || !trace_given || args.seconds <= 0.0) {
    std::fprintf(stderr, "usage: perfbench --workload <name> --seed <n> "
                         "--seconds <s> --trace <0|1>\n");
    return 2;
  }

  // Timings from a build with assertions or a sanitizer are not reported.
#if !defined(NDEBUG) || defined(__SANITIZE_ADDRESS__) || \
    defined(__SANITIZE_THREAD__)
  std::fprintf(stderr, "perfbench: refusing to time a build with assertions "
                       "or a sanitizer (build type " PERFBENCH_BUILD_TYPE ")\n");
  return 2;
#endif

  std::unique_ptr<Workload> w;
  if (args.workload == "edt_core") w = std::make_unique<EdtCore>();
  if (args.workload == "soc_broadcast") w = std::make_unique<SocBroadcast>();
  if (args.workload == "atpg_redundant") w = std::make_unique<AtpgRedundant>();
  if (args.workload == "volume_diag") w = std::make_unique<VolumeDiag>();
  if (!w) {
    std::fprintf(stderr, "perfbench: unknown workload %s\n",
                 args.workload.c_str());
    return 2;
  }

  std::printf("perfbench: workload=%s seed=%llu seconds=%g trace=%d "
              "source=%s compiler=\"gcc %s\" build=%s nproc=%u workers=%zu\n",
              w->name(), static_cast<unsigned long long>(args.seed),
              args.seconds, args.trace ? 1 : 0, args.source_id.c_str(),
              __VERSION__, PERFBENCH_BUILD_TYPE,
              std::thread::hardware_concurrency(), w->workers());
  std::fflush(stdout);

  Result result;
  try {
    result = args.trace ? run_traced(*w, args) : run_untraced(*w, args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", w->name(), e.what());
    return 1;
  }
  if (result.metrics.empty()) {
    std::fprintf(stderr, "perfbench: %s produced no result\n", w->name());
    return 1;
  }
  print_result(result);
  return 0;
}
