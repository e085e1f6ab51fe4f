// Golden structural digests of the netlist builders. Each digest is FNV-1a
// over every gate's (type, name, fanin list) plus the topological order and
// every level of the finalized result, so any change to gate ids, names, pin
// order, topo order or levelisation in a generator or a netlist rewrite
// (SoC replication, compare trees, core wrapper, scan insertion, test
// points) shows up as a changed value. The constants are the values of the
// reference implementation; a refactor of the IR must reproduce them.
//
// The FlowDigest suite does the same for the grading flows: FNV-1a over what
// stuck-at and transition ATPG, the EDT session, LBIST, the fault dictionary
// and diagnosis produce on three circuits, so a refactor of the fault-grading
// engine must reproduce every pattern, count, signature and ranking bit for
// bit.
//
// The LfsrDigest suite pins the three LFSR-plus-phase-shifter stimulus
// sources at every width a caller uses (16/24/32/64): EDT encode and
// decompression, static reseeding's seeds and expansions, and the LBIST
// PRPG's patterns, so a rewrite of the shared linear machine must reproduce
// every channel stream, seed and chain fill bit for bit.
//
// The PodemDigest suite pins PODEM's search itself: FNV-1a over the status,
// cube, decision, backtrack and implication counts of every call, so a
// rewrite of PODEM's implication must reproduce the same search step for
// step.
//
// The SatDigest suite pins the SAT miter the same way: FNV-1a over the
// status and cube of SatAtpg::generate for every collapsed fault, plus the
// summed encoding size, so a rewrite of the solver's storage or of the
// encoder's reuse must reproduce every model and every clause. AtpgBudget
// checks that the PODEM budget moves work between the engines but never a
// fault's status.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>

#include "aichip/soc.hpp"
#include "aichip/systolic.hpp"
#include "aichip/wrapper.hpp"
#include "atpg/atpg.hpp"
#include "atpg/sat_atpg.hpp"
#include "atpg/transition_atpg.hpp"
#include "bench_circuits/generators.hpp"
#include "bist/lbist.hpp"
#include "bist/test_points.hpp"
#include "common/rng.hpp"
#include "compress/reseed.hpp"
#include "compress/session.hpp"
#include "netlist/scoap.hpp"
#include "diag/diagnosis.hpp"
#include "diag/dictionary.hpp"
#include "scan/scan.hpp"

namespace aidft {
namespace {

class Fnv1a {
 public:
  void bytes(const void* p, std::size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) h_ = (h_ ^ b[i]) * 0x100000001b3ull;
  }
  void u32(std::uint32_t v) { bytes(&v, sizeof v); }
  void u64(std::uint64_t v) { bytes(&v, sizeof v); }
  void words(const std::vector<std::uint64_t>& w) {
    u64(w.size());
    for (std::uint64_t v : w) u64(v);
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ull;
};

std::uint64_t digest(const Netlist& nl) {
  Fnv1a h;
  h.u32(static_cast<std::uint32_t>(nl.num_gates()));
  for (GateId id = 0; id < nl.num_gates(); ++id) {
    h.u32(static_cast<std::uint32_t>(nl.type(id)));
    const std::string name = nl.name_of(id);
    h.u32(static_cast<std::uint32_t>(name.size()));
    h.bytes(name.data(), name.size());
    const auto& fanin = nl.gate(id).fanin;
    h.u32(static_cast<std::uint32_t>(fanin.size()));
    for (GateId f : fanin) h.u32(f);
  }
  for (GateId id : nl.topo_order()) h.u32(id);
  for (GateId id = 0; id < nl.num_gates(); ++id) {
    h.u32(nl.topology().level(id));
  }
  return h.value();
}

Netlist core() { return circuits::make_mac(4, true); }

TEST(StructuralDigest, Generators) {
  EXPECT_EQ(digest(circuits::make_alu(8)), 0xfb53760cd087620full);
  EXPECT_EQ(digest(circuits::make_random_logic(12, 400, 0xD16E57)),
            0xf27cb75428b1ceceull);
}

TEST(StructuralDigest, ReplicatedSoc) {
  EXPECT_EQ(digest(aichip::make_replicated_soc(core(), 3).netlist),
            0xe8f461257c9f4f90ull);
}

TEST(StructuralDigest, CoreWrapper) {
  EXPECT_EQ(digest(aichip::insert_core_wrapper(core()).netlist),
            0x1aa0e8552b0edeffull);
}

TEST(StructuralDigest, ScanInsertion) {
  const Netlist nl = core();
  EXPECT_EQ(digest(insert_scan(nl, plan_scan_chains(nl, 3)).netlist),
            0x5f02e04ee9e973d5ull);
}

TEST(StructuralDigest, TestPoints) {
  const Netlist nl = circuits::make_alu(8);
  // The first logic gates in id order: two observe taps, then one control
  // splice of each polarity.
  std::vector<GateId> logic;
  for (GateId id = 0; id < nl.num_gates() && logic.size() < 4; ++id) {
    if (!is_source(nl.type(id)) && nl.type(id) != GateType::kOutput) {
      logic.push_back(id);
    }
  }
  ASSERT_EQ(logic.size(), 4u);
  TestPointPlan plan;
  plan.observe = {logic[0], logic[1]};
  plan.control = {{logic[2], true}, {logic[3], false}};
  EXPECT_EQ(digest(apply_test_points(nl, plan)), 0xcc0264d57aa28704ull);
}


// ---- grading flows ------------------------------------------------------

void hash_cubes(Fnv1a& h, const std::vector<TestCube>& cubes) {
  h.u64(cubes.size());
  for (const TestCube& c : cubes) {
    h.u64(c.size());
    for (Val3 v : c.bits) h.u32(static_cast<std::uint32_t>(v));
  }
}

void hash_fault(Fnv1a& h, const Fault& f) {
  h.u32(f.gate);
  h.u32(f.pin);
  h.u32(f.value);
}

void hash_log(Fnv1a& h, const FailLog& log) {
  h.u64(log.num_patterns);
  h.u64(log.num_observe_points);
  h.u64(log.blocks.size());
  for (const auto& block : log.blocks) h.words(block);
}

void hash_candidate(Fnv1a& h, const DiagnosisCandidate& c) {
  hash_fault(h, c.fault);
  h.u64(c.tp);
  h.u64(c.fp);
  h.u64(c.fn);
  std::uint64_t score = 0;
  std::memcpy(&score, &c.score, sizeof score);
  h.u64(score);
}

// One digest circuit with its collapsed fault list, its ATPG result, and
// the ATPG patterns topped up with random ones past one 64-pattern batch
// (the last one partial) for the dictionary and diagnosis. Built once per
// test binary.
struct Flow {
  Netlist nl;
  std::vector<Fault> faults;
  AtpgResult atpg;
  std::vector<TestCube> patterns;
};

const Flow& flow(std::size_t which) {
  static const std::vector<Flow> flows = [] {
    std::vector<Netlist> nets;
    nets.push_back(circuits::make_mac(8, true));
    nets.push_back(circuits::make_random_logic(12, 400, 5));
    nets.push_back(aichip::make_systolic_array({.rows = 2, .cols = 2}));
    std::vector<Flow> out;
    for (Netlist& nl : nets) {
      Flow f{std::move(nl), {}, {}, {}};
      f.faults = collapse_equivalent(f.nl, generate_stuck_at_faults(f.nl));
      // Few random patterns: most faults go through PODEM/SAT and the
      // pending-cube fault dropping. The PODEM budget is pinned, so the
      // digests below keep pinning both engines whatever the default.
      f.atpg = generate_tests(f.nl, f.faults,
                              {.random_patterns = 8,
                               .podem_backtrack_limit = 100});
      Rng rng(0xD16E57);
      f.patterns = f.atpg.patterns;
      for (TestCube& p :
           random_patterns(f.nl.combinational_inputs().size(), 48, rng)) {
        f.patterns.push_back(std::move(p));
      }
      out.push_back(std::move(f));
    }
    return out;
  }();
  return flows[which];
}

constexpr std::size_t kFlows = 3;

// Defects for the fail-log digests: ATPG-detected faults spread over the
// fault list.
std::vector<Fault> digest_defects(const Flow& f, std::size_t count) {
  std::vector<Fault> defects;
  const std::size_t stride = std::max<std::size_t>(1, f.faults.size() / count);
  for (std::size_t i = 0; i < f.faults.size() && defects.size() < count;
       i += stride) {
    if (f.atpg.status[i] == FaultStatus::kDetected) {
      defects.push_back(f.faults[i]);
    }
  }
  return defects;
}

TEST(FlowDigest, GenerateTests) {
  const std::uint64_t expected[kFlows] = {
      0xb0b08138034c7b0cull, 0xdb63d8b1d2c3465full, 0x386bcfcf3ed6b23cull};
  for (std::size_t i = 0; i < kFlows; ++i) {
    const Flow& f = flow(i);
    Fnv1a h;
    hash_cubes(h, f.atpg.patterns);
    hash_cubes(h, f.atpg.cubes);
    for (FaultStatus s : f.atpg.status) h.u32(static_cast<std::uint32_t>(s));
    EXPECT_EQ(h.value(), expected[i]) << "flow " << i;
  }
}

// Which faults are detected and which are untestable is a property of the
// circuit, not of the PODEM budget: every fault PODEM gives up on goes to
// SAT, which decides it. Budget 0 hands on every fault that needs a single
// backtrack. Only the patterns may differ.
TEST(AtpgBudget, StatusesDoNotDependOnBudget) {
  // Each compared with the statuses at budget 100.
  const std::uint64_t budgets[] = {0, AtpgOptions{}.podem_backtrack_limit};
  auto run = [](const Netlist& nl, const std::vector<Fault>& faults,
                std::uint64_t budget) {
    const AtpgResult r = generate_tests(
        nl, faults, {.random_patterns = 8, .podem_backtrack_limit = budget});
    EXPECT_EQ(r.aborted, 0u) << "budget " << budget;
    return r.status;
  };
  const Netlist block = circuits::make_random_logic(32, 500, 1);
  const std::vector<Fault> block_faults =
      collapse_equivalent(block, generate_stuck_at_faults(block));
  const std::vector<FaultStatus> block_status = run(block, block_faults, 100);
  for (std::uint64_t budget : budgets) {
    EXPECT_EQ(run(block, block_faults, budget), block_status)
        << "budget " << budget;
  }
  // The digest circuits' fixture runs at budget 100.
  for (std::size_t i = 0; i < kFlows; ++i) {
    const Flow& f = flow(i);
    for (std::uint64_t budget : budgets) {
      EXPECT_EQ(run(f.nl, f.faults, budget), f.atpg.status)
          << "flow " << i << " budget " << budget;
    }
  }
}

TEST(FlowDigest, TransitionTests) {
  const std::uint64_t expected[kFlows] = {
      0xae69cea38edfaf67ull, 0x08d2c5c1c5786460ull, 0xde2137640f091195ull};
  for (std::size_t i = 0; i < kFlows; ++i) {
    const Flow& f = flow(i);
    const TransitionAtpgResult r =
        generate_transition_tests(f.nl, generate_transition_faults(f.nl));
    Fnv1a h;
    hash_cubes(h, r.patterns);
    for (FaultStatus s : r.status) h.u32(static_cast<std::uint32_t>(s));
    EXPECT_EQ(h.value(), expected[i]) << "flow " << i;
  }
}

TEST(FlowDigest, CompressedSession) {
  const std::uint64_t expected[kFlows] = {
      0x9b56b128e75f5f1cull, 0xeb815aa127cd49b4ull, 0x73aa8719a03c812aull};
  for (std::size_t i = 0; i < kFlows; ++i) {
    const Flow& f = flow(i);
    // The cube set offered twice: two grading batches, the last partial.
    std::vector<TestCube> cubes = f.atpg.cubes;
    cubes.insert(cubes.end(), f.atpg.cubes.begin(), f.atpg.cubes.end());
    const CompressedSessionResult r = run_compressed_session(
        f.nl, plan_scan_chains(f.nl, 4), f.faults, cubes, {});
    Fnv1a h;
    h.u64(r.detected_ideal);
    h.u64(r.detected_compacted);
    h.u64(r.detected_baseline);
    hash_cubes(h, r.delivered);
    EXPECT_EQ(h.value(), expected[i]) << "flow " << i;
  }
}

TEST(FlowDigest, Lbist) {
  const std::uint64_t expected[kFlows] = {
      0x6f26cbf9a2c7ace2ull, 0xcf7c6fc7b92281adull, 0x7b2f6f8352fb8ffeull};
  for (std::size_t i = 0; i < kFlows; ++i) {
    const Flow& f = flow(i);
    const LbistConfig config{.patterns = 500};  // last batch partial
    const LbistResult r = run_lbist(f.nl, f.faults, config);
    Fnv1a h;
    h.u64(r.detected);
    h.words(r.golden_signature);
    for (std::size_t k = 0; k < 16; ++k) {
      h.words(
          faulty_signature(f.nl, f.faults[k * f.faults.size() / 16], config));
    }
    EXPECT_EQ(h.value(), expected[i]) << "flow " << i;
  }
}

TEST(FlowDigest, Dictionary) {
  // Every dictionary signature enters each match() distance, so the
  // distances of the whole fault list to a few probe signatures pin them.
  const std::uint64_t expected[kFlows] = {
      0x0b7d567b7019e384ull, 0x8ffe1a4be8df133full, 0x611d9846219ed5ecull};
  for (std::size_t i = 0; i < kFlows; ++i) {
    const Flow& f = flow(i);
    const FaultDictionary dict(f.nl, f.faults, f.patterns);
    std::vector<std::vector<std::uint64_t>> probes(
        1, std::vector<std::uint64_t>((f.patterns.size() + 63) / 64, 0));
    for (const Fault& d : digest_defects(f, 4)) {
      probes.push_back(FaultDictionary::signature_of(
          simulate_defect(f.nl, f.patterns, d)));
    }
    Fnv1a h;
    for (const auto& probe : probes) {
      for (const auto& m : dict.match(probe, dict.num_faults())) {
        h.u64(m.fault_index);
        h.u64(m.hamming);
      }
    }
    EXPECT_EQ(h.value(), expected[i]) << "flow " << i;
  }
}

TEST(FlowDigest, Diagnosis) {
  const std::uint64_t expected[kFlows] = {
      0xae26e65a2f52d225ull, 0x63470581a3ed56c0ull, 0xdeb71fa6158dba7full};
  for (std::size_t i = 0; i < kFlows; ++i) {
    const Flow& f = flow(i);
    const std::vector<TestCube>& patterns = f.patterns;
    const std::vector<Fault> defects = digest_defects(f, 4);
    Fnv1a h;
    for (const Fault& d : defects) {
      const FailLog log = simulate_defect(f.nl, patterns, d);
      hash_log(h, log);
      for (const auto& c : diagnose(f.nl, patterns, log, f.faults).ranked) {
        hash_candidate(h, c);
      }
    }
    const FailLog multi = simulate_defects(f.nl, patterns, defects);
    hash_log(h, multi);
    const MultiDiagnosisResult m =
        diagnose_multiplet(f.nl, patterns, multi, f.faults);
    for (const auto& c : m.selected) hash_candidate(h, c);
    h.u64(m.explained);
    h.u64(m.unexplained);
    EXPECT_EQ(h.value(), expected[i]) << "flow " << i;
  }
}

// ---- PODEM search ---------------------------------------------------------

void hash_outcome(Fnv1a& h, const AtpgOutcome& o) {
  h.u32(static_cast<std::uint32_t>(o.status));
  h.u64(o.cube.size());
  for (Val3 v : o.cube.bits) h.u32(static_cast<std::uint32_t>(v));
  h.u64(o.decisions);
  h.u64(o.backtracks);
  h.u64(o.implications);
}

// Podem::generate over every collapsed fault of `nl` at `options`.
std::uint64_t podem_digest(const Netlist& nl, const PodemOptions& options) {
  const ScoapResult scoap = compute_scoap(nl);
  Podem podem(nl, &scoap);
  Fnv1a h;
  for (const Fault& f : collapse_equivalent(nl, generate_stuck_at_faults(nl))) {
    hash_outcome(h, podem.generate(f, options));
  }
  return h.value();
}

PodemOptions with_budget(std::uint64_t backtrack_limit) {
  PodemOptions o;
  o.backtrack_limit = backtrack_limit;
  return o;
}

TEST(PodemDigest, StandardSuite) {
  const std::uint64_t expected[2] = {0xa3df14dacfe7820eull,
                                     0xa3df14dacfe7820eull};
  const std::uint64_t budgets[2] = {100, PodemOptions{}.backtrack_limit};
  for (std::size_t b = 0; b < 2; ++b) {
    Fnv1a h;
    for (const auto& nc : circuits::standard_suite()) {
      h.u64(podem_digest(nc.netlist, with_budget(budgets[b])));
    }
    EXPECT_EQ(h.value(), expected[b]) << "budget " << budgets[b];
  }
}

TEST(PodemDigest, RandomLogic) {
  const std::uint64_t expected[2] = {0x44dbf7b93547eacdull,
                                     0x286b393dd8efc5c7ull};
  const std::uint64_t budgets[2] = {100, PodemOptions{}.backtrack_limit};
  const Netlist nl = circuits::make_random_logic(32, 500, 1);
  for (std::size_t b = 0; b < 2; ++b) {
    EXPECT_EQ(podem_digest(nl, with_budget(budgets[b])), expected[b])
        << "budget " << budgets[b];
  }
}

TEST(PodemDigest, PinConstrained) {
  // The first four inputs held at 0, 1, 0, 1: part of the fault list
  // becomes untestable in this mode.
  const Netlist nl = circuits::make_alu(8);
  const std::vector<GateId> inputs = nl.combinational_inputs();
  PodemOptions o = with_budget(100);
  for (std::size_t i = 0; i < 4; ++i) {
    o.constraints.emplace_back(inputs[i], i % 2 ? Val3::kOne : Val3::kZero);
  }
  EXPECT_EQ(podem_digest(nl, o), 0xad85772bc3adf316ull);
}

TEST(PodemDigest, Justify) {
  const Netlist nl = circuits::make_random_logic(12, 400, 5);
  const ScoapResult scoap = compute_scoap(nl);
  Podem podem(nl, &scoap);
  Fnv1a h;
  for (GateId g = 0; g < nl.num_gates(); ++g) {
    for (Val3 v : {Val3::kZero, Val3::kOne}) {
      hash_outcome(h, podem.justify(g, v));
    }
  }
  EXPECT_EQ(h.value(), 0x4068db6e3b03319cull);
}

// ---- SAT miter -------------------------------------------------------------

struct SatDigestValue {
  std::uint64_t hash = 0;
  std::uint64_t vars = 0;     // summed sat.vars
  std::uint64_t clauses = 0;  // summed sat.clauses
};

// SatAtpg::generate over every collapsed fault of each of `nets`, through
// one engine per netlist.
SatDigestValue sat_digest(const std::vector<const Netlist*>& nets) {
  obs::Telemetry telemetry;
  Fnv1a h;
  for (const Netlist* nl : nets) {
    Podem podem(*nl);
    SatAtpg sat(podem);
    for (const Fault& f :
         collapse_equivalent(*nl, generate_stuck_at_faults(*nl))) {
      const AtpgOutcome o = sat.generate(f, {.telemetry = &telemetry});
      h.u32(static_cast<std::uint32_t>(o.status));
      h.u64(o.cube.size());
      for (Val3 v : o.cube.bits) h.u32(static_cast<std::uint32_t>(v));
    }
  }
  const obs::MetricsSnapshot m = telemetry.metrics.snapshot();
  return {h.value(), m.counter_value("sat.vars"),
          m.counter_value("sat.clauses")};
}

TEST(SatDigest, RandomLogic) {
  const Netlist nl = circuits::make_random_logic(32, 500, 1);
  const SatDigestValue d = sat_digest({&nl});
  EXPECT_EQ(d.hash, 0xf4a1bf7725180cd4ull);
  EXPECT_EQ(d.vars, 640'432u);
  EXPECT_EQ(d.clauses, 2'054'356u);
}

TEST(SatDigest, StandardSuite) {
  const std::vector<circuits::NamedCircuit> suite = circuits::standard_suite();
  std::vector<const Netlist*> nets;
  for (const auto& nc : suite) nets.push_back(&nc.netlist);
  const SatDigestValue d = sat_digest(nets);
  EXPECT_EQ(d.hash, 0xbdc875f4f85cffa8ull);
  EXPECT_EQ(d.vars, 2'056'760u);
  EXPECT_EQ(d.clauses, 6'315'236u);
}

// ---- linear decompressors ----------------------------------------------

constexpr std::size_t kLfsrWidths[] = {16, 24, 32, 64};

// A cube over `chains` chains of `len` cells with `care` random care bits;
// every third chain is one cell short (ragged chains).
std::vector<std::vector<Val3>> digest_load(std::size_t chains, std::size_t len,
                                           std::size_t care, Rng& rng) {
  std::vector<std::vector<Val3>> load;
  for (std::size_t c = 0; c < chains; ++c) {
    load.emplace_back(c % 3 == 2 ? len - 1 : len, Val3::kX);
  }
  for (std::size_t k = 0; k < care; ++k) {
    auto& chain = load[rng.next_below(chains)];
    chain[rng.next_below(chain.size())] =
        rng.next_bool() ? Val3::kOne : Val3::kZero;
  }
  return load;
}

void hash_bits(Fnv1a& h, const BitVec& v) {
  h.u64(v.size());
  h.words(v.words());
}

void hash_fill(Fnv1a& h, const std::vector<std::vector<bool>>& chains) {
  h.u64(chains.size());
  for (const auto& chain : chains) {
    h.u64(chain.size());
    for (bool b : chain) h.u32(b);
  }
}

TEST(LfsrDigest, Edt) {
  const std::uint64_t expected[] = {
      0xf07d17b03ec275eeull, 0x17289db9ab613fc1ull, 0xcb2df8ff0f488298ull,
      0xd55c2c618e17e687ull};
  for (std::size_t i = 0; i < std::size(kLfsrWidths); ++i) {
    const std::size_t width = kLfsrWidths[i];
    const EdtConfig cfg{.lfsr_bits = width, .channels = 1 + i % 3};
    const EdtCodec codec(cfg, 6, 20);
    Rng rng(width);
    Fnv1a h;
    for (std::size_t care : {4, 12, 24, 40, 120}) {
      const auto streams = codec.encode(digest_load(6, 20, care, rng));
      h.u32(streams.has_value());
      if (!streams) continue;
      for (const BitVec& s : *streams) hash_bits(h, s);
      hash_fill(h, codec.decompress(*streams));
    }
    EXPECT_EQ(h.value(), expected[i]) << "width " << width;
  }
}

TEST(LfsrDigest, Reseed) {
  const std::uint64_t expected[] = {0xd0f8d07e4988876cull,
                                    0x94040be119f4558bull};
  const std::size_t widths[] = {32, 64};
  for (std::size_t i = 0; i < std::size(widths); ++i) {
    const ReseedCodec codec({.lfsr_bits = widths[i]}, 8, 24);
    Rng rng(widths[i]);
    Fnv1a h;
    for (std::size_t care : {6, 14, 24, 30, 48}) {
      const auto seed = codec.encode(digest_load(8, 24, care, rng));
      h.u32(seed.has_value());
      if (!seed) continue;
      hash_bits(h, *seed);
      hash_fill(h, codec.expand(*seed));
    }
    // Every cell a care bit: far past the seed's capacity.
    const std::vector<std::vector<Val3>> full(
        8, std::vector<Val3>(24, Val3::kOne));
    EXPECT_FALSE(codec.encode(full).has_value()) << "width " << widths[i];
    BitVec seed(widths[i]);
    for (std::size_t b = 0; b < widths[i]; ++b) seed.set(b, rng.next_bool());
    hash_fill(h, codec.expand(seed));
    EXPECT_EQ(h.value(), expected[i]) << "width " << widths[i];
  }
}

TEST(LfsrDigest, Prpg) {
  const std::uint64_t expected[] = {
      0x8e3b1ef730ad770dull, 0x310594afc4b9511dull, 0x85f12291c6bef81dull,
      0x14aae06e20cdc9ddull};
  for (std::size_t i = 0; i < std::size(kLfsrWidths); ++i) {
    Prpg prpg({.prpg_bits = kLfsrWidths[i]}, 37);
    std::vector<TestCube> patterns;
    for (int k = 0; k < 24; ++k) patterns.push_back(prpg.next_pattern());
    Fnv1a h;
    hash_cubes(h, patterns);
    EXPECT_EQ(h.value(), expected[i]) << "width " << kLfsrWidths[i];
  }
}

}  // namespace
}  // namespace aidft
