// Cross-module property tests: invariants that tie independent engines
// together over randomly structured circuits. Failures here mean two
// subsystems disagree about ground truth.
#include <gtest/gtest.h>

#include "bench_circuits/generators.hpp"
#include "common/rng.hpp"
#include "fault/fault.hpp"
#include "fsim/campaign.hpp"
#include "fsim/fault_sim.hpp"
#include "netlist/bench_io.hpp"
#include "netlist/scoap.hpp"
#include "sim/parallel_sim.hpp"
#include "test_util.hpp"

namespace aidft {
namespace {

// ---- .bench round trip preserves behaviour --------------------------------
class BenchRoundTrip : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(BenchRoundTrip, RandomCircuitsSimulateIdentically) {
  const Netlist original = circuits::make_random_logic(10, 150, GetParam());
  const Netlist back =
      read_bench_string(write_bench_string(original), "roundtrip");
  ASSERT_EQ(back.inputs().size(), original.inputs().size());
  ASSERT_EQ(back.outputs().size(), original.outputs().size());

  Rng rng(GetParam() ^ 0xFF);
  const auto cubes =
      random_patterns(original.combinational_inputs().size(), 64, rng);
  ParallelSimulator sim_a(original);
  sim_a.simulate(pack_patterns(cubes, 0, 64));
  // The round-tripped netlist may order gates differently but names are
  // preserved for inputs; rebuild the batch by name.
  PatternBatch batch_b;
  batch_b.npatterns = 64;
  const auto inputs_b = back.combinational_inputs();
  batch_b.words.assign(inputs_b.size(), 0);
  const auto inputs_a = original.combinational_inputs();
  const PatternBatch batch_a = pack_patterns(cubes, 0, 64);
  for (std::size_t i = 0; i < inputs_a.size(); ++i) {
    const std::string name = original.name_of(inputs_a[i]);
    const GateId g = back.find(name);
    ASSERT_NE(g, kNoGate) << name;
    for (std::size_t j = 0; j < inputs_b.size(); ++j) {
      if (inputs_b[j] == g) batch_b.words[j] = batch_a.words[i];
    }
  }
  ParallelSimulator sim_b(back);
  sim_b.simulate(batch_b);
  // Outputs correspond positionally (writer emits them in order).
  for (std::size_t o = 0; o < original.outputs().size(); ++o) {
    EXPECT_EQ(sim_b.value(back.outputs()[o]),
              sim_a.value(original.outputs()[o]))
        << "output " << o;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BenchRoundTrip,
                         ::testing::Values(101, 102, 103, 104, 105, 106));

// ---- SCOAP controllability agrees with exhaustive reachability ------------
class ScoapVsExhaustive : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ScoapVsExhaustive, ReachableValuesHaveFiniteCc) {
  // 10 inputs => 1024 patterns: enumerate the truth table. SCOAP is a
  // heuristic (it can claim finite cost for values reconvergence makes
  // unreachable), but it must never claim kUnreachable for a value the
  // exhaustive simulation actually produces — that is its soundness side.
  const Netlist nl = circuits::make_random_logic(10, 120, GetParam());
  const ScoapResult scoap = compute_scoap(nl);

  std::vector<std::uint64_t> seen0(nl.num_gates(), 0), seen1(nl.num_gates(), 0);
  ParallelSimulator sim(nl);
  const std::size_t width = nl.combinational_inputs().size();
  auto cubes = test::exhaustive_patterns(width);
  for (std::size_t base = 0; base < cubes.size(); base += 64) {
    sim.simulate(pack_patterns(cubes, base, 64));
    for (GateId g = 0; g < nl.num_gates(); ++g) {
      seen1[g] |= sim.value(g) != 0;
      seen0[g] |= sim.value(g) != ~0ull;
    }
  }
  for (GateId g = 0; g < nl.num_gates(); ++g) {
    if (is_state_element(nl.type(g))) continue;
    if (seen1[g]) {
      EXPECT_LT(scoap.cc1[g], kUnreachable) << "gate " << g;
    }
    if (seen0[g]) {
      EXPECT_LT(scoap.cc0[g], kUnreachable) << "gate " << g;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ScoapVsExhaustive,
                         ::testing::Values(301, 302, 303, 304));

// ---- dominance theorem: detecting the dominated fault detects the
//      dominating one -------------------------------------------------------
class DominanceTheorem : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DominanceTheorem, DroppedFaultsAreCoveredByKeptSet) {
  const Netlist nl = circuits::make_random_logic(10, 200, GetParam());
  const auto eq = collapse_equivalent(nl, generate_stuck_at_faults(nl));
  const auto dom = collapse_dominance(nl, eq);
  ASSERT_LE(dom.size(), eq.size());
  Rng rng(GetParam() * 3 + 1);
  const auto patterns =
      random_patterns(nl.combinational_inputs().size(), 512, rng);
  const CampaignResult r_eq = run_campaign(nl, eq, patterns);
  const CampaignResult r_dom = run_campaign(nl, dom, patterns);
  // If the dominance-reduced set is fully detected, the full equivalence
  // set must be too (that is the soundness guarantee of the reduction).
  if (r_dom.detected == dom.size()) {
    EXPECT_EQ(r_eq.detected, eq.size());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DominanceTheorem,
                         ::testing::Values(401, 402, 403, 404, 405, 406, 407,
                                           408));

// ---- fsim vs sim: an undetected fault's machine matches the good machine
//      at every observe point ----------------------------------------------
TEST(FsimConsistency, UndetectedMeansIdenticalResponses) {
  const Netlist nl = circuits::make_alu(4);
  const auto faults = generate_stuck_at_faults(nl);
  Rng rng(5);
  const auto cubes = random_patterns(nl.combinational_inputs().size(), 64, rng);
  const PatternBatch batch = pack_patterns(cubes, 0, 64);
  FaultSimulator fsim(nl);
  fsim.load_batch(batch);
  std::vector<OpDiff> pairs;
  for (const Fault& f : faults) {
    const std::uint64_t mask = fsim.detect_mask_detailed(f, pairs);
    const std::vector<std::uint64_t> op_diffs =
        test::dense_diffs(pairs, nl.observe_points().size());
    std::uint64_t any = 0;
    for (std::uint64_t d : op_diffs) any |= d;
    EXPECT_EQ(mask, any) << fault_name(nl, f)
                         << ": detect mask must equal union of point diffs";
  }
}

}  // namespace
}  // namespace aidft
