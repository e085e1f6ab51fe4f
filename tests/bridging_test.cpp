#include "fault/bridging.hpp"

#include <gtest/gtest.h>

#include "atpg/atpg.hpp"
#include "bench_circuits/generators.hpp"
#include "fsim/campaign.hpp"
#include "fsim/fault_sim.hpp"

namespace aidft {
namespace {

TEST(BridgeSampler, SameLevelDistinctDeterministic) {
  const Netlist nl = circuits::make_array_multiplier(6);
  const auto a = sample_bridging_faults(nl, 50, 11);
  const auto b = sample_bridging_faults(nl, 50, 11);
  ASSERT_FALSE(a.empty());
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i], b[i]);
    EXPECT_NE(a[i].a, a[i].b);
    EXPECT_EQ(nl.topology().level(a[i].a), nl.topology().level(a[i].b));
    EXPECT_NE(nl.type(a[i].a), GateType::kOutput);
  }
}

TEST(BridgeSim, WiredAndHandExample) {
  // Two parallel buffers from independent inputs, both observed: wired-AND
  // bridge detected exactly when the nets differ (the 1-side flips to 0).
  Netlist nl;
  const GateId a = nl.add_input("a");
  const GateId b = nl.add_input("b");
  const GateId ba = nl.add_gate(GateType::kBuf, {a}, "ba");
  const GateId bb = nl.add_gate(GateType::kBuf, {b}, "bb");
  nl.add_output(ba, "oa");
  nl.add_output(bb, "ob");
  nl.finalize();
  ASSERT_EQ(nl.topology().level(ba), nl.topology().level(bb));

  std::vector<TestCube> cubes;
  for (int m = 0; m < 4; ++m) {
    TestCube c(2);
    c.bits = {(m & 1) ? Val3::kOne : Val3::kZero,
              (m & 2) ? Val3::kOne : Val3::kZero};
    cubes.push_back(c);
  }
  FaultSimulator fsim(nl);
  fsim.load_batch(pack_patterns(cubes, 0, 4));
  const std::uint64_t and_mask =
      fsim.detect_mask_bridging({ba, bb, BridgeType::kWiredAnd});
  EXPECT_EQ(and_mask, 0b0110ull);  // lanes where a != b
  const std::uint64_t or_mask =
      fsim.detect_mask_bridging({ba, bb, BridgeType::kWiredOr});
  EXPECT_EQ(or_mask, 0b0110ull);
  // a-dominates-b corrupts only ob, still when they differ.
  const std::uint64_t dom_mask =
      fsim.detect_mask_bridging({ba, bb, BridgeType::kADominatesB});
  EXPECT_EQ(dom_mask, 0b0110ull);
}

TEST(BridgeSim, NeverDetectedWhenNetsAgree) {
  const Netlist nl = circuits::make_alu(4);
  const auto bridges = sample_bridging_faults(nl, 30, 5);
  Rng rng(9);
  const auto cubes = random_patterns(nl.combinational_inputs().size(), 64, rng);
  FaultSimulator fsim(nl);
  const PatternBatch batch = pack_patterns(cubes, 0, 64);
  fsim.load_batch(batch);
  ParallelSimulator sim(nl);
  sim.simulate(batch);
  for (const auto& br : bridges) {
    const std::uint64_t agree = ~(sim.value(br.a) ^ sim.value(br.b));
    // Lanes where both nets carry the same value can never expose a bridge.
    EXPECT_EQ(fsim.detect_mask_bridging(br) & agree, 0ull)
        << bridge_name(nl, br);
  }
}

TEST(BridgeSim, DominanceAsymmetry) {
  // If a dominates b, only b's cone is corrupted. Build nets with disjoint
  // observation cones to see the asymmetry.
  Netlist nl;
  const GateId a = nl.add_input("a");
  const GateId b = nl.add_input("b");
  const GateId ba = nl.add_gate(GateType::kBuf, {a}, "ba");
  const GateId bb = nl.add_gate(GateType::kBuf, {b}, "bb");
  nl.add_output(ba, "oa");  // only ba observed
  nl.add_gate(GateType::kBuf, {bb}, "sink");  // bb drives dead logic
  nl.add_output(nl.find("sink"), "ob");
  nl.finalize();
  std::vector<TestCube> cubes(1, TestCube(2));
  cubes[0].bits = {Val3::kOne, Val3::kZero};  // nets differ
  FaultSimulator fsim(nl);
  fsim.load_batch(pack_patterns(cubes, 0, 1));
  // a dominates b: corruption flows to ob only.
  EXPECT_NE(fsim.detect_mask_bridging({ba, bb, BridgeType::kADominatesB}), 0u);
  // b dominates a: corruption on oa only (also detected).
  EXPECT_NE(fsim.detect_mask_bridging({ba, bb, BridgeType::kBDominatesA}), 0u);
}

TEST(BridgeCampaign, StuckAtTestSetCatchesMostBridges) {
  // The classic industrial observation: a high-coverage stuck-at set detects
  // the large majority of (wired) bridges, but not reliably all — the gap
  // motivates bridge-aware ATPG.
  const Netlist nl = circuits::make_array_multiplier(6);
  const auto sa_faults = collapse_equivalent(nl, generate_stuck_at_faults(nl));
  const AtpgResult atpg = generate_tests(nl, sa_faults);
  ASSERT_GT(atpg.fault_coverage(), 0.99);

  const auto bridges = sample_bridging_faults(nl, 200, 77);
  ASSERT_GT(bridges.size(), 100u);
  const CampaignResult r = run_campaign(nl, bridges, atpg.patterns);
  // High but not guaranteed: wired bridges need the two nets at opposite
  // values with propagation, which SA tests produce as a side effect.
  EXPECT_GT(r.coverage(), 0.85);
}

TEST(BridgeCampaign, DroppingCurveMonotone) {
  const Netlist nl = circuits::make_alu(8);
  const auto bridges = sample_bridging_faults(nl, 100, 13);
  Rng rng(4);
  const auto patterns = random_patterns(nl.combinational_inputs().size(), 128, rng);
  const CampaignResult r = run_campaign(nl, bridges, patterns);
  for (std::size_t i = 1; i < r.detected_after.size(); ++i) {
    EXPECT_GE(r.detected_after[i], r.detected_after[i - 1]);
  }
  EXPECT_EQ(r.detected_after.back(), r.detected);
}

}  // namespace
}  // namespace aidft
