#include "atpg/transition_atpg.hpp"

#include <gtest/gtest.h>

#include "bench_circuits/generators.hpp"
#include "fsim/campaign.hpp"
#include "fsim/fault_sim.hpp"
#include "test_util.hpp"

namespace aidft {
namespace {

TEST(Justify, FindsCubeAndProvesImpossible) {
  // y = a AND b: y=1 needs a=b=1; NOT(a)=1 with a forced 1 is impossible.
  Netlist nl;
  const GateId a = nl.add_input("a");
  const GateId b = nl.add_input("b");
  const GateId y = nl.add_gate(GateType::kAnd, {a, b}, "y");
  const GateId na = nl.add_gate(GateType::kNot, {a}, "na");
  const GateId z = nl.add_gate(GateType::kAnd, {y, na}, "z");  // always 0
  nl.add_output(z, "o");
  nl.finalize();
  Podem podem(nl);
  const AtpgOutcome ok = podem.justify(y, Val3::kOne);
  ASSERT_EQ(ok.status, AtpgStatus::kDetected);
  EXPECT_EQ(ok.cube.bits[0], Val3::kOne);
  EXPECT_EQ(ok.cube.bits[1], Val3::kOne);
  const AtpgOutcome impossible = podem.justify(z, Val3::kOne);
  EXPECT_EQ(impossible.status, AtpgStatus::kUntestable);
}

TEST(Justify, CubeActuallyJustifiesOnRandomLogic) {
  for (std::uint64_t seed = 40; seed < 46; ++seed) {
    const Netlist nl = circuits::make_random_logic(8, 120, seed);
    Podem podem(nl);
    std::vector<Val3> good, faulty;
    std::size_t tried = 0;
    for (GateId g = 0; g < nl.num_gates() && tried < 20; ++g) {
      if (nl.type(g) == GateType::kOutput) continue;
      for (Val3 v : {Val3::kZero, Val3::kOne}) {
        const AtpgOutcome out = podem.justify(g, v);
        if (out.status != AtpgStatus::kDetected) continue;
        ++tried;
        // The good half of the full 3-valued pass (a fault on no gate).
        test::full_pass_3v(nl, out.cube.bits, Fault{}, good, faulty);
        EXPECT_EQ(good[g], v) << "gate " << g << " seed " << seed;
      }
    }
    EXPECT_GT(tried, 0u);
  }
}

// SatAtpg::justify is SAT ATPG's empty-cone path: on every gate and value
// it must agree with PODEM, and every SAT cube, X bits left X, must set the
// line in the whole-circuit 3-valued pass.
TEST(SatJustify, AgreesWithPodem) {
  const Netlist nl = circuits::make_random_logic(12, 400, 5);
  const ScoapResult scoap = compute_scoap(nl);
  Podem podem(nl, &scoap);
  SatAtpg sat(podem);
  std::vector<Val3> good, faulty;
  std::size_t detected = 0;
  for (GateId g = 0; g < nl.num_gates(); ++g) {
    for (Val3 v : {Val3::kZero, Val3::kOne}) {
      const AtpgOutcome p = podem.justify(g, v);
      const AtpgOutcome s = sat.justify(g, v);
      ASSERT_NE(p.status, AtpgStatus::kAborted) << "gate " << g;
      ASSERT_EQ(s.status, p.status) << "gate " << g << " value " << to_char(v);
      if (s.status != AtpgStatus::kDetected) continue;
      ++detected;
      test::full_pass_3v(nl, s.cube.bits, Fault{}, good, faulty);
      EXPECT_EQ(good[g], v) << "gate " << g << " cube " << s.cube.to_string();
    }
  }
  EXPECT_GT(detected, 0u);
}

class TransitionAtpgOnCircuit : public ::testing::TestWithParam<const char*> {};

TEST_P(TransitionAtpgOnCircuit, PairsDetectTheirFaults) {
  Netlist nl;
  const std::string which = GetParam();
  for (auto& nc : circuits::standard_suite()) {
    if (which == nc.name) nl = std::move(nc.netlist);
  }
  ASSERT_TRUE(nl.finalized());
  const auto faults = generate_transition_faults(nl);
  const TransitionAtpgResult result = generate_transition_tests(nl, faults);
  EXPECT_EQ(result.aborted, 0u) << which;
  EXPECT_EQ(result.patterns.size() % 2, 0u);
  // The result's statuses are an authoritative regrade: verify against an
  // independent campaign run.
  const CampaignResult check = run_campaign(nl, faults, result.patterns);
  EXPECT_EQ(result.detected, check.detected) << which;
  for (std::size_t i = 0; i < faults.size(); ++i) {
    EXPECT_EQ(result.status[i] == FaultStatus::kDetected,
              check.fault_detected(i))
        << which << " fault " << i;
  }
  EXPECT_DOUBLE_EQ(result.test_coverage(), 1.0) << which;
}

INSTANTIATE_TEST_SUITE_P(Circuits, TransitionAtpgOnCircuit,
                         ::testing::Values("c17", "rca8", "mul4", "alu8",
                                           "cmp8", "muxtree4", "cnt8"));

TEST(TransitionAtpg, PatternsAreFullySpecifiedPairs) {
  const Netlist nl = circuits::make_ripple_adder(4);
  const auto faults = generate_transition_faults(nl);
  const TransitionAtpgResult r = generate_transition_tests(nl, faults);
  for (const auto& p : r.patterns) {
    EXPECT_EQ(p.care_count(), p.size());
  }
  EXPECT_GT(r.detected, 0u);
}

TEST(TransitionAtpg, ConstantLineIsUntestable) {
  // z = AND(y, NOT a) with y = AND(a, b): z is constant 0 — no transition
  // can ever occur on it.
  Netlist nl;
  const GateId a = nl.add_input("a");
  const GateId b = nl.add_input("b");
  const GateId y = nl.add_gate(GateType::kAnd, {a, b}, "y");
  const GateId na = nl.add_gate(GateType::kNot, {a}, "na");
  const GateId z = nl.add_gate(GateType::kAnd, {y, na}, "z");
  nl.add_output(z, "o");
  nl.finalize();
  std::vector<Fault> faults{
      Fault{z, kStemPin, 1, FaultKind::kTransition},  // slow-to-rise on z
      Fault{z, kStemPin, 0, FaultKind::kTransition},  // slow-to-fall on z
  };
  const TransitionAtpgResult r = generate_transition_tests(nl, faults);
  EXPECT_EQ(r.untestable, 2u);
  EXPECT_EQ(r.detected, 0u);
}

TEST(TransitionAtpg, RejectsOutOfRangeFault) {
  // A gate past the netlist, and a pin past a gate's arity.
  const Netlist nl = circuits::make_ripple_adder(4);
  const auto n = static_cast<GateId>(nl.num_gates());
  GateId two_input = kNoGate;
  for (GateId g = 0; g < nl.num_gates() && two_input == kNoGate; ++g) {
    if (nl.gate(g).fanin.size() == 2) two_input = g;
  }
  ASSERT_NE(two_input, kNoGate);
  for (const Fault& f : {Fault{n, kStemPin, 1, FaultKind::kTransition},
                         Fault{two_input, 2, 0, FaultKind::kTransition}}) {
    EXPECT_THROW(generate_transition_tests(nl, {f}), Error)
        << f.gate << "." << int{f.pin};
  }
}

TEST(TransitionAtpg, BeatsRandomPairsOnRpResistantLogic) {
  const Netlist nl = circuits::make_rp_resistant(2, 12);
  const auto faults = generate_transition_faults(nl);
  const TransitionAtpgResult det = generate_transition_tests(nl, faults);
  EXPECT_DOUBLE_EQ(det.test_coverage(), 1.0);

  Rng rng(3);
  const auto random =
      random_patterns(nl.combinational_inputs().size(), 1024, rng);
  const CampaignResult rand_r = run_campaign(nl, faults, random);
  EXPECT_LT(rand_r.coverage(), det.fault_coverage());
}

// Every PODEM call at budget 0 that needs a backtrack aborts and hands the
// capture test or the launch justification to SAT; the statuses must be
// those of the default budget, where PODEM settles every call.
TEST(TransitionAtpg, SatFallbackMatchesPodem) {
  std::vector<circuits::NamedCircuit> nets = circuits::standard_suite();
  nets.push_back({"rand500", circuits::make_random_logic(32, 500, 1)});
  std::uint64_t sat_calls = 0;
  for (const circuits::NamedCircuit& nc : nets) {
    const auto faults = generate_transition_faults(nc.netlist);
    TransitionAtpgOptions hand_off;
    hand_off.podem.backtrack_limit = 0;
    const TransitionAtpgResult sat =
        generate_transition_tests(nc.netlist, faults, hand_off);
    const TransitionAtpgResult podem =
        generate_transition_tests(nc.netlist, faults);
    EXPECT_EQ(sat.aborted, 0u) << nc.name;
    EXPECT_EQ(podem.aborted, 0u) << nc.name;
    EXPECT_EQ(sat.detected, podem.detected) << nc.name;
    EXPECT_EQ(sat.untestable, podem.untestable) << nc.name;
    sat_calls += sat.sat_calls;
    for (std::size_t i = 0; i < faults.size(); ++i) {
      EXPECT_EQ(sat.status[i], podem.status[i])
          << nc.name << " " << fault_name(nc.netlist, faults[i]);
    }
  }
  EXPECT_GT(sat_calls, 0u);
}

}  // namespace
}  // namespace aidft
