#include "atpg/atpg.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "bench_circuits/generators.hpp"
#include "fsim/campaign.hpp"
#include "fsim/fault_sim.hpp"

namespace aidft {
namespace {

// Verifies a PODEM/SAT cube actually detects its target fault, per the
// fault simulator (the engines must never disagree with the grader).
bool cube_detects(const Netlist& nl, const TestCube& cube, const Fault& f) {
  TestCube filled = cube;
  filled.constant_fill(Val3::kZero);  // any fill must keep detection? No —
  // detection is guaranteed for *some* fill only if the cube's X positions
  // are genuinely don't-care. PODEM guarantees detection for any completion,
  // because the 3-valued proof held with those inputs at X. Test both fills.
  TestCube filled1 = cube;
  filled1.constant_fill(Val3::kOne);
  FaultSimulator fsim(nl);
  std::vector<TestCube> v{filled, filled1};
  fsim.load_batch(pack_patterns(v, 0, 2));
  return fsim.detect_mask(f) == 0b11ull;
}

class PodemOnCircuit : public ::testing::TestWithParam<const char*> {};

TEST_P(PodemOnCircuit, EveryOutcomeIsSound) {
  Netlist nl;
  const std::string which = GetParam();
  for (auto& nc : circuits::standard_suite()) {
    if (which == nc.name) nl = std::move(nc.netlist);
  }
  ASSERT_TRUE(nl.finalized());
  const auto scoap = compute_scoap(nl);
  Podem podem(nl, &scoap);
  const auto faults = collapse_equivalent(nl, generate_stuck_at_faults(nl));
  std::size_t detected = 0, untestable = 0, aborted = 0;
  for (const Fault& f : faults) {
    const AtpgOutcome out = podem.generate(f);
    switch (out.status) {
      case AtpgStatus::kDetected:
        ++detected;
        EXPECT_TRUE(cube_detects(nl, out.cube, f)) << fault_name(nl, f);
        break;
      case AtpgStatus::kUntestable: {
        ++untestable;
        // Cross-check with SAT: must also be UNSAT.
        SatAtpg sat(podem);
        EXPECT_EQ(sat.generate(f).status, AtpgStatus::kUntestable)
            << fault_name(nl, f);
        break;
      }
      case AtpgStatus::kAborted:
        ++aborted;
        break;
    }
  }
  // These circuits are small; PODEM should finish everything.
  EXPECT_EQ(aborted, 0u) << which;
  EXPECT_GT(detected, 0u) << which;
}

INSTANTIATE_TEST_SUITE_P(Circuits, PodemOnCircuit,
                         ::testing::Values("c17", "rca8", "mul4", "alu8",
                                           "parity16", "muxtree4", "cmp8",
                                           "dec4", "rpr4x8", "cnt8"));

class SatAtpgOnCircuit : public ::testing::TestWithParam<const char*> {};

TEST_P(SatAtpgOnCircuit, CubesVerifyAndAgreeWithPodem) {
  Netlist nl;
  const std::string which = GetParam();
  for (auto& nc : circuits::standard_suite()) {
    if (which == nc.name) nl = std::move(nc.netlist);
  }
  ASSERT_TRUE(nl.finalized());
  const auto scoap = compute_scoap(nl);
  Podem podem(nl, &scoap);
  SatAtpg sat(podem);
  const auto faults = collapse_equivalent(nl, generate_stuck_at_faults(nl));
  for (const Fault& f : faults) {
    const AtpgOutcome s = sat.generate(f);
    const AtpgOutcome p = podem.generate(f);
    ASSERT_NE(s.status, AtpgStatus::kAborted) << fault_name(nl, f);
    if (p.status != AtpgStatus::kAborted) {
      EXPECT_EQ(s.status, p.status) << fault_name(nl, f);
    }
    if (s.status == AtpgStatus::kDetected) {
      EXPECT_TRUE(cube_detects(nl, s.cube, f)) << fault_name(nl, f);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Circuits, SatAtpgOnCircuit,
                         ::testing::Values("c17", "rca8", "mul4", "muxtree4",
                                           "cmp8", "dec4", "cnt8"));

TEST(Podem, ProvesRedundantFaultUntestable) {
  // The consensus term t_bc in make_redundant(): its SA0 is the classic
  // redundant fault.
  const Netlist nl = circuits::make_redundant();
  const GateId t3 = nl.find("t_bc_redundant");
  ASSERT_NE(t3, kNoGate);
  Podem podem(nl);
  const AtpgOutcome out =
      podem.generate(Fault{t3, kStemPin, 0, FaultKind::kStuckAt});
  EXPECT_EQ(out.status, AtpgStatus::kUntestable);
  // SAT agrees.
  SatAtpg sat(podem);
  EXPECT_EQ(sat.generate(Fault{t3, kStemPin, 0, FaultKind::kStuckAt}).status,
            AtpgStatus::kUntestable);
}

TEST(Podem, DetectableFaultOnRedundantCircuit) {
  const Netlist nl = circuits::make_redundant();
  const GateId t1 = nl.find("t_ab");
  Podem podem(nl);
  const AtpgOutcome out =
      podem.generate(Fault{t1, kStemPin, 0, FaultKind::kStuckAt});
  ASSERT_EQ(out.status, AtpgStatus::kDetected);
  EXPECT_TRUE(cube_detects(nl, out.cube, Fault{t1, kStemPin, 0, FaultKind::kStuckAt}));
}

TEST(Podem, RespectsBacktrackLimit) {
  const Netlist nl = circuits::make_rp_resistant(2, 16);
  Podem podem(nl);
  PodemOptions opts;
  opts.backtrack_limit = 0;  // any fault needing one backtrack aborts
  const auto faults = generate_stuck_at_faults(nl);
  bool saw_abort_or_quick = true;
  for (const Fault& f : faults) {
    const AtpgOutcome out = podem.generate(f, opts);
    if (out.status == AtpgStatus::kDetected) {
      EXPECT_LE(out.backtracks, 0u);
    }
    (void)saw_abort_or_quick;
  }
}

TEST(Podem, CubesLeaveDontCares) {
  // A 16-input parity tree test for a leaf fault needs all inputs set, but
  // a mux-tree data fault needs only select lines + one data input: most
  // bits stay X.
  const Netlist nl = circuits::make_mux_tree(4);  // 16 data + 4 select
  Podem podem(nl);
  const GateId d0 = nl.find("d[0]");
  const AtpgOutcome out =
      podem.generate(Fault{d0, kStemPin, 1, FaultKind::kStuckAt});
  ASSERT_EQ(out.status, AtpgStatus::kDetected);
  EXPECT_LT(out.cube.care_count(), out.cube.size());
}

// A fault of another (larger) netlist: its gate, or its pin, is out of
// range here. The engines must reject it rather than index past their
// per-gate tables, and stay usable afterwards.
std::vector<Fault> foreign_faults(const Netlist& nl) {
  const auto n = static_cast<GateId>(nl.num_gates());
  const GateId t1 = nl.find("t_ab");  // a 2-input AND
  return {Fault{n, kStemPin, 0, FaultKind::kStuckAt},
          Fault{t1, 2, 1, FaultKind::kStuckAt}};
}

TEST(Podem, RejectsOutOfRangeFault) {
  const Netlist nl = circuits::make_redundant();
  Podem podem(nl);
  for (const Fault& f : foreign_faults(nl)) {
    EXPECT_THROW(podem.generate(f), Error) << f.gate << "." << int{f.pin};
  }
  const GateId t1 = nl.find("t_ab");
  EXPECT_EQ(podem.generate(Fault{t1, kStemPin, 0, FaultKind::kStuckAt}).status,
            AtpgStatus::kDetected);
}

TEST(SatAtpg, RejectsOutOfRangeFault) {
  const Netlist nl = circuits::make_redundant();
  Podem podem(nl);
  SatAtpg sat(podem);
  for (const Fault& f : foreign_faults(nl)) {
    EXPECT_THROW(sat.generate(f), Error) << f.gate << "." << int{f.pin};
  }
  const GateId t1 = nl.find("t_ab");
  EXPECT_EQ(sat.generate(Fault{t1, kStemPin, 0, FaultKind::kStuckAt}).status,
            AtpgStatus::kDetected);
}

TEST(GenerateTests, FullPipelineReachesFullTestCoverage) {
  for (const char* which : {"c17", "rca8", "mul4", "alu8", "cmp8"}) {
    Netlist nl;
    for (auto& nc : circuits::standard_suite()) {
      if (std::string(which) == nc.name) nl = std::move(nc.netlist);
    }
    const auto faults = collapse_equivalent(nl, generate_stuck_at_faults(nl));
    AtpgOptions opts;
    opts.random_patterns = 64;
    const AtpgResult r = generate_tests(nl, faults, opts);
    EXPECT_EQ(r.aborted, 0u) << which;
    EXPECT_DOUBLE_EQ(r.test_coverage(), 1.0) << which;
    // Re-grade the emitted patterns independently: coverage must match.
    const CampaignResult regraded = run_campaign(nl, faults, r.patterns);
    EXPECT_EQ(regraded.detected, r.detected) << which;
  }
}

TEST(GenerateTests, RedundantCircuitReportsUntestable) {
  const Netlist nl = circuits::make_redundant();
  const auto faults = generate_stuck_at_faults(nl);
  const AtpgResult r = generate_tests(nl, faults);
  EXPECT_GT(r.untestable, 0u);
  EXPECT_EQ(r.aborted, 0u);
  EXPECT_DOUBLE_EQ(r.test_coverage(), 1.0);
  EXPECT_LT(r.fault_coverage(), 1.0);
}

TEST(GenerateTests, DeterministicAcrossRuns) {
  const Netlist nl = circuits::make_alu(4);
  const auto faults = collapse_equivalent(nl, generate_stuck_at_faults(nl));
  const AtpgResult a = generate_tests(nl, faults);
  const AtpgResult b = generate_tests(nl, faults);
  ASSERT_EQ(a.patterns.size(), b.patterns.size());
  for (std::size_t i = 0; i < a.patterns.size(); ++i) {
    EXPECT_EQ(a.patterns[i].to_string(), b.patterns[i].to_string());
  }
}

TEST(GenerateTests, FewerPatternsThanRandomForSameCoverage) {
  // The E1 claim in miniature: deterministic patterns reach full coverage
  // with far fewer vectors than random patterns need.
  const Netlist nl = circuits::make_rp_resistant(3, 16);
  const auto faults = collapse_equivalent(nl, generate_stuck_at_faults(nl));
  AtpgOptions opts;
  opts.random_patterns = 32;
  const AtpgResult det = generate_tests(nl, faults, opts);
  EXPECT_DOUBLE_EQ(det.test_coverage(), 1.0);

  Rng rng(123);
  const auto rand_patterns =
      random_patterns(nl.combinational_inputs().size(), 2048, rng);
  const CampaignResult rand_r = run_campaign(nl, faults, rand_patterns);
  EXPECT_LT(rand_r.coverage(), det.test_coverage());
}

TEST(GenerateTests, ScoapGuidanceMatchesCoverageOfLevelHeuristic) {
  // SCOAP guidance is a search-effort optimisation, never a coverage trade:
  // with PODEM alone (no SAT fallback to mask aborts) both orderings must
  // close every testable fault on these circuits, and backtracks are
  // reported either way.
  for (const char* which : {"c17", "rca8", "mul4", "cmp8"}) {
    Netlist nl;
    for (auto& nc : circuits::standard_suite()) {
      if (std::string(which) == nc.name) nl = std::move(nc.netlist);
    }
    const auto faults = collapse_equivalent(nl, generate_stuck_at_faults(nl));
    AtpgOptions opts;
    opts.engine = AtpgEngine::kPodem;
    opts.random_patterns = 0;
    opts.scoap_guidance = true;
    const AtpgResult guided = generate_tests(nl, faults, opts);
    opts.scoap_guidance = false;
    const AtpgResult level = generate_tests(nl, faults, opts);
    EXPECT_GE(guided.test_coverage(), level.test_coverage()) << which;
    EXPECT_EQ(guided.aborted, 0u) << which;
    EXPECT_GT(guided.podem_calls, 0u) << which;
  }
}

TEST(GenerateTests, PodemBacktracksAreReported) {
  // g = AND(a, NOT a) is constant-0, so its SA1 fault is redundant: PODEM
  // must exhaust both values of `a` to prove it, which guarantees at least
  // one backtrack.  The tally must surface in the result (it feeds the E18
  // bench comparison).
  Netlist nl;
  const GateId a = nl.add_input("a");
  const GateId n = nl.add_gate(GateType::kNot, {a}, "n");
  const GateId g = nl.add_gate(GateType::kAnd, {a, n}, "g");
  nl.add_output(g, "z");
  nl.finalize();
  const auto faults = generate_stuck_at_faults(nl);
  AtpgOptions opts;
  opts.engine = AtpgEngine::kPodem;
  opts.random_patterns = 0;
  opts.scoap_guidance = false;
  const AtpgResult r = generate_tests(nl, faults, opts);
  EXPECT_GT(r.podem_calls, 0u);
  EXPECT_GT(r.podem_backtracks, 0u);
}

TEST(Compaction, StaticCompactionPreservesCoverage) {
  const Netlist nl = circuits::make_alu(4);
  const auto faults = collapse_equivalent(nl, generate_stuck_at_faults(nl));
  AtpgOptions opts;
  opts.random_patterns = 0;      // deterministic only → mergeable cubes
  const AtpgResult r = generate_tests(nl, faults, opts);
  // Filled patterns lose the X information, so compaction is tested on
  // raw PODEM cubes instead.
  Podem podem(nl);
  std::vector<TestCube> cubes;
  for (const Fault& f : faults) {
    const AtpgOutcome out = podem.generate(f);
    if (out.status == AtpgStatus::kDetected) cubes.push_back(out.cube);
  }
  auto compacted = compact_static(cubes);
  EXPECT_LT(compacted.size(), cubes.size());
  Rng rng(5);
  fill_cubes(compacted, XFill::kRandom, rng);
  const CampaignResult after = run_campaign(nl, faults, compacted);
  // Every fault that had a cube must still be detected (merging preserves
  // each cube's specified bits).
  EXPECT_GE(after.detected, cubes.size() > 0 ? 1u : 0u);
  std::size_t testable = 0;
  for (const Fault& f : faults) {
    (void)f;
    ++testable;
  }
  EXPECT_EQ(after.detected + (faults.size() - cubes.size()), faults.size());
  (void)r;
}

// One Podem + SatAtpg pair gives every fault the outcome a freshly built
// pair gives it, whatever the pair ran before: faults forward, in reverse,
// and with line justifications on both engines between a fault's PODEM
// call and its SAT call (the SAT call then rescopes the fault).
TEST(AtpgHistory, OutcomesIndependentOfOrder) {
  const Netlist nl = circuits::make_random_logic(32, 500, 1);
  const ScoapResult scoap = compute_scoap(nl);
  const auto faults = collapse_equivalent(nl, generate_stuck_at_faults(nl));
  PodemOptions budget;
  budget.backtrack_limit = 10;  // the pipeline's hand-off budget
  auto same = [](const AtpgOutcome& a, const AtpgOutcome& b) {
    return a.status == b.status && a.cube.bits == b.cube.bits &&
           a.backtracks == b.backtracks && a.decisions == b.decisions &&
           a.implications == b.implications && a.events == b.events;
  };
  std::vector<AtpgOutcome> fresh_podem, fresh_sat;
  for (const Fault& f : faults) {
    Podem podem(nl, &scoap);
    fresh_podem.push_back(podem.generate(f, budget));
    Podem borrowed(nl, &scoap);
    fresh_sat.push_back(SatAtpg(borrowed).generate(f));
  }

  Podem podem(nl, &scoap);
  SatAtpg sat(podem);
  std::vector<std::size_t> order(faults.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  auto run = [&](const char* pass, bool interleave) {
    for (std::size_t k = 0; k < order.size(); ++k) {
      const std::size_t i = order[k];
      const AtpgOutcome p = podem.generate(faults[i], budget);
      if (interleave) {
        const auto line = static_cast<GateId>((7 * k) % nl.num_gates());
        const Val3 v = k % 2 ? Val3::kOne : Val3::kZero;
        podem.justify(line, v);
        sat.justify(line, v);
      }
      const AtpgOutcome s = sat.generate(faults[i]);
      EXPECT_TRUE(same(p, fresh_podem[i])) << pass << " PODEM "
                                           << fault_name(nl, faults[i]);
      EXPECT_TRUE(same(s, fresh_sat[i])) << pass << " SAT "
                                         << fault_name(nl, faults[i]);
    }
  };
  run("forward", false);
  std::reverse(order.begin(), order.end());
  run("reverse", false);
  std::reverse(order.begin(), order.end());
  run("interleaved", true);
}

TEST(XFill, AllStrategiesProduceFullySpecified) {
  std::vector<TestCube> cubes(3, TestCube(8));
  cubes[0].bits[2] = Val3::kOne;
  Rng rng(1);
  for (XFill f : {XFill::kZero, XFill::kOne, XFill::kRandom}) {
    auto copy = cubes;
    fill_cubes(copy, f, rng);
    for (const auto& c : copy) EXPECT_EQ(c.care_count(), c.size());
  }
}

}  // namespace
}  // namespace aidft
