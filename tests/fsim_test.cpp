#include "fsim/campaign.hpp"
#include "fsim/fault_sim.hpp"

#include <gtest/gtest.h>

#include "bench_circuits/generators.hpp"
#include "common/rng.hpp"
#include "test_util.hpp"

namespace aidft {
namespace {

// detect_mask must equal the oracle on partial batches too: `lane_mask` is
// then not all ones, and the early exit compares the mask against the
// activated lanes within it.
void expect_partial_batches_agree(const Netlist& nl, std::uint64_t seed) {
  const auto faults = generate_stuck_at_faults(nl);
  Rng rng(seed);
  const auto cubes = random_patterns(nl.combinational_inputs().size(), 64, rng);
  for (std::size_t count : {1, 37, 63}) {
    const PatternBatch batch = pack_patterns(cubes, 0, count);
    FaultSimulator fsim(nl);
    fsim.load_batch(batch);
    for (const Fault& f : faults) {
      EXPECT_EQ(fsim.detect_mask(f), fsim.detect_mask_reference(batch, f))
          << fault_name(nl, f) << " with " << count << " patterns";
    }
  }
}

// The mask-only path may stop early; the detailed path never does, and the
// union of its per-observe-point diffs is by definition the detect mask.
void expect_mask_is_or_of_detailed_diffs(const Netlist& nl,
                                         std::uint64_t seed) {
  const auto faults = generate_stuck_at_faults(nl);
  Rng rng(seed);
  const auto cubes = random_patterns(nl.combinational_inputs().size(), 64, rng);
  FaultSimulator fsim(nl);
  fsim.load_batch(pack_patterns(cubes, 0, 64));
  std::vector<OpDiff> pairs;
  for (const Fault& f : faults) {
    const std::uint64_t detailed = fsim.detect_mask_detailed(f, pairs);
    const std::vector<std::uint64_t> diffs =
        test::dense_diffs(pairs, nl.observe_points().size());
    std::uint64_t any = 0;
    for (std::uint64_t d : diffs) any |= d;
    EXPECT_EQ(detailed, any) << fault_name(nl, f);
    EXPECT_EQ(fsim.detect_mask(f), any) << fault_name(nl, f);
  }
}

Netlist suite_circuit(const std::string& which) {
  Netlist nl;
  for (auto& nc : circuits::standard_suite()) {
    if (which == nc.name) nl = std::move(nc.netlist);
  }
  return nl;
}

// The fundamental engine property: PPSFP must agree with full-resimulation
// on every fault and every pattern, over randomly structured circuits.
class PpsfpVsReference : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PpsfpVsReference, AgreeOnRandomLogic) {
  const std::uint64_t seed = GetParam();
  const Netlist nl = circuits::make_random_logic(10, 250, seed);
  const auto faults = generate_stuck_at_faults(nl);
  Rng rng(seed * 17 + 1);
  const auto cubes = random_patterns(nl.combinational_inputs().size(), 64, rng);
  const PatternBatch batch = pack_patterns(cubes, 0, 64);

  FaultSimulator fsim(nl);
  fsim.load_batch(batch);
  for (const Fault& f : faults) {
    EXPECT_EQ(fsim.detect_mask(f), fsim.detect_mask_reference(batch, f))
        << fault_name(nl, f);
  }
}

TEST_P(PpsfpVsReference, AgreeOnPartialBatches) {
  const std::uint64_t seed = GetParam();
  expect_partial_batches_agree(circuits::make_random_logic(10, 250, seed),
                               seed * 29 + 3);
}

TEST_P(PpsfpVsReference, DetectMaskIsOrOfDetailedDiffs) {
  const std::uint64_t seed = GetParam();
  expect_mask_is_or_of_detailed_diffs(
      circuits::make_random_logic(10, 250, seed), seed * 41 + 5);
}

TEST_P(PpsfpVsReference, ReusedSimulatorMatchesFreshInEitherOrder) {
  // An early exit leaves queued work behind; it must be cleared so the next
  // fault starts clean. Grading the list forward and then reversed on one
  // simulator puts every fault after a different predecessor, and each
  // mask must equal what a fresh simulator computes for that fault alone.
  const std::uint64_t seed = GetParam();
  const Netlist nl = circuits::make_random_logic(10, 250, seed);
  const auto faults = generate_stuck_at_faults(nl);
  Rng rng(seed * 23 + 9);
  const auto cubes = random_patterns(nl.combinational_inputs().size(), 64, rng);
  const PatternBatch batch = pack_patterns(cubes, 0, 64);

  std::vector<std::uint64_t> fresh(faults.size());
  for (std::size_t i = 0; i < faults.size(); ++i) {
    FaultSimulator one(nl);
    one.load_batch(batch);
    fresh[i] = one.detect_mask(faults[i]);
  }
  FaultSimulator reused(nl);
  reused.load_batch(batch);
  for (std::size_t i = 0; i < faults.size(); ++i) {
    EXPECT_EQ(reused.detect_mask(faults[i]), fresh[i])
        << "forward " << fault_name(nl, faults[i]);
  }
  for (std::size_t i = faults.size(); i-- > 0;) {
    EXPECT_EQ(reused.detect_mask(faults[i]), fresh[i])
        << "reversed " << fault_name(nl, faults[i]);
  }
  EXPECT_GT(reused.early_exits(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PpsfpVsReference,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11,
                                           12, 13, 14, 15, 16));

class PpsfpVsReferenceStructured
    : public ::testing::TestWithParam<const char*> {};

TEST_P(PpsfpVsReferenceStructured, AgreeOnSuiteCircuit) {
  const Netlist nl = suite_circuit(GetParam());
  ASSERT_TRUE(nl.finalized()) << "unknown circuit " << GetParam();
  const auto faults = generate_stuck_at_faults(nl);
  Rng rng(5);
  const auto cubes = random_patterns(nl.combinational_inputs().size(), 64, rng);
  const PatternBatch batch = pack_patterns(cubes, 0, 64);
  FaultSimulator fsim(nl);
  fsim.load_batch(batch);
  for (const Fault& f : faults) {
    EXPECT_EQ(fsim.detect_mask(f), fsim.detect_mask_reference(batch, f))
        << fault_name(nl, f);
  }
}

TEST_P(PpsfpVsReferenceStructured, AgreeOnPartialBatches) {
  const Netlist nl = suite_circuit(GetParam());
  ASSERT_TRUE(nl.finalized()) << "unknown circuit " << GetParam();
  expect_partial_batches_agree(nl, 13);
}

TEST_P(PpsfpVsReferenceStructured, DetectMaskIsOrOfDetailedDiffs) {
  const Netlist nl = suite_circuit(GetParam());
  ASSERT_TRUE(nl.finalized()) << "unknown circuit " << GetParam();
  expect_mask_is_or_of_detailed_diffs(nl, 17);
}

INSTANTIATE_TEST_SUITE_P(Circuits, PpsfpVsReferenceStructured,
                         ::testing::Values("c17", "rca8", "cla16", "mul4",
                                           "alu8", "parity16", "muxtree4",
                                           "cmp8", "dec4", "rpr4x8", "cnt8",
                                           "mac8"));

TEST(FaultSim, KnownC17Detection) {
  // Classic example: with all inputs at 1, G11 (NAND(G3,G6)) is 0; fault
  // G11/SA1 flips it and propagates to both outputs.
  const Netlist nl = circuits::make_c17();
  std::vector<TestCube> cubes(1, TestCube(5));
  cubes[0].constant_fill(Val3::kOne);
  FaultSimulator fsim(nl);
  fsim.load_batch(pack_patterns(cubes, 0, 1));
  const Fault f{nl.find("G11"), kStemPin, 1, FaultKind::kStuckAt};
  EXPECT_EQ(fsim.detect_mask(f), 1ull);
  // G11/SA0 is not activated by this pattern (good value is already 0).
  const Fault f0{nl.find("G11"), kStemPin, 0, FaultKind::kStuckAt};
  EXPECT_EQ(fsim.detect_mask(f0), 0ull);
}

TEST(FaultSim, UnactivatedFaultNotDetected) {
  const Netlist nl = circuits::make_ripple_adder(4);
  // All zeros: any SA0 on a line already at 0 cannot be detected.
  std::vector<TestCube> cubes(1, TestCube(nl.combinational_inputs().size()));
  cubes[0].constant_fill(Val3::kZero);
  FaultSimulator fsim(nl);
  fsim.load_batch(pack_patterns(cubes, 0, 1));
  for (const Fault& f : generate_stuck_at_faults(nl)) {
    if (!f.stuck_at_one() && fsim.line_value(f) == 0) {
      EXPECT_EQ(fsim.detect_mask(f), 0ull) << fault_name(nl, f);
    }
  }
}

TEST(FaultSim, DffPinFaultIsCaptureDetected) {
  // in -> DFF: a SA on the D pin is detected exactly when the driver value
  // differs from the stuck value.
  Netlist nl;
  const GateId a = nl.add_input("a");
  const GateId b = nl.add_input("b");
  const GateId g = nl.add_gate(GateType::kAnd, {a, b}, "g");
  const GateId g2 = nl.add_gate(GateType::kOr, {g, a}, "g2");  // make g fork
  const GateId ff = nl.add_dff(g, "ff");
  nl.add_output(ff, "q");
  nl.add_output(g2, "y");
  nl.finalize();
  ASSERT_EQ(nl.topology().fanout_size(g), 2u);

  std::vector<TestCube> cubes;
  for (int m = 0; m < 4; ++m) {
    TestCube c(3);  // inputs a, b + DFF pseudo-input
    c.bits = {(m & 1) ? Val3::kOne : Val3::kZero,
              (m & 2) ? Val3::kOne : Val3::kZero, Val3::kZero};
    cubes.push_back(c);
  }
  FaultSimulator fsim(nl);
  fsim.load_batch(pack_patterns(cubes, 0, 4));
  const Fault d_sa0{ff, 0, 0, FaultKind::kStuckAt};
  // g = a&b is 1 only in lane 3; SA0 on the D pin detected only there.
  EXPECT_EQ(fsim.detect_mask(d_sa0), 0b1000ull);
  const Fault d_sa1{ff, 0, 1, FaultKind::kStuckAt};
  EXPECT_EQ(fsim.detect_mask(d_sa1), 0b0111ull);
}

TEST(FaultSim, DffPinDetailedMatchesReference) {
  // A D-pin fault fails only its own flop's observe point, by exactly the
  // lanes the reference engine detects.
  const Netlist nl = circuits::make_mac(4, /*registered=*/true);
  const auto points = nl.observe_points();
  Rng rng(8);
  const auto cubes = random_patterns(nl.combinational_inputs().size(), 64, rng);
  const PatternBatch batch = pack_patterns(cubes, 0, 64);
  FaultSimulator fsim(nl);
  fsim.load_batch(batch);
  std::size_t flops = 0;
  std::vector<OpDiff> pairs;
  for (std::size_t op = 0; op < points.size(); ++op) {
    if (nl.type(points[op]) != GateType::kDff) continue;
    ++flops;
    for (std::uint8_t v : {0, 1}) {
      const Fault f{points[op], 0, v, FaultKind::kStuckAt};
      const std::uint64_t mask = fsim.detect_mask_detailed(f, pairs);
      const std::vector<std::uint64_t> op_diffs =
          test::dense_diffs(pairs, points.size());
      EXPECT_EQ(mask, fsim.detect_mask_reference(batch, f)) << fault_name(nl, f);
      ASSERT_EQ(op_diffs.size(), points.size());
      for (std::size_t i = 0; i < points.size(); ++i) {
        EXPECT_EQ(op_diffs[i], i == op ? mask : 0) << fault_name(nl, f) << " " << i;
      }
    }
  }
  EXPECT_GT(flops, 0u);
}

TEST(FaultSim, CampaignCoverageMonotone) {
  const Netlist nl = circuits::make_array_multiplier(5);
  const auto faults = generate_stuck_at_faults(nl);
  Rng rng(2);
  const auto patterns = random_patterns(nl.combinational_inputs().size(), 192, rng);
  const CampaignResult r = run_campaign(nl, faults, patterns);
  ASSERT_EQ(r.detected_after.size(), patterns.size());
  for (std::size_t i = 1; i < r.detected_after.size(); ++i) {
    EXPECT_GE(r.detected_after[i], r.detected_after[i - 1]);
  }
  EXPECT_EQ(r.detected_after.back(), r.detected);
  EXPECT_GT(r.coverage(), 0.85);  // multipliers are random-pattern friendly
}

TEST(FaultSim, CampaignMatchesReferenceCampaign) {
  const Netlist nl = circuits::make_alu(4);
  const auto faults = generate_stuck_at_faults(nl);
  Rng rng(9);
  const auto patterns = random_patterns(nl.combinational_inputs().size(), 64, rng);
  const test::FirstDetections fast =
      test::first_detections(nl, faults, patterns);
  const test::FirstDetections ref = test::first_detections(
      nl, faults, patterns, {.engine = CampaignEngine::kReference});
  EXPECT_EQ(fast.result.detected, ref.result.detected);
  EXPECT_EQ(fast.result.detected_bits, ref.result.detected_bits);
  EXPECT_EQ(fast.result.detected_after, ref.result.detected_after);
  ASSERT_EQ(fast.first.size(), ref.first.size());
  for (std::size_t i = 0; i < faults.size(); ++i) {
    EXPECT_EQ(fast.first[i], ref.first[i]) << fault_name(nl, faults[i]);
  }
}

TEST(FaultSim, RpResistantEscapesRandomPatterns) {
  // Wide AND cones: SA0 at the cone output needs all 12 inputs at 1, which
  // 64 random patterns essentially never produce.
  const Netlist nl = circuits::make_rp_resistant(2, 12);
  const auto faults = generate_stuck_at_faults(nl);
  Rng rng(4);
  const auto patterns = random_patterns(nl.combinational_inputs().size(), 64, rng);
  const CampaignResult r = run_campaign(nl, faults, patterns);
  EXPECT_LT(r.coverage(), 1.0);
}

TEST(FaultSim, TransitionNeedsLaunchTransition) {
  // y = BUF(a). Slow-to-rise on a needs launch a=0, capture a=1.
  Netlist nl;
  const GateId a = nl.add_input("a");
  const GateId y = nl.add_gate(GateType::kBuf, {a}, "y");
  nl.add_output(y, "o");
  nl.finalize();
  FaultSimulator fsim(nl);
  auto batch_of = [&](std::initializer_list<int> bits) {
    std::vector<TestCube> cubes;
    for (int b : bits) {
      TestCube c(1);
      c.bits[0] = b ? Val3::kOne : Val3::kZero;
      cubes.push_back(c);
    }
    return pack_patterns(cubes, 0, cubes.size());
  };
  const Fault str{a, kStemPin, 1, FaultKind::kTransition};  // slow-to-rise
  // Capture lane must have a=1 (propagating SA0) AND launch lane a=0.
  fsim.load_batch(batch_of({1, 1}));
  fsim.load_launch_batch(batch_of({0, 1}));
  EXPECT_EQ(fsim.detect_mask(str), 0b01ull);  // lane1 launch=1: not armed
  fsim.load_launch_batch(batch_of({0, 0}));
  EXPECT_EQ(fsim.detect_mask(str), 0b11ull);
  fsim.load_batch(batch_of({0, 0}));  // capture can't propagate SA0 on a=0
  fsim.load_launch_batch(batch_of({0, 0}));
  EXPECT_EQ(fsim.detect_mask(str), 0ull);
}

TEST(FaultSim, EarlyExitAtInjectionOnObservedFanoutGate) {
  // g = AND(a, b) drives the D pin of flop q (so g itself is observed) and
  // fans out to h = OR(g, c) -> output z. g is its own region's root, and
  // flipping it is detected at q on every lane, so the root's mask-only
  // propagation stops at injection; the detailed path still propagates to
  // z.
  Netlist nl;
  const GateId a = nl.add_input("a");
  const GateId b = nl.add_input("b");
  const GateId c = nl.add_input("c");
  const GateId g = nl.add_gate(GateType::kAnd, {a, b}, "g");
  const GateId h = nl.add_gate(GateType::kOr, {g, c}, "h");
  const GateId z = nl.add_output(h, "z");
  const GateId q = nl.add_dff(g, "q");
  nl.finalize();

  // Lane m applies a, b, c = bits 0, 1, 2 of m; the flop loads 0.
  std::vector<TestCube> cubes;
  for (int m = 0; m < 8; ++m) {
    TestCube cube(nl.combinational_inputs().size());
    cube.constant_fill(Val3::kZero);
    for (std::size_t i = 0; i < 3; ++i) {
      cube.bits[i] = (m >> i) & 1 ? Val3::kOne : Val3::kZero;
    }
    cubes.push_back(cube);
  }
  const PatternBatch batch = pack_patterns(cubes, 0, cubes.size());
  FaultSimulator fsim(nl);
  fsim.load_batch(batch);

  const Fault g_sa0{g, kStemPin, 0, FaultKind::kStuckAt};
  const std::uint64_t ab = 0b1000'1000;  // a = b = 1
  const std::uint64_t events_before = fsim.events_simulated();
  EXPECT_EQ(fsim.detect_mask(g_sa0), ab);
  // The local walk's injection at g, then the root's propagation of g,
  // which stops at its injection.
  EXPECT_EQ(fsim.events_simulated() - events_before, 2u);
  EXPECT_EQ(fsim.local_walks(), 1u);
  EXPECT_EQ(fsim.root_propagations(), 1u);
  EXPECT_EQ(fsim.early_exits(), 1u);

  // Later faults start clean: nothing queued by g_sa0 was left behind.
  for (const Fault& f : generate_stuck_at_faults(nl)) {
    EXPECT_EQ(fsim.detect_mask(f), fsim.detect_mask_reference(batch, f))
        << fault_name(nl, f);
  }

  std::vector<OpDiff> pairs;
  EXPECT_EQ(fsim.detect_mask_detailed(g_sa0, pairs), ab);
  const std::vector<GateId> points = nl.observe_points();
  const std::vector<std::uint64_t> diffs =
      test::dense_diffs(pairs, points.size());
  ASSERT_EQ(diffs.size(), points.size());
  for (std::size_t i = 0; i < points.size(); ++i) {
    // z = g | c fails only where c = 0.
    const std::uint64_t want = points[i] == q   ? ab
                               : points[i] == z ? 0b0000'1000ull
                                                : 0;
    EXPECT_EQ(diffs[i], want) << nl.name_of(points[i]);
  }
}

TEST(FaultSim, TransitionEarlyExitKeepsLaunchArming) {
  // TransitionNeedsLaunchTransition's expectations on a site that is
  // observed and also fans out: y = BUF(a) drives flop q's D pin and
  // n = NOT(y) -> output o, so the stuck-at call exits at injection.
  Netlist nl;
  const GateId a = nl.add_input("a");
  const GateId y = nl.add_gate(GateType::kBuf, {a}, "y");
  const GateId n = nl.add_gate(GateType::kNot, {y}, "n");
  nl.add_output(n, "o");
  nl.add_dff(y, "q");
  nl.finalize();
  FaultSimulator fsim(nl);
  auto batch_of = [&](std::initializer_list<int> bits) {
    std::vector<TestCube> cubes;
    for (int b : bits) {
      TestCube c(nl.combinational_inputs().size());
      c.constant_fill(Val3::kZero);
      c.bits[0] = b ? Val3::kOne : Val3::kZero;
      cubes.push_back(c);
    }
    return pack_patterns(cubes, 0, cubes.size());
  };
  const Fault str{y, kStemPin, 1, FaultKind::kTransition};  // slow-to-rise
  // Capture lane must have a=1 (propagating SA0) AND launch lane a=0.
  fsim.load_batch(batch_of({1, 1}));
  fsim.load_launch_batch(batch_of({0, 1}));
  EXPECT_EQ(fsim.detect_mask(str), 0b01ull);  // lane1 launch=1: not armed
  EXPECT_EQ(fsim.early_exits(), 1u);
  fsim.load_launch_batch(batch_of({0, 0}));
  EXPECT_EQ(fsim.detect_mask(str), 0b11ull);
  fsim.load_batch(batch_of({0, 0}));  // capture can't propagate SA0 on a=0
  fsim.load_launch_batch(batch_of({0, 0}));
  EXPECT_EQ(fsim.detect_mask(str), 0ull);
  const Fault stf{y, kStemPin, 0, FaultKind::kTransition};  // slow-to-fall
  fsim.load_launch_batch(batch_of({1, 0}));
  EXPECT_EQ(fsim.detect_mask(stf), 0b01ull);  // lane1 launch=0: not armed
}

TEST(FaultSim, TransitionCampaignUsesConsecutivePairs) {
  const Netlist nl = circuits::make_ripple_adder(4);
  const auto faults = generate_transition_faults(nl);
  Rng rng(21);
  const auto patterns = random_patterns(nl.combinational_inputs().size(), 256, rng);
  const CampaignResult r = run_campaign(nl, faults, patterns);
  // Random consecutive pairs both arm and detect most transition faults on
  // an adder.
  EXPECT_GT(r.coverage(), 0.7);
  // Pattern 0 can never be a capture pattern with an armed launch: no
  // fault's first detection is pattern 0.
  EXPECT_EQ(r.detected_after[0], 0u);
}

TEST(FaultSim, DetailedDiffsReachEveryPointObservingAGate) {
  // g drives PO marker y and the D pins of flops q1..q3, so three observe
  // points watch g itself and a fourth watches its marker. A diff on g
  // lands on all four, while a D-pin fault fails only its own flop's point.
  Netlist nl;
  const GateId a = nl.add_input("a");
  const GateId b = nl.add_input("b");
  const GateId g = nl.add_gate(GateType::kAnd, {a, b}, "g");
  const GateId h = nl.add_gate(GateType::kOr, {a, b}, "h");
  const GateId y = nl.add_output(g, "y");
  const GateId z = nl.add_output(h, "z");
  const GateId q1 = nl.add_dff(g, "q1");
  const GateId q2 = nl.add_dff(g, "q2");
  const GateId q3 = nl.add_dff(g, "q3");
  nl.finalize();

  // Lane m applies a = bit 0 and b = bit 1 of m; the flops load 0.
  std::vector<TestCube> cubes;
  for (int m = 0; m < 4; ++m) {
    TestCube c(nl.combinational_inputs().size());
    c.constant_fill(Val3::kZero);
    c.bits[0] = (m & 1) ? Val3::kOne : Val3::kZero;
    c.bits[1] = (m & 2) ? Val3::kOne : Val3::kZero;
    cubes.push_back(c);
  }
  FaultSimulator fsim(nl);
  fsim.load_batch(pack_patterns(cubes, 0, cubes.size()));

  const std::vector<GateId> points = nl.observe_points();
  using PointDiffs = std::vector<std::pair<GateId, std::uint64_t>>;
  auto expect_diffs = [&](const Fault& f, const PointDiffs& want) {
    std::vector<OpDiff> pairs;
    std::uint64_t any = 0;
    for (const auto& [point, word] : want) any |= word;
    EXPECT_EQ(fsim.detect_mask_detailed(f, pairs), any) << fault_name(nl, f);
    const std::vector<std::uint64_t> diffs =
        test::dense_diffs(pairs, points.size());
    ASSERT_EQ(diffs.size(), points.size());
    for (std::size_t i = 0; i < points.size(); ++i) {
      std::uint64_t expected = 0;
      for (const auto& [point, word] : want) {
        if (point == points[i]) expected = word;
      }
      EXPECT_EQ(diffs[i], expected)
          << fault_name(nl, f) << " at " << nl.name_of(points[i]);
    }
  };
  const std::uint64_t ab = 0b1000, a_or_b = 0b1110;
  expect_diffs(Fault{g, kStemPin, 0, FaultKind::kStuckAt},
               {{y, ab}, {q1, ab}, {q2, ab}, {q3, ab}});
  expect_diffs(Fault{h, kStemPin, 0, FaultKind::kStuckAt}, {{z, a_or_b}});
  expect_diffs(Fault{q1, 0, 1, FaultKind::kStuckAt}, {{q1, 0b0111}});
  expect_diffs(Fault{q3, 0, 1, FaultKind::kStuckAt}, {{q3, 0b0111}});
  expect_diffs(Fault{y, kStemPin, 1, FaultKind::kStuckAt}, {{y, 0b0111}});
}

// Each observe point's failing lanes under stuck-at `f`, from two full
// sweeps: (good ^ faulty) & lane_mask. A DFF D-pin fault fails only its own
// flop's point, by the lanes on which the pin's driver differs from the
// stuck value.
std::vector<std::uint64_t> sweep_diffs(const Netlist& nl,
                                       const PatternBatch& batch,
                                       const Fault& f) {
  const std::vector<GateId> points = nl.observe_points();
  const std::vector<GateId> inputs = nl.combinational_inputs();
  std::vector<std::uint64_t> good(nl.num_gates(), 0);
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    good[inputs[i]] = batch.words[i];
  }
  std::vector<std::uint64_t> faulty = good;
  full_sweep(nl, good, nullptr);
  full_sweep(nl, faulty, &f);
  const bool d_pin = !f.is_stem() && nl.type(f.gate) == GateType::kDff;
  const std::uint64_t stuck = f.stuck_at_one() ? ~0ull : 0ull;
  std::vector<std::uint64_t> want(points.size(), 0);
  for (std::size_t i = 0; i < points.size(); ++i) {
    const GateId og = nl.observed_gate(points[i]);
    if (d_pin) {
      want[i] = points[i] == f.gate ? good[og] ^ stuck : 0;
    } else {
      want[i] = good[og] ^ faulty[og];
    }
    want[i] &= batch.lane_mask();
  }
  return want;
}

// The pair contract of detect_mask_detailed against two full sweeps per
// fault: every collapsed fault's pairs name distinct points with nonzero
// words, OR to the mask, and scatter to sweep_diffs().
void expect_pairs_match_sweeps(const Netlist& nl,
                               const std::vector<TestCube>& cubes,
                               std::size_t count, const std::string& label) {
  const PatternBatch batch = pack_patterns(cubes, 0, count);
  const std::size_t num_points = nl.num_observe_points();
  FaultSimulator fsim(nl);
  fsim.load_batch(batch);
  std::vector<OpDiff> pairs;
  std::size_t reached = 0;
  for (const Fault& f : collapse_equivalent(nl, generate_stuck_at_faults(nl))) {
    const std::string what = label + " " + fault_name(nl, f);
    const std::uint64_t mask = fsim.detect_mask_detailed(f, pairs);
    std::vector<bool> seen(num_points, false);
    std::uint64_t any = 0;
    for (const OpDiff& d : pairs) {
      ASSERT_LT(d.op, num_points) << what;
      EXPECT_FALSE(seen[d.op]) << what << ": point " << d.op << " twice";
      seen[d.op] = true;
      EXPECT_NE(d.word, 0ull) << what << ": zero word at point " << d.op;
      any |= d.word;
    }
    EXPECT_EQ(mask, any) << what;
    reached += pairs.size();
    EXPECT_EQ(test::dense_diffs(pairs, num_points), sweep_diffs(nl, batch, f))
        << what;
  }
  EXPECT_GT(reached, 0u) << label;
}

TEST(FaultSim, DetailedPairsMatchReferenceSweeps) {
  const Netlist mac = circuits::make_mac(8, /*registered=*/true);
  Rng rng(31);
  const auto mac_cubes =
      random_patterns(mac.combinational_inputs().size(), 64, rng);
  expect_pairs_match_sweeps(mac, mac_cubes, 64, "mac8");
  expect_pairs_match_sweeps(mac, mac_cubes, 37, "mac8 partial");

  // One net drives three D pins and a PO; flop outputs feed more logic.
  Netlist nl("shared_d");
  const GateId a = nl.add_input("a");
  const GateId b = nl.add_input("b");
  const GateId c = nl.add_input("c");
  const GateId g = nl.add_gate(GateType::kAnd, {a, b}, "g");
  const GateId h = nl.add_gate(GateType::kXor, {g, c}, "h");
  nl.add_output(g, "y");
  const GateId q1 = nl.add_dff(g, "q1");
  nl.add_dff(g, "q2");
  const GateId q3 = nl.add_dff(h, "q3");
  nl.add_dff(g, "q4");
  const GateId k = nl.add_gate(GateType::kOr, {q1, q3}, "k");
  nl.add_output(nl.add_gate(GateType::kNand, {k, h}, "m"), "z");
  nl.add_output(nl.add_gate(GateType::kNor, {h, a}, "n"), "w");
  nl.finalize();
  auto cubes = random_patterns(nl.combinational_inputs().size(), 64, rng);
  expect_pairs_match_sweeps(nl, cubes, 64, "shared_d");
  expect_pairs_match_sweeps(nl, cubes, 37, "shared_d partial");
  // Every live lane holds a = 1 and the dead lanes a = 0, so a fault on g
  // or h changes n = NOR(h, a) on dead lanes only: n's point must not be
  // listed, even though the fault propagates through it.
  for (TestCube& cube : cubes) cube.bits[0] = Val3::kOne;
  expect_pairs_match_sweeps(nl, cubes, 37, "shared_d a=1 partial");
}

TEST(FaultSim, MovedSimulatorGradesIdentically) {
  // The good-machine values live in the simulator's own ParallelSimulator;
  // moving the simulator after load_batch() (as campaign shards held in
  // std::optional or a growing vector are) must not change a single mask.
  const Netlist nl = circuits::make_mac(4, /*registered=*/true);
  const auto faults = generate_stuck_at_faults(nl);
  Rng rng(5);
  const auto cubes = random_patterns(nl.combinational_inputs().size(), 64, rng);
  const PatternBatch batch = pack_patterns(cubes, 0, 64);
  FaultSimulator fixed(nl);
  fixed.load_batch(batch);

  std::vector<FaultSimulator> sims;
  sims.emplace_back(nl);
  sims.front().load_batch(batch);
  for (int i = 0; i < 8; ++i) sims.emplace_back(nl);  // reallocates: moves
  FaultSimulator moved = std::move(sims.front());
  sims.clear();

  std::vector<OpDiff> want, got;
  for (const Fault& f : faults) {
    EXPECT_EQ(moved.detect_mask(f), fixed.detect_mask(f)) << fault_name(nl, f);
    EXPECT_EQ(moved.detect_mask_detailed(f, got),
              fixed.detect_mask_detailed(f, want));
    EXPECT_EQ(got, want) << fault_name(nl, f);
    EXPECT_EQ(moved.line_value(f), fixed.line_value(f)) << fault_name(nl, f);
  }
}

TEST(FaultSim, EmptyInputsAreHandled) {
  const Netlist nl = circuits::make_c17();
  const auto faults = generate_stuck_at_faults(nl);
  const CampaignResult r0 = run_campaign(nl, faults, {});
  EXPECT_EQ(r0.detected, 0u);
  Rng rng(1);
  const CampaignResult r1 = run_campaign(nl, std::span<const Fault>{},
                                               random_patterns(5, 8, rng));
  EXPECT_EQ(r1.total_faults, 0u);
  EXPECT_EQ(r1.coverage(), 1.0);
}

// --- fanout-free regions ---------------------------------------------------
// A stuck-at fault is graded by a local walk to its region's root and the
// root's cached observability. Each hand-built circuit below puts a region
// boundary where the walk could go wrong. Every stuck-at fault must match
// the reference engine (mask-only and detailed) and the full sweeps
// (pairs), on one simulator reused across two batches of different sizes.
// Each fault is graded mask-only first, so detailed grading also meets
// roots whose cache entry holds the mask alone.
void expect_regions_match_oracles(const Netlist& nl, std::uint64_t seed) {
  Rng rng(seed);
  FaultSimulator fsim(nl);
  std::vector<OpDiff> pairs;
  std::size_t detected = 0;
  for (std::size_t count : {64, 37}) {
    const auto cubes =
        random_patterns(nl.num_combinational_inputs(), count, rng);
    const PatternBatch batch = pack_patterns(cubes, 0, count);
    fsim.load_batch(batch);
    for (const Fault& f : generate_stuck_at_faults(nl)) {
      const std::string what =
          fault_name(nl, f) + " with " + std::to_string(count) + " patterns";
      const std::uint64_t want = fsim.detect_mask_reference(batch, f);
      EXPECT_EQ(fsim.detect_mask(f), want) << what;
      EXPECT_EQ(fsim.detect_mask_detailed(f, pairs), want) << what;
      EXPECT_EQ(test::dense_diffs(pairs, nl.num_observe_points()),
                sweep_diffs(nl, batch, f))
          << what;
      detected += want != 0;
    }
  }
  EXPECT_GT(detected, 0u);
}

// All 2^n combinational-input values (n <= 6) in one batch: input i at
// bit i of the lane index.
PatternBatch exhaustive_batch(const Netlist& nl) {
  const auto cubes = test::exhaustive_patterns(nl.num_combinational_inputs());
  return pack_patterns(cubes, 0, cubes.size());
}

Fault stuck(GateId g, std::uint8_t pin, std::uint8_t value) {
  return {g, pin, value, FaultKind::kStuckAt};
}

TEST(FfrRegion, GateReadingOneNetOnTwoPinsIsARoot) {
  // h = XOR(g, c, g) reads g on two pins, so a flip of g cancels in h:
  // g ends its region, and its faults are undetectable. m = OR(k, c, k)
  // reads k twice and passes a flip of k wherever c = 0.
  Netlist nl;
  const GateId a = nl.add_input("a");
  const GateId b = nl.add_input("b");
  const GateId c = nl.add_input("c");
  const GateId d = nl.add_input("d");
  const GateId g = nl.add_gate(GateType::kNand, {a, b}, "g");
  nl.add_output(nl.add_gate(GateType::kXor, {g, c, g}, "h"), "y");
  const GateId k = nl.add_gate(GateType::kAnd, {a, d}, "k");
  nl.add_output(nl.add_gate(GateType::kOr, {k, c, k}, "m"), "z");
  nl.finalize();
  expect_regions_match_oracles(nl, 1);

  FaultSimulator fsim(nl);
  fsim.load_batch(exhaustive_batch(nl));
  EXPECT_EQ(fsim.detect_mask(stuck(g, kStemPin, 0)), 0u);
  EXPECT_EQ(fsim.detect_mask(stuck(g, kStemPin, 1)), 0u);
  // Inputs a-d at lane bits 0-3: k = 1 needs a = d = 1, and z sees k's
  // flip where c = 0 (lanes 9 and 11).
  EXPECT_EQ(fsim.detect_mask(stuck(k, kStemPin, 0)), 0x0A00ull);
}

TEST(FfrRegion, ObservedRootThatAlsoFansOut) {
  // e = NOT(a) feeds only g = AND(e, b), which drives flop q's D pin (so g
  // is observed) and h = OR(g, c) -> n = AND(h, d) -> output y. The region
  // {e, g} ends at g; {h, n} ends at y's marker.
  Netlist nl;
  const GateId a = nl.add_input("a");
  const GateId b = nl.add_input("b");
  const GateId c = nl.add_input("c");
  const GateId d = nl.add_input("d");
  const GateId e = nl.add_gate(GateType::kNot, {a}, "e");
  const GateId g = nl.add_gate(GateType::kAnd, {e, b}, "g");
  const GateId h = nl.add_gate(GateType::kOr, {g, c}, "h");
  nl.add_output(nl.add_gate(GateType::kAnd, {h, d}, "n"), "y");
  nl.add_dff(g, "q");
  nl.finalize();
  expect_regions_match_oracles(nl, 2);

  // The four stem faults of {e, g} share one propagation of g per batch;
  // detailed grading propagates g once more, for its pairs.
  FaultSimulator fsim(nl);
  fsim.load_batch(exhaustive_batch(nl));
  const Fault region[] = {stuck(e, kStemPin, 0), stuck(e, kStemPin, 1),
                          stuck(g, kStemPin, 0), stuck(g, kStemPin, 1)};
  for (const Fault& f : region) fsim.detect_mask(f);
  EXPECT_EQ(fsim.root_propagations(), 1u);
  EXPECT_EQ(fsim.local_walks(), 4u);
  std::vector<OpDiff> pairs;
  for (const Fault& f : region) fsim.detect_mask_detailed(f, pairs);
  EXPECT_EQ(fsim.root_propagations(), 2u);
  fsim.load_batch(exhaustive_batch(nl));  // a new batch empties the cache
  for (const Fault& f : region) fsim.detect_mask(f);
  EXPECT_EQ(fsim.root_propagations(), 3u);
}

TEST(FfrRegion, InputAndFlopStemsWithOneFanout) {
  // Input a feeds only g = AND(a, b), which feeds only flop q; q's output
  // feeds only h = OR(q, c) -> output y. A stem fault on a walks to g, one
  // on q walks through h to y's marker.
  Netlist nl;
  const GateId a = nl.add_input("a");
  const GateId b = nl.add_input("b");
  const GateId c = nl.add_input("c");
  const GateId g = nl.add_gate(GateType::kAnd, {a, b}, "g");
  const GateId q = nl.add_dff(g, "q");
  nl.add_output(nl.add_gate(GateType::kOr, {q, c}, "h"), "y");
  nl.finalize();
  expect_regions_match_oracles(nl, 3);

  // Inputs a, b, c, q at lane bits 0-3: a/SA0 fails q where a = b = 1; q/SA1
  // fails y where q = c = 0.
  FaultSimulator fsim(nl);
  fsim.load_batch(exhaustive_batch(nl));
  EXPECT_EQ(fsim.detect_mask(stuck(a, kStemPin, 0)), 0x8888ull);
  EXPECT_EQ(fsim.detect_mask(stuck(q, kStemPin, 1)), 0x000Full);
}
TEST(FfrRegion, BranchFaultIntoMultiFanoutGate) {
  // a forks to g = XOR(a, b) and w = NAND(a, c), so g's pin 0 carries
  // branch faults; g itself fans out to h = AND(g, c) -> y and
  // k = OR(g, d) -> z, so the walk ends where it starts, at g.
  Netlist nl;
  const GateId a = nl.add_input("a");
  const GateId b = nl.add_input("b");
  const GateId c = nl.add_input("c");
  const GateId d = nl.add_input("d");
  const GateId g = nl.add_gate(GateType::kXor, {a, b}, "g");
  nl.add_output(nl.add_gate(GateType::kAnd, {g, c}, "h"), "y");
  nl.add_output(nl.add_gate(GateType::kOr, {g, d}, "k"), "z");
  nl.add_output(nl.add_gate(GateType::kNand, {a, c}, "w"), "v");
  nl.finalize();
  expect_regions_match_oracles(nl, 4);

  // Inputs a-d at lane bits 0-3. Pin 0 of g stuck at 1 flips g where
  // a = 0; y sees it where c = 1, z where d = 0, and v not at all.
  FaultSimulator fsim(nl);
  fsim.load_batch(exhaustive_batch(nl));
  std::vector<OpDiff> pairs;
  EXPECT_EQ(fsim.detect_mask_detailed(stuck(g, 0, 1), pairs), 0x5055ull);
  EXPECT_EQ(test::dense_diffs(pairs, nl.num_observe_points()),
            (std::vector<std::uint64_t>{0x5050, 0x0055, 0}));
}

// n1 = NOT(a) -> n2 = AND(n1, b) -> n3 = OR(n2, c), which feeds only flop
// q; q's output feeds k = XOR(q, d) -> output y. The region {n1, n2, n3}
// ends at n3, the flop's D driver: a walk that went on through q would
// report the fault at y in the capture cycle.
Netlist chain_into_flop() {
  Netlist nl;
  const GateId a = nl.add_input("a");
  const GateId b = nl.add_input("b");
  const GateId c = nl.add_input("c");
  const GateId d = nl.add_input("d");
  const GateId n1 = nl.add_gate(GateType::kNot, {a}, "n1");
  const GateId n2 = nl.add_gate(GateType::kAnd, {n1, b}, "n2");
  const GateId n3 = nl.add_gate(GateType::kOr, {n2, c}, "n3");
  const GateId q = nl.add_dff(n3, "q");
  nl.add_output(nl.add_gate(GateType::kXor, {q, d}, "k"), "y");
  nl.finalize();
  return nl;
}

TEST(FfrRegion, ChainFeedingOnlyAFlopEndsAtTheFlop) {
  const Netlist nl = chain_into_flop();
  expect_regions_match_oracles(nl, 5);

  // The chain's six stem faults share one propagation of n3.
  FaultSimulator fsim(nl);
  fsim.load_batch(exhaustive_batch(nl));
  for (const char* name : {"n1", "n2", "n3"}) {
    for (std::uint8_t v : {0, 1}) {
      fsim.detect_mask(stuck(nl.find(name), kStemPin, v));
    }
  }
  EXPECT_EQ(fsim.root_propagations(), 1u);
  EXPECT_EQ(fsim.local_walks(), 6u);
}

TEST(FfrRegion, DffDPinFaultIsCapturedNotWalked) {
  // g = AND(a, b) drives the D pins of q1 and q2, so both pins carry
  // branch faults; q1's output feeds h = OR(q1, c) -> y. A D-pin fault
  // fails only its own flop's point and takes no local walk.
  Netlist nl;
  const GateId a = nl.add_input("a");
  const GateId b = nl.add_input("b");
  const GateId c = nl.add_input("c");
  const GateId g = nl.add_gate(GateType::kAnd, {a, b}, "g");
  const GateId q1 = nl.add_dff(g, "q1");
  nl.add_dff(g, "q2");
  nl.add_output(nl.add_gate(GateType::kOr, {q1, c}, "h"), "y");
  nl.finalize();
  expect_regions_match_oracles(nl, 6);

  // Inputs a, b, c, q1, q2 at lane bits 0-4: the pin stuck at 1 fails q1
  // wherever g = 0, i.e. a = 0 or b = 0.
  FaultSimulator fsim(nl);
  fsim.load_batch(exhaustive_batch(nl));
  std::vector<OpDiff> pairs;
  EXPECT_EQ(fsim.detect_mask_detailed(stuck(q1, 0, 1), pairs), 0x77777777ull);
  EXPECT_EQ(test::dense_diffs(pairs, nl.num_observe_points()),
            (std::vector<std::uint64_t>{0, 0x77777777, 0}));
  EXPECT_EQ(fsim.local_walks(), 0u);
  EXPECT_EQ(fsim.root_propagations(), 0u);
}

TEST(FfrRegion, TransitionFaultsOnARegionPath) {
  // A transition fault is detected where the launch vector sets its line to
  // the initial value and the capture vector detects the line stuck at
  // that value: the reference engine's stuck-at mask ANDed with the
  // arming from a full sweep of the launch batch.
  const Netlist nl = chain_into_flop();
  Rng rng(7);
  const std::size_t width = nl.num_combinational_inputs();
  const PatternBatch launch =
      pack_patterns(random_patterns(width, 64, rng), 0, 64);
  const PatternBatch capture =
      pack_patterns(random_patterns(width, 64, rng), 0, 64);
  std::vector<std::uint64_t> initial(nl.num_gates(), 0);
  for (std::size_t i = 0; i < width; ++i) {
    initial[nl.combinational_input(i)] = launch.words[i];
  }
  full_sweep(nl, initial, nullptr);

  FaultSimulator fsim(nl);
  fsim.load_batch(capture);
  fsim.load_launch_batch(launch);
  std::size_t detected = 0;
  for (const Fault& f : generate_transition_faults(nl)) {
    const GateId line =
        f.is_stem() ? f.gate : nl.topology().fanin(f.gate)[f.pin];
    // Slow-to-rise (value 1) needs the line at 0 in the launch cycle.
    const std::uint64_t armed = f.value ? ~initial[line] : initial[line];
    const std::uint64_t want =
        fsim.detect_mask_reference(capture, stuck(f.gate, f.pin, !f.value)) &
        armed;
    EXPECT_EQ(fsim.detect_mask(f), want) << fault_name(nl, f);
    detected += want != 0;
  }
  EXPECT_GT(detected, 0u);
}
}  // namespace
}  // namespace aidft
