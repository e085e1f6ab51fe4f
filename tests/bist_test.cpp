#include "bist/lbist.hpp"

#include <gtest/gtest.h>

#include "bench_circuits/generators.hpp"
#include "bist/mbist.hpp"
#include "bist/test_points.hpp"
#include "fsim/fault_sim.hpp"
#include "sim/parallel_sim.hpp"
#include "test_util.hpp"

namespace aidft {
namespace {

TEST(Prpg, PatternsLookRandomAndDeterministic) {
  LbistConfig cfg;
  Prpg a(cfg, 32), b(cfg, 32);
  std::size_t ones = 0;
  for (int i = 0; i < 64; ++i) {
    const TestCube pa = a.next_pattern();
    const TestCube pb = b.next_pattern();
    EXPECT_EQ(pa.to_string(), pb.to_string());
    for (Val3 v : pa.bits) ones += (v == Val3::kOne);
  }
  // 2048 bits, expect roughly half ones.
  EXPECT_GT(ones, 800u);
  EXPECT_LT(ones, 1250u);
}

TEST(Prpg, PackedBatchesMatchNextPattern) {
  // The packed emitter against next_pattern() packed afterwards, on tabled
  // and drawn-tap (20) widths, over partial and full batches of patterns
  // shorter and longer than a word; both leave the LFSR in the same state.
  const std::size_t kWidths[] = {16, 24, 32, 64, 20};
  const std::size_t kCounts[] = {1, 63, 64, 65, 500};
  for (std::size_t width : kWidths) {
    for (std::size_t count : kCounts) {
      for (std::size_t positions : {37, 130}) {
        const LbistConfig cfg{.prpg_bits = width};
        Prpg packed_prpg(cfg, positions), serial(cfg, positions);
        const PackedPatterns packed = packed_prpg.patterns(count);
        std::vector<TestCube> cubes;
        for (std::size_t k = 0; k < count; ++k) {
          cubes.push_back(serial.next_pattern());
        }
        const PackedPatterns expected(cubes);
        EXPECT_EQ(packed.count, expected.count);
        EXPECT_EQ(packed.width, expected.width);
        EXPECT_FALSE(packed.has_x);
        ASSERT_EQ(packed.batches.size(), expected.batches.size());
        for (std::size_t b = 0; b < packed.batches.size(); ++b) {
          EXPECT_EQ(packed.batches[b].npatterns,
                    expected.batches[b].npatterns);
          EXPECT_EQ(packed.batches[b].words, expected.batches[b].words)
              << "width " << width << " count " << count << " positions "
              << positions << " batch " << b;
        }
        EXPECT_EQ(packed_prpg.next_pattern().to_string(),
                  serial.next_pattern().to_string());
      }
    }
  }
}

TEST(Lbist, CoverageGrowsAndSignatureStable) {
  const Netlist nl = circuits::make_alu(4);
  const auto faults = collapse_equivalent(nl, generate_stuck_at_faults(nl));
  const LbistResult r1 = run_lbist(nl, faults, {.patterns = 256});
  const LbistResult r2 = run_lbist(nl, faults, {.patterns = 256});
  EXPECT_EQ(r1.golden_signature, r2.golden_signature);
  EXPECT_EQ(r1.detected, r2.detected);
  EXPECT_GT(r1.coverage(), 0.9);  // ALUs are random-pattern friendly
  for (std::size_t i = 1; i < r1.detected_after.size(); ++i) {
    EXPECT_GE(r1.detected_after[i], r1.detected_after[i - 1]);
  }
}

TEST(Lbist, DetectedFaultChangesSignature) {
  const Netlist nl = circuits::make_ripple_adder(4);
  const auto faults = generate_stuck_at_faults(nl);
  const LbistConfig cfg{.patterns = 64};
  const LbistResult golden = run_lbist(nl, faults, cfg);
  std::size_t checked = 0;
  for (std::size_t i = 0; i < faults.size() && checked < 10; ++i) {
    // Only faults LBIST detects are required to corrupt the signature.
    const LbistResult solo = run_lbist(nl, {faults[i]}, cfg);
    if (solo.detected == 0) continue;
    ++checked;
    EXPECT_NE(faulty_signature(nl, faults[i], cfg), golden.golden_signature)
        << fault_name(nl, faults[i]);
  }
  EXPECT_GE(checked, 5u);
}

TEST(Lbist, UndetectedFaultKeepsSignature) {
  const Netlist nl = circuits::make_redundant();
  const GateId t3 = nl.find("t_bc_redundant");
  const Fault redundant{t3, kStemPin, 0, FaultKind::kStuckAt};
  const LbistConfig cfg{.patterns = 128};
  const auto golden = run_lbist(nl, {redundant}, cfg);
  EXPECT_EQ(golden.detected, 0u);
  EXPECT_EQ(faulty_signature(nl, redundant, cfg), golden.golden_signature);
}

// The MISR signature of `fault`'s machine (null: the good one) over
// `config`'s session, from the reference sweep of each batch of
// next_pattern() cubes, shifted into the bit-serial MISR a pattern at a
// time. A DFF D-pin fault corrupts only what its flop captures.
std::vector<std::uint64_t> resimulated_signature(const Netlist& nl,
                                                 const Fault* fault,
                                                 const LbistConfig& config) {
  Prpg prpg(config, nl.num_combinational_inputs());
  test::BitSerialMisr misr(32);
  const std::size_t nops = nl.num_observe_points();
  std::vector<std::uint64_t> values(nl.num_gates());
  std::vector<bool> response(nops);
  for (std::size_t done = 0; done < config.patterns; done += 64) {
    const std::size_t lanes = std::min<std::size_t>(64, config.patterns - done);
    std::vector<TestCube> cubes;
    for (std::size_t k = 0; k < lanes; ++k) cubes.push_back(prpg.next_pattern());
    const PatternBatch batch = pack_patterns(cubes, 0, lanes);
    std::fill(values.begin(), values.end(), 0);
    for (std::size_t i = 0; i < batch.words.size(); ++i) {
      values[nl.combinational_input(i)] = batch.words[i];
    }
    full_sweep(nl, values, fault);
    for (std::size_t p = 0; p < lanes; ++p) {
      for (std::size_t i = 0; i < nops; ++i) {
        const GateId op = nl.observe_point(i);
        const bool dpin = fault != nullptr && op == fault->gate &&
                          !fault->is_stem();
        response[i] = dpin ? fault->stuck_at_one()
                           : (values[nl.observed_gate(op)] >> p) & 1;
      }
      misr.shift_in(response);
    }
  }
  return misr.signature();
}

TEST(Lbist, SignaturesMatchReferenceResimulation) {
  // Golden and every collapsed fault's signature against the reference
  // engine and the bit-serial MISR, on a combinational core and on a
  // sequential one with more observe points than MISR bits, over a session
  // whose last batch is partial.
  const LbistConfig cfg{.patterns = 130};
  for (const Netlist& nl :
       {circuits::make_alu(4), circuits::make_counter(40)}) {
    const auto faults = collapse_equivalent(nl, generate_stuck_at_faults(nl));
    const LbistResult golden = run_lbist(nl, faults, cfg);
    EXPECT_EQ(golden.golden_signature, resimulated_signature(nl, nullptr, cfg))
        << nl.name();
    for (const Fault& f : faults) {
      EXPECT_EQ(faulty_signature(nl, f, cfg),
                resimulated_signature(nl, &f, cfg))
          << nl.name() << " " << fault_name(nl, f);
    }
  }
}

TEST(Lbist, ResistancePredictionFlagsTheRandomlyMissedFaults) {
  // On RP-resistant logic the SCOAP shortlist must land on real misses:
  // precision and recall both clearly above chance, and the bookkeeping
  // identities hold.
  const Netlist nl = circuits::make_rp_resistant(3, 14);
  const auto faults = collapse_equivalent(nl, generate_stuck_at_faults(nl));
  const LbistConfig cfg{.patterns = 256};
  const LbistResult r = run_lbist(nl, faults, cfg);
  EXPECT_EQ(r.undetected, r.faults_total - r.detected);
  EXPECT_GT(r.undetected, 0u) << "circuit not RP-resistant enough";
  EXPECT_GT(r.predicted_resistant, 0u);
  EXPECT_LE(r.resistant_undetected, r.predicted_resistant);
  EXPECT_LE(r.resistant_undetected, r.undetected);
  EXPECT_GT(r.resistance_recall(), 0.5);
  EXPECT_GT(r.resistance_precision(), 0.25);
}

TEST(TestPoints, SelectionPrefersHardNets) {
  const Netlist nl = circuits::make_rp_resistant(2, 12);
  const ScoapResult scoap = compute_scoap(nl);
  const TestPointPlan plan = select_test_points(nl, scoap, 3, 3);
  ASSERT_EQ(plan.observe.size(), 3u);
  ASSERT_EQ(plan.control.size(), 3u);
  // The wide AND cone outputs are the hardest-to-control-to-1 nets: the
  // chosen control points must include force-to-one points.
  bool any_force1 = false;
  for (const auto& cp : plan.control) any_force1 |= cp.force_to_one;
  EXPECT_TRUE(any_force1);
}

TEST(TestPoints, InsertionPreservesFunctionWhenDisabled) {
  const Netlist nl = circuits::make_alu(4);
  const ScoapResult scoap = compute_scoap(nl);
  const TestPointPlan plan = select_test_points(nl, scoap, 2, 2);
  const Netlist tp = apply_test_points(nl, plan);
  // With tp_ctl inputs at 0, original outputs must match gate for gate.
  Rng rng(3);
  const auto cubes = random_patterns(nl.combinational_inputs().size(), 64, rng);
  ParallelSimulator orig(nl);
  orig.simulate(pack_patterns(cubes, 0, 64));

  // Build the tp-netlist batch: original inputs in order + ctl inputs = 0.
  PatternBatch batch;
  batch.npatterns = 64;
  const auto tp_inputs = tp.combinational_inputs();
  batch.words.assign(tp_inputs.size(), 0);
  const PatternBatch obatch = pack_patterns(cubes, 0, 64);
  // Original PIs come first in clone order; tp_ctl inputs were added after.
  const std::size_t npi = nl.inputs().size();
  for (std::size_t i = 0; i < npi; ++i) batch.words[i] = obatch.words[i];
  // DFF loads (none in alu4, but keep general): they follow all PIs.
  const std::size_t tp_extra = tp.inputs().size() - npi;
  for (std::size_t i = 0; i < nl.dffs().size(); ++i) {
    batch.words[npi + tp_extra + i] = obatch.words[npi + i];
  }
  ParallelSimulator tpsim(tp);
  tpsim.simulate(batch);
  for (std::size_t o = 0; o < nl.outputs().size(); ++o) {
    EXPECT_EQ(tpsim.value(tp.outputs()[o]), orig.value(nl.outputs()[o]));
  }
}

TEST(TestPoints, RecoverLbistCoverageOnRpResistantLogic) {
  // The E5 claim: test points lift LBIST coverage on RP-resistant logic.
  const Netlist nl = circuits::make_rp_resistant(3, 12);
  const auto faults = collapse_equivalent(nl, generate_stuck_at_faults(nl));
  const LbistConfig cfg{.patterns = 256};
  const LbistResult before = run_lbist(nl, faults, cfg);

  const ScoapResult scoap = compute_scoap(nl);
  const TestPointPlan plan = select_test_points(nl, scoap, 6, 6);
  const Netlist tp = apply_test_points(nl, plan);
  const auto tp_faults = collapse_equivalent(tp, generate_stuck_at_faults(tp));
  const LbistResult after = run_lbist(tp, tp_faults, cfg);

  EXPECT_LT(before.coverage(), 0.999);
  EXPECT_GT(after.coverage(), before.coverage());
}

// ---- Memory BIST -----------------------------------------------------------

TEST(March, ParserRoundTrip) {
  const MarchAlgorithm alg = parse_march("A(w0);U(r0,w1);D(r1,w0)");
  ASSERT_EQ(alg.size(), 3u);
  EXPECT_EQ(alg[0].order, MarchElement::Order::kAny);
  EXPECT_EQ(alg[1].order, MarchElement::Order::kAscending);
  EXPECT_EQ(alg[2].order, MarchElement::Order::kDescending);
  EXPECT_EQ(alg[1].ops.size(), 2u);
  EXPECT_EQ(march_ops_per_cell(alg), 5u);
  EXPECT_THROW(parse_march("Z(w0)"), Error);
  EXPECT_THROW(parse_march("U(x9)"), Error);
  EXPECT_THROW(parse_march(""), Error);
}

TEST(March, OpsPerCellOfClassics) {
  EXPECT_EQ(march_ops_per_cell(march_mats()), 4u);
  EXPECT_EQ(march_ops_per_cell(march_mats_plus()), 5u);
  EXPECT_EQ(march_ops_per_cell(march_x()), 6u);
  EXPECT_EQ(march_ops_per_cell(march_c_minus()), 10u);
  EXPECT_EQ(march_ops_per_cell(march_b()), 17u);
}

TEST(March, FaultFreeMemoryPasses) {
  for (const auto& alg : {march_mats(), march_mats_plus(), march_x(),
                          march_c_minus(), march_b()}) {
    FaultyMemory mem(256);
    EXPECT_TRUE(run_march(alg, mem));
  }
}

TEST(March, AllAlgorithmsCatchStuckAt) {
  for (const auto& alg : {march_mats(), march_mats_plus(), march_x(),
                          march_c_minus(), march_b()}) {
    EXPECT_DOUBLE_EQ(
        march_coverage(alg, MemFault::Kind::kStuckAt, 128, 50, 1), 1.0);
  }
}

TEST(March, TransitionNeedsReadAfterWriteBothDirections) {
  // MATS misses transition faults; March X and C- catch them all.
  EXPECT_LT(march_coverage(march_mats(), MemFault::Kind::kTransition, 128, 100, 2),
            1.0);
  EXPECT_DOUBLE_EQ(
      march_coverage(march_x(), MemFault::Kind::kTransition, 128, 100, 2), 1.0);
  EXPECT_DOUBLE_EQ(
      march_coverage(march_c_minus(), MemFault::Kind::kTransition, 128, 100, 2),
      1.0);
}

TEST(March, CouplingFaultsNeedMarchC) {
  // The textbook matrix: MATS+ misses coupling faults, March C- catches
  // inversion and idempotent coupling completely.
  EXPECT_LT(march_coverage(march_mats_plus(), MemFault::Kind::kCouplingInv, 64,
                           200, 3),
            1.0);
  EXPECT_DOUBLE_EQ(march_coverage(march_c_minus(), MemFault::Kind::kCouplingInv,
                                  64, 200, 3),
                   1.0);
  EXPECT_DOUBLE_EQ(march_coverage(march_c_minus(), MemFault::Kind::kCouplingIdem,
                                  64, 200, 4),
                   1.0);
}

TEST(March, AddressDecoderFaultsCaught) {
  EXPECT_DOUBLE_EQ(
      march_coverage(march_mats_plus(), MemFault::Kind::kAddressFault, 64, 100, 5),
      1.0);
  EXPECT_DOUBLE_EQ(
      march_coverage(march_c_minus(), MemFault::Kind::kAddressFault, 64, 100, 5),
      1.0);
}

TEST(March, StateCouplingDetectedByMarchC) {
  EXPECT_DOUBLE_EQ(march_coverage(march_c_minus(), MemFault::Kind::kCouplingState,
                                  64, 200, 6),
                   1.0);
}

TEST(FaultyMemory, SemanticsSpotChecks) {
  {
    MemFault f;
    f.kind = MemFault::Kind::kStuckAt;
    f.cell = 5;
    f.value = 1;
    FaultyMemory mem(16, f);
    mem.write(5, false);
    EXPECT_TRUE(mem.read(5));
  }
  {
    MemFault f;
    f.kind = MemFault::Kind::kTransition;
    f.cell = 3;
    f.value = 1;  // up-transition fails
    FaultyMemory mem(16, f);
    mem.write(3, false);
    mem.write(3, true);  // fails
    EXPECT_FALSE(mem.read(3));
  }
  {
    MemFault f;
    f.kind = MemFault::Kind::kCouplingInv;
    f.cell = 2;      // victim
    f.aggressor = 7;
    f.value = 1;     // up-transition on aggressor flips victim
    FaultyMemory mem(16, f);
    mem.write(2, false);
    mem.write(7, false);
    mem.write(7, true);  // aggressor 0->1
    EXPECT_TRUE(mem.read(2));
  }
  {
    MemFault f;
    f.kind = MemFault::Kind::kAddressFault;
    f.cell = 4;       // address 4 aliases
    f.aggressor = 9;  // onto cell 9
    FaultyMemory mem(16, f);
    mem.write(4, true);
    EXPECT_TRUE(mem.read(9));
    EXPECT_TRUE(mem.read(4));  // reads cell 9 too
  }
}

}  // namespace
}  // namespace aidft
