#include "scan/power.hpp"

#include <gtest/gtest.h>

#include "atpg/atpg.hpp"
#include "bench_circuits/generators.hpp"
#include "fsim/campaign.hpp"
#include "fsim/fault_sim.hpp"

namespace aidft {
namespace {

TEST(ShiftPower, WtmHandComputed) {
  // One chain of 4 cells; load 0110 (cell order). Boundaries: 0|1 at cells
  // 0-1 (travel 3), 1|1 none, 1|0 at cells 2-3 (travel 1). WTM = 3+1 = 4.
  const Netlist nl = circuits::make_shift_register(4);  // 1 PI + 4 flops
  const ScanPlan plan = plan_scan_chains(nl, 1);
  TestCube cube(5);
  cube.bits = {Val3::kZero, Val3::kZero, Val3::kOne, Val3::kOne, Val3::kZero};
  const ShiftPowerReport r = shift_power(nl, plan, {cube});
  EXPECT_DOUBLE_EQ(r.total_wtm, 4.0);
  EXPECT_DOUBLE_EQ(r.peak_wtm_pattern, 4.0);
}

TEST(ShiftPower, ConstantStreamIsZeroPower) {
  const Netlist nl = circuits::make_counter(8);
  const ScanPlan plan = plan_scan_chains(nl, 2);
  TestCube cube(nl.combinational_inputs().size());
  cube.constant_fill(Val3::kOne);
  const ShiftPowerReport r = shift_power(nl, plan, {cube});
  EXPECT_DOUBLE_EQ(r.total_wtm, 0.0);
}

TEST(AdjacentFill, FillsAlongChainsAndPreservesCareBits) {
  const Netlist nl = circuits::make_counter(6);  // 1 PI + 6 flops
  const ScanPlan plan = plan_scan_chains(nl, 2);
  std::vector<TestCube> cubes(1, TestCube(7));
  cubes[0].bits[2] = Val3::kOne;   // some flop care bit
  cubes[0].bits[5] = Val3::kZero;  // another
  const auto care_positions = cubes[0];
  adjacent_fill(nl, plan, cubes);
  EXPECT_EQ(cubes[0].care_count(), cubes[0].size());
  for (std::size_t i = 0; i < 7; ++i) {
    if (care_positions.bits[i] != Val3::kX) {
      EXPECT_EQ(cubes[0].bits[i], care_positions.bits[i]);
    }
  }
}

TEST(AdjacentFill, CutsShiftPowerVsRandomFill) {
  // The real claim: on ATPG cubes (mostly X), adjacent fill slashes WTM at
  // zero cost to the deterministically-targeted coverage.
  const Netlist nl = circuits::make_mac(6, /*registered=*/true);
  const ScanPlan plan = plan_scan_chains(nl, 2);
  const auto faults = collapse_equivalent(nl, generate_stuck_at_faults(nl));
  AtpgOptions opts;
  opts.random_patterns = 0;
  const AtpgResult atpg = generate_tests(nl, faults, opts);
  ASSERT_FALSE(atpg.cubes.empty());

  std::vector<TestCube> random_filled = atpg.cubes;
  Rng rng(7);
  fill_cubes(random_filled, XFill::kRandom, rng);
  std::vector<TestCube> adj_filled = atpg.cubes;
  adjacent_fill(nl, plan, adj_filled);

  const double wtm_random = shift_power(nl, plan, random_filled).total_wtm;
  const double wtm_adjacent = shift_power(nl, plan, adj_filled).total_wtm;
  EXPECT_LT(wtm_adjacent, 0.55 * wtm_random)
      << "adjacent fill should at least halve shift power";

  // Every deterministically-targeted fault stays detected.
  const CampaignResult graded = run_campaign(nl, faults, adj_filled);
  // Adjacent fill loses incidental detections but never targeted ones; the
  // filled set must cover at least the number of cubes' primary targets.
  EXPECT_GE(graded.detected, atpg.cubes.size());
}

// WTM cell by cell over each pattern's chain loads: the oracle for
// shift_power's word form.
ShiftPowerReport cell_by_cell_wtm(const Netlist& nl, const ScanPlan& plan,
                                  const std::vector<TestCube>& patterns) {
  ShiftPowerReport report;
  report.patterns = patterns.size();
  for (const ScanPattern& sp : to_scan_patterns(nl, plan, patterns)) {
    double wtm = 0.0;
    for (const std::vector<Val3>& load : sp.chain_load) {
      for (std::size_t i = 0; i + 1 < load.size(); ++i) {
        if (load[i] != load[i + 1]) {
          wtm += static_cast<double>(load.size() - 1 - i);
        }
      }
    }
    report.total_wtm += wtm;
    report.peak_wtm_pattern = std::max(report.peak_wtm_pattern, wtm);
  }
  report.avg_wtm_per_pattern =
      report.total_wtm / static_cast<double>(patterns.size());
  return report;
}

TEST(ShiftPower, WordWtmMatchesCellByCellOracle) {
  // Ragged chains (10 flops over 3 and 4 chains) and one chain; random and
  // adjacent-filled loads over partial, full and multiple batches.
  const Netlist nl = circuits::make_counter(10);
  Rng rng(29);
  for (std::size_t chains : {1, 3, 4}) {
    const ScanPlan plan = plan_scan_chains(nl, chains);
    for (std::size_t count : {1, 64, 130}) {
      std::vector<TestCube> random =
          random_patterns(nl.num_combinational_inputs(), count, rng);
      std::vector<TestCube> sparse(count, TestCube(random[0].size()));
      for (std::size_t k = 0; k < count; ++k) {
        sparse[k].bits[1 + k % 10] = random[k].bits[0];
      }
      adjacent_fill(nl, plan, sparse);
      for (const auto* patterns : {&random, &sparse}) {
        const ShiftPowerReport word = shift_power(nl, plan, *patterns);
        const ShiftPowerReport oracle = cell_by_cell_wtm(nl, plan, *patterns);
        EXPECT_EQ(word.patterns, oracle.patterns);
        EXPECT_EQ(word.total_wtm, oracle.total_wtm)
            << chains << " chains, " << count << " patterns";
        EXPECT_EQ(word.peak_wtm_pattern, oracle.peak_wtm_pattern);
        EXPECT_EQ(word.avg_wtm_per_pattern, oracle.avg_wtm_per_pattern);
      }
    }
  }
}

TEST(ShiftPower, RejectsXPatterns) {
  const Netlist nl = circuits::make_counter(4);
  const ScanPlan plan = plan_scan_chains(nl, 1);
  std::vector<TestCube> cubes(1, TestCube(5));
  EXPECT_THROW(shift_power(nl, plan, cubes), Error);
}

TEST(ShiftPower, RejectsXOnlyWhereABoundaryReadsIt) {
  // An X on a primary input never shifts; one in a chain does. A cube of
  // the wrong width is rejected as before.
  const Netlist nl = circuits::make_counter(4);  // 1 PI + 4 flops
  const ScanPlan plan = plan_scan_chains(nl, 1);
  TestCube cube(5);
  cube.constant_fill(Val3::kZero);
  cube.bits[0] = Val3::kX;
  EXPECT_EQ(shift_power(nl, plan, {cube}).total_wtm, 0.0);
  cube.bits[0] = Val3::kZero;
  cube.bits[3] = Val3::kX;
  EXPECT_THROW(shift_power(nl, plan, {cube}), Error);
  EXPECT_THROW(shift_power(nl, plan, {TestCube(4)}), Error);
}

}  // namespace
}  // namespace aidft
