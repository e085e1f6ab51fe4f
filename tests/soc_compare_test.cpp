#include "aichip/soc.hpp"

#include <gtest/gtest.h>

#include "bench_circuits/generators.hpp"
#include "common/rng.hpp"
#include "fault/fault.hpp"
#include "fsim/fault_sim.hpp"
#include "sim/parallel_sim.hpp"
#include "test_util.hpp"

namespace aidft {
namespace {

TEST(SocCompare, FaultFreeChipNeverRaisesMismatch) {
  const Netlist core = circuits::make_mac(4, /*registered=*/false);
  const auto soc = aichip::make_replicated_soc_with_compare(core, 3);
  ASSERT_EQ(soc.mismatch_outputs.size(), 2u);

  Rng rng(2);
  const auto core_cubes =
      random_patterns(core.combinational_inputs().size(), 64, rng);
  std::vector<TestCube> broadcast;
  for (const auto& c : core_cubes) {
    broadcast.push_back(aichip::broadcast_cube(soc, c));
  }
  ParallelSimulator sim(soc.netlist);
  sim.simulate(pack_patterns(broadcast, 0, 64));
  for (GateId m : soc.mismatch_outputs) {
    EXPECT_EQ(sim.value(m), 0ull) << "fault-free cores must agree";
  }
}

TEST(SocCompare, DefectiveCoreRaisesItsOwnFlag) {
  const Netlist core = circuits::make_mac(4, /*registered=*/false);
  const auto soc = aichip::make_replicated_soc_with_compare(core, 3);

  // Inject a stuck-at on instance 2's third output net.
  const GateId driver = soc.instance_po_drivers[2][3];
  const Fault defect{driver, kStemPin, 1, FaultKind::kStuckAt};

  Rng rng(5);
  const auto core_cubes =
      random_patterns(core.combinational_inputs().size(), 64, rng);
  std::vector<TestCube> broadcast;
  for (const auto& c : core_cubes) {
    broadcast.push_back(aichip::broadcast_cube(soc, c));
  }
  // The mismatch flags are the SoC's only observe points, so detect_mask
  // directly answers "does some flag fire?".
  FaultSimulator fsim(soc.netlist);
  fsim.load_batch(pack_patterns(broadcast, 0, 64));
  std::vector<OpDiff> pairs;
  const std::uint64_t mask = fsim.detect_mask_detailed(defect, pairs);
  const std::vector<std::uint64_t> op_diffs =
      test::dense_diffs(pairs, soc.netlist.observe_points().size());
  EXPECT_NE(mask, 0ull) << "defect must raise a mismatch flag";
  // Exactly the defective instance's flag (mismatch2 = index 1) fires.
  ASSERT_EQ(op_diffs.size(), 2u);
  EXPECT_EQ(op_diffs[0], 0ull) << "instance 1 agrees with instance 0";
  EXPECT_NE(op_diffs[1], 0ull) << "instance 2 is the defective one";
}

TEST(SocCompare, DefectInReferenceInstanceRaisesAllFlags) {
  const Netlist core = circuits::make_mac(4, /*registered=*/false);
  const auto soc = aichip::make_replicated_soc_with_compare(core, 3);
  const Fault defect{soc.instance_po_drivers[0][2], kStemPin, 1,
                     FaultKind::kStuckAt};
  Rng rng(5);
  const auto core_cubes =
      random_patterns(core.combinational_inputs().size(), 64, rng);
  std::vector<TestCube> broadcast;
  for (const auto& c : core_cubes) {
    broadcast.push_back(aichip::broadcast_cube(soc, c));
  }
  FaultSimulator fsim(soc.netlist);
  fsim.load_batch(pack_patterns(broadcast, 0, 64));
  std::vector<OpDiff> pairs;
  const std::uint64_t mask = fsim.detect_mask_detailed(defect, pairs);
  const std::vector<std::uint64_t> op_diffs =
      test::dense_diffs(pairs, soc.netlist.observe_points().size());
  ASSERT_NE(mask, 0ull);
  // Instance 0 is everyone's reference: both comparators disagree.
  EXPECT_NE(op_diffs[0], 0ull);
  EXPECT_NE(op_diffs[1], 0ull);
}

TEST(SocCompare, RequiresTwoInstancesAndOutputs) {
  const Netlist core = circuits::make_mac(4, false);
  EXPECT_THROW(aichip::make_replicated_soc_with_compare(core, 1), Error);
}

}  // namespace
}  // namespace aidft
