// A ScanPlan is a plain struct, so every function that takes one with its
// netlist checks it (checked_flop_positions) before indexing by its cells.
// Each consumer must reject each malformation with aidft::Error, never read
// or write out of bounds: a cell id past the netlist, a cell that is not a
// flop (a primary input), a flop in two chains, and a flop in no chain.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "aichip/systolic.hpp"
#include "common/rng.hpp"
#include "compress/session.hpp"
#include "fault/fault.hpp"
#include "scan/power.hpp"
#include "scan/scan.hpp"
#include "scan/stil_io.hpp"

namespace aidft {
namespace {

enum class Malformation { kOutOfRange, kNotAFlop, kTwoChains, kMissing };

std::string malformation_name(Malformation m) {
  switch (m) {
    case Malformation::kOutOfRange: return "OutOfRange";
    case Malformation::kNotAFlop: return "NotAFlop";
    case Malformation::kTwoChains: return "TwoChains";
    case Malformation::kMissing: return "Missing";
  }
  return "Unknown";
}

Netlist core() {
  aichip::SystolicConfig c;
  c.rows = 2;
  c.cols = 2;
  c.width = 4;
  return aichip::make_systolic_array(c);
}

ScanPlan malformed(const Netlist& nl, Malformation m) {
  ScanPlan plan = plan_scan_chains(nl, 3);
  switch (m) {
    case Malformation::kOutOfRange:
      plan.chains[0].cells.push_back(static_cast<GateId>(nl.num_gates()));
      break;
    case Malformation::kNotAFlop:
      plan.chains[1].cells[0] = nl.inputs().front();
      break;
    case Malformation::kTwoChains:
      plan.chains[2].cells.push_back(plan.chains[0].cells.front());
      break;
    case Malformation::kMissing:
      plan.chains[1].cells.pop_back();
      break;
  }
  return plan;
}

class ScanPlanCheck : public ::testing::TestWithParam<Malformation> {
 protected:
  void SetUp() override {
    nl_ = core();
    plan_ = malformed(nl_, GetParam());
    Rng rng(5);
    for (std::size_t i = 0; i < 8; ++i) {
      TestCube cube(nl_.num_combinational_inputs());
      cube.random_fill(rng);
      cubes_.push_back(std::move(cube));
    }
  }

  Netlist nl_;
  ScanPlan plan_;
  std::vector<TestCube> cubes_;
};

TEST_P(ScanPlanCheck, InsertScanRejects) {
  EXPECT_THROW(insert_scan(nl_, plan_), Error);
}

TEST_P(ScanPlanCheck, ToScanPatternsRejects) {
  EXPECT_THROW(to_scan_patterns(nl_, plan_, cubes_), Error);
}

TEST_P(ScanPlanCheck, ShiftPowerRejects) {
  EXPECT_THROW(shift_power(nl_, plan_, cubes_), Error);
}

TEST_P(ScanPlanCheck, AdjacentFillRejects) {
  EXPECT_THROW(adjacent_fill(nl_, plan_, cubes_), Error);
}

TEST_P(ScanPlanCheck, CompressedSessionRejects) {
  const std::vector<Fault> faults = generate_stuck_at_faults(nl_);
  EXPECT_THROW(run_compressed_session(nl_, plan_, faults, cubes_, {}), Error);
}

TEST_P(ScanPlanCheck, WriteStilRejects) {
  EXPECT_THROW(write_stil_string(nl_, plan_, cubes_), Error);
}

TEST_P(ScanPlanCheck, ReferenceResponseRejects) {
  EXPECT_THROW(combinational_reference_response(nl_, plan_, cubes_.front()),
               Error);
}

TEST_P(ScanPlanCheck, ErrorNamesTheConsumer) {
  try {
    shift_power(nl_, plan_, cubes_);
    FAIL() << "no error";
  } catch (const Error& e) {
    EXPECT_EQ(std::string(e.what()).rfind("shift_power: ", 0), 0u) << e.what();
  }
}

INSTANTIATE_TEST_SUITE_P(
    Plans, ScanPlanCheck,
    ::testing::Values(Malformation::kOutOfRange, Malformation::kNotAFlop,
                      Malformation::kTwoChains, Malformation::kMissing),
    [](const auto& info) { return malformation_name(info.param); });

TEST(ScanPlanPositions, WellFormedPlanMapsEveryFlop) {
  const Netlist nl = core();
  const ScanPlan plan = plan_scan_chains(nl, 3);
  const std::vector<std::size_t> pos =
      checked_flop_positions(nl, plan, "test");
  ASSERT_EQ(pos.size(), nl.num_gates());
  const std::size_t npi = nl.inputs().size();
  for (std::size_t i = 0; i < nl.dffs().size(); ++i) {
    EXPECT_EQ(pos[nl.dffs()[i]], npi + i);
  }
  for (GateId pi : nl.inputs()) EXPECT_EQ(pos[pi], SIZE_MAX);
}

}  // namespace
}  // namespace aidft
