#include "scan/scan.hpp"

#include <gtest/gtest.h>

#include "bench_circuits/generators.hpp"
#include "common/rng.hpp"

namespace aidft {
namespace {

TEST(ScanPlan, BalancedRoundRobin) {
  const Netlist nl = circuits::make_counter(10);  // 10 flops
  const ScanPlan plan = plan_scan_chains(nl, 3);
  ASSERT_EQ(plan.num_chains(), 3u);
  EXPECT_EQ(plan.total_cells(), 10u);
  EXPECT_EQ(plan.max_chain_length(), 4u);
  for (const auto& c : plan.chains) {
    EXPECT_GE(c.cells.size(), 3u);
    EXPECT_LE(c.cells.size(), 4u);
  }
}

TEST(ScanPlan, MoreChainsThanFlopsClamps) {
  const Netlist nl = circuits::make_counter(2);
  const ScanPlan plan = plan_scan_chains(nl, 8);
  EXPECT_EQ(plan.num_chains(), 2u);
  EXPECT_EQ(plan.max_chain_length(), 1u);
}

TEST(InsertScan, AddsPinsAndPreservesGateCount) {
  const Netlist nl = circuits::make_mac(4, /*registered=*/true);
  const ScanPlan plan = plan_scan_chains(nl, 2);
  const ScanNetlist scan = insert_scan(nl, plan);
  EXPECT_EQ(scan.netlist.inputs().size(), nl.inputs().size() + 1 + 2);
  EXPECT_EQ(scan.netlist.outputs().size(), nl.outputs().size() + 2);
  EXPECT_EQ(scan.netlist.dffs().size(), nl.dffs().size());
  // One MUX added per flop.
  std::size_t muxes = 0;
  for (GateId id = 0; id < scan.netlist.num_gates(); ++id) {
    if (scan.netlist.type(id) == GateType::kMux) ++muxes;
  }
  std::size_t orig_muxes = 0;
  for (GateId id = 0; id < nl.num_gates(); ++id) {
    if (nl.type(id) == GateType::kMux) ++orig_muxes;
  }
  EXPECT_EQ(muxes, orig_muxes + nl.dffs().size());
}

TEST(InsertScan, RejectsIncompletePlan) {
  const Netlist nl = circuits::make_counter(4);
  ScanPlan plan = plan_scan_chains(nl, 1);
  plan.chains[0].cells.pop_back();
  EXPECT_THROW(insert_scan(nl, plan), Error);
}

// The keystone property: shifting patterns through the real scan-inserted
// netlist produces exactly the responses the combinational full-scan view
// predicts — protocol, stitching, and mux wiring all verified at once.
// The circuit name is a std::string, not a const char*, so the printed
// parameter (and with it the test name) holds the text, not an address.
class ScanProtocolEquivalence
    : public ::testing::TestWithParam<std::tuple<std::string, std::size_t>> {};

TEST_P(ScanProtocolEquivalence, ProtocolMatchesCombinationalView) {
  const auto [name, nchains] = GetParam();
  Netlist nl;
  const std::string& which = name;
  if (which == "counter") nl = circuits::make_counter(8);
  if (which == "mac") nl = circuits::make_mac(4, true);
  if (which == "shift") nl = circuits::make_shift_register(6);
  ASSERT_TRUE(nl.finalized());

  const ScanPlan plan = plan_scan_chains(nl, nchains);
  const ScanNetlist scan = insert_scan(nl, plan);
  ScanProtocolSimulator protocol(nl, scan, plan);

  Rng rng(42);
  const auto cubes = random_patterns(nl.combinational_inputs().size(), 12, rng);
  const auto scan_patterns = to_scan_patterns(nl, plan, cubes);
  for (std::size_t p = 0; p < cubes.size(); ++p) {
    const auto got = protocol.run_pattern(scan_patterns[p]);
    const auto want = combinational_reference_response(nl, plan, cubes[p]);
    ASSERT_EQ(got.size(), want.size());
    EXPECT_EQ(got, want) << which << " pattern " << p;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Configs, ScanProtocolEquivalence,
    ::testing::Values(std::make_tuple("counter", std::size_t{1}),
                      std::make_tuple("counter", std::size_t{3}),
                      std::make_tuple("mac", std::size_t{1}),
                      std::make_tuple("mac", std::size_t{2}),
                      std::make_tuple("mac", std::size_t{5}),
                      std::make_tuple("shift", std::size_t{2})));

TEST(ScanTime, CycleModel) {
  ScanTimeModel m;
  m.patterns = 10;
  m.max_chain_length = 100;
  EXPECT_EQ(m.cycles(), 100u + 10u * 101u);
  m.patterns = 0;
  EXPECT_EQ(m.cycles(), 0u);
}

TEST(ScanProtocol, CycleAccounting) {
  const Netlist nl = circuits::make_counter(6);
  const ScanPlan plan = plan_scan_chains(nl, 2);  // chains of 3
  const ScanNetlist scan = insert_scan(nl, plan);
  ScanProtocolSimulator protocol(nl, scan, plan);
  Rng rng(1);
  const auto cubes = random_patterns(nl.combinational_inputs().size(), 2, rng);
  const auto pats = to_scan_patterns(nl, plan, cubes);
  for (const auto& p : pats) protocol.run_pattern(p);
  // Per pattern: 3 load + 1 capture + 3 unload (non-overlapped simulator).
  EXPECT_EQ(protocol.cycles(), 2u * (3u + 1u + 3u));
}

TEST(ToScanPatterns, SplitsPiAndCells) {
  const Netlist nl = circuits::make_counter(4);  // 1 PI (en), 4 flops
  const ScanPlan plan = plan_scan_chains(nl, 2);
  std::vector<TestCube> cubes(1, TestCube(5));
  cubes[0].bits = {Val3::kOne, Val3::kZero, Val3::kOne, Val3::kZero, Val3::kOne};
  const auto pats = to_scan_patterns(nl, plan, cubes);
  ASSERT_EQ(pats.size(), 1u);
  EXPECT_EQ(pats[0].pi_values.size(), 1u);
  EXPECT_EQ(pats[0].pi_values[0], Val3::kOne);
  std::size_t total = 0;
  for (const auto& c : pats[0].chain_load) total += c.size();
  EXPECT_EQ(total, 4u);
}

}  // namespace
}  // namespace aidft
