#include "aichip/systolic.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "aichip/soc.hpp"
#include "aichip/test_time.hpp"
#include "bench_circuits/generators.hpp"
#include "common/rng.hpp"
#include "fault/fault.hpp"
#include "atpg/atpg.hpp"
#include "fsim/campaign.hpp"
#include "fsim/fault_sim.hpp"
#include "sim/event_sim.hpp"
#include "test_util.hpp"

namespace aidft {
namespace {

using aichip::SystolicConfig;

std::uint64_t read_field(const EventSimulator& sim, const Netlist& nl,
                         const std::string& base, std::size_t width) {
  std::uint64_t v = 0;
  for (std::size_t i = 0; i < width; ++i) {
    const GateId g = nl.find(base + "[" + std::to_string(i) + "]");
    AIDFT_REQUIRE(g != kNoGate, "missing signal " + base);
    v |= (sim.value(g) & 1) << i;
  }
  return v;
}

void drive_field(EventSimulator& sim, const Netlist& nl, const std::string& base,
                 std::size_t width, std::uint64_t value) {
  for (std::size_t i = 0; i < width; ++i) {
    const GateId g = nl.find(base + "[" + std::to_string(i) + "]");
    AIDFT_REQUIRE(g != kNoGate, "missing signal " + base);
    sim.set_input(g, ((value >> i) & 1) ? ~0ull : 0);
  }
}

TEST(SystolicPe, MacArithmetic) {
  const Netlist pe = aichip::make_pe(4);
  EventSimulator sim(pe);
  Rng rng(17);
  for (int iter = 0; iter < 50; ++iter) {
    const std::uint64_t a = rng.next_below(16), b = rng.next_below(16);
    const std::uint64_t psum = rng.next_below(1ull << 10);
    drive_field(sim, pe, "a", 4, a);
    drive_field(sim, pe, "b", 4, b);
    drive_field(sim, pe, "psum", 12, psum);
    sim.clock();  // registers capture
    EXPECT_EQ(read_field(sim, pe, "a_out", 4), a);
    EXPECT_EQ(read_field(sim, pe, "b_out", 4), b);
    EXPECT_EQ(read_field(sim, pe, "psum_out", 12), a * b + psum);
  }
}

TEST(SystolicArray, SingleColumnAccumulatesDotProduct) {
  // 2x1 array: psum0 output after enough cycles = a0*b + a1*b' chain.
  SystolicConfig cfg;
  cfg.rows = 2;
  cfg.cols = 1;
  cfg.width = 4;
  const Netlist arr = aichip::make_systolic_array(cfg);
  EventSimulator sim(arr);
  const std::size_t acc = 2 * cfg.width + 4;

  // Hold steady operands; after the pipeline fills, the bottom psum is
  // a0*b (row 0 contribution, registered) + a1*b (row 1).
  drive_field(sim, arr, "a0", 4, 3);
  drive_field(sim, arr, "a1", 4, 5);
  drive_field(sim, arr, "b0", 4, 7);
  for (int i = 0; i < 6; ++i) sim.clock();
  // Row 0 PE: psum_reg = a0*b0_in; row 1 PE adds a1*b_reg(row0)=a1*b0.
  EXPECT_EQ(read_field(sim, arr, "psum0", acc), 3u * 7u + 5u * 7u);
}

TEST(SystolicArray, StructureScalesQuadratically) {
  SystolicConfig small;
  small.rows = small.cols = 2;
  small.width = 4;
  SystolicConfig big = small;
  big.rows = big.cols = 4;
  const Netlist a = aichip::make_systolic_array(small);
  const Netlist b = aichip::make_systolic_array(big);
  EXPECT_GT(b.logic_gate_count(), 3 * a.logic_gate_count());
  EXPECT_EQ(b.dffs().size(), 4 * a.dffs().size());
}

TEST(SystolicArray, FullyTestableUnderFullScan) {
  SystolicConfig cfg;
  cfg.rows = cfg.cols = 2;
  cfg.width = 3;
  const Netlist arr = aichip::make_systolic_array(cfg);
  const auto faults = collapse_equivalent(arr, generate_stuck_at_faults(arr));
  // Random patterns get most of the way (the datapath is RP-friendly)...
  Rng rng(23);
  const auto patterns =
      random_patterns(arr.combinational_inputs().size(), 512, rng);
  const CampaignResult r = run_campaign(arr, faults, patterns);
  EXPECT_GT(r.coverage(), 0.9);
  // ...and ATPG finishes the job: every fault is either detected or PROVEN
  // redundant (array multipliers contain classic redundant faults — c6288's
  // are the famous example — so fault coverage < 100% is correct here while
  // test coverage must be exactly 100%).
  const AtpgResult atpg = generate_tests(arr, faults);
  EXPECT_EQ(atpg.aborted, 0u);
  EXPECT_DOUBLE_EQ(atpg.test_coverage(), 1.0);
  EXPECT_GT(atpg.untestable, 0u);  // the redundancy is real and proven
  EXPECT_GT(atpg.fault_coverage(), 0.95);
}

TEST(Soc, ReplicationArithmetic) {
  const Netlist core = circuits::make_mac(4, true);
  const auto soc = aichip::make_replicated_soc(core, 3);
  EXPECT_EQ(soc.netlist.inputs().size(), 3 * core.inputs().size());
  EXPECT_EQ(soc.netlist.dffs().size(), 3 * core.dffs().size());
  EXPECT_EQ(soc.netlist.outputs().size(), 3 * core.outputs().size());
  EXPECT_EQ(soc.netlist.logic_gate_count(), 3 * core.logic_gate_count());
}

// Netlist::replicate against the gate-by-gate rebuild it replaced: every
// name, gate view, lookup and list of the replica must match the oracle.
void expect_replica_matches_oracle(const Netlist& core, std::size_t n) {
  SCOPED_TRACE(core.name() + " x" + std::to_string(n));
  const aichip::SocNetlist soc = aichip::make_replicated_soc(core, n);
  const Netlist oracle = test::cloned_replica(core, n);
  const Netlist& nl = soc.netlist;
  ASSERT_TRUE(nl.finalized());
  EXPECT_EQ(nl.name(), oracle.name());
  ASSERT_EQ(nl.num_gates(), oracle.num_gates());
  for (GateId id = 0; id < nl.num_gates(); ++id) {
    const std::string name = nl.name_of(id);
    ASSERT_EQ(name, oracle.name_of(id)) << "gate " << id;
    ASSERT_EQ(nl.type(id), oracle.type(id)) << "gate " << id;
    const Gate got = nl.gate(id);
    const Gate want = oracle.gate(id);
    ASSERT_EQ(got.type, want.type) << "gate " << id;
    ASSERT_TRUE(std::ranges::equal(got.fanin, want.fanin)) << "gate " << id;
    ASSERT_EQ(nl.find(name), oracle.find(name)) << "'" << name << "'";
    if (!name.empty()) {
      ASSERT_EQ(nl.find(name), id);
    }
  }
  EXPECT_EQ(nl.inputs(), oracle.inputs());
  EXPECT_EQ(nl.outputs(), oracle.outputs());
  EXPECT_EQ(nl.dffs(), oracle.dffs());
  EXPECT_EQ(nl.logic_gate_count(), oracle.logic_gate_count());
  EXPECT_EQ(nl.topo_order(), oracle.topo_order());

  // comb_index addresses instance inst's copy of core input k.
  const auto core_in = core.combinational_inputs();
  const auto soc_in = nl.combinational_inputs();
  ASSERT_EQ(soc_in, oracle.combinational_inputs());
  for (std::size_t inst = 0; inst < n; ++inst) {
    for (std::size_t k = 0; k < core_in.size(); ++k) {
      EXPECT_EQ(soc_in[soc.comb_index(inst, k)],
                inst * core.num_gates() + core_in[k]);
    }
  }

  // Names that are not canonical "u<i>_<core name>" must miss, as they do
  // in the oracle.
  std::string x;
  for (GateId id = 0; id < core.num_gates() && x.empty(); ++id) {
    x = core.name_of(id);
  }
  ASSERT_FALSE(x.empty());
  for (const std::string& probe :
       {"u0_" + x, "u" + std::to_string(n - 1) + "_" + x, "u01_" + x,
        "u00_" + x, "u" + std::to_string(n) + "_" + x, "u_" + x, "u" + x,
        "u" + std::string(25, '9') + "_" + x, "u1x_" + x, "_" + x, x,
        std::string("u0_"), std::string("u"), std::string()}) {
    EXPECT_EQ(nl.find(probe), oracle.find(probe)) << "'" << probe << "'";
  }
}

TEST(Soc, ReplicaMatchesClonedNetlist) {
  const std::vector<Netlist> cores = [] {
    std::vector<Netlist> v;
    v.push_back(aichip::make_systolic_array({}));
    v.push_back(circuits::make_mac(4, true));
    v.push_back(circuits::make_counter(8));
    v.push_back(circuits::make_random_logic(12, 400, 5));
    return v;
  }();
  for (const Netlist& core : cores) {
    for (std::size_t n : {1, 2, 3, 7}) expect_replica_matches_oracle(core, n);
  }
}

// A replica of a replica composes both prefixes: u0_u1_x.
TEST(Soc, ReplicaOfReplicaMatchesClonedNetlist) {
  const Netlist core = circuits::make_mac(4, true);
  const auto inner = aichip::make_replicated_soc(core, 2);
  expect_replica_matches_oracle(inner.netlist, 3);
  const auto outer = aichip::make_replicated_soc(inner.netlist, 3);
  const std::string x = core.name_of(core.inputs()[0]);
  const GateId g = outer.netlist.find("u2_u1_" + x);
  ASSERT_NE(g, kNoGate);
  EXPECT_EQ(g, 2 * inner.netlist.num_gates() + core.num_gates() +
                   core.inputs()[0]);
  EXPECT_EQ(outer.netlist.name_of(g), "u2_u1_" + x);
  EXPECT_EQ(outer.netlist.find("u1_u2_" + x), kNoGate);
}

// Gate ids and CSR edge offsets are 32-bit: a replication past either
// limit is refused before anything SoC-sized is allocated.
TEST(Soc, ReplicationOverflowThrows) {
  const Netlist core = circuits::make_mac(4, true);
  const std::size_t g = core.num_gates();
  const std::size_t e = core.topology().fanin_offset(static_cast<GateId>(g));
  // One instance too many for the gate ids (the last id must stay below
  // kNoGate).
  EXPECT_THROW(aichip::make_replicated_soc(core, kNoGate / g + 1), Error);
  // Ids fit, fanin edge offsets do not.
  const std::size_t n = kNoGate / g;
  ASSERT_GT(e, g);
  ASSERT_GT(n * e, std::size_t{UINT32_MAX});
  EXPECT_THROW(aichip::make_replicated_soc(core, n), Error);
  EXPECT_THROW(Topology::replicate(core.topology(), n), Error);
}

TEST(Soc, BroadcastCubeReplicatesBits) {
  const Netlist core = circuits::make_counter(4);
  const auto soc = aichip::make_replicated_soc(core, 2);
  TestCube cube(core.combinational_inputs().size());
  cube.bits[0] = Val3::kOne;
  cube.bits[3] = Val3::kZero;
  const TestCube b = aichip::broadcast_cube(soc, cube);
  ASSERT_EQ(b.size(), 2 * cube.size());
  for (std::size_t inst = 0; inst < 2; ++inst) {
    for (std::size_t k = 0; k < cube.size(); ++k) {
      EXPECT_EQ(b.bits[soc.comb_index(inst, k)], cube.bits[k]);
    }
  }
}

// The E7 keystone, measured on a real netlist: patterns generated for ONE
// core, broadcast to all instances, cover the full SoC fault list at the
// core's coverage rate.
TEST(Soc, BroadcastCoverageEqualsCoreCoverage) {
  const Netlist core = circuits::make_mac(3, true);
  const auto core_faults = generate_stuck_at_faults(core);
  Rng rng(31);
  const auto core_patterns =
      random_patterns(core.combinational_inputs().size(), 256, rng);
  const CampaignResult core_r =
      run_campaign(core, core_faults, core_patterns);

  const auto soc = aichip::make_replicated_soc(core, 4);
  const auto soc_faults = generate_stuck_at_faults(soc.netlist);
  ASSERT_EQ(soc_faults.size(), 4 * core_faults.size());
  std::vector<TestCube> broadcast;
  for (const auto& p : core_patterns) {
    broadcast.push_back(aichip::broadcast_cube(soc, p));
  }
  const CampaignResult soc_r =
      run_campaign(soc.netlist, soc_faults, broadcast);
  EXPECT_EQ(soc_r.detected, 4 * core_r.detected);
  EXPECT_DOUBLE_EQ(soc_r.coverage(), core_r.coverage());
}

TEST(TestTime, BroadcastFlatInCoreCount) {
  aichip::CoreTestSpec spec;
  spec.scan_cells = 1024;
  spec.patterns = 500;
  aichip::TesterConfig tester;
  tester.channels = 8;
  const auto b1 = aichip::broadcast_test_cycles(spec, 1, tester);
  const auto b64 = aichip::broadcast_test_cycles(spec, 64, tester);
  EXPECT_EQ(b1, b64);
  // Flat and sequential grow linearly.
  const auto f1 = aichip::flat_test_cycles(spec, 1, tester);
  const auto f64 = aichip::flat_test_cycles(spec, 64, tester);
  EXPECT_GT(f64, 50 * f1);
  const auto s64 = aichip::sequential_test_cycles(spec, 64, tester);
  EXPECT_EQ(s64, 64 * aichip::sequential_test_cycles(spec, 1, tester));
  // At N=1 all strategies coincide.
  EXPECT_EQ(f1, b1);
}

TEST(Schedule, RespectsPowerBudgetAndPacks) {
  std::vector<aichip::ScheduledTest> tests{
      {"core_a", 100, 0.5}, {"core_b", 80, 0.5}, {"mem", 60, 0.6},
      {"io", 40, 0.3},      {"noc", 30, 0.2},
  };
  const auto schedule = aichip::schedule_tests(tests, 1.0);
  ASSERT_EQ(schedule.slots.size(), tests.size());
  // Verify the budget at every slot start.
  for (const auto& probe : schedule.slots) {
    double p = 0;
    for (const auto& s : schedule.slots) {
      if (s.start <= probe.start && probe.start < s.end) {
        for (const auto& t : tests) {
          if (t.name == s.name) p += t.power;
        }
      }
    }
    EXPECT_LE(p, 1.0 + 1e-9);
  }
  // Parallelism must beat strictly serial execution.
  std::size_t serial = 0;
  for (const auto& t : tests) serial += t.cycles;
  EXPECT_LT(schedule.makespan, serial);
}

TEST(Schedule, SerializesWhenBudgetTight) {
  std::vector<aichip::ScheduledTest> tests{
      {"a", 10, 0.9}, {"b", 10, 0.9}, {"c", 10, 0.9}};
  const auto schedule = aichip::schedule_tests(tests, 1.0);
  EXPECT_EQ(schedule.makespan, 30u);
}

TEST(Schedule, RejectsOversizedTest) {
  EXPECT_THROW(aichip::schedule_tests({{"x", 10, 1.5}}, 1.0), Error);
}

}  // namespace
}  // namespace aidft
