#include "aichip/systolic.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "aichip/soc.hpp"
#include "aichip/test_time.hpp"
#include "bench_circuits/generators.hpp"
#include "common/rng.hpp"
#include "fault/bridging.hpp"
#include "fault/fault.hpp"
#include "atpg/atpg.hpp"
#include "fsim/campaign.hpp"
#include "fsim/fault_sim.hpp"
#include "sim/event_sim.hpp"
#include "sim/parallel_sim.hpp"
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

// ---- lifted fault lists --------------------------------------------------

// The lift is the SoC's own enumeration and collapse, fault for fault and
// in order: no equivalence class crosses instances, and both lists are
// instance-major.
TEST(LiftFaults, EqualsTheSocsOwnListsInOrder) {
  std::vector<circuits::NamedCircuit> cores = circuits::standard_suite();
  cores.push_back({"systolic2x2", aichip::make_systolic_array({})});
  for (const auto& [name, core] : cores) {
    const auto core_universe = generate_stuck_at_faults(core);
    const auto core_collapsed = collapse_equivalent(core, core_universe);
    for (std::size_t n : {1, 2, 3, 7}) {
      SCOPED_TRACE(std::string(name) + " x" + std::to_string(n));
      const auto soc = aichip::make_replicated_soc(core, n);
      const auto soc_universe = generate_stuck_at_faults(soc.netlist);
      EXPECT_EQ(aichip::lift_faults(soc, core_universe), soc_universe);
      EXPECT_EQ(aichip::lift_faults(soc, core_collapsed),
                collapse_equivalent(soc.netlist, soc_universe));
    }
  }
}

TEST(LiftFaults, RejectsCompareSocsAndForeignFaults) {
  const Netlist core = circuits::make_mac(3, true);
  const auto faults = generate_stuck_at_faults(core);
  // The gate-by-gate clone of a replica carries no tiling: no replica.
  aichip::SocNetlist clone = aichip::make_replicated_soc(core, 2);
  clone.netlist = test::cloned_replica(core, 2);
  EXPECT_THROW(aichip::lift_faults(clone, faults), Error);
  const Fault foreign{static_cast<GateId>(core.num_gates()), kStemPin, 0};
  EXPECT_THROW(aichip::lift_faults(aichip::make_replicated_soc(core, 2),
                                   std::vector<Fault>{foreign}),
               Error);
}

// ---- the tiled good machine against its whole-netlist oracle -------------

// 212 broadcast patterns over four batches, the last partly full, except
// that pattern 127 gives instance n-1 scan cells of its own (its primary
// inputs when the core has no flops) and pattern 191 does the same for
// instance 1's primary inputs. Capture batch b holds patterns [64b, 64b+63]
// and launch batch b [64b-1, 64b+62], so capture/launch batches 0 are
// broadcast/broadcast, 1 not/broadcast, 2 not/not and 3 broadcast/not.
std::vector<TestCube> tile_patterns(const aichip::SocNetlist& soc,
                                    std::uint64_t seed) {
  Rng rng(seed);
  const std::size_t width = soc.core_pis + soc.core_ffs;
  std::vector<TestCube> v;
  for (const TestCube& c : random_patterns(width, 212, rng)) {
    v.push_back(aichip::broadcast_cube(soc, c));
  }
  auto own_values = [&](std::size_t p, std::size_t inst, std::size_t first,
                        std::size_t last) {
    for (std::size_t k = first; k < last; ++k) {
      v[p].bits[soc.comb_index(inst, k)] =
          rng.next_bool() ? Val3::kOne : Val3::kZero;
    }
  };
  const std::size_t far = soc.num_instances - 1;
  if (soc.core_ffs > 0) {
    own_values(127, far, soc.core_pis, width);
  } else {
    own_values(127, far, 0, soc.core_pis);
  }
  own_values(191, std::min<std::size_t>(1, far), 0, soc.core_pis);
  return v;
}

// Same-level bridges inside instances (sampled) plus, per level, bridges
// from instance 0 to instance n-1: one between the two copies of a gate,
// whose nets agree under broadcast stimulus, and two between different
// gates.
std::vector<BridgingFault> tile_bridges(const aichip::SocNetlist& soc) {
  const Netlist& nl = soc.netlist;
  std::vector<BridgingFault> v = sample_bridging_faults(
      nl, 60, 9,
      {BridgeType::kWiredAnd, BridgeType::kWiredOr, BridgeType::kADominatesB,
       BridgeType::kBDominatesA});
  const std::size_t g = nl.num_gates() / soc.num_instances;
  const auto far = static_cast<GateId>((soc.num_instances - 1) * g);
  if (far == 0) return v;
  const Topology& t = nl.topology();
  for (std::uint32_t lvl = 1; lvl < t.num_levels(); ++lvl) {
    std::vector<GateId> logic;
    for (GateId id : t.level_gates(lvl)) {
      if (id < g && t.type(id) != GateType::kOutput) logic.push_back(id);
    }
    if (logic.empty()) continue;
    v.push_back({logic[0], far + logic[0], BridgeType::kWiredAnd});
    if (logic.size() > 1) {
      v.push_back({logic[0], far + logic[1], BridgeType::kADominatesB});
      v.push_back({far + logic[1], logic[0], BridgeType::kWiredOr});
    }
  }
  return v;
}

// One detection-hook call: (batch, mask, op_diffs); op_diffs stays empty
// for the mask-only hook.
struct HookCall {
  std::size_t batch = 0;
  std::uint64_t mask = 0;
  std::vector<std::uint64_t> diffs;
  friend bool operator==(const HookCall&, const HookCall&) = default;
};
using HookCalls = std::vector<std::vector<HookCall>>;  // per fault

// Runs `faults` with a recording hook: with drop_limit 0 every fault's
// mask (and diffs) on every batch is compared, not just first detections.
// Each fault's calls are recorded by the one worker that owns it.
std::pair<CampaignResult, HookCalls> run_recorded(
    const Netlist& nl, const std::vector<Fault>& faults,
    const std::vector<TestCube>& patterns, const CampaignOptions& o,
    bool detailed) {
  HookCalls calls(faults.size());
  const std::size_t nops = nl.observe_points().size();
  if (detailed) {
    const CampaignResult r = run_campaign(
        nl, faults, patterns, o,
        [&](std::size_t f, std::size_t b, std::uint64_t mask,
            std::span<const OpDiff> op_diffs) {
          calls[f].push_back({b, mask, test::dense_diffs(op_diffs, nops)});
          return false;
        });
    return {r, std::move(calls)};
  }
  const CampaignResult r =
      run_campaign(nl, faults, patterns, o,
                   [&](std::size_t f, std::size_t b, std::uint64_t mask) {
                     calls[f].push_back({b, mask, {}});
                     return false;
                   });
  return {r, std::move(calls)};
}

// Every field of the result.
void expect_same_result(const CampaignResult& got, const CampaignResult& want,
                        const std::string& label) {
  EXPECT_EQ(got.total_faults, want.total_faults) << label;
  EXPECT_EQ(got.detected_bits, want.detected_bits) << label;
  EXPECT_EQ(got.detected_after, want.detected_after) << label;
  EXPECT_EQ(got.detected, want.detected) << label;
  EXPECT_EQ(got.outcome, want.outcome) << label;
  EXPECT_EQ(got.batches_graded, want.batches_graded) << label;
}

// Grades a replica (tiled good machine on broadcast batches) and its
// gate-by-gate clone (no replica tiling: always the whole netlist) with
// every campaign kind; every result and every recorded mask and diff must
// agree.
void expect_tile_matches_clone(const Netlist& core, std::size_t n) {
  const aichip::SocNetlist soc = aichip::make_replicated_soc(core, n);
  const Netlist clone = test::cloned_replica(core, n);
  ASSERT_EQ(clone.replicas(), 0u);
  const auto patterns = tile_patterns(soc, 17 + n);
  const auto stuck = generate_stuck_at_faults(soc.netlist);
  const auto transition = generate_transition_faults(soc.netlist);
  const auto bridges = tile_bridges(soc);
  for (std::size_t t : {1, 4}) {
    for (std::size_t drop : {0, 1}) {
      const std::string label = core.name() + " x" + std::to_string(n) +
                                " t=" + std::to_string(t) +
                                " drop=" + std::to_string(drop);
      const CampaignOptions o{.num_threads = t, .drop_limit = drop};
      expect_same_result(run_campaign(soc.netlist, stuck, patterns, o),
                         run_campaign(clone, stuck, patterns, o),
                         label + " stuck-at");
      expect_same_result(run_campaign(soc.netlist, bridges, patterns, o),
                         run_campaign(clone, bridges, patterns, o),
                         label + " bridging");
      for (const bool detailed : {false, true}) {
        const auto [tiled, tiled_calls] =
            run_recorded(soc.netlist, stuck, patterns, o, detailed);
        const auto [whole, whole_calls] =
            run_recorded(clone, stuck, patterns, o, detailed);
        const std::string kind = detailed ? " detailed" : " mask hook";
        expect_same_result(tiled, whole, label + kind);
        EXPECT_EQ(tiled_calls, whole_calls) << label << kind;
      }
      const auto [tiled, tiled_calls] =
          run_recorded(soc.netlist, transition, patterns, o, false);
      const auto [whole, whole_calls] =
          run_recorded(clone, transition, patterns, o, false);
      expect_same_result(tiled, whole, label + " transition");
      EXPECT_EQ(tiled_calls, whole_calls) << label << " transition";
    }
  }
}

TEST(TiledGoodMachine, ReplicaGradesLikeItsClone) {
  const std::vector<Netlist> cores = [] {
    std::vector<Netlist> v;
    v.push_back(circuits::make_mac(3, true));
    v.push_back(circuits::make_random_logic(8, 120, 3));
    return v;
  }();
  for (const Netlist& core : cores) {
    for (std::size_t n : {1, 2, 3, 7}) expect_tile_matches_clone(core, n);
  }
}

// The good machine is one tile exactly when a replica's batch is broadcast,
// and every gate reads its instance-0 copy's word through value().
TEST(TiledGoodMachine, TileIsInstanceZeroOnBroadcastBatchesOnly) {
  const Netlist core = circuits::make_mac(3, true);
  const aichip::SocNetlist soc = aichip::make_replicated_soc(core, 3);
  const Netlist clone = test::cloned_replica(core, 3);
  const auto patterns = tile_patterns(soc, 5);
  ParallelSimulator tiled(soc.netlist);
  ParallelSimulator whole(clone);
  for (std::size_t b = 0; b * 64 < patterns.size(); ++b) {
    const PatternBatch batch = pack_patterns(
        patterns, b * 64, std::min<std::size_t>(64, patterns.size() - b * 64));
    tiled.simulate(batch);
    whole.simulate(batch);
    const bool broadcast = b == 0 || b == 3;
    EXPECT_EQ(tiled.tile(), broadcast ? core.num_gates()
                                      : soc.netlist.num_gates())
        << "batch " << b;
    EXPECT_EQ(whole.tile(), clone.num_gates());
    for (GateId g = 0; g < clone.num_gates(); ++g) {
      ASSERT_EQ(tiled.value(g), whole.value(g)) << "batch " << b << " gate " << g;
    }
    EXPECT_EQ(tiled.observed_response(), whole.observed_response());
  }
}

// ---- the lifted fault view against the materialised lift -----------------

// Cores of the lifted-view suites: the standard suite plus a 2x2 systolic
// array (flops, and the core the SoC flow replicates).
std::vector<circuits::NamedCircuit> lift_cores() {
  std::vector<circuits::NamedCircuit> cores = circuits::standard_suite();
  cores.push_back({"systolic2x2", aichip::make_systolic_array({})});
  return cores;
}

LiftedFaults lifted_view(const aichip::SocNetlist& soc,
                         std::span<const Fault> core_faults) {
  return {core_faults, soc.num_instances,
          soc.netlist.num_gates() / soc.num_instances};
}

TEST(LiftedCampaign, ViewIsTheLiftFaultForFault) {
  for (const auto& [name, core] : lift_cores()) {
    const auto universe = generate_stuck_at_faults(core);
    const auto collapsed = collapse_equivalent(core, universe);
    for (std::size_t n : {1, 2, 3, 7}) {
      SCOPED_TRACE(std::string(name) + " x" + std::to_string(n));
      const auto soc = aichip::make_replicated_soc(core, n);
      for (const auto* list : {&universe, &collapsed}) {
        const LiftedFaults view = lifted_view(soc, *list);
        const std::vector<Fault> lifted = aichip::lift_faults(soc, *list);
        ASSERT_EQ(view.size(), lifted.size());
        for (std::size_t i = 0; i < lifted.size(); ++i) {
          ASSERT_EQ(view[i], lifted[i]) << "fault " << i;
        }
      }
    }
  }
}

// Grading the view is grading the materialised lift: every per-fault and
// per-pattern output, under every dropping policy and shard count, on
// broadcast and non-broadcast batches alike (tile_patterns).
TEST(LiftedCampaign, GradesLikeTheMaterialisedList) {
  for (const auto& [name, core] : lift_cores()) {
    const auto collapsed =
        collapse_equivalent(core, generate_stuck_at_faults(core));
    const auto transition = generate_transition_faults(core);
    for (std::size_t n : {1, 2, 3, 7}) {
      const auto soc = aichip::make_replicated_soc(core, n);
      const auto patterns = tile_patterns(soc, 41 + n);
      for (const auto* list : {&collapsed, &transition}) {
        const LiftedFaults view = lifted_view(soc, *list);
        const std::vector<Fault> lifted = aichip::lift_faults(soc, *list);
        for (std::size_t t : {1, 4}) {
          for (std::size_t drop : {0, 1, 3}) {
            const std::string label =
                std::string(name) + " x" + std::to_string(n) +
                (list == &collapsed ? " stuck-at" : " transition") +
                " t=" + std::to_string(t) + " drop=" + std::to_string(drop);
            const CampaignOptions o{.num_threads = t, .drop_limit = drop};
            const CampaignResult got =
                run_campaign(soc.netlist, view, patterns, o);
            const CampaignResult want =
                run_campaign(soc.netlist, lifted, patterns, o);
            expect_same_result(got, want, label);
          }
        }
      }
    }
  }
}

// The SoC signoff checkpoints and resumes through the lifted view: a run
// stopped at barrier 2 and resumed at either thread count ends exactly
// where the uninterrupted run does, first-detect and n-detect alike.
TEST(LiftedCampaign, ResumesLikeAnUninterruptedRun) {
  const Netlist core = aichip::make_systolic_array({});
  const auto faults =
      collapse_equivalent(core, generate_stuck_at_faults(core));
  const aichip::SocNetlist soc = aichip::make_replicated_soc(core, 3);
  const LiftedFaults view = lifted_view(soc, faults);
  const auto patterns = tile_patterns(soc, 13);
  for (std::size_t drop : {1, 3}) {
    const CampaignResult want =
        run_campaign(soc.netlist, view, patterns, {.drop_limit = drop});
    for (std::size_t t : {1, 4}) {
      const std::string label =
          "drop=" + std::to_string(drop) + " t=" + std::to_string(t);
      const std::string path =
          ::testing::TempDir() + "lifted_" + std::to_string(drop) + "_" +
          std::to_string(t) + ".ckpt";
      RunControl rc;
      rc.cancel_after_checks(3);
      CampaignOptions stopped{.num_threads = t, .drop_limit = drop};
      stopped.run_control = &rc;
      stopped.checkpoint_path = path;
      stopped.checkpoint_every_batches = 1;
      EXPECT_EQ(run_campaign(soc.netlist, view, patterns, stopped).outcome,
                StageOutcome::kCancelled)
          << label;
      CampaignOptions resume{.num_threads = 5 - t, .drop_limit = drop};
      resume.resume_from = path;
      const CampaignResult got =
          run_campaign(soc.netlist, view, patterns, resume);
      expect_same_result(got, want, label);
    }
  }
}

TEST(LiftedCampaign, RejectsForeignNetlistsAndSites) {
  const Netlist core = circuits::make_mac(3, true);
  const auto faults = generate_stuck_at_faults(core);
  const aichip::SocNetlist soc = aichip::make_replicated_soc(core, 3);
  const auto patterns = tile_patterns(soc, 7);
  const std::size_t g = core.num_gates();
  auto rejects = [&](const Netlist& nl, const LiftedFaults& view) {
    EXPECT_THROW(run_campaign(nl, view, patterns), Error);
  };
  // A gate-by-gate clone is no replica, and an instance count or gate
  // stride other than the replica's own would lift into the wrong gates.
  rejects(test::cloned_replica(core, 3), {faults, 3, g});
  rejects(soc.netlist, {faults, 2, g});
  rejects(soc.netlist, {faults, 4, g});
  rejects(soc.netlist, {faults, 0, g});
  rejects(soc.netlist, {faults, 3, g - 1});
  // Core faults outside the core: a gate past G, a pin past its fanins.
  const Fault past_gate{static_cast<GateId>(g), kStemPin, 0};
  rejects(soc.netlist, {std::vector<Fault>{faults[0], past_gate}, 3, g});
  const GateId input = core.inputs()[0];
  const Fault past_pin{input, 0, 1};
  rejects(soc.netlist, {std::vector<Fault>{faults[0], past_pin}, 3, g});
  // The valid view itself grades.
  EXPECT_NO_THROW(run_campaign(soc.netlist, LiftedFaults{faults, 3, g},
                               patterns));
}

// Under broadcast every instance's good machine is instance 0's, so a root
// cache kept across instances would change no output; only the count of
// root propagations shows that every instance propagates its own roots.
// One batch and one worker: no shard boundary splits an instance.
TEST(RootCache, EveryInstancePropagatesItsOwnRoots) {
  const Netlist core = aichip::make_systolic_array({});
  const auto faults =
      collapse_equivalent(core, generate_stuck_at_faults(core));
  const aichip::SocNetlist soc = aichip::make_replicated_soc(core, 8);
  Rng rng(3);
  const std::vector<TestCube> core_patterns =
      random_patterns(core.num_combinational_inputs(), 64, rng);
  std::vector<TestCube> soc_patterns;
  for (const TestCube& c : core_patterns) {
    soc_patterns.push_back(aichip::broadcast_cube(soc, c));
  }
  obs::Telemetry core_tel, soc_tel;
  const CampaignResult core_result =
      run_campaign(core, faults, core_patterns, {.telemetry = &core_tel});
  const CampaignResult soc_result =
      run_campaign(soc.netlist, lifted_view(soc, faults), soc_patterns,
                   {.telemetry = &soc_tel});
  EXPECT_EQ(soc_result.detected, 8 * core_result.detected);
  const obs::MetricsSnapshot core_m = core_tel.metrics.snapshot();
  const obs::MetricsSnapshot soc_m = soc_tel.metrics.snapshot();
  for (const char* name : {"fsim.root_propagations", "fsim.local_walks"}) {
    EXPECT_GT(core_m.counter_value(name), 0u) << name;
    EXPECT_EQ(soc_m.counter_value(name), 8 * core_m.counter_value(name))
        << name;
  }
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
