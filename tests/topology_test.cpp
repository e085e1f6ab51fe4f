// Tests of the compiled Topology view: fanin CSR must mirror the builder's
// fanin lists exactly (snapshotted before finalize() frees them), fanout CSR
// must list each driver's sinks in ascending id with one entry per edge,
// levels must be longest paths, level buckets must partition the topo order,
// and the levelized good machine and PPSFP must be bit-identical to the
// reference engine's full sweeps (full_sweep).
#include <gtest/gtest.h>

#include <algorithm>

#include "aichip/systolic.hpp"
#include "atpg/podem.hpp"
#include "bench_circuits/generators.hpp"
#include "common/rng.hpp"
#include "fault/fault.hpp"
#include "fsim/fault_sim.hpp"
#include "netlist/scoap.hpp"
#include "sim/parallel_sim.hpp"
#include "test_util.hpp"

namespace aidft {
namespace {

std::vector<Netlist> adjacency_corpus(std::uint64_t seed) {
  std::vector<Netlist> v;
  v.push_back(circuits::make_random_logic(8, 120, seed));
  v.push_back(circuits::make_random_logic(12, 400, seed ^ 0xABCD));
  v.push_back(circuits::make_counter(8));       // sequential: DFF sources
  v.push_back(circuits::make_mac(8, true));     // registered datapath
  return v;
}

// ---- CSR adjacency and levels against the builder's fanin lists ----------
class CsrAdjacency : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CsrAdjacency, MatchesGateListsExactly) {
  for (const Netlist& src : adjacency_corpus(GetParam())) {
    // Rebuild the netlist through the builder and snapshot its records
    // while gate() still reads them: finalize() frees them.
    Netlist nl(src.name());
    const std::vector<GateId> map = clone_gates(nl, src, "");
    clone_fanins(nl, src, map, map);
    std::vector<GateType> types(nl.num_gates());
    std::vector<std::vector<GateId>> fanins(nl.num_gates());
    for (GateId id = 0; id < nl.num_gates(); ++id) {
      const Gate g = nl.gate(id);
      types[id] = g.type;
      fanins[id].assign(g.fanin.begin(), g.fanin.end());
    }
    nl.finalize();
    const Topology& t = nl.topology();
    ASSERT_EQ(t.num_gates(), fanins.size());
    // Expected fanout, derived here from the fanin lists: sinks in
    // ascending id, one entry per edge (a gate reading a driver twice is
    // listed twice).
    std::vector<std::vector<GateId>> sinks(fanins.size());
    for (GateId id = 0; id < fanins.size(); ++id) {
      for (GateId f : fanins[id]) sinks[f].push_back(id);
    }
    for (GateId id = 0; id < fanins.size(); ++id) {
      EXPECT_EQ(t.type(id), types[id]) << "gate " << id;
      // Pin order matters (MUX select, fault pin indices): element-wise.
      const auto fin = t.fanin(id);
      ASSERT_EQ(fin.size(), fanins[id].size()) << "gate " << id;
      EXPECT_TRUE(std::equal(fin.begin(), fin.end(), fanins[id].begin()))
          << "fanin order differs at gate " << id;
      const auto fout = t.fanout(id);
      ASSERT_EQ(fout.size(), sinks[id].size()) << "gate " << id;
      EXPECT_TRUE(std::equal(fout.begin(), fout.end(), sinks[id].begin()))
          << "fanout order differs at gate " << id;
      if (!fanins[id].empty()) {
        EXPECT_EQ(t.fanin0(id), fanins[id][0]);
      }
    }
  }
}

// level() is the longest path from a source or flop output, recomputed here
// by relaxing every fanin edge to a fixpoint (no topological order used).
TEST_P(CsrAdjacency, LevelsAreLongestPaths) {
  for (const Netlist& nl : adjacency_corpus(GetParam())) {
    std::vector<std::uint32_t> level(nl.num_gates(), 0);
    for (bool changed = true; changed;) {
      changed = false;
      for (GateId id = 0; id < nl.num_gates(); ++id) {
        const Gate& g = nl.gate(id);
        if (is_source(g.type) || is_state_element(g.type)) continue;
        for (GateId f : g.fanin) {
          if (level[f] + 1 > level[id]) {
            level[id] = level[f] + 1;
            changed = true;
          }
        }
      }
    }
    const Topology& t = nl.topology();
    std::uint32_t num_levels = 0;
    for (GateId id = 0; id < nl.num_gates(); ++id) {
      EXPECT_EQ(t.level(id), level[id]) << "gate " << id;
      num_levels = std::max(num_levels, level[id] + 1);
    }
    EXPECT_EQ(t.num_levels(), num_levels);
    EXPECT_EQ(nl.num_levels(), num_levels);
  }
}

TEST_P(CsrAdjacency, LevelBucketsPartitionTopoOrder) {
  for (const Netlist& nl : adjacency_corpus(GetParam())) {
    const Topology& t = nl.topology();
    ASSERT_EQ(t.num_levels(), nl.num_levels());
    ASSERT_EQ(t.topo_order().size(), nl.num_gates());
    std::size_t total = 0;
    std::size_t pos = 0;
    for (std::uint32_t lvl = 0; lvl < t.num_levels(); ++lvl) {
      const auto gates = t.level_gates(lvl);
      total += gates.size();
      for (GateId g : gates) {
        EXPECT_EQ(t.level(g), lvl);
        // The bucket concatenation IS the topo order, in order.
        EXPECT_EQ(t.topo_order()[pos++], g);
      }
    }
    EXPECT_EQ(total, nl.num_gates());
    EXPECT_EQ(t.level_begin().size(), t.num_levels() + 1);
    EXPECT_EQ(t.level_begin().back(), nl.num_gates());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CsrAdjacency,
                         ::testing::Values(11, 12, 13, 14, 15, 16, 17, 18));

// ---- engines over the view are bit-identical to the reference sweep ------

TEST(TopologyBitIdentity, GoodMachineSimMatchesGatewalkOnSuite) {
  for (const auto& nc : circuits::standard_suite()) {
    const Netlist& nl = nc.netlist;
    Rng rng(0xE20 ^ nl.num_gates());
    const auto cubes =
        random_patterns(nl.combinational_inputs().size(), 64, rng);
    const PatternBatch batch = pack_patterns(cubes, 0, 64);
    ParallelSimulator sim(nl);
    sim.simulate(batch);
    std::vector<std::uint64_t> ref(nl.num_gates(), 0);
    const auto comb_inputs = nl.combinational_inputs();
    for (std::size_t i = 0; i < comb_inputs.size(); ++i) {
      ref[comb_inputs[i]] = batch.words[i];
    }
    full_sweep(nl, ref, nullptr);
    for (GateId g = 0; g < nl.num_gates(); ++g) {
      ASSERT_EQ(sim.value(g), ref[g]) << nc.name << " gate " << g;
    }
  }
}

TEST(TopologyBitIdentity, PpsfpMatchesReferenceOracleOnSuite) {
  for (const auto& nc : circuits::standard_suite()) {
    const Netlist& nl = nc.netlist;
    const auto faults =
        collapse_equivalent(nl, generate_stuck_at_faults(nl));
    Rng rng(0x5EED ^ nl.num_gates());
    const auto cubes =
        random_patterns(nl.combinational_inputs().size(), 64, rng);
    const PatternBatch batch = pack_patterns(cubes, 0, 64);
    FaultSimulator fsim(nl);
    fsim.load_batch(batch);
    // Sample the list to keep runtime bounded; the oracle resimulates the
    // whole circuit per fault.
    const std::size_t step = std::max<std::size_t>(1, faults.size() / 50);
    for (std::size_t i = 0; i < faults.size(); i += step) {
      ASSERT_EQ(fsim.detect_mask(faults[i]),
                fsim.detect_mask_reference(batch, faults[i]))
          << nc.name << " fault " << fault_name(nl, faults[i]);
    }
  }
}

TEST(TopologyBitIdentity, PodemCubesVerifiedByReferenceOracleOnSuite) {
  for (const auto& nc : circuits::standard_suite()) {
    const Netlist& nl = nc.netlist;
    const ScoapResult scoap = compute_scoap(nl);
    Podem podem(nl, &scoap);
    FaultSimulator fsim(nl);
    const auto faults = generate_stuck_at_faults(nl);
    const std::size_t step = std::max<std::size_t>(1, faults.size() / 25);
    for (std::size_t i = 0; i < faults.size(); i += step) {
      const AtpgOutcome out = podem.generate(faults[i]);
      if (out.status != AtpgStatus::kDetected) continue;
      std::vector<TestCube> one{out.cube};
      // X bits must not matter for detection: fill with zeros.
      one[0].constant_fill(Val3::kZero);
      const PatternBatch batch = pack_patterns(one, 0, 1);
      EXPECT_NE(fsim.detect_mask_reference(batch, faults[i]) & 1ull, 0ull)
          << nc.name << " cube for " << fault_name(nl, faults[i])
          << " does not detect per the reference oracle";
    }
  }
}

// SCOAP runs over the Topology view; re-verify its controllability
// recurrences gate by gate through the Gate views.
TEST(TopologyBitIdentity, ScoapRecurrencesHoldOverGateStructs) {
  for (const auto& nc : circuits::standard_suite()) {
    const Netlist& nl = nc.netlist;
    const ScoapResult r = compute_scoap(nl);
    auto sat_add = [](std::uint32_t a, std::uint32_t b) {
      const std::uint32_t s = a + b;
      return s >= kUnreachable ? kUnreachable : s;
    };
    for (GateId id = 0; id < nl.num_gates(); ++id) {
      const Gate& g = nl.gate(id);
      switch (g.type) {
        case GateType::kInput:
        case GateType::kDff:
          EXPECT_EQ(r.cc0[id], 1u);
          EXPECT_EQ(r.cc1[id], 1u);
          break;
        case GateType::kBuf:
        case GateType::kOutput:
          EXPECT_EQ(r.cc0[id], sat_add(r.cc0[g.fanin[0]], 1));
          EXPECT_EQ(r.cc1[id], sat_add(r.cc1[g.fanin[0]], 1));
          break;
        case GateType::kNot:
          EXPECT_EQ(r.cc0[id], sat_add(r.cc1[g.fanin[0]], 1));
          EXPECT_EQ(r.cc1[id], sat_add(r.cc0[g.fanin[0]], 1));
          break;
        case GateType::kAnd:
        case GateType::kNand: {
          std::uint32_t all1 = 0, min0 = kUnreachable;
          for (GateId f : g.fanin) {
            all1 = sat_add(all1, r.cc1[f]);
            min0 = std::min(min0, r.cc0[f]);
          }
          const std::uint32_t hard = sat_add(all1, 1);
          const std::uint32_t easy = sat_add(min0, 1);
          EXPECT_EQ(g.type == GateType::kAnd ? r.cc1[id] : r.cc0[id], hard);
          EXPECT_EQ(g.type == GateType::kAnd ? r.cc0[id] : r.cc1[id], easy);
          break;
        }
        case GateType::kOr:
        case GateType::kNor: {
          std::uint32_t all0 = 0, min1 = kUnreachable;
          for (GateId f : g.fanin) {
            all0 = sat_add(all0, r.cc0[f]);
            min1 = std::min(min1, r.cc1[f]);
          }
          const std::uint32_t hard = sat_add(all0, 1);
          const std::uint32_t easy = sat_add(min1, 1);
          EXPECT_EQ(g.type == GateType::kOr ? r.cc0[id] : r.cc1[id], hard);
          EXPECT_EQ(g.type == GateType::kOr ? r.cc1[id] : r.cc0[id], easy);
          break;
        }
        default:
          break;  // XOR/MUX recurrences exercised by scoap's own tests
      }
    }
  }
}

// ---- builder-phase additions ----------------------------------------------

TEST(NetlistBuilder, ReserveDoesNotChangeBehaviour) {
  Netlist a, b;
  b.reserve(64);
  for (Netlist* nl : {&a, &b}) {
    const GateId x = nl->add_input("x");
    const GateId y = nl->add_input("y");
    const GateId z = nl->add_gate(GateType::kAnd, {x, y}, "z");
    nl->add_output(z, "o");
    nl->finalize();
  }
  EXPECT_EQ(a.num_gates(), b.num_gates());
  EXPECT_EQ(a.topo_order(), b.topo_order());
  EXPECT_EQ(b.name_of(2), "z");
}

// finalize() frees the builder records: a finalized netlist's Gate views
// are rows of its Topology.
TEST(NetlistBuilder, FinalizedGateViewsReadTheTopology) {
  const Netlist nl = circuits::make_random_logic(8, 120, 3);
  const Topology& t = nl.topology();
  for (GateId id = 0; id < nl.num_gates(); ++id) {
    const Gate g = nl.gate(id);
    EXPECT_EQ(g.type, t.type(id)) << "gate " << id;
    EXPECT_EQ(g.fanin.data(), t.fanin(id).data()) << "gate " << id;
    EXPECT_EQ(g.fanin.size(), t.fanin_size(id)) << "gate " << id;
  }
}

// Builder records keep three fanins inline and move wider lists into one
// shared spill array, moving again as they outgrow their room there. Two
// wide gates growing in turn must each read their fanins in pin order at
// every step, and the compiled rows must match.
TEST(NetlistBuilder, WideGatesKeepPinOrderWhileGrowingInTurn) {
  Netlist nl;
  std::vector<GateId> in;
  for (int i = 0; i < 20; ++i) in.push_back(nl.add_input());
  const GateId a = nl.add_gate(GateType::kAnd);
  const GateId b = nl.add_gate(GateType::kXor);
  std::vector<GateId> want_a, want_b;
  const auto fanin_of = [&](GateId g) {
    const std::span<const GateId> f = nl.gate(g).fanin;
    return std::vector<GateId>(f.begin(), f.end());
  };
  for (std::size_t k = 0; k < in.size(); ++k) {
    nl.connect(in[k], a);
    want_a.push_back(in[k]);
    if (k % 2 == 0) {
      nl.connect(in[in.size() - 1 - k], b);
      want_b.push_back(in[in.size() - 1 - k]);
    }
    ASSERT_EQ(fanin_of(a), want_a) << "after " << k + 1 << " connects";
    ASSERT_EQ(fanin_of(b), want_b) << "after " << k + 1 << " connects";
  }
  nl.add_output(a);
  nl.add_output(b);
  nl.finalize();
  EXPECT_EQ(fanin_of(a), want_a);
  EXPECT_EQ(fanin_of(b), want_b);
}

TEST(NetlistBuilder, NameOfReturnsSideTableEntries) {
  Netlist nl;
  const GateId x = nl.add_input("x");
  const GateId anon = nl.add_gate(GateType::kNot, {x});
  nl.add_output(anon, "o");
  EXPECT_EQ(nl.name_of(x), "x");
  EXPECT_TRUE(nl.name_of(anon).empty());
  EXPECT_EQ(nl.find("x"), x);
}

// ---- replication ------------------------------------------------------------

// Topology::replicate tiles the core's compiled view; Topology::build of the
// same replica rebuilt gate by gate must compute exactly the same arrays.
TEST(Topology, ReplicateMatchesBuild) {
  std::vector<circuits::NamedCircuit> cores = circuits::standard_suite();
  cores.push_back({"systolic2x2", aichip::make_systolic_array({})});
  cores.push_back({"mac8r", circuits::make_mac(8, true)});
  cores.push_back({"counter8", circuits::make_counter(8)});
  cores.push_back({"rand12_400", circuits::make_random_logic(12, 400, 5)});
  Netlist empty("empty");
  empty.finalize();
  cores.push_back({"empty", std::move(empty)});
  for (const auto& nc : cores) {
    for (std::size_t n : {1, 2, 3, 7}) {
      SCOPED_TRACE(std::string(nc.name) + " x" + std::to_string(n));
      const Netlist oracle = test::cloned_replica(nc.netlist, n);
      const Topology& want = oracle.topology();
      const Topology got = Topology::replicate(nc.netlist.topology(), n);
      ASSERT_EQ(got.num_gates(), want.num_gates());
      for (GateId id = 0; id < want.num_gates(); ++id) {
        ASSERT_EQ(got.type(id), want.type(id)) << "gate " << id;
        ASSERT_EQ(got.level(id), want.level(id)) << "gate " << id;
        ASSERT_EQ(got.fanin_offset(id), want.fanin_offset(id)) << "gate " << id;
        ASSERT_TRUE(std::ranges::equal(got.fanin(id), want.fanin(id)))
            << "fanin of gate " << id;
        ASSERT_TRUE(std::ranges::equal(got.fanout(id), want.fanout(id)))
            << "fanout of gate " << id;
      }
      EXPECT_EQ(got.topo_order(), want.topo_order());
      EXPECT_EQ(got.level_begin(), want.level_begin());
      EXPECT_EQ(got.num_levels(), want.num_levels());
      EXPECT_EQ(got.bytes(), want.bytes());
    }
  }
}

TEST(TopologyView, RequiresFinalize) {
  Netlist nl;
  nl.add_input("x");
  EXPECT_ANY_THROW((void)nl.topology());
}

}  // namespace
}  // namespace aidft
