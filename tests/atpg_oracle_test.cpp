// Exhaustive ground truth for the stuck-at ATPG engines.
//
// On netlists with at most 14 combinational inputs, simulating all 2^n input
// vectors yields the exact set of detectable collapsed stuck-at faults. Every
// engine is held to that set: PODEM without a backtrack limit, the SAT miter
// without a conflict limit, and the default PODEM->SAT pipeline. PODEM and
// SAT cubes are also checked with their X bits left in place: the
// whole-circuit 3-valued good/faulty pass (test::full_pass_3v) must show a
// known difference at an observe point, so every completion of the cube is a
// test. Over the same corpus and the same 2^n vectors, the PPSFP engine must
// agree with the reference engine's full sweeps batch by batch, and a
// campaign at 1 and at 4 threads with the reference campaign; bridging
// faults must agree with a two-sweep reference batch by batch, on each
// circuit and across the two instances of its broadcast replica.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "aichip/soc.hpp"
#include "atpg/atpg.hpp"
#include "bench_circuits/generators.hpp"
#include "fault/bridging.hpp"
#include "fsim/campaign.hpp"
#include "fsim/fault_sim.hpp"
#include "test_util.hpp"

namespace aidft {
namespace {

constexpr std::size_t kMaxInputs = 14;

struct OracleCase {
  std::string name;
  Netlist nl;
};

// make_random_logic(n, g, seed) shapes, plus every standard_suite circuit
// small enough to enumerate, plus the textbook redundant circuit.
std::vector<OracleCase> oracle_cases() {
  std::vector<OracleCase> cases;
  const struct {
    std::size_t inputs, gates;
    std::uint64_t seed;
  } shapes[] = {{6, 30, 1},   {8, 60, 2},   {10, 100, 3}, {12, 150, 4},
                {12, 220, 5}, {14, 180, 6}, {14, 260, 7}};
  for (const auto& s : shapes) {
    cases.push_back({"rand_i" + std::to_string(s.inputs) + "_g" +
                         std::to_string(s.gates) + "_s" +
                         std::to_string(s.seed),
                     circuits::make_random_logic(s.inputs, s.gates, s.seed)});
  }
  for (auto& nc : circuits::standard_suite()) {
    if (nc.netlist.combinational_inputs().size() <= kMaxInputs) {
      cases.push_back({nc.name, std::move(nc.netlist)});
    }
  }
  cases.push_back({"redundant", circuits::make_redundant()});
  return cases;
}

std::vector<std::string> oracle_case_names() {
  std::vector<std::string> names;
  for (const OracleCase& c : oracle_cases()) names.push_back(c.name);
  return names;
}

Netlist oracle_circuit(const std::string& name) {
  for (OracleCase& c : oracle_cases()) {
    if (c.name == name) return std::move(c.nl);
  }
  throw Error("unknown oracle circuit: " + name);
}

class AtpgOracle : public ::testing::TestWithParam<std::string> {
 protected:
  void SetUp() override {
    nl_ = oracle_circuit(GetParam());
    ASSERT_LE(nl_.combinational_inputs().size(), kMaxInputs);
    faults_ = collapse_equivalent(nl_, generate_stuck_at_faults(nl_));
    detectable_ = test::exhaustive_detectable(nl_, faults_);
  }

  static AtpgStatus expected(bool detectable) {
    return detectable ? AtpgStatus::kDetected : AtpgStatus::kUntestable;
  }

  Netlist nl_;
  std::vector<Fault> faults_;
  std::vector<bool> detectable_;
};

TEST_P(AtpgOracle, UnlimitedPodemDetectsExactlyTheDetectableSet) {
  // Under both guidance heuristics (SCOAP and levels): each search path
  // differs, and every cube must detect with its X bits in place.
  const ScoapResult scoap = compute_scoap(nl_);
  PodemOptions opts;
  opts.backtrack_limit = std::numeric_limits<std::uint64_t>::max();
  for (const ScoapResult* guidance :
       {&scoap, static_cast<const ScoapResult*>(nullptr)}) {
    Podem podem(nl_, guidance);
    for (std::size_t i = 0; i < faults_.size(); ++i) {
      const AtpgOutcome out = podem.generate(faults_[i], opts);
      ASSERT_EQ(out.status, expected(detectable_[i]))
          << fault_name(nl_, faults_[i]) << (guidance ? " (scoap)" : " (levels)");
      if (out.status == AtpgStatus::kDetected) {
        EXPECT_TRUE(test::cube_detects_3v(nl_, out.cube, faults_[i]))
            << fault_name(nl_, faults_[i]) << " cube " << out.cube.to_string()
            << (guidance ? " (scoap)" : " (levels)");
      }
    }
  }
}

TEST_P(AtpgOracle, SatIsUnsatExactlyOnTheUndetectableSet) {
  Podem podem(nl_);
  SatAtpg sat(podem);
  SatAtpgOptions opts;
  opts.conflict_limit = -1;
  for (std::size_t i = 0; i < faults_.size(); ++i) {
    const AtpgOutcome out = sat.generate(faults_[i], opts);
    ASSERT_EQ(out.status, expected(detectable_[i]))
        << fault_name(nl_, faults_[i]);
    if (out.status == AtpgStatus::kDetected) {
      // X bits included: the cube must hold for every completion.
      EXPECT_TRUE(test::cube_detects_3v(nl_, out.cube, faults_[i]))
          << fault_name(nl_, faults_[i]) << " cube " << out.cube.to_string();
    }
  }
}

TEST_P(AtpgOracle, DefaultPipelineMarksExactlyTheUndetectableSetUntestable) {
  const AtpgResult r = generate_tests(nl_, faults_);
  EXPECT_EQ(r.aborted, 0u);
  for (std::size_t i = 0; i < faults_.size(); ++i) {
    EXPECT_EQ(r.status[i], detectable_[i] ? FaultStatus::kDetected
                                          : FaultStatus::kUntestable)
        << fault_name(nl_, faults_[i]);
  }
}

INSTANTIATE_TEST_SUITE_P(Circuits, AtpgOracle,
                         ::testing::ValuesIn(oracle_case_names()),
                         [](const auto& info) { return info.param; });

// PPSFP against the reference engine on every collapsed fault and every
// 64-vector batch of the exhaustive set: the two share the compiled
// Topology and the per-gate word evaluator, but no traversal.
class ExhaustiveAgreement : public ::testing::TestWithParam<std::string> {
 protected:
  void SetUp() override {
    nl_ = oracle_circuit(GetParam());
    ASSERT_LE(nl_.combinational_inputs().size(), kMaxInputs);
    faults_ = collapse_equivalent(nl_, generate_stuck_at_faults(nl_));
    all_ = test::exhaustive_patterns(nl_.combinational_inputs().size());
  }

  Netlist nl_;
  std::vector<Fault> faults_;
  std::vector<TestCube> all_;
};

TEST_P(ExhaustiveAgreement, PpsfpMatchesReferenceOnEveryBatch) {
  FaultSimulator fsim(nl_);
  for (std::size_t base = 0; base < all_.size(); base += 64) {
    const PatternBatch batch = pack_patterns(
        all_, base, std::min<std::size_t>(64, all_.size() - base));
    fsim.load_batch(batch);
    for (const Fault& f : faults_) {
      ASSERT_EQ(fsim.detect_mask(f), fsim.detect_mask_reference(batch, f))
          << fault_name(nl_, f) << " batch " << base / 64;
    }
  }
}

TEST_P(ExhaustiveAgreement, CampaignMatchesReferenceAtOneAndFourThreads) {
  CampaignOptions reference;
  reference.engine = CampaignEngine::kReference;
  reference.drop_limit = 0;
  const test::FirstDetections want =
      test::first_detections(nl_, faults_, all_, reference);
  for (std::size_t threads : {1, 4}) {
    CampaignOptions options;
    options.drop_limit = 0;
    options.num_threads = threads;
    const test::FirstDetections got =
        test::first_detections(nl_, faults_, all_, options);
    EXPECT_EQ(got.first, want.first) << threads << " threads";
    EXPECT_EQ(got.result.detected_bits, want.result.detected_bits)
        << threads << " threads";
    EXPECT_EQ(got.result.detected_after, want.result.detected_after)
        << threads << " threads";
    EXPECT_EQ(got.result.detected, want.result.detected)
        << threads << " threads";
  }
}

INSTANTIATE_TEST_SUITE_P(Circuits, ExhaustiveAgreement,
                         ::testing::ValuesIn(oracle_case_names()),
                         [](const auto& info) { return info.param; });

// ---- bridging faults against a two-sweep reference ------------------------

constexpr BridgeType kBridgeTypes[] = {
    BridgeType::kWiredAnd, BridgeType::kWiredOr, BridgeType::kADominatesB,
    BridgeType::kBDominatesA};

// The words nets a and b read under the bridge, from their good words.
std::pair<std::uint64_t, std::uint64_t> bridged_words(BridgeType type,
                                                      std::uint64_t va,
                                                      std::uint64_t vb) {
  switch (type) {
    case BridgeType::kWiredAnd: return {va & vb, va & vb};
    case BridgeType::kWiredOr: return {va | vb, va | vb};
    case BridgeType::kADominatesB: return {va, va};
    case BridgeType::kBDominatesA: return {vb, vb};
  }
  return {va, vb};
}

// Every gate's word with only the batch's input and flop words filled in.
std::vector<std::uint64_t> loaded_words(const Netlist& nl,
                                        const PatternBatch& batch) {
  std::vector<std::uint64_t> v(nl.num_gates(), 0);
  for (std::size_t i = 0; i < batch.words.size(); ++i) {
    v[nl.combinational_input(i)] = batch.words[i];
  }
  return v;
}

// Reference bridging grade: after the good sweep (`good`), a second full
// sweep in which nets a and b hold the words the bridge gives them, however
// their fanins change; the lanes on which an observe point differs.
std::uint64_t bridge_reference(const Netlist& nl, const PatternBatch& batch,
                               const std::vector<std::uint64_t>& good,
                               const BridgingFault& br) {
  const auto [na, nb] = bridged_words(br.type, good[br.a], good[br.b]);
  std::vector<std::uint64_t> faulty = loaded_words(nl, batch);
  const Topology& t = nl.topology();
  for (GateId id : t.topo_order()) {
    const GateType type = t.type(id);
    if (type == GateType::kConst1) faulty[id] = ~0ull;
    if (!is_source(type) && !is_state_element(type)) {
      const std::span<const GateId> fin = t.fanin(id);
      faulty[id] = eval_gate_words(type, fin.size(),
                                   [&](std::size_t k) { return faulty[fin[k]]; });
    }
    if (id == br.a) faulty[id] = na;
    if (id == br.b) faulty[id] = nb;
  }
  std::uint64_t detect = 0;
  for (std::size_t i = 0; i < nl.num_observe_points(); ++i) {
    const GateId og = nl.observed_gate(nl.observe_point(i));
    detect |= good[og] ^ faulty[og];
  }
  return detect & batch.lane_mask();
}

// The sampler's same-level pairs in all four types, plus every fourth gate
// bridged to its first logic fanout, in both orders: there one net's cone
// reaches the other, which must keep its bridged word when re-evaluated.
std::vector<BridgingFault> oracle_bridges(const Netlist& nl) {
  std::vector<BridgingFault> v = sample_bridging_faults(
      nl, 100, 21, {std::begin(kBridgeTypes), std::end(kBridgeTypes)});
  const Topology& t = nl.topology();
  auto logic = [&](GateId g) {
    return t.type(g) != GateType::kOutput && !is_state_element(t.type(g));
  };
  for (GateId a = 0; a < nl.num_gates(); a += 4) {
    if (!logic(a) || is_source(t.type(a))) continue;
    const auto fanout = t.fanout(a);
    const auto s = std::find_if(fanout.begin(), fanout.end(), logic);
    if (s == fanout.end()) continue;
    for (BridgeType type : kBridgeTypes) {
      v.push_back({a, *s, type});
      v.push_back({*s, a, type});
    }
  }
  return v;
}

// detect_mask_bridging against bridge_reference for every bridge on every
// 64-pattern batch; each batch's good machine must be `tile` gates wide.
void expect_bridges_match_reference(const Netlist& nl,
                                    const std::vector<BridgingFault>& bridges,
                                    const std::vector<TestCube>& patterns,
                                    std::size_t tile) {
  ASSERT_FALSE(bridges.empty());
  FaultSimulator fsim(nl);
  ParallelSimulator sim(nl);
  for (std::size_t base = 0; base < patterns.size(); base += 64) {
    const PatternBatch batch = pack_patterns(
        patterns, base, std::min<std::size_t>(64, patterns.size() - base));
    fsim.load_batch(batch);
    sim.simulate(batch);
    ASSERT_EQ(sim.tile(), tile) << "batch " << base / 64;
    std::vector<std::uint64_t> good = loaded_words(nl, batch);
    full_sweep(nl, good, nullptr);
    for (const BridgingFault& br : bridges) {
      ASSERT_EQ(fsim.detect_mask_bridging(br),
                bridge_reference(nl, batch, good, br))
          << bridge_name(nl, br) << " batch " << base / 64;
    }
  }
}

class ExhaustiveBridging : public ::testing::TestWithParam<std::string> {
 protected:
  void SetUp() override {
    nl_ = oracle_circuit(GetParam());
    ASSERT_LE(nl_.combinational_inputs().size(), kMaxInputs);
    all_ = test::exhaustive_patterns(nl_.combinational_inputs().size());
  }

  Netlist nl_;
  std::vector<TestCube> all_;
};

TEST_P(ExhaustiveBridging, MatchesTwoSweepReferenceOnEveryBatch) {
  expect_bridges_match_reference(nl_, oracle_bridges(nl_), all_,
                                 nl_.num_gates());
}

// Two instances under the core's 2^n set broadcast: the good machine is
// one instance wide, and a bridge between the instances couples cones that
// share no gate. The core's bridges take turns at four placements: from
// instance 0 to 1, from 1 to 0, inside instance 1, and a gate bridged to
// its own copy (the two nets agree on every broadcast lane, so it is never
// detected).
TEST_P(ExhaustiveBridging, CrossInstanceOnABroadcastReplica) {
  const aichip::SocNetlist soc = aichip::make_replicated_soc(nl_, 2);
  const auto g = static_cast<GateId>(nl_.num_gates());
  std::vector<BridgingFault> bridges = oracle_bridges(nl_);
  for (std::size_t i = 0; i < bridges.size(); ++i) {
    BridgingFault& br = bridges[i];
    switch (i % 4) {
      case 0: br.b += g; break;
      case 1: br.a += g; break;
      case 2: br.a += g; br.b += g; break;
      case 3: br.b = br.a + g; break;
    }
  }
  std::vector<TestCube> broadcast;
  broadcast.reserve(all_.size());
  for (const TestCube& c : all_) {
    broadcast.push_back(aichip::broadcast_cube(soc, c));
  }
  expect_bridges_match_reference(soc.netlist, bridges, broadcast,
                                 nl_.num_gates());
}

INSTANTIATE_TEST_SUITE_P(Circuits, ExhaustiveBridging,
                         ::testing::ValuesIn(oracle_case_names()),
                         [](const auto& info) { return info.param; });

}  // namespace
}  // namespace aidft
