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
// campaign at 1 and at 4 threads with the reference campaign.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <string>
#include <vector>

#include "atpg/atpg.hpp"
#include "bench_circuits/generators.hpp"
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

// Exact detectability of every fault: graded against all 2^n vectors.
std::vector<bool> exhaustive_detectable(const Netlist& nl,
                                        const std::vector<Fault>& faults) {
  const std::size_t width = nl.combinational_inputs().size();
  AIDFT_REQUIRE(width <= kMaxInputs, "exhaustive oracle: too many inputs");
  const std::vector<TestCube> all = test::exhaustive_patterns(width);
  FaultSimulator fsim(nl);
  std::vector<bool> detectable(faults.size(), false);
  for (std::size_t base = 0; base < all.size(); base += 64) {
    const std::size_t count = std::min<std::size_t>(64, all.size() - base);
    fsim.load_batch(pack_patterns(all, base, count));
    for (std::size_t i = 0; i < faults.size(); ++i) {
      if (!detectable[i] && fsim.detect_mask(faults[i]) != 0) {
        detectable[i] = true;
      }
    }
  }
  return detectable;
}

class AtpgOracle : public ::testing::TestWithParam<std::string> {
 protected:
  void SetUp() override {
    nl_ = oracle_circuit(GetParam());
    ASSERT_LE(nl_.combinational_inputs().size(), kMaxInputs);
    faults_ = collapse_equivalent(nl_, generate_stuck_at_faults(nl_));
    detectable_ = exhaustive_detectable(nl_, faults_);
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
  SatAtpg sat(nl_);
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

}  // namespace
}  // namespace aidft
