#include "diag/diagnosis.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "aichip/systolic.hpp"
#include "atpg/atpg.hpp"
#include "bench_circuits/generators.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "fault/bridging.hpp"
#include "fault/fault.hpp"
#include "fsim/fault_sim.hpp"
#include "test_util.hpp"

namespace aidft {
namespace {

TEST(FailLog, CountsFailingPatterns) {
  const Netlist nl = circuits::make_c17();
  Rng rng(3);
  const auto patterns = random_patterns(5, 32, rng);
  const Fault defect{nl.find("G11"), kStemPin, 1, FaultKind::kStuckAt};
  const FailLog log = simulate_defect(nl, patterns, defect);
  EXPECT_TRUE(log.any_failure());
  EXPECT_GT(log.failing_pattern_count(), 0u);
  EXPECT_LE(log.failing_pattern_count(), patterns.size());
}

TEST(FailLog, FaultFreeChipHasNoFailures) {
  const Netlist nl = circuits::make_c17();
  Rng rng(3);
  const auto patterns = random_patterns(5, 16, rng);
  // A fault that this pattern set does not activate: use an unsatisfiable
  // one — stuck at the value the line always takes is impossible, so pick a
  // redundant fault instead.
  const Netlist red = circuits::make_redundant();
  const Fault redundant{red.find("t_bc_redundant"), kStemPin, 0,
                        FaultKind::kStuckAt};
  const auto patterns3 = random_patterns(3, 16, rng);
  const FailLog log = simulate_defect(red, patterns3, redundant);
  EXPECT_FALSE(log.any_failure());
  EXPECT_EQ(log.failing_pattern_count(), 0u);
}

// The reproduction claim (E9): for single stuck-at defects, the injected
// fault ranks at the top of the candidate list, with a perfect match score.
class DiagnosisRanks : public ::testing::TestWithParam<const char*> {};

TEST_P(DiagnosisRanks, InjectedDefectRanksFirst) {
  Netlist nl;
  const std::string which = GetParam();
  for (auto& nc : circuits::standard_suite()) {
    if (which == nc.name) nl = std::move(nc.netlist);
  }
  ASSERT_TRUE(nl.finalized());
  const auto candidates = generate_stuck_at_faults(nl);
  Rng rng(11);
  const auto patterns = random_patterns(nl.combinational_inputs().size(), 128, rng);

  // Inject every 7th fault as the defect and diagnose.
  std::size_t diagnosed = 0, top_ranked = 0, perfect_top = 0;
  for (std::size_t d = 0; d < candidates.size(); d += 7) {
    const FailLog log = simulate_defect(nl, patterns, candidates[d]);
    if (!log.any_failure()) continue;  // defect escapes this pattern set
    const DiagnosisResult result = diagnose(nl, patterns, log, candidates);
    ++diagnosed;
    const std::size_t rank = result.rank_of(candidates[d]);
    ASSERT_GE(rank, 1u) << fault_name(nl, candidates[d]);
    // The true defect always explains everything (TP = all, FP = FN = 0), so
    // nothing can outscore it — but equivalent faults can tie.
    const auto& top = result.ranked[0];
    EXPECT_DOUBLE_EQ(top.score, result.ranked[result.rank_of(candidates[d]) - 1].score)
        << fault_name(nl, candidates[d]);
    if (rank == 1) ++top_ranked;
    if (result.ranked[0].perfect()) ++perfect_top;
  }
  ASSERT_GT(diagnosed, 0u);
  EXPECT_EQ(perfect_top, diagnosed);
}

INSTANTIATE_TEST_SUITE_P(Circuits, DiagnosisRanks,
                         ::testing::Values("c17", "rca8", "mul4", "alu8",
                                           "cmp8", "cnt8"));

TEST(Diagnosis, EquivalentFaultsTieAtTop) {
  // In an inverter chain every same-class fault produces identical behaviour:
  // diagnosis cannot do better than the equivalence class — and must return
  // exactly that class tied at the top.
  Netlist nl;
  GateId g = nl.add_input("a");
  for (int i = 0; i < 4; ++i) {
    g = nl.add_gate(GateType::kNot, {g}, "inv" + std::to_string(i));
  }
  nl.add_output(g, "y");
  nl.finalize();
  const auto candidates = generate_stuck_at_faults(nl);
  Rng rng(5);
  const auto patterns = random_patterns(1, 4, rng);
  const Fault defect{nl.find("inv1"), kStemPin, 0, FaultKind::kStuckAt};
  const FailLog log = simulate_defect(nl, patterns, defect);
  ASSERT_TRUE(log.any_failure());
  const DiagnosisResult result = diagnose(nl, patterns, log, candidates);
  // 5 faults behave identically (equivalence class across the chain).
  ASSERT_GE(result.ranked.size(), 2u);
  EXPECT_DOUBLE_EQ(result.ranked[0].score, result.ranked[1].score);
  EXPECT_GE(result.rank_of(defect), 1u);
}

TEST(Diagnosis, MoreFailingPatternsImproveResolution) {
  // E9's second claim: resolution (top-score tie group size) shrinks as the
  // log gets richer.
  const Netlist nl = circuits::make_array_multiplier(4);
  const auto candidates = generate_stuck_at_faults(nl);
  Rng rng(9);
  const auto patterns = random_patterns(nl.combinational_inputs().size(), 256, rng);
  const Fault defect = candidates[candidates.size() / 2];

  auto tie_size_with = [&](std::size_t npat) -> std::size_t {
    std::vector<TestCube> subset(patterns.begin(), patterns.begin() + npat);
    const FailLog log = simulate_defect(nl, subset, defect);
    if (!log.any_failure()) return candidates.size();
    const DiagnosisResult r = diagnose(nl, subset, log, candidates);
    std::size_t ties = 0;
    for (const auto& c : r.ranked) {
      if (c.score == r.ranked[0].score) ++ties;
    }
    return ties;
  };
  EXPECT_LE(tie_size_with(256), tie_size_with(8));
}

TEST(Diagnosis, EmptyLogYieldsNoCandidates) {
  const Netlist nl = circuits::make_c17();
  Rng rng(2);
  const auto patterns = random_patterns(5, 8, rng);
  FailLog log;
  log.num_patterns = patterns.size();
  log.num_observe_points = nl.observe_points().size();
  log.blocks.assign(1, std::vector<std::uint64_t>(log.num_observe_points, 0));
  const auto candidates = generate_stuck_at_faults(nl);
  const DiagnosisResult r = diagnose(nl, patterns, log, candidates);
  EXPECT_TRUE(r.ranked.empty());
  EXPECT_EQ(r.rank_of(candidates[0]), 0u);
}

TEST(Diagnosis, RejectsMismatchedFailLog) {
  const Netlist nl = circuits::make_c17();
  const Netlist other = circuits::make_ripple_adder(4);
  Rng rng(4);
  const auto patterns = random_patterns(5, 100, rng);  // two blocks
  const auto candidates = generate_stuck_at_faults(nl);
  const Fault defect{nl.find("G11"), kStemPin, 1, FaultKind::kStuckAt};
  const FailLog good = simulate_defect(nl, patterns, defect);
  ASSERT_EQ(good.blocks.size(), 2u);

  std::vector<FailLog> bad;
  // A log from a different netlist with the same pattern count.
  Rng rng_other(4);
  bad.push_back(simulate_defect(
      other,
      random_patterns(other.combinational_inputs().size(), 100, rng_other),
      generate_stuck_at_faults(other)[3]));
  FailLog truncated = good;  // a block missing
  truncated.blocks.pop_back();
  bad.push_back(truncated);
  FailLog extra = good;  // a block too many
  extra.blocks.push_back(extra.blocks.back());
  bad.push_back(extra);
  FailLog narrow = good;  // one block short of an observe point
  narrow.blocks[1].pop_back();
  bad.push_back(narrow);
  FailLog miscounted = good;  // header disagrees with the netlist
  ++miscounted.num_observe_points;
  bad.push_back(miscounted);

  for (std::size_t i = 0; i < bad.size(); ++i) {
    EXPECT_THROW(diagnose(nl, patterns, bad[i], candidates), Error) << i;
    EXPECT_THROW(diagnose_multiplet(nl, patterns, bad[i], candidates), Error)
        << i;
  }
  const std::vector<TestCube> fewer(patterns.begin(), patterns.begin() + 64);
  EXPECT_THROW(diagnose(nl, fewer, good, candidates), Error);
  EXPECT_THROW(diagnose_multiplet(nl, fewer, good, candidates), Error);
  EXPECT_NO_THROW(diagnose(nl, patterns, good, candidates));
  EXPECT_NO_THROW(diagnose_multiplet(nl, patterns, good, candidates));
}

// An X in a pattern is rejected, never graded as if it were a 0.
std::vector<TestCube> with_one_x(std::vector<TestCube> patterns) {
  patterns[70].bits[2] = Val3::kX;
  return patterns;
}

TEST(FailLog, SimulateDefectRejectsAnUnspecifiedBit) {
  const Netlist nl = circuits::make_c17();
  Rng rng(4);
  const auto patterns = random_patterns(5, 100, rng);
  const Fault defect{nl.find("G11"), kStemPin, 1, FaultKind::kStuckAt};
  EXPECT_NO_THROW(simulate_defect(nl, patterns, defect));
  EXPECT_THROW(simulate_defect(nl, with_one_x(patterns), defect), Error);
}

TEST(Diagnosis, RejectsAnUnspecifiedPatternBit) {
  const Netlist nl = circuits::make_c17();
  Rng rng(4);
  const auto patterns = random_patterns(5, 100, rng);
  const auto candidates = generate_stuck_at_faults(nl);
  const Fault defect{nl.find("G11"), kStemPin, 1, FaultKind::kStuckAt};
  const FailLog log = simulate_defect(nl, patterns, defect);
  ASSERT_TRUE(log.any_failure());
  EXPECT_THROW(diagnose(nl, with_one_x(patterns), log, candidates), Error);
}

// ---- exactness of the structural cone filter ---------------------------

std::uint64_t popcount(std::uint64_t w) {
  return static_cast<std::uint64_t>(__builtin_popcountll(w));
}

// Oracle for diagnose(): scores every candidate, drops those with tp == 0,
// and ranks the rest by score, then fault.
DiagnosisResult diagnose_unpruned(
    const FailLog& log, const std::vector<Fault>& candidates,
    const std::vector<std::vector<std::uint64_t>>& predicted) {
  const std::size_t nops = log.num_observe_points;
  DiagnosisResult result;
  for (std::size_t ci = 0; ci < candidates.size(); ++ci) {
    DiagnosisCandidate cand;
    cand.fault = candidates[ci];
    for (std::size_t w = 0; w < predicted[ci].size(); ++w) {
      const std::uint64_t pred = predicted[ci][w];
      const std::uint64_t obs = log.blocks[w / nops][w % nops];
      cand.tp += popcount(pred & obs);
      cand.fp += popcount(pred & ~obs);
      cand.fn += popcount(~pred & obs);
    }
    cand.score = static_cast<double>(cand.tp) -
                 0.5 * static_cast<double>(cand.fp) -
                 0.5 * static_cast<double>(cand.fn);
    if (cand.tp > 0) result.ranked.push_back(cand);
  }
  std::sort(result.ranked.begin(), result.ranked.end(),
            [](const DiagnosisCandidate& a, const DiagnosisCandidate& b) {
              if (a.score != b.score) return a.score > b.score;
              if (a.fault.gate != b.fault.gate) return a.fault.gate < b.fault.gate;
              if (a.fault.pin != b.fault.pin) return a.fault.pin < b.fault.pin;
              return a.fault.value < b.fault.value;
            });
  return result;
}

// Oracle for diagnose_multiplet(): the greedy set cover over every
// candidate.
MultiDiagnosisResult multiplet_unpruned(
    const FailLog& log, const std::vector<Fault>& candidates,
    const std::vector<std::vector<std::uint64_t>>& predicted,
    std::size_t max_defects) {
  const std::size_t nops = log.num_observe_points;
  std::vector<std::uint64_t> remaining;
  for (const auto& block : log.blocks) {
    remaining.insert(remaining.end(), block.begin(), block.end());
  }
  std::uint64_t total = 0;
  for (std::uint64_t w : remaining) total += popcount(w);
  MultiDiagnosisResult result;
  std::vector<bool> used(candidates.size(), false);
  while (result.selected.size() < max_defects) {
    std::size_t best = SIZE_MAX;
    std::int64_t best_score = 0;
    std::uint64_t best_tp = 0, best_fp = 0;
    for (std::size_t ci = 0; ci < candidates.size(); ++ci) {
      if (used[ci]) continue;
      std::uint64_t tp = 0, fp = 0;
      for (std::size_t w = 0; w < remaining.size(); ++w) {
        tp += popcount(predicted[ci][w] & remaining[w]);
        fp += popcount(predicted[ci][w] & ~log.blocks[w / nops][w % nops]);
      }
      const std::int64_t score =
          static_cast<std::int64_t>(2 * tp) - static_cast<std::int64_t>(fp);
      if (tp > 0 && score > best_score) {
        best = ci;
        best_score = score;
        best_tp = tp;
        best_fp = fp;
      }
    }
    if (best == SIZE_MAX) break;
    used[best] = true;
    DiagnosisCandidate chosen;
    chosen.fault = candidates[best];
    chosen.tp = best_tp;
    chosen.fp = best_fp;
    chosen.score = static_cast<double>(best_score);
    result.selected.push_back(chosen);
    bool any = false;
    for (std::size_t w = 0; w < remaining.size(); ++w) {
      remaining[w] &= ~predicted[best][w];
      any |= remaining[w] != 0;
    }
    if (!any) break;
  }
  std::uint64_t left = 0;
  for (std::uint64_t w : remaining) left += popcount(w);
  result.unexplained = left;
  result.explained = total - left;
  return result;
}

void expect_same_candidates(const std::vector<DiagnosisCandidate>& got,
                            const std::vector<DiagnosisCandidate>& want,
                            const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].fault, want[i].fault) << what << " #" << i;
    EXPECT_EQ(got[i].tp, want[i].tp) << what << " #" << i;
    EXPECT_EQ(got[i].fp, want[i].fp) << what << " #" << i;
    EXPECT_EQ(got[i].fn, want[i].fn) << what << " #" << i;
    EXPECT_EQ(got[i].score, want[i].score) << what << " #" << i;
  }
}

// Fail log of a wired-AND bridge between two same-level nets. No path joins
// the nets, and on any one pattern the bridge pulls at most one of them
// low, so per pattern the chip fails like that net stuck at 0.
FailLog simulate_wired_and_bridge(const Netlist& nl,
                                  const std::vector<TestCube>& patterns,
                                  const BridgingFault& bridge) {
  EXPECT_EQ(bridge.type, BridgeType::kWiredAnd);
  const Fault a_sa0{bridge.a, kStemPin, 0, FaultKind::kStuckAt};
  const Fault b_sa0{bridge.b, kStemPin, 0, FaultKind::kStuckAt};
  FailLog log;
  log.num_patterns = patterns.size();
  log.num_observe_points = nl.observe_points().size();
  FaultSimulator fsim(nl);
  std::vector<OpDiff> pairs;
  for (std::size_t base = 0; base < patterns.size(); base += 64) {
    fsim.load_batch(pack_patterns(
        patterns, base, std::min<std::size_t>(64, patterns.size() - base)));
    const std::uint64_t va = fsim.line_value(a_sa0);
    const std::uint64_t vb = fsim.line_value(b_sa0);
    fsim.detect_mask_detailed(a_sa0, pairs);
    const std::vector<std::uint64_t> a_diffs =
        test::dense_diffs(pairs, log.num_observe_points);
    fsim.detect_mask_detailed(b_sa0, pairs);
    const std::vector<std::uint64_t> b_diffs =
        test::dense_diffs(pairs, log.num_observe_points);
    std::vector<std::uint64_t> block(log.num_observe_points);
    std::uint64_t any = 0;
    for (std::size_t op = 0; op < block.size(); ++op) {
      block[op] = (a_diffs[op] & va & ~vb) | (b_diffs[op] & vb & ~va);
      any |= block[op];
    }
    // The construction agrees with the bridging simulator's detections.
    EXPECT_EQ(any, fsim.detect_mask_bridging(bridge));
    log.blocks.push_back(std::move(block));
  }
  return log;
}

Netlist systolic_2x2() {
  aichip::SystolicConfig config;
  config.rows = 2;
  config.cols = 2;
  return aichip::make_systolic_array(config);
}

// The cone filter is exact: rankings and multiplet selections equal those
// of scoring every candidate, on scan and combinational circuits, for
// single, double, bridging and empty fail logs.
void expect_cone_prune_matches_oracle(const std::string& which,
                                      const Netlist& nl) {
  // Every stuck-at fault plus both D-pin faults of every scan cell (the
  // generator lists a D-pin fault only where its driver forks).
  std::vector<Fault> candidates = generate_stuck_at_faults(nl);
  for (GateId g = 0; g < nl.num_gates(); ++g) {
    if (nl.type(g) != GateType::kDff) continue;
    for (std::uint8_t v : {0, 1}) {
      const Fault d_pin{g, 0, v, FaultKind::kStuckAt};
      if (std::find(candidates.begin(), candidates.end(), d_pin) ==
          candidates.end()) {
        candidates.push_back(d_pin);
      }
    }
  }
  Rng rng(21);
  // Three blocks, the last one partial.
  const auto patterns =
      random_patterns(nl.combinational_inputs().size(), 150, rng);
  const auto predicted = test::predict_all(nl, patterns, candidates);

  std::vector<std::pair<std::string, FailLog>> logs;
  for (std::size_t d = 0; d < candidates.size(); d += candidates.size() / 6) {
    logs.emplace_back("defect " + fault_name(nl, candidates[d]),
                      simulate_defect(nl, patterns, candidates[d]));
  }
  // A scan cell's D pin: only that flop's own observe point fails.
  const auto d_pin = std::find_if(
      candidates.begin(), candidates.end(), [&](const Fault& f) {
        return !f.is_stem() && nl.type(f.gate) == GateType::kDff;
      });
  EXPECT_EQ(d_pin != candidates.end(), which != "random")
      << "circuit has scan cells exactly when it is not random logic";
  if (d_pin != candidates.end()) {
    logs.emplace_back("D-pin defect", simulate_defect(nl, patterns, *d_pin));
  }
  logs.emplace_back(
      "double defect",
      simulate_defects(nl, patterns,
                       {candidates[candidates.size() / 3],
                        candidates[2 * candidates.size() / 3]}));
  for (const BridgingFault& bridge :
       sample_bridging_faults(nl, 8, 3, {BridgeType::kWiredAnd})) {
    FailLog log = simulate_wired_and_bridge(nl, patterns, bridge);
    if (log.any_failure()) {
      logs.emplace_back("bridge " + bridge_name(nl, bridge), std::move(log));
      break;
    }
  }
  FailLog empty = simulate_defect(nl, patterns, candidates[0]);
  for (auto& block : empty.blocks) std::fill(block.begin(), block.end(), 0);
  logs.emplace_back("empty log", std::move(empty));
  ASSERT_GE(logs.size(), 9u) << which << ": a log kind is missing";

  for (const auto& [what, log] : logs) {
    expect_same_candidates(diagnose(nl, patterns, log, candidates).ranked,
                           diagnose_unpruned(log, candidates, predicted).ranked,
                           which + " " + what);
    const MultiDiagnosisResult got =
        diagnose_multiplet(nl, patterns, log, candidates, 4);
    const MultiDiagnosisResult want =
        multiplet_unpruned(log, candidates, predicted, 4);
    expect_same_candidates(got.selected, want.selected,
                           which + " multiplet " + what);
    EXPECT_EQ(got.explained, want.explained) << which << " " << what;
    EXPECT_EQ(got.unexplained, want.unexplained) << which << " " << what;
  }
}

// diagnose_multiplet keeps each candidate's predictions as sparse pairs;
// the dense-matrix greedy cover over every candidate (multiplet_unpruned)
// is its oracle, on logs of two and of three superposed defects.
void expect_sparse_multiplet_matches_dense(const std::string& which,
                                           const Netlist& nl) {
  const std::vector<Fault> candidates = generate_stuck_at_faults(nl);
  Rng rng(37);
  // Three blocks, the last one partial.
  const auto patterns =
      random_patterns(nl.combinational_inputs().size(), 150, rng);
  const auto predicted = test::predict_all(nl, patterns, candidates);
  const std::size_t n = candidates.size();
  const std::vector<std::vector<Fault>> multiplets = {
      {candidates[n / 5], candidates[3 * n / 5]},
      {candidates[n / 9], candidates[n / 2]},
      {candidates[n / 7], candidates[3 * n / 7], candidates[5 * n / 7]},
      {candidates[n / 11], candidates[n / 3], candidates[4 * n / 5]},
  };
  for (const std::vector<Fault>& defects : multiplets) {
    std::string what =
        which + " " + std::to_string(defects.size()) + " defects";
    for (const Fault& d : defects) what += " " + fault_name(nl, d);
    const FailLog log = simulate_defects(nl, patterns, defects);
    ASSERT_TRUE(log.any_failure()) << what;
    const MultiDiagnosisResult got =
        diagnose_multiplet(nl, patterns, log, candidates, 4);
    const MultiDiagnosisResult want =
        multiplet_unpruned(log, candidates, predicted, 4);
    EXPECT_FALSE(got.selected.empty()) << what;
    expect_same_candidates(got.selected, want.selected, what);
    EXPECT_EQ(got.explained, want.explained) << what;
    EXPECT_EQ(got.unexplained, want.unexplained) << what;
  }
}

TEST(MultiDiag, SparseGreedyMatchesDenseOracle) {
  expect_sparse_multiplet_matches_dense("systolic2x2", systolic_2x2());
  expect_sparse_multiplet_matches_dense("mac8", circuits::make_mac(8, true));
}

TEST(Diagnosis, ConePruneMatchesUnprunedOracle) {
  expect_cone_prune_matches_oracle("systolic2x2", systolic_2x2());
  expect_cone_prune_matches_oracle("mac8", circuits::make_mac(8, true));
  expect_cone_prune_matches_oracle("random",
                                   circuits::make_random_logic(16, 300, 5));
}

}  // namespace
}  // namespace aidft
