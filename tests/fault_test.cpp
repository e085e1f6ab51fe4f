#include "fault/fault.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <tuple>
#include <unordered_map>

#include "aichip/soc.hpp"
#include "aichip/systolic.hpp"
#include "bench_circuits/generators.hpp"
#include "common/rng.hpp"
#include "fsim/fault_sim.hpp"
#include "test_util.hpp"

namespace aidft {
namespace {

// The hash-map collapser that dense line slots replaced, kept verbatim as
// the oracle: faults keyed by (gate, pin, value) in an unordered_map (first
// occurrence wins), union-find over fault indices with the lowest index as
// root.
namespace oracle {

std::uint64_t fault_key(const Fault& f) {
  return (static_cast<std::uint64_t>(f.gate) << 16) |
         (static_cast<std::uint64_t>(f.pin) << 8) | f.value;
}

class UnionFind {
 public:
  explicit UnionFind(std::size_t n) : parent_(n) {
    for (std::size_t i = 0; i < n; ++i) parent_[i] = i;
  }
  std::size_t find(std::size_t x) {
    while (parent_[x] != x) {
      parent_[x] = parent_[parent_[x]];
      x = parent_[x];
    }
    return x;
  }
  void unite(std::size_t a, std::size_t b) {
    a = find(a);
    b = find(b);
    if (a != b) parent_[std::max(a, b)] = std::min(a, b);
  }

 private:
  std::vector<std::size_t> parent_;
};

std::vector<Fault> collapse_equivalent(const Netlist& nl,
                                       const std::vector<Fault>& faults) {
  if (faults.empty()) return {};
  std::unordered_map<std::uint64_t, std::size_t> index;
  for (std::size_t i = 0; i < faults.size(); ++i) {
    index.emplace(fault_key(faults[i]), i);
  }
  UnionFind uf(faults.size());
  auto line_fault = [&](GateId id, std::uint8_t pin, std::uint8_t v) {
    const auto [cg, cp] = canonical_line(nl, id, pin);
    auto it = index.find(fault_key(Fault{cg, cp, v, faults[0].kind}));
    return it == index.end() ? SIZE_MAX : it->second;
  };
  auto stem_fault = [&](GateId id, std::uint8_t v) {
    auto it = index.find(fault_key(Fault{id, kStemPin, v, faults[0].kind}));
    return it == index.end() ? SIZE_MAX : it->second;
  };
  auto unite = [&](std::size_t a, std::size_t b) {
    if (a != SIZE_MAX && b != SIZE_MAX) uf.unite(a, b);
  };
  const Topology& t = nl.topology();
  for (GateId id = 0; id < nl.num_gates(); ++id) {
    const std::size_t arity = t.fanin_size(id);
    switch (t.type(id)) {
      case GateType::kBuf:
        for (std::uint8_t v : {0, 1}) {
          unite(line_fault(id, 0, v), stem_fault(id, v));
        }
        break;
      case GateType::kNot:
        for (std::uint8_t v : {0, 1}) {
          unite(line_fault(id, 0, v),
                stem_fault(id, static_cast<std::uint8_t>(1 - v)));
        }
        break;
      case GateType::kAnd:
        for (std::uint8_t pin = 0; pin < arity; ++pin) {
          unite(line_fault(id, pin, 0), stem_fault(id, 0));
        }
        break;
      case GateType::kNand:
        for (std::uint8_t pin = 0; pin < arity; ++pin) {
          unite(line_fault(id, pin, 0), stem_fault(id, 1));
        }
        break;
      case GateType::kOr:
        for (std::uint8_t pin = 0; pin < arity; ++pin) {
          unite(line_fault(id, pin, 1), stem_fault(id, 1));
        }
        break;
      case GateType::kNor:
        for (std::uint8_t pin = 0; pin < arity; ++pin) {
          unite(line_fault(id, pin, 1), stem_fault(id, 0));
        }
        break;
      default:
        break;
    }
  }
  std::vector<Fault> reps;
  std::vector<bool> taken(faults.size(), false);
  for (std::size_t i = 0; i < faults.size(); ++i) {
    const std::size_t root = uf.find(i);
    if (!taken[root]) {
      taken[root] = true;
      reps.push_back(faults[root]);
    }
  }
  return reps;
}

std::vector<Fault> collapse_dominance(const Netlist& nl,
                                      const std::vector<Fault>& faults) {
  if (faults.empty()) return {};
  std::unordered_map<std::uint64_t, std::size_t> index;
  for (std::size_t i = 0; i < faults.size(); ++i) {
    index.emplace(fault_key(faults[i]), i);
  }
  auto has_line_fault = [&](GateId id, std::uint8_t pin, std::uint8_t v) {
    const auto [cg, cp] = canonical_line(nl, id, pin);
    return index.count(fault_key(Fault{cg, cp, v, faults[0].kind})) > 0;
  };
  const Topology& t = nl.topology();
  std::vector<bool> drop(faults.size(), false);
  for (GateId id = 0; id < nl.num_gates(); ++id) {
    std::uint8_t in_v = 0, out_v = 0;
    switch (t.type(id)) {
      case GateType::kAnd: in_v = 1; out_v = 1; break;
      case GateType::kNand: in_v = 1; out_v = 0; break;
      case GateType::kOr: in_v = 0; out_v = 0; break;
      case GateType::kNor: in_v = 0; out_v = 1; break;
      default: continue;
    }
    const std::size_t arity = t.fanin_size(id);
    bool all_present = arity != 0;
    for (std::uint8_t pin = 0; pin < arity && all_present; ++pin) {
      all_present = has_line_fault(id, pin, in_v);
    }
    if (!all_present) continue;
    auto it = index.find(fault_key(Fault{id, kStemPin, out_v, faults[0].kind}));
    if (it != index.end()) drop[it->second] = true;
  }
  std::vector<Fault> kept;
  for (std::size_t i = 0; i < faults.size(); ++i) {
    if (!drop[i]) kept.push_back(faults[i]);
  }
  return kept;
}

}  // namespace oracle

std::string label(const Netlist& nl, const std::vector<Fault>& faults) {
  std::string s;
  for (const Fault& f : faults) s += fault_name(nl, f) + " ";
  return s;
}

// Both collapsers equal the oracle, representatives in the same order.
void expect_oracle_collapse(const Netlist& nl, const std::vector<Fault>& faults,
                            const std::string& what) {
  const auto eq = collapse_equivalent(nl, faults);
  const auto eq_oracle = oracle::collapse_equivalent(nl, faults);
  EXPECT_TRUE(eq == eq_oracle) << what << "\n  dense:  " << label(nl, eq)
                               << "\n  oracle: " << label(nl, eq_oracle);
  EXPECT_TRUE(collapse_dominance(nl, faults) ==
              oracle::collapse_dominance(nl, faults))
      << what << " (dominance on the input list)";
  EXPECT_TRUE(collapse_dominance(nl, eq) == oracle::collapse_dominance(nl, eq))
      << what << " (dominance after equivalence)";
}

// Every list shape a caller hands the collapsers: stuck-at and transition
// universes, shuffled, subsampled, and with duplicates interleaved.
void expect_oracle_on_all_lists(const Netlist& nl, const std::string& name) {
  const auto stuck = generate_stuck_at_faults(nl);
  expect_oracle_collapse(nl, stuck, name + " stuck-at");
  expect_oracle_collapse(nl, generate_transition_faults(nl),
                         name + " transition");

  std::vector<Fault> shuffled = stuck;
  Rng rng(nl.num_gates());
  for (std::size_t i = shuffled.size(); i > 1; --i) {
    std::swap(shuffled[i - 1], shuffled[rng.next_below(i)]);
  }
  expect_oracle_collapse(nl, shuffled, name + " shuffled");
  const auto sampled = sample_faults(stuck, 0.4, 17);
  expect_oracle_collapse(nl, sampled, name + " sampled");

  // Duplicates: a sample re-appended, and the shuffled list interleaved
  // with itself, so later copies of a fault precede other class members.
  std::vector<Fault> dup = stuck;
  dup.insert(dup.end(), sampled.begin(), sampled.end());
  expect_oracle_collapse(nl, dup, name + " duplicates appended");
  std::vector<Fault> interleaved;
  for (std::size_t i = 0; i < shuffled.size(); ++i) {
    interleaved.push_back(shuffled[i]);
    interleaved.push_back(shuffled[shuffled.size() - 1 - i]);
  }
  expect_oracle_collapse(nl, interleaved, name + " duplicates interleaved");
}

TEST(FaultGen, C17UncollapsedCount) {
  // c17: 5 PIs + 6 NANDs = 11 stems (22 faults). Branch pins: G3 forks to
  // G10,G11; G11 forks to G16,G19; G16 forks to G22,G23. That is 6 branch
  // pins (12 faults) — 34 uncollapsed faults total.
  const Netlist nl = circuits::make_c17();
  const auto faults = generate_stuck_at_faults(nl);
  EXPECT_EQ(faults.size(), 34u);
}

TEST(FaultGen, EveryFaultSiteIsCanonical) {
  for (const auto& nc : circuits::standard_suite()) {
    const auto faults = generate_stuck_at_faults(nc.netlist);
    for (const Fault& f : faults) {
      const auto [g, p] = canonical_line(nc.netlist, f.gate, f.pin);
      EXPECT_EQ(g, f.gate) << nc.name;
      EXPECT_EQ(p, f.pin) << nc.name;
    }
  }
}

TEST(FaultGen, NoFaultsOnOutputMarkers) {
  const Netlist nl = circuits::make_alu(4);
  for (const Fault& f : generate_stuck_at_faults(nl)) {
    EXPECT_NE(nl.type(f.gate), GateType::kOutput);
  }
}

TEST(FaultGen, ConstGatesOnlyOppositePolarity) {
  Netlist nl;
  const GateId c0 = nl.add_gate(GateType::kConst0, "c0");
  const GateId a = nl.add_input("a");
  const GateId g = nl.add_gate(GateType::kOr, {c0, a}, "g");
  nl.add_output(g, "y");
  nl.finalize();
  int c0_faults = 0;
  for (const Fault& f : generate_stuck_at_faults(nl)) {
    if (f.gate == c0) {
      ++c0_faults;
      EXPECT_TRUE(f.stuck_at_one());
    }
  }
  EXPECT_EQ(c0_faults, 1);
}

TEST(FaultGen, NoDuplicates) {
  for (const auto& nc : circuits::standard_suite()) {
    const auto faults = generate_stuck_at_faults(nc.netlist);
    std::set<std::tuple<GateId, int, int>> seen;
    for (const Fault& f : faults) {
      EXPECT_TRUE(seen.insert({f.gate, f.pin, f.value}).second) << nc.name;
    }
  }
}

TEST(Collapse, EquivalenceShrinksAndIsSubset) {
  for (const auto& nc : circuits::standard_suite()) {
    const auto all = generate_stuck_at_faults(nc.netlist);
    const auto collapsed = collapse_equivalent(nc.netlist, all);
    EXPECT_LE(collapsed.size(), all.size()) << nc.name;
    std::set<std::tuple<GateId, int, int>> universe;
    for (const Fault& f : all) universe.insert({f.gate, f.pin, f.value});
    for (const Fault& f : collapsed) {
      EXPECT_TRUE(universe.count({f.gate, f.pin, f.value})) << nc.name;
    }
  }
}

TEST(Collapse, InverterChainCollapsesToTwo) {
  // A chain of inverters has exactly one equivalence class per polarity.
  Netlist nl;
  GateId g = nl.add_input("a");
  for (int i = 0; i < 6; ++i) {
    g = nl.add_gate(GateType::kNot, {g}, "inv" + std::to_string(i));
  }
  nl.add_output(g, "y");
  nl.finalize();
  const auto all = generate_stuck_at_faults(nl);
  EXPECT_EQ(all.size(), 14u);  // 7 lines x 2
  const auto collapsed = collapse_equivalent(nl, all);
  EXPECT_EQ(collapsed.size(), 2u);
}

TEST(Collapse, AndGateClassicCounts) {
  // Single 2-input AND: lines a, b, y; uncollapsed 6 faults. Equivalence
  // merges {a/0, b/0, y/0} -> 4 remain. Dominance drops y/1 -> 3 remain.
  Netlist nl;
  const GateId a = nl.add_input("a");
  const GateId b = nl.add_input("b");
  const GateId y = nl.add_gate(GateType::kAnd, {a, b}, "y");
  nl.add_output(y, "o");
  nl.finalize();
  const auto all = generate_stuck_at_faults(nl);
  EXPECT_EQ(all.size(), 6u);
  const auto eq = collapse_equivalent(nl, all);
  EXPECT_EQ(eq.size(), 4u);
  const auto dom = collapse_dominance(nl, eq);
  EXPECT_EQ(dom.size(), 3u);
}

TEST(Collapse, RatioInClassicRange) {
  // Textbook: equivalence collapsing keeps roughly 40-70% of the universe
  // on gate-level circuits.
  for (const auto& nc : circuits::standard_suite()) {
    const auto all = generate_stuck_at_faults(nc.netlist);
    if (all.size() < 20) continue;
    const auto eq = collapse_equivalent(nc.netlist, all);
    const double ratio = static_cast<double>(eq.size()) / all.size();
    EXPECT_GT(ratio, 0.25) << nc.name;
    EXPECT_LE(ratio, 1.0) << nc.name;
  }
}

TEST(Collapse, XorGateDoesNotCollapse) {
  Netlist nl;
  const GateId a = nl.add_input("a");
  const GateId b = nl.add_input("b");
  const GateId y = nl.add_gate(GateType::kXor, {a, b}, "y");
  nl.add_output(y, "o");
  nl.finalize();
  const auto all = generate_stuck_at_faults(nl);
  EXPECT_EQ(collapse_equivalent(nl, all).size(), all.size());
}

TEST(Collapse, MatchesHashMapOracleOnStandardSuite) {
  for (const auto& nc : circuits::standard_suite()) {
    expect_oracle_on_all_lists(nc.netlist, nc.name);
  }
}

TEST(Collapse, MatchesHashMapOracleOnRandomLogic) {
  for (const auto& [ninputs, ngates, seed] :
       {std::tuple{4, 12, 1}, std::tuple{8, 60, 2}, std::tuple{12, 200, 3},
        std::tuple{16, 400, 4}, std::tuple{24, 900, 5}}) {
    const Netlist nl = circuits::make_random_logic(ninputs, ngates, seed);
    expect_oracle_on_all_lists(nl, "rand_i" + std::to_string(ninputs) + "_g" +
                                       std::to_string(ngates));
  }
}

TEST(Collapse, MatchesHashMapOracleOnReplicatedSoc) {
  aichip::SystolicConfig pe;
  pe.rows = pe.cols = 1;
  pe.width = 3;
  for (const Netlist& core : {circuits::make_mac(4, /*registered=*/true),
                              aichip::make_systolic_array(pe)}) {
    for (std::size_t n = 1; n <= 4; ++n) {
      const std::string x = " x" + std::to_string(n);
      expect_oracle_on_all_lists(aichip::make_replicated_soc(core, n).netlist,
                                 core.name() + " soc" + x);
      expect_oracle_on_all_lists(test::cloned_replica(core, n),
                                 core.name() + " clone" + x);
    }
  }
}

// Detection signature of each fault over all 2^n input vectors.
std::vector<std::vector<std::uint64_t>> exhaustive_signatures(
    const Netlist& nl, const std::vector<Fault>& faults) {
  const auto patterns =
      test::exhaustive_patterns(nl.combinational_inputs().size());
  FaultSimulator fsim(nl);
  std::vector<std::vector<std::uint64_t>> sig(faults.size());
  for (std::size_t base = 0; base < patterns.size(); base += 64) {
    fsim.load_batch(pack_patterns(
        patterns, base, std::min<std::size_t>(64, patterns.size() - base)));
    for (std::size_t i = 0; i < faults.size(); ++i) {
      sig[i].push_back(fsim.detect_mask(faults[i]));
    }
  }
  return sig;
}

TEST(Collapse, PreservesExhaustiveDetectability) {
  // Every universe fault is detected by exactly the vectors that detect its
  // class representative. A fault's representative is found through the
  // public API alone: moved to the front of the list, the fault becomes the
  // first member of its class, so it replaces exactly its representative.
  for (const auto& [ninputs, ngates, seed] :
       {std::tuple{6, 40, 11}, std::tuple{10, 120, 12}, std::tuple{12, 180, 13},
        std::tuple{14, 220, 14}}) {
    const Netlist nl = circuits::make_random_logic(ninputs, ngates, seed);
    const std::string name = "rand_i" + std::to_string(ninputs);
    const auto universe = generate_stuck_at_faults(nl);
    const auto reps = collapse_equivalent(nl, universe);
    const auto sig = exhaustive_signatures(nl, universe);
    // Representatives are a subsequence of the universe: at[r] is the
    // universe index of reps[r].
    std::vector<std::size_t> at(reps.size());
    std::vector<bool> is_rep(universe.size(), false);
    std::size_t r = 0;
    for (std::size_t i = 0; i < universe.size() && r < reps.size(); ++i) {
      if (universe[i] == reps[r]) {
        is_rep[i] = true;
        at[r++] = i;
      }
    }
    ASSERT_EQ(r, reps.size()) << name << ": representatives out of order";
    std::size_t checked = 0;
    for (std::size_t i = 0; i < universe.size(); ++i) {
      if (is_rep[i]) continue;
      std::vector<Fault> moved{universe[i]};
      for (std::size_t j = 0; j < universe.size(); ++j) {
        if (j != i) moved.push_back(universe[j]);
      }
      const auto moved_reps = collapse_equivalent(nl, moved);
      // Expected: the fault in front, its representative reps[k] gone, and
      // every other representative in place.
      std::size_t k = 0;
      while (k + 1 < reps.size() && moved_reps[k + 1] == reps[k]) ++k;
      std::vector<Fault> expected = reps;
      expected.erase(expected.begin() + static_cast<std::ptrdiff_t>(k));
      expected.insert(expected.begin(), universe[i]);
      const std::string fault = name + " " + fault_name(nl, universe[i]);
      ASSERT_TRUE(moved_reps == expected) << fault;
      EXPECT_EQ(sig[i], sig[at[k]])
          << fault << " vs representative " << fault_name(nl, reps[k]);
      ++checked;
    }
    EXPECT_GT(checked, 0u) << name;
  }
}

TEST(Collapse, RejectsFaultsOffTheNetlist) {
  const Netlist nl = circuits::make_c17();
  const GateId g10 = nl.find("G10");
  const auto arity = static_cast<std::uint8_t>(nl.topology().fanin_size(g10));
  for (const Fault bad :
       {Fault{g10, arity, 0, FaultKind::kStuckAt},  // aliases the next slot
        Fault{nl.find("G1"), 0, 1, FaultKind::kStuckAt},  // a PI has no pins
        Fault{static_cast<GateId>(nl.num_gates()), kStemPin, 0,
              FaultKind::kStuckAt}}) {
    std::vector<Fault> faults = generate_stuck_at_faults(nl);
    faults.push_back(bad);
    EXPECT_THROW(collapse_equivalent(nl, faults), Error);
    EXPECT_THROW(collapse_dominance(nl, faults), Error);
  }
}

TEST(Sample, DeterministicAndSized) {
  const Netlist nl = circuits::make_array_multiplier(8);
  const auto all = generate_stuck_at_faults(nl);
  const auto s1 = sample_faults(all, 0.25, 42);
  const auto s2 = sample_faults(all, 0.25, 42);
  ASSERT_EQ(s1.size(), s2.size());
  for (std::size_t i = 0; i < s1.size(); ++i) EXPECT_EQ(s1[i], s2[i]);
  EXPECT_NEAR(static_cast<double>(s1.size()), all.size() * 0.25, 1.0);
  EXPECT_THROW(sample_faults(all, 0.0, 1), Error);
}

TEST(FaultName, ReadableLabels) {
  const Netlist nl = circuits::make_c17();
  const GateId g10 = nl.find("G10");
  EXPECT_EQ(fault_name(nl, Fault{g10, kStemPin, 1, FaultKind::kStuckAt}),
            "G10/SA1");
  EXPECT_EQ(fault_name(nl, Fault{g10, 0, 0, FaultKind::kTransition}),
            "G10.in0/STF");
}

TEST(TransitionGen, SameLinesAsStuckAtMinusConstants) {
  const Netlist nl = circuits::make_alu(4);
  const auto sa = generate_stuck_at_faults(nl);
  const auto tr = generate_transition_faults(nl);
  EXPECT_EQ(sa.size(), tr.size());  // alu4 has no constant gates
  for (const Fault& f : tr) EXPECT_EQ(f.kind, FaultKind::kTransition);
}

}  // namespace
}  // namespace aidft
