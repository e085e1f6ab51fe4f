// The per-target set-up of the stuck-at engines, held to references.
//
// ScopeOrder: FaultScope lists its cone and support in topo_order() order
// without sorting them. After every build()/build_line() of a long history
// on one scope, both lists (and the support's constant gates) must equal a
// fresh walk sorted by topo position, and the membership flags must agree.
//
// PodemSeeds: a search starts with every support gate at X and implies
// forward only from the gates that can leave X: the support's constant
// gates, the fault site (a forced pin or stem) and the constrained inputs.
// On small circuits where a constant, or a pin stuck at its gate's
// controlling value, is what leaves X, every fault's status must match
// exhaustive simulation and every cube must detect with its X bits in
// place; and the effort of a hand-traced search is pinned exactly.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <string>
#include <vector>

#include "aichip/systolic.hpp"
#include "atpg/fault_scope.hpp"
#include "atpg/podem.hpp"
#include "bench_circuits/generators.hpp"
#include "common/rng.hpp"
#include "test_util.hpp"

namespace aidft {
namespace {

// ---- ScopeOrder -------------------------------------------------------

struct ScopeLists {
  std::vector<GateId> cone;
  std::vector<GateId> support;
  std::vector<GateId> constants;  // sorted by id
};

// A fresh walk: the cone forward from the site (stopping at state
// elements), the support back from the cone (or from the line, for an
// empty cone) through everything but inputs and flops, each sorted by
// topo position.
ScopeLists reference_scope(const Topology& t, GateId site, bool empty_cone,
                           GateId line) {
  const std::size_t n = t.num_gates();
  std::vector<std::uint32_t> pos(n);
  for (std::size_t i = 0; i < n; ++i) {
    pos[t.topo_order()[i]] = static_cast<std::uint32_t>(i);
  }
  ScopeLists ref;
  std::vector<char> in_cone(n, 0), in_support(n, 0);
  std::vector<GateId> stack;
  if (!empty_cone) {
    in_cone[site] = 1;
    stack.push_back(site);
    while (!stack.empty()) {
      const GateId g = stack.back();
      stack.pop_back();
      ref.cone.push_back(g);
      for (GateId s : t.fanout(g)) {
        if (is_state_element(t.type(s)) || in_cone[s]) continue;
        in_cone[s] = 1;
        stack.push_back(s);
      }
    }
  }
  stack = empty_cone ? std::vector<GateId>{line} : ref.cone;
  for (GateId g : stack) in_support[g] = 1;
  while (!stack.empty()) {
    const GateId g = stack.back();
    stack.pop_back();
    ref.support.push_back(g);
    if (t.type(g) == GateType::kConst0 || t.type(g) == GateType::kConst1) {
      ref.constants.push_back(g);
    }
    if (t.type(g) == GateType::kInput || t.type(g) == GateType::kDff) continue;
    for (GateId f : t.fanin(g)) {
      if (in_support[f]) continue;
      in_support[f] = 1;
      stack.push_back(f);
    }
  }
  auto by_pos = [&](GateId a, GateId b) { return pos[a] < pos[b]; };
  std::sort(ref.cone.begin(), ref.cone.end(), by_pos);
  std::sort(ref.support.begin(), ref.support.end(), by_pos);
  std::sort(ref.constants.begin(), ref.constants.end());
  return ref;
}

void expect_scope(const FaultScope& scope, const Topology& t,
                  const ScopeLists& ref, const std::string& what) {
  ASSERT_EQ(scope.cone(), ref.cone) << what;
  ASSERT_EQ(scope.support(), ref.support) << what;
  std::vector<GateId> constants = scope.constants();
  std::sort(constants.begin(), constants.end());
  ASSERT_EQ(constants, ref.constants) << what;
  std::size_t in_cone = 0, in_support = 0;
  for (GateId g = 0; g < t.num_gates(); ++g) {
    in_cone += scope.in_cone(g);
    in_support += scope.in_support(g);
  }
  ASSERT_EQ(in_cone, ref.cone.size()) << what;
  ASSERT_EQ(in_support, ref.support.size()) << what;
  for (GateId g : ref.cone) ASSERT_TRUE(scope.in_cone(g)) << what;
  for (GateId g : ref.support) ASSERT_TRUE(scope.in_support(g)) << what;
}

// Every `stride`-th fault of the universe, in order, on one scope, with a
// justified line between every third pair: the scope is rebuilt from the
// previous target each time, as ATPG uses it. Returns the D-pin faults
// seen.
std::size_t check_scope_history(const Netlist& nl, std::size_t stride = 1) {
  const Topology& t = nl.topology();
  const std::vector<Fault> faults = generate_stuck_at_faults(nl);
  FaultScope scope(t);
  std::size_t dpins = 0;
  for (std::size_t i = 0; i < faults.size(); i += stride) {
    const Fault& f = faults[i];
    scope.build(f);
    const bool dpin = !f.is_stem() && t.type(f.gate) == GateType::kDff;
    dpins += dpin;
    const GateId line = f.is_stem() ? f.gate : t.fanin(f.gate)[f.pin];
    expect_scope(scope, t, reference_scope(t, f.gate, dpin, line),
                 nl.name() + " " + fault_name(nl, f));
    if (::testing::Test::HasFatalFailure()) return dpins;
    if (i % 3 == 0) {
      const auto g = static_cast<GateId>((7 * i) % t.num_gates());
      scope.build_line(g);
      expect_scope(scope, t, reference_scope(t, g, true, g),
                   nl.name() + " line " + std::to_string(g));
      if (::testing::Test::HasFatalFailure()) return dpins;
    }
  }
  return dpins;
}

// Random logic over inputs and tie cells: gate k reads two or three
// earlier signals, constants included, and every eighth signal is an
// output.
Netlist tied_random_logic(std::size_t inputs, std::size_t gates,
                          std::uint64_t seed) {
  Netlist nl("tied_random");
  Rng rng(seed);
  std::vector<GateId> signals;
  for (std::size_t i = 0; i < inputs; ++i) signals.push_back(nl.add_input());
  signals.push_back(nl.add_gate(GateType::kConst0, "tie0"));
  signals.push_back(nl.add_gate(GateType::kConst1, "tie1"));
  const GateType types[] = {GateType::kAnd, GateType::kNand, GateType::kOr,
                            GateType::kNor, GateType::kXor, GateType::kMux};
  for (std::size_t k = 0; k < gates; ++k) {
    const GateType type = types[rng.next_below(6)];
    const std::size_t arity = type == GateType::kMux ? 3 : 2 + rng.next_below(2);
    std::vector<GateId> fanin;
    for (std::size_t j = 0; j < arity; ++j) {
      fanin.push_back(signals[rng.next_below(signals.size())]);
    }
    signals.push_back(nl.add_gate(type, fanin));
    if (k % 8 == 7) nl.add_output(signals.back());
  }
  nl.add_output(signals.back());
  nl.finalize();
  return nl;
}

TEST(ScopeOrder, StandardSuiteMatchesSortedWalk) {
  for (const auto& nc : circuits::standard_suite()) {
    check_scope_history(nc.netlist);
    if (HasFatalFailure()) return;
  }
}

TEST(ScopeOrder, RandomLogicMatchesSortedWalk) {
  check_scope_history(circuits::make_random_logic(32, 500, 1));
  if (HasFatalFailure()) return;
  check_scope_history(circuits::make_random_logic(32, 2000, 2));
}

TEST(ScopeOrder, PastOneSummaryWordMatchesSortedWalk) {
  // Over 8192 gates: the marks span three summary words.
  const Netlist nl = circuits::make_random_logic(48, 9000, 3);
  ASSERT_GT(nl.num_gates(), 2u * 4096u);
  check_scope_history(nl, 11);
}

TEST(ScopeOrder, SystolicMatchesSortedWalk) {
  aichip::SystolicConfig c;
  c.rows = 4;
  c.cols = 4;
  c.width = 4;
  const std::size_t dpins = check_scope_history(aichip::make_systolic_array(c));
  EXPECT_GT(dpins, 0u) << "no DFF D-pin fault";
}

TEST(ScopeOrder, TieCellsAreListedAsConstants) {
  const Netlist nl = tied_random_logic(8, 300, 4);
  check_scope_history(nl);
  if (HasFatalFailure()) return;
  // Some scope does hold a constant.
  FaultScope scope(nl.topology());
  std::size_t with_constants = 0;
  for (const Fault& f : generate_stuck_at_faults(nl)) {
    scope.build(f);
    with_constants += !scope.constants().empty();
  }
  EXPECT_GT(with_constants, 0u);
}

// ---- PodemSeeds -------------------------------------------------------

// Every stuck-at fault on every line, pins of fanout-1 drivers included, so
// each gate's pins can be held at their controlling value.
std::vector<Fault> every_pin_fault(const Netlist& nl) {
  std::vector<Fault> faults;
  const Topology& t = nl.topology();
  for (GateId g = 0; g < nl.num_gates(); ++g) {
    const GateType type = t.type(g);
    if (type == GateType::kOutput) continue;
    for (std::uint8_t v = 0; v < 2; ++v) {
      faults.push_back({g, kStemPin, v});
      for (std::size_t p = 0; p < t.fanin_size(g); ++p) {
        faults.push_back({g, static_cast<std::uint8_t>(p), v});
      }
    }
  }
  return faults;
}

void expect_podem_matches_exhaustive(const Netlist& nl) {
  const std::vector<Fault> faults = every_pin_fault(nl);
  const std::vector<bool> detectable = test::exhaustive_detectable(nl, faults);
  PodemOptions opts;
  opts.backtrack_limit = std::numeric_limits<std::uint64_t>::max();
  const ScoapResult scoap = compute_scoap(nl);
  for (const ScoapResult* guidance :
       {&scoap, static_cast<const ScoapResult*>(nullptr)}) {
    Podem podem(nl, guidance);
    for (std::size_t i = 0; i < faults.size(); ++i) {
      const AtpgOutcome out = podem.generate(faults[i], opts);
      ASSERT_EQ(out.status, detectable[i] ? AtpgStatus::kDetected
                                          : AtpgStatus::kUntestable)
          << nl.name() << " " << fault_name(nl, faults[i]);
      if (out.status == AtpgStatus::kDetected) {
        EXPECT_TRUE(test::cube_detects_3v(nl, out.cube, faults[i]))
            << nl.name() << " " << fault_name(nl, faults[i]) << " cube "
            << out.cube.to_string();
      }
    }
  }
}

TEST(PodemSeeds, ConstantsDecideFaultsAsExhaustiveSimulation) {
  // Tie cells block, pass, invert and select: with every input X, only the
  // constants (and a fault site) leave X at the start of a search.
  Netlist nl("ties");
  const GateId a = nl.add_input("a"), b = nl.add_input("b");
  const GateId s = nl.add_input("s");
  const GateId c0 = nl.add_gate(GateType::kConst0, "c0");
  const GateId c1 = nl.add_gate(GateType::kConst1, "c1");
  const GateId pass = nl.add_gate(GateType::kAnd, {a, c1}, "pass");
  const GateId block = nl.add_gate(GateType::kAnd, {b, c0}, "block");
  const GateId invert = nl.add_gate(GateType::kXor, {pass, c1}, "invert");
  const GateId keep = nl.add_gate(GateType::kOr, {b, c0}, "keep");
  const GateId sel = nl.add_gate(GateType::kMux, {s, keep, c1}, "sel");
  const GateId nor = nl.add_gate(GateType::kNor, {block, invert}, "nor");
  nl.add_output(nor, "o_nor");
  nl.add_output(nl.add_gate(GateType::kNand, {sel, a}, "nand"), "o_nand");
  nl.add_output(c0, "o_c0");
  nl.add_output(nl.add_gate(GateType::kMux, {c1, a, b}, "fixed_sel"), "o_mux");
  nl.finalize();
  expect_podem_matches_exhaustive(nl);
}

TEST(PodemSeeds, ControllingPinsDecideFaultsAsExhaustiveSimulation) {
  // AND/NAND pins stuck at 0, OR/NOR pins stuck at 1 and MUX select pins
  // force their gate's faulty output with every other input X.
  Netlist nl("controlling");
  const GateId a = nl.add_input("a"), b = nl.add_input("b");
  const GateId c = nl.add_input("c"), d = nl.add_input("d");
  const GateId s = nl.add_input("s");
  const GateId n_and = nl.add_gate(GateType::kAnd, {a, b, c}, "and");
  const GateId n_nand = nl.add_gate(GateType::kNand, {b, d}, "nand");
  const GateId n_or = nl.add_gate(GateType::kOr, {c, d}, "or");
  const GateId n_nor = nl.add_gate(GateType::kNor, {a, d, s}, "nor");
  const GateId m = nl.add_gate(GateType::kMux, {s, n_and, n_or}, "mux");
  nl.add_output(nl.add_gate(GateType::kXor, {n_nand, n_nor}, "x"), "o_x");
  nl.add_output(m, "o_mux");
  nl.add_output(nl.add_gate(GateType::kAnd, {n_and, n_or}, "reconv"),
                "o_reconv");
  const GateId q = nl.add_dff(m, "q");
  nl.add_output(nl.add_gate(GateType::kOr, {q, a}, "q_or"), "o_q");
  nl.finalize();
  expect_podem_matches_exhaustive(nl);
}

TEST(PodemSeeds, TiedRandomLogicMatchesExhaustiveSimulation) {
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    expect_podem_matches_exhaustive(tied_random_logic(6, 40, seed));
    if (HasFatalFailure()) return;
  }
}

TEST(PodemSeeds, ForcedSiteIsImpliedAtTheStart) {
  // y = AND(a, b) with pin a stuck at 0. The start evaluates the site (good
  // X, faulty 0) and the output it changes: 2 events. Activating a = 1
  // evaluates a and y, whose values stay put: 2. Then b = 1 evaluates b, y
  // and the output: 3. Without the site's seed the start would evaluate
  // nothing and a = 1 would change y: 6 events in all.
  Netlist nl("and2");
  const GateId a = nl.add_input("a"), b = nl.add_input("b");
  const GateId y = nl.add_gate(GateType::kAnd, {a, b}, "y");
  nl.add_output(y, "o");
  nl.finalize();
  Podem podem(nl);
  const AtpgOutcome out = podem.generate({y, 0, 0});
  ASSERT_EQ(out.status, AtpgStatus::kDetected);
  EXPECT_EQ(out.cube.to_string(), "11");
  EXPECT_EQ(out.decisions, 2u);
  EXPECT_EQ(out.implications, 3u);
  EXPECT_EQ(out.events, 7u);
}

TEST(PodemSeeds, ConstantIsImpliedAtTheStart) {
  // y = OR(a, c0): the tie cell's 0 reaches y only as a start event. The
  // stem fault y/SA1 needs a = 0 alone; the start evaluates c0 (which
  // queues y), y (the site: good X, faulty 1) and the output: 3 events;
  // a = 0 evaluates a, y and the output: 3 more.
  Netlist nl("or_tie");
  const GateId a = nl.add_input("a");
  const GateId c0 = nl.add_gate(GateType::kConst0, "c0");
  const GateId y = nl.add_gate(GateType::kOr, {a, c0}, "y");
  nl.add_output(y, "o");
  nl.finalize();
  Podem podem(nl);
  const AtpgOutcome out = podem.generate({y, kStemPin, 1});
  ASSERT_EQ(out.status, AtpgStatus::kDetected);
  EXPECT_EQ(out.cube.to_string(), "0");
  EXPECT_EQ(out.decisions, 1u);
  EXPECT_EQ(out.events, 6u);
}

TEST(PodemSeeds, ConstrainedInputsAreImpliedAtTheStart) {
  // Holding b at 0 blocks y = AND(a, b): a/SA0 is untestable in that mode
  // without a single decision, and testable without the constraint.
  Netlist nl("and2_mode");
  const GateId a = nl.add_input("a"), b = nl.add_input("b");
  const GateId y = nl.add_gate(GateType::kAnd, {a, b}, "y");
  nl.add_output(y, "o");
  nl.finalize();
  Podem podem(nl);
  PodemOptions mode;
  mode.constraints = {{b, Val3::kZero}};
  const AtpgOutcome held = podem.generate({a, kStemPin, 0}, mode);
  EXPECT_EQ(held.status, AtpgStatus::kUntestable);
  EXPECT_EQ(held.decisions, 1u);  // a = 1 activates; the frontier is dead
  const AtpgOutcome free = podem.generate({a, kStemPin, 0});
  ASSERT_EQ(free.status, AtpgStatus::kDetected);
  EXPECT_EQ(free.cube.to_string(), "11");
}

}  // namespace
}  // namespace aidft
