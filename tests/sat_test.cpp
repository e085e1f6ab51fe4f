#include "sat/solver.hpp"

#include <gtest/gtest.h>

#include "bench_circuits/generators.hpp"
#include "common/rng.hpp"
#include "sat/cnf.hpp"
#include "sim/parallel_sim.hpp"

namespace aidft {
namespace {

TEST(SatSolver, TrivialSatAndModel) {
  SatSolver s;
  const auto a = s.new_var();
  const auto b = s.new_var();
  s.add_binary(pos_lit(a), pos_lit(b));
  s.add_unit(neg_lit(a));
  ASSERT_EQ(s.solve(), SatResult::kSat);
  EXPECT_FALSE(s.model_value(a));
  EXPECT_TRUE(s.model_value(b));
}

TEST(SatSolver, EmptyClauseIsUnsat) {
  SatSolver s;
  EXPECT_FALSE(s.add_clause({}));
  EXPECT_EQ(s.solve(), SatResult::kUnsat);
}

TEST(SatSolver, UnitContradictionIsUnsat) {
  SatSolver s;
  const auto a = s.new_var();
  s.add_unit(pos_lit(a));
  s.add_unit(neg_lit(a));
  EXPECT_EQ(s.solve(), SatResult::kUnsat);
}

TEST(SatSolver, TautologyAndDuplicatesHandled) {
  SatSolver s;
  const auto a = s.new_var();
  const auto b = s.new_var();
  const Lit tautology[] = {pos_lit(a), neg_lit(a), pos_lit(b)};
  const Lit dup[] = {pos_lit(b), pos_lit(b)};
  EXPECT_TRUE(s.add_clause(tautology));
  EXPECT_TRUE(s.add_clause(dup));
  ASSERT_EQ(s.solve(), SatResult::kSat);
  EXPECT_TRUE(s.model_value(b));
}

// Pigeonhole PHP(n+1, n): classic small UNSAT family that requires real
// conflict analysis, not just unit propagation.
void add_php(SatSolver& s, int pigeons, int holes) {
  std::vector<std::vector<std::uint32_t>> v(pigeons, std::vector<std::uint32_t>(holes));
  for (int p = 0; p < pigeons; ++p) {
    for (int h = 0; h < holes; ++h) v[p][h] = s.new_var();
  }
  for (int p = 0; p < pigeons; ++p) {
    std::vector<Lit> c;
    for (int h = 0; h < holes; ++h) c.push_back(pos_lit(v[p][h]));
    s.add_clause(c);
  }
  for (int h = 0; h < holes; ++h) {
    for (int p1 = 0; p1 < pigeons; ++p1) {
      for (int p2 = p1 + 1; p2 < pigeons; ++p2) {
        s.add_binary(neg_lit(v[p1][h]), neg_lit(v[p2][h]));
      }
    }
  }
}

TEST(SatSolver, PigeonholeUnsat) {
  for (int n = 2; n <= 6; ++n) {
    SatSolver s;
    add_php(s, n + 1, n);
    EXPECT_EQ(s.solve(), SatResult::kUnsat) << "PHP(" << n + 1 << "," << n << ")";
    EXPECT_GT(s.stats().conflicts, 0u);
  }
}

TEST(SatSolver, PigeonholeSatWhenFits) {
  SatSolver s;
  add_php(s, 5, 5);
  EXPECT_EQ(s.solve(), SatResult::kSat);
}

TEST(SatSolver, ConflictLimitReturnsUnknown) {
  SatSolver s;
  add_php(s, 9, 8);  // hard enough to exceed a tiny budget
  EXPECT_EQ(s.solve({}, /*conflict_limit=*/5), SatResult::kUnknown);
}

TEST(SatSolver, AssumptionsRestrictModels) {
  SatSolver s;
  const auto a = s.new_var();
  const auto b = s.new_var();
  s.add_binary(pos_lit(a), pos_lit(b));
  ASSERT_EQ(s.solve({neg_lit(a)}), SatResult::kSat);
  EXPECT_TRUE(s.model_value(b));
  // Contradictory assumptions: unsat under assumptions, but solvable again
  // without them.
  s.add_unit(pos_lit(a));
  EXPECT_EQ(s.solve({neg_lit(a)}), SatResult::kUnsat);
  EXPECT_EQ(s.solve(), SatResult::kSat);
}

// Random 3-SAT at low clause density: almost surely SAT; verify the model
// satisfies every clause (exercises propagation + learning machinery).
TEST(SatSolver, RandomSatModelsVerify) {
  Rng rng(77);
  for (int iter = 0; iter < 20; ++iter) {
    SatSolver s;
    const int nvars = 30;
    for (int i = 0; i < nvars; ++i) s.new_var();
    std::vector<std::vector<Lit>> clauses;
    const int nclauses = 90;  // density 3.0 < threshold 4.26
    for (int c = 0; c < nclauses; ++c) {
      std::vector<Lit> cl;
      for (int k = 0; k < 3; ++k) {
        cl.push_back(Lit::make(static_cast<std::uint32_t>(rng.next_below(nvars)),
                               rng.next_bool()));
      }
      clauses.push_back(cl);
      s.add_clause(cl);
    }
    const SatResult res = s.solve();
    if (res != SatResult::kSat) continue;  // rare; nothing to verify
    for (const auto& cl : clauses) {
      bool sat = false;
      for (const Lit l : cl) {
        if (s.model_value(l.var()) != l.negated()) sat = true;
      }
      EXPECT_TRUE(sat);
    }
  }
}

// One solver reset between random formulas must solve each exactly as a
// fresh solver does: same result, model and search. The variable counts
// grow, shrink and grow again, so later formulas reuse per-variable state
// and watch lists that earlier ones left behind.
TEST(SatSolver, ResetMatchesFreshSolver) {
  Rng rng(2027);
  SatSolver reused;
  const int var_counts[] = {4,  12, 30, 60, 90, 60, 30, 12,
                            4,  2,  20, 50, 90, 120};
  int kinds_seen[3] = {0, 0, 0};  // by SatResult
  for (const int nvars : var_counts) {
    auto random_lit = [&] {
      return Lit::make(static_cast<std::uint32_t>(rng.next_below(nvars)),
                       rng.next_bool());
    };
    for (int round = 0; round < 6; ++round) {
      // Densities from easy SAT to over-constrained UNSAT. Clauses of 3 or
      // 4 literals and a few units; repeated draws give duplicates and
      // tautologies.
      std::vector<std::vector<Lit>> clauses(nvars * (1 + round));
      for (auto& cl : clauses) {
        const std::size_t len =
            rng.next_below(32) == 0 ? 1 : 3 + (rng.next_below(4) == 0);
        for (std::size_t k = 0; k < len; ++k) cl.push_back(random_lit());
      }
      std::vector<Lit> assumptions;
      if (round % 2 == 1) {
        for (int k = 0; k < 3; ++k) assumptions.push_back(random_lit());
      }
      const std::int64_t limit = round % 3 == 1 ? 4 : -1;

      SatSolver fresh;
      reused.reset();
      for (SatSolver* s : {&fresh, &reused}) {
        for (int v = 0; v < nvars; ++v) s->new_var();
        for (const auto& cl : clauses) s->add_clause(cl);
      }
      const SatResult want = fresh.solve(assumptions, limit);
      const SatResult got = reused.solve(assumptions, limit);
      const std::string where = "vars " + std::to_string(nvars) +
                                " round " + std::to_string(round);
      ASSERT_EQ(got, want) << where;
      ++kinds_seen[static_cast<int>(want)];
      EXPECT_EQ(reused.num_vars(), fresh.num_vars()) << where;
      EXPECT_EQ(reused.num_added_clauses(), fresh.num_added_clauses())
          << where;
      EXPECT_EQ(reused.stats().conflicts, fresh.stats().conflicts) << where;
      EXPECT_EQ(reused.stats().decisions, fresh.stats().decisions) << where;
      EXPECT_EQ(reused.stats().propagations, fresh.stats().propagations)
          << where;
      if (want != SatResult::kSat) continue;
      for (int v = 0; v < nvars; ++v) {
        ASSERT_EQ(reused.model_value(v), fresh.model_value(v))
            << where << " var " << v;
      }
    }
  }
  // The formulas reach every outcome, the conflict limit's included.
  for (const int seen : kinds_seen) EXPECT_GT(seen, 0);
}

TEST(SatSolver, XorChainParity) {
  // x1 ^ x2 ^ ... ^ xn = 1 with all-equal constraints is UNSAT for even n.
  SatSolver s;
  const int n = 6;
  std::vector<std::uint32_t> x;
  for (int i = 0; i < n; ++i) x.push_back(s.new_var());
  // Encode pairwise equality x[i] == x[0].
  for (int i = 1; i < n; ++i) {
    s.add_binary(neg_lit(x[0]), pos_lit(x[i]));
    s.add_binary(pos_lit(x[0]), neg_lit(x[i]));
  }
  // Parity via CNF: forbid every even-parity total assignment is too big;
  // instead chain aux vars t_i = t_{i-1} ^ x_i using gate encoder.
  Lit acc = pos_lit(x[0]);
  std::vector<Lit> scratch;
  for (int i = 1; i < n; ++i) {
    const Lit t = pos_lit(s.new_var());
    const Lit in[] = {acc, pos_lit(x[i])};
    add_gate_clauses(s, GateType::kXor, t, in, scratch);
    acc = t;
  }
  s.add_unit(acc);  // parity must be 1
  EXPECT_EQ(s.solve(), SatResult::kUnsat);
}

// CNF encoder correctness: for random circuits, any SAT model of the CNF
// must match what the logic simulator computes from the model's inputs.
class CnfConsistency : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CnfConsistency, ModelMatchesSimulation) {
  const Netlist nl = circuits::make_random_logic(8, 120, GetParam());
  SatSolver s;
  CircuitCnf cnf(nl, s);
  // Pin a random output gate to 1 to make the query non-trivial.
  const GateId target = nl.outputs()[0];
  s.add_unit(cnf.lit(target));
  const SatResult res = s.solve();
  if (res != SatResult::kSat) return;  // constant-0 output: fine
  const auto inputs = nl.combinational_inputs();
  std::vector<TestCube> cube(1, TestCube(inputs.size()));
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    const Lit l = cnf.lit(inputs[i]);
    cube[0].bits[i] = (s.model_value(l.var()) != l.negated()) ? Val3::kOne
                                                              : Val3::kZero;
  }
  ParallelSimulator sim(nl);
  sim.simulate(pack_patterns(cube, 0, 1));
  for (GateId id = 0; id < nl.num_gates(); ++id) {
    if (is_state_element(nl.type(id))) continue;
    const Lit l = cnf.lit(id);
    const bool model = s.model_value(l.var()) != l.negated();
    EXPECT_EQ(model, (sim.value(id) & 1) != 0) << "gate " << id;
  }
  EXPECT_EQ(sim.value(target) & 1, 1u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, CnfConsistency,
                         ::testing::Values(21, 22, 23, 24, 25, 26, 27, 28, 29,
                                           30, 31, 32));

TEST(Cnf, GateFilterEncodesOnlyTheSelectedFaninClosedSubset) {
  const Netlist nl = circuits::make_random_logic(8, 120, 21);
  const Topology& t = nl.topology();
  // The transitive fanin of the first output, in topological order.
  std::vector<bool> only(nl.num_gates(), false);
  std::vector<GateId> stack{nl.outputs()[0]};
  only[stack.back()] = true;
  while (!stack.empty()) {
    const GateId g = stack.back();
    stack.pop_back();
    for (GateId f : t.fanin(g)) {
      if (!only[f]) {
        only[f] = true;
        stack.push_back(f);
      }
    }
  }
  std::vector<GateId> subset;
  for (GateId g : nl.topo_order()) {
    if (only[g]) subset.push_back(g);
  }
  SatSolver full_solver, cone_solver;
  const CircuitCnf full(nl, full_solver);
  CircuitCnf cone(nl);
  cone.encode(cone_solver, subset);
  EXPECT_LT(cone_solver.num_vars(), full_solver.num_vars());
  EXPECT_LT(cone_solver.num_added_clauses(), full_solver.num_added_clauses());
  // Every model of the subset matches simulation on the subset.
  const GateId target = nl.outputs()[0];
  cone_solver.add_unit(cone.lit(target));
  if (cone_solver.solve() != SatResult::kSat) return;  // constant-0 output
  const auto inputs = nl.combinational_inputs();
  std::vector<TestCube> cube(1, TestCube(inputs.size()));
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    bool v = false;
    if (only[inputs[i]]) {
      const Lit l = cone.lit(inputs[i]);
      v = cone_solver.model_value(l.var()) != l.negated();
    }
    cube[0].bits[i] = v ? Val3::kOne : Val3::kZero;
  }
  ParallelSimulator sim(nl);
  sim.simulate(pack_patterns(cube, 0, 1));
  for (GateId g = 0; g < nl.num_gates(); ++g) {
    if (!only[g]) continue;
    const Lit l = cone.lit(g);
    EXPECT_EQ(cone_solver.model_value(l.var()) != l.negated(),
              (sim.value(g) & 1) != 0)
        << "gate " << g;
  }
  // A subset that is not fanin-closed is rejected, and so is one out of
  // topological order.
  SatSolver s;
  CircuitCnf cnf(nl);
  EXPECT_THROW(cnf.encode(s, {&target, 1}), Error);
  std::vector<GateId> reversed(subset.rbegin(), subset.rend());
  s.reset();
  EXPECT_THROW(cnf.encode(s, reversed), Error);
}

TEST(Cnf, AdderCnfComputesSum) {
  // Constrain inputs of a 4-bit adder via units and check the outputs' model.
  const Netlist nl = circuits::make_ripple_adder(4);
  SatSolver s;
  CircuitCnf cnf(nl, s);
  auto pin = [&](const std::string& name, bool v) {
    const Lit l = cnf.lit(nl.find(name));
    s.add_unit(v ? l : ~l);
  };
  const std::uint64_t a = 11, b = 6;
  for (int i = 0; i < 4; ++i) {
    pin("a[" + std::to_string(i) + "]", (a >> i) & 1);
    pin("b[" + std::to_string(i) + "]", (b >> i) & 1);
  }
  pin("cin", false);
  ASSERT_EQ(s.solve(), SatResult::kSat);
  std::uint64_t sum = 0;
  for (int i = 0; i < 4; ++i) {
    const GateId o = nl.find("sum[" + std::to_string(i) + "]");
    const Lit l = cnf.lit(o);
    if (s.model_value(l.var()) != l.negated()) sum |= 1ull << i;
  }
  const GateId co = nl.find("cout");
  const Lit l = cnf.lit(co);
  if (s.model_value(l.var()) != l.negated()) sum |= 1ull << 4;
  EXPECT_EQ(sum, a + b);
}

}  // namespace
}  // namespace aidft
