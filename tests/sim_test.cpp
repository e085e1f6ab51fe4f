#include <array>
#include <gtest/gtest.h>

#include "bench_circuits/generators.hpp"
#include "common/rng.hpp"
#include "sim/event_sim.hpp"
#include "sim/parallel_sim.hpp"
#include "test_util.hpp"

namespace aidft {
namespace {

using test::exhaustive_patterns;
using test::make_cube;
using test::read_output_bit;
using test::read_output_field;

TEST(ParallelSim, RippleAdderAddsExhaustively4Bit) {
  const Netlist nl = circuits::make_ripple_adder(4);
  ParallelSimulator sim(nl);
  for (std::uint64_t a = 0; a < 16; ++a) {
    std::vector<TestCube> cubes;
    for (std::uint64_t b = 0; b < 16; ++b) {
      for (std::uint64_t cin = 0; cin < 2; ++cin) {
        cubes.push_back(make_cube(
            nl, {{"a", a, 4}, {"b", b, 4}, {"cin", cin, 0}}));
      }
    }
    sim.simulate(pack_patterns(cubes, 0, cubes.size()));
    std::size_t lane = 0;
    for (std::uint64_t b = 0; b < 16; ++b) {
      for (std::uint64_t cin = 0; cin < 2; ++cin, ++lane) {
        const std::uint64_t sum = read_output_field(sim, "sum", 4, lane);
        const bool cout = read_output_bit(sim, "cout", lane);
        const std::uint64_t expect = a + b + cin;
        EXPECT_EQ(sum | (static_cast<std::uint64_t>(cout) << 4), expect)
            << "a=" << a << " b=" << b << " cin=" << cin;
      }
    }
  }
}

TEST(ParallelSim, CarryLookaheadMatchesRipple) {
  const Netlist cla = circuits::make_carry_lookahead_adder(8);
  ParallelSimulator sim(cla);
  Rng rng(7);
  std::vector<TestCube> cubes;
  std::vector<std::pair<std::uint64_t, std::uint64_t>> args;
  for (int i = 0; i < 64; ++i) {
    const std::uint64_t a = rng.next_below(256), b = rng.next_below(256);
    args.emplace_back(a, b);
    cubes.push_back(make_cube(cla, {{"a", a, 8}, {"b", b, 8}, {"cin", static_cast<std::uint64_t>(i & 1), 0}}));
  }
  sim.simulate(pack_patterns(cubes, 0, cubes.size()));
  for (std::size_t lane = 0; lane < 64; ++lane) {
    const std::uint64_t expect = args[lane].first + args[lane].second + (lane & 1);
    const std::uint64_t sum = read_output_field(sim, "sum", 8, lane) |
                              (std::uint64_t{read_output_bit(sim, "cout", lane)} << 8);
    EXPECT_EQ(sum, expect);
  }
}

TEST(ParallelSim, MultiplierMultiplies) {
  const Netlist nl = circuits::make_array_multiplier(6);
  ParallelSimulator sim(nl);
  Rng rng(11);
  std::vector<TestCube> cubes;
  std::vector<std::pair<std::uint64_t, std::uint64_t>> args;
  for (int i = 0; i < 64; ++i) {
    const std::uint64_t a = rng.next_below(64), b = rng.next_below(64);
    args.emplace_back(a, b);
    cubes.push_back(make_cube(nl, {{"a", a, 6}, {"b", b, 6}}));
  }
  sim.simulate(pack_patterns(cubes, 0, cubes.size()));
  for (std::size_t lane = 0; lane < 64; ++lane) {
    EXPECT_EQ(read_output_field(sim, "p", 12, lane),
              args[lane].first * args[lane].second)
        << args[lane].first << "*" << args[lane].second;
  }
}

TEST(ParallelSim, MultiplierExhaustive4Bit) {
  const Netlist nl = circuits::make_array_multiplier(4);
  ParallelSimulator sim(nl);
  std::vector<TestCube> cubes;
  for (std::uint64_t a = 0; a < 16; ++a) {
    for (std::uint64_t b = 0; b < 16; ++b) {
      cubes.push_back(make_cube(nl, {{"a", a, 4}, {"b", b, 4}}));
    }
  }
  for (std::size_t base = 0; base < cubes.size(); base += 64) {
    sim.simulate(pack_patterns(cubes, base, 64));
    for (std::size_t lane = 0; lane < 64; ++lane) {
      const std::uint64_t a = (base + lane) / 16, b = (base + lane) % 16;
      EXPECT_EQ(read_output_field(sim, "p", 8, lane), a * b);
    }
  }
}

TEST(ParallelSim, AluOperations) {
  const Netlist nl = circuits::make_alu(8);
  ParallelSimulator sim(nl);
  Rng rng(3);
  for (int rep = 0; rep < 8; ++rep) {
    std::vector<TestCube> cubes;
    std::vector<std::array<std::uint64_t, 4>> args;
    for (int i = 0; i < 64; ++i) {
      const std::uint64_t a = rng.next_below(256), b = rng.next_below(256);
      const std::uint64_t op0 = rng.next_below(2), op1 = rng.next_below(2);
      args.push_back({a, b, op0, op1});
      cubes.push_back(make_cube(
          nl, {{"a", a, 8}, {"b", b, 8}, {"op0", op0, 0}, {"op1", op1, 0}}));
    }
    sim.simulate(pack_patterns(cubes, 0, cubes.size()));
    for (std::size_t lane = 0; lane < 64; ++lane) {
      const auto [a, b, op0, op1] = args[lane];
      std::uint64_t expect = 0;
      if (op1 == 0) {
        expect = (op0 == 0 ? a + b : a - b) & 0xFF;
      } else {
        expect = (op0 == 0 ? (a & b) : (a ^ b)) & 0xFF;
      }
      EXPECT_EQ(read_output_field(sim, "r", 8, lane), expect)
          << "a=" << a << " b=" << b << " op=" << op1 << op0;
      EXPECT_EQ(read_output_bit(sim, "zero", lane), expect == 0);
    }
  }
}

TEST(ParallelSim, ComparatorAgainstReference) {
  const Netlist nl = circuits::make_comparator(5);
  ParallelSimulator sim(nl);
  std::vector<TestCube> cubes;
  for (std::uint64_t a = 0; a < 32; ++a) {
    for (std::uint64_t b = 0; b < 32; ++b) {
      cubes.push_back(make_cube(nl, {{"a", a, 5}, {"b", b, 5}}));
    }
  }
  for (std::size_t base = 0; base < cubes.size(); base += 64) {
    sim.simulate(pack_patterns(cubes, base, 64));
    for (std::size_t lane = 0; lane < 64; ++lane) {
      const std::uint64_t a = (base + lane) / 32, b = (base + lane) % 32;
      EXPECT_EQ(read_output_bit(sim, "eq", lane), a == b);
      EXPECT_EQ(read_output_bit(sim, "lt", lane), a < b);
      EXPECT_EQ(read_output_bit(sim, "gt", lane), a > b);
    }
  }
}

TEST(ParallelSim, MacComputesMultiplyAccumulate) {
  const Netlist nl = circuits::make_mac(8, /*registered=*/false);
  ParallelSimulator sim(nl);
  Rng rng(5);
  std::vector<TestCube> cubes;
  std::vector<std::array<std::uint64_t, 3>> args;
  for (int i = 0; i < 64; ++i) {
    const std::uint64_t a = rng.next_below(256), b = rng.next_below(256);
    const std::uint64_t acc = rng.next_below(1ull << 18);
    args.push_back({a, b, acc});
    cubes.push_back(make_cube(nl, {{"a", a, 8}, {"b", b, 8}, {"acc", acc, 20}}));
  }
  sim.simulate(pack_patterns(cubes, 0, cubes.size()));
  for (std::size_t lane = 0; lane < 64; ++lane) {
    const auto [a, b, acc] = args[lane];
    EXPECT_EQ(read_output_field(sim, "sum", 20, lane), a * b + acc);
  }
}

TEST(ParallelSim, ParityAndMuxAndDecoder) {
  {
    const Netlist nl = circuits::make_parity_tree(8);
    ParallelSimulator sim(nl);
    auto cubes = exhaustive_patterns(8);
    for (std::size_t base = 0; base < cubes.size(); base += 64) {
      sim.simulate(pack_patterns(cubes, base, 64));
      for (std::size_t lane = 0; lane < 64; ++lane) {
        EXPECT_EQ(read_output_bit(sim, "parity", lane),
                  __builtin_parityll(base + lane) != 0);
      }
    }
  }
  {
    const Netlist nl = circuits::make_decoder(3);
    ParallelSimulator sim(nl);
    std::vector<TestCube> cubes;
    for (std::uint64_t v = 0; v < 16; ++v) {
      cubes.push_back(make_cube(nl, {{"a", v & 7, 3}, {"en", v >> 3, 0}}));
    }
    sim.simulate(pack_patterns(cubes, 0, cubes.size()));
    for (std::size_t lane = 0; lane < 16; ++lane) {
      const bool en = lane >= 8;
      for (std::uint64_t r = 0; r < 8; ++r) {
        EXPECT_EQ(read_output_bit(sim, "row[" + std::to_string(r) + "]", lane),
                  en && r == (lane & 7));
      }
    }
  }
}

TEST(EventSim, MatchesParallelSimOnRandomLogic) {
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    const Netlist nl = circuits::make_random_logic(12, 300, seed);
    ParallelSimulator psim(nl);
    EventSimulator esim(nl);
    Rng rng(seed * 31);
    const auto cubes = random_patterns(nl.combinational_inputs().size(), 64, rng);
    const PatternBatch batch = pack_patterns(cubes, 0, 64);
    psim.simulate(batch);
    const auto inputs = nl.combinational_inputs();
    for (std::size_t i = 0; i < inputs.size(); ++i) {
      esim.set_input(inputs[i], batch.words[i]);
    }
    esim.settle();
    for (GateId id = 0; id < nl.num_gates(); ++id) {
      if (is_state_element(nl.type(id))) continue;
      EXPECT_EQ(esim.value(id), psim.value(id)) << "gate " << id;
    }
  }
}

TEST(EventSim, IncrementalUpdateIsCheap) {
  const Netlist nl = circuits::make_array_multiplier(8);
  EventSimulator sim(nl);
  const auto inputs = nl.combinational_inputs();
  for (GateId pi : inputs) sim.set_input(pi, ~0ull);
  const std::size_t full = sim.settle();
  // Re-settling with nothing changed must do no work.
  EXPECT_EQ(sim.settle(), 0u);
  // A single-input change must evaluate strictly fewer gates than full.
  sim.set_input(inputs[0], 0ull);
  const std::size_t incr = sim.settle();
  EXPECT_GT(incr, 0u);
  EXPECT_LT(incr, full);
}

TEST(EventSim, CounterCountsClockByClock) {
  const Netlist nl = circuits::make_counter(6);
  EventSimulator sim(nl);
  sim.set_input(nl.find("en"), ~0ull);  // enabled in every lane
  std::uint64_t expect = 0;
  for (int cycle = 0; cycle < 70; ++cycle) {
    sim.clock();
    expect = (expect + 1) & 63;
    std::uint64_t got = 0;
    for (std::size_t b = 0; b < 6; ++b) {
      // Counter state lives in q[b]; lane 0 suffices (all lanes identical).
      got |= (sim.value(nl.find("q[" + std::to_string(b) + "]")) & 1) << b;
    }
    EXPECT_EQ(got, expect) << "cycle " << cycle;
  }
}

TEST(EventSim, CounterHoldsWhenDisabled) {
  const Netlist nl = circuits::make_counter(4);
  EventSimulator sim(nl);
  sim.set_input(nl.find("en"), ~0ull);
  for (int i = 0; i < 5; ++i) sim.clock();
  sim.set_input(nl.find("en"), 0);
  const std::uint64_t q0 = sim.value(nl.find("q[0]"));
  for (int i = 0; i < 3; ++i) sim.clock();
  EXPECT_EQ(sim.value(nl.find("q[0]")) & 1, q0 & 1);
}

TEST(EventSim, ShiftRegisterDelaysInput) {
  const Netlist nl = circuits::make_shift_register(5);
  EventSimulator sim(nl);
  const GateId sin = nl.find("sin");
  const GateId sout_driver = nl.find("q[4]");
  std::vector<int> bits{1, 0, 1, 1, 0, 0, 1, 0, 1, 1};
  std::vector<int> seen;
  for (int b : bits) {
    sim.set_input(sin, b ? ~0ull : 0);
    sim.clock();
    seen.push_back(static_cast<int>(sim.value(sout_driver) & 1));
  }
  // After 5 clocks the input sequence appears at the output.
  for (std::size_t i = 4; i < bits.size(); ++i) {
    EXPECT_EQ(seen[i], bits[i - 4]);
  }
}

// Every gate's 3-valued good-machine value under the combinational-input
// values `bits`: the good half of test::full_pass_3v (a fault on no gate).
std::vector<Val3> good_3v(const Netlist& nl, const std::vector<Val3>& bits) {
  std::vector<Val3> good, faulty;
  test::full_pass_3v(nl, bits, Fault{}, good, faulty);
  return good;
}

TEST(Val3Sim, XPropagatesOnlyWhereUndetermined) {
  // y = a AND b: a=0 forces y=0 even with b=X; a=X leaves y=X unless b=0.
  Netlist nl;
  const GateId a = nl.add_input("a");
  const GateId b = nl.add_input("b");
  const GateId y = nl.add_gate(GateType::kAnd, {a, b}, "y");
  nl.add_output(y, "yo");
  nl.finalize();
  EXPECT_EQ(good_3v(nl, {Val3::kZero, Val3::kX})[y], Val3::kZero);
  EXPECT_EQ(good_3v(nl, {Val3::kX, Val3::kOne})[y], Val3::kX);
}

TEST(Val3Sim, MuxSelectXAgreementRule) {
  Netlist nl;
  const GateId s = nl.add_input("s");
  const GateId d0 = nl.add_input("d0");
  const GateId d1 = nl.add_input("d1");
  const GateId y = nl.add_gate(GateType::kMux, {s, d0, d1}, "y");
  nl.add_output(y, "yo");
  nl.finalize();
  // Both data agree.
  EXPECT_EQ(good_3v(nl, {Val3::kX, Val3::kOne, Val3::kOne})[y], Val3::kOne);
  EXPECT_EQ(good_3v(nl, {Val3::kX, Val3::kZero, Val3::kOne})[y], Val3::kX);
}

TEST(Val3Sim, FullySpecifiedMatchesParallelSim) {
  for (std::uint64_t seed = 10; seed < 13; ++seed) {
    const Netlist nl = circuits::make_random_logic(10, 200, seed);
    ParallelSimulator ps(nl);
    Rng rng(seed);
    const auto cubes = random_patterns(nl.combinational_inputs().size(), 8, rng);
    ps.simulate(pack_patterns(cubes, 0, 8));
    for (std::size_t p = 0; p < 8; ++p) {
      const std::vector<Val3> v3 = good_3v(nl, cubes[p].bits);
      for (GateId id = 0; id < nl.num_gates(); ++id) {
        if (is_state_element(nl.type(id))) continue;
        const Val3 v = v3[id];
        ASSERT_NE(v, Val3::kX);
        EXPECT_EQ(v == Val3::kOne, ((ps.value(id) >> p) & 1) != 0) << "gate " << id;
      }
    }
  }
}

TEST(Pattern, CubeCompatibilityAndMerge) {
  TestCube a(4), b(4);
  a.bits = {Val3::kOne, Val3::kX, Val3::kZero, Val3::kX};
  b.bits = {Val3::kX, Val3::kOne, Val3::kZero, Val3::kX};
  EXPECT_TRUE(a.compatible(b));
  a.merge(b);
  EXPECT_EQ(a.to_string(), "110X");
  TestCube c(4);
  c.bits = {Val3::kZero, Val3::kX, Val3::kX, Val3::kX};
  EXPECT_FALSE(a.compatible(c));
}

TEST(Pattern, PackUnpackRoundtrip) {
  Rng rng(99);
  auto cubes = random_patterns(13, 64, rng);
  const PatternBatch batch = pack_patterns(cubes, 0, 64);
  for (std::size_t p = 0; p < 64; ++p) {
    for (std::size_t i = 0; i < 13; ++i) {
      EXPECT_EQ((batch.words[i] >> p) & 1, cubes[p].bits[i] == Val3::kOne ? 1u : 0u);
    }
  }
  EXPECT_EQ(batch.lane_mask(), ~0ull);
  const PatternBatch small = pack_patterns(cubes, 0, 5);
  EXPECT_EQ(small.lane_mask(), 0x1Full);
}

}  // namespace
}  // namespace aidft
