#include "netlist/netlist.hpp"

#include <gtest/gtest.h>

#include "bench_circuits/generators.hpp"
#include "netlist/bench_io.hpp"
#include "netlist/scoap.hpp"
#include "netlist/stats.hpp"

namespace aidft {
namespace {

TEST(Netlist, BuildAndFinalize) {
  Netlist nl("t");
  const GateId a = nl.add_input("a");
  const GateId b = nl.add_input("b");
  const GateId g = nl.add_gate(GateType::kAnd, {a, b}, "g");
  nl.add_output(g, "y");
  nl.finalize();
  EXPECT_TRUE(nl.finalized());
  EXPECT_EQ(nl.num_gates(), 4u);
  EXPECT_EQ(nl.inputs().size(), 2u);
  EXPECT_EQ(nl.outputs().size(), 1u);
  EXPECT_EQ(nl.topology().level(g), 1u);
  EXPECT_EQ(nl.topology().fanout_size(g), 1u);
  EXPECT_EQ(nl.find("g"), g);
  EXPECT_EQ(nl.find("nope"), kNoGate);
}

TEST(Netlist, RejectsWrongArity) {
  Netlist nl;
  const GateId a = nl.add_input("a");
  nl.add_gate(GateType::kMux, {a, a}, "m");  // MUX needs 3 fanins
  EXPECT_THROW(nl.finalize(), Error);
}

TEST(Netlist, RejectsCombinationalCycle) {
  Netlist nl;
  const GateId a = nl.add_input("a");
  const GateId g1 = nl.add_gate(GateType::kAnd, "g1");
  const GateId g2 = nl.add_gate(GateType::kOr, "g2");
  nl.connect(a, g1);
  nl.connect(g2, g1);
  nl.connect(g1, g2);
  nl.connect(a, g2);
  EXPECT_THROW(nl.finalize(), Error);
}

TEST(Netlist, DffBreaksCycle) {
  // q = DFF(not q) — a divide-by-two toggle; legal because the flop breaks
  // the loop.
  Netlist nl;
  const GateId q = nl.add_gate(GateType::kDff, "q");
  const GateId nq = nl.add_gate(GateType::kNot, {q}, "nq");
  nl.connect(nq, q);
  nl.add_output(q, "y");
  EXPECT_NO_THROW(nl.finalize());
  EXPECT_EQ(nl.dffs().size(), 1u);
}

TEST(Netlist, RejectsDuplicateNames) {
  Netlist nl;
  nl.add_input("a");
  EXPECT_THROW(nl.add_input("a"), Error);
}

TEST(Netlist, CombinationalViewListsPpiAndPpo) {
  Netlist nl;
  const GateId a = nl.add_input("a");
  const GateId ff = nl.add_dff(a, "ff");
  const GateId g = nl.add_gate(GateType::kXor, {a, ff}, "g");
  nl.add_output(g, "y");
  nl.finalize();
  const auto ci = nl.combinational_inputs();
  ASSERT_EQ(ci.size(), 2u);
  EXPECT_EQ(ci[0], a);
  EXPECT_EQ(ci[1], ff);
  const auto op = nl.observe_points();
  ASSERT_EQ(op.size(), 2u);
  // PO marker observes itself; DFF observes its D driver (gate a).
  EXPECT_EQ(nl.observed_gate(op[0]), op[0]);
  EXPECT_EQ(nl.observed_gate(op[1]), a);
}

TEST(Netlist, LevelsAreMonotone) {
  const Netlist nl = circuits::make_array_multiplier(6);
  const Topology& t = nl.topology();
  for (GateId id = 0; id < nl.num_gates(); ++id) {
    if (is_source(t.type(id)) || is_state_element(t.type(id))) continue;
    for (GateId f : t.fanin(id)) {
      EXPECT_LT(t.level(f), t.level(id));
    }
  }
}

TEST(Netlist, TopoOrderRespectsDependencies) {
  const Netlist nl = circuits::make_alu(8);
  std::vector<std::size_t> pos(nl.num_gates());
  const auto& topo = nl.topo_order();
  ASSERT_EQ(topo.size(), nl.num_gates());
  for (std::size_t i = 0; i < topo.size(); ++i) pos[topo[i]] = i;
  for (GateId id = 0; id < nl.num_gates(); ++id) {
    const Gate& g = nl.gate(id);
    if (is_source(g.type) || is_state_element(g.type)) continue;
    for (GateId f : g.fanin) EXPECT_LT(pos[f], pos[id]);
  }
}

TEST(BenchIo, RoundTripC17) {
  const Netlist c17 = circuits::make_c17();
  const std::string text = write_bench_string(c17);
  const Netlist back = read_bench_string(text, "c17rt");
  EXPECT_EQ(back.inputs().size(), c17.inputs().size());
  EXPECT_EQ(back.outputs().size(), c17.outputs().size());
  EXPECT_EQ(back.logic_gate_count(), c17.logic_gate_count());
}

TEST(BenchIo, ParsesClassicSyntax) {
  const std::string text = R"(
# a comment
INPUT(G1)
INPUT(G2)
OUTPUT(G5)
G4 = NOT(G1)
G5 = nand(G4, G2)
)";
  const Netlist nl = read_bench_string(text);
  EXPECT_EQ(nl.inputs().size(), 2u);
  EXPECT_EQ(nl.outputs().size(), 1u);
  EXPECT_EQ(nl.type(nl.find("G5")), GateType::kNand);
}

TEST(BenchIo, SequentialRoundTrip) {
  const Netlist cnt = circuits::make_counter(4);
  const Netlist back = read_bench_string(write_bench_string(cnt), "cnt_rt");
  EXPECT_EQ(back.dffs().size(), cnt.dffs().size());
  EXPECT_EQ(back.logic_gate_count(), cnt.logic_gate_count());
}

TEST(BenchIo, RejectsUndefinedSignal) {
  EXPECT_THROW(read_bench_string("INPUT(a)\nOUTPUT(z)\nz = AND(a, ghost)\n"),
               Error);
}

TEST(BenchIo, RejectsUnknownGate) {
  EXPECT_THROW(read_bench_string("INPUT(a)\nz = FROB(a)\nOUTPUT(z)\n"), Error);
}

TEST(Scoap, InputsCostOne) {
  const Netlist nl = circuits::make_c17();
  const ScoapResult s = compute_scoap(nl);
  for (GateId pi : nl.inputs()) {
    EXPECT_EQ(s.cc0[pi], 1u);
    EXPECT_EQ(s.cc1[pi], 1u);
  }
}

TEST(Scoap, AndGateAsymmetry) {
  // Wide AND: CC1 grows with width, CC0 stays cheap.
  Netlist nl;
  std::vector<GateId> ins;
  for (int i = 0; i < 8; ++i) ins.push_back(nl.add_input("i" + std::to_string(i)));
  const GateId g = nl.add_gate(
      GateType::kAnd, std::span<const GateId>(ins.data(), ins.size()), "g");
  nl.add_output(g, "y");
  nl.finalize();
  const ScoapResult s = compute_scoap(nl);
  EXPECT_EQ(s.cc1[g], 8u + 1u);  // all eight inputs at 1
  EXPECT_EQ(s.cc0[g], 1u + 1u);  // one input at 0
}

TEST(Scoap, ObservabilityZeroAtOutputs) {
  const Netlist nl = circuits::make_c17();
  const ScoapResult s = compute_scoap(nl);
  for (GateId po : nl.outputs()) {
    EXPECT_EQ(s.co[nl.gate(po).fanin[0]], 0u);
  }
}

TEST(Scoap, Const0CannotBeOne) {
  Netlist nl;
  const GateId c = nl.add_gate(GateType::kConst0, "c");
  const GateId a = nl.add_input("a");
  const GateId g = nl.add_gate(GateType::kOr, {c, a}, "g");
  nl.add_output(g, "y");
  nl.finalize();
  const ScoapResult s = compute_scoap(nl);
  EXPECT_EQ(s.cc1[c], kUnreachable);
  EXPECT_EQ(s.cc0[c], 0u);
}

TEST(Scoap, GoldenValuesOnHandComputedTenGateNetlist) {
  // Ten gates covering NOT/AND/OR/XOR/DFF/OUTPUT, every measure worked out
  // by hand from the Goldstein recurrences (full-scan variant: DFF Q costs
  // 1 to control, DFF D costs 1 to observe).
  Netlist nl("golden10");
  const GateId a = nl.add_input("a");                          // 0
  const GateId b = nl.add_input("b");                          // 1
  const GateId c = nl.add_input("c");                          // 2
  const GateId n = nl.add_gate(GateType::kNot, {a}, "n");      // 3
  const GateId g1 = nl.add_gate(GateType::kAnd, {n, b}, "g1"); // 4
  const GateId g2 = nl.add_gate(GateType::kOr, {g1, c}, "g2"); // 5
  const GateId x = nl.add_gate(GateType::kXor, {a, b}, "x");   // 6
  const GateId ff = nl.add_dff(x, "ff");                       // 7
  const GateId o1 = nl.add_output(g2, "out1");                 // 8
  const GateId o2 = nl.add_output(ff, "out2");                 // 9
  nl.finalize();
  ASSERT_EQ(nl.num_gates(), 10u);
  const ScoapResult s = compute_scoap(nl);

  // Controllability, forward pass.
  for (GateId pi : {a, b, c}) {
    EXPECT_EQ(s.cc0[pi], 1u);
    EXPECT_EQ(s.cc1[pi], 1u);
  }
  EXPECT_EQ(s.cc0[n], 2u);   // cc1(a) + 1
  EXPECT_EQ(s.cc1[n], 2u);   // cc0(a) + 1
  EXPECT_EQ(s.cc0[g1], 2u);  // min(cc0(n), cc0(b)) + 1 = 1 + 1
  EXPECT_EQ(s.cc1[g1], 4u);  // cc1(n) + cc1(b) + 1 = 2 + 1 + 1
  EXPECT_EQ(s.cc0[g2], 4u);  // cc0(g1) + cc0(c) + 1 = 2 + 1 + 1
  EXPECT_EQ(s.cc1[g2], 2u);  // min(cc1(g1), cc1(c)) + 1 = 1 + 1
  EXPECT_EQ(s.cc0[x], 3u);   // cheapest even parity of {a,b} + 1 = 2 + 1
  EXPECT_EQ(s.cc1[x], 3u);   // cheapest odd parity + 1
  EXPECT_EQ(s.cc0[ff], 1u);  // full scan: Q loads through the chain
  EXPECT_EQ(s.cc1[ff], 1u);
  EXPECT_EQ(s.cc0[o1], 5u);  // output marker mirrors driver + 1
  EXPECT_EQ(s.cc1[o1], 3u);
  EXPECT_EQ(s.cc0[o2], 2u);
  EXPECT_EQ(s.cc1[o2], 2u);

  // Observability, backward pass.
  EXPECT_EQ(s.co[o1], 0u);
  EXPECT_EQ(s.co[o2], 0u);
  EXPECT_EQ(s.co[g2], 0u);   // directly at a PO
  EXPECT_EQ(s.co[ff], 0u);   // Q directly at a PO
  EXPECT_EQ(s.co[x], 1u);    // captured by the scan flop: cost 1
  EXPECT_EQ(s.co[g1], 2u);   // co(g2) + cc0(c) + 1 = 0 + 1 + 1
  EXPECT_EQ(s.co[c], 3u);    // co(g2) + cc0(g1) + 1 = 0 + 2 + 1
  EXPECT_EQ(s.co[n], 4u);    // co(g1) + cc1(b) + 1 = 2 + 1 + 1
  // b: min(via XOR: co(x)+min cc(a)+1 = 3, via g1: co(g1)+cc1(n)+1 = 5).
  EXPECT_EQ(s.co[b], 3u);
  // a: min(via XOR: 3, via NOT: co(n)+1 = 5).
  EXPECT_EQ(s.co[a], 3u);

  // Difficulty proxy composes controllability and observability.
  EXPECT_EQ(s.sa_difficulty(g1, /*stuck_at_one=*/true), 2u + 2u);   // cc0+co
  EXPECT_EQ(s.sa_difficulty(g1, /*stuck_at_one=*/false), 4u + 2u);  // cc1+co
}

TEST(Scoap, DeepLinesHarderToControl) {
  const Netlist nl = circuits::make_ripple_adder(16);
  const ScoapResult s = compute_scoap(nl);
  // Everything in an adder is testable: all measures finite.
  for (GateId id = 0; id < nl.num_gates(); ++id) {
    EXPECT_LT(s.cc0[id], kUnreachable) << id;
    EXPECT_LT(s.cc1[id], kUnreachable) << id;
    if (nl.topology().fanout_size(id) != 0 ||
        nl.type(id) == GateType::kOutput) {
      EXPECT_LT(s.co[id], kUnreachable) << id;
    }
  }
  // Controllability grows along the carry chain: the MSB sum depends on the
  // whole ripple, the LSB sum on three inputs.
  const GateId s0 = nl.find("sum[0]");
  const GateId s15 = nl.find("sum[15]");
  ASSERT_NE(s0, kNoGate);
  ASSERT_NE(s15, kNoGate);
  EXPECT_GT(s.cc_min(s15), s.cc_min(s0));
}

TEST(Stats, ReportsBasics) {
  const Netlist nl = circuits::make_mac(4, /*registered=*/true);
  const NetlistStats st = compute_stats(nl);
  EXPECT_GT(st.num_logic_gates, 50u);
  EXPECT_EQ(st.num_dffs, nl.dffs().size());
  EXPECT_GT(st.depth, 4u);
  EXPECT_FALSE(st.to_string().empty());
}

TEST(Generators, StandardSuiteAllFinalize) {
  for (const auto& nc : circuits::standard_suite()) {
    EXPECT_TRUE(nc.netlist.finalized()) << nc.name;
    EXPECT_GT(nc.netlist.num_gates(), 0u) << nc.name;
  }
}

// ---------------------------------------------------------------------------
// Malformed-input corpus: every file under tests/data/bad_bench/ must be
// rejected with an aidft::Error whose message carries <file>:<line> context
// — never a crash, hang, or unbounded error string (the corpus includes a
// 64KB line and raw non-UTF8 bytes; ASan/UBSan runs keep this honest).

TEST(BenchIo, MalformedCorpusRejectedWithFileLineContext) {
  const std::string dir = std::string(AIDFT_TEST_DATA_DIR) + "/bad_bench/";
  const char* corpus[] = {
      "truncated.bench",      "duplicate_gate.bench", "duplicate_input.bench",
      "undefined_fanin.bench", "recursive.bench",      "cycle.bench",
      "missing_name.bench",   "unknown_gate.bench",   "no_equals.bench",
      "undefined_output.bench", "big_line.bench",     "non_utf8.bench",
  };
  for (const char* name : corpus) {
    const std::string path = dir + name;
    try {
      read_bench_file(path);
      FAIL() << name << " parsed without error";
    } catch (const Error& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find(path), std::string::npos)
          << name << ": message lacks file context: " << what;
      EXPECT_LT(what.size(), 512u)
          << name << ": error message not capped: " << what.size() << " bytes";
    }
  }
}

TEST(BenchIo, HugeLineErrorMessageIsCapped) {
  // A pathological multi-megabyte line must not be echoed wholesale into the
  // exception text.
  std::string text = "INPUT(a)\nz = AND(a, ";
  text.append(10u << 20, 'q');
  try {
    read_bench_string(text, "huge");
    FAIL() << "unterminated 10MB line parsed without error";
  } catch (const Error& e) {
    EXPECT_LT(std::string(e.what()).size(), 512u);
  }
}

TEST(BenchIo, DirectRecursionRejectedBeforeFinalize) {
  try {
    read_bench_string("INPUT(b)\na = AND(a, b)\nOUTPUT(a)\n", "rec");
    FAIL() << "self-feeding gate parsed without error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("recursive"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("rec:2"), std::string::npos);
  }
}

}  // namespace
}  // namespace aidft
