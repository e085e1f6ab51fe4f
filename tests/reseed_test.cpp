#include "compress/reseed.hpp"

#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "bench_circuits/generators.hpp"
#include "fsim/fault_sim.hpp"

namespace aidft {
namespace {

std::vector<std::vector<Val3>> random_load(std::size_t chains, std::size_t len,
                                           std::size_t care_bits, Rng& rng) {
  std::vector<std::vector<Val3>> load(chains, std::vector<Val3>(len, Val3::kX));
  for (std::size_t k = 0; k < care_bits; ++k) {
    load[rng.next_below(chains)][rng.next_below(len)] =
        rng.next_bool() ? Val3::kOne : Val3::kZero;
  }
  return load;
}

TEST(Reseed, RoundTripDeliversCareBits) {
  ReseedConfig cfg;
  cfg.lfsr_bits = 64;
  ReseedCodec codec(cfg, 16, 32);
  Rng rng(5);
  std::size_t ok = 0;
  for (int iter = 0; iter < 30; ++iter) {
    const auto load = random_load(16, 32, 20, rng);  // 20 care ≪ 64 seed bits
    const auto seed = codec.encode(load);
    if (!seed) continue;
    ++ok;
    const auto delivered = codec.expand(*seed);
    for (std::size_t c = 0; c < 16; ++c) {
      for (std::size_t p = 0; p < 32; ++p) {
        if (load[c][p] == Val3::kX) continue;
        EXPECT_EQ(delivered[c][p], load[c][p] == Val3::kOne);
      }
    }
  }
  EXPECT_GE(ok, 28u);  // s=20 vs 64 seed bits: encodes essentially always
}

TEST(Reseed, RoundTripAtOffTableWidth) {
  // 40 bits has no entry in the feedback-tap table: the taps come from the
  // seeded fallback, which must still give a full-rank machine.
  ReseedConfig cfg;
  cfg.lfsr_bits = 40;
  ReseedCodec codec(cfg, 16, 32);
  Rng rng(40);
  std::size_t ok = 0;
  for (int iter = 0; iter < 30; ++iter) {
    const auto load = random_load(16, 32, 12, rng);  // 12 care ≪ 40 seed bits
    const auto seed = codec.encode(load);
    if (!seed) continue;
    ++ok;
    const auto delivered = codec.expand(*seed);
    for (std::size_t c = 0; c < 16; ++c) {
      for (std::size_t p = 0; p < 32; ++p) {
        if (load[c][p] == Val3::kX) continue;
        EXPECT_EQ(delivered[c][p], load[c][p] == Val3::kOne);
      }
    }
  }
  EXPECT_GE(ok, 27u);
}

TEST(Reseed, CapacityCliffNearSeedWidth) {
  // The Könemann rule: success probability collapses once care bits
  // approach lfsr_bits.
  ReseedConfig cfg;
  cfg.lfsr_bits = 32;
  ReseedCodec codec(cfg, 16, 32);
  Rng rng(7);
  auto success_rate = [&](std::size_t care) {
    std::size_t ok = 0;
    for (int iter = 0; iter < 40; ++iter) {
      if (codec.encode(random_load(16, 32, care, rng))) ++ok;
    }
    return static_cast<double>(ok) / 40.0;
  };
  const double low = success_rate(12);    // s = lfsr - 20
  const double high = success_rate(48);   // s = lfsr + 16: impossible-ish
  EXPECT_GT(low, 0.9);
  EXPECT_LT(high, 0.1);
}

TEST(Reseed, EmptyCubeAndDeterminism) {
  ReseedCodec codec(ReseedConfig{}, 8, 16);
  std::vector<std::vector<Val3>> empty(8, std::vector<Val3>(16, Val3::kX));
  const auto a = codec.encode(empty);
  const auto b = codec.encode(empty);
  ASSERT_TRUE(a && b);
  EXPECT_TRUE(*a == *b);
  EXPECT_DOUBLE_EQ(codec.compression_ratio(), (8.0 * 16.0) / 64.0);
}

TEST(Reseed, RaggedChains) {
  ReseedCodec codec(ReseedConfig{}, 3, 10);
  std::vector<std::vector<Val3>> load{std::vector<Val3>(10, Val3::kX),
                                      std::vector<Val3>(9, Val3::kX),
                                      std::vector<Val3>(9, Val3::kX)};
  load[0][9] = Val3::kOne;
  load[1][0] = Val3::kZero;
  load[2][4] = Val3::kOne;
  const auto seed = codec.encode(load);
  ASSERT_TRUE(seed.has_value());
  const auto delivered = codec.expand(*seed);
  EXPECT_TRUE(delivered[0][9]);
  EXPECT_FALSE(delivered[1][0]);
  EXPECT_TRUE(delivered[2][4]);
}

TEST(Iddq, ActivationIsDetection) {
  // y = AND(a,b): IDDQ detects y/SA1 whenever y is 0 — no propagation
  // requirement, unlike logic test which also needs observation.
  Netlist nl;
  const GateId a = nl.add_input("a");
  const GateId b = nl.add_input("b");
  const GateId y = nl.add_gate(GateType::kAnd, {a, b}, "y");
  const GateId dead = nl.add_gate(GateType::kAnd, {y, a}, "dead");
  nl.add_output(dead, "o");
  nl.finalize();

  std::vector<TestCube> cubes;
  for (int m = 0; m < 4; ++m) {
    TestCube c(2);
    c.bits = {(m & 1) ? Val3::kOne : Val3::kZero,
              (m & 2) ? Val3::kOne : Val3::kZero};
    cubes.push_back(c);
  }
  FaultSimulator fsim(nl);
  fsim.load_batch(pack_patterns(cubes, 0, 4));
  const Fault y_sa1{y, kStemPin, 1, FaultKind::kStuckAt};
  // IDDQ: lanes where y==0 (all but a=b=1).
  EXPECT_EQ(fsim.detect_mask_iddq(y_sa1), 0b0111ull);
  // Logic test needs propagation through `dead` (requires a=1): strictly
  // fewer lanes.
  const std::uint64_t logic = fsim.detect_mask(y_sa1);
  EXPECT_EQ(logic & ~fsim.detect_mask_iddq(y_sa1), 0ull);
  EXPECT_LT(__builtin_popcountll(logic),
            __builtin_popcountll(fsim.detect_mask_iddq(y_sa1)));
}

TEST(Iddq, FewPatternsReachHighCoverage) {
  // The classic IDDQ selling point: a handful of vectors activates almost
  // every fault site, far above logic-test coverage at equal pattern count.
  const Netlist nl = circuits::make_array_multiplier(6);
  const auto faults = generate_stuck_at_faults(nl);
  Rng rng(3);
  const auto cubes = random_patterns(nl.combinational_inputs().size(), 8, rng);
  FaultSimulator fsim(nl);
  fsim.load_batch(pack_patterns(cubes, 0, 8));
  std::size_t iddq = 0, logic = 0;
  for (const Fault& f : faults) {
    if (fsim.detect_mask_iddq(f) != 0) ++iddq;
    if (fsim.detect_mask(f) != 0) ++logic;
  }
  const double iddq_cov = static_cast<double>(iddq) / faults.size();
  const double logic_cov = static_cast<double>(logic) / faults.size();
  // Multiplier internals are value-biased (AND nets sit at 0), so even
  // activation takes a few vectors — but IDDQ still clearly leads logic
  // test at the same tiny budget.
  EXPECT_GT(iddq_cov, 0.85);
  EXPECT_GT(iddq_cov, logic_cov + 0.05);
}

TEST(Iddq, NeverDetectsLessThanItself) {
  // Logic detection implies activation, so IDDQ detection is a superset
  // lane-by-lane for every fault.
  const Netlist nl = circuits::make_alu(4);
  const auto faults = generate_stuck_at_faults(nl);
  Rng rng(11);
  const auto cubes = random_patterns(nl.combinational_inputs().size(), 64, rng);
  FaultSimulator fsim(nl);
  fsim.load_batch(pack_patterns(cubes, 0, 64));
  for (const Fault& f : faults) {
    // Logic detection requires activation in the same lane, except for
    // branch faults whose activation is measured on the branch (same line
    // value as the driver) — identical either way in this model.
    EXPECT_EQ(fsim.detect_mask(f) & ~fsim.detect_mask_iddq(f), 0ull)
        << fault_name(nl, f);
  }
}

}  // namespace
}  // namespace aidft
