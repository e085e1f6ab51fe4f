#include "compress/edt.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <utility>

#include "atpg/atpg.hpp"
#include "bench_circuits/generators.hpp"
#include "common/rng.hpp"
#include "compress/session.hpp"
#include "fault/fault.hpp"
#include "fsim/fault_sim.hpp"
#include "test_util.hpp"

namespace aidft {
namespace {

std::vector<std::vector<Val3>> random_care_load(std::size_t chains,
                                                std::size_t len,
                                                double care_density, Rng& rng) {
  std::vector<std::vector<Val3>> load(chains, std::vector<Val3>(len, Val3::kX));
  for (auto& chain : load) {
    for (auto& v : chain) {
      if (rng.next_bool(care_density)) {
        v = rng.next_bool() ? Val3::kOne : Val3::kZero;
      }
    }
  }
  return load;
}

// Fundamental codec property: whatever encode() returns, decompress() must
// deliver every care bit.
class EdtRoundTrip
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::size_t, double>> {};

TEST_P(EdtRoundTrip, EncodeDecompressDeliversCareBits) {
  const auto [chains, len, density] = GetParam();
  EdtConfig cfg;
  EdtCodec codec(cfg, chains, len);
  Rng rng(chains * 1000 + len);
  std::size_t successes = 0;
  for (int iter = 0; iter < 20; ++iter) {
    const auto load = random_care_load(chains, len, density, rng);
    const auto encoded = codec.encode(load);
    if (!encoded) continue;
    ++successes;
    ASSERT_EQ(encoded->size(), cfg.channels);
    const auto delivered = codec.decompress(*encoded);
    for (std::size_t c = 0; c < chains; ++c) {
      for (std::size_t p = 0; p < len; ++p) {
        if (load[c][p] == Val3::kX) continue;
        EXPECT_EQ(delivered[c][p], load[c][p] == Val3::kOne)
            << "chain " << c << " pos " << p;
      }
    }
  }
  // At low care density nearly everything must encode.
  if (density <= 0.05) {
    EXPECT_GE(successes, 18u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, EdtRoundTrip,
    ::testing::Values(std::make_tuple(std::size_t{8}, std::size_t{32}, 0.02),
                      std::make_tuple(std::size_t{16}, std::size_t{32}, 0.05),
                      std::make_tuple(std::size_t{32}, std::size_t{64}, 0.02),
                      std::make_tuple(std::size_t{64}, std::size_t{16}, 0.02),
                      std::make_tuple(std::size_t{4}, std::size_t{100}, 0.10)));

TEST(Edt, RoundTripAtOffTableWidth) {
  // 40 bits has no entry in the feedback-tap table: the taps come from the
  // seeded fallback, which must still give a full-rank machine.
  EdtConfig cfg;
  cfg.lfsr_bits = 40;
  cfg.channels = 3;
  const EdtCodec codec(cfg, 12, 30);
  Rng rng(40);
  std::size_t successes = 0;
  for (int iter = 0; iter < 20; ++iter) {
    const auto load = random_care_load(12, 30, 0.05, rng);
    const auto encoded = codec.encode(load);
    if (!encoded) continue;
    ++successes;
    const auto delivered = codec.decompress(*encoded);
    for (std::size_t c = 0; c < 12; ++c) {
      for (std::size_t p = 0; p < 30; ++p) {
        if (load[c][p] == Val3::kX) continue;
        EXPECT_EQ(delivered[c][p], load[c][p] == Val3::kOne)
            << "chain " << c << " pos " << p;
      }
    }
  }
  EXPECT_GE(successes, 18u);  // ~18 care bits vs 130 injected variables
}

TEST(Edt, OverconstrainedCubeFailsGracefully) {
  // More care bits than injected variables cannot be linearly solvable.
  EdtConfig cfg;
  cfg.channels = 1;
  EdtCodec codec(cfg, /*chains=*/16, /*len=*/8);  // 8 vars vs 128 care bits
  std::vector<std::vector<Val3>> all_care(16, std::vector<Val3>(8, Val3::kOne));
  // All-ones over every chain: only encodable if the phase shifter happens
  // to produce it — with 8 variables and 128 constraints, essentially never.
  EXPECT_FALSE(codec.encode(all_care).has_value());
}

TEST(Edt, EmptyCubeEncodesTrivially) {
  EdtCodec codec(EdtConfig{}, 8, 16);
  std::vector<std::vector<Val3>> empty(8, std::vector<Val3>(16, Val3::kX));
  const auto encoded = codec.encode(empty);
  ASSERT_TRUE(encoded.has_value());
}

TEST(Edt, CompressionRatioAccountsForWarmup) {
  EdtConfig cfg;
  cfg.channels = 2;
  EdtCodec codec(cfg, 32, 50);
  // warmup = lfsr_bits/channels = 16 cycles; bits/pattern = 2*(16+50).
  EXPECT_EQ(codec.warmup_cycles(), 16u);
  EXPECT_EQ(codec.bits_per_pattern(), 132u);
  EXPECT_DOUBLE_EQ(codec.compression_ratio(), (32.0 * 50.0) / 132.0);
  // Long chains amortise warm-up toward the chains/channels asymptote.
  EdtCodec long_codec(cfg, 32, 2000);
  EXPECT_GT(long_codec.compression_ratio(), 15.0);
}

TEST(Edt, RaggedChainsSupported) {
  EdtConfig cfg;
  EdtCodec codec(cfg, 3, 10);
  Rng rng(5);
  std::vector<std::vector<Val3>> load{
      std::vector<Val3>(10, Val3::kX),
      std::vector<Val3>(9, Val3::kX),
      std::vector<Val3>(9, Val3::kX),
  };
  load[0][0] = Val3::kOne;
  load[1][8] = Val3::kZero;
  load[2][3] = Val3::kOne;
  const auto encoded = codec.encode(load);
  ASSERT_TRUE(encoded.has_value());
  const auto delivered = codec.decompress(*encoded);
  EXPECT_TRUE(delivered[0][0]);
  EXPECT_FALSE(delivered[1][8]);
  EXPECT_TRUE(delivered[2][3]);
}

TEST(Misr, SignatureSensitiveToSingleBit) {
  Misr a(32), b(32);
  std::vector<bool> resp(10, false);
  for (int i = 0; i < 50; ++i) {
    a.shift_in(resp);
    if (i == 25) {
      auto flipped = resp;
      flipped[3] = true;
      b.shift_in(flipped);
    } else {
      b.shift_in(resp);
    }
  }
  EXPECT_NE(a.signature(), b.signature());
}

TEST(Misr, DeterministicAndResettable) {
  Misr a(16);
  std::vector<bool> resp{true, false, true};
  for (int i = 0; i < 8; ++i) a.shift_in(resp);
  const auto sig = a.signature();
  a.reset();
  for (int i = 0; i < 8; ++i) a.shift_in(resp);
  EXPECT_EQ(a.signature(), sig);
}

TEST(Misr, StepIsInvertibleAtEveryWidth) {
  // From reset, a 1 in bit 0 then one zero vector: the Galois step shifts
  // the 1 out as feedback, which must land on the top bit. A tap on the top
  // bit would cancel it there, and the step would lose the old bit 0.
  for (std::size_t bits = 4; bits <= 128; ++bits) {
    Misr misr(bits);
    std::vector<bool> first(bits, false);
    first[0] = true;
    misr.shift_in(first);
    misr.shift_in(std::vector<bool>(bits, false));
    const std::vector<std::uint64_t> sig = misr.signature();
    EXPECT_TRUE((sig[(bits - 1) / 64] >> ((bits - 1) % 64)) & 1ull)
        << "misr_bits " << bits;
  }
}

TEST(Misr, AbsorbMatchesBitSerialOracle) {
  // Random response words, junk lanes included, absorbed a batch per call
  // against the bit-serial oracle a cycle per call: partial and full
  // batches in a row, observe counts below, at and above the width.
  const std::size_t kObservePoints[] = {1, 31, 64, 65, 400};
  const std::size_t kLanes[] = {64, 1, 63, 64};
  Rng rng(0x315F);
  for (std::size_t bits = 4; bits <= 128; ++bits) {
    for (std::size_t nops : kObservePoints) {
      Misr misr(bits);
      test::BitSerialMisr oracle(bits);
      std::vector<std::uint64_t> words(nops);
      std::vector<bool> cycle(nops);
      for (std::size_t lanes : kLanes) {
        for (std::uint64_t& w : words) w = rng.next_u64();
        misr.absorb(words, lanes);
        for (std::size_t p = 0; p < lanes; ++p) {
          for (std::size_t i = 0; i < nops; ++i) cycle[i] = (words[i] >> p) & 1;
          oracle.shift_in(cycle);
        }
        ASSERT_EQ(misr.signature(), oracle.signature())
            << "misr_bits " << bits << " observe " << nops << " lanes "
            << lanes;
      }
    }
  }
}

TEST(Session, CompressionPreservesCoverageOnMac) {
  // The headline EDT claim in miniature: compress ATPG cubes ~10x and lose
  // (almost) no coverage.
  const Netlist nl = circuits::make_mac(4, /*registered=*/true);
  const auto faults = collapse_equivalent(nl, generate_stuck_at_faults(nl));
  AtpgOptions atpg_opts;
  atpg_opts.random_patterns = 0;  // compression consumes deterministic cubes
  const AtpgResult atpg = generate_tests(nl, faults, atpg_opts);
  ASSERT_FALSE(atpg.cubes.empty());

  const ScanPlan plan = plan_scan_chains(nl, 4);
  CompressedSessionConfig cfg;
  const CompressedSessionResult session =
      run_compressed_session(nl, plan, faults, atpg.cubes, cfg);

  EXPECT_EQ(session.encode_failures, 0u)
      << "MAC cubes are sparse; all should encode";
  // Ideal-observation coverage must reach what the cube set itself covers
  // (everything detected deterministically plus LFSR-fill luck).
  EXPECT_GT(session.coverage_ideal(), 0.95);
  // Compaction may alias a little, never gain.
  EXPECT_LE(session.detected_compacted, session.detected_ideal);
  EXPECT_GT(session.coverage_compacted(), 0.90);
}

// Flops dealt so chain 0 is about twice as long as the others: flop i goes
// to chain (i mod (chains + 1)) mod chains.
ScanPlan ragged_plan(const Netlist& nl, std::size_t chains) {
  ScanPlan plan;
  plan.chains.resize(chains);
  for (std::size_t i = 0; i < nl.dffs().size(); ++i) {
    plan.chains[(i % (chains + 1)) % chains].cells.push_back(nl.dffs()[i]);
  }
  return plan;
}

struct LaneGrades {
  std::size_t ideal = 0;
  std::size_t compacted = 0;
};

// Independent oracle for the session's grading: every fault against every
// delivered pattern, lane by lane and unload cycle by unload cycle. Chain c
// feeds compactor output c % outs, and a lane shows through the compactor
// when some output sees an odd number of differing chains in some cycle.
LaneGrades grade_per_lane(const Netlist& nl, const ScanPlan& plan,
                          const std::vector<Fault>& faults,
                          const std::vector<TestCube>& delivered,
                          std::size_t out_channels) {
  const std::size_t outs = std::min(out_channels, plan.num_chains());
  const auto observe = nl.observe_points();
  // Observe point -> (chain, unload cycle); POs keep chain SIZE_MAX.
  std::vector<std::pair<std::size_t, std::size_t>> coord(observe.size(),
                                                         {SIZE_MAX, 0});
  std::size_t max_len = 0;
  for (std::size_t c = 0; c < plan.num_chains(); ++c) {
    const auto& cells = plan.chains[c].cells;
    max_len = std::max(max_len, cells.size());
    for (std::size_t p = 0; p < cells.size(); ++p) {
      const auto it = std::find(observe.begin(), observe.end(), cells[p]);
      coord[it - observe.begin()] = {c, cells.size() - 1 - p};
    }
  }
  FaultSimulator fsim(nl);
  std::vector<bool> ideal(faults.size(), false);
  std::vector<bool> compacted(faults.size(), false);
  std::vector<OpDiff> pairs;
  for (std::size_t base = 0; base < delivered.size(); base += 64) {
    const std::size_t count = std::min<std::size_t>(64, delivered.size() - base);
    fsim.load_batch(pack_patterns(delivered, base, count));
    for (std::size_t fi = 0; fi < faults.size(); ++fi) {
      const std::uint64_t mask = fsim.detect_mask_detailed(faults[fi], pairs);
      const std::vector<std::uint64_t> op_diffs =
          test::dense_diffs(pairs, observe.size());
      if (mask != 0) ideal[fi] = true;
      for (std::size_t lane = 0; lane < count && !compacted[fi]; ++lane) {
        const std::uint64_t bit = 1ull << lane;
        if ((mask & bit) == 0) continue;
        for (std::size_t cycle = 0; cycle < max_len && !compacted[fi];
             ++cycle) {
          std::vector<bool> chain_diffs(plan.num_chains(), false);
          for (std::size_t oi = 0; oi < observe.size(); ++oi) {
            if ((op_diffs[oi] & bit) == 0) continue;
            if (coord[oi].first == SIZE_MAX) {
              compacted[fi] = true;  // a failing PO is seen directly
            } else if (coord[oi].second == cycle) {
              chain_diffs[coord[oi].first] = true;
            }
          }
          for (std::size_t out = 0; out < outs; ++out) {
            bool parity = false;
            for (std::size_t c = out; c < chain_diffs.size(); c += outs) {
              parity ^= chain_diffs[c];
            }
            if (parity) compacted[fi] = true;
          }
        }
      }
    }
  }
  return {static_cast<std::size_t>(std::count(ideal.begin(), ideal.end(), true)),
          static_cast<std::size_t>(
              std::count(compacted.begin(), compacted.end(), true))};
}

TEST(Session, CompactedGradingMatchesPerLaneOracle) {
  const Netlist nl = circuits::make_mac(8, /*registered=*/true);
  ASSERT_FALSE(nl.outputs().empty());
  ASSERT_GT(nl.dffs().size(), 16u);
  const auto faults = collapse_equivalent(nl, generate_stuck_at_faults(nl));
  AtpgOptions atpg_opts;
  atpg_opts.random_patterns = 0;
  // Deterministic cubes only: each fault is caught by few patterns, so
  // single-channel compaction aliases some of them away.
  const auto cubes = generate_tests(nl, faults, atpg_opts).cubes;

  std::size_t aliased_configs = 0;
  for (const std::size_t chains : {1u, 3u, 8u, 16u}) {
    const ScanPlan plan = ragged_plan(nl, chains);
    for (const std::size_t out_channels : {1u, 2u, 4u}) {
      CompressedSessionConfig cfg;
      cfg.out_channels = out_channels;
      const CompressedSessionResult session =
          run_compressed_session(nl, plan, faults, cubes, cfg);
      // Two batches, the last one partial.
      ASSERT_GT(session.delivered.size(), 64u);
      ASSERT_NE(session.delivered.size() % 64, 0u);
      const LaneGrades oracle =
          grade_per_lane(nl, plan, faults, session.delivered, out_channels);
      EXPECT_EQ(session.detected_ideal, oracle.ideal)
          << chains << " chains, " << out_channels << " channels";
      EXPECT_EQ(session.detected_compacted, oracle.compacted)
          << chains << " chains, " << out_channels << " channels";
      if (oracle.compacted < oracle.ideal) ++aliased_configs;
    }
  }
  // Some configurations must alias, or XOR parity is not being exercised.
  EXPECT_GT(aliased_configs, 0u);
}

TEST(Session, DeliveredPatternsAreFullySpecified) {
  const Netlist nl = circuits::make_counter(8);
  const auto faults = generate_stuck_at_faults(nl);
  std::vector<TestCube> cubes(3, TestCube(nl.combinational_inputs().size()));
  cubes[0].bits[2] = Val3::kOne;
  cubes[1].bits[5] = Val3::kZero;
  const ScanPlan plan = plan_scan_chains(nl, 2);
  const auto session = run_compressed_session(nl, plan, faults, cubes,
                                              CompressedSessionConfig{});
  EXPECT_EQ(session.cubes_encoded + session.encode_failures, 3u);
  for (const auto& p : session.delivered) {
    EXPECT_EQ(p.care_count(), p.size());
  }
}

}  // namespace
}  // namespace aidft
