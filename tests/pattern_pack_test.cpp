// Tests of the word-speed pattern packer and the packed pattern sets built
// on it: the byte-mask + 64x64 transpose pack against a per-bit reference,
// the width and X checks it folds in, launch batches derived from capture
// batches against pairwise packing of the cubes, and the SoC's tiled
// broadcast batches against packing broadcast_cube() lifts.
#include <gtest/gtest.h>

#include <string>

#include "aichip/soc.hpp"
#include "aichip/systolic.hpp"
#include "bench_circuits/generators.hpp"
#include "common/rng.hpp"
#include "fault/fault.hpp"
#include "fsim/campaign.hpp"
#include "fsim/fault_sim.hpp"
#include "sim/parallel_sim.hpp"

namespace aidft {
namespace {

// Per-bit reference pack: bit p of word i is cube first + p's input i, X
// as 0 (what pack_patterns promises).
PatternBatch reference_pack(const std::vector<TestCube>& cubes,
                            std::size_t first, std::size_t count) {
  PatternBatch batch;
  batch.npatterns = count;
  batch.words.assign(cubes[first].size(), 0);
  for (std::size_t p = 0; p < count; ++p) {
    for (std::size_t i = 0; i < batch.words.size(); ++i) {
      if (cubes[first + p].bits[i] == Val3::kOne) batch.words[i] |= 1ull << p;
    }
  }
  return batch;
}

// Cubes over 0/1, with an X at about one position in `x_every` (0: none).
std::vector<TestCube> random_cubes(std::size_t width, std::size_t count,
                                   std::uint64_t seed,
                                   std::uint64_t x_every = 0) {
  Rng rng(seed);
  std::vector<TestCube> cubes(count, TestCube(width));
  for (TestCube& c : cubes) {
    for (Val3& v : c.bits) {
      v = rng.next_bool() ? Val3::kOne : Val3::kZero;
      if (x_every != 0 && rng.next_below(x_every) == 0) v = Val3::kX;
    }
  }
  return cubes;
}

void expect_same_batch(const PatternBatch& got, const PatternBatch& want,
                       const std::string& label) {
  EXPECT_EQ(got.npatterns, want.npatterns) << label;
  EXPECT_EQ(got.words, want.words) << label;
}

TEST(PatternPack, MatchesPerBitReference) {
  for (std::size_t width : {1, 15, 16, 17, 63, 64, 65, 130, 240}) {
    for (std::size_t count : {1, 2, 63, 64}) {
      const std::string label =
          "width " + std::to_string(width) + " count " + std::to_string(count);
      // X bytes pack as 0; one cube in front shifts `first` off zero.
      const auto cubes = random_cubes(width, count + 1, width * 131 + count, 7);
      expect_same_batch(pack_patterns(cubes, 1, count),
                        reference_pack(cubes, 1, count), label);
      const std::vector<TestCube> set(cubes.begin() + 1, cubes.end());
      const PackedPatterns packed(set);
      EXPECT_EQ(packed.count, count) << label;
      EXPECT_EQ(packed.width, width) << label;
      ASSERT_EQ(packed.batches.size(), 1u) << label;
      expect_same_batch(packed.batches[0], reference_pack(set, 0, count),
                        label);
    }
  }
}

TEST(PatternPack, MultiBatchSetsPackEachBatch) {
  for (std::size_t count : {65, 128, 130, 200}) {
    const auto cubes = random_cubes(97, count, count);
    const PackedPatterns packed(cubes);
    ASSERT_EQ(packed.batches.size(), (count + 63) / 64);
    EXPECT_FALSE(packed.has_x);
    for (std::size_t b = 0; b < packed.batches.size(); ++b) {
      const std::size_t n = std::min<std::size_t>(64, count - 64 * b);
      expect_same_batch(packed.batches[b], reference_pack(cubes, 64 * b, n),
                        "count " + std::to_string(count) + " batch " +
                            std::to_string(b));
    }
  }
}

// The campaign rejects an X wherever it sits — first, middle or last
// position of the first, a middle or the last cube — with the X message,
// and a cube of another width with the width message; pack_patterns keeps
// its ragged-width error. An empty fault list returns before either check.
TEST(PatternPack, RejectsXAndRaggedWidths) {
  const Netlist nl = circuits::make_alu(4);
  const std::vector<Fault> faults = generate_stuck_at_faults(nl);
  const std::size_t width = nl.num_combinational_inputs();
  const auto throws_with = [&](const std::vector<TestCube>& patterns,
                               const std::string& message) {
    try {
      run_campaign(nl, faults, patterns);
      ADD_FAILURE() << "no throw, expected: " << message;
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find(message), std::string::npos)
          << e.what();
    }
  };
  for (std::size_t count : {1, 64, 130}) {
    for (std::size_t cube : {std::size_t{0}, count / 2, count - 1}) {
      for (std::size_t pos : {std::size_t{0}, width / 2, width - 1}) {
        auto patterns = random_cubes(width, count, count + pos);
        patterns[cube].bits[pos] = Val3::kX;
        EXPECT_TRUE(PackedPatterns(patterns).has_x);
        throws_with(patterns,
                    "run_campaign: campaign patterns must be fully specified");
        EXPECT_NO_THROW(run_campaign(nl, std::span<const Fault>{}, patterns));
      }
    }
  }
  auto ragged = random_cubes(width, 70, 3);
  ragged[65].bits.pop_back();
  EXPECT_EQ(PackedPatterns(ragged).width, PackedPatterns::kRagged);
  throws_with(ragged, "run_campaign: pattern width mismatch");
  throws_with(random_cubes(width + 1, 3, 4),
              "run_campaign: pattern width mismatch");
  EXPECT_NO_THROW(run_campaign(nl, std::span<const Fault>{}, ragged));
  try {
    pack_patterns(ragged, 6, 64);
    ADD_FAILURE() << "ragged pack did not throw";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("pack_patterns: ragged cube widths"),
              std::string::npos)
        << e.what();
  }
}

// Launch batches as pairwise packing built them from cubes: batch b packs
// patterns 64b - 1 ... (batch 0 shifts its own capture lanes up and repeats
// pattern 0 in lane 0). Lanes past npatterns are never graded, so only live
// lanes are compared.
PatternBatch pairwise_launch(const std::vector<TestCube>& cubes,
                             std::size_t b) {
  const std::size_t base = 64 * b;
  const std::size_t count = std::min<std::size_t>(64, cubes.size() - base);
  PatternBatch launch = reference_pack(cubes, base == 0 ? 0 : base - 1, count);
  if (base == 0) {
    const PatternBatch capture = reference_pack(cubes, 0, count);
    for (std::size_t i = 0; i < launch.words.size(); ++i) {
      launch.words[i] = (launch.words[i] << 1) | (capture.words[i] & 1ull);
    }
  }
  return launch;
}

TEST(PatternPack, LaunchBatchesMatchPairwisePacking) {
  for (std::size_t count : {1, 64, 65, 130}) {
    const auto cubes = random_cubes(41, count, 100 + count);
    const PackedPatterns packed(cubes);
    for (std::size_t b = 0; b < packed.batches.size(); ++b) {
      const PatternBatch got = launch_batch(packed, b);
      const PatternBatch want = pairwise_launch(cubes, b);
      ASSERT_EQ(got.npatterns, want.npatterns);
      ASSERT_EQ(got.words.size(), want.words.size());
      for (std::size_t i = 0; i < got.words.size(); ++i) {
        EXPECT_EQ(got.words[i] & want.lane_mask(),
                  want.words[i] & want.lane_mask())
            << "count " << count << " batch " << b << " input " << i;
      }
    }
  }
}

// A transition campaign over derived launch batches detects exactly what
// grading each (pattern i - 1, pattern i) pair alone detects, at 1 and 4
// threads alike.
TEST(PatternPack, TransitionCampaignMatchesPairByPairGrading) {
  const Netlist nl = circuits::make_alu(4);
  const std::vector<Fault> faults = generate_transition_faults(nl);
  Rng rng(11);
  const auto patterns =
      random_patterns(nl.num_combinational_inputs(), 130, rng);
  std::vector<std::size_t> first(faults.size(), patterns.size());
  FaultSimulator fsim(nl);
  for (std::size_t i = 1; i < patterns.size(); ++i) {
    fsim.load_batch(pack_patterns(patterns, i, 1));
    fsim.load_launch_batch(pack_patterns(patterns, i - 1, 1));
    for (std::size_t f = 0; f < faults.size(); ++f) {
      if (first[f] == patterns.size() && fsim.detect_mask(faults[f]) != 0) {
        first[f] = i;
      }
    }
  }
  for (std::size_t threads : {1, 4}) {
    const CampaignResult r =
        run_campaign(nl, faults, patterns, {.num_threads = threads});
    std::size_t detected = 0;
    for (std::size_t f = 0; f < faults.size(); ++f) {
      EXPECT_EQ(r.fault_detected(f), first[f] < patterns.size())
          << "fault " << f << " at " << threads << " threads";
      detected += first[f] < patterns.size();
    }
    EXPECT_EQ(r.detected, detected);
    for (std::size_t i = 0; i < patterns.size(); ++i) {
      std::size_t want = 0;
      for (std::size_t p : first) want += p <= i;
      ASSERT_EQ(r.detected_after[i], want) << "pattern " << i;
    }
  }
}

// broadcast_patterns() tiles a packed core set to the SoC without a SoC
// cube; packing broadcast_cube() of every core pattern is the oracle.
TEST(PatternPack, TiledBatchesEqualPackedBroadcastCubes) {
  const Netlist core = aichip::make_systolic_array({});
  for (std::size_t n : {1, 3, 64}) {
    const aichip::SocNetlist soc = aichip::make_replicated_soc(core, n);
    for (std::size_t count : {1, 64, 70}) {
      Rng rng(n * 1000 + count);
      const auto cubes =
          random_patterns(core.num_combinational_inputs(), count, rng);
      std::vector<TestCube> lifted;
      for (const TestCube& c : cubes) {
        lifted.push_back(aichip::broadcast_cube(soc, c));
      }
      const PackedPatterns want(lifted);
      const PackedPatterns got = aichip::broadcast_patterns(soc, cubes);
      const std::string label =
          std::to_string(n) + " instances, " + std::to_string(count);
      EXPECT_EQ(got.count, want.count) << label;
      EXPECT_EQ(got.width, soc.netlist.num_combinational_inputs()) << label;
      EXPECT_EQ(got.width, want.width) << label;
      EXPECT_FALSE(got.has_x) << label;
      ASSERT_EQ(got.batches.size(), want.batches.size()) << label;
      for (std::size_t b = 0; b < got.batches.size(); ++b) {
        expect_same_batch(got.batches[b], want.batches[b],
                          label + " batch " + std::to_string(b));
      }
    }
  }
  const aichip::SocNetlist soc = aichip::make_replicated_soc(core, 2);
  Rng rng(5);
  EXPECT_THROW(aichip::broadcast_patterns(
                   soc, random_patterns(core.num_combinational_inputs() + 1,
                                        3, rng)),
               Error);
}

}  // namespace
}  // namespace aidft
