#include "diag/dictionary.hpp"

#include <gtest/gtest.h>

#include "bench_circuits/generators.hpp"
#include "common/rng.hpp"

namespace aidft {
namespace {

TEST(Dictionary, ExactMatchForEveryInjectedDefect) {
  const Netlist nl = circuits::make_alu(4);
  const auto faults = generate_stuck_at_faults(nl);
  Rng rng(3);
  const auto patterns = random_patterns(nl.combinational_inputs().size(), 128, rng);
  const FaultDictionary dict(nl, faults, patterns);
  EXPECT_EQ(dict.num_faults(), faults.size());
  EXPECT_EQ(dict.num_patterns(), patterns.size());

  for (std::size_t d = 0; d < faults.size(); d += 11) {
    const FailLog log = simulate_defect(nl, patterns, faults[d]);
    if (!log.any_failure()) continue;
    const auto sig = FaultDictionary::signature_of(log);
    const auto matches = dict.match(sig, 5);
    ASSERT_FALSE(matches.empty());
    EXPECT_EQ(matches[0].hamming, 0u) << fault_name(nl, faults[d]);
    // The injected fault itself has distance 0 (it may tie with
    // equivalents, but nothing can be closer).
    bool found_self_at_zero = false;
    for (const auto& m : matches) {
      if (m.hamming == 0 && faults[m.fault_index] == faults[d]) {
        found_self_at_zero = true;
      }
    }
    // Equivalence-class ties may push the exact fault out of top-5 only if
    // the class is larger than 5 — check distance-0 membership instead.
    std::size_t zero_count = 0;
    for (const auto& m : matches) zero_count += (m.hamming == 0);
    EXPECT_TRUE(found_self_at_zero || zero_count == matches.size())
        << fault_name(nl, faults[d]);
  }
}

TEST(Dictionary, AgreesWithEffectCauseOnTopCandidate) {
  const Netlist nl = circuits::make_array_multiplier(4);
  const auto faults = generate_stuck_at_faults(nl);
  Rng rng(9);
  const auto patterns = random_patterns(nl.combinational_inputs().size(), 96, rng);
  const FaultDictionary dict(nl, faults, patterns);
  for (std::size_t d = 7; d < faults.size(); d += 37) {
    const FailLog log = simulate_defect(nl, patterns, faults[d]);
    if (!log.any_failure()) continue;
    const auto sig = FaultDictionary::signature_of(log);
    const auto dict_top = dict.match(sig, 1);
    const DiagnosisResult ec = diagnose(nl, patterns, log, faults);
    ASSERT_FALSE(dict_top.empty());
    ASSERT_FALSE(ec.ranked.empty());
    // Both architectures must score their top pick as a perfect explainer
    // at their own granularity (note the deliberate asymmetry: pass/fail
    // dictionaries are PATTERN-granular, effect-cause is per observe
    // point, so a dictionary exact match need not be an effect-cause
    // perfect match — the classic dictionary-coarseness caveat).
    EXPECT_EQ(dict_top[0].hamming, 0u);
    EXPECT_TRUE(ec.ranked[0].perfect());
    // The dictionary's distance-0 pick must genuinely fail the same
    // patterns as the die...
    const Fault& pick = faults[dict_top[0].fault_index];
    const FailLog pick_log = simulate_defect(nl, patterns, pick);
    EXPECT_EQ(FaultDictionary::signature_of(pick_log), sig)
        << fault_name(nl, pick);
    // ...and the effect-cause winner (exact at the finer granularity) must
    // also be a distance-0 dictionary candidate.
    const FailLog ec_log = simulate_defect(nl, patterns, ec.ranked[0].fault);
    EXPECT_EQ(FaultDictionary::signature_of(ec_log), sig)
        << fault_name(nl, ec.ranked[0].fault);
  }
}

TEST(Dictionary, StorageScalesWithFaultsTimesPatterns) {
  const Netlist nl = circuits::make_ripple_adder(4);
  const auto faults = generate_stuck_at_faults(nl);
  Rng rng(1);
  const auto p64 = random_patterns(nl.combinational_inputs().size(), 64, rng);
  const auto p128 = random_patterns(nl.combinational_inputs().size(), 128, rng);
  const FaultDictionary d64(nl, faults, p64);
  const FaultDictionary d128(nl, faults, p128);
  EXPECT_EQ(d64.storage_bits(), faults.size() * 64);
  EXPECT_EQ(d128.storage_bits(), faults.size() * 128);
}

TEST(Dictionary, RejectsAnUnspecifiedPatternBit) {
  // An X in a pattern is rejected, never graded as if it were a 0.
  const Netlist nl = circuits::make_alu(4);
  const auto faults = generate_stuck_at_faults(nl);
  Rng rng(3);
  auto patterns = random_patterns(nl.combinational_inputs().size(), 100, rng);
  patterns[70].bits[2] = Val3::kX;
  EXPECT_THROW(FaultDictionary(nl, faults, patterns), Error);
}

TEST(Dictionary, RejectsWrongSignatureWidth) {
  const Netlist nl = circuits::make_c17();
  const auto faults = generate_stuck_at_faults(nl);
  Rng rng(2);
  const auto patterns = random_patterns(5, 64, rng);
  const FaultDictionary dict(nl, faults, patterns);
  EXPECT_THROW(dict.match({0, 0, 0}), Error);
}

}  // namespace
}  // namespace aidft
