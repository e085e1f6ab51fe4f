// The Campaign API determinism contract: run_campaign() must be bit-identical
// across thread counts (including the serial path) and must agree with the
// full-resimulation reference oracle — over random circuits and all three
// fault kinds (stuck-at, transition, bridging).
#include "fsim/campaign.hpp"

#include <gtest/gtest.h>

#include <atomic>

#include "bench_circuits/generators.hpp"
#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "fault/fault.hpp"

namespace aidft {
namespace {

constexpr std::size_t kThreadCounts[] = {1, 2, 4, 8};

void expect_identical(const CampaignResult& a, const CampaignResult& b,
                      const std::string& label) {
  EXPECT_EQ(a.total_faults, b.total_faults) << label;
  EXPECT_EQ(a.detected, b.detected) << label;
  ASSERT_EQ(a.first_detected_by.size(), b.first_detected_by.size()) << label;
  for (std::size_t i = 0; i < a.first_detected_by.size(); ++i) {
    ASSERT_EQ(a.first_detected_by[i], b.first_detected_by[i])
        << label << " fault " << i;
  }
  ASSERT_EQ(a.detected_after, b.detected_after) << label;
}

class CampaignDeterminism : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CampaignDeterminism, StuckAtBitIdenticalAcrossThreadsAndOracle) {
  const std::uint64_t seed = GetParam();
  const Netlist nl = circuits::make_random_logic(10, 250, seed);
  const auto faults = generate_stuck_at_faults(nl);
  Rng rng(seed * 31 + 7);
  const auto patterns =
      random_patterns(nl.combinational_inputs().size(), 192, rng);

  const CampaignResult serial = run_campaign(nl, faults, patterns);
  EXPECT_GT(serial.detected, 0u);
  const CampaignResult oracle = run_campaign(
      nl, faults, patterns, {.engine = CampaignEngine::kReference});
  expect_identical(serial, oracle, "ppsfp vs reference oracle");

  for (std::size_t t : kThreadCounts) {
    const CampaignResult threaded =
        run_campaign(nl, faults, patterns, {.num_threads = t});
    expect_identical(serial, threaded, "stuck-at t=" + std::to_string(t));
    const CampaignResult ref_threaded = run_campaign(
        nl, faults, patterns,
        {.engine = CampaignEngine::kReference, .num_threads = t});
    expect_identical(serial, ref_threaded,
                     "reference t=" + std::to_string(t));
  }
}

TEST_P(CampaignDeterminism, DropLimitThreeBitIdenticalAcrossThreads) {
  // With drop_limit = 3 a fault stays alive across batches until its third
  // detecting lane, so drops land in every batch of every shard and each
  // shard settles its drop count once per batch.
  const std::uint64_t seed = GetParam();
  const Netlist nl = circuits::make_random_logic(10, 250, seed);
  const auto faults = generate_stuck_at_faults(nl);
  Rng rng(seed * 19 + 5);
  const auto patterns =
      random_patterns(nl.combinational_inputs().size(), 256, rng);

  obs::Telemetry serial_tel;
  const CampaignResult serial = run_campaign(
      nl, faults, patterns, {.drop_limit = 3, .telemetry = &serial_tel});
  const CampaignResult oracle = run_campaign(
      nl, faults, patterns,
      {.engine = CampaignEngine::kReference, .drop_limit = 3});
  expect_identical(serial, oracle, "drop_limit=3 ppsfp vs reference");
  const CampaignResult full =
      run_campaign(nl, faults, patterns, {.drop_limit = 0});
  expect_identical(serial, full, "drop_limit=3 vs no dropping");
  const std::uint64_t serial_dropped =
      serial_tel.metrics.snapshot().counter_value("campaign.faults_dropped");
  EXPECT_GT(serial_dropped, 0u);
  EXPECT_LE(serial_dropped, serial.detected);

  for (std::size_t t : kThreadCounts) {
    obs::Telemetry tel;
    const CampaignResult threaded = run_campaign(
        nl, faults, patterns,
        {.num_threads = t, .drop_limit = 3, .telemetry = &tel});
    expect_identical(serial, threaded, "drop_limit=3 t=" + std::to_string(t));
    EXPECT_EQ(tel.metrics.snapshot().counter_value("campaign.faults_dropped"),
              serial_dropped)
        << "t=" << t;
  }
}

TEST_P(CampaignDeterminism, TransitionBitIdenticalAcrossThreads) {
  const std::uint64_t seed = GetParam();
  const Netlist nl = circuits::make_random_logic(10, 250, seed);
  const auto faults = generate_transition_faults(nl);
  Rng rng(seed * 13 + 3);
  const auto patterns =
      random_patterns(nl.combinational_inputs().size(), 192, rng);

  const CampaignResult serial = run_campaign(nl, faults, patterns);
  for (std::size_t t : kThreadCounts) {
    const CampaignResult threaded =
        run_campaign(nl, faults, patterns, {.num_threads = t});
    expect_identical(serial, threaded, "transition t=" + std::to_string(t));
  }
}

TEST_P(CampaignDeterminism, BridgingBitIdenticalAcrossThreads) {
  const std::uint64_t seed = GetParam();
  const Netlist nl = circuits::make_random_logic(10, 250, seed);
  const auto faults = sample_bridging_faults(nl, 64, seed + 1);
  Rng rng(seed * 7 + 11);
  const auto patterns =
      random_patterns(nl.combinational_inputs().size(), 192, rng);

  const CampaignResult serial = run_campaign(nl, faults, patterns);
  for (std::size_t t : kThreadCounts) {
    const CampaignResult threaded =
        run_campaign(nl, faults, patterns, {.num_threads = t});
    expect_identical(serial, threaded, "bridging t=" + std::to_string(t));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CampaignDeterminism,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

TEST(Campaign, MixedStuckAtAndTransitionFaultList) {
  const Netlist nl = circuits::make_ripple_adder(4);
  std::vector<Fault> mixed = generate_stuck_at_faults(nl);
  const auto transition = generate_transition_faults(nl);
  mixed.insert(mixed.end(), transition.begin(), transition.end());
  Rng rng(5);
  const auto patterns =
      random_patterns(nl.combinational_inputs().size(), 256, rng);
  const CampaignResult serial = run_campaign(nl, mixed, patterns);
  for (std::size_t t : {2, 4, 8}) {
    const CampaignResult threaded =
        run_campaign(nl, mixed, patterns, {.num_threads = t});
    expect_identical(serial, threaded, "mixed t=" + std::to_string(t));
  }
}

TEST(Campaign, ZeroThreadsMeansHardwareConcurrency) {
  const Netlist nl = circuits::make_alu(4);
  const auto faults = generate_stuck_at_faults(nl);
  Rng rng(9);
  const auto patterns =
      random_patterns(nl.combinational_inputs().size(), 64, rng);
  const CampaignResult serial = run_campaign(nl, faults, patterns);
  const CampaignResult automatic =
      run_campaign(nl, faults, patterns, {.num_threads = 0});
  expect_identical(serial, automatic, "num_threads=0");
}

TEST(Campaign, MoreThreadsThanFaults) {
  const Netlist nl = circuits::make_c17();
  const auto faults = generate_stuck_at_faults(nl);
  Rng rng(2);
  const auto patterns =
      random_patterns(nl.combinational_inputs().size(), 32, rng);
  const CampaignResult serial = run_campaign(nl, faults, patterns);
  const CampaignResult threaded =
      run_campaign(nl, faults, patterns, {.num_threads = 64});
  expect_identical(serial, threaded, "threads > faults");
}

TEST(Campaign, DropLimitZeroNeverDropsButMatchesFirstDetections) {
  // Without dropping every fault is graded against every batch; the first
  // detection (and thus the whole CampaignResult) must not change.
  const Netlist nl = circuits::make_array_multiplier(4);
  const auto faults = generate_stuck_at_faults(nl);
  Rng rng(3);
  const auto patterns =
      random_patterns(nl.combinational_inputs().size(), 192, rng);
  const CampaignResult dropping = run_campaign(nl, faults, patterns);
  for (std::size_t t : {1, 4}) {
    const CampaignResult full = run_campaign(
        nl, faults, patterns, {.num_threads = t, .drop_limit = 0});
    expect_identical(dropping, full, "drop_limit=0 t=" + std::to_string(t));
  }
}

TEST(Campaign, EmptyInputsAreHandled) {
  const Netlist nl = circuits::make_c17();
  const auto faults = generate_stuck_at_faults(nl);
  const CampaignResult r0 = run_campaign(nl, faults, {}, {.num_threads = 4});
  EXPECT_EQ(r0.detected, 0u);
  Rng rng(1);
  const CampaignResult r1 =
      run_campaign(nl, std::span<const Fault>{}, random_patterns(5, 8, rng),
                   {.num_threads = 4});
  EXPECT_EQ(r1.total_faults, 0u);
  EXPECT_EQ(r1.coverage(), 1.0);
}

// ---- the worker pool underneath ---------------------------------------

TEST(ThreadPool, ParallelForCoversRangeExactlyOnce) {
  for (std::size_t threads : {1, 2, 4, 8}) {
    constexpr std::size_t kCount = 1000;
    std::vector<std::atomic<int>> touched(kCount);
    parallel_for(threads, kCount,
                 [&](std::size_t /*chunk*/, std::size_t begin, std::size_t end) {
                   for (std::size_t i = begin; i < end; ++i) {
                     touched[i].fetch_add(1, std::memory_order_relaxed);
                   }
                 });
    for (std::size_t i = 0; i < kCount; ++i) {
      ASSERT_EQ(touched[i].load(), 1) << "index " << i << " t=" << threads;
    }
  }
}

TEST(ThreadPool, ParallelForPropagatesExceptions) {
  EXPECT_THROW(
      parallel_for(4, 100,
                   [](std::size_t chunk, std::size_t, std::size_t) {
                     if (chunk == 1) throw Error("boom");
                   }),
      Error);
}

TEST(ThreadPool, PoolIsReusableAcrossParallelFors) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.size(), 4u);
  std::atomic<std::size_t> total{0};
  for (int round = 0; round < 3; ++round) {
    pool.parallel_for(100, [&](std::size_t, std::size_t begin, std::size_t end) {
      total.fetch_add(end - begin, std::memory_order_relaxed);
    });
  }
  EXPECT_EQ(total.load(), 300u);
}

}  // namespace
}  // namespace aidft
