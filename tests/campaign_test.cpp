// The Campaign API determinism contract: run_campaign() must be bit-identical
// across thread counts (including the serial path) and must agree with the
// full-resimulation reference oracle — over random circuits and all three
// fault kinds (stuck-at, transition, bridging).
#include "fsim/campaign.hpp"

#include <gtest/gtest.h>

#include <atomic>

#include "bench_circuits/generators.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "fault/fault.hpp"
#include "test_util.hpp"

namespace aidft {
namespace {

constexpr std::size_t kThreadCounts[] = {1, 2, 4, 8};

using test::FirstDetections;
using test::first_detections;

// Every field of the result.
void expect_identical(const CampaignResult& a, const CampaignResult& b,
                      const std::string& label) {
  EXPECT_EQ(a.total_faults, b.total_faults) << label;
  EXPECT_EQ(a.detected, b.detected) << label;
  ASSERT_EQ(a.detected_bits, b.detected_bits) << label;
  ASSERT_EQ(a.detected_after, b.detected_after) << label;
  EXPECT_EQ(a.outcome, b.outcome) << label;
  EXPECT_EQ(a.batches_graded, b.batches_graded) << label;
}

// The result must be what the per-fault first detections imply: a fault's
// bit is set iff it was detected, and the curve counts first detections.
void expect_consistent(const FirstDetections& d, const std::string& label) {
  const CampaignResult& r = d.result;
  ASSERT_EQ(d.first.size(), r.total_faults) << label;
  std::vector<std::size_t> curve(r.detected_after.size(), 0);
  for (std::size_t f = 0; f < d.first.size(); ++f) {
    ASSERT_EQ(r.fault_detected(f), d.first[f] >= 0) << label << " fault " << f;
    if (d.first[f] >= 0) ++curve.at(static_cast<std::size_t>(d.first[f]));
  }
  for (std::size_t p = 1; p < curve.size(); ++p) curve[p] += curve[p - 1];
  EXPECT_EQ(r.detected_after, curve) << label;
}

// The result plus each fault's first detecting pattern.
void expect_identical(const FirstDetections& a, const FirstDetections& b,
                      const std::string& label) {
  expect_identical(a.result, b.result, label);
  expect_consistent(a, label);
  expect_consistent(b, label);
  ASSERT_EQ(a.first.size(), b.first.size()) << label;
  for (std::size_t i = 0; i < a.first.size(); ++i) {
    ASSERT_EQ(a.first[i], b.first[i]) << label << " fault " << i;
  }
}

class CampaignDeterminism : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CampaignDeterminism, StuckAtBitIdenticalAcrossThreadsAndOracle) {
  const std::uint64_t seed = GetParam();
  const Netlist nl = circuits::make_random_logic(10, 250, seed);
  const auto faults = generate_stuck_at_faults(nl);
  Rng rng(seed * 31 + 7);
  const auto patterns =
      random_patterns(nl.combinational_inputs().size(), 192, rng);

  const FirstDetections serial = first_detections(nl, faults, patterns);
  EXPECT_GT(serial.result.detected, 0u);
  const FirstDetections oracle = first_detections(
      nl, faults, patterns, {.engine = CampaignEngine::kReference});
  expect_identical(serial, oracle, "ppsfp vs reference oracle");

  for (std::size_t t : kThreadCounts) {
    const FirstDetections threaded =
        first_detections(nl, faults, patterns, {.num_threads = t});
    expect_identical(serial, threaded, "stuck-at t=" + std::to_string(t));
    const FirstDetections ref_threaded = first_detections(
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
  const FirstDetections serial = first_detections(
      nl, faults, patterns, {.drop_limit = 3, .telemetry = &serial_tel});
  const FirstDetections oracle = first_detections(
      nl, faults, patterns,
      {.engine = CampaignEngine::kReference, .drop_limit = 3});
  expect_identical(serial, oracle, "drop_limit=3 ppsfp vs reference");
  const FirstDetections full =
      first_detections(nl, faults, patterns, {.drop_limit = 0});
  expect_identical(serial, full, "drop_limit=3 vs no dropping");
  const std::uint64_t serial_dropped =
      serial_tel.metrics.snapshot().counter_value("campaign.faults_dropped");
  EXPECT_GT(serial_dropped, 0u);
  EXPECT_LE(serial_dropped, serial.result.detected);

  for (std::size_t t : kThreadCounts) {
    obs::Telemetry tel;
    const FirstDetections threaded = first_detections(
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

  const FirstDetections serial = first_detections(nl, faults, patterns);
  for (std::size_t t : kThreadCounts) {
    const FirstDetections threaded =
        first_detections(nl, faults, patterns, {.num_threads = t});
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
  const FirstDetections serial = first_detections(nl, mixed, patterns);
  for (std::size_t t : {2, 4, 8}) {
    const FirstDetections threaded =
        first_detections(nl, mixed, patterns, {.num_threads = t});
    expect_identical(serial, threaded, "mixed t=" + std::to_string(t));
  }
}

TEST(Campaign, ZeroThreadsMeansHardwareConcurrency) {
  const Netlist nl = circuits::make_alu(4);
  const auto faults = generate_stuck_at_faults(nl);
  Rng rng(9);
  const auto patterns =
      random_patterns(nl.combinational_inputs().size(), 64, rng);
  const FirstDetections serial = first_detections(nl, faults, patterns);
  const FirstDetections automatic =
      first_detections(nl, faults, patterns, {.num_threads = 0});
  expect_identical(serial, automatic, "num_threads=0");
}

TEST(Campaign, MoreThreadsThanFaults) {
  const Netlist nl = circuits::make_c17();
  const auto faults = generate_stuck_at_faults(nl);
  Rng rng(2);
  const auto patterns =
      random_patterns(nl.combinational_inputs().size(), 32, rng);
  const FirstDetections serial = first_detections(nl, faults, patterns);
  const FirstDetections threaded =
      first_detections(nl, faults, patterns, {.num_threads = 64});
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
  const FirstDetections dropping = first_detections(nl, faults, patterns);
  for (std::size_t t : {1, 4}) {
    const FirstDetections full = first_detections(
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

// ---- fault sites outside the netlist ------------------------------------

// Faults of another netlist, each appended to a valid list: a gate past the
// end, and a branch pin past an INPUT gate's (empty) fanin list.
std::vector<std::vector<Fault>> foreign_fault_lists(const Netlist& nl,
                                                    FaultKind kind) {
  const Fault valid{nl.inputs()[0], kStemPin, 0, kind};
  return {{valid, Fault{static_cast<GateId>(nl.num_gates() + 1000), kStemPin,
                        0, kind}},
          {valid, Fault{nl.inputs()[0], 7, 1, kind}}};
}

// `grade` must throw aidft::Error naming run_campaign and the bad fault.
template <typename Grade>
void expect_rejects_fault_1(Grade&& grade) {
  try {
    grade();
    ADD_FAILURE() << "out-of-range fault accepted";
  } catch (const Error& e) {
    EXPECT_EQ(std::string(e.what()).rfind("run_campaign: fault 1 ", 0), 0u)
        << e.what();
  }
}

struct RangeCase {
  Netlist nl = circuits::make_random_logic(8, 50, 1);
  std::vector<TestCube> patterns = [this] {
    Rng rng(3);
    return random_patterns(nl.combinational_inputs().size(), 32, rng);
  }();
};

TEST(CampaignFaultRange, PlainRejectsForeignSites) {
  const RangeCase c;
  for (const auto& faults : foreign_fault_lists(c.nl, FaultKind::kStuckAt)) {
    for (std::size_t t : {1, 4}) {
      expect_rejects_fault_1([&] {
        run_campaign(c.nl, faults, c.patterns, {.num_threads = t});
      });
    }
  }
}

TEST(CampaignFaultRange, DetectHookRejectsForeignSites) {
  const RangeCase c;
  for (const auto& faults : foreign_fault_lists(c.nl, FaultKind::kStuckAt)) {
    expect_rejects_fault_1([&] {
      run_campaign(c.nl, faults, c.patterns, {},
                   [](std::size_t, std::size_t, std::uint64_t) {
                     return false;
                   });
    });
  }
}

TEST(CampaignFaultRange, DetailedDetectHookRejectsForeignSites) {
  const RangeCase c;
  for (const auto& faults : foreign_fault_lists(c.nl, FaultKind::kStuckAt)) {
    expect_rejects_fault_1([&] {
      run_campaign(c.nl, faults, c.patterns, {},
                   [](std::size_t, std::size_t, std::uint64_t,
                      std::span<const OpDiff>) { return false; });
    });
  }
}

TEST(CampaignFaultRange, TransitionRejectsForeignSites) {
  const RangeCase c;
  for (const auto& faults :
       foreign_fault_lists(c.nl, FaultKind::kTransition)) {
    expect_rejects_fault_1(
        [&] { run_campaign(c.nl, faults, c.patterns, {.num_threads = 4}); });
  }
}

// ---- detection hooks ---------------------------------------------------

// One hook call: (batch, mask, op_diffs); op_diffs stays empty for the
// mask-only hook.
struct HookCall {
  std::size_t batch = 0;
  std::uint64_t mask = 0;
  std::vector<std::uint64_t> diffs;
  friend bool operator==(const HookCall&, const HookCall&) = default;
};

// The calls the serial-loop oracle predicts for each fault: one per batch
// with a nonzero mask, in batch order.
std::vector<std::vector<HookCall>> oracle_calls(
    const Netlist& nl, const std::vector<TestCube>& patterns,
    const std::vector<Fault>& faults, bool with_diffs) {
  const std::size_t nops = nl.observe_points().size();
  const auto predicted = test::predict_all(nl, patterns, faults);
  std::vector<std::vector<HookCall>> calls(faults.size());
  for (std::size_t f = 0; f < faults.size(); ++f) {
    for (std::size_t b = 0; b * 64 < patterns.size(); ++b) {
      HookCall call{b, 0, {}};
      const auto first = predicted[f].begin() +
                         static_cast<std::ptrdiff_t>(b * nops);
      for (std::size_t op = 0; op < nops; ++op) call.mask |= first[op];
      if (call.mask == 0) continue;
      if (with_diffs) {
        call.diffs.assign(first, first + static_cast<std::ptrdiff_t>(nops));
      }
      calls[f].push_back(std::move(call));
    }
  }
  return calls;
}

TEST(CampaignHook, BothKindsSeeExactlyTheOracleCalls) {
  for (const auto& nc : circuits::standard_suite()) {
    const Netlist& nl = nc.netlist;
    const auto faults = generate_stuck_at_faults(nl);
    Rng rng(41);
    // Three batches, the last one partial.
    const auto patterns =
        random_patterns(nl.combinational_inputs().size(), 150, rng);
    const std::size_t nops = nl.observe_points().size();
    const auto want_masks = oracle_calls(nl, patterns, faults, false);
    const auto want_diffs = oracle_calls(nl, patterns, faults, true);
    const CampaignResult plain =
        run_campaign(nl, faults, patterns, {.drop_limit = 0});

    for (std::size_t t : kThreadCounts) {
      const std::string label =
          std::string(nc.name) + " t=" + std::to_string(t);
      // Each fault's list is written by the one worker that owns it.
      std::vector<std::vector<HookCall>> masks(faults.size());
      const CampaignResult with_masks = run_campaign(
          nl, faults, patterns, {.num_threads = t, .drop_limit = 0},
          [&](std::size_t f, std::size_t b, std::uint64_t mask) {
            masks[f].push_back({b, mask, {}});
            return false;
          });
      EXPECT_EQ(masks, want_masks) << label;
      expect_identical(plain, with_masks, label + " mask hook");

      std::vector<std::vector<HookCall>> diffs(faults.size());
      const CampaignResult with_diffs = run_campaign(
          nl, faults, patterns, {.num_threads = t, .drop_limit = 0},
          [&](std::size_t f, std::size_t b, std::uint64_t mask,
              std::span<const OpDiff> op_diffs) {
            diffs[f].push_back(
                {b, mask, test::dense_diffs(op_diffs, nops)});
            return false;
          });
      EXPECT_EQ(diffs, want_diffs) << label;
      expect_identical(plain, with_diffs, label + " detailed hook");
    }
  }
}

TEST(CampaignHook, ReturningTrueEndsTheFaultsCalls) {
  // Even faults are dropped on their first call, odd ones on their second:
  // neither gets a call after the one that returned true.
  const Netlist nl = circuits::make_alu(8);
  const auto faults = generate_stuck_at_faults(nl);
  Rng rng(8);
  const auto patterns =
      random_patterns(nl.combinational_inputs().size(), 600, rng);
  const auto want = oracle_calls(nl, patterns, faults, false);
  for (std::size_t t : {std::size_t{1}, std::size_t{4}}) {
    std::vector<std::size_t> calls(faults.size(), 0);
    run_campaign(nl, faults, patterns, {.num_threads = t, .drop_limit = 0},
                 [&](std::size_t f, std::size_t, std::uint64_t) {
                   return ++calls[f] == 1 + f % 2;
                 });
    std::size_t dropped_late = 0;
    for (std::size_t f = 0; f < faults.size(); ++f) {
      EXPECT_EQ(calls[f], std::min(want[f].size(), 1 + f % 2))
          << "fault " << f << " t=" << t;
      dropped_late += f % 2 == 1 && want[f].size() > 2;
    }
    EXPECT_GT(dropped_late, 0u) << "some odd fault outlives its second call";
  }
}

// Liveness is the drop bitmap, and shards share its boundary words: 130
// faults at 4 workers split at 32, 65 and 97, inside words 0 and 1 (3
// workers: 43 and 86). Every shard must visit exactly its own live faults,
// so a hook that drops faults on their (1 + f % 3)-th call sees the same
// calls, and the campaign the same result, as the serial run. The detected
// bitmap shares the same boundary words: no shard's bit may be lost.
TEST(CampaignHook, ShardBoundariesInsideADropWordMatchSerial) {
  const Netlist nl = circuits::make_alu(8);
  auto faults = generate_stuck_at_faults(nl);
  ASSERT_GE(faults.size(), 130u);
  faults.resize(130);
  Rng rng(21);
  const auto patterns =
      random_patterns(nl.combinational_inputs().size(), 600, rng);
  using Call = std::pair<std::size_t, std::uint64_t>;  // (batch, mask)
  for (std::size_t drop : {0, 2}) {
    auto run = [&](std::size_t t) {
      std::vector<std::vector<Call>> calls(faults.size());
      const CampaignResult r = run_campaign(
          nl, faults, patterns, {.num_threads = t, .drop_limit = drop},
          [&](std::size_t f, std::size_t b, std::uint64_t mask) {
            calls[f].push_back({b, mask});
            return calls[f].size() == 1 + f % 3;
          });
      return std::pair{r, calls};
    };
    const auto [serial, serial_calls] = run(1);
    for (std::size_t t : {3, 4}) {
      const std::string label =
          "drop=" + std::to_string(drop) + " t=" + std::to_string(t);
      const auto [sharded, sharded_calls] = run(t);
      expect_identical(serial, sharded, label);
      EXPECT_EQ(sharded.detected_bits, serial.detected_bits) << label;
      for (std::size_t f = 0; f < faults.size(); ++f) {
        EXPECT_EQ(sharded_calls[f], serial_calls[f]) << label << " fault " << f;
        EXPECT_EQ(sharded.fault_detected(f), !sharded_calls[f].empty())
            << label << " fault " << f;
      }
    }
  }
}

TEST(CampaignHook, RejectsCheckpointResumeAndUnsupportedGrading) {
  const Netlist nl = circuits::make_c17();
  const auto faults = generate_stuck_at_faults(nl);
  Rng rng(4);
  const auto patterns =
      random_patterns(nl.combinational_inputs().size(), 32, rng);
  const auto mask_hook = [](std::size_t, std::size_t, std::uint64_t) {
    return false;
  };
  const auto diff_hook = [](std::size_t, std::size_t, std::uint64_t,
                            std::span<const OpDiff>) { return false; };
  for (const CampaignOptions& opts :
       {CampaignOptions{.checkpoint_path = "hook.ckpt"},
        CampaignOptions{.resume_from = "hook.ckpt"}}) {
    EXPECT_THROW(run_campaign(nl, faults, patterns, opts, mask_hook), Error);
    EXPECT_THROW(run_campaign(nl, faults, patterns, opts, diff_hook), Error);
  }
  EXPECT_THROW(run_campaign(nl, faults, patterns,
                            {.engine = CampaignEngine::kReference}, diff_hook),
               Error);
  EXPECT_THROW(run_campaign(nl, generate_transition_faults(nl), patterns, {},
                            diff_hook),
               Error);
  EXPECT_NO_THROW(run_campaign(nl, faults, patterns,
                               {.engine = CampaignEngine::kReference},
                               mask_hook));
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
