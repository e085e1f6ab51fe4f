// Run control: deadlines, cooperative cancellation, checkpoint/resume, and
// graceful degradation — the contract is that a stopped run is (a) a valid
// partial result, (b) deterministic across thread counts when stopped at a
// serial orchestration boundary, and (c) resumable with a final result
// bit-identical to an uninterrupted run.
#include "common/run_control.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench_circuits/generators.hpp"
#include "common/rng.hpp"
#include "core/dft_flow.hpp"
#include "fault/fault.hpp"
#include "fsim/campaign.hpp"
#include "fsim/checkpoint.hpp"

namespace aidft {
namespace {

constexpr std::size_t kThreadCounts[] = {1, 2, 4, 8};

std::string tmp_path(const std::string& name) {
  return ::testing::TempDir() + name;
}

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

// ---------------------------------------------------------------------------
// RunControl unit behavior.

TEST(RunControl, NoDeadlineNeverStopsAndCountsChecks) {
  RunControl rc;
  EXPECT_EQ(rc.poll(), StopReason::kNone);
  EXPECT_EQ(rc.check(), StopReason::kNone);
  EXPECT_EQ(rc.checks(), 2u);
  EXPECT_EQ(rc.cancellations(), 0u);
  EXPECT_EQ(rc.remaining_seconds(),
            std::numeric_limits<double>::infinity());
}

TEST(RunControl, ExpiredTimeBudgetReportsTimedOut) {
  RunControl rc;
  rc.set_time_budget(0.0);
  EXPECT_EQ(rc.poll(), StopReason::kTimedOut);
  EXPECT_LE(rc.remaining_seconds(), 0.0);
}

TEST(RunControl, CancelIsStickyAndWinsOverDeadline) {
  RunControl rc;
  rc.set_time_budget(0.0);
  rc.request_cancel();
  EXPECT_TRUE(rc.cancel_requested());
  // Cancellation is reported even when the deadline has also expired.
  EXPECT_EQ(rc.poll(), StopReason::kCancelled);
  EXPECT_EQ(rc.poll(), StopReason::kCancelled);
  EXPECT_EQ(rc.cancellations(), 1u);
}

TEST(RunControl, CancelRequestIsSafeFromAnotherThread) {
  RunControl rc;
  std::thread t([&rc] { rc.request_cancel(); });
  t.join();
  EXPECT_EQ(rc.poll(), StopReason::kCancelled);
}

TEST(RunControl, CancelAfterChecksFiresOnExactCheck) {
  RunControl rc;
  rc.cancel_after_checks(3);
  EXPECT_EQ(rc.check(), StopReason::kNone);
  // poll() must not drive the countdown — only check() does.
  for (int i = 0; i < 10; ++i) EXPECT_EQ(rc.poll(), StopReason::kNone);
  EXPECT_EQ(rc.check(), StopReason::kNone);
  EXPECT_EQ(rc.check(), StopReason::kCancelled);
  EXPECT_EQ(rc.check(), StopReason::kCancelled);
}

TEST(RunControl, StageBudgetScopesToTheStage) {
  RunControl rc;
  rc.set_stage_budget("atpg", 0.0);
  EXPECT_EQ(rc.poll(), StopReason::kNone);
  rc.begin_stage("atpg");
  EXPECT_EQ(rc.poll(), StopReason::kTimedOut);
  rc.end_stage();
  // A stage-budget expiry must not bleed into downstream stages.
  EXPECT_EQ(rc.poll(), StopReason::kNone);
  rc.begin_stage("lbist");  // no budget configured: global deadline applies
  EXPECT_EQ(rc.poll(), StopReason::kNone);
  rc.end_stage();
}

TEST(RunControl, OutcomeMappingAndNames) {
  EXPECT_EQ(outcome_from(StopReason::kCancelled), StageOutcome::kCancelled);
  EXPECT_EQ(outcome_from(StopReason::kTimedOut), StageOutcome::kTimedOut);
  EXPECT_EQ(outcome_from(StopReason::kNone), StageOutcome::kCompleted);
  EXPECT_STREQ(to_string(StageOutcome::kCompleted), "completed");
  EXPECT_STREQ(to_string(StageOutcome::kTimedOut), "timed_out");
  EXPECT_STREQ(to_string(StageOutcome::kCancelled), "cancelled");
  EXPECT_STREQ(to_string(StageOutcome::kFailed), "failed");
  EXPECT_STREQ(to_string(StageOutcome::kSkipped), "skipped");
  EXPECT_STREQ(to_string(StopReason::kTimedOut), "timed_out");
}

// ---------------------------------------------------------------------------
// Checkpoint file round-trip and rejection of damaged files.

CampaignCheckpoint make_checkpoint() {
  CampaignCheckpoint ckpt;
  ckpt.drop_limit = 4;
  ckpt.total_faults = 130;
  ckpt.total_patterns = 192;
  ckpt.batches_done = 2;
  ckpt.first_detected_by.assign(130, -1);
  ckpt.first_detected_by[7] = 66;
  ckpt.first_detected_by[129] = 0;
  ckpt.hits.assign(130, 0);
  ckpt.hits[7] = 3;
  ckpt.dropped.assign((130 + 63) / 64, 0);
  ckpt.dropped[0] = 1ull << 7;
  return ckpt;
}

TEST(CampaignCheckpoint, RoundTripsThroughDisk) {
  const std::string path = tmp_path("runctl_roundtrip.ckpt");
  const CampaignCheckpoint ckpt = make_checkpoint();
  save_campaign_checkpoint(ckpt, path);
  const CampaignCheckpoint back = load_campaign_checkpoint(path);
  EXPECT_EQ(back.drop_limit, ckpt.drop_limit);
  EXPECT_EQ(back.total_faults, ckpt.total_faults);
  EXPECT_EQ(back.total_patterns, ckpt.total_patterns);
  EXPECT_EQ(back.batches_done, ckpt.batches_done);
  EXPECT_EQ(back.first_detected_by, ckpt.first_detected_by);
  EXPECT_EQ(back.hits, ckpt.hits);
  EXPECT_EQ(back.dropped, ckpt.dropped);
  EXPECT_TRUE(back.fault_dropped(7));
  EXPECT_FALSE(back.fault_dropped(8));
}

TEST(CampaignCheckpoint, RejectsCorruptedPayload) {
  const std::string path = tmp_path("runctl_corrupt.ckpt");
  save_campaign_checkpoint(make_checkpoint(), path);
  // Flip one payload byte; the checksum must catch it.
  std::FILE* f = std::fopen(path.c_str(), "r+b");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fseek(f, 64, SEEK_SET), 0);
  const int c = std::fgetc(f);
  ASSERT_NE(c, EOF);
  ASSERT_EQ(std::fseek(f, 64, SEEK_SET), 0);
  std::fputc(c ^ 0x40, f);
  std::fclose(f);
  EXPECT_THROW(load_campaign_checkpoint(path), Error);
}

TEST(CampaignCheckpoint, RejectsVersionMismatch) {
  const std::string path = tmp_path("runctl_version.ckpt");
  save_campaign_checkpoint(make_checkpoint(), path);
  // The u32 version sits right after the 8-byte magic.
  std::FILE* f = std::fopen(path.c_str(), "r+b");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fseek(f, 8, SEEK_SET), 0);
  std::fputc(0x7F, f);
  std::fclose(f);
  EXPECT_THROW(load_campaign_checkpoint(path), Error);
}

TEST(CampaignCheckpoint, RejectsTruncatedFile) {
  const std::string src = tmp_path("runctl_full.ckpt");
  const std::string path = tmp_path("runctl_truncated.ckpt");
  save_campaign_checkpoint(make_checkpoint(), src);
  std::FILE* in = std::fopen(src.c_str(), "rb");
  std::FILE* out = std::fopen(path.c_str(), "wb");
  ASSERT_NE(in, nullptr);
  ASSERT_NE(out, nullptr);
  char buf[40];
  ASSERT_EQ(std::fread(buf, 1, sizeof(buf), in), sizeof(buf));
  ASSERT_EQ(std::fwrite(buf, 1, sizeof(buf), out), sizeof(buf));
  std::fclose(in);
  std::fclose(out);
  EXPECT_THROW(load_campaign_checkpoint(path), Error);
}

TEST(CampaignCheckpoint, RejectsMissingFile) {
  EXPECT_THROW(load_campaign_checkpoint(tmp_path("runctl_nonexistent.ckpt")),
               Error);
}

// ---------------------------------------------------------------------------
// Campaign cancellation determinism: check() fires only at serial round
// boundaries, so cancelling after k checks stops at the same barrier for
// every thread count and the graded prefix is bit-identical.

TEST(CampaignRunControl, CancelAfterRoundIsBitIdenticalAcrossThreads) {
  const Netlist nl = circuits::make_random_logic(10, 250, 17);
  const auto faults = generate_stuck_at_faults(nl);
  Rng rng(1234);
  const auto patterns =
      random_patterns(nl.combinational_inputs().size(), 512, rng);

  for (const std::uint64_t stop_after : {1u, 3u, 5u}) {
    CampaignResult first;
    bool have_first = false;
    for (std::size_t t : kThreadCounts) {
      RunControl rc;
      rc.cancel_after_checks(stop_after);
      CampaignOptions opts;
      opts.num_threads = t;
      opts.run_control = &rc;
      opts.checkpoint_every_batches = 1;  // one round per 64-pattern batch
      opts.drop_limit = 0;  // no dropping: rounds can't end early
      const CampaignResult r = run_campaign(nl, faults, patterns, opts);
      EXPECT_EQ(r.outcome, StageOutcome::kCancelled);
      EXPECT_EQ(r.batches_graded, stop_after - 1)
          << "check #k fires before round k runs";
      if (!have_first) {
        first = r;
        have_first = true;
      } else {
        expect_identical(first, r,
                         "cancel@" + std::to_string(stop_after) +
                             " t=" + std::to_string(t));
      }
    }
  }
}

TEST(CampaignRunControl, ExpiredBudgetReturnsEmptyButValidResult) {
  const Netlist nl = circuits::make_random_logic(8, 120, 3);
  const auto faults = generate_stuck_at_faults(nl);
  Rng rng(99);
  const auto patterns =
      random_patterns(nl.combinational_inputs().size(), 128, rng);
  RunControl rc;
  rc.set_time_budget(0.0);
  CampaignOptions opts;
  opts.run_control = &rc;
  const CampaignResult r = run_campaign(nl, faults, patterns, opts);
  EXPECT_EQ(r.outcome, StageOutcome::kTimedOut);
  EXPECT_EQ(r.detected, 0u);
  EXPECT_EQ(r.batches_graded, 0u);
  EXPECT_EQ(r.total_faults, faults.size());
  EXPECT_EQ(r.detected_after.size(), patterns.size());
}

// ---------------------------------------------------------------------------
// Checkpoint/resume property: kill the campaign at every round boundary,
// resume from the checkpoint, and require the final result to be
// bit-identical to the uninterrupted run — across thread counts on both
// sides of the interruption.

TEST(CampaignRunControl, ResumeAfterKillAtEveryBoundaryIsBitIdentical) {
  const Netlist nl = circuits::make_random_logic(10, 250, 23);
  const auto faults = generate_stuck_at_faults(nl);
  Rng rng(555);
  const auto patterns =
      random_patterns(nl.combinational_inputs().size(), 512, rng);
  const CampaignResult reference = run_campaign(nl, faults, patterns);
  const std::size_t rounds = (patterns.size() + 63) / 64;

  for (std::size_t k = 1; k <= rounds; ++k) {
    const std::string path =
        tmp_path("runctl_resume_" + std::to_string(k) + ".ckpt");
    RunControl rc;
    rc.cancel_after_checks(k);
    CampaignOptions interrupted;
    interrupted.num_threads = (k % 2) ? 1 : 4;
    interrupted.run_control = &rc;
    interrupted.checkpoint_path = path;
    interrupted.checkpoint_every_batches = 1;
    const CampaignResult partial =
        run_campaign(nl, faults, patterns, interrupted);
    ASSERT_EQ(partial.outcome, StageOutcome::kCancelled) << "k=" << k;

    for (std::size_t t : {std::size_t{1}, std::size_t{4}}) {
      CampaignOptions resume;
      resume.num_threads = t;
      resume.resume_from = path;
      const CampaignResult resumed = run_campaign(nl, faults, patterns, resume);
      EXPECT_EQ(resumed.outcome, StageOutcome::kCompleted);
      expect_identical(reference, resumed,
                       "resume k=" + std::to_string(k) +
                           " t=" + std::to_string(t));
    }
  }
}

// Asynchronous cancellation (the Ctrl-C shape): a second thread cancels at
// an arbitrary moment, workers notice mid-round via poll(), and the final
// checkpoint — wherever it landed — must still resume to a bit-identical
// result. This is the idempotency argument in fsim/checkpoint.hpp under a
// real race.
TEST(CampaignRunControl, AsyncCancelCheckpointStillResumesBitIdentical) {
  const Netlist nl = circuits::make_random_logic(10, 300, 29);
  const auto faults = generate_stuck_at_faults(nl);
  Rng rng(777);
  const auto patterns =
      random_patterns(nl.combinational_inputs().size(), 768, rng);
  const CampaignResult reference = run_campaign(nl, faults, patterns);

  const std::string path = tmp_path("runctl_async.ckpt");
  RunControl rc;
  CampaignOptions interrupted;
  interrupted.num_threads = 4;
  interrupted.run_control = &rc;
  interrupted.checkpoint_path = path;
  interrupted.checkpoint_every_batches = 1;
  std::thread canceller([&rc] {
    std::this_thread::sleep_for(std::chrono::microseconds(200));
    rc.request_cancel();
  });
  const CampaignResult partial =
      run_campaign(nl, faults, patterns, interrupted);
  canceller.join();

  // The race may land anywhere — even after completion. Whatever checkpoint
  // exists must resume to the reference result.
  if (std::FILE* f = std::fopen(path.c_str(), "rb")) {
    std::fclose(f);
    CampaignOptions resume;
    resume.resume_from = path;
    const CampaignResult resumed = run_campaign(nl, faults, patterns, resume);
    expect_identical(reference, resumed, "async-cancel resume");
  } else {
    // No round completed before the campaign finished: nothing to resume,
    // and the partial run must then be the complete one.
    expect_identical(reference, partial, "async-cancel completed");
  }
}

// n-detect (drop_limit > 1) is the one policy whose checkpoint carries hit
// counts. Stopped at barriers 2 and then 4, each checkpoint must hold the
// exact hits and drops a recorded never-dropping run predicts (so the
// second proves the resume restored the first's counts), and the final
// resume must equal the uninterrupted run — at 1 and 4 threads.
TEST(CampaignRunControl, NDetectResumeIsBitIdentical) {
  const Netlist nl = circuits::make_random_logic(10, 250, 31);
  const auto faults = generate_stuck_at_faults(nl);
  Rng rng(4242);
  const auto patterns =
      random_patterns(nl.combinational_inputs().size(), 512, rng);
  constexpr std::size_t kLimit = 3;
  // Detecting lanes per (fault, batch), with no fault ever dropped.
  const std::size_t nbatches = (patterns.size() + 63) / 64;
  std::vector<std::vector<std::uint64_t>> lanes(
      faults.size(), std::vector<std::uint64_t>(nbatches, 0));
  run_campaign(nl, faults, patterns, {.drop_limit = 0},
               [&](std::size_t f, std::size_t b, std::uint64_t mask) {
                 lanes[f][b] = static_cast<std::uint64_t>(
                     __builtin_popcountll(mask));
                 return false;
               });
  // Hits after `batches` batches: lanes accumulate until the fault drops.
  auto expected_hits = [&](std::size_t batches) {
    std::vector<std::uint64_t> hits(faults.size(), 0);
    for (std::size_t f = 0; f < faults.size(); ++f) {
      for (std::size_t b = 0; b < batches && hits[f] < kLimit; ++b) {
        hits[f] += lanes[f][b];
      }
    }
    return hits;
  };
  auto expect_checkpoint = [&](const std::string& path, std::size_t batches,
                               const std::string& label) {
    const CampaignCheckpoint ckpt = load_campaign_checkpoint(path);
    ASSERT_EQ(ckpt.batches_done, batches) << label;
    const std::vector<std::uint64_t> hits = expected_hits(batches);
    EXPECT_EQ(ckpt.hits, hits) << label;
    for (std::size_t f = 0; f < faults.size(); ++f) {
      ASSERT_EQ(ckpt.fault_dropped(f), hits[f] >= kLimit)
          << label << " fault " << f;
    }
  };

  const CampaignOptions plain{.drop_limit = kLimit};
  const CampaignResult reference = run_campaign(nl, faults, patterns, plain);
  for (std::size_t t : {std::size_t{1}, std::size_t{4}}) {
    const std::string label = "t=" + std::to_string(t);
    const std::string first = tmp_path("ndetect_a_" + label + ".ckpt");
    const std::string second = tmp_path("ndetect_b_" + label + ".ckpt");
    // Each leg stops at its third check, i.e. two rounds after it starts.
    auto leg = [&](const std::string& from, const std::string& to) {
      RunControl rc;
      rc.cancel_after_checks(3);
      CampaignOptions o = plain;
      o.num_threads = t;
      o.run_control = &rc;
      o.checkpoint_path = to;
      o.checkpoint_every_batches = 1;
      o.resume_from = from;
      const CampaignResult r = run_campaign(nl, faults, patterns, o);
      EXPECT_EQ(r.outcome, StageOutcome::kCancelled) << label;
    };
    leg("", first);
    expect_checkpoint(first, 2, label + " first stop");
    leg(first, second);
    expect_checkpoint(second, 4, label + " second stop");

    CampaignOptions resume = plain;
    resume.num_threads = t;
    resume.resume_from = second;
    const CampaignResult resumed = run_campaign(nl, faults, patterns, resume);
    EXPECT_EQ(resumed.outcome, StageOutcome::kCompleted) << label;
    EXPECT_EQ(resumed.batches_graded, reference.batches_graded) << label;
    expect_identical(reference, resumed, label + " resumed");
  }
}

// Without n-detect no hit counts are kept: the checkpoint stays version 1
// and holds zeros where the counts would be.
TEST(CampaignRunControl, FirstDetectCheckpointHoldsZeroHits) {
  const Netlist nl = circuits::make_random_logic(10, 250, 31);
  const auto faults = generate_stuck_at_faults(nl);
  Rng rng(4242);
  const auto patterns =
      random_patterns(nl.combinational_inputs().size(), 512, rng);
  for (std::size_t drop : {0, 1}) {
    const std::string path =
        tmp_path("first_detect_" + std::to_string(drop) + ".ckpt");
    RunControl rc;
    rc.cancel_after_checks(3);
    CampaignOptions o{.drop_limit = drop};
    o.run_control = &rc;
    o.checkpoint_path = path;
    o.checkpoint_every_batches = 1;
    run_campaign(nl, faults, patterns, o);
    const CampaignCheckpoint ckpt = load_campaign_checkpoint(path);
    EXPECT_EQ(ckpt.hits, std::vector<std::uint64_t>(faults.size(), 0))
        << "drop=" << drop;
    CampaignOptions resume{.drop_limit = drop};
    resume.resume_from = path;
    expect_identical(run_campaign(nl, faults, patterns, {.drop_limit = drop}),
                     run_campaign(nl, faults, patterns, resume),
                     "drop=" + std::to_string(drop));
  }
}

TEST(CampaignRunControl, ResumeRejectsMismatchedGeometry) {
  const Netlist nl = circuits::make_random_logic(8, 120, 5);
  auto faults = generate_stuck_at_faults(nl);
  // Keep padding bits in the last dropped word for the past-the-end case.
  if (faults.size() % 64 == 0) faults.pop_back();
  Rng rng(42);
  const auto patterns =
      random_patterns(nl.combinational_inputs().size(), 128, rng);

  const std::string path = tmp_path("runctl_geometry.ckpt");
  // A fresh checkpoint of `nfaults` faults under the live drop_limit.
  auto blank = [&](std::size_t nfaults) {
    CampaignCheckpoint ckpt;
    ckpt.drop_limit = 1;
    ckpt.total_faults = nfaults;
    ckpt.total_patterns = patterns.size();
    ckpt.batches_done = 0;
    ckpt.first_detected_by.assign(nfaults, -1);
    ckpt.hits.assign(nfaults, 0);
    ckpt.dropped.assign((nfaults + 63) / 64, 0);
    return ckpt;
  };
  auto resume = [&](const CampaignCheckpoint& ckpt) {
    save_campaign_checkpoint(ckpt, path);
    CampaignOptions options;
    options.resume_from = path;
    return run_campaign(nl, faults, patterns, options);
  };

  EXPECT_NO_THROW(resume(blank(faults.size())));
  EXPECT_THROW(resume(blank(faults.size() + 1)), Error)  // wrong universe
      << "fault count";
  CampaignCheckpoint late = blank(faults.size());
  late.first_detected_by[0] = 1000000;  // past the 128-pattern stream
  EXPECT_THROW(resume(late), Error) << "detecting pattern out of range";
  CampaignCheckpoint early = blank(faults.size());
  early.first_detected_by[0] = -2;
  EXPECT_THROW(resume(early), Error) << "detecting pattern below -1";
  CampaignCheckpoint ghost = blank(faults.size());
  ghost.dropped.back() |= 1ull << (faults.size() % 64);  // fault `size()`
  EXPECT_THROW(resume(ghost), Error) << "dropped bit past total_faults";
}

// ---------------------------------------------------------------------------
// Flow-level graceful degradation.

TEST(FlowRunControl, ExhaustedBudgetReturnsWellFormedReport) {
  const Netlist nl = circuits::make_mac(4, true);
  RunControl rc;
  rc.set_time_budget(0.0);
  DftFlowOptions options;
  options.run_control = &rc;
  obs::Telemetry telemetry;
  options.telemetry = &telemetry;

  const DftFlowReport report = run_dft_flow(nl, options);
  EXPECT_TRUE(report.degraded());
  ASSERT_FALSE(report.stage_outcomes.empty());
  for (const auto& [stage, outcome] : report.stage_outcomes) {
    EXPECT_EQ(outcome, StageOutcome::kSkipped) << stage;
  }
  // Both renderings must stay valid on a fully degraded report.
  const std::string text = report.to_string();
  EXPECT_NE(text.find("runctl:"), std::string::npos);
  const std::string json = report.to_json();
  ASSERT_FALSE(json.empty());
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
  EXPECT_NE(json.find("\"stage_outcomes\""), std::string::npos);
  EXPECT_NE(json.find("\"flow.atpg\":\"skipped\""), std::string::npos);
  EXPECT_GT(report.metrics.counter_value("flow.stage_outcome.skipped"), 0u);
}

TEST(FlowRunControl, StageBudgetStopsOnlyThatStage) {
  const Netlist nl = circuits::make_mac(4, true);
  RunControl rc;
  rc.set_stage_budget("atpg", 0.0);
  DftFlowOptions options;
  options.run_control = &rc;
  options.run_transition = false;

  const DftFlowReport report = run_dft_flow(nl, options);
  EXPECT_TRUE(report.degraded());
  bool saw_atpg = false;
  bool saw_lbist = false;
  for (const auto& [stage, outcome] : report.stage_outcomes) {
    if (stage == "flow.atpg") {
      saw_atpg = true;
      EXPECT_EQ(outcome, StageOutcome::kTimedOut) << stage;
    }
    if (stage == "flow.lbist") {
      saw_lbist = true;
      EXPECT_EQ(outcome, StageOutcome::kCompleted)
          << "a stage budget must not bleed downstream";
    }
  }
  EXPECT_TRUE(saw_atpg);
  EXPECT_TRUE(saw_lbist);
}

TEST(FlowRunControl, CancelDuringFlowCountsAndSkipsEverything) {
  const Netlist nl = circuits::make_c17();
  RunControl rc;
  // Stage entries are check() boundaries: the first stage trips the
  // countdown, so every stage of the flow is skipped deterministically.
  rc.cancel_after_checks(1);
  DftFlowOptions options;
  options.run_control = &rc;
  obs::Telemetry telemetry;
  options.telemetry = &telemetry;

  const DftFlowReport report = run_dft_flow(nl, options);
  EXPECT_TRUE(report.degraded());
  for (const auto& [stage, outcome] : report.stage_outcomes) {
    EXPECT_EQ(outcome, StageOutcome::kSkipped) << stage;
  }
  // The flow reports the cancellations that happened on its watch.
  EXPECT_EQ(report.metrics.counter_value("runctl.cancellations"), 1u);
}

TEST(FlowRunControl, UncontrolledFlowReportsAllStagesCompleted) {
  const Netlist nl = circuits::make_c17();
  const DftFlowReport report = run_dft_flow(nl);
  EXPECT_FALSE(report.degraded());
  ASSERT_FALSE(report.stage_outcomes.empty());
  EXPECT_EQ(report.stage_outcomes.size(), report.stage_seconds.size());
  for (const auto& [stage, outcome] : report.stage_outcomes) {
    EXPECT_EQ(outcome, StageOutcome::kCompleted) << stage;
  }
  // The happy-path text report must not grow a runctl line.
  EXPECT_EQ(report.to_string().find("runctl:"), std::string::npos);
}

}  // namespace
}  // namespace aidft
