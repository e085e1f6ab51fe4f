// Run control: deadlines, cooperative cancellation, checkpoint/resume, and
// graceful degradation — the contract is that a stopped run is (a) a valid
// partial result, (b) deterministic across thread counts when stopped at a
// serial orchestration boundary, and (c) resumable with a final result
// bit-identical to an uninterrupted run.
#include "common/run_control.hpp"

#include <gtest/gtest.h>

#include <atomic>
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

// Every field of the result: a resumed run takes no hook, so the detected
// bitmap and the coverage curve are what pin its first detections.
void expect_identical(const CampaignResult& a, const CampaignResult& b,
                      const std::string& label) {
  EXPECT_EQ(a.total_faults, b.total_faults) << label;
  EXPECT_EQ(a.detected, b.detected) << label;
  ASSERT_EQ(a.detected_bits, b.detected_bits) << label;
  ASSERT_EQ(a.detected_after, b.detected_after) << label;
  EXPECT_EQ(a.outcome, b.outcome) << label;
  EXPECT_EQ(a.batches_graded, b.batches_graded) << label;
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

// An n-detect checkpoint (so it carries hit counts): faults 7 and 129
// detected, first by patterns 66 and 0.
CampaignCheckpoint make_checkpoint() {
  CampaignCheckpoint ckpt;
  ckpt.drop_limit = 4;
  ckpt.total_faults = 130;
  ckpt.total_patterns = 192;
  ckpt.batches_done = 2;
  ckpt.detected.assign((130 + 63) / 64, 0);
  ckpt.detected[0] = 1ull << 7;
  ckpt.detected[2] = 1ull << (129 - 128);
  ckpt.first_detections.assign(192, 0);
  ckpt.first_detections[66] = 1;
  ckpt.first_detections[0] = 1;
  ckpt.hits.assign(130, 0);
  ckpt.hits[7] = 3;
  ckpt.dropped.assign((130 + 63) / 64, 0);
  ckpt.dropped[0] = 1ull << 7;
  return ckpt;
}

// Writes `bytes` to `path` as a whole file.
void write_file(const std::string& path, const std::vector<char>& bytes) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f), bytes.size());
  std::fclose(f);
}

// Appends `v`'s little-endian bytes.
template <typename T>
void put(std::vector<char>& bytes, T v) {
  const auto* p = reinterpret_cast<const char*>(&v);
  bytes.insert(bytes.end(), p, p + sizeof v);
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
  EXPECT_EQ(back.detected, ckpt.detected);
  EXPECT_EQ(back.first_detections, ckpt.first_detections);
  EXPECT_EQ(back.hits, ckpt.hits);
  EXPECT_EQ(back.dropped, ckpt.dropped);
  EXPECT_TRUE(back.fault_detected(7));
  EXPECT_TRUE(back.fault_detected(129));
  EXPECT_FALSE(back.fault_detected(8));
  EXPECT_TRUE(back.fault_dropped(7));
  EXPECT_FALSE(back.fault_dropped(8));
}

// A well-formed, checksummed version-1 file (an 8-byte first detecting
// pattern and a hit count per fault) has no reader: it is refused by
// version before its payload is read.
TEST(CampaignCheckpoint, RejectsVersionOneFile) {
  const std::string path = tmp_path("runctl_v1.ckpt");
  std::vector<char> bytes = {'A', 'I', 'D', 'F', 'T', 'C', 'K', 'P'};
  put<std::uint32_t>(bytes, 1);
  for (std::uint64_t v : {1, 130, 192, 2}) put<std::uint64_t>(bytes, v);
  for (int f = 0; f < 130; ++f) put<std::int64_t>(bytes, f == 7 ? 66 : -1);
  for (int f = 0; f < 130; ++f) put<std::uint64_t>(bytes, 0);
  for (int w = 0; w < 3; ++w) put<std::uint64_t>(bytes, w == 0 ? 1ull << 7 : 0);
  std::uint64_t fnv = 0xcbf29ce484222325ull;
  for (std::size_t i = 8; i < bytes.size(); ++i) {
    fnv = (fnv ^ static_cast<unsigned char>(bytes[i])) * 0x100000001b3ull;
  }
  put(bytes, fnv);
  write_file(path, bytes);
  try {
    load_campaign_checkpoint(path);
    ADD_FAILURE() << "version 1 accepted";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("unsupported version 1"),
              std::string::npos)
        << e.what();
  }
}

// A 44-byte file — magic, version and header only — whose header claims
// 2^39 faults must be refused by its size, before anything is allocated.
TEST(CampaignCheckpoint, RejectsHeaderLongerThanFile) {
  const std::string path = tmp_path("runctl_header_only.ckpt");
  std::vector<char> bytes = {'A', 'I', 'D', 'F', 'T', 'C', 'K', 'P'};
  put(bytes, CampaignCheckpoint::kVersion);
  for (std::uint64_t v : {std::uint64_t{1}, std::uint64_t{1} << 39,
                          std::uint64_t{64}, std::uint64_t{0}}) {
    put(bytes, v);
  }
  ASSERT_EQ(bytes.size(), 44u);
  write_file(path, bytes);
  EXPECT_THROW(load_campaign_checkpoint(path), Error);
}

TEST(CampaignCheckpoint, RejectsTrailingBytes) {
  const std::string path = tmp_path("runctl_trailing.ckpt");
  save_campaign_checkpoint(make_checkpoint(), path);
  std::FILE* f = std::fopen(path.c_str(), "ab");
  ASSERT_NE(f, nullptr);
  std::fputc(0, f);
  std::fclose(f);
  EXPECT_THROW(load_campaign_checkpoint(path), Error);
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

// A stop inside a batch: the whole pattern set is one batch, and the hook
// cancels on the first detection it sees. Workers poll between faults, so
// the campaign stops after a small fraction of the batch's detections.
TEST(CampaignRunControl, CancelInsideABatchStopsBeforeTheBatchEnds) {
  const Netlist nl = circuits::make_random_logic(16, 4000, 41);
  const auto faults = generate_stuck_at_faults(nl);
  Rng rng(8);
  const auto patterns =
      random_patterns(nl.combinational_inputs().size(), 64, rng);
  for (std::size_t t : {1, 4}) {
    RunControl rc;
    std::atomic<std::size_t> calls{0};
    CampaignOptions opts;
    opts.num_threads = t;
    opts.run_control = &rc;
    const CampaignResult r = run_campaign(
        nl, faults, patterns, opts,
        [&](std::size_t, std::size_t, std::uint64_t) {
          if (calls.fetch_add(1, std::memory_order_relaxed) == 0) {
            rc.request_cancel();
          }
          return false;
        });
    EXPECT_EQ(r.outcome, StageOutcome::kCancelled) << t << " threads";
    EXPECT_EQ(r.batches_graded, 0u) << t << " threads";
    EXPECT_LT(calls.load(), faults.size() / 8) << t << " threads";
  }
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

    for (std::size_t t : kThreadCounts) {
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

// Without n-detect no hit counts are kept, and the checkpoint stores none.
TEST(CampaignRunControl, FirstDetectCheckpointOmitsHits) {
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
    EXPECT_TRUE(ckpt.hits.empty()) << "drop=" << drop;
    EXPECT_GT(ckpt.batches_done, 0u) << "drop=" << drop;
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
    ckpt.detected.assign((nfaults + 63) / 64, 0);
    ckpt.first_detections.assign(patterns.size(), 0);
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
  // Fault 0 detected and first detected by pattern 5: consistent.
  CampaignCheckpoint one = blank(faults.size());
  one.detected[0] = 1;
  one.first_detections[5] = 1;
  EXPECT_NO_THROW(resume(one));
  CampaignCheckpoint ghost_detect = one;
  ghost_detect.detected.back() |= 1ull << (faults.size() % 64);
  ghost_detect.first_detections[5] = 2;  // counts match the bits
  EXPECT_THROW(resume(ghost_detect), Error) << "detected bit past total_faults";
  CampaignCheckpoint uncounted = one;
  uncounted.first_detections[5] = 0;  // a detected fault no pattern counts
  EXPECT_THROW(resume(uncounted), Error) << "fewer first detections than bits";
  CampaignCheckpoint overcounted = one;
  overcounted.first_detections[127] = 1;  // one more than the bits
  EXPECT_THROW(resume(overcounted), Error) << "more first detections than bits";
  CampaignCheckpoint wrapped = one;  // the sum wraps to the popcount
  wrapped.first_detections[0] = ~std::uint64_t{0};
  wrapped.first_detections[1] = 1;
  EXPECT_THROW(resume(wrapped), Error) << "first detections wrap around";
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
