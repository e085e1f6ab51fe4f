// Observability subsystem: metrics exactness under threads, trace export
// round-trip, the disabled-telemetry no-op contract, and the instrumented
// DFT and chip flows end to end.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "aichip/soc.hpp"
#include "aichip/systolic.hpp"
#include "bench_circuits/generators.hpp"
#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "core/chip_flow.hpp"
#include "core/dft_flow.hpp"
#include "diag/diagnosis.hpp"
#include "fault/fault.hpp"
#include "fsim/campaign.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/telemetry.hpp"
#include "obs/trace.hpp"
#include "sim/pattern.hpp"
#include "test_util.hpp"

namespace aidft {
namespace {

// ---- metrics ----------------------------------------------------------

TEST(Metrics, CounterGaugeHistogramBasics) {
  obs::MetricsRegistry reg;
  reg.counter("a").add();
  reg.counter("a").add(41);
  reg.gauge("g").set(-5);
  reg.histogram("h").observe(0);
  reg.histogram("h").observe(1);
  reg.histogram("h").observe(1000);

  const obs::MetricsSnapshot snap = reg.snapshot();
  EXPECT_EQ(snap.counter_value("a"), 42u);
  EXPECT_EQ(snap.counter_value("missing"), 0u);
  const auto* g = snap.find("g");
  ASSERT_NE(g, nullptr);
  EXPECT_EQ(g->value, -5);
  const auto* h = snap.find("h");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->count, 3u);
  EXPECT_EQ(h->sum, 1001u);
  EXPECT_EQ(h->buckets[obs::Histogram::bucket_of(0)], 1u);
  EXPECT_EQ(h->buckets[obs::Histogram::bucket_of(1)], 1u);
  EXPECT_EQ(h->buckets[obs::Histogram::bucket_of(1000)], 1u);
}

TEST(Metrics, HistogramBucketPlacement) {
  // Bucket 0 = {0}; bucket b counts [2^(b-1), 2^b).
  EXPECT_EQ(obs::Histogram::bucket_of(0), 0u);
  EXPECT_EQ(obs::Histogram::bucket_of(1), 1u);
  EXPECT_EQ(obs::Histogram::bucket_of(2), 2u);
  EXPECT_EQ(obs::Histogram::bucket_of(3), 2u);
  EXPECT_EQ(obs::Histogram::bucket_of(4), 3u);
  EXPECT_EQ(obs::Histogram::bucket_of(7), 3u);
  EXPECT_EQ(obs::Histogram::bucket_of(8), 4u);
  // The last bucket absorbs overflow.
  EXPECT_EQ(obs::Histogram::bucket_of(UINT64_MAX),
            obs::Histogram::kBuckets - 1);
}

TEST(Metrics, ExactTotalsUnderThreads) {
  // 8 workers hammer the SAME instruments; relaxed atomics must still give
  // exact totals.
  obs::MetricsRegistry reg;
  obs::Counter& counter = reg.counter("hits");
  obs::Histogram& hist = reg.histogram("lat");
  constexpr std::size_t kThreads = 8;
  constexpr std::size_t kPerItem = 1000;
  constexpr std::size_t kItems = 64;

  parallel_for(kThreads, kItems,
               [&](std::size_t /*shard*/, std::size_t begin, std::size_t end) {
                 for (std::size_t i = begin; i < end; ++i) {
                   for (std::size_t k = 0; k < kPerItem; ++k) {
                     counter.add();
                     hist.observe(i);
                   }
                   reg.gauge("last").set(static_cast<std::int64_t>(i));
                 }
               });

  EXPECT_EQ(counter.value(), kItems * kPerItem);
  const obs::MetricsSnapshot snap = reg.snapshot();
  EXPECT_EQ(snap.counter_value("hits"), kItems * kPerItem);
  const auto* h = snap.find("lat");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->count, kItems * kPerItem);
}

TEST(Metrics, ConcurrentNameCreation) {
  // Find-or-create races on the registry map must yield one instrument per
  // name with exact totals.
  obs::MetricsRegistry reg;
  constexpr std::size_t kThreads = 8;
  constexpr std::size_t kNames = 32;
  constexpr std::size_t kReps = 200;
  parallel_for(kThreads, kThreads,
               [&](std::size_t, std::size_t begin, std::size_t end) {
                 for (std::size_t t = begin; t < end; ++t) {
                   for (std::size_t r = 0; r < kReps; ++r) {
                     for (std::size_t n = 0; n < kNames; ++n) {
                       reg.counter("c" + std::to_string(n)).add();
                     }
                   }
                 }
               });
  const obs::MetricsSnapshot snap = reg.snapshot();
  EXPECT_EQ(snap.counter_count(), kNames);
  for (std::size_t n = 0; n < kNames; ++n) {
    EXPECT_EQ(snap.counter_value("c" + std::to_string(n)), kThreads * kReps);
  }
}

TEST(Metrics, SnapshotJsonIsValid) {
  obs::MetricsRegistry reg;
  reg.counter("with \"quotes\"\n").add(3);
  reg.gauge("g").set(-7);
  reg.histogram("h").observe(12);
  const std::string json = reg.snapshot().to_json();
  EXPECT_TRUE(obs::json_valid(json)) << json;
  EXPECT_NE(json.find("counters"), std::string::npos);
  EXPECT_NE(json.find("gauges"), std::string::npos);
  EXPECT_NE(json.find("histograms"), std::string::npos);
}

TEST(Metrics, ResetZeroesButKeepsNames) {
  obs::MetricsRegistry reg;
  reg.counter("c").add(5);
  reg.reset();
  const obs::MetricsSnapshot snap = reg.snapshot();
  EXPECT_EQ(snap.counter_count(), 1u);
  EXPECT_EQ(snap.counter_value("c"), 0u);
}

// ---- tracing ----------------------------------------------------------

TEST(Trace, NestedSpansRoundTrip) {
  obs::TraceCollector collector;
  {
    obs::Span outer(&collector, "outer", "test");
    outer.arg("label", "a \"quoted\" value");
    outer.arg("n", std::uint64_t{42});
    {
      obs::Span inner(&collector, "inner", "test");
      inner.arg("x", 1.5);
    }
  }
  ASSERT_EQ(collector.event_count(), 2u);
  const auto events = collector.events();
  // Sorted parent-first: outer starts no later and lasts no shorter.
  EXPECT_EQ(events[0].name, "outer");
  EXPECT_EQ(events[1].name, "inner");
  EXPECT_LE(events[0].start_us, events[1].start_us);
  EXPECT_GE(events[0].start_us + events[0].dur_us,
            events[1].start_us + events[1].dur_us);
  // Same thread recorded both.
  EXPECT_EQ(events[0].tid, events[1].tid);

  const std::string json = collector.to_chrome_json();
  EXPECT_TRUE(obs::json_valid(json)) << json;
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"outer\""), std::string::npos);
  EXPECT_NE(json.find("\\\"quoted\\\""), std::string::npos);
}

TEST(Trace, MultiThreadedSpansKeepThreadIdentity) {
  obs::TraceCollector collector;
  constexpr std::size_t kThreads = 8;
  parallel_for(kThreads, kThreads,
               [&](std::size_t shard, std::size_t begin, std::size_t end) {
                 for (std::size_t i = begin; i < end; ++i) {
                   obs::Span s(&collector, "work", "test");
                   s.arg("shard", shard);
                 }
               });
  EXPECT_EQ(collector.event_count(), kThreads);
  const auto events = collector.events();
  std::set<std::uint32_t> tids;
  for (const auto& e : events) tids.insert(e.tid);
  // Each chunk records from whichever pool thread ran it; no event may be
  // lost and tids must stay in the collector's dense 1..N range. (Exact
  // thread spread is scheduler-dependent — a fast worker can drain several
  // chunks — so only the bounds are asserted.)
  EXPECT_GE(tids.size(), 1u);
  EXPECT_LE(tids.size(), kThreads + 1);  // +1: the registering main thread
  for (std::uint32_t t : tids) {
    EXPECT_GE(t, 1u);
    EXPECT_LE(t, kThreads + 1);
  }
  EXPECT_TRUE(obs::json_valid(collector.to_chrome_json()));
}

TEST(Trace, EarlyEndAndMove) {
  obs::TraceCollector collector;
  obs::Span s(&collector, "explicit", "test");
  EXPECT_TRUE(s.active());
  obs::Span moved = std::move(s);
  EXPECT_FALSE(s.active());  // NOLINT(bugprone-use-after-move): contract test
  EXPECT_TRUE(moved.active());
  moved.end();
  EXPECT_FALSE(moved.active());
  moved.end();  // double end is a no-op
  EXPECT_EQ(collector.event_count(), 1u);
}

TEST(Trace, WriteChromeJsonFile) {
  obs::TraceCollector collector;
  { obs::Span s(&collector, "filed", "test"); }
  const std::string path = ::testing::TempDir() + "/obs_test_trace.json";
  ASSERT_TRUE(collector.write_chrome_json(path));
  std::FILE* f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  std::string content;
  char buf[4096];
  std::size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) content.append(buf, n);
  std::fclose(f);
  EXPECT_TRUE(obs::json_valid(content)) << content;
  EXPECT_NE(content.find("filed"), std::string::npos);
}

// ---- disabled-telemetry no-op path ------------------------------------

TEST(Telemetry, NullSinkIsNoOp) {
  obs::Telemetry* none = nullptr;
  obs::add(none, "x");
  obs::add(none, "x", 100);
  obs::set_gauge(none, "g", 7);
  obs::observe(none, "h", 3);
  obs::Span s = obs::span(none, "dead", "test");
  EXPECT_FALSE(s.active());
  s.arg("k", std::uint64_t{1});  // must not crash
  s.end();
  SUCCEED();
}

TEST(Telemetry, CampaignWithoutSinkMatchesWithSink) {
  // Telemetry must never change results — identical CampaignResult with the
  // sink on and off, serial and threaded.
  const Netlist nl = circuits::make_mac(4, /*registered=*/true);
  const auto faults = collapse_equivalent(nl, generate_stuck_at_faults(nl));
  Rng rng(11);
  const auto patterns =
      random_patterns(nl.combinational_inputs().size(), 128, rng);

  const test::FirstDetections plain_run =
      test::first_detections(nl, faults, patterns, {});
  obs::Telemetry telemetry;
  const test::FirstDetections traced_run = test::first_detections(
      nl, faults, patterns, {.num_threads = 4, .telemetry = &telemetry});
  const CampaignResult& plain = plain_run.result;
  const CampaignResult& traced = traced_run.result;
  EXPECT_EQ(plain.detected, traced.detected);
  EXPECT_EQ(plain_run.first, traced_run.first);
  EXPECT_EQ(plain.detected_bits, traced.detected_bits);
  EXPECT_EQ(plain.detected_after, traced.detected_after);

  // The campaign populated its counters and per-shard spans.
  const obs::MetricsSnapshot snap = telemetry.metrics.snapshot();
  EXPECT_EQ(snap.counter_value("campaign.runs"), 1u);
  EXPECT_EQ(snap.counter_value("campaign.faults"), faults.size());
  EXPECT_EQ(snap.counter_value("campaign.patterns"), patterns.size());
  EXPECT_EQ(snap.counter_value("campaign.faults_detected"), traced.detected);
  EXPECT_GT(snap.counter_value("fsim.events"), 0u);
  const auto* shard_us = snap.find("campaign.shard_us");
  ASSERT_NE(shard_us, nullptr);
  EXPECT_GE(shard_us->count, 1u);

  std::size_t shard_spans = 0;
  for (const auto& e : telemetry.trace.events()) {
    if (e.name == "campaign.shard") ++shard_spans;
  }
  EXPECT_GE(shard_spans, 1u);
  EXPECT_EQ(shard_us->count, shard_spans);
}

TEST(Telemetry, OpDiffsCountsThePairsHandedToDetailedHooks) {
  // `fsim.op_diffs` is exactly the number of (point, word) pairs the hooks
  // received, at every worker count. A fault reaches only part of the
  // observe points, so the pairs number fewer than one word per point per
  // call. Mask-only hooks get no pairs.
  const Netlist nl = circuits::make_mac(4, /*registered=*/true);
  const auto faults = collapse_equivalent(nl, generate_stuck_at_faults(nl));
  const std::size_t nops = nl.observe_points().size();
  Rng rng(12);
  const auto patterns =
      random_patterns(nl.combinational_inputs().size(), 100, rng);
  for (std::size_t threads : {1, 4}) {
    obs::Telemetry telemetry;
    // Each fault's tallies are written by the one worker that owns it.
    std::vector<std::uint64_t> pairs(faults.size(), 0);
    std::vector<std::uint64_t> calls(faults.size(), 0);
    run_campaign(nl, faults, patterns,
                 {.num_threads = threads, .drop_limit = 0,
                  .telemetry = &telemetry},
                 [&](std::size_t f, std::size_t, std::uint64_t,
                     std::span<const OpDiff> op_diffs) {
                   pairs[f] += op_diffs.size();
                   ++calls[f];
                   return false;
                 });
    std::uint64_t handed = 0, dense = 0;
    for (std::size_t f = 0; f < faults.size(); ++f) {
      handed += pairs[f];
      dense += calls[f] * nops;
    }
    const std::uint64_t counted =
        telemetry.metrics.snapshot().counter_value("fsim.op_diffs");
    EXPECT_EQ(counted, handed) << threads << " threads";
    EXPECT_GT(counted, 0u) << threads << " threads";
    EXPECT_LT(counted, dense) << threads << " threads";
  }
  obs::Telemetry mask_only;
  run_campaign(nl, faults, patterns, {.drop_limit = 0, .telemetry = &mask_only},
               [](std::size_t, std::size_t, std::uint64_t) { return false; });
  EXPECT_EQ(mask_only.metrics.snapshot().counter_value("fsim.op_diffs"), 0u);
}

TEST(Telemetry, DiagnosisCountersSumToCandidates) {
  // Scored (simulated) plus pruned (outside every failing cone) is the
  // whole candidate list, in the counters and on the span.
  const Netlist nl = circuits::make_mac(4, /*registered=*/true);
  const auto candidates = collapse_equivalent(nl, generate_stuck_at_faults(nl));
  Rng rng(6);
  const auto patterns =
      random_patterns(nl.combinational_inputs().size(), 96, rng);
  const FailLog log = simulate_defect(nl, patterns, candidates[7]);
  ASSERT_TRUE(log.any_failure());

  const auto check = [&](const obs::Telemetry& telemetry,
                         const std::string& span_name) {
    const obs::MetricsSnapshot snap = telemetry.metrics.snapshot();
    const std::uint64_t scored = snap.counter_value("diag.candidates_scored");
    const std::uint64_t pruned = snap.counter_value("diag.candidates_pruned");
    EXPECT_EQ(scored + pruned, candidates.size()) << span_name;
    EXPECT_GT(scored, 0u) << span_name;
    EXPECT_GT(pruned, 0u) << span_name;
    const auto events = telemetry.trace.events();
    const auto span = std::find_if(
        events.begin(), events.end(),
        [&](const obs::TraceEvent& e) { return e.name == span_name; });
    ASSERT_NE(span, events.end()) << span_name;
    const auto arg = [&](const std::string& key) {
      for (const auto& [k, v] : span->args) {
        if (k == key) return v;
      }
      return std::string("missing");
    };
    EXPECT_EQ(arg("candidates"), std::to_string(candidates.size()));
    EXPECT_EQ(arg("scored"), std::to_string(scored));
    EXPECT_EQ(arg("pruned"), std::to_string(pruned));
  };
  obs::Telemetry single;
  diagnose(nl, patterns, log, candidates, &single);
  check(single, "diag.diagnose");
  obs::Telemetry multi;
  diagnose_multiplet(nl, patterns, log, candidates, 4, &multi);
  check(multi, "diag.multiplet");
}

// ---- the instrumented flow (ISSUE acceptance shape) -------------------

TEST(Telemetry, DftFlowEmitsStageSpansAndMetrics) {
  const Netlist nl = circuits::make_mac(4, /*registered=*/true);
  obs::Telemetry telemetry;
  DftFlowOptions options;
  options.telemetry = &telemetry;
  options.atpg.random_patterns = 64;
  options.lbist.patterns = 128;
  options.run_transition = true;
  options.campaign.num_threads = 2;

  const DftFlowReport report = run_dft_flow(nl, options);

  // ≥6 distinct flow.<stage> spans on the timeline.
  std::set<std::string> stage_names;
  std::size_t shard_spans = 0;
  for (const auto& e : telemetry.trace.events()) {
    if (e.name.rfind("flow.", 0) == 0) stage_names.insert(e.name);
    if (e.name == "campaign.shard") ++shard_spans;
  }
  EXPECT_GE(stage_names.size(), 6u) << [&] {
    std::string all;
    for (const auto& n : stage_names) all += n + " ";
    return all;
  }();
  EXPECT_GE(shard_spans, 1u);

  // Per-stage wall time for every executed stage.
  ASSERT_FALSE(report.stage_seconds.empty());
  std::set<std::string> timed;
  for (const auto& [name, seconds] : report.stage_seconds) {
    EXPECT_GE(seconds, 0.0);
    timed.insert(name);
  }
  EXPECT_GE(timed.size(), 6u);

  // ≥10 named counters in the snapshot, including the headline ones.
  EXPECT_GE(report.metrics.counter_count(), 10u);
  for (const char* name :
       {"podem.calls", "podem.backtracks", "podem.implications", "sat.calls",
        "fsim.events", "fsim.early_exits", "campaign.runs", "campaign.faults",
        "campaign.faults_detected", "lbist.sessions", "lbist.patterns"}) {
    EXPECT_NE(report.metrics.find(name), nullptr) << name;
  }

  // Transition ATPG reports its engine effort on the result and its span,
  // as the stuck-at deterministic phase does.
  const auto events = telemetry.trace.events();
  const auto transition = std::find_if(
      events.begin(), events.end(),
      [](const obs::TraceEvent& e) { return e.name == "atpg.transition"; });
  ASSERT_NE(transition, events.end());
  EXPECT_GT(report.transition.podem_calls, 0u);
  for (const auto& [key, value] :
       {std::pair{"podem_calls", report.transition.podem_calls},
        std::pair{"sat_calls", report.transition.sat_calls},
        std::pair{"backtracks", report.transition.podem_backtracks}}) {
    const auto arg = std::find_if(
        transition->args.begin(), transition->args.end(),
        [&](const auto& kv) { return kv.first == key; });
    ASSERT_NE(arg, transition->args.end()) << key;
    EXPECT_EQ(arg->second, std::to_string(value)) << key;
  }

  // The JSON report and the Chrome trace both parse.
  const std::string json = report.to_json();
  EXPECT_TRUE(obs::json_valid(json));
  EXPECT_NE(json.find("\"stage_seconds\""), std::string::npos);
  EXPECT_NE(json.find("\"metrics\""), std::string::npos);
  EXPECT_TRUE(obs::json_valid(telemetry.trace.to_chrome_json()));
}

TEST(Telemetry, AtpgEngineCountersAndHistogramsOnRedundantLogic) {
  // One block shaped like perfbench's atpg_redundant blocks: PODEM hands
  // its redundant faults to SAT, so both engines run.
  const Netlist nl = circuits::make_random_logic(32, 250, 1);
  auto run = [&] {
    obs::Telemetry telemetry;
    DftFlowOptions options;
    options.telemetry = &telemetry;
    options.atpg.random_patterns = 0;
    options.atpg.engine = AtpgEngine::kPodemThenSat;
    options.run_compression = false;
    options.run_lbist = false;
    return run_dft_flow(nl, options);
  };
  const DftFlowReport report = run();
  const obs::MetricsSnapshot& m = report.metrics;

  const std::uint64_t podem_calls = m.counter_value("podem.calls");
  const std::uint64_t sat_calls = m.counter_value("sat.calls");
  ASSERT_GT(podem_calls, 0u);
  ASSERT_GT(sat_calls, 0u);
  // One SAT solve per engine call, structurally untestable faults included.
  EXPECT_EQ(m.counter_value("sat.solves"), sat_calls);
  EXPECT_GT(m.counter_value("sat.vars"), 0u);
  EXPECT_GT(m.counter_value("sat.clauses"), 0u);
  // One histogram observation per engine call.
  for (const auto& [name, calls] :
       {std::pair{"atpg.podem_us", podem_calls},
        std::pair{"atpg.sat_us", sat_calls}}) {
    const obs::MetricsSnapshot::Entry* h = m.find(name);
    ASSERT_NE(h, nullptr) << name;
    EXPECT_EQ(h->kind, obs::MetricsSnapshot::Kind::kHistogram) << name;
    EXPECT_EQ(h->count, calls) << name;
  }
  // Under kPodemThenSat every PODEM abort is handed to SAT, so the aborted
  // calls' histogram counts the SAT calls, and its time is part of PODEM's.
  const obs::MetricsSnapshot::Entry* aborted = m.find("atpg.podem_abort_us");
  ASSERT_NE(aborted, nullptr);
  EXPECT_EQ(aborted->kind, obs::MetricsSnapshot::Kind::kHistogram);
  EXPECT_EQ(aborted->count, sat_calls);
  EXPECT_LE(aborted->sum, m.find("atpg.podem_us")->sum);
  // Gate evaluations by PODEM implication: a deterministic effort count.
  const std::uint64_t events = m.counter_value("podem.events");
  EXPECT_GT(events, 0u);
  EXPECT_EQ(run().metrics.counter_value("podem.events"), events);
}

TEST(Telemetry, EdtSessionSubSpansNestUnderSession) {
  const Netlist nl = circuits::make_mac(4, /*registered=*/true);
  obs::Telemetry telemetry;
  DftFlowOptions options;
  options.telemetry = &telemetry;
  options.atpg.random_patterns = 0;  // compression consumes deterministic cubes
  options.run_lbist = false;
  const DftFlowReport report = run_dft_flow(nl, options);
  ASSERT_TRUE(report.compression_ran);

  const auto events = telemetry.trace.events();
  const auto named = [&](const std::string& name) {
    return std::find_if(events.begin(), events.end(),
                        [&](const obs::TraceEvent& e) { return e.name == name; });
  };
  const auto session = named("edt.session");
  ASSERT_NE(session, events.end());
  std::uint64_t previous_start = session->start_us;
  // The session's phases, in the order they run, inside its span.
  for (const char* name :
       {"edt.encode", "edt.grade_baseline", "edt.grade_compacted"}) {
    const auto it = named(name);
    ASSERT_NE(it, events.end()) << name;
    EXPECT_EQ(it->tid, session->tid) << name;
    EXPECT_GE(it->start_us, previous_start) << name;
    EXPECT_LE(it->start_us + it->dur_us, session->start_us + session->dur_us)
        << name;
    previous_start = it->start_us;
  }
}

TEST(Telemetry, ChipFlowSpansSocBuildFaultsAndGradeInOrder) {
  aichip::SystolicConfig cfg;
  cfg.rows = cfg.cols = 1;
  cfg.width = 3;
  const Netlist core = aichip::make_systolic_array(cfg);
  obs::Telemetry telemetry;
  ChipFlowOptions options;
  options.num_cores = 3;
  options.core_flow.telemetry = &telemetry;
  options.core_flow.run_lbist = false;
  options.core_flow.run_compression = false;
  const ChipFlowReport report = run_chip_flow(core, options);

  std::vector<obs::TraceEvent> chip;
  for (const auto& e : telemetry.trace.events()) {
    if (e.name.rfind("chip.", 0) == 0) chip.push_back(e);
  }
  ASSERT_EQ(chip.size(), 3u);
  EXPECT_EQ(chip[0].name, "chip.soc_build");
  EXPECT_EQ(chip[1].name, "chip.soc_faults");
  EXPECT_EQ(chip[2].name, "chip.soc_grade");
  for (std::size_t i = 0; i + 1 < chip.size(); ++i) {
    EXPECT_LE(chip[i].start_us + chip[i].dur_us, chip[i + 1].start_us)
        << chip[i].name << " overlaps " << chip[i + 1].name;
  }

  auto arg = [](const obs::TraceEvent& e, const std::string& key) {
    for (const auto& [k, v] : e.args) {
      if (k == key) return v;
    }
    return std::string("<missing>");
  };
  const aichip::SocNetlist soc = aichip::make_replicated_soc(core, 3);
  // The build span gauges what the SoC netlist holds on the heap.
  const std::size_t soc_bytes =
      soc.netlist.topology().bytes() + soc.netlist.name_bytes();
  EXPECT_GT(soc_bytes, 0u);
  EXPECT_EQ(arg(chip[0], "bytes"), std::to_string(soc_bytes));
  EXPECT_EQ(arg(chip[1], "faults"),
            std::to_string(generate_stuck_at_faults(soc.netlist).size()));
  EXPECT_EQ(arg(chip[1], "collapsed"), std::to_string(report.soc_faults));
  // The faults span gauges the heap bytes of the fault list the flow holds:
  // the core's collapsed list, which the campaign lifts on the fly.
  const std::vector<Fault> core_collapsed =
      collapse_equivalent(core, generate_stuck_at_faults(core));
  EXPECT_EQ(report.soc_faults, 3 * core_collapsed.size());
  EXPECT_EQ(arg(chip[1], "bytes"),
            std::to_string(core_collapsed.capacity() * sizeof(Fault)));
  EXPECT_EQ(arg(chip[2], "faults"), std::to_string(report.soc_faults));
}

TEST(Telemetry, DftFlowWithoutSinkStillTimesStages) {
  const Netlist nl = circuits::make_ripple_adder(8);
  DftFlowOptions options;
  options.atpg.random_patterns = 32;
  options.run_lbist = false;
  const DftFlowReport report = run_dft_flow(nl, options);
  EXPECT_FALSE(report.stage_seconds.empty());
  EXPECT_EQ(report.metrics.entries.size(), 0u);
  // to_json works with an empty snapshot too.
  EXPECT_TRUE(obs::json_valid(report.to_json()));
}

}  // namespace
}  // namespace aidft
