// DRC subsystem tests: registry integrity, every seeded violation fires
// exactly at its planted site, clean designs stay silent, the flow gates on
// errors, and docs/DRC_RULES.md covers the registry (both directions).
#include "drc/drc.hpp"

#include <algorithm>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "bench_circuits/generators.hpp"
#include "bench_circuits/violations.hpp"
#include "core/dft_flow.hpp"
#include "obs/json.hpp"

namespace aidft {
namespace {

std::vector<GateId> sites_of(const DrcReport& report, std::string_view rule) {
  std::vector<GateId> sites;
  for (const DrcViolation& v : report.violations) {
    if (v.rule->id == rule) sites.push_back(v.gate);
  }
  std::sort(sites.begin(), sites.end());
  return sites;
}

// ---- registry ------------------------------------------------------------

TEST(DrcRegistry, IdsAreUniqueAndOrdered) {
  std::set<std::string> seen;
  std::string prev;
  for (const DrcRule& r : drc_rules()) {
    EXPECT_TRUE(seen.insert(r.id).second) << "duplicate rule id " << r.id;
    EXPECT_LT(prev, r.id) << "registry must stay in ID order";
    prev = r.id;
    EXPECT_NE(r.title, nullptr);
    EXPECT_GT(std::string(r.summary).size(), 20u) << r.id;
    EXPECT_GT(std::string(r.fix_hint).size(), 10u) << r.id;
  }
  EXPECT_GE(drc_rules().size(), 9u);
}

TEST(DrcRegistry, FindRoundTrips) {
  for (const DrcRule& r : drc_rules()) {
    EXPECT_EQ(find_drc_rule(r.id), &r);
  }
  EXPECT_EQ(find_drc_rule("D999"), nullptr);
  EXPECT_EQ(find_drc_rule(""), nullptr);
}

TEST(DrcRegistry, SeededRuleListsCoverEveryRule) {
  // Every registry rule has a seeded-violation circuit in bench_circuits.
  std::set<std::string_view> seeded;
  for (std::string_view r : netlist_violation_rules()) seeded.insert(r);
  for (std::string_view r : scan_violation_rules()) seeded.insert(r);
  for (const DrcRule& r : drc_rules()) {
    EXPECT_TRUE(seeded.count(r.id)) << "no seed circuit for rule " << r.id;
  }
}

// ---- seeded violations fire exactly where planted ------------------------

TEST(DrcSeeded, NetlistRulesFireAtPlantedSites) {
  for (std::string_view rule : netlist_violation_rules()) {
    const SeededViolation seed = make_violation(rule);
    ASSERT_EQ(rule, seed.rule);
    const DrcReport report = run_drc(seed.netlist);
    EXPECT_EQ(report.count(rule), seed.sites.size()) << "rule " << rule;
    std::vector<GateId> expected = seed.sites;
    std::sort(expected.begin(), expected.end());
    EXPECT_EQ(sites_of(report, rule), expected) << "rule " << rule;
    // The violation line carries the rule ID and is self-contained.
    for (const DrcViolation& v : report.violations) {
      if (v.rule->id != rule) continue;
      EXPECT_NE(v.to_string().find(rule), std::string::npos);
      EXPECT_NE(v.detail.find("gate"), std::string::npos);
    }
  }
}

TEST(DrcSeeded, ScanRulesFireAtPlantedSites) {
  for (std::string_view rule : scan_violation_rules()) {
    const SeededScanViolation seed = make_scan_violation(rule);
    ASSERT_EQ(rule, seed.rule);
    const DrcReport report = run_scan_drc(seed.scan, seed.plan);
    EXPECT_EQ(report.count(rule), seed.sites.size()) << "rule " << rule;
    std::vector<GateId> expected = seed.sites;
    std::sort(expected.begin(), expected.end());
    EXPECT_EQ(sites_of(report, rule), expected) << "rule " << rule;
  }
}

TEST(DrcSeeded, EachScanSeedTripsOnlyItsOwnScanRule) {
  for (std::string_view rule : scan_violation_rules()) {
    const SeededScanViolation seed = make_scan_violation(rule);
    const DrcReport report = run_scan_drc(seed.scan, seed.plan);
    for (std::string_view other : scan_violation_rules()) {
      if (other == rule) continue;
      EXPECT_EQ(report.count(other), 0u)
          << "seed for " << rule << " also tripped " << other;
    }
  }
}

TEST(DrcSeeded, UnfinalizableSeedsWouldThrowInFinalize) {
  // The D1/D2/D4 defects are exactly the ones finalize() rejects — DRC
  // exists to report them with rule IDs instead of an exception.
  for (const char* rule : {"D1", "D2", "D4"}) {
    SeededViolation seed = make_violation(rule);
    ASSERT_FALSE(seed.netlist.finalized());
    EXPECT_THROW(seed.netlist.finalize(), Error) << rule;
  }
  for (const char* rule : {"D3", "D5", "D9"}) {
    EXPECT_TRUE(make_violation(rule).netlist.finalized()) << rule;
  }
}

TEST(DrcSeeded, UnfinalizedDanglingPinsReportD2ViaSharedFanoutBuilder) {
  // A MUX missing its data1 pin and a BUF with no driver, both feeding
  // logic: finalize() would reject this netlist, and DRC walks it through
  // build_fanout_csr(). The sanitizer jobs run this to catch any
  // out-of-range read on the missing pins.
  Netlist nl("dangling");
  const GateId a = nl.add_input("a");
  const GateId b = nl.add_input("b");
  const GateId mux = nl.add_gate(GateType::kMux, {a, b}, "mux");
  const GateId buf = nl.add_gate(GateType::kBuf, "buf");
  const GateId g = nl.add_gate(GateType::kAnd, {mux, buf, mux}, "g");
  const GateId y = nl.add_output(g, "y");
  ASSERT_FALSE(nl.finalized());

  const Csr fanout = build_fanout_csr(nl);
  ASSERT_EQ(fanout.offsets.size(), nl.num_gates() + 1);
  EXPECT_EQ(fanout.edges.size(), 6u);
  EXPECT_EQ(fanout.row_size(buf), 1u);
  EXPECT_EQ(fanout.row_size(mux), 2u);  // one entry per edge
  EXPECT_EQ(fanout.row_size(y), 0u);

  const DrcReport report = run_drc(nl);
  EXPECT_EQ(sites_of(report, "D2"), (std::vector<GateId>{mux, buf}));
}

// ---- clean designs stay silent -------------------------------------------

TEST(DrcClean, StandardSuiteHasZeroFindings) {
  for (const auto& [name, nl] : circuits::standard_suite()) {
    const DrcReport report = run_drc(nl);
    EXPECT_EQ(report.total_found(), 0u)
        << name << ":\n"
        << report.to_string();
    EXPECT_TRUE(report.clean());
    EXPECT_TRUE(report.scoap.ran) << name;
  }
}

TEST(DrcClean, RedundantCircuitIsScoapSilent) {
  // make_redundant()'s untestable fault comes from reconvergence, which
  // structural SCOAP cannot prove — D9 only flags guaranteed untestables,
  // so the redundant circuit must NOT be flagged (no false positives).
  const DrcReport report = run_drc(circuits::make_redundant());
  EXPECT_EQ(report.total_found(), 0u) << report.to_string();
}

TEST(DrcClean, InsertedScanChainsPassIntegrityAudit) {
  for (const auto& [name, nl] : circuits::standard_suite()) {
    if (nl.dffs().empty()) continue;
    const ScanPlan plan = plan_scan_chains(nl, 2);
    const ScanNetlist scan = insert_scan(nl, plan);
    const DrcReport report = run_scan_drc(scan, plan);
    EXPECT_EQ(report.total_found(), 0u)
        << name << ":\n"
        << report.to_string();
  }
}

// ---- report plumbing -----------------------------------------------------

TEST(DrcReportTest, CountsStayExactWhenRecordingIsCapped) {
  // A netlist with many floating gates: exact counts, capped records.
  Netlist nl("many_floats");
  const GateId a = nl.add_input("a");
  nl.add_output(nl.add_gate(GateType::kNot, {a}, "keep"), "out");
  for (int i = 0; i < 10; ++i) {
    nl.add_gate(GateType::kBuf, {a}, "dead" + std::to_string(i));
  }
  nl.finalize();
  DrcOptions options;
  options.max_recorded_per_rule = 3;
  const DrcReport report = run_drc(nl, options);
  EXPECT_EQ(report.count("D3"), 10u);
  EXPECT_EQ(sites_of(report, "D3").size(), 3u);
  EXPECT_NE(report.to_string().find("suppressed"), std::string::npos);
}

TEST(DrcReportTest, JsonIsValidAndCarriesViolations) {
  const SeededViolation seed = make_violation("D3");
  const DrcReport report = run_drc(seed.netlist);
  const std::string json = report.to_json();
  EXPECT_TRUE(obs::json_valid(json)) << json;
  EXPECT_NE(json.find("\"D3\""), std::string::npos);
  EXPECT_NE(json.find("\"scoap\""), std::string::npos);
}

TEST(DrcReportTest, TelemetryCountersEmitted) {
  obs::Telemetry telemetry;
  DrcOptions options;
  options.telemetry = &telemetry;
  run_drc(make_violation("D3").netlist, options);
  const auto snapshot = telemetry.metrics.snapshot();
  EXPECT_GE(snapshot.counter_value("drc.violations"), 1u);
  EXPECT_GE(snapshot.counter_value("drc.rules_run"), 5u);
}

// ---- flow integration ----------------------------------------------------

TEST(DrcFlow, ErrorSeedsAbortTheFlowWithTheViolationReported) {
  for (std::string_view rule : netlist_violation_rules()) {
    const SeededViolation seed = make_violation(rule);
    const DrcRule* r = find_drc_rule(rule);
    ASSERT_NE(r, nullptr);
    DftFlowOptions options;
    options.atpg.random_patterns = 16;
    options.lbist.patterns = 16;
    const DftFlowReport report = run_dft_flow(seed.netlist, options);
    ASSERT_TRUE(report.drc_ran);
    EXPECT_EQ(report.drc.count(rule), seed.sites.size()) << "rule " << rule;
    EXPECT_EQ(sites_of(report.drc, rule), seed.sites) << "rule " << rule;
    if (r->severity == DrcSeverity::kError) {
      EXPECT_TRUE(report.drc_aborted) << rule;
      EXPECT_TRUE(report.atpg.patterns.empty()) << rule;
      EXPECT_NE(report.to_string().find("ABORTED"), std::string::npos);
    } else {
      // Warnings are reported but do not block pattern generation.
      EXPECT_FALSE(report.drc_aborted) << rule;
    }
    EXPECT_TRUE(obs::json_valid(report.to_json())) << rule;
  }
}

TEST(DrcFlow, AcceptsUnfinalizedCleanNetlistAndRunsToCompletion) {
  // Same construction as the c17 generator but never finalized: DRC clears
  // it, the flow finalizes a copy and generates patterns.
  Netlist nl("c17_raw");
  const GateId i1 = nl.add_input("1"), i2 = nl.add_input("2");
  const GateId i3 = nl.add_input("3"), i6 = nl.add_input("6");
  const GateId i7 = nl.add_input("7");
  const GateId g10 = nl.add_gate(GateType::kNand, {i1, i3});
  const GateId g11 = nl.add_gate(GateType::kNand, {i3, i6});
  const GateId g16 = nl.add_gate(GateType::kNand, {i2, g11});
  const GateId g19 = nl.add_gate(GateType::kNand, {g11, i7});
  const GateId g22 = nl.add_gate(GateType::kNand, {g10, g16});
  const GateId g23 = nl.add_gate(GateType::kNand, {g16, g19});
  nl.add_output(g22, "22");
  nl.add_output(g23, "23");
  ASSERT_FALSE(nl.finalized());
  DftFlowOptions options;
  options.atpg.random_patterns = 32;
  options.run_lbist = false;
  const DftFlowReport report = run_dft_flow(nl, options);
  EXPECT_TRUE(report.drc_ran);
  EXPECT_FALSE(report.drc_aborted);
  EXPECT_EQ(report.drc.total_found(), 0u) << report.drc.to_string();
  EXPECT_GT(report.atpg.fault_coverage(), 0.9);
  EXPECT_FALSE(nl.finalized()) << "caller's netlist must stay untouched";
}

TEST(DrcFlow, UnfinalizedInputRequiresDrcStage) {
  Netlist nl("raw");
  nl.add_output(nl.add_input("a"), "out");
  DftFlowOptions options;
  options.run_drc = false;
  EXPECT_THROW(run_dft_flow(nl, options), Error);
}

TEST(DrcFlow, CleanSequentialFlowRunsScanSelfAudit) {
  DftFlowOptions options;
  options.atpg.random_patterns = 32;
  options.lbist.patterns = 32;
  const DftFlowReport report =
      run_dft_flow(circuits::make_counter(4), options);
  ASSERT_TRUE(report.drc_ran);
  EXPECT_EQ(report.drc.total_found(), 0u) << report.drc.to_string();
  // Netlist rules + SCOAP + the three scan-integrity rules all ran.
  EXPECT_GE(report.drc.rules_run, 9u);
  ASSERT_FALSE(report.stage_seconds.empty());
  EXPECT_EQ(report.stage_seconds.front().first, std::string("flow.drc"));
}

// ---- docs cross-reference ------------------------------------------------

TEST(DrcDocs, RuleReferenceCoversRegistryExactly) {
  const std::string path = std::string(AIDFT_DOCS_DIR) + "/DRC_RULES.md";
  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << "cannot open " << path;
  std::stringstream buffer;
  buffer << in.rdbuf();
  const std::string doc = buffer.str();

  // Documented rule IDs: every "## <ID> — ..." section heading.
  std::set<std::string> documented;
  std::istringstream lines(doc);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.rfind("## D", 0) == 0) {
      const std::size_t end = line.find_first_of(" \t", 3);
      documented.insert(line.substr(3, end == std::string::npos
                                           ? std::string::npos
                                           : end - 3));
    }
  }
  for (const DrcRule& r : drc_rules()) {
    EXPECT_TRUE(documented.count(r.id))
        << "rule " << r.id << " missing from docs/DRC_RULES.md";
    documented.erase(r.id);
  }
  EXPECT_TRUE(documented.empty())
      << "docs/DRC_RULES.md documents unknown rule " << *documented.begin();
  // Severities in the doc must match the registry.
  for (const DrcRule& r : drc_rules()) {
    const std::string marker = std::string("**Severity:** ") +
                               std::string(to_string(r.severity));
    const std::size_t section = doc.find("## " + std::string(r.id) + " ");
    ASSERT_NE(section, std::string::npos) << r.id;
    const std::size_t next = doc.find("\n## ", section + 1);
    const std::string body = doc.substr(
        section, next == std::string::npos ? std::string::npos
                                           : next - section);
    EXPECT_NE(body.find(marker), std::string::npos)
        << r.id << " doc severity disagrees with registry ("
        << to_string(r.severity) << ")";
  }
}

}  // namespace
}  // namespace aidft
