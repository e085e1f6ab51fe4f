#include "core/dft_flow.hpp"

#include <gtest/gtest.h>

#include "aichip/systolic.hpp"
#include "bench_circuits/generators.hpp"
#include "core/chip_flow.hpp"
#include "obs/json.hpp"

namespace aidft {
namespace {

TEST(DftFlow, EndToEndOnRegisteredMac) {
  const Netlist nl = circuits::make_mac(4, /*registered=*/true);
  DftFlowOptions opts;
  opts.scan_chains = 3;
  opts.atpg.random_patterns = 0;  // feed compression pure cubes
  opts.lbist.patterns = 256;
  const DftFlowReport report = run_dft_flow(nl, opts);

  EXPECT_GT(report.faults_total, report.faults_collapsed);
  EXPECT_EQ(report.atpg.aborted, 0u);
  EXPECT_DOUBLE_EQ(report.atpg.test_coverage(), 1.0);
  EXPECT_TRUE(report.compression_ran);
  EXPECT_EQ(report.compression.encode_failures, 0u);
  EXPECT_GT(report.compression.coverage_ideal(), 0.95);
  EXPECT_TRUE(report.lbist_ran);
  EXPECT_GT(report.lbist.coverage(), 0.8);
  EXPECT_GT(report.scan_time.cycles(), 0u);
  const std::string text = report.to_string();
  EXPECT_NE(text.find("atpg:"), std::string::npos);
  EXPECT_NE(text.find("edt:"), std::string::npos);
}

TEST(DftFlow, TransitionAndPowerStagesReport) {
  const Netlist nl = circuits::make_mac(4, /*registered=*/true);
  DftFlowOptions opts;
  opts.run_transition = true;
  opts.run_lbist = false;
  opts.run_compression = false;
  const DftFlowReport report = run_dft_flow(nl, opts);
  ASSERT_TRUE(report.transition_ran);
  EXPECT_EQ(report.transition.aborted, 0u);
  EXPECT_DOUBLE_EQ(report.transition.test_coverage(), 1.0);
  ASSERT_TRUE(report.power_ran);
  EXPECT_GT(report.power.avg_wtm_per_pattern, 0.0);
  const std::string text = report.to_string();
  EXPECT_NE(text.find("trans:"), std::string::npos);
  EXPECT_NE(text.find("power:"), std::string::npos);
}

TEST(DftFlow, CombinationalDesignSkipsCompression) {
  const Netlist nl = circuits::make_alu(4);
  DftFlowOptions opts;
  opts.lbist.patterns = 128;
  const DftFlowReport report = run_dft_flow(nl, opts);
  EXPECT_FALSE(report.compression_ran);  // no flops, nothing to compress
  EXPECT_DOUBLE_EQ(report.atpg.test_coverage(), 1.0);
}

TEST(ChipFlow, BroadcastCoversSocAtCoreCoverage) {
  aichip::SystolicConfig cfg;
  cfg.rows = cfg.cols = 1;
  cfg.width = 3;
  const Netlist core = aichip::make_systolic_array(cfg);
  ChipFlowOptions opts;
  opts.num_cores = 3;
  opts.core_flow.scan_chains = 2;
  opts.core_flow.run_lbist = false;
  opts.core_flow.run_compression = false;
  const ChipFlowReport report = run_chip_flow(core, opts);

  EXPECT_EQ(report.soc_gates, 3 * core.logic_gate_count());
  // Broadcast patterns must cover the SoC exactly as well as the core.
  EXPECT_NEAR(report.broadcast_coverage(), report.core.atpg.fault_coverage(),
              1e-9);
  // Test-time ordering: broadcast < sequential, broadcast < flat.
  EXPECT_LT(report.broadcast_cycles, report.sequential_cycles);
  EXPECT_LT(report.broadcast_cycles, report.flat_cycles);
  EXPECT_NE(report.to_string().find("broadcast"), std::string::npos);
}

TEST(ChipFlow, ReportJsonNestsCoreAndSocFields) {
  aichip::SystolicConfig cfg;
  cfg.rows = cfg.cols = 1;
  cfg.width = 3;
  const Netlist core = aichip::make_systolic_array(cfg);
  ChipFlowOptions opts;
  opts.num_cores = 2;
  opts.core_flow.run_lbist = false;
  opts.core_flow.run_compression = false;
  const ChipFlowReport report = run_chip_flow(core, opts);
  const std::string json = report.to_json();
  EXPECT_TRUE(obs::json_valid(json)) << json;
  EXPECT_EQ(json.rfind("{\"core\":" + report.core.to_json() + ",", 0), 0u);
  for (const std::string key :
       {"soc_gates", "soc_faults", "soc_detected", "broadcast_coverage",
        "soc_grade_outcome", "flat_cycles", "sequential_cycles",
        "broadcast_cycles"}) {
    EXPECT_NE(json.find("\"" + key + "\":"), std::string::npos) << key;
  }
  EXPECT_NE(json.find("\"soc_faults\":" + std::to_string(report.soc_faults)),
            std::string::npos);
}

}  // namespace
}  // namespace aidft
