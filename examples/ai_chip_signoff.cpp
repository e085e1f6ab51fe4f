// AI-chip DFT sign-off: the tutorial's headline scenario end to end.
//
// Generates a gate-level systolic MAC array (the AI-accelerator core), runs
// the core-level DFT flow once, replicates the core into an N-core SoC,
// broadcasts the core patterns to every instance, measures coverage on the
// real SoC netlist, and prints the flat / sequential / broadcast test-time
// table — the quantitative version of "identical cores make AI chips cheap
// to test".
//
// The flow opens with the DFT DRC stage (docs/DRC_RULES.md); findings are
// part of both the text report and the --json output, and a design with
// error-severity violations aborts before pattern generation.
//
// Long runs are steerable: --time-budget-sec caps wall time, Ctrl-C cancels
// cooperatively, and --checkpoint/--resume protect the SoC-grade campaign
// (the longest stage) against lost work. An interrupted or expired run still
// prints a well-formed partial report and exits 3. A bad argument or a
// library error (say, an unreadable --resume checkpoint) prints its message
// and exits 2.
//
//   ./ai_chip_signoff [num_cores] [--json] [--trace <file>] [--no-drc]
//                     [--time-budget-sec <s>] [--checkpoint <file>]
//                     [--resume <file>]
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "aichip/systolic.hpp"
#include "common/error.hpp"
#include "common/run_control.hpp"
#include "netlist/stats.hpp"
#include "core/chip_flow.hpp"
#include "obs/telemetry.hpp"

namespace {

void print_usage(std::FILE* out, const char* prog) {
  std::fprintf(out,
               "usage: %s [num_cores] [--json] [--trace <file>] [--no-drc] "
               "[--time-budget-sec <s>] [--checkpoint <file>] "
               "[--resume <file>] [--help]\n"
               "\n"
               "  num_cores       number of replicated accelerator cores "
               "(default 8)\n"
               "  --json          print the chip report as JSON (the "
               "core-flow report with\n"
               "                  its DRC findings, plus SoC coverage and "
               "test time) after\n"
               "                  the text table\n"
               "  --trace <file>  attach a telemetry sink and write a "
               "Chrome-trace JSON of\n"
               "                  the whole flow; open it at "
               "https://ui.perfetto.dev\n"
               "  --no-drc        skip the DFT design-rule check stage "
               "(docs/DRC_RULES.md)\n"
               "  --time-budget-sec <s>\n"
               "                  wall-clock budget for the whole run; on "
               "expiry every stage\n"
               "                  returns its partial result and the exit "
               "code is 3\n"
               "  --checkpoint <file>\n"
               "                  periodically checkpoint the SoC-grade "
               "campaign (and on\n"
               "                  interrupt/expiry) so a later --resume "
               "loses no work\n"
               "  --resume <file> resume the SoC-grade campaign from a "
               "checkpoint written\n"
               "                  by --checkpoint; bit-identical to an "
               "uninterrupted run\n"
               "  --help          show this message and exit\n"
               "\n"
               "Ctrl-C requests cooperative cancellation: the run stops at "
               "the next probe\n"
               "point, writes the checkpoint (with --checkpoint), prints the "
               "partial\n"
               "report, and exits 3. A bad argument or an unreadable "
               "checkpoint exits 2.\n",
               prog);
}

// Signal handling needs static storage; request_cancel() is a lock-free
// atomic store, safe inside a signal handler.
aidft::RunControl g_run_control;

extern "C" void handle_sigint(int) { g_run_control.request_cancel(); }

}  // namespace

int run_signoff(int argc, char** argv) {
  using namespace aidft;
  std::size_t num_cores = 8;
  bool emit_json = false;
  bool run_drc = true;
  double time_budget_sec = 0.0;
  std::string trace_path;
  std::string checkpoint_path;
  std::string resume_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) {
      emit_json = true;
    } else if (std::strcmp(argv[i], "--no-drc") == 0) {
      run_drc = false;
    } else if (std::strcmp(argv[i], "--help") == 0 ||
               std::strcmp(argv[i], "-h") == 0) {
      print_usage(stdout, argv[0]);
      return 0;
    } else if (std::strcmp(argv[i], "--trace") == 0) {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "--trace needs a file argument\n");
        return 2;
      }
      trace_path = argv[++i];
    } else if (std::strcmp(argv[i], "--time-budget-sec") == 0) {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "--time-budget-sec needs a seconds argument\n");
        return 2;
      }
      time_budget_sec = std::atof(argv[++i]);
      if (time_budget_sec <= 0.0) {
        std::fprintf(stderr, "--time-budget-sec must be positive\n");
        return 2;
      }
    } else if (std::strcmp(argv[i], "--checkpoint") == 0) {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "--checkpoint needs a file argument\n");
        return 2;
      }
      checkpoint_path = argv[++i];
    } else if (std::strcmp(argv[i], "--resume") == 0) {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "--resume needs a file argument\n");
        return 2;
      }
      resume_path = argv[++i];
    } else if (argv[i][0] == '-') {
      print_usage(stderr, argv[0]);
      return 2;
    } else {
      num_cores = static_cast<std::size_t>(std::atoi(argv[i]));
    }
  }

  aichip::SystolicConfig core_cfg;
  core_cfg.rows = 2;
  core_cfg.cols = 2;
  core_cfg.width = 4;
  const Netlist core = aichip::make_systolic_array(core_cfg);
  std::printf("core '%s': %s\n", core.name().c_str(),
              compute_stats(core).to_string().c_str());
  std::printf("replicating into a %zu-core accelerator...\n\n", num_cores);

  ChipFlowOptions options;
  options.num_cores = num_cores;
  options.core_flow.run_drc = run_drc;
  options.core_flow.scan_chains = 8;
  options.core_flow.atpg.random_patterns = 64;
  options.core_flow.lbist.patterns = 256;
  options.tester.channels = 8;
  options.soc_checkpoint_path = checkpoint_path;
  options.soc_resume_from = resume_path;

  // Run control: Ctrl-C always cancels cooperatively; a time budget is
  // opt-in. The disabled-path cost of carrying the handle is one pointer
  // compare per probe site, so it is attached unconditionally.
  options.core_flow.run_control = &g_run_control;
  if (time_budget_sec > 0.0) g_run_control.set_time_budget(time_budget_sec);
  std::signal(SIGINT, handle_sigint);

  obs::Telemetry telemetry;
  if (emit_json || !trace_path.empty()) {
    options.core_flow.telemetry = &telemetry;
  }

  const ChipFlowReport report = run_chip_flow(core, options);
  if (report.core.drc_ran) {
    std::printf("DRC verdict: %s (%zu rule%s, %zu finding%s)\n",
                report.core.drc_aborted ? "FAILED — flow aborted"
                : report.core.drc.clean() && report.core.drc.total_found() == 0
                    ? "clean"
                    : "warnings only",
                report.core.drc.rules_run,
                report.core.drc.rules_run == 1 ? "" : "s",
                report.core.drc.total_found(),
                report.core.drc.total_found() == 1 ? "" : "s");
  }
  std::printf("%s\n", report.to_string().c_str());
  if (report.core.drc_aborted) {
    if (emit_json) std::printf("%s\n", report.to_json().c_str());
    return 1;
  }

  const double speedup =
      static_cast<double>(report.sequential_cycles) /
      static_cast<double>(report.broadcast_cycles == 0 ? 1
                                                       : report.broadcast_cycles);
  std::printf("broadcast speedup over per-core sequential test: %.1fx\n",
              speedup);

  if (emit_json) {
    std::printf("%s\n", report.to_json().c_str());
  }
  if (!trace_path.empty()) {
    if (!telemetry.trace.write_chrome_json(trace_path)) {
      std::fprintf(stderr, "failed to write trace to %s\n", trace_path.c_str());
      return 1;
    }
    std::printf("trace with %zu events written to %s (open in Perfetto)\n",
                telemetry.trace.event_count(), trace_path.c_str());
  }

  // A cancelled or expired run still printed a well-formed partial report;
  // the exit code tells scripts it is not a full signoff.
  if (report.core.degraded() ||
      report.soc_grade_outcome != StageOutcome::kCompleted) {
    std::fprintf(stderr, "run stopped early (%s) — the report above is a "
                         "partial result, not a full signoff\n",
                 g_run_control.cancel_requested() ? "cancelled"
                                                  : "time budget expired");
    if (!checkpoint_path.empty() &&
        report.soc_grade_outcome != StageOutcome::kCompleted) {
      std::fprintf(stderr, "SoC-grade checkpoint written to %s — rerun with "
                           "--resume %s to continue\n",
                   checkpoint_path.c_str(), checkpoint_path.c_str());
    }
    return 3;
  }
  return 0;
}

int main(int argc, char** argv) {
  try {
    return run_signoff(argc, argv);
  } catch (const aidft::Error& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 2;
  }
}
