#include "atpg/atpg.hpp"

#include "netlist/scoap.hpp"

namespace aidft {

void grade_statuses(const Netlist& nl, const std::vector<Fault>& faults,
                    std::vector<FaultStatus>& status,
                    const std::vector<TestCube>& patterns,
                    const CampaignOptions& options, bool recheck_detected) {
  if (patterns.empty()) return;
  std::vector<std::size_t> graded;
  std::vector<Fault> targets;
  for (std::size_t i = 0; i < faults.size(); ++i) {
    if (status[i] == FaultStatus::kUndetected ||
        (recheck_detected && status[i] == FaultStatus::kDetected)) {
      graded.push_back(i);
      targets.push_back(faults[i]);
    }
  }
  const CampaignResult r = run_campaign(nl, targets, patterns, options);
  for (std::size_t k = 0; k < targets.size(); ++k) {
    status[graded[k]] = r.fault_detected(k) ? FaultStatus::kDetected
                                            : FaultStatus::kUndetected;
  }
}

AtpgResult generate_tests(const Netlist& nl, const std::vector<Fault>& faults,
                          const AtpgOptions& options) {
  AIDFT_REQUIRE_CTX(nl.finalized(), "generate_tests",
                    "requires a finalized netlist");
  for (const Fault& f : faults) {
    AIDFT_REQUIRE_CTX(f.kind == FaultKind::kStuckAt, "generate_tests",
                      "handles stuck-at fault lists");
  }

  AtpgResult result;
  result.status.assign(faults.size(), FaultStatus::kUndetected);
  Rng rng(options.seed);
  const std::size_t width = nl.num_combinational_inputs();

  // ---- Phase 1: random patterns with dropping --------------------------
  if (options.random_patterns > 0 && width > 0) {
    obs::Span phase_span =
        obs::span(options.telemetry, "atpg.random_phase", "atpg");
    std::vector<TestCube> random = random_patterns(width, options.random_patterns, rng);
    // Keep only the effective patterns (those that detected something new,
    // i.e. where the coverage curve steps) in the final set.
    CampaignResult campaign =
        run_campaign(nl, faults, random,
                     {.num_threads = options.num_threads,
                      .telemetry = options.telemetry,
                      .run_control = options.run_control});
    result.outcome = campaign.outcome;
    for (std::size_t i = 0; i < faults.size(); ++i) {
      if (campaign.fault_detected(i)) result.status[i] = FaultStatus::kDetected;
    }
    result.random_phase_detected = campaign.detected;
    const std::vector<std::size_t>& curve = campaign.detected_after;
    for (std::size_t p = 0; p < random.size(); ++p) {
      if (curve[p] != (p ? curve[p - 1] : 0)) {
        result.patterns.push_back(std::move(random[p]));
      }
    }
    if (phase_span.active()) {
      phase_span.arg("patterns", options.random_patterns);
      phase_span.arg("detected", result.random_phase_detected);
    }
  }

  // ---- Phase 2: deterministic with dynamic compaction ------------------
  obs::Span phase_span =
      obs::span(options.telemetry, "atpg.deterministic_phase", "atpg");
  const ScoapResult scoap = compute_scoap(nl);
  Podem podem(nl, options.scoap_guidance ? &scoap : nullptr);
  SatAtpg sat(nl);
  PodemOptions podem_opts;
  podem_opts.backtrack_limit = options.podem_backtrack_limit;
  podem_opts.run_control = options.run_control;
  SatAtpgOptions sat_opts{options.sat_conflict_limit, options.telemetry,
                          options.run_control};

  // PODEM search-effort tallies, aggregated from per-call outcomes and
  // flushed to the sink once at phase end.
  std::uint64_t podem_backtracks = 0;
  std::uint64_t podem_decisions = 0;
  std::uint64_t podem_implications = 0;
  std::uint64_t podem_events = 0;
  // Engine calls, each timed into its histogram when a sink is attached
  // (no clock read otherwise). A call that aborts is also timed into
  // `aborted_us` when that is set: what the PODEM budget spends on faults
  // it hands on.
  obs::Histogram* podem_us = nullptr;
  obs::Histogram* podem_abort_us = nullptr;
  obs::Histogram* sat_us = nullptr;
  if (options.telemetry != nullptr) {
    podem_us = &options.telemetry->metrics.histogram("atpg.podem_us");
    podem_abort_us =
        &options.telemetry->metrics.histogram("atpg.podem_abort_us");
    sat_us = &options.telemetry->metrics.histogram("atpg.sat_us");
  }
  auto timed = [](obs::Histogram* histogram, obs::Histogram* aborted_us,
                  auto&& call) {
    if (histogram == nullptr) return call();
    const obs::Stopwatch clock;
    AtpgOutcome o = call();
    const std::uint64_t us = clock.micros();
    histogram->observe(us);
    if (aborted_us != nullptr && o.status == AtpgStatus::kAborted) {
      aborted_us->observe(us);
    }
    return o;
  };
  auto run_podem = [&](const Fault& f) {
    ++result.podem_calls;
    const AtpgOutcome o = timed(podem_us, podem_abort_us,
                                [&] { return podem.generate(f, podem_opts); });
    podem_backtracks += o.backtracks;
    podem_decisions += o.decisions;
    podem_implications += o.implications;
    podem_events += o.events;
    return o;
  };
  auto run_sat = [&](const Fault& f) {
    ++result.sat_calls;
    return timed(sat_us, nullptr, [&] { return sat.generate(f, sat_opts); });
  };

  TestCube open_cube;   // dynamic-compaction accumulator
  bool open_valid = false;
  std::vector<TestCube> pending;  // closed but not yet fault-simulated

  auto flush_pending = [&](bool force) {
    if (force && open_valid) {
      pending.push_back(open_cube);
      open_valid = false;
    }
    if (pending.empty()) return;
    for (const auto& p : pending) result.cubes.push_back(p);
    fill_cubes(pending, options.x_fill, rng);
    grade_statuses(nl, faults, result.status, pending,
                   {.telemetry = options.telemetry});
    for (auto& p : pending) result.patterns.push_back(std::move(p));
    pending.clear();
  };

  for (std::size_t i = 0;
       i < faults.size() && result.outcome == StageOutcome::kCompleted; ++i) {
    if (result.status[i] != FaultStatus::kUndetected) continue;
    if (options.run_control != nullptr) {
      // One counting check per targeted fault: a deadline or cancellation
      // stops the pipeline between faults, so every already-recorded
      // disposition and every pending cube stays valid.
      const StopReason stop = options.run_control->check();
      if (stop != StopReason::kNone) {
        result.outcome = outcome_from(stop);
        break;
      }
    }

    AtpgOutcome outcome;
    switch (options.engine) {
      case AtpgEngine::kPodem:
        outcome = run_podem(faults[i]);
        break;
      case AtpgEngine::kSat:
        outcome = run_sat(faults[i]);
        break;
      case AtpgEngine::kPodemThenSat:
        outcome = run_podem(faults[i]);
        if (outcome.status == AtpgStatus::kAborted) outcome = run_sat(faults[i]);
        break;
    }

    switch (outcome.status) {
      case AtpgStatus::kUntestable:
        result.status[i] = FaultStatus::kUntestable;
        break;
      case AtpgStatus::kAborted:
        result.status[i] = FaultStatus::kAborted;
        break;
      case AtpgStatus::kDetected: {
        result.status[i] = FaultStatus::kDetected;
        if (options.dynamic_compaction) {
          if (open_valid && open_cube.compatible(outcome.cube)) {
            open_cube.merge(outcome.cube);
          } else {
            if (open_valid) pending.push_back(open_cube);
            open_cube = outcome.cube;
            open_valid = true;
          }
          // Periodically close and grade so dropping prunes upcoming work.
          if (pending.size() >= 32) flush_pending(false);
        } else {
          pending.push_back(outcome.cube);
          if (pending.size() >= 32) flush_pending(false);
        }
        break;
      }
    }
  }
  flush_pending(true);
  result.podem_backtracks = podem_backtracks;

  for (FaultStatus s : result.status) {
    if (s == FaultStatus::kDetected) ++result.detected;
    if (s == FaultStatus::kUntestable) ++result.untestable;
    if (s == FaultStatus::kAborted) ++result.aborted;
  }

  if (options.telemetry != nullptr) {
    obs::add(options.telemetry, "podem.calls", result.podem_calls);
    obs::add(options.telemetry, "podem.backtracks", podem_backtracks);
    obs::add(options.telemetry, "podem.decisions", podem_decisions);
    obs::add(options.telemetry, "podem.implications", podem_implications);
    obs::add(options.telemetry, "podem.events", podem_events);
    obs::add(options.telemetry, "sat.calls", result.sat_calls);
    obs::add(options.telemetry, "atpg.patterns", result.patterns.size());
    phase_span.arg("podem_calls", result.podem_calls);
    phase_span.arg("sat_calls", result.sat_calls);
    phase_span.arg("backtracks", podem_backtracks);
    phase_span.arg("detected", result.detected);
  }
  return result;
}

}  // namespace aidft
