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

FaultStatus fault_status(AtpgStatus status) {
  switch (status) {
    case AtpgStatus::kDetected: return FaultStatus::kDetected;
    case AtpgStatus::kUntestable: return FaultStatus::kUntestable;
    case AtpgStatus::kAborted: break;
  }
  return FaultStatus::kAborted;
}

void AtpgDispositions::count() {
  for (FaultStatus s : status) {
    if (s == FaultStatus::kDetected) ++detected;
    if (s == FaultStatus::kUntestable) ++untestable;
    if (s == FaultStatus::kAborted) ++aborted;
  }
}

void AtpgEffort::flush_podem(obs::Telemetry* telemetry) const {
  obs::add(telemetry, "podem.calls", podem_calls);
  obs::add(telemetry, "podem.backtracks", podem_backtracks);
  obs::add(telemetry, "podem.decisions", podem_decisions);
  obs::add(telemetry, "podem.implications", podem_implications);
  obs::add(telemetry, "podem.events", podem_events);
}

AtpgHandOff::AtpgHandOff(const Netlist& netlist, const ScoapResult* scoap,
                         AtpgEngine engine, const PodemOptions& podem,
                         const SatAtpgOptions& sat, obs::Telemetry* timing)
    : podem_(netlist, scoap),
      sat_(podem_),
      engine_(engine),
      podem_opts_(podem),
      sat_opts_(sat) {
  if (timing != nullptr) {
    podem_us_ = &timing->metrics.histogram("atpg.podem_us");
    podem_abort_us_ = &timing->metrics.histogram("atpg.podem_abort_us");
    sat_us_ = &timing->metrics.histogram("atpg.sat_us");
  }
}

template <typename PodemCall, typename SatCall>
AtpgOutcome AtpgHandOff::run(PodemCall podem_call, SatCall sat_call) {
  // A call is timed only when the histograms are set (no clock read
  // otherwise).
  auto timed = [](obs::Histogram* histogram, auto&& call,
                  obs::Histogram* aborted_us = nullptr) {
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
  if (engine_ != AtpgEngine::kSat) {
    ++effort_.podem_calls;
    AtpgOutcome o = timed(podem_us_, podem_call, podem_abort_us_);
    effort_.podem_backtracks += o.backtracks;
    effort_.podem_decisions += o.decisions;
    effort_.podem_implications += o.implications;
    effort_.podem_events += o.events;
    if (engine_ == AtpgEngine::kPodem || o.status != AtpgStatus::kAborted) {
      return o;
    }
  }
  ++effort_.sat_calls;
  return timed(sat_us_, sat_call);
}

AtpgOutcome AtpgHandOff::generate(const Fault& fault) {
  return run([&] { return podem_.generate(fault, podem_opts_); },
             [&] { return sat_.generate(fault, sat_opts_); });
}

AtpgOutcome AtpgHandOff::justify(GateId line, Val3 value) {
  return run([&] { return podem_.justify(line, value, podem_opts_); },
             [&] { return sat_.justify(line, value, sat_opts_); });
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
  AtpgHandOff engines(
      nl, options.scoap_guidance ? &scoap : nullptr, options.engine,
      {.backtrack_limit = options.podem_backtrack_limit,
       .constraints = {},
       .run_control = options.run_control},
      {.telemetry = options.telemetry, .run_control = options.run_control},
      options.telemetry);

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
    fill_cubes(pending, XFill::kRandom, rng);
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
      result.outcome = outcome_from(options.run_control->check());
      if (result.outcome != StageOutcome::kCompleted) break;
    }

    const AtpgOutcome outcome = engines.generate(faults[i]);
    result.status[i] = fault_status(outcome.status);
    if (outcome.status != AtpgStatus::kDetected) continue;
    if (open_valid && open_cube.compatible(outcome.cube)) {
      open_cube.merge(outcome.cube);
    } else {
      if (open_valid) pending.push_back(open_cube);
      open_cube = outcome.cube;
      open_valid = true;
    }
    // Periodically close and grade so dropping prunes upcoming work.
    if (pending.size() >= 32) flush_pending(false);
  }
  flush_pending(true);
  const AtpgEffort& effort = engines.effort();
  result.podem_calls = effort.podem_calls;
  result.podem_backtracks = effort.podem_backtracks;
  result.sat_calls = effort.sat_calls;

  result.count();

  if (options.telemetry != nullptr) {
    effort.flush_podem(options.telemetry);
    obs::add(options.telemetry, "sat.calls", result.sat_calls);
    obs::add(options.telemetry, "atpg.patterns", result.patterns.size());
    phase_span.arg("podem_calls", result.podem_calls);
    phase_span.arg("sat_calls", result.sat_calls);
    phase_span.arg("backtracks", result.podem_backtracks);
    phase_span.arg("detected", result.detected);
  }
  return result;
}

}  // namespace aidft
