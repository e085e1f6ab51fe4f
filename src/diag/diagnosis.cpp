#include "diag/diagnosis.hpp"

#include <algorithm>
#include <bit>

#include "fsim/campaign.hpp"

namespace aidft {
namespace {

// Rejects a fail log whose shape does not match `nl` and `patterns`; the
// scoring loops index it by pattern block and by the netlist's observe
// points.
void require_matching_log(const Netlist& nl,
                          const std::vector<TestCube>& patterns,
                          const FailLog& log) {
  AIDFT_REQUIRE(log.num_patterns == patterns.size(),
                "fail log does not match pattern set");
  const std::size_t nops = nl.num_observe_points();
  AIDFT_REQUIRE(log.num_observe_points == nops,
                "fail log does not match the netlist's observe points");
  AIDFT_REQUIRE(log.blocks.size() == (patterns.size() + 63) / 64,
                "fail log block count does not match pattern set");
  for (const auto& block : log.blocks) {
    AIDFT_REQUIRE(block.size() == nops,
                  "fail log block width does not match observe points");
  }
}

// The candidates, in input order, that can predict a failure somewhere in
// `log`: those inside the union of the combinational fanin cones of the
// observe points that fail anywhere. A stuck-at effect leaves its site only
// through combinational fanout, and a scan cell captures rather than
// propagates, so the walk stops at DFFs (still marking them: a flop's Q
// stem feeds the cone). A DFF D-pin fault is seen only at its own flop's
// observe point. Every candidate dropped here has tp == 0 on this log.
std::vector<Fault> cone_candidates(const Netlist& nl, const FailLog& log,
                                   const std::vector<Fault>& candidates) {
  const Topology& t = nl.topology();
  const std::size_t nops = nl.num_observe_points();
  std::vector<std::uint64_t> fails(nops, 0);
  for (const auto& block : log.blocks) {
    for (std::size_t op = 0; op < nops; ++op) fails[op] |= block[op];
  }

  enum : std::uint8_t { kInCone = 1, kOwnPointFails = 2 };
  std::vector<std::uint8_t> mark(t.num_gates(), 0);
  std::vector<GateId> stack;
  auto visit = [&](GateId g) {
    if (mark[g] & kInCone) return;
    mark[g] |= kInCone;
    stack.push_back(g);
  };
  for (std::size_t op = 0; op < nops; ++op) {
    if (fails[op] == 0) continue;
    const GateId point = nl.observe_point(op);
    if (is_state_element(t.type(point))) mark[point] |= kOwnPointFails;
    visit(nl.observed_gate(point));
  }
  while (!stack.empty()) {
    const GateId g = stack.back();
    stack.pop_back();
    if (is_state_element(t.type(g))) continue;
    for (GateId f : t.fanin(g)) visit(f);
  }

  std::vector<Fault> kept;
  for (const Fault& c : candidates) {
    AIDFT_REQUIRE(c.gate < t.num_gates() && c.kind == FaultKind::kStuckAt,
                  "diagnosis candidates are stuck-at faults of the netlist");
    const bool d_pin = !c.is_stem() && is_state_element(t.type(c.gate));
    if (mark[c.gate] & (d_pin ? kOwnPointFails : kInCone)) kept.push_back(c);
  }
  return kept;
}

// `diag.candidates_scored` counts the candidates simulated and
// `diag.candidates_pruned` those the cone filter skipped.
void record_pruning(obs::Telemetry* telemetry, obs::Span& span,
                    std::size_t candidates, std::size_t scored) {
  obs::add(telemetry, "diag.candidates_scored", scored);
  obs::add(telemetry, "diag.candidates_pruned", candidates - scored);
  if (span.active()) {
    span.arg("candidates", candidates);
    span.arg("scored", scored);
    span.arg("pruned", candidates - scored);
  }
}

}  // namespace

bool FailLog::any_failure() const {
  for (const auto& block : blocks) {
    for (std::uint64_t w : block) {
      if (w != 0) return true;
    }
  }
  return false;
}

std::size_t FailLog::failing_pattern_count() const {
  std::size_t n = 0;
  for (const auto& block : blocks) {
    std::uint64_t any = 0;
    for (std::uint64_t w : block) any |= w;
    n += static_cast<std::size_t>(__builtin_popcountll(any));
  }
  return n;
}

FailLog simulate_defect(const Netlist& nl, const std::vector<TestCube>& patterns,
                        const Fault& defect) {
  return simulate_defects(nl, patterns, {defect});
}

DiagnosisResult diagnose(const Netlist& nl, const std::vector<TestCube>& patterns,
                         const FailLog& log, const std::vector<Fault>& candidates,
                         obs::Telemetry* telemetry) {
  require_matching_log(nl, patterns, log);
  obs::Span diag_span = obs::span(telemetry, "diag.diagnose", "diag");
  const std::vector<Fault> kept = cone_candidates(nl, log, candidates);
  record_pruning(telemetry, diag_span, candidates.size(), kept.size());
  DiagnosisResult result;
  std::vector<DiagnosisCandidate> scored(kept.size());
  for (std::size_t i = 0; i < kept.size(); ++i) scored[i].fault = kept[i];

  // TP and FP accrue over the points a candidate reaches: a point it does
  // not reach predicts no failure. FN needs no simulation: pred & obs and
  // ~pred & obs partition obs, so FN = |log| - TP.
  run_campaign(nl, kept, patterns, {.drop_limit = 0, .telemetry = telemetry},
               [&](std::size_t ci, std::size_t batch, std::uint64_t,
                   std::span<const OpDiff> pred) {
                 const auto& obs = log.blocks[batch];
                 for (const OpDiff& d : pred) {
                   scored[ci].tp += std::popcount(d.word & obs[d.op]);
                   scored[ci].fp += std::popcount(d.word & ~obs[d.op]);
                 }
                 return false;
               });
  std::uint64_t log_failures = 0;
  for (const auto& block : log.blocks) {
    for (std::uint64_t w : block) log_failures += std::popcount(w);
  }
  for (auto& cand : scored) cand.fn = log_failures - cand.tp;

  for (auto& cand : scored) {
    cand.score = static_cast<double>(cand.tp) -
                 0.5 * static_cast<double>(cand.fp) -
                 0.5 * static_cast<double>(cand.fn);
  }
  // Keep only candidates that explain at least one failure.
  scored.erase(std::remove_if(scored.begin(), scored.end(),
                              [](const DiagnosisCandidate& c) { return c.tp == 0; }),
               scored.end());
  std::sort(scored.begin(), scored.end(),
            [](const DiagnosisCandidate& a, const DiagnosisCandidate& b) {
              if (a.score != b.score) return a.score > b.score;
              if (a.fault.gate != b.fault.gate) return a.fault.gate < b.fault.gate;
              if (a.fault.pin != b.fault.pin) return a.fault.pin < b.fault.pin;
              return a.fault.value < b.fault.value;
            });
  result.ranked = std::move(scored);
  if (diag_span.active()) diag_span.arg("ranked", result.ranked.size());
  return result;
}

FailLog simulate_defects(const Netlist& nl, const std::vector<TestCube>& patterns,
                         const std::vector<Fault>& defects) {
  AIDFT_REQUIRE(!defects.empty(), "need at least one defect");
  for (const Fault& d : defects) {
    AIDFT_REQUIRE(d.kind == FaultKind::kStuckAt,
                  "diagnosis handles stuck-at defects");
  }
  FailLog log;
  log.num_patterns = patterns.size();
  log.num_observe_points = nl.num_observe_points();
  log.blocks.assign((patterns.size() + 63) / 64,
                    std::vector<std::uint64_t>(log.num_observe_points, 0));
  // The defects' failures superpose: union their diffs per batch.
  run_campaign(nl, defects, patterns, {.drop_limit = 0},
               [&](std::size_t, std::size_t batch, std::uint64_t,
                   std::span<const OpDiff> op_diffs) {
                 for (const OpDiff& d : op_diffs) {
                   log.blocks[batch][d.op] |= d.word;
                 }
                 return false;
               });
  return log;
}

MultiDiagnosisResult diagnose_multiplet(const Netlist& nl,
                                        const std::vector<TestCube>& patterns,
                                        const FailLog& log,
                                        const std::vector<Fault>& candidates,
                                        std::size_t max_defects,
                                        obs::Telemetry* telemetry) {
  require_matching_log(nl, patterns, log);
  obs::Span diag_span = obs::span(telemetry, "diag.multiplet", "diag");
  const std::vector<Fault> kept = cone_candidates(nl, log, candidates);
  record_pruning(telemetry, diag_span, candidates.size(), kept.size());
  MultiDiagnosisResult result;

  // Each candidate's predicted failures, kept sparse: one (log word, fail
  // word) pair per point it reaches per batch, where log word b * nops + op
  // flattens the log's blocks. Its mispredictions are measured against the
  // FULL observed log (a second defect may already explain an event this
  // one also predicts), so they are fixed here, once.
  const std::size_t nblocks = log.blocks.size();
  const std::size_t nops = log.num_observe_points;
  struct Predicted {
    std::vector<std::pair<std::size_t, std::uint64_t>> fails;
    std::uint64_t fp = 0;
  };
  std::vector<Predicted> predicted(kept.size());
  run_campaign(nl, kept, patterns, {.drop_limit = 0, .telemetry = telemetry},
               [&](std::size_t ci, std::size_t batch, std::uint64_t,
                   std::span<const OpDiff> op_diffs) {
                 const auto& obs = log.blocks[batch];
                 for (const OpDiff& d : op_diffs) {
                   predicted[ci].fails.emplace_back(batch * nops + d.op,
                                                    d.word);
                   predicted[ci].fp += static_cast<std::uint64_t>(
                       std::popcount(d.word & ~obs[d.op]));
                 }
                 return false;
               });

  // Remaining unexplained failures.
  std::vector<std::uint64_t> remaining(nblocks * nops, 0);
  std::uint64_t total_events = 0;
  for (std::size_t b = 0; b < nblocks; ++b) {
    for (std::size_t op = 0; op < nops; ++op) {
      remaining[b * nops + op] = log.blocks[b][op];
      total_events += static_cast<std::uint64_t>(
          __builtin_popcountll(log.blocks[b][op]));
    }
  }

  // Greedy cover: each pass costs the points the unused candidates reach.
  std::vector<bool> used(kept.size(), false);
  std::uint64_t left = total_events;
  while (result.selected.size() < max_defects && left != 0) {
    std::size_t best = SIZE_MAX;
    std::int64_t best_score = 0;
    std::uint64_t best_tp = 0;
    for (std::size_t ci = 0; ci < kept.size(); ++ci) {
      if (used[ci]) continue;
      std::uint64_t tp = 0;
      for (const auto& [w, word] : predicted[ci].fails) {
        tp += static_cast<std::uint64_t>(std::popcount(word & remaining[w]));
      }
      const std::int64_t score = static_cast<std::int64_t>(2 * tp) -
                                 static_cast<std::int64_t>(predicted[ci].fp);
      if (tp > 0 && score > best_score) {
        best_score = score;
        best = ci;
        best_tp = tp;
      }
    }
    if (best == SIZE_MAX) break;
    used[best] = true;
    DiagnosisCandidate chosen;
    chosen.fault = kept[best];
    chosen.tp = best_tp;
    chosen.fp = predicted[best].fp;
    chosen.score = static_cast<double>(best_score);
    result.selected.push_back(chosen);
    for (const auto& [w, word] : predicted[best].fails) remaining[w] &= ~word;
    left -= best_tp;
  }

  result.unexplained = left;
  result.explained = total_events - left;
  if (diag_span.active()) diag_span.arg("selected", result.selected.size());
  return result;
}

std::size_t DiagnosisResult::rank_of(const Fault& fault) const {
  for (std::size_t i = 0; i < ranked.size(); ++i) {
    if (ranked[i].fault == fault) return i + 1;
  }
  return 0;
}

}  // namespace aidft
