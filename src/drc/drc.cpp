#include "drc/drc.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "fault/fault.hpp"
#include "netlist/scoap.hpp"
#include "obs/json.hpp"

namespace aidft {
namespace {

constexpr DrcRule kRules[] = {
    {"D1", "combinational loop", DrcSeverity::kError,
     "A cycle through combinational gates with no flop on the path; the "
     "logic has no stable value and no topological order exists.",
     "Break the loop with a flop, or restructure the feedback logic."},
    {"D2", "undriven or ill-formed pin", DrcSeverity::kError,
     "A gate with missing fanins for its arity, a dangling fanin id, or an "
     "OUTPUT marker used as a driver; the line floats at X forever.",
     "Connect every input pin to a real driver before DFT insertion."},
    {"D3", "floating (unobserved) net", DrcSeverity::kWarning,
     "A gate output that drives nothing and is not a primary output or flop "
     "D input; every fault in its fanin cone that only reaches this net is "
     "untestable.",
     "Observe the net (route to an output or a flop) or delete the dead "
     "logic."},
    {"D4", "X-source reaches a capture point", DrcSeverity::kError,
     "A permanently unknown value (from an undriven pin) propagates to a "
     "primary output or flop D input, so captured responses are "
     "unpredictable and simulation cannot match the tester.",
     "Fix the upstream D2 violation, or block the X with a bypass/test "
     "mode before the capture point."},
    {"D5", "uncontrollable scan-cell state", DrcSeverity::kError,
     "A flop whose D cone contains no primary input or flop output — e.g. "
     "D tied to a constant — so its captured value can never be set from "
     "the pins (the clockless analog of an uncontrollable set/reset).",
     "Drive the D cone from a controllable source, or add a test-mode "
     "override for the tied-off value."},
    {"D6", "scan control pin not primary", DrcSeverity::kWarning,
     "A scan-enable or scan-in that is not a primary input, or a scan-out "
     "that is not a primary output; the tester cannot drive or observe the "
     "chain directly.",
     "Route scan controls to dedicated top-level pins (or a TAP), never "
     "through functional logic."},
    {"D7", "broken or reordered scan chain", DrcSeverity::kError,
     "Tracing the shift path from scan-in disagrees with the scan plan: a "
     "cell is missing its scan mux, the mux select is not scan-enable, the "
     "path jumps to the wrong cell, or cells sit in a different order than "
     "planned.",
     "Restitch the chain to match the plan (or regenerate the plan) so "
     "load/unload mapping matches ATPG's view."},
    {"D8", "inverting scan path segment", DrcSeverity::kWarning,
     "An odd number of inversions between adjacent chain cells (this "
     "toolkit's stand-in for mixed-edge clocking along a chain): shift "
     "data arrives complemented unless the protocol compensates.",
     "Remove the inversion or record it in the scan plan so pattern "
     "load/unload can compensate."},
    {"D9", "SCOAP-proven untestable fault", DrcSeverity::kWarning,
     "A stuck-at fault whose SCOAP measures are unreachable — the line can "
     "provably never take the required value, or no observe point can ever "
     "see it; ATPG will burn effort proving it untestable.",
     "Treat as expected untestables (tie-offs), or add control/observe "
     "test points to recover the coverage."},
};

constexpr std::size_t kNumRules = std::size(kRules);

std::size_t rule_index(const DrcRule* rule) {
  return static_cast<std::size_t>(rule - kRules);
}

// Collects violations with exact per-rule totals and per-rule record caps.
class Sink {
 public:
  Sink(DrcReport& report, const DrcOptions& options)
      : report_(report), options_(options) {
    if (report_.found_per_rule.size() != kNumRules) {
      report_.found_per_rule.assign(kNumRules, 0);
    }
    recorded_.assign(kNumRules, 0);
    for (const DrcViolation& v : report_.violations) {
      ++recorded_[rule_index(v.rule)];
    }
  }

  void emit(const char* rule_id, GateId gate, std::string detail) {
    const DrcRule* rule = find_drc_rule(rule_id);
    AIDFT_ASSERT(rule != nullptr, "unknown DRC rule id");
    const std::size_t idx = rule_index(rule);
    ++report_.found_per_rule[idx];
    if (options_.max_recorded_per_rule != 0 &&
        recorded_[idx] >= options_.max_recorded_per_rule) {
      return;
    }
    ++recorded_[idx];
    report_.violations.push_back(DrcViolation{rule, gate, std::move(detail)});
  }

 private:
  DrcReport& report_;
  const DrcOptions& options_;
  std::vector<std::size_t> recorded_;
};

std::string gate_label(const Netlist& nl, GateId id) {
  std::string s = "gate " + std::to_string(id) + " (";
  s += to_string(nl.type(id));
  const std::string& name = nl.name_of(id);
  if (!name.empty()) {
    s += ", ";
    s += name;
  }
  s += ")";
  return s;
}

// ---- D2: undriven / ill-formed pins --------------------------------------
void check_pins(const Netlist& nl, Sink& sink) {
  for (GateId id = 0; id < nl.num_gates(); ++id) {
    const Gate& g = nl.gate(id);
    const auto [lo, hi] = fanin_range(g.type);
    if (g.fanin.size() < lo) {
      sink.emit("D2", id,
                gate_label(nl, id) + " has " + std::to_string(g.fanin.size()) +
                    " fanin(s), needs at least " + std::to_string(lo) +
                    " — output floats at X");
      continue;
    }
    if (g.fanin.size() > hi) {
      sink.emit("D2", id,
                gate_label(nl, id) + " has " + std::to_string(g.fanin.size()) +
                    " fanin(s), allows at most " + std::to_string(hi));
      continue;
    }
    for (GateId f : g.fanin) {
      if (f >= nl.num_gates()) {
        sink.emit("D2", id,
                  gate_label(nl, id) + " references dangling driver id " +
                      std::to_string(f));
        break;
      }
      if (nl.type(f) == GateType::kOutput) {
        sink.emit("D2", id,
                  gate_label(nl, id) + " is driven by OUTPUT marker " +
                      gate_label(nl, f));
        break;
      }
    }
  }
}

// True when the gate is structurally undriven (its value is X forever);
// used as the X-source set of D4.
bool is_x_source(const Netlist& nl, GateId id) {
  const Gate& g = nl.gate(id);
  return g.fanin.size() < fanin_range(g.type).min;
}

// ---- D1: combinational loops (iterative Tarjan SCC) ----------------------
// Edges follow driver -> sink but never INTO a flop: the D pin terminates a
// path, so any surviving cycle is purely combinational. SCCs of size > 1
// (or with a self-edge) are loops; one violation per SCC.
void check_loops(const Netlist& nl, const Csr& fanout, Sink& sink) {
  const std::size_t n = nl.num_gates();
  constexpr std::uint32_t kUnvisited = 0xFFFFFFFFu;
  std::vector<std::uint32_t> index(n, kUnvisited), lowlink(n, 0);
  std::vector<bool> on_stack(n, false);
  std::vector<GateId> stack;
  std::uint32_t next_index = 0;

  struct Frame {
    GateId gate;
    std::size_t child = 0;
  };
  std::vector<Frame> dfs;

  auto edges = [&](GateId g) { return fanout.row(g); };
  auto edge_ok = [&](GateId s) {
    return !is_state_element(nl.type(s));  // D pins terminate paths
  };

  for (GateId root = 0; root < n; ++root) {
    if (index[root] != kUnvisited) continue;
    dfs.push_back({root});
    index[root] = lowlink[root] = next_index++;
    stack.push_back(root);
    on_stack[root] = true;
    while (!dfs.empty()) {
      Frame& fr = dfs.back();
      const GateId v = fr.gate;
      if (fr.child < edges(v).size()) {
        const GateId w = edges(v)[fr.child++];
        if (!edge_ok(w)) continue;
        if (index[w] == kUnvisited) {
          index[w] = lowlink[w] = next_index++;
          stack.push_back(w);
          on_stack[w] = true;
          dfs.push_back({w});
        } else if (on_stack[w]) {
          lowlink[v] = std::min(lowlink[v], index[w]);
        }
        continue;
      }
      // v complete: pop an SCC if v is its root.
      if (lowlink[v] == index[v]) {
        std::vector<GateId> scc;
        for (;;) {
          const GateId w = stack.back();
          stack.pop_back();
          on_stack[w] = false;
          scc.push_back(w);
          if (w == v) break;
        }
        bool self_loop = false;
        for (GateId s : edges(v)) {
          if (s == v) self_loop = true;
        }
        if (scc.size() > 1 || self_loop) {
          std::sort(scc.begin(), scc.end());
          std::string detail = "combinational cycle through ";
          detail += std::to_string(scc.size());
          detail += " gate(s):";
          for (std::size_t i = 0; i < std::min<std::size_t>(scc.size(), 6); ++i) {
            detail += ' ';
            detail += gate_label(nl, scc[i]);
          }
          if (scc.size() > 6) detail += " ...";
          sink.emit("D1", scc.front(), std::move(detail));
        }
      }
      dfs.pop_back();
      if (!dfs.empty()) {
        lowlink[dfs.back().gate] =
            std::min(lowlink[dfs.back().gate], lowlink[v]);
      }
    }
  }
}

// ---- D3: floating nets ---------------------------------------------------
void check_floating(const Netlist& nl, const Csr& fanout, Sink& sink) {
  for (GateId id = 0; id < nl.num_gates(); ++id) {
    const GateType t = nl.type(id);
    // OUTPUT markers are observation; a flop with unused Q is still fully
    // tested through scan (load via chain, capture observed at its D).
    if (t == GateType::kOutput || t == GateType::kDff) continue;
    if (fanout.row(id).empty()) {
      sink.emit("D3", id,
                gate_label(nl, id) +
                    " drives nothing and is not observed; faults reaching "
                    "only this net are untestable");
    }
  }
}

// ---- D4: X-source propagation to capture points --------------------------
void check_x_sources(const Netlist& nl, const Csr& fanout, Sink& sink) {
  for (GateId src = 0; src < nl.num_gates(); ++src) {
    if (!is_x_source(nl, src)) continue;
    // BFS forward; the X stops at a flop (scan reload re-controls Q) but
    // the D pin itself is a capture point, as is any OUTPUT marker.
    std::vector<bool> seen(nl.num_gates(), false);
    std::vector<GateId> queue{src};
    seen[src] = true;
    std::size_t contaminated = 0;
    GateId capture = kNoGate;
    while (!queue.empty()) {
      const GateId g = queue.back();
      queue.pop_back();
      for (GateId s : fanout.row(g)) {
        const GateType t = nl.type(s);
        if (t == GateType::kOutput || t == GateType::kDff) {
          if (capture == kNoGate) capture = s;
          continue;
        }
        if (!seen[s]) {
          seen[s] = true;
          ++contaminated;
          queue.push_back(s);
        }
      }
    }
    if (nl.type(src) == GateType::kOutput || nl.type(src) == GateType::kDff) {
      capture = src;  // the undriven gate is itself a capture point
    }
    if (capture != kNoGate) {
      sink.emit("D4", src,
                "permanent X from " + gate_label(nl, src) + " reaches " +
                    gate_label(nl, capture) + " (" +
                    std::to_string(contaminated) +
                    " gate(s) contaminated on the way)");
    }
  }
}

// ---- D5: uncontrollable scan-cell state ----------------------------------
void check_uncontrollable_cells(const Netlist& nl, const Csr& fanout,
                                Sink& sink) {
  // Forward reachability from controllable sources (PIs and flop Qs).
  std::vector<bool> controllable(nl.num_gates(), false);
  std::vector<GateId> queue;
  for (GateId id = 0; id < nl.num_gates(); ++id) {
    const GateType t = nl.type(id);
    if (t == GateType::kInput || t == GateType::kDff) {
      controllable[id] = true;
      queue.push_back(id);
    }
  }
  while (!queue.empty()) {
    const GateId g = queue.back();
    queue.pop_back();
    for (GateId s : fanout.row(g)) {
      if (is_state_element(nl.type(s))) continue;  // stop at D pins
      if (!controllable[s]) {
        controllable[s] = true;
        queue.push_back(s);
      }
    }
  }
  for (GateId ff : nl.dffs()) {
    const Gate& g = nl.gate(ff);
    if (g.fanin.empty()) continue;  // D2 territory
    const GateId d = g.fanin[0];
    if (d < nl.num_gates() && !controllable[d]) {
      sink.emit("D5", ff,
                gate_label(nl, ff) + " captures from " + gate_label(nl, d) +
                    ", whose cone contains no primary input or flop output "
                    "— the cell's captured state is pinned");
    }
  }
}

// ---- D9 + summary: SCOAP analysis (finalized netlists only) --------------
void scoap_analysis(const Netlist& nl, Sink& sink, ScoapSummary& summary) {
  const ScoapResult scoap = compute_scoap(nl);

  double sum_cc0 = 0, sum_cc1 = 0, sum_co = 0;
  std::size_t n_cc0 = 0, n_cc1 = 0, n_co = 0;
  std::uint32_t hardest = 0;
  for (GateId id = 0; id < nl.num_gates(); ++id) {
    const GateType t = nl.type(id);
    if (t == GateType::kOutput) continue;  // markers mirror their driver
    if (scoap.cc0[id] < kUnreachable) {
      sum_cc0 += scoap.cc0[id];
      ++n_cc0;
    }
    if (scoap.cc1[id] < kUnreachable) {
      sum_cc1 += scoap.cc1[id];
      ++n_cc1;
    }
    if (scoap.co[id] < kUnreachable) {
      sum_co += scoap.co[id];
      ++n_co;
      summary.max_finite_co = std::max(summary.max_finite_co, scoap.co[id]);
    } else {
      ++summary.unreachable_co;
    }
    const std::uint32_t d0 = scoap.sa_difficulty(id, false);
    const std::uint32_t d1 = scoap.sa_difficulty(id, true);
    const std::uint32_t d = std::max(d0 < kUnreachable ? d0 : 0,
                                     d1 < kUnreachable ? d1 : 0);
    if (d > hardest) {
      hardest = d;
      summary.hardest_gate = id;
    }
  }
  summary.ran = true;
  summary.avg_cc0 = n_cc0 ? sum_cc0 / static_cast<double>(n_cc0) : 0.0;
  summary.avg_cc1 = n_cc1 ? sum_cc1 / static_cast<double>(n_cc1) : 0.0;
  summary.avg_co = n_co ? sum_co / static_cast<double>(n_co) : 0.0;

  // D9: stem faults of the generated universe whose detection is provably
  // impossible. Branch faults are skipped — their observability differs
  // from the stem's and SCOAP only carries stem measures.
  std::vector<GateId> flagged;  // one violation per gate, both polarities
  std::vector<std::uint8_t> polarity(nl.num_gates(), 0);
  for (const Fault& f : generate_stuck_at_faults(nl)) {
    if (!f.is_stem()) continue;
    if (scoap.sa_difficulty(f.gate, f.stuck_at_one()) < kUnreachable) continue;
    if (polarity[f.gate] == 0) flagged.push_back(f.gate);
    polarity[f.gate] |= f.stuck_at_one() ? 2 : 1;
  }
  for (GateId g : flagged) {
    const char* which = polarity[g] == 3   ? "SA0 and SA1"
                        : polarity[g] == 2 ? "SA1"
                                           : "SA0";
    sink.emit("D9", g,
              std::string(which) + " at " + gate_label(nl, g) +
                  " provably untestable (SCOAP controllability or "
                  "observability unreachable)");
  }
}

// Follows BUF/NOT chains upward from `g`, counting inversions. Returns the
// first gate that is neither; `inversions` is the parity accumulated.
GateId resolve_through_inverters(const Netlist& nl, GateId g,
                                 std::size_t& inversions) {
  std::size_t steps = 0;
  while (g < nl.num_gates() && steps++ < nl.num_gates()) {
    const Gate& gg = nl.gate(g);
    if (gg.type == GateType::kBuf && gg.fanin.size() == 1) {
      g = gg.fanin[0];
    } else if (gg.type == GateType::kNot && gg.fanin.size() == 1) {
      ++inversions;
      g = gg.fanin[0];
    } else {
      break;
    }
  }
  return g;
}

}  // namespace

std::string_view to_string(DrcSeverity severity) {
  switch (severity) {
    case DrcSeverity::kInfo: return "info";
    case DrcSeverity::kWarning: return "warning";
    case DrcSeverity::kError: return "error";
  }
  return "?";
}

std::span<const DrcRule> drc_rules() { return {kRules, kNumRules}; }

const DrcRule* find_drc_rule(std::string_view id) {
  for (const DrcRule& r : kRules) {
    if (id == r.id) return &r;
  }
  return nullptr;
}

std::string DrcViolation::to_string() const {
  std::string s = rule->id;
  s += " [";
  s += aidft::to_string(rule->severity);
  s += "] ";
  s += detail;
  s += "  fix: ";
  s += rule->fix_hint;
  return s;
}

std::size_t DrcReport::count(std::string_view rule_id) const {
  const DrcRule* rule = find_drc_rule(rule_id);
  if (rule == nullptr || found_per_rule.size() != kNumRules) return 0;
  return found_per_rule[rule_index(rule)];
}

std::size_t DrcReport::total_found() const {
  std::size_t n = 0;
  for (std::size_t c : found_per_rule) n += c;
  return n;
}

std::size_t DrcReport::errors() const {
  std::size_t n = 0;
  for (std::size_t i = 0; i < found_per_rule.size(); ++i) {
    if (kRules[i].severity == DrcSeverity::kError) n += found_per_rule[i];
  }
  return n;
}

std::string DrcReport::to_string() const {
  std::ostringstream ss;
  ss << "DRC: " << total_found() << " violation(s), " << errors()
     << " error(s), " << rules_run << " rule(s) run\n";
  for (const DrcViolation& v : violations) {
    ss << "  " << v.to_string() << "\n";
  }
  if (violations.size() < total_found()) {
    ss << "  (" << total_found() - violations.size()
       << " more suppressed by the per-rule record cap)\n";
  }
  if (scoap.ran) {
    ss << "scoap: avg cc0 " << scoap.avg_cc0 << ", avg cc1 " << scoap.avg_cc1
       << ", avg co " << scoap.avg_co << ", max finite co "
       << scoap.max_finite_co << ", unobservable gates "
       << scoap.unreachable_co << "\n";
  }
  return ss.str();
}

std::string DrcReport::to_json() const {
  obs::JsonWriter w;
  w.begin_object();
  w.field("rules_run", rules_run);
  w.field("total_found", total_found());
  w.field("errors", errors());
  w.key("counts").begin_object();
  for (std::size_t i = 0; i < found_per_rule.size(); ++i) {
    w.field(kRules[i].id, found_per_rule[i]);
  }
  w.end_object();
  w.key("violations").begin_array();
  for (const DrcViolation& v : violations) {
    w.begin_object();
    w.field("rule", v.rule->id);
    w.field("severity", aidft::to_string(v.rule->severity));
    if (v.gate != kNoGate) w.field("gate", static_cast<std::uint64_t>(v.gate));
    w.field("detail", v.detail);
    w.end_object();
  }
  w.end_array();
  if (scoap.ran) {
    w.key("scoap").begin_object();
    w.field("avg_cc0", scoap.avg_cc0);
    w.field("avg_cc1", scoap.avg_cc1);
    w.field("avg_co", scoap.avg_co);
    w.field("max_finite_co", static_cast<std::uint64_t>(scoap.max_finite_co));
    w.field("unreachable_co", scoap.unreachable_co);
    w.end_object();
  }
  w.end_object();
  return std::move(w).take();
}

DrcReport run_drc(const Netlist& nl, const DrcOptions& options) {
  DrcReport report;
  Sink sink(report, options);
  obs::Span drc_span =
      obs::span(options.telemetry, "drc.netlist_rules", "drc");

  // The rules must accept unfinalized netlists (DRC diagnoses what
  // finalize() would reject), so fanout comes from the shared builder, which
  // skips out-of-range fanin ids (D2 reports them).
  const Csr fanout = build_fanout_csr(nl);
  check_pins(nl, sink);
  check_loops(nl, fanout, sink);
  check_floating(nl, fanout, sink);
  check_x_sources(nl, fanout, sink);
  check_uncontrollable_cells(nl, fanout, sink);
  report.rules_run = 5;

  // SCOAP (rule D9 and the testability summary) needs a finalized netlist.
  if (nl.finalized()) {
    scoap_analysis(nl, sink, report.scoap);
    ++report.rules_run;
  }

  obs::add(options.telemetry, "drc.rules_run", report.rules_run);
  obs::add(options.telemetry, "drc.violations", report.total_found());
  obs::add(options.telemetry, "drc.errors", report.errors());
  if (report.scoap.ran) {
    obs::set_gauge(options.telemetry, "scoap.avg_co",
                   static_cast<std::int64_t>(std::llround(report.scoap.avg_co)));
  }
  if (drc_span.active()) {
    drc_span.arg("violations", report.total_found());
    drc_span.arg("errors", report.errors());
  }
  return report;
}

void check_scan_chains(const ScanNetlist& scan, const ScanPlan& plan,
                       DrcReport& report, const DrcOptions& options) {
  const Netlist& nl = scan.netlist;
  Sink sink(report, options);
  obs::Span drc_span = obs::span(options.telemetry, "drc.scan_rules", "drc");

  // D6: scan control/observe pins must be dedicated primary pins.
  auto require_pin = [&](GateId g, GateType want, const char* what) {
    if (g == kNoGate || g >= nl.num_gates()) {
      sink.emit("D6", kNoGate, std::string(what) + " is missing");
      return;
    }
    if (nl.type(g) != want) {
      sink.emit("D6", g,
                std::string(what) + " is " + gate_label(nl, g) +
                    ", not a primary " +
                    (want == GateType::kInput ? "input" : "output"));
    }
  };
  require_pin(scan.scan_enable, GateType::kInput, "scan-enable");
  for (std::size_t c = 0; c < scan.scan_in.size(); ++c) {
    require_pin(scan.scan_in[c], GateType::kInput,
                ("scan-in si" + std::to_string(c)).c_str());
  }
  for (std::size_t c = 0; c < scan.scan_out.size(); ++c) {
    require_pin(scan.scan_out[c], GateType::kOutput,
                ("scan-out so" + std::to_string(c)).c_str());
  }

  // D7/D8: trace the shift path of every chain against the plan.
  const std::size_t nchains =
      std::min(plan.chains.size(), scan.chain_cells.size());
  if (plan.chains.size() != scan.chain_cells.size()) {
    sink.emit("D7", kNoGate,
              "plan has " + std::to_string(plan.chains.size()) +
                  " chain(s) but the netlist stitches " +
                  std::to_string(scan.chain_cells.size()));
  }
  for (std::size_t c = 0; c < nchains; ++c) {
    const auto& cells = scan.chain_cells[c];
    const auto& planned = plan.chains[c].cells;
    if (cells.size() != planned.size()) {
      sink.emit("D7", kNoGate,
                "chain " + std::to_string(c) + " has " +
                    std::to_string(cells.size()) + " cell(s), plan expects " +
                    std::to_string(planned.size()));
    }
    GateId prev = c < scan.scan_in.size() ? scan.scan_in[c] : kNoGate;
    for (std::size_t i = 0; i < cells.size(); ++i) {
      const GateId ff = cells[i];
      if (ff >= nl.num_gates() || nl.type(ff) != GateType::kDff) {
        sink.emit("D7", ff,
                  "chain " + std::to_string(c) + " position " +
                      std::to_string(i) + " (gate id " + std::to_string(ff) +
                      ") is not a flop");
        prev = ff;
        continue;
      }
      // The logical plan names cells in the pre-insertion netlist; names are
      // cloned 1:1, so a name mismatch means the stitch order differs from
      // the plan even when the wiring is internally consistent.
      if (i < planned.size()) {
        // Compare against the planned cell's name when both sides have one.
        const std::string& got = nl.name_of(ff);
        // The plan may be expressed directly over this netlist (hand-built
        // seeds) or over the pre-insertion netlist (insert_scan output);
        // in both cases matching non-empty names is the contract.
        const GateId want = planned[i];
        if (want < nl.num_gates()) {
          const std::string& want_name = nl.name_of(want);
          if (!got.empty() && !want_name.empty() && got != want_name) {
            sink.emit("D7", ff,
                      "chain " + std::to_string(c) + " position " +
                          std::to_string(i) + " holds '" + got +
                          "' but the plan expects '" + want_name +
                          "' — chain reordered");
          }
        }
      }
      const Gate& g = nl.gate(ff);
      if (g.fanin.empty()) {
        sink.emit("D7", ff,
                  "scan cell " + gate_label(nl, ff) + " has no D connection");
        prev = ff;
        continue;
      }
      std::size_t pre_inv = 0;
      const GateId mux = resolve_through_inverters(nl, g.fanin[0], pre_inv);
      if (mux >= nl.num_gates() || nl.type(mux) != GateType::kMux ||
          nl.gate(mux).fanin.size() != 3) {
        sink.emit("D7", ff,
                  "scan cell " + gate_label(nl, ff) +
                      " has no scan mux in front of D");
        prev = ff;
        continue;
      }
      std::size_t sel_inv = 0;
      const GateId sel =
          resolve_through_inverters(nl, nl.gate(mux).fanin[0], sel_inv);
      if (sel != scan.scan_enable || sel_inv % 2 != 0) {
        sink.emit("D7", ff,
                  "scan mux select of " + gate_label(nl, ff) +
                      " does not follow scan-enable");
      }
      std::size_t path_inv = pre_inv;
      const GateId source =
          resolve_through_inverters(nl, nl.gate(mux).fanin[2], path_inv);
      if (source != prev) {
        sink.emit("D7", ff,
                  "chain " + std::to_string(c) + " position " +
                      std::to_string(i) + ": shift path of " +
                      gate_label(nl, ff) + " traces to " +
                      (source < nl.num_gates() ? gate_label(nl, source)
                                               : "a dangling id") +
                      ", expected " +
                      (prev < nl.num_gates() ? gate_label(nl, prev)
                                             : "scan-in") +
                      " — broken or reordered chain");
      } else if (path_inv % 2 != 0) {
        sink.emit("D8", ff,
                  "shift path into " + gate_label(nl, ff) + " inverts (" +
                      std::to_string(path_inv) + " inversion(s))");
      }
      prev = ff;
    }
    // Chain tail: the scan-out marker must observe the last cell.
    if (c < scan.scan_out.size() && scan.scan_out[c] < nl.num_gates() &&
        !nl.gate(scan.scan_out[c]).fanin.empty()) {
      std::size_t tail_inv = 0;
      const GateId tail = resolve_through_inverters(
          nl, nl.gate(scan.scan_out[c]).fanin[0], tail_inv);
      if (tail != prev) {
        sink.emit("D7", scan.scan_out[c],
                  "scan-out so" + std::to_string(c) + " observes " +
                      (tail < nl.num_gates() ? gate_label(nl, tail)
                                             : "a dangling id") +
                      ", expected the last chain cell");
      } else if (tail_inv % 2 != 0) {
        sink.emit("D8", scan.scan_out[c],
                  "unload path of so" + std::to_string(c) + " inverts");
      }
    }
  }
  report.rules_run += 3;
  obs::add(options.telemetry, "drc.rules_run", 3);
  obs::add(options.telemetry, "drc.scan_chains_checked", nchains);
  if (drc_span.active()) drc_span.arg("chains", nchains);
}

DrcReport run_scan_drc(const ScanNetlist& scan, const ScanPlan& plan,
                       const DrcOptions& options) {
  DrcReport report;
  check_scan_chains(scan, plan, report, options);
  obs::add(options.telemetry, "drc.violations", report.total_found());
  obs::add(options.telemetry, "drc.errors", report.errors());
  return report;
}

}  // namespace aidft
