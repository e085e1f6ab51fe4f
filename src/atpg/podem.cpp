#include "atpg/podem.hpp"

#include <algorithm>
#include <limits>
#include <utility>

namespace aidft {
namespace {

constexpr std::size_t kNpos = std::numeric_limits<std::size_t>::max();

Val3 bool_to_val(bool b) { return b ? Val3::kOne : Val3::kZero; }

bool both_known_diff(Val3 a, Val3 b) {
  return is_known(a) && is_known(b) && a != b;
}

// Non-controlling value used as the side-input objective of a frontier gate.
Val3 noncontrolling(GateType t) {
  switch (t) {
    case GateType::kAnd:
    case GateType::kNand:
      return Val3::kOne;
    case GateType::kOr:
    case GateType::kNor:
      return Val3::kZero;
    default:
      return Val3::kZero;  // XOR family and MUX: any known value can work
  }
}

}  // namespace

Podem::Podem(const Netlist& netlist, const ScoapResult* scoap)
    : nl_(&netlist), scoap_(scoap), scope_(netlist.topology()) {
  AIDFT_REQUIRE(netlist.finalized(), "Podem requires finalized netlist");
  topo_ = &netlist.topology();
  comb_inputs_ = netlist.combinational_inputs();
  input_index_.assign(netlist.num_gates(), kNpos);
  for (std::size_t i = 0; i < comb_inputs_.size(); ++i) {
    input_index_[comb_inputs_[i]] = i;
  }
  observed_flag_.assign(netlist.num_gates(), false);
  for (GateId op : netlist.observe_points()) {
    observed_flag_[netlist.observed_gate(op)] = true;
  }
  assignment_.assign(comb_inputs_.size(), Val3::kX);
  good_.assign(netlist.num_gates(), Val3::kX);
  faulty_.assign(netlist.num_gates(), Val3::kX);
  buckets_.resize(topo_->num_levels() + 1);
  queued_.assign(netlist.num_gates(), 0);
  visit_.assign(netlist.num_gates(), 0);
}

void Podem::assign(std::size_t idx, Val3 v) {
  assignment_[idx] = v;
  touched_.push_back(idx);
}

bool Podem::evaluate(GateId g) {
  ++events_;
  const Topology& t = *topo_;
  const GateType type = t.type(g);
  const std::span<const GateId> fin = t.fanin(g);
  const bool source = type == GateType::kInput || type == GateType::kDff;
  const Val3 good =
      source ? assignment_[input_index_[g]]
             : eval_gate3(type, fin.size(),
                          [&](std::size_t k) { return good_[fin[k]]; });
  Val3 faulty = good;
  if (scope_.in_cone(g)) {
    if (g == fault_.gate) {
      faulty = fault_.is_stem()
                   ? stuck_
                   : eval_gate3(type, fin.size(), [&](std::size_t k) {
                       return k == fault_.pin ? stuck_ : faulty_[fin[k]];
                     });
    } else if (!source) {
      faulty = eval_gate3(type, fin.size(),
                          [&](std::size_t k) { return faulty_[fin[k]]; });
    }
  }
  const bool changed = good != good_[g] || faulty != faulty_[g];
  good_[g] = good;
  faulty_[g] = faulty;
  return changed;
}

void Podem::imply_all() {
  ++implications_;
  touched_.clear();
  for (GateId g : scope_.support()) evaluate(g);
}

void Podem::imply(std::span<const GateId> seeds) {
  ++implications_;
  const Topology& t = *topo_;
  // Levels [lo, hi] hold queued gates; the levelized loop visits only them.
  std::uint32_t lo = std::numeric_limits<std::uint32_t>::max();
  std::uint32_t hi = 0;
  auto enqueue = [&](GateId g) {
    if (queued_[g]) return;
    queued_[g] = 1;
    const std::uint32_t lvl = t.level(g);
    buckets_[lvl].push_back(g);
    lo = std::min(lo, lvl);
    hi = std::max(hi, lvl);
  };
  auto enqueue_fanouts = [&](GateId g) {
    for (GateId s : t.fanout(g)) {
      // A D pin is captured, not propagated; nothing outside the support
      // is ever read.
      if (scope_.in_support(s) && !is_state_element(t.type(s))) enqueue(s);
    }
  };
  for (GateId g : seeds) enqueue(g);
  for (std::size_t idx : touched_) {
    const GateId g = comb_inputs_[idx];
    if (scope_.in_support(g) && evaluate(g)) enqueue_fanouts(g);
  }
  touched_.clear();
  for (std::uint32_t lvl = lo; lvl <= hi; ++lvl) {
    std::vector<GateId>& bucket = buckets_[lvl];
    for (std::size_t i = 0; i < bucket.size(); ++i) {
      const GateId g = bucket[i];
      queued_[g] = 0;
      if (evaluate(g)) enqueue_fanouts(g);
    }
    bucket.clear();
  }
}

void Podem::imply_from_x() {
  for (GateId g : scope_.support()) {
    good_[g] = Val3::kX;
    faulty_[g] = Val3::kX;
  }
  // With every fanin X, every gate but a constant and the fault site (its
  // forced value) evaluates to X, as does every input but a constrained
  // one: those are the only gates that can leave X, and events from them
  // reach what a full levelized pass would compute.
  seeds_.assign(scope_.constants().begin(), scope_.constants().end());
  if (!scope_.dpin()) seeds_.push_back(fault_.gate);
  imply(seeds_);
}

bool Podem::fault_activated() const {
  const Val3 line = good_[scope_.line()];
  return is_known(line) && line != stuck_;
}

bool Podem::detected() const {
  if (scope_.dpin()) return fault_activated();  // captured directly
  for (GateId og : cone_observed_) {
    if (both_known_diff(good_[og], faulty_[og])) return true;
  }
  return false;
}

bool Podem::x_path_exists() const {
  // From every D-frontier gate, search forward through cone gates whose
  // output is not yet both-known toward an observe gate. A gate is visited
  // in this call when its mark equals the call's epoch.
  if (dfrontier_.empty()) return false;
  if (++visit_epoch_ == 0) {
    std::fill(visit_.begin(), visit_.end(), 0);
    visit_epoch_ = 1;
  }
  stack_ = dfrontier_;
  for (GateId g : stack_) visit_[g] = visit_epoch_;
  auto is_open = [&](GateId g) {
    return scope_.in_cone(g) && (!is_known(good_[g]) || !is_known(faulty_[g]));
  };
  while (!stack_.empty()) {
    const GateId g = stack_.back();
    stack_.pop_back();
    if (observed_flag_[g]) return true;
    for (GateId s : topo_->fanout(g)) {
      if (is_state_element(topo_->type(s))) {
        // Fault effect reaching a D pin is captured and observed.
        return true;
      }
      if (visit_[s] != visit_epoch_ && is_open(s)) {
        visit_[s] = visit_epoch_;
        stack_.push_back(s);
      }
    }
  }
  return false;
}

bool Podem::pick_objective(GateId& obj_gate, Val3& obj_val) const {
  const GateId line = scope_.line();
  if (!is_known(good_[line])) {
    obj_gate = line;
    obj_val = not3(stuck_);
    return true;
  }
  // Advance the D-frontier: pick the frontier gate with the best (lowest)
  // observability and target a good-machine-X input at its non-controlling
  // value.
  GateId best = kNoGate;
  std::uint32_t best_score = std::numeric_limits<std::uint32_t>::max();
  const Topology& t = *topo_;
  for (GateId g : dfrontier_) {
    const std::uint32_t score =
        scoap_ ? scoap_->co[g] : (nl_->num_levels() - t.level(g));
    if (score < best_score) {
      // Must have a good-X input we can steer.
      bool has_x = false;
      for (GateId f : t.fanin(g)) {
        if (!is_known(good_[f])) {
          has_x = true;
          break;
        }
      }
      if (!has_x) continue;
      best = g;
      best_score = score;
    }
  }
  if (best == kNoGate) return false;
  const GateType best_type = t.type(best);
  const std::span<const GateId> best_fanin = t.fanin(best);
  // For MUX, route the differing data input through the select.
  if (best_type == GateType::kMux && !is_known(good_[best_fanin[0]])) {
    obj_gate = best_fanin[0];
    obj_val = both_known_diff(good_[best_fanin[2]], faulty_[best_fanin[2]])
                  ? Val3::kOne
                  : Val3::kZero;
    return true;
  }
  // Target the hardest-to-control X input first (SCOAP cc of the
  // non-controlling value): if the difficult requirement is unsatisfiable
  // the search fails before effort is sunk into the easy ones.
  const Val3 want = noncontrolling(best_type);
  GateId obj = kNoGate;
  std::uint32_t obj_cost = 0;
  for (GateId f : best_fanin) {
    if (is_known(good_[f])) continue;
    const std::uint32_t cost =
        scoap_ ? (want == Val3::kOne ? scoap_->cc1[f] : scoap_->cc0[f])
               : t.level(f);
    if (obj == kNoGate || cost > obj_cost) {
      obj = f;
      obj_cost = cost;
    }
  }
  if (obj == kNoGate) return false;
  obj_gate = obj;
  obj_val = want;
  return true;
}

std::pair<std::size_t, Val3> Podem::backtrace(GateId gate, Val3 val) const {
  AIDFT_ASSERT(is_known(val), "backtrace objective must be known");
  const Topology& t = *topo_;
  GateId g = gate;
  Val3 v = val;
  for (;;) {
    if (input_index_[g] != kNpos && !is_known(good_[g])) {
      return {input_index_[g], v};
    }
    const GateType gtype = t.type(g);
    const std::span<const GateId> gfanin = t.fanin(g);
    AIDFT_ASSERT(!is_known(good_[g]), "backtrace through a justified line");
    auto cc = [&](GateId f, Val3 want) -> std::uint32_t {
      if (!scoap_) return t.level(f);
      return want == Val3::kOne ? scoap_->cc1[f] : scoap_->cc0[f];
    };
    auto pick_x_input = [&](Val3 want, bool hardest) -> GateId {
      GateId best = kNoGate;
      std::uint32_t best_cost = hardest ? 0 : std::numeric_limits<std::uint32_t>::max();
      for (GateId f : gfanin) {
        if (is_known(good_[f])) continue;
        const std::uint32_t c = cc(f, want);
        const bool better = hardest ? (best == kNoGate || c >= best_cost)
                                    : (best == kNoGate || c < best_cost);
        if (better) {
          best = f;
          best_cost = c;
        }
      }
      AIDFT_ASSERT(best != kNoGate, "X output gate must have an X input");
      return best;
    };
    switch (gtype) {
      case GateType::kBuf:
      case GateType::kOutput:
        g = gfanin[0];
        break;
      case GateType::kNot:
        g = gfanin[0];
        v = not3(v);
        break;
      case GateType::kAnd:
      case GateType::kNand: {
        const Val3 out_for_and = gtype == GateType::kAnd ? v : not3(v);
        if (out_for_and == Val3::kOne) {
          // All inputs must be 1: attack the hardest first.
          g = pick_x_input(Val3::kOne, /*hardest=*/true);
          v = Val3::kOne;
        } else {
          g = pick_x_input(Val3::kZero, /*hardest=*/false);
          v = Val3::kZero;
        }
        break;
      }
      case GateType::kOr:
      case GateType::kNor: {
        const Val3 out_for_or = gtype == GateType::kOr ? v : not3(v);
        if (out_for_or == Val3::kZero) {
          g = pick_x_input(Val3::kZero, /*hardest=*/true);
          v = Val3::kZero;
        } else {
          g = pick_x_input(Val3::kOne, /*hardest=*/false);
          v = Val3::kOne;
        }
        break;
      }
      case GateType::kXor:
      case GateType::kXnor: {
        // Choose one X input; other X inputs will be driven toward 0 by
        // later objectives, so aim for parity assuming they become 0.
        Val3 parity = gtype == GateType::kXnor ? Val3::kOne : Val3::kZero;
        GateId x_pick = kNoGate;
        for (GateId f : gfanin) {
          if (is_known(good_[f])) {
            parity = xor3(parity, good_[f]);
          } else if (x_pick == kNoGate) {
            x_pick = f;
          }
        }
        AIDFT_ASSERT(x_pick != kNoGate, "XOR with X output has an X input");
        g = x_pick;
        v = xor3(v, parity);
        break;
      }
      case GateType::kMux: {
        const GateId sel = gfanin[0], d0 = gfanin[1], d1 = gfanin[2];
        if (is_known(good_[sel])) {
          g = good_[sel] == Val3::kZero ? d0 : d1;
          // v unchanged
        } else if (is_known(good_[d0]) && good_[d0] == v) {
          g = sel;
          v = Val3::kZero;
        } else if (is_known(good_[d1]) && good_[d1] == v) {
          g = sel;
          v = Val3::kOne;
        } else if (!is_known(good_[d0])) {
          g = d0;  // make d0 the value, a later objective will set sel=0
        } else {
          g = d1;
        }
        break;
      }
      case GateType::kInput:
      case GateType::kDff:
      case GateType::kConst0:
      case GateType::kConst1:
        // Sources are handled by the loop head; constants are never X.
        AIDFT_ASSERT(false, "backtrace reached an unassignable source");
        return {kNpos, Val3::kX};
    }
  }
}

AtpgOutcome Podem::finish(AtpgOutcome out, AtpgStatus status) const {
  out.status = status;
  if (status == AtpgStatus::kDetected) {
    out.cube = TestCube(comb_inputs_.size());
    out.cube.bits = assignment_;
  }
  out.implications = implications_;
  out.events = events_;
  return out;
}

void Podem::target(const Fault& fault) {
  AIDFT_REQUIRE(fault.kind == FaultKind::kStuckAt,
                "PODEM generates stuck-at tests (map transition faults first)");
  scope_.build(fault);
  fault_ = fault;
  stuck_ = bool_to_val(fault.stuck_at_one());
  cone_observed_.clear();
  for (GateId g : scope_.cone()) {
    if (observed_flag_[g]) cone_observed_.push_back(g);
  }
}

void Podem::target_line(GateId line, Val3 value) {
  AIDFT_REQUIRE(line < nl_->num_gates(), "justify: gate out of range");
  AIDFT_REQUIRE(is_known(value), "justify: value must be 0 or 1");
  // Good machine only: the line's fanin is the support, the cone is empty.
  scope_.build_line(line);
  stuck_ = not3(value);
  cone_observed_.clear();
}

AtpgOutcome Podem::justify(GateId line, Val3 value, const PodemOptions& options) {
  target_line(line, value);
  return search(options);
}

AtpgOutcome Podem::generate(const Fault& fault, const PodemOptions& options) {
  target(fault);
  return search(options);
}

void Podem::relax(TestCube& cube) {
  AIDFT_REQUIRE(cube.size() == assignment_.size(), "relax: cube width mismatch");
  assignment_ = cube.bits;
  imply_all();
  AIDFT_ASSERT(detected(), "relax: cube does not meet its target");
  for (std::size_t i = 0; i < assignment_.size(); ++i) {
    const Val3 care = assignment_[i];
    if (care == Val3::kX) continue;
    assign(i, Val3::kX);
    imply();
    // A restored bit stays an event: the next trial's imply() propagates it
    // together with that trial's change.
    if (!detected()) assign(i, care);
  }
  cube.bits = assignment_;
}

AtpgOutcome Podem::search(const PodemOptions& options) {
  AtpgOutcome out;
  implications_ = 0;
  events_ = 0;
  // All-X, but for the options' pin constraints. An assignment left over
  // from an earlier call is no event of this search.
  std::fill(assignment_.begin(), assignment_.end(), Val3::kX);
  touched_.clear();
  for (const auto& [gate, value] : options.constraints) {
    AIDFT_REQUIRE(gate < nl_->num_gates() && input_index_[gate] != kNpos,
                  "constraint target is not a combinational input");
    AIDFT_REQUIRE(is_known(value), "constraint value must be 0 or 1");
    assign(input_index_[gate], value);
  }
  imply_from_x();

  std::vector<Decision> decisions;
  for (;;) {
    if (detected()) return finish(std::move(out), AtpgStatus::kDetected);

    // Feasibility of the current partial assignment.
    bool feasible = true;
    const Val3 line_val = good_[scope_.line()];
    if (is_known(line_val) && line_val == stuck_) {
      feasible = false;  // can never activate under this assignment
    } else if (!scope_.dpin() && fault_activated()) {
      // Build D-frontier and check an X-path remains (an empty cone has
      // none: there, activation is detection).
      dfrontier_.clear();
      for (GateId g : scope_.cone()) {
        if (both_known_diff(good_[g], faulty_[g])) continue;
        if (is_known(good_[g]) && is_known(faulty_[g])) continue;  // masked
        // A branch-fault site creates the difference *inside* the gate (the
        // forced pin), so it belongs to the frontier while its output is
        // still undetermined even though no fanin differs.
        if (!fault_.is_stem() && g == fault_.gate) {
          dfrontier_.push_back(g);
          continue;
        }
        for (GateId f : topo_->fanin(g)) {
          if (both_known_diff(good_[f], faulty_[f])) {
            dfrontier_.push_back(g);
            break;
          }
        }
      }
      if (dfrontier_.empty() || !x_path_exists()) feasible = false;
    }

    GateId obj_gate = kNoGate;
    Val3 obj_val = Val3::kX;
    if (feasible) {
      feasible = pick_objective(obj_gate, obj_val);
    }

    if (feasible) {
      const auto [idx, val] = backtrace(obj_gate, obj_val);
      AIDFT_ASSERT(idx != kNpos, "backtrace failed to find an input");
      decisions.push_back(Decision{idx, false});
      ++out.decisions;
      assign(idx, val);
      imply();
      continue;
    }

    // Dead end: flip the most recent unflipped decision.
    for (;;) {
      if (decisions.empty()) {
        return finish(std::move(out), AtpgStatus::kUntestable);
      }
      Decision& d = decisions.back();
      if (d.flipped) {
        assign(d.input_idx, Val3::kX);
        decisions.pop_back();
        continue;
      }
      d.flipped = true;
      assign(d.input_idx, not3(assignment_[d.input_idx]));
      ++out.backtracks;
      break;
    }
    if (out.backtracks > options.backtrack_limit ||
        (options.run_control != nullptr && (out.backtracks & 255) == 0 &&
         options.run_control->poll() != StopReason::kNone)) {
      return finish(std::move(out), AtpgStatus::kAborted);
    }
    imply();
  }
}

}  // namespace aidft
