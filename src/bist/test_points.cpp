#include "bist/test_points.hpp"

#include <algorithm>

namespace aidft {
namespace {

bool eligible(const Netlist& nl, GateId id) {
  const GateType t = nl.type(id);
  if (is_source(t) || is_state_element(t) || t == GateType::kOutput) return false;
  return nl.topology().fanout_size(id) != 0;
}

}  // namespace

TestPointPlan select_test_points(const Netlist& nl, const ScoapResult& scoap,
                                 std::size_t n_observe, std::size_t n_control) {
  AIDFT_REQUIRE(nl.finalized(), "select_test_points requires finalized netlist");
  TestPointPlan plan;

  std::vector<GateId> candidates;
  for (GateId id = 0; id < nl.num_gates(); ++id) {
    if (eligible(nl, id)) candidates.push_back(id);
  }

  // Observe points: worst CO first (ties by id for determinism).
  std::vector<GateId> by_co = candidates;
  std::sort(by_co.begin(), by_co.end(), [&](GateId a, GateId b) {
    return scoap.co[a] != scoap.co[b] ? scoap.co[a] > scoap.co[b] : a < b;
  });
  for (std::size_t i = 0; i < std::min(n_observe, by_co.size()); ++i) {
    plan.observe.push_back(by_co[i]);
  }

  // Control points: worst max(cc0, cc1); force toward the hard value.
  std::vector<GateId> by_cc = candidates;
  auto hardness = [&](GateId g) { return std::max(scoap.cc0[g], scoap.cc1[g]); };
  std::sort(by_cc.begin(), by_cc.end(), [&](GateId a, GateId b) {
    return hardness(a) != hardness(b) ? hardness(a) > hardness(b) : a < b;
  });
  for (std::size_t i = 0; i < std::min(n_control, by_cc.size()); ++i) {
    const GateId g = by_cc[i];
    plan.control.push_back(ControlPoint{g, scoap.cc1[g] >= scoap.cc0[g]});
  }
  return plan;
}

Netlist apply_test_points(const Netlist& nl, const TestPointPlan& plan) {
  AIDFT_REQUIRE(nl.finalized(), "apply_test_points requires finalized netlist");
  Netlist out(nl.name() + "_tp");

  const std::vector<GateId> map = clone_gates(out, nl, "");

  // Control splices: sinks of `net` reroute through the splice gate.
  std::vector<GateId> feed = map;
  std::size_t ci = 0;
  for (const ControlPoint& cp : plan.control) {
    AIDFT_REQUIRE(cp.net < nl.num_gates(), "control point out of range");
    const GateId tp = out.add_input("tp_ctl" + std::to_string(ci));
    GateId splice;
    if (cp.force_to_one) {
      splice = out.add_gate(GateType::kOr, {map[cp.net], tp},
                            "tp_or" + std::to_string(ci));
    } else {
      const GateId ntp = out.add_gate(GateType::kNot, {tp});
      splice = out.add_gate(GateType::kAnd, {map[cp.net], ntp},
                            "tp_and" + std::to_string(ci));
    }
    feed[cp.net] = splice;
    ++ci;
  }

  // Wire the cloned gates through the splices.
  clone_fanins(out, nl, map, feed);

  // Observe taps (on the spliced value, so control points stay observable).
  std::size_t oi = 0;
  for (GateId g : plan.observe) {
    AIDFT_REQUIRE(g < nl.num_gates(), "observe point out of range");
    out.add_output(feed[g], "tp_obs" + std::to_string(oi++));
  }

  out.finalize();
  return out;
}

}  // namespace aidft
