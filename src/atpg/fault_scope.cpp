#include "atpg/fault_scope.hpp"

#include <algorithm>

namespace aidft {

FaultScope::FaultScope(const Topology& topo)
    : topo_(&topo),
      topo_pos_(topo.num_gates()),
      in_cone_(topo.num_gates(), false),
      in_support_(topo.num_gates(), false) {
  const std::vector<GateId>& order = topo.topo_order();
  for (std::size_t i = 0; i < order.size(); ++i) {
    topo_pos_[order[i]] = static_cast<std::uint32_t>(i);
  }
}

void FaultScope::clear() {
  for (GateId g : cone_) in_cone_[g] = false;
  for (GateId g : support_) in_support_[g] = false;
  cone_.clear();
  support_.clear();
}

void FaultScope::sort_topological(std::vector<GateId>& gates) const {
  // Sorting the positions themselves, not gates by a looked-up key, keeps
  // the comparisons on plain integers.
  const std::vector<GateId>& order = topo_->topo_order();
  for (GateId& g : gates) g = topo_pos_[g];
  std::sort(gates.begin(), gates.end());
  for (GateId& g : gates) g = order[g];
}

void FaultScope::build(const Fault& fault) {
  const Topology& t = *topo_;
  AIDFT_REQUIRE(fault.gate < t.num_gates(), "fault gate out of range");
  AIDFT_REQUIRE(fault.is_stem() || fault.pin < t.fanin_size(fault.gate),
                "fault pin out of range");
  if (fault.gate == site_gate_ && fault.pin == site_pin_) return;
  site_gate_ = fault.gate;
  site_pin_ = fault.pin;
  dpin_ = !fault.is_stem() && t.type(fault.gate) == GateType::kDff;
  line_ = fault.is_stem() ? fault.gate : t.fanin(fault.gate)[fault.pin];
  clear();
  if (dpin_) {
    close_support({&line_, 1});
    return;
  }
  stack_.assign(1, fault.gate);
  in_cone_[fault.gate] = true;
  cone_.push_back(fault.gate);
  while (!stack_.empty()) {
    const GateId g = stack_.back();
    stack_.pop_back();
    for (GateId s : t.fanout(g)) {
      if (is_state_element(t.type(s)) || in_cone_[s]) continue;
      in_cone_[s] = true;
      cone_.push_back(s);
      stack_.push_back(s);
    }
  }
  sort_topological(cone_);
  close_support(cone_);
}

void FaultScope::build_line(GateId line) {
  site_gate_ = kNoGate;
  dpin_ = true;
  line_ = line;
  clear();
  close_support({&line_, 1});
}

void FaultScope::close_support(std::span<const GateId> seeds) {
  const Topology& t = *topo_;
  stack_.assign(seeds.begin(), seeds.end());
  for (GateId g : seeds) {
    in_support_[g] = true;
    support_.push_back(g);
  }
  while (!stack_.empty()) {
    const GateId g = stack_.back();
    stack_.pop_back();
    // Free variables of the full-scan combinational view end the walk.
    if (t.type(g) == GateType::kInput || t.type(g) == GateType::kDff) continue;
    for (GateId f : t.fanin(g)) {
      if (in_support_[f]) continue;
      in_support_[f] = true;
      support_.push_back(f);
      stack_.push_back(f);
    }
  }
  sort_topological(support_);
}

}  // namespace aidft
