#include "atpg/fault_scope.hpp"

#include <bit>
#include <utility>

namespace aidft {

FaultScope::FaultScope(const Topology& topo)
    : topo_(&topo),
      topo_pos_(topo.num_gates()),
      in_cone_(topo.num_gates(), false),
      in_support_(topo.num_gates(), false),
      pos_bits_((topo.num_gates() + 63) / 64, 0),
      pos_words_((pos_bits_.size() + 63) / 64, 0) {
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
  constants_.clear();
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
    collect();
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
  close_support(cone_);
  collect();
}

void FaultScope::build_line(GateId line) {
  site_gate_ = kNoGate;
  dpin_ = true;
  line_ = line;
  clear();
  close_support({&line_, 1});
  collect();
}

void FaultScope::add_to_support(GateId g) {
  in_support_[g] = true;
  const std::uint32_t p = topo_pos_[g];
  pos_bits_[p >> 6] |= 1ull << (p & 63);
  pos_words_[p >> 12] |= 1ull << ((p >> 6) & 63);
  stack_.push_back(g);
}

void FaultScope::close_support(std::span<const GateId> seeds) {
  const Topology& t = *topo_;
  stack_.clear();
  for (GateId g : seeds) add_to_support(g);
  while (!stack_.empty()) {
    const GateId g = stack_.back();
    stack_.pop_back();
    const GateType type = t.type(g);
    if (type == GateType::kConst0 || type == GateType::kConst1) {
      constants_.push_back(g);
    }
    // Free variables of the full-scan combinational view end the walk.
    if (type == GateType::kInput || type == GateType::kDff) continue;
    for (GateId f : t.fanin(g)) {
      if (!in_support_[f]) add_to_support(f);
    }
  }
}

void FaultScope::collect() {
  const std::vector<GateId>& order = topo_->topo_order();
  cone_.clear();
  for (std::size_t s = 0; s < pos_words_.size(); ++s) {
    for (std::uint64_t words = std::exchange(pos_words_[s], 0); words != 0;
         words &= words - 1) {
      const std::size_t w = s * 64 + std::countr_zero(words);
      for (std::uint64_t bits = std::exchange(pos_bits_[w], 0); bits != 0;
           bits &= bits - 1) {
        const GateId g = order[w * 64 + std::countr_zero(bits)];
        support_.push_back(g);
        if (in_cone_[g]) cone_.push_back(g);
      }
    }
  }
}

}  // namespace aidft
