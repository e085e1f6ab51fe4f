#include "netlist/netlist.hpp"

namespace aidft {

std::string_view to_string(GateType type) {
  switch (type) {
    case GateType::kInput: return "INPUT";
    case GateType::kOutput: return "OUTPUT";
    case GateType::kBuf: return "BUF";
    case GateType::kNot: return "NOT";
    case GateType::kAnd: return "AND";
    case GateType::kNand: return "NAND";
    case GateType::kOr: return "OR";
    case GateType::kNor: return "NOR";
    case GateType::kXor: return "XOR";
    case GateType::kXnor: return "XNOR";
    case GateType::kMux: return "MUX";
    case GateType::kConst0: return "CONST0";
    case GateType::kConst1: return "CONST1";
    case GateType::kDff: return "DFF";
  }
  return "?";
}

void Netlist::reserve(std::size_t ngates) {
  gates_.reserve(ngates);
  names_.reserve(ngates);
}

GateId Netlist::add_gate(GateType type, std::string name) {
  AIDFT_REQUIRE(!finalized_, "cannot add gates after finalize()");
  const GateId id = static_cast<GateId>(gates_.size());
  Gate g;
  g.type = type;
  if (!name.empty()) {
    auto [it, inserted] = by_name_.emplace(name, id);
    AIDFT_REQUIRE(inserted, "duplicate gate name: " + name);
  }
  names_.push_back(std::move(name));
  gates_.push_back(std::move(g));
  switch (type) {
    case GateType::kInput: inputs_.push_back(id); break;
    case GateType::kOutput: outputs_.push_back(id); break;
    case GateType::kDff: dffs_.push_back(id); break;
    default: break;
  }
  return id;
}

GateId Netlist::add_gate(GateType type, std::span<const GateId> fanin,
                         std::string name) {
  const GateId id = add_gate(type, std::move(name));
  for (GateId f : fanin) connect(f, id);
  return id;
}

GateId Netlist::add_gate(GateType type, std::initializer_list<GateId> fanin,
                         std::string name) {
  return add_gate(type, std::span<const GateId>(fanin.begin(), fanin.size()),
                  std::move(name));
}

GateId Netlist::add_input(std::string name) {
  return add_gate(GateType::kInput, std::move(name));
}

GateId Netlist::add_output(GateId driver, std::string name) {
  const GateId id = add_gate(GateType::kOutput, std::move(name));
  connect(driver, id);
  return id;
}

GateId Netlist::add_dff(GateId d_input, std::string name) {
  const GateId id = add_gate(GateType::kDff, std::move(name));
  connect(d_input, id);
  return id;
}

void Netlist::connect(GateId driver, GateId sink) {
  AIDFT_REQUIRE(!finalized_, "cannot connect after finalize()");
  AIDFT_REQUIRE(driver < gates_.size() && sink < gates_.size(),
                "connect: gate id out of range");
  gates_[sink].fanin.push_back(driver);
}

void Netlist::check_arity(GateId id) const {
  const Gate& g = gates_[id];
  const std::size_t n = g.fanin.size();
  auto fail = [&](const char* need) {
    throw Error("gate " + std::to_string(id) + " (" +
                std::string(to_string(g.type)) +
                (names_[id].empty() ? "" : ", " + names_[id]) +
                "): expected " + need + " fanin(s), got " + std::to_string(n));
  };
  switch (g.type) {
    case GateType::kInput:
    case GateType::kConst0:
    case GateType::kConst1:
      if (n != 0) fail("0");
      break;
    case GateType::kOutput:
    case GateType::kBuf:
    case GateType::kNot:
    case GateType::kDff:
      if (n != 1) fail("1");
      break;
    case GateType::kMux:
      if (n != 3) fail("3 (sel,d0,d1)");
      break;
    case GateType::kAnd:
    case GateType::kNand:
    case GateType::kOr:
    case GateType::kNor:
    case GateType::kXor:
    case GateType::kXnor:
      if (n < 1) fail(">=1");
      break;
  }
  for (GateId f : g.fanin) {
    if (f >= gates_.size()) fail("valid");
    if (gates_[f].type == GateType::kOutput) {
      throw Error("gate " + std::to_string(id) +
                  " uses an OUTPUT marker as fanin");
    }
  }
}

void Netlist::finalize() {
  AIDFT_REQUIRE(!finalized_, "finalize() called twice");
  for (GateId id = 0; id < gates_.size(); ++id) check_arity(id);
  topo_view_ = Topology::build(*this);
  finalized_ = true;
}

std::vector<GateId> Netlist::combinational_inputs() const {
  std::vector<GateId> v = inputs_;
  v.insert(v.end(), dffs_.begin(), dffs_.end());
  return v;
}

std::vector<GateId> Netlist::observe_points() const {
  std::vector<GateId> v = outputs_;
  v.insert(v.end(), dffs_.begin(), dffs_.end());
  return v;
}

GateId Netlist::find(const std::string& name) const {
  auto it = by_name_.find(name);
  return it == by_name_.end() ? kNoGate : it->second;
}

std::size_t Netlist::logic_gate_count() const {
  std::size_t n = 0;
  for (const Gate& g : gates_) {
    if (g.type != GateType::kInput && g.type != GateType::kOutput) ++n;
  }
  return n;
}

std::vector<GateId> clone_gates(Netlist& dst, const Netlist& src,
                                const std::string& prefix) {
  std::vector<GateId> map(src.num_gates());
  for (GateId id = 0; id < src.num_gates(); ++id) {
    const std::string& name = src.name_of(id);
    map[id] = dst.add_gate(src.type(id), name.empty() ? "" : prefix + name);
  }
  return map;
}

void clone_fanins(Netlist& dst, const Netlist& src,
                  std::span<const GateId> sink_map,
                  std::span<const GateId> driver_map) {
  const Topology& t = src.topology();
  for (GateId id = 0; id < src.num_gates(); ++id) {
    if (sink_map[id] == kNoGate) continue;
    for (GateId f : t.fanin(id)) dst.connect(driver_map[f], sink_map[id]);
  }
}

}  // namespace aidft
