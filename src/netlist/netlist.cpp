#include "netlist/netlist.hpp"

#include <algorithm>

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
  records_.reserve(ngates);
  names_.reserve(ngates);
}

GateId Netlist::add_gate(GateType type, std::string name) {
  AIDFT_REQUIRE(!finalized_, "cannot add gates after finalize()");
  const GateId id = static_cast<GateId>(records_.size());
  if (!name.empty()) {
    auto [it, inserted] = by_name_.emplace(name, id);
    AIDFT_REQUIRE(inserted, "duplicate gate name: " + name);
  }
  names_.push_back(std::move(name));
  records_.push_back(Record{.type = type});
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
  AIDFT_REQUIRE(driver < records_.size() && sink < records_.size(),
                "connect: gate id out of range");
  Record& r = records_[sink];
  if (r.nfanin < kInlineFanins) {
    r.slot[r.nfanin++] = driver;
    return;
  }
  if (r.nfanin == kInlineFanins || r.nfanin == r.slot[1]) {
    // Inline slots or spill room full: move the list to the spill array's
    // end with room for twice as many.
    const std::size_t at = spill_.size();
    spill_.resize(at + 2 * r.nfanin);
    const std::span<const GateId> old = record_fanin(sink);
    std::copy(old.begin(), old.end(), spill_.begin() + at);
    r.slot[0] = static_cast<GateId>(at);
    r.slot[1] = 2 * r.nfanin;
  }
  spill_[r.slot[0] + r.nfanin++] = driver;
}

void Netlist::check_arity(GateId id) const {
  const Record& g = records_[id];
  const std::span<const GateId> fanin = record_fanin(id);
  const std::size_t n = fanin.size();
  auto fail = [&](const std::string& need) {
    throw Error("gate " + std::to_string(id) + " (" +
                std::string(to_string(g.type)) +
                (names_[id].empty() ? "" : ", " + names_[id]) +
                "): expected " + need + " fanin(s), got " + std::to_string(n));
  };
  const auto [lo, hi] = fanin_range(g.type);
  if (n < lo || n > hi) {
    fail((lo == hi ? "" : ">=") + std::to_string(lo) +
         (g.type == GateType::kMux ? " (sel,d0,d1)" : ""));
  }
  for (GateId f : fanin) {
    if (f >= records_.size()) fail("valid");
    if (records_[f].type == GateType::kOutput) {
      throw Error("gate " + std::to_string(id) +
                  " uses an OUTPUT marker as fanin");
    }
  }
}

void Netlist::finalize() {
  AIDFT_REQUIRE(!finalized_, "finalize() called twice");
  for (GateId id = 0; id < records_.size(); ++id) check_arity(id);
  topo_view_ = Topology::build(*this);
  finalized_ = true;
  std::vector<Record>().swap(records_);
  std::vector<GateId>().swap(spill_);
}

Netlist Netlist::replicate(const Netlist& core, std::size_t n) {
  AIDFT_REQUIRE(core.finalized(), "core must be finalized");
  AIDFT_REQUIRE(n >= 1, "need at least one instance");
  // Tiling the Topology first also runs the 32-bit overflow checks before
  // anything SoC-sized is allocated. Arity and acyclicity hold per
  // instance, so they hold for the disjoint union: no re-validation.
  Netlist r(core.name() + "_x" + std::to_string(n));
  r.topo_view_ = Topology::replicate(core.topology(), n);
  r.replicas_ = n;
  r.finalized_ = true;

  const std::size_t g = core.num_gates();
  r.names_.reserve(g);
  for (GateId id = 0; id < g; ++id) {
    r.names_.push_back(core.name_of(id));
    if (!r.names_.back().empty()) r.by_name_.emplace(r.names_.back(), id);
  }
  auto tile = [&](const std::vector<GateId>& ids, std::vector<GateId>& out) {
    out.reserve(n * ids.size());
    for (std::size_t i = 0; i < n; ++i) {
      for (GateId id : ids) out.push_back(static_cast<GateId>(i * g + id));
    }
  };
  tile(core.inputs_, r.inputs_);
  tile(core.outputs_, r.outputs_);
  tile(core.dffs_, r.dffs_);
  return r;
}

std::string Netlist::name_of(GateId id) const {
  AIDFT_DBG_ASSERT(id < num_gates(), "gate id out of range");
  if (replicas_ == 0) return names_[id];
  const std::string& core_name = names_[id % names_.size()];
  if (core_name.empty()) return {};
  return "u" + std::to_string(id / names_.size()) + "_" + core_name;
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
  if (replicas_ == 0) {
    auto it = by_name_.find(name);
    return it == by_name_.end() ? kNoGate : it->second;
  }
  // "u<i>_<core name>": the first '_' ends the instance number, so every
  // replica name parses to exactly one (instance, core gate) pair.
  const std::size_t sep = name.find('_');
  if (sep == std::string::npos || sep < 2 || name[0] != 'u') return kNoGate;
  if (name[1] == '0' && sep > 2) return kNoGate;  // leading zero
  std::size_t inst = 0;
  for (std::size_t k = 1; k < sep; ++k) {
    if (name[k] < '0' || name[k] > '9') return kNoGate;
    inst = inst * 10 + static_cast<std::size_t>(name[k] - '0');
    if (inst >= replicas_) return kNoGate;  // also bounds inst
  }
  auto it = by_name_.find(name.substr(sep + 1));
  if (it == by_name_.end()) return kNoGate;
  return static_cast<GateId>(inst * names_.size() + it->second);
}

std::size_t Netlist::logic_gate_count() const {
  std::size_t n = 0;
  for (GateId id = 0; id < num_gates(); ++id) {
    const GateType t = type(id);
    if (t != GateType::kInput && t != GateType::kOutput) ++n;
  }
  return n;
}

std::size_t Netlist::name_bytes() const {
  const std::size_t sso = std::string().capacity();
  auto heap = [sso](const std::string& s) {
    return s.capacity() > sso ? s.capacity() + 1 : 0;
  };
  std::size_t bytes = names_.capacity() * sizeof(std::string);
  for (const std::string& s : names_) bytes += heap(s);
  bytes += by_name_.bucket_count() * sizeof(void*);
  for (const auto& [key, id] : by_name_) {
    // Node: next pointer, cached hash, key/value pair.
    bytes += 2 * sizeof(void*) + sizeof(std::pair<const std::string, GateId>) +
             heap(key);
  }
  return bytes;
}

std::vector<GateId> clone_gates(Netlist& dst, const Netlist& src,
                                const std::string& prefix) {
  std::vector<GateId> map(src.num_gates());
  for (GateId id = 0; id < src.num_gates(); ++id) {
    const std::string name = src.name_of(id);
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
