// Gate-level netlist IR.
//
// A Netlist is a DAG of gates plus DFF state elements, and lives in two
// phases. Phase 1 (builder): it is built incrementally (add_* then connect)
// on per-gate records that hold only a type and a fanin list (inline up to
// three fanins, wider lists in one shared spill array). Phase 2
// (compiled): `finalize()` validates the structure, freezes the netlist,
// compiles the Topology view (CSR fanin/fanout, flat type and level arrays,
// topological order, per-level buckets) and frees the records; the Topology
// is then its one structural form, which gate() and every analysis engine
// (simulation, ATPG, fault sim, SCOAP, ...) read. Names live in a side table.
//
// Rewrites (wrappers, scan and test-point insertion) build a new netlist
// from a finalized one with clone_gates() + clone_fanins(). Plain SoC
// replication skips the builder: Netlist::replicate() tiles the core's
// compiled Topology and composes instance names on demand, so a replica is
// just another finalized netlist whose names come from the core's table.
//
// Sequential handling: a DFF's value is its Q output; its single fanin is D.
// For full-scan test generation the combinational view treats every DFF
// output as a pseudo primary input (PPI) and every DFF D input as a pseudo
// primary output (PPO); `combinational_inputs()` / `observe_points()` expose
// exactly that view so the test engines never special-case sequential logic.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/error.hpp"
#include "netlist/topology.hpp"
#include "netlist/types.hpp"

namespace aidft {

/// Read-only view of one gate: its type and fanin list in pin order. Valid
/// while its Netlist lives and is not modified. Hot engines traverse
/// topology() instead.
struct Gate {
  GateType type = GateType::kBuf;
  std::span<const GateId> fanin;
};

class Netlist {
 public:
  Netlist() = default;
  explicit Netlist(std::string name) : name_(std::move(name)) {}

  // ---- construction ------------------------------------------------------

  /// Pre-allocates storage for `ngates` gates (builder-phase hint; cuts
  /// reallocation churn when generators know the circuit size up front).
  void reserve(std::size_t ngates);

  /// Adds a gate with no connections yet. Fanins are attached via connect().
  GateId add_gate(GateType type, std::string name = {});

  /// Convenience: adds a gate already wired to `fanin`.
  GateId add_gate(GateType type, std::span<const GateId> fanin,
                  std::string name = {});
  GateId add_gate(GateType type, std::initializer_list<GateId> fanin,
                  std::string name = {});

  GateId add_input(std::string name = {});
  /// Adds an output marker observing `driver`.
  GateId add_output(GateId driver, std::string name = {});
  GateId add_dff(GateId d_input, std::string name = {});

  /// Appends `driver` to `sink`'s fanin list. Only valid before finalize().
  void connect(GateId driver, GateId sink);

  /// Validates structure, compiles the Topology view and frees the builder
  /// records. Throws Error on malformed structure (wrong arity, cycles
  /// through combinational logic, dangling fanin).
  void finalize();

  bool finalized() const { return finalized_; }

  /// `n` instances of the finalized `core`, tiled instance-major: instance
  /// i's copy of core gate g is gate i * core.num_gates() + g, and the
  /// input/output/flop lists follow the same order. Returns a finalized
  /// netlist named "<core>_x<n>" whose Topology is Topology::replicate() of
  /// the core's and whose names are composed on demand as "u<i>_" + core
  /// name (an unnamed core gate stays unnamed). Throws Error when the
  /// replica's gate ids or edge offsets would not fit 32 bits.
  static Netlist replicate(const Netlist& core, std::size_t n);

  /// Instance count `n` of a netlist made by replicate(), 0 for any other:
  /// instance i then holds gates [i * G, (i + 1) * G), G = num_gates() / n.
  std::size_t replicas() const { return replicas_; }

  // ---- structure access --------------------------------------------------

  const std::string& name() const { return name_; }
  void set_name(std::string name) { name_ = std::move(name); }

  std::size_t num_gates() const {
    return finalized_ ? topo_view_.num_gates() : records_.size();
  }
  /// View of gate `id`: the compiled Topology once finalized, the builder
  /// record before.
  Gate gate(GateId id) const {
    AIDFT_DBG_ASSERT(id < num_gates(), "gate id out of range");
    if (finalized_) return {topo_view_.type(id), topo_view_.fanin(id)};
    return {records_[id].type, record_fanin(id)};
  }
  GateType type(GateId id) const {
    AIDFT_DBG_ASSERT(id < num_gates(), "gate id out of range");
    return finalized_ ? topo_view_.type(id) : records_[id].type;
  }

  /// Name of gate `id` (empty when auto-named). Side table, not a Gate
  /// member: only reporting paths pay for name storage locality. By value:
  /// a replica composes it from the core's table.
  std::string name_of(GateId id) const;

  const std::vector<GateId>& inputs() const { return inputs_; }
  const std::vector<GateId>& outputs() const { return outputs_; }
  const std::vector<GateId>& dffs() const { return dffs_; }

  /// Compiled flat view (CSR adjacency, flat types/levels, level buckets).
  /// Valid after finalize(); hot engines cache this reference and traverse
  /// it instead of Gate views.
  const Topology& topology() const {
    AIDFT_REQUIRE(finalized_, "topology requires finalize()");
    return topo_view_;
  }

  /// Gates in topological order (sources first, level-sorted). Valid after
  /// finalize().
  const std::vector<GateId>& topo_order() const {
    AIDFT_ASSERT(finalized_, "topo_order requires finalize()");
    return topo_view_.topo_order();
  }

  /// Max level + 1 (0 for an empty netlist). Valid after finalize().
  std::uint32_t num_levels() const { return topo_view_.num_levels(); }

  /// Full-scan combinational view: primary inputs followed by DFF outputs
  /// (PPIs). This is the controllable-point list for test engines.
  std::vector<GateId> combinational_inputs() const;

  /// Full-scan observation view: primary-output gates followed by DFF gates
  /// (a DFF observes its D input at capture). For a DFF entry, the observed
  /// value is the value of its fanin[0].
  std::vector<GateId> observe_points() const;

  /// Sizes and entries of the two views above without building either
  /// list (each is a copy of the netlist's I/O and flop lists: half a
  /// megabyte on a thousand-core SoC).
  std::size_t num_combinational_inputs() const {
    return inputs_.size() + dffs_.size();
  }
  std::size_t num_observe_points() const {
    return outputs_.size() + dffs_.size();
  }
  GateId combinational_input(std::size_t i) const {
    return i < inputs_.size() ? inputs_[i] : dffs_[i - inputs_.size()];
  }
  GateId observe_point(std::size_t i) const {
    return i < outputs_.size() ? outputs_[i] : dffs_[i - outputs_.size()];
  }

  /// Value actually observed at an observe point `g`: the gate's own value
  /// for POs, the D-input gate for DFFs.
  GateId observed_gate(GateId g) const {
    const Topology& t = topology();
    return t.type(g) == GateType::kDff ? t.fanin0(g) : g;
  }

  /// Looks up a gate by name; returns kNoGate if absent. On a replica the
  /// name must be "u<i>_<core name>" with i in canonical decimal (no
  /// leading zero) below the instance count.
  GateId find(const std::string& name) const;

  /// Count of gates excluding kInput/kOutput markers (a conventional
  /// "gate count" for reporting).
  std::size_t logic_gate_count() const;

  /// Heap footprint of the name side table and its lookup index (the hash
  /// index is estimated from its bucket and node counts).
  std::size_t name_bytes() const;

 private:
  // Builder-phase gate record, with no heap block of its own: up to
  // kInlineFanins fanins sit in `slot`; a wider gate moves them to spill_,
  // slot[0] then holding their offset there and slot[1] the room reserved
  // at that offset (a gate that outgrows it moves to the end with double).
  static constexpr std::uint32_t kInlineFanins = 3;
  struct Record {
    GateType type = GateType::kBuf;
    std::uint32_t nfanin = 0;
    GateId slot[kInlineFanins] = {};
  };
  static_assert(sizeof(Record) == 20);

  std::span<const GateId> record_fanin(GateId id) const {
    const Record& r = records_[id];
    return r.nfanin <= kInlineFanins
               ? std::span<const GateId>(r.slot, r.nfanin)
               : std::span<const GateId>(spill_.data() + r.slot[0], r.nfanin);
  }
  void check_arity(GateId id) const;

  std::string name_;
  std::vector<Record> records_;  // builder phase only; freed by finalize()
  std::vector<GateId> spill_;    // wide gates' fanins; freed with records_
  // One entry per gate, or on a replica one core instance's table;
  // "" = auto-named.
  std::vector<std::string> names_;
  std::vector<GateId> inputs_;
  std::vector<GateId> outputs_;
  std::vector<GateId> dffs_;
  std::unordered_map<std::string, GateId> by_name_;  // over names_
  Topology topo_view_;  // compiled by finalize() or tiled by replicate()
  std::size_t replicas_ = 0;  // instance count of a replica, else 0
  bool finalized_ = false;
};

/// Rewrite primitive, step 1: appends a copy of every gate of `src` to
/// `dst` (same type; a named gate gets `prefix` + its name, an unnamed one
/// stays unnamed) and returns the map from `src` ids to `dst` ids.
std::vector<GateId> clone_gates(Netlist& dst, const Netlist& src,
                                const std::string& prefix);

/// Rewrite primitive, step 2: copies every fanin edge f -> s of the
/// finalized `src` into `dst` as driver_map[f] -> sink_map[s], in pin order.
/// A sink that maps to kNoGate is left unwired for the caller to wire.
void clone_fanins(Netlist& dst, const Netlist& src,
                  std::span<const GateId> sink_map,
                  std::span<const GateId> driver_map);

}  // namespace aidft
