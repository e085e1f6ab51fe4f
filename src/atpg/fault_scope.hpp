// The part of a netlist a stuck-at fault can touch, shared by the PODEM and
// SAT engines.
//
// The *cone* is the fault site's combinational output cone: the only gates
// whose faulty value can differ from the good one. The *support* is the
// cone's transitive fanin: every gate whose good value can reach the cone.
// An engine that reads values only inside the support can ignore the rest
// of the circuit. A DFF D-pin fault changes only the captured value, so its
// cone is empty and its support is the transitive fanin of the pin's driver;
// a fault-free line (line justification) is scoped the same way.
//
// Both lists come out in topo_order() order without a sort: the walks mark
// each support gate's topo position in a bitmap (with one summary bit per
// 64-position word), and one ascending read of the marked words lists the
// support, and the cone within it, while clearing the marks. A build costs
// its scope plus one summary word per 4096 gates of the netlist.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "fault/fault.hpp"
#include "netlist/topology.hpp"

namespace aidft {

class FaultScope {
 public:
  /// `topo` must outlive the scope. Per-gate marks are sized once here and
  /// reset per build in time proportional to the previous scope.
  explicit FaultScope(const Topology& topo);

  /// Scopes `fault`; a no-op when the scope already holds its site. Throws
  /// aidft::Error when its gate or pin is out of range for the topology
  /// (e.g. a fault of another netlist).
  void build(const Fault& fault);
  /// Scopes the fault-free line `line` (which must be in range): empty
  /// cone, support = its transitive fanin. The next build() rebuilds.
  void build_line(GateId line);

  /// The faulted line: the gate for a stem fault, the pin's driver for a
  /// branch fault (the justified line for build_line).
  GateId line() const { return line_; }
  /// True for a DFF D-pin fault (and for build_line): the cone is empty.
  bool dpin() const { return dpin_; }

  bool in_cone(GateId g) const { return in_cone_[g]; }
  bool in_support(GateId g) const { return in_support_[g]; }
  /// Cone and support gates, each in topo_order() order.
  const std::vector<GateId>& cone() const { return cone_; }
  const std::vector<GateId>& support() const { return support_; }
  /// The constant gates of the support, in no fixed order.
  const std::vector<GateId>& constants() const { return constants_; }

 private:
  void clear();
  /// Marks the support: `seeds` and their transitive fanin.
  void close_support(std::span<const GateId> seeds);
  /// Marks `g` as a support gate and queues it for the fanin walk.
  void add_to_support(GateId g);
  /// Lists the marked support, and the cone within it, in topo order.
  void collect();

  const Topology* topo_;
  std::vector<std::uint32_t> topo_pos_;  // per gate: index in topo_order()
  std::vector<bool> in_cone_;
  std::vector<bool> in_support_;
  std::vector<GateId> cone_;
  std::vector<GateId> support_;
  std::vector<GateId> constants_;
  // Marked topo positions of the support (empty between builds), and one
  // summary bit per word of them.
  std::vector<std::uint64_t> pos_bits_;
  std::vector<std::uint64_t> pos_words_;
  std::vector<GateId> stack_;  // scratch
  GateId line_ = kNoGate;
  bool dpin_ = false;
  // The fault site the scope holds; kNoGate after build_line.
  GateId site_gate_ = kNoGate;
  std::uint8_t site_pin_ = kStemPin;
};

}  // namespace aidft
