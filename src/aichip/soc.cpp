#include "aichip/soc.hpp"

#include <string>

namespace aidft::aichip {

std::size_t SocNetlist::comb_index(std::size_t inst, std::size_t k) const {
  AIDFT_ASSERT(inst < num_instances, "instance out of range");
  AIDFT_ASSERT(k < core_pis + core_ffs, "core input index out of range");
  if (k < core_pis) return inst * core_pis + k;
  // Flop pseudo-inputs come after all instances' primary inputs.
  return num_instances * core_pis + inst * core_ffs + (k - core_pis);
}

SocNetlist make_replicated_soc(const Netlist& core, std::size_t n) {
  SocNetlist soc;
  // Instance-major tiling keeps every instance's PIs and flops contiguous
  // and in core order, which is what comb_index() assumes.
  soc.netlist = Netlist::replicate(core, n);
  soc.num_instances = n;
  soc.core_pis = core.inputs().size();
  soc.core_ffs = core.dffs().size();
  return soc;
}

SocNetlist make_replicated_soc_with_compare(const Netlist& core, std::size_t n) {
  AIDFT_REQUIRE(core.finalized(), "core must be finalized");
  AIDFT_REQUIRE(n >= 2, "compare needs at least two instances");
  SocNetlist soc;
  soc.netlist.set_name(core.name() + "_x" + std::to_string(n) + "_cmp");
  soc.num_instances = n;
  soc.core_pis = core.inputs().size();
  soc.core_ffs = core.dffs().size();
  // Instances drop their output markers but gain compare trees; the
  // replicated core size is close enough to avoid regrowth.
  soc.netlist.reserve(n * core.num_gates());

  // Per instance: the gates driving each primary-output marker. The
  // markers themselves are NOT cloned — on-chip compare replaces direct
  // observation of instance outputs — so this builder clones gates with its
  // own loop (map[marker] stays kNoGate) and lets clone_fanins skip them.
  const Topology& t = core.topology();
  std::vector<std::vector<GateId>> po_drivers(n);
  for (std::size_t inst = 0; inst < n; ++inst) {
    const std::string prefix = "u" + std::to_string(inst) + "_";
    std::vector<GateId> map(core.num_gates(), kNoGate);
    for (GateId id = 0; id < core.num_gates(); ++id) {
      if (t.type(id) == GateType::kOutput) continue;
      const std::string name = core.name_of(id);
      map[id] = soc.netlist.add_gate(t.type(id),
                                     name.empty() ? "" : prefix + name);
    }
    clone_fanins(soc.netlist, core, map, map);
    for (GateId po : core.outputs()) {
      po_drivers[inst].push_back(map[t.fanin0(po)]);
    }
  }
  // Compare trees: instance i vs instance 0.
  for (std::size_t inst = 1; inst < n; ++inst) {
    std::vector<GateId> diffs;
    diffs.reserve(po_drivers[0].size());
    for (std::size_t k = 0; k < po_drivers[0].size(); ++k) {
      diffs.push_back(soc.netlist.add_gate(
          GateType::kXor, {po_drivers[0][k], po_drivers[inst][k]}));
    }
    GateId any = diffs.empty() ? kNoGate : diffs[0];
    if (diffs.size() > 1) {
      // Balanced OR reduction.
      std::vector<GateId> layer = diffs;
      while (layer.size() > 1) {
        std::vector<GateId> next;
        for (std::size_t i = 0; i + 1 < layer.size(); i += 2) {
          next.push_back(
              soc.netlist.add_gate(GateType::kOr, {layer[i], layer[i + 1]}));
        }
        if (layer.size() % 2 == 1) next.push_back(layer.back());
        layer = std::move(next);
      }
      any = layer[0];
    }
    AIDFT_REQUIRE(any != kNoGate, "core has no primary outputs to compare");
    soc.mismatch_outputs.push_back(
        soc.netlist.add_output(any, "mismatch" + std::to_string(inst)));
  }
  soc.instance_po_drivers = std::move(po_drivers);
  soc.netlist.finalize();
  AIDFT_ASSERT(soc.netlist.inputs().size() == n * soc.core_pis,
               "SoC PI count mismatch");
  return soc;
}

TestCube broadcast_cube(const SocNetlist& soc, const TestCube& core_cube) {
  AIDFT_REQUIRE(core_cube.size() == soc.core_pis + soc.core_ffs,
                "core cube width mismatch");
  TestCube out(soc.num_instances * core_cube.size());
  for (std::size_t inst = 0; inst < soc.num_instances; ++inst) {
    for (std::size_t k = 0; k < core_cube.size(); ++k) {
      out.bits[soc.comb_index(inst, k)] = core_cube.bits[k];
    }
  }
  return out;
}

std::vector<Fault> lift_faults(const SocNetlist& soc,
                               std::span<const Fault> core_faults) {
  const std::size_t n = soc.num_instances;
  AIDFT_REQUIRE(n >= 1 && soc.netlist.replicas() == n,
                "lift_faults needs a make_replicated_soc() SoC");
  const std::size_t g = soc.netlist.num_gates() / n;
  for (const Fault& f : core_faults) {
    AIDFT_REQUIRE(f.gate < g, "lift_faults: core fault on gate " +
                                  std::to_string(f.gate) +
                                  " outside the core's " + std::to_string(g) +
                                  " gates");
  }
  std::vector<Fault> out;
  out.reserve(n * core_faults.size());
  for (std::size_t i = 0; i < n; ++i) {
    const auto base = static_cast<GateId>(i * g);
    for (Fault f : core_faults) {
      f.gate += base;
      out.push_back(f);
    }
  }
  return out;
}

}  // namespace aidft::aichip
